import random

import pytest

from supercong.exactnum import is_prime


def primes_in(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi + 1) if is_prime(p)]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260809)

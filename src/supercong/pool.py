"""The forked worker pool of congruences.run_suite.

run_suite forks only for a sweep past the break-even (congruences._cost and
_BREAK_EVEN), and imports this module only then, so that a launch whose
checks run in one process never compiles it.  Each worker runs the
runner's function of one task, which it inherits by fork with the tasks.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
from typing import Callable


def _work(tasks: list, run: Callable[[object], list], todo_r: int, todo_w: int, result_w: int) -> None:
    """The body of a forked worker; it never returns.  It runs run on the
    task of each index it reads from the pipe todo_r, 4 bytes at a time,
    until EOF, then writes one pickled payload to the pipe result_w:
    [(index, verdicts), ...], or the exception it caught.  SIGINT is left to
    the parent, which kills its workers, and os._exit skips the atexit
    handlers and the stdout buffer this process inherited."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        os.close(todo_w)  # the parent's write end: while open here, no EOF
        try:
            payload = []
            while chunk := os.read(todo_r, 4):
                index = int.from_bytes(chunk, "little")
                payload.append((index, run(tasks[index])))
        except Exception as exc:
            payload = exc
        with open(result_w, "wb") as out:
            pickle.dump(payload, out)
        status = 0
    finally:
        os._exit(status)  # never unwind into the caller's frames


def forked(tasks: list, workers: int, run: Callable[[object], list]) -> list[list]:
    """run(task) of each task, in order, computed by `workers` forked child
    processes.

    The children inherit the tasks by fork, so no task is pickled.  After
    forking, the parent writes the task indices into one pipe that all
    children read, 4 bytes each; reads and writes of 4 bytes are atomic, so
    each child takes the next index in order, and the indices are written
    as the pipe drains, so no list is too long for it.  Each child sends
    back one pickled payload on its own pipe (_work).  The first exception
    a child sends is raised here unchanged; a child that dies or exits
    without a payload raises RuntimeError naming its signal or status.
    However this call ends, every child still running is killed and every
    child is reaped, so none outlives it.  A fork copies only the calling
    thread, so the caller must run no other thread (verify runs none).
    """
    todo = b"".join(i.to_bytes(4, "little") for i in range(len(tasks)))
    done: dict[int, list] = {}
    fds: set[int] = set()  # pipe ends open in this process
    children: dict[int, tuple[int, bytearray]] = {}  # result pipe -> (pid, bytes read)
    try:
        todo_r, todo_w = os.pipe()
        fds.update((todo_r, todo_w))
        for _ in range(workers):
            result_r, result_w = os.pipe()
            fds.update((result_r, result_w))
            pid = os.fork()
            if pid == 0:
                _work(tasks, run, todo_r, todo_w, result_w)
            os.close(result_w)
            fds.discard(result_w)
            children[result_r] = (pid, bytearray())
        os.close(todo_r)
        fds.discard(todo_r)
        while children:
            readable, writable, _ = select.select(
                list(children), [todo_w] if todo_w in fds else [], [])
            for fd in readable:
                pid, payload = children[fd]
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    payload += chunk
                    continue
                os.close(fd)
                fds.discard(fd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[fd]
                if code < 0:
                    raise RuntimeError(f"a worker process was killed by signal {-code} "
                                       f"({signal.Signals(-code).name})")
                if code or not payload:
                    raise RuntimeError(f"a worker process exited with status {code} "
                                       "and no result")
                payload = pickle.loads(payload)
                if isinstance(payload, BaseException):
                    raise payload
                done.update(payload)
            if writable:  # after the reads: a child that ended early says why first
                todo = todo[os.write(todo_w, todo[:select.PIPE_BUF]):]
                if not todo:
                    os.close(todo_w)
                    fds.discard(todo_w)
    finally:
        for fd in fds:
            os.close(fd)
        for pid, _ in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [done[i] for i in range(len(tasks))]

"""The fork of `simulate` and `detect`: shared units, a barrier, two halves."""

from __future__ import annotations

import os
import pickle
from contextlib import AbstractContextManager


class Claims(AbstractContextManager):
    """Units 0 to n - 1, each handed out once to whichever of the
    processes sharing this object (forked after it was made) calls it
    next: from the front, in ascending order, or with `back` from the
    back, in descending order; None once every unit is out.

    The units not yet out, [front, end), are a 16-byte token in a pipe,
    end · 2**64 + front: a call takes it out and puts its successor back,
    so the other process waits meanwhile.  The pipe holds the token
    alone, whatever n is; leaving a `with` block closes it.
    """

    def __init__(self, n: int):
        self.fds = os.pipe()
        os.write(self.fds[1], (n << 64).to_bytes(16, "little"))

    def __call__(self, back: bool = False) -> int | None:
        token = int.from_bytes(os.read(self.fds[0], 16), "little")
        end, front = divmod(token, 1 << 64)
        unit = None if front == end else end - 1 if back else front
        if unit is not None:
            token += -(1 << 64) if back else 1
        os.write(self.fds[1], token.to_bytes(16, "little"))
        return unit

    def __exit__(self, *exc) -> None:
        for fd in self.fds:
            os.close(fd)


def _portable(exc: BaseException) -> BaseException:
    """`exc`, or where it would not unpickle in the parent a RuntimeError
    naming its type and message."""
    try:
        pickle.loads(pickle.dumps(exc, -1))
    except Exception:
        return RuntimeError(f"{type(exc).__name__} in a forked child: {exc}")
    return exc


def fork_join(here, there, units=()):
    """`(here(), there())`, with `there` run in a forked child meanwhile.

    The child pickles its result or exception into a pipe and always leaves
    through os._exit; an exception that would not unpickle is sent as a
    RuntimeError naming its type and message. The child is killed and
    reaped before this returns or raises, and an exception of `here` wins.
    A child that ends without answering is a ChildProcessError. Without
    os.fork both run inline.

    `units`, callables, run first, shared by the two processes: each
    calls the next one not yet claimed (Claims) until none is left or
    its call raises.  At a barrier the child reports how its units ended.
    Where a unit raised, the exception of the lowest one is raised and
    neither half runs, as when the units run in order in one process;
    otherwise the parent lets the child's half start.  A unit of this
    process that raises what is not an Exception (an interrupt) is raised
    at once.  Inline, the units run in order.
    """
    if not hasattr(os, "fork"):
        for unit in units:
            unit()
        return here(), there()
    read_fd, write_fd = os.pipe()
    go_read, go_write = os.pipe()  # the barrier
    with Claims(len(units)) as claim:
        def run_units(caught):
            """(index, exception) of the first unit this process claims
            that raises one of `caught`; None once no unit is left."""
            while (i := claim()) is not None:
                try:
                    units[i]()
                except caught as exc:
                    return i, exc
            return None

        try:
            pid = os.fork()
        except OSError:
            for fd in (read_fd, write_fd, go_read, go_write):
                os.close(fd)
            raise
        if pid == 0:
            try:
                os.close(read_fd)
                os.close(go_write)
                with open(write_fd, "wb") as pipe:
                    _child(pipe, go_read, there, run_units)
            finally:
                os._exit(0)
        os.close(write_fd)
        result = None
        try:
            with open(read_fd, "rb") as pipe:
                def receive(default):
                    """The child's next message; `default` once it has ended."""
                    try:
                        return pickle.load(pipe)
                    except (EOFError, pickle.UnpicklingError):
                        return default

                gone = object()  # the child ended first; the join says how
                failed = [run_units(Exception), receive(gone)]
                if gone not in failed:
                    failed = [f for f in failed if f is not None]
                    if failed:
                        raise min(failed, key=lambda f: f[0])[1]
                    os.write(go_write, b"!")
                    mine = here()
                    result = receive(None)
        finally:  # a child that has answered has nothing left to do
            os.kill(pid, 9)  # SIGKILL; the signal module takes 1 ms to import
            status = os.waitpid(pid, 0)[1]
            os.close(go_read)  # kept open, the go cannot fail
            os.close(go_write)
    if result is None:
        raise ChildProcessError(
            f"a forked child ended without answering: wait status {status} "
            f"(exit code {os.waitstatus_to_exitcode(status)})")
    ok, theirs = result
    if not ok:
        raise theirs
    return mine, theirs


def _child(pipe, go_read: int, there, run_units) -> None:
    """fork_join's child: its units, then its half, answering the parent
    over `pipe` and waiting at the barrier on `go_read`."""
    failed = run_units(BaseException)  # the child can only report it
    pickle.dump(failed and (failed[0], _portable(failed[1])), pipe, -1)
    pipe.flush()
    if failed or not os.read(go_read, 1):  # the go, or the parent gone
        return
    try:
        result = True, there()
    except BaseException as exc:
        result = False, _portable(exc)
    pickle.dump(result, pipe, -1)

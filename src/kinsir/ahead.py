"""Iterate in a second process: the toolkit's one fork.

`kinsir ode` integrates its trajectory blocks in a forked child, which
formats each block's times and sends them, as text, with the block's
states, while the parent writes the rows before them; a convergence study
runs its smallest eps in a forked child while the parent runs the others.
Both go through computed_ahead.
"""

import os
import pickle
import signal
from contextlib import contextmanager


def _send(items, sink):
    """In the forked child: pickle each item to the pipe sink as a 1-tuple,
    then the empty tuple, or the exception that stopped the iteration.
    Leaves the process only through os._exit, so it flushes no buffer it
    inherited and runs no exit handler."""
    status = 1
    try:
        try:
            for item in items:
                pickle.dump((item,), sink, pickle.HIGHEST_PROTOCOL)
                # the item goes out now: the parent takes it while this
                # process computes the next one
                sink.flush()
            pickle.dump((), sink)
        except BaseException as exc:
            pickle.dump(exc, sink, pickle.HIGHEST_PROTOCOL)
        sink.flush()
        status = 0
    finally:
        os._exit(status)


@contextmanager
def computed_ahead(items):
    """The items of an iterator, computed in a forked child while the caller
    works on the items before them, or on anything else.

    The child pickles each item into a pipe and ends the stream with a
    terminator, or with the pickled exception that stopped the iteration,
    which the caller's iteration raises again. A stream that ends without
    either raises a RuntimeError that names the child's exit status. The
    child is killed and reaped when the with block exits, however it
    exits. Without os.fork the items are iterated in this process.

    The child may call BLAS (a convergence study's kinetic steps do,
    through `@`) even when the parent has started OpenBLAS's thread pool:
    OpenBLAS shuts its pool down in a pthread_atfork handler before the
    fork, so the child holds no lock and no thread of it, and starts a
    pool of its own if it needs one.
    """
    if not hasattr(os, "fork"):
        yield items
        return
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as pipe, open(write_fd, "wb") as sink:
        pid = os.fork()
        if pid == 0:
            pipe.close()
            _send(items, sink)
        waited = []

        def reap():
            if not waited:
                waited.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
            return waited[0]

        def received():
            while True:
                try:
                    message = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    code = reap()
                    how = f"exit status {code}" if code >= 0 else f"signal {-code}"
                    raise RuntimeError(
                        f"the forked process ended early, with {how}") from None
                if isinstance(message, BaseException):
                    raise message
                if not message:
                    return
                yield message[0]

        try:
            sink.close()
            yield received()
        finally:
            if not waited:
                os.kill(pid, signal.SIGKILL)
                reap()

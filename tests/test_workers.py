"""``forked``'s contract with the calling process, tested on one worker each."""

import gc
import multiprocessing
import os
import signal

import pytest

from anatomesh.workers import forked

from conftest import assert_no_child_left


def test_worker_killed_with_a_message_unread_named_by_its_exit_status():
    # a worker that ends with a message unread resets its pipe, which recv
    # must report as it reports a worker that ended without sending
    sent = multiprocessing.get_context("fork").Event()

    def serve(conn):
        sent.wait(10)
        os.kill(os.getpid(), signal.SIGKILL)

    with forked(1, serve) as (worker,):
        worker.send("never read")
        sent.set()
        with pytest.raises(RuntimeError,
                           match=f"exit status -{int(signal.SIGKILL)} and sent no report"):
            worker.recv()
    assert_no_child_left()


def test_send_to_an_ended_worker_raises_what_it_raised():
    def serve(conn):
        raise KeyError("lost")

    with forked(1, serve) as (worker,):
        os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOWAIT)
        with pytest.raises(KeyError, match="lost") as info:
            for _ in range(100):  # the first send should fail: the worker has ended
                worker.send("a job")
        assert info.value.__notes__[0].startswith(f"in case worker {worker.pid}:\n")
        # the failed send's traceback ends here; collecting it must not find a
        # buffer that is still exported (BufferError, raised as unraisable)
        del info
        gc.collect()
    assert_no_child_left()

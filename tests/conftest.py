import contextlib
import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@contextlib.contextmanager
def _deadline(seconds: float):
    """Fail the block after seconds, so a hang fails instead of stalling
    the suite (SIGALRM, main thread only).  pytest.fail raises a
    BaseException, which the CLI's error handlers do not catch."""

    def expire(signum, frame):
        pytest.fail(f"exceeded its deadline of {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def one_second_deadline():
    """Fail the test body after one second."""
    with _deadline(1.0):
        yield


@pytest.fixture
def deadline():
    """deadline(seconds), a context manager failing its block after seconds."""
    return _deadline

import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def one_second_deadline():
    """Fail the test after one second, so a hang fails instead of stalling
    the suite (SIGALRM, main thread only).  pytest.fail raises a
    BaseException, which the CLI's error handlers do not catch."""

    def expire(signum, frame):
        pytest.fail("test body exceeded its one-second deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)

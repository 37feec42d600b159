import signal

import pytest


@pytest.fixture
def alarm():
    """Fail a test with TimeoutError after 5 s, e.g. a bisection that never ends."""

    def timeout(signum, frame):
        raise TimeoutError("bisection did not terminate")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)

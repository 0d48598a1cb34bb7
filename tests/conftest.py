import signal

import pytest


@pytest.fixture(autouse=True)
def deadline():
    """Fail, rather than hang, any test that runs for 60 s, such as one that
    waits on a forked child that never answers."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("test still running after 60 s")

    saved = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, saved)

import os

import pytest


@pytest.fixture
def assert_no_children():
    """A check that every child process this one forked has been reaped."""
    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    return check

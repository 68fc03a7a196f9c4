"""Suite-wide fixtures."""

import pytest

from gridlander import cores
from helpers import assert_no_child_left


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Every process a test forks, in process or through the CLI, is killed
    and reaped before the call that forked it returns or raises, except the
    detector lanes that stand between frames (``cores.run``). After a test
    those are the only children left; they are released here, and then no
    child is left."""
    yield
    assert_no_child_left()  # every child is a standing lane
    cores.release()
    assert_no_child_left()  # and none is left

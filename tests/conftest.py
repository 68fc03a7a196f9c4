"""Suite-wide fixtures."""

import pytest

from helpers import assert_no_child_left


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Every process a test forks, in process or through the CLI, is killed
    and reaped before the call that forked it returns or raises."""
    yield
    assert_no_child_left()

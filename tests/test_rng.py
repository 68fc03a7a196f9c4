import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlander.rng import Rng


def truncated_normal_full_retest(rng: Rng, size, std: float, clip: float = 2.0) -> np.ndarray:
    """The resampling loop as it was before each round re-tested only the
    entries it had just redrawn: every round re-tests the whole array."""
    out = np.asarray(rng._gen.normal(0.0, std, size))
    bad = np.abs(out) > clip * std
    while bad.any():
        out[bad] = rng._gen.normal(0.0, std, int(bad.sum()))
        bad = np.abs(out) > clip * std
    return out


@settings(max_examples=60, deadline=None)
@given(
    size=st.lists(st.integers(0, 12), max_size=3).map(tuple),
    std=st.floats(1e-3, 10.0),
    clip=st.floats(0.05, 3.0),
    seed=st.integers(0, 2**64 - 1),
)
def test_truncated_normal_matches_full_retest_loop(size, std, clip, seed):
    a, b = Rng(seed), Rng(seed)
    new = a.truncated_normal(size, std=std, clip=clip)
    old = truncated_normal_full_retest(b, size, std=std, clip=clip)
    assert new.shape == old.shape == size
    assert new.tobytes() == old.tobytes()
    assert np.all(np.abs(new) <= clip * std)
    # both consumed the same draws, so the streams continue in step
    assert a.uniform() == b.uniform()

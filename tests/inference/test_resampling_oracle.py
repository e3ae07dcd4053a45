"""The counting systematic resampler against the binary-search oracle.

``systematic_indices`` counts draws per particle. It must return exactly
the indices of :func:`resampling_oracle.oracle_systematic_indices` for
the same generator state: seeded streams, bds bit-identity and executor
bit-identity all rest on it. Hypothesis generates weight vectors with
zeros, duplicates, a single non-zero weight, unnormalized sums and
``n != len(weights)``; a stub generator pins the offset ``u`` at the
values where positions tie with cumulative weights.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.inference.resampling import (
    RESAMPLERS,
    normalize_log_weights,
    systematic_indices,
)
from resampling_oracle import oracle_systematic_indices

#: offsets at which positions land on, or one ulp off, multiples of 1/n
TIE_OFFSETS = [0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53]


class FixedOffset:
    """A generator stub whose one uniform draw is ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def assert_matches_oracle(weights, n, u=None, seed=0):
    if u is None:
        expected = oracle_systematic_indices(weights, n, np.random.default_rng(seed))
        got = systematic_indices(weights, n, np.random.default_rng(seed))
    else:
        expected = oracle_systematic_indices(weights, n, FixedOffset(u))
        got = systematic_indices(weights, n, FixedOffset(u))
    assert got.shape == expected.shape == (n,)
    assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# generated weight vectors
# ----------------------------------------------------------------------

_atoms = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 0.5, 0.25, 0.1, 1.0 / 3.0, 2.0]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)


@st.composite
def weight_vectors(draw):
    """Non-negative vectors with a positive sum, in several shapes."""
    m = draw(st.integers(min_value=1, max_value=200))
    shape = draw(st.sampled_from(["atoms", "duplicates", "single", "log"]))
    if shape == "atoms":
        w = np.array(draw(st.lists(_atoms, min_size=m, max_size=m)))
    elif shape == "duplicates":
        w = np.full(m, draw(st.floats(min_value=1e-3, max_value=5.0)))
    elif shape == "single":
        w = np.zeros(m)
        w[draw(st.integers(min_value=0, max_value=m - 1))] = draw(
            st.floats(min_value=1e-6, max_value=5.0)
        )
    else:
        logw = draw(
            st.lists(
                st.floats(min_value=-40.0, max_value=0.0), min_size=m, max_size=m
            )
        )
        return normalize_log_weights(logw)
    # Scale before the positive-sum check: a subnormal atom scaled by
    # 1e-3 underflows to zero and left an all-zero vector.
    w = w * draw(st.sampled_from([1.0, 1e-3, 7.0]))
    if not w.sum() > 0:
        w[draw(st.integers(min_value=0, max_value=m - 1))] = 1.0
    return w


_draws = st.one_of(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=65, max_value=6000),
)


class TestOracleProperty:
    @settings(max_examples=300, deadline=None)
    @given(weights=weight_vectors(), n=_draws, seed=st.integers(0, 2**32 - 1))
    def test_equal_to_oracle(self, weights, n, seed):
        assert_matches_oracle(weights, n, seed=seed)

    @settings(max_examples=300, deadline=None)
    @given(
        weights=weight_vectors(),
        n=st.integers(min_value=1, max_value=64),
        u=st.sampled_from(TIE_OFFSETS),
    )
    def test_equal_to_oracle_at_tie_offsets(self, weights, n, u):
        assert_matches_oracle(weights, n, u=u)

    def test_no_draws(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_oracle([0.25, 0.75], 0, seed=1)

    def test_registry_entry_is_the_public_function(self):
        assert RESAMPLERS["systematic"] is systematic_indices


# ----------------------------------------------------------------------
# ties pinned by a stub generator
# ----------------------------------------------------------------------


def _multiples_of_one_over_n(n: int, m: int, seed: int) -> np.ndarray:
    """``m`` weights ``k_i / n`` with integer ``k_i`` summing to ``n``."""
    counts = np.bincount(np.random.default_rng(seed).integers(0, m, size=n), minlength=m)
    return counts / n


_TIE_SIZES = [1, 2, 3, 7, 100, 1000, 2000, 2001, 4096, 10007, 2**17]


class TestPinnedOffsets:
    @pytest.mark.parametrize("u", TIE_OFFSETS)
    @pytest.mark.parametrize("n", _TIE_SIZES)
    def test_uniform_weights(self, n, u):
        assert_matches_oracle(np.full(n, 1.0 / n), n, u=u)
        assert_matches_oracle(np.ones(n), n, u=u)
        assert_matches_oracle(np.ones(n // 3 + 1), n, u=u)

    @pytest.mark.parametrize("u", TIE_OFFSETS)
    @pytest.mark.parametrize("n", _TIE_SIZES)
    def test_multiple_of_one_over_n_weights(self, n, u):
        for m, seed in [(n, 1), (n // 7 + 1, 2), (2 * n, 3)]:
            assert_matches_oracle(_multiples_of_one_over_n(n, m, seed), n, u=u)

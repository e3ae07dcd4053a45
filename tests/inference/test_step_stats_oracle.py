"""One pass over the weights against the re-normalizing step statistics.

The engines take an instant's evidence as ``lse(prev + step) -
lse(prev)``, read ``lse(prev + step)`` off the normalized weights, and
take the ESS once. :mod:`step_stats_oracle` keeps the old code, which
normalized the previous log-weights again and logged them. Hypothesis
draws vectors of 1 to 5,000 entries: previous log-weights that are
finite, hold ``-inf`` entries, are all zero (after a resample), all
``-inf``, or hold ``+inf``; step log-weights with ``NaN``, ``+inf`` and
``-inf`` entries. The normalized weights must equal the oracle's byte
for byte and the ESS exactly. The evidence must be exactly equal when
either side is infinite and otherwise within 1e-12 relative; both
formulas round at the scale of the log-weights themselves, so where the
evidence cancels to nearly zero the bound is 1e-12 of that scale.

The evidence is compared only where no finite previous log-weight lies
so far below the largest that the oracle's normalized weight for it is
zero or subnormal. There the oracle lost that particle's prior mass
(or most of its digits), and the new value is the exact one:
:func:`test_underflowed_previous_weight_still_counts` shows a case.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.models import KalmanModel
from repro.inference import ParticleFilter
from repro.inference.resampling import normalize_log_weights
from step_stats_oracle import (
    oracle_normalize_log_weights,
    oracle_step_stats,
)

TINY = np.finfo(float).tiny


@st.composite
def weight_vectors(draw):
    """``(prev, step)`` log-weight vectors of one instant."""
    n = draw(st.integers(min_value=1, max_value=5000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(
        st.sampled_from(["finite", "with -inf", "all zero", "all -inf", "+inf"])
    )
    if kind == "all zero":
        prev = np.zeros(n)
    elif kind == "all -inf":
        prev = np.full(n, -np.inf)
    else:
        spread = draw(st.sampled_from([1.0, 30.0, 700.0, 1100.0]))
        prev = rng.uniform(-spread, 0.0, n) + draw(st.floats(-50.0, 50.0))
        if kind != "finite":
            prev[rng.random(n) < draw(st.sampled_from([0.01, 0.3, 1.0]))] = -np.inf
        if kind == "+inf":
            prev[rng.integers(n, size=draw(st.integers(1, 3)))] = np.inf
    step = rng.normal(0.0, draw(st.sampled_from([0.1, 3.0, 50.0])), n)
    for value in (np.nan, np.inf, -np.inf):
        step[rng.random(n) < draw(st.sampled_from([0.0, 0.001, 0.05]))] = value
    return prev, step


def previous_weight_underflows(prev: np.ndarray) -> bool:
    """Whether the oracle's normalized weight of a finite entry is below
    the smallest normal float (only when the largest entry is finite)."""
    finite = np.isfinite(prev)
    if not finite.any() or np.isposinf(prev).any():
        return False
    return bool((oracle_normalize_log_weights(prev)[finite] < TINY).any())


ENGINE = ParticleFilter(KalmanModel(), n_particles=1, seed=0)


def step_stats(prev, step, weights):
    """The :class:`StepStats` an engine records for one step."""
    ENGINE._record_stats(prev, step, weights)
    return ENGINE.last_stats


@settings(max_examples=300, deadline=None)
@given(vectors=weight_vectors())
def test_equal_to_oracle(vectors):
    prev, step = vectors
    with warnings.catch_warnings():
        # NaN entries and -inf + inf sums warn on both sides alike.
        warnings.simplefilter("ignore")
        log_weights = prev + step
        weights = normalize_log_weights(log_weights)
        expected_weights = oracle_normalize_log_weights(log_weights)
        stats = step_stats(prev, step, weights)
        want = oracle_step_stats(prev, step, expected_weights)
    assert weights.tobytes() == expected_weights.tobytes()
    assert stats.ess == want.ess
    assert stats.n_particles == want.n_particles
    got = stats.log_evidence
    assert not math.isnan(got)
    if previous_weight_underflows(prev):
        return
    if math.isinf(got) or math.isinf(want.log_evidence):
        assert got == want.log_evidence
        return
    finite = np.concatenate([prev[np.isfinite(prev)], step[np.isfinite(step)]])
    scale = 1.0 + math.log(prev.size) + float(np.abs(finite).max(initial=0.0))
    assert math.isclose(got, want.log_evidence, rel_tol=1e-12, abs_tol=1e-12 * scale)


def test_underflowed_previous_weight_still_counts():
    """The oracle rounds ``exp(-1100)`` to a zero previous weight, so the
    ``+inf`` likelihood of that particle drops out and the evidence is the
    other particle's alone. The particle's prior mass is positive, so the
    weighted mean likelihood is infinite, which is what the library reads."""
    prev = np.array([0.0, -1100.0])
    step = np.array([math.log(0.564), math.inf])
    weights = normalize_log_weights(prev + step)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the oracle's log(0) + inf
        oracle = oracle_step_stats(prev, step, weights)
    assert oracle.log_evidence == math.log(0.564)
    assert step_stats(prev, step, weights).log_evidence == math.inf


def test_no_finite_previous_maximum_keeps_the_rule():
    """All ``-inf`` previous weights read as uniform; ``+inf`` entries
    share all the previous mass."""
    step = np.array([0.0, math.log(3.0), -math.inf])
    for prev, want in (
        (np.full(3, -math.inf), math.log(4.0 / 3.0)),
        (np.array([math.inf, 0.0, math.inf]), math.log(0.5)),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            weights = normalize_log_weights(prev + step)
        stats = step_stats(prev, step, weights)
        assert math.isclose(stats.log_evidence, want, rel_tol=1e-15)

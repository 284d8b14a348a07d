"""Stateless keyed fading draws against closed forms.

``LogNormalFading.sample_db_many`` is shared by both oracle legs, so
``repro check diff`` cannot see a bug in it.  These tests check it against
independent expectations instead: the moments and the clipped mass of a
normal clipped at ±3σ, and the absence of correlation along a link's
counter sequence and across neighbouring links of one fanout.  Each
statistic is computed per independent block of keys (one source name per
block) and must hold within a Student-t 95 % CI over the blocks, in the
style of :mod:`repro.experiments.stats`.
"""

import math

import numpy as np
import pytest

from repro.experiments.stats import summarize
from repro.phy.fading import (
    SCALAR_MAX_LINKS,
    LogNormalFading,
    _draws_loop,
    _draws_numpy,
    link_keys,
)
from repro.phy.frame import Frame
from repro.phy.medium import Medium
from repro.phy.propagation import FixedRssMatrix
from repro.phy.radio import Radio
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator

SIGMA = 4.0
CLIP = 12.0  # 3 sigma
BLOCKS = 40
LINKS = 400
COUNTERS = 60


def _phi(x):
    return math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)


def _cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


#: P(|X| >= 3 sigma) for a normal X: 2 Phi(-3).
CLIPPED_MASS = 2.0 * _cdf(-3.0)

#: Std of a N(0, sigma^2) clipped at +-3 sigma: the truncated second
#: moment, int_{-3}^{3} z^2 phi(z) dz = (2 Phi(3) - 1) - 6 phi(3), plus the
#: clipped mass sitting at (3 sigma)^2.
CLIPPED_STD = SIGMA * math.sqrt(
    (2.0 * _cdf(3.0) - 1.0) - 6.0 * _phi(3.0) + 9.0 * CLIPPED_MASS
)


@pytest.fixture(scope="module")
def blocks():
    """Per block: draws of shape (COUNTERS, LINKS), one source per block."""
    fading = LogNormalFading(sigma_db=SIGMA, clip_db=CLIP)
    out = []
    for block in range(BLOCKS):
        keys = link_keys(1, f"src{block}", [f"rx{i}" for i in range(LINKS)])
        out.append(np.array([
            fading.sample_db_many(keys, counter) for counter in range(COUNTERS)
        ]))
    return out


def _assert_within_ci(values, expected):
    summary = summarize(values)
    assert abs(summary.mean - expected) <= summary.ci95, (
        f"{summary.mean:.6g} ± {summary.ci95:.3g} excludes {expected:.6g}"
    )


def _corr(a, b):
    return float(np.corrcoef(a.ravel(), b.ravel())[0, 1])


def test_closed_forms_are_the_textbook_values():
    assert CLIPPED_MASS == pytest.approx(0.0027, abs=1e-4)
    assert CLIPPED_STD == pytest.approx(0.9975 * SIGMA, abs=1e-3)


def test_mean_is_zero(blocks):
    _assert_within_ci([float(d.mean()) for d in blocks], 0.0)


def test_std_is_that_of_a_normal_clipped_at_three_sigma(blocks):
    _assert_within_ci([float(d.std()) for d in blocks], CLIPPED_STD)


def test_clipped_mass_is_two_phi_of_minus_three(blocks):
    _assert_within_ci(
        [float(np.mean(np.abs(d) == CLIP)) for d in blocks], CLIPPED_MASS
    )
    # Clipping is exact: nothing lands beyond the clip.
    assert max(float(np.abs(d).max()) for d in blocks) == CLIP


def test_no_lag_one_correlation_across_counters(blocks):
    _assert_within_ci([_corr(d[:-1], d[1:]) for d in blocks], 0.0)


def test_no_correlation_between_neighbouring_links(blocks):
    _assert_within_ci([_corr(d[:, :-1], d[:, 1:]) for d in blocks], 0.0)


def test_keys_depend_on_seed_and_both_names_only():
    keys = link_keys(5, "tx", ["a", "b", "c"])
    assert keys.dtype == np.uint64
    assert keys.tolist() == [
        link_keys(5, "tx", [name])[0] for name in ("a", "b", "c")
    ]
    assert len(set(keys.tolist())) == 3
    assert link_keys(6, "tx", ["a"])[0] != keys[0]
    assert link_keys(5, "ty", ["a"])[0] != keys[0]
    assert link_keys(5, "a", ["tx"])[0] != keys[0]


@pytest.mark.parametrize("counter", [0, 1, 7, 2**33, 2**64 - 1])
def test_loop_and_numpy_evaluators_agree_bit_for_bit(counter):
    """Short fanouts draw in Python, long ones in numpy; both must give
    the same floats for every key, or culling could move a draw."""
    keys = link_keys(3, "tx", [f"rx{i}" for i in range(20_000)])
    fading = LogNormalFading(sigma_db=SIGMA, clip_db=CLIP)
    loop = _draws_loop(keys.tolist(), counter, SIGMA, CLIP)
    vector = _draws_numpy(
        keys, counter, fading._sigma, fading._clip, fading._neg_clip
    )
    assert vector.tolist() == loop
    # The public entry point picks an evaluator by fanout length.
    short = keys[:SCALAR_MAX_LINKS]
    long = keys[:SCALAR_MAX_LINKS + 1]
    assert fading.sample_db_many(short, counter).tolist() == loop[:len(short)]
    assert fading.sample_db_many(long, counter).tolist() == loop[:len(long)]


def test_zero_sigma_draws_zeros():
    keys = link_keys(1, "tx", ["a", "b"])
    assert LogNormalFading(sigma_db=0.0).sample_db_many(keys, 9).tolist() == [
        0.0, 0.0,
    ]


# ----------------------------------------------------------------------
# A link's draws do not depend on which other links exist
# ----------------------------------------------------------------------
def _draws_at(link_cache, frames=8, *, crowd=False):
    """RSS that ``rx`` sees for each of ``frames`` transmissions of ``tx``.

    With ``crowd``, a culled receiver (300 dB away) and an audible one
    are registered before ``rx``, and another audible one joins after
    the third frame.
    """
    sim = Simulator()
    matrix = FixedRssMatrix(default_loss_db=70.0)
    medium = Medium(
        sim,
        matrix,
        fading=LogNormalFading(sigma_db=SIGMA, clip_db=CLIP),
        rng=RngStreams(3),
        link_cache=link_cache,
    )
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0)
    if crowd:
        matrix.set_loss((0, 0), (9, 0), 300.0)
        Radio(sim, medium, "culled", (9, 0), 2460.0, 0.0)
        Radio(sim, medium, "other", (2, 0), 2460.0, 0.0)
    rx = Radio(sim, medium, "rx", (1, 0), 2460.0, 0.0)
    seen = []
    for frame in range(frames):
        if crowd and frame == 3:
            Radio(sim, medium, "late", (3, 0), 2460.0, 0.0)
        tx.transmit(Frame("tx", None, 20), lambda t: None)
        (signal,) = [s for s in rx.active_signals
                     if s.transmission.source is tx]
        seen.append(signal.rx_power_dbm)
        sim.run_until_idle()
    return seen


@pytest.mark.parametrize("link_cache", [True, False])
def test_draws_unchanged_by_other_receivers_registered_or_culled(link_cache):
    alone = _draws_at(link_cache)
    assert len(set(alone)) == len(alone)  # a fresh draw per frame
    assert _draws_at(link_cache, crowd=True) == alone
    assert _draws_at(not link_cache, crowd=True) == alone

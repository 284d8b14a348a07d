"""Test-only fault injection for proving the invariant layer works.

A correctness layer that has never caught anything is indistinguishable
from one that cannot.  These helpers deliberately corrupt kernel state
the way a real regression would (drifting accumulator, sign error,
mis-stamped event) so tests — and the CI ``check`` job's unit suite —
can assert that :class:`~repro.check.invariants.InvariantChecker`
raises with a useful first-divergence report.

**Never call these outside tests.**  They reach into private state by
design.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "corrupt_sense_accumulator",
    "negate_sense_accumulator",
    "corrupt_bit_counter",
]


def _reaching_records(radio: Any):
    """The on-air records that reach a folding radio, oldest first."""
    return [
        record for record in radio.medium.on_air.values()
        if record.keep[record.index.get(radio, -1)]
    ]


def corrupt_sense_accumulator(radio: Any, extra_mw: float) -> None:
    """Inject drift into the radio's sensing-path power sum.

    Mimics the class of bug the resample invariant exists for: an
    incremental update applied twice / with the wrong gain, leaving the
    sum out of step with the signals on air.  For an eager radio the
    running sum is skewed; for a radio folding the on-air table, the
    contribution its newest reaching record hands the fold is.
    """
    if not radio._folds:
        radio._sense_sum_mw += extra_mw
        return
    records = _reaching_records(radio)
    if not records:
        raise ValueError(f"no on-air signal reaches radio {radio.name!r}")
    record = records[-1]
    record.sense_mw[radio] = (
        record.contribution_mw(radio, record.sense_gains) + extra_mw
    )


def negate_sense_accumulator(radio: Any) -> None:
    """Flip the sensing-path sum's sign (caught by the non-negativity
    check as soon as the sum is non-zero): the eager running sum, or
    every contribution the on-air records hand a folding radio's fold."""
    if not radio._folds:
        radio._sense_sum_mw = -abs(radio._sense_sum_mw)
        return
    for record in _reaching_records(radio):
        record.sense_mw[radio] = -record.contribution_mw(
            radio, record.sense_gains
        )


def corrupt_bit_counter(reception: Any, extra_bits: int) -> None:
    """Skew a live reception's sampled-bit counter.

    Mimics a segment-accounting regression (the pre-PR-2 per-segment
    rounding drift); caught by the bit-conservation invariant when the
    frame finalises.
    """
    reception.sampled_bits += extra_bits

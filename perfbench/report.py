"""Output checks, percentiles and the benchmark's printed report."""

from __future__ import annotations

import json
import math
import sys
from typing import Dict, List, Sequence

__all__ = ["Checks", "emit", "percentile", "tail_percentile"]


class Checks:
    """Operations attempted and failed; a failure is reported at once."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr, flush=True)
        return ok


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: ``p`` % of the samples are at or below."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float]) -> tuple:
    """The highest of p99.9/p99/p95/p90/p50 with >= 10 samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p, percentile(values, p)
    return 50.0, percentile(values, 50.0)


def emit(result: Dict[str, object]) -> None:
    """The result object, as the last line of standard output."""
    print(json.dumps(result, separators=(",", ":")), flush=True)

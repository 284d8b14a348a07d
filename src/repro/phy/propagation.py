"""Large-scale propagation (path loss) models.

The testbed in the paper is an indoor MicaZ deployment; we default to a
log-distance model with an indoor exponent.  All models map a transmitter
position, receiver position and transmit power to a mean received power in
dBm; small-scale per-packet variation is layered on separately
(:mod:`repro.phy.fading`).

Batched evaluation
------------------
:meth:`PathLossModel.received_power_dbm_batch` evaluates one transmitter
against an ``(n, 2)`` array of receiver positions in a single numpy call.
The batched result agrees with the scalar method to within a few ulp but
is **not guaranteed bit-identical** — numpy's SIMD transcendentals
(``log10``/``hypot``) may round differently from libm.  The link cache
(:mod:`repro.phy.vectorized`) therefore uses batched values only for conservative *candidate
preselection* (with a guard band far wider than any SIMD rounding
difference) and always re-derives the exact link budget through the
scalar method; see DESIGN.md §13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = [
    "Position",
    "distance",
    "PathLossModel",
    "FreeSpacePathLoss",
    "LogDistancePathLoss",
    "FixedRssMatrix",
]

Position = Tuple[float, float]


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two planar positions, in metres."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


class PathLossModel:
    """Interface: mean received power for a transmitter/receiver pair."""

    def received_power_dbm(
        self, tx_power_dbm: float, tx_pos: Position, rx_pos: Position
    ) -> float:
        raise NotImplementedError

    def received_power_dbm_batch(
        self, tx_power_dbm: float, tx_pos: Position, rx_xy: "np.ndarray"
    ) -> "np.ndarray":
        """Mean received power at every row of ``rx_xy`` (shape ``(n, 2)``).

        The base implementation loops over the scalar method (bit-identical
        by construction); models with closed-form losses override it with a
        single numpy evaluation that may differ from the scalar path by a
        few ulp (see module docstring).
        """
        import numpy as np

        out = np.empty(len(rx_xy))
        for i, row in enumerate(rx_xy):
            out[i] = self.received_power_dbm(
                tx_power_dbm, tx_pos, (row[0], row[1])
            )
        return out

    def path_loss_db(self, tx_pos: Position, rx_pos: Position) -> float:
        """Loss in dB between the two positions."""
        return -self.received_power_dbm(0.0, tx_pos, rx_pos)


@dataclass(frozen=True)
class FreeSpacePathLoss(PathLossModel):
    """Friis free-space loss at 2.4 GHz: ``PL(d) = PL0 + 20 log10(d/d0)``."""

    reference_loss_db: float = 40.2  # at 1 m, 2.44 GHz
    reference_distance_m: float = 1.0
    min_distance_m: float = 0.1

    def received_power_dbm(
        self, tx_power_dbm: float, tx_pos: Position, rx_pos: Position
    ) -> float:
        d = max(distance(tx_pos, rx_pos), self.min_distance_m)
        loss = self.reference_loss_db + 20.0 * math.log10(
            d / self.reference_distance_m
        )
        return tx_power_dbm - loss

    def received_power_dbm_batch(
        self, tx_power_dbm: float, tx_pos: Position, rx_xy: "np.ndarray"
    ) -> "np.ndarray":
        import numpy as np

        d = np.hypot(rx_xy[:, 0] - tx_pos[0], rx_xy[:, 1] - tx_pos[1])
        np.maximum(d, self.min_distance_m, out=d)
        loss = self.reference_loss_db + 20.0 * np.log10(
            d / self.reference_distance_m
        )
        return tx_power_dbm - loss


@dataclass(frozen=True)
class LogDistancePathLoss(PathLossModel):
    """Log-distance model: ``PL(d) = PL0 + 10 n log10(d/d0)``.

    The default exponent ``n = 3.0`` is typical for an indoor office at
    2.4 GHz and is the model default used by all paper experiments.
    """

    exponent: float = 3.0
    reference_loss_db: float = 40.2
    reference_distance_m: float = 1.0
    min_distance_m: float = 0.1

    def received_power_dbm(
        self, tx_power_dbm: float, tx_pos: Position, rx_pos: Position
    ) -> float:
        d = max(distance(tx_pos, rx_pos), self.min_distance_m)
        loss = self.reference_loss_db + 10.0 * self.exponent * math.log10(
            d / self.reference_distance_m
        )
        return tx_power_dbm - loss

    def received_power_dbm_batch(
        self, tx_power_dbm: float, tx_pos: Position, rx_xy: "np.ndarray"
    ) -> "np.ndarray":
        import numpy as np

        d = np.hypot(rx_xy[:, 0] - tx_pos[0], rx_xy[:, 1] - tx_pos[1])
        np.maximum(d, self.min_distance_m, out=d)
        loss = self.reference_loss_db + (10.0 * self.exponent) * np.log10(
            d / self.reference_distance_m
        )
        return tx_power_dbm - loss

    def distance_for_rss(self, tx_power_dbm: float, rss_dbm: float) -> float:
        """Distance at which the mean received power equals ``rss_dbm``.

        Useful for building topologies with prescribed link budgets.
        """
        loss = tx_power_dbm - rss_dbm
        exponent_term = (loss - self.reference_loss_db) / (10.0 * self.exponent)
        return self.reference_distance_m * (10.0 ** exponent_term)


class FixedRssMatrix(PathLossModel):
    """A path-loss 'model' backed by explicit per-pair losses.

    Tests and calibration scenarios sometimes need exact control over every
    link budget; this model maps position pairs to a fixed loss with an
    optional default.
    """

    def __init__(self, default_loss_db: float = 200.0) -> None:
        self._losses: dict = {}
        self.default_loss_db = default_loss_db

    def set_loss(self, tx_pos: Position, rx_pos: Position, loss_db: float) -> None:
        self._losses[(tuple(tx_pos), tuple(rx_pos))] = loss_db

    def set_symmetric_loss(
        self, pos_a: Position, pos_b: Position, loss_db: float
    ) -> None:
        self.set_loss(pos_a, pos_b, loss_db)
        self.set_loss(pos_b, pos_a, loss_db)

    def received_power_dbm(
        self, tx_power_dbm: float, tx_pos: Position, rx_pos: Position
    ) -> float:
        loss = self._losses.get(
            (tuple(tx_pos), tuple(rx_pos)), self.default_loss_db
        )
        return tx_power_dbm - loss

    def received_power_dbm_batch(
        self, tx_power_dbm: float, tx_pos: Position, rx_xy: "np.ndarray"
    ) -> "np.ndarray":
        # Exact: dict lookups, no floating-point evaluation at all.
        import numpy as np

        losses = self._losses
        default = self.default_loss_db
        key = tuple(tx_pos)
        out = np.empty(len(rx_xy))
        for i, row in enumerate(rx_xy):
            out[i] = tx_power_dbm - losses.get(
                (key, (row[0], row[1])), default
            )
        return out

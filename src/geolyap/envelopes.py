"""Decay envelopes: the sampled two-argument (class-KL) bound and the fitted
stability classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def nonincreasing_in_s(table: np.ndarray) -> np.ndarray:
    """Repair each row to be nonincreasing by a right-to-left running max.

    The repaired row dominates the raw data pointwise, which is what an
    envelope must do; an L2 isotonic fit would not.
    """
    return np.maximum.accumulate(table[:, ::-1], axis=1)[:, ::-1]


@dataclass(frozen=True, eq=False)
class KLEnvelope:
    """Sampled two-argument envelope beta(r, s): nondecreasing in the initial
    distance r, nonincreasing in elapsed time s, and dominating the data it
    was fitted from.

    Evaluation is conservative step interpolation: the r argument rounds up
    to the next fitted radius and the s argument holds the previous time
    knot.  (Linear interpolation in r would dip below slowly decaying
    trajectories started between fitted radii and break domination.)
    """

    r_knots: np.ndarray  # ascending, starts at 0
    s_knots: np.ndarray  # ascending, starts at 0
    table: np.ndarray    # shape (len(r_knots), len(s_knots))

    def __post_init__(self):
        object.__setattr__(self, "r_knots", np.asarray(self.r_knots, dtype=float))
        object.__setattr__(self, "s_knots", np.asarray(self.s_knots, dtype=float))
        object.__setattr__(self, "table", np.asarray(self.table, dtype=float))
        if self.table.shape != (len(self.r_knots), len(self.s_knots)):
            raise ValueError("envelope table shape does not match the knots")

    @property
    def r_max(self) -> float:
        return float(self.r_knots[-1])

    def __call__(self, r: float, s: float) -> float:
        i = int(np.searchsorted(self.r_knots, min(r, self.r_max), side="left"))
        i = min(i, len(self.r_knots) - 1)
        j = int(np.searchsorted(self.s_knots, max(s, 0.0), side="right")) - 1
        j = min(max(j, 0), len(self.s_knots) - 1)
        return float(self.table[i, j])

    def decay_profile(self) -> tuple[np.ndarray, np.ndarray]:
        """Samples of s -> beta(r_max, s): the s knots and the last table row."""
        return self.s_knots.copy(), self.table[-1].copy()

    @staticmethod
    def from_exponential(K: float, rate: float, r_max: float,
                         s_grid: np.ndarray) -> "KLEnvelope":
        """Tabulate beta(r, s) = K e^{-rate s} r on 9 radii from 0 to r_max."""
        r_knots = np.linspace(0.0, r_max, 9)
        s_knots = np.asarray(s_grid, dtype=float)
        decay = K * np.exp(-rate * s_knots)
        return KLEnvelope(r_knots, s_knots, np.outer(r_knots, decay))


@dataclass(frozen=True, eq=False)
class StabilityEnvelope:
    """Fitted stability classification for a batch of trajectories.

    ``stability_class`` is one of "LES", "UAS", "US".  For LES fits, the
    data is dominated pointwise by K e^{-rate (t - t0)} d0 and K >= 1; for
    the other classes only the sampled beta table is meaningful.
    """

    stability_class: str
    K: float | None
    rate: float | None
    beta: KLEnvelope
    fit_residual: float
    region_radius: float
    n_samples: int

    @property
    def is_exponential(self) -> bool:
        return self.stability_class == "LES"

    def to_json(self) -> dict:
        return {
            "stability_class": self.stability_class,
            "K": self.K,
            "rate": self.rate,
            "fit_residual": self.fit_residual,
            "region_radius": self.region_radius,
            "n_samples": self.n_samples,
        }

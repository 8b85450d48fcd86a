"""Energy-arrival statistics: Poisson arrival times and packet-size laws.

Packets default to the exponential family; arbitrary laws enter through a
tabulated CDF with linear interpolation between knots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_integers

__all__ = [
    "HarvestParams",
    "PacketDistribution",
    "survival",
    "sample_arrivals",
]


@dataclass(frozen=True)
class HarvestParams:
    """Per-node harvest statistics.

    lam    -- arrival intensity (arrivals per unit time)
    zeta   -- inverse mean packet energy
    capacity -- battery capacity in energy units; math.inf for unbounded
    """

    lam: float
    zeta: float
    capacity: float = math.inf

    def __post_init__(self):
        if not 0.0 <= self.lam < math.inf:
            raise DomainError(f"arrival rate must be finite >= 0, got {self.lam}", field="lam")
        if not (0.0 < self.zeta < math.inf and self.lam / self.zeta < math.inf):
            raise DomainError(f"inverse mean packet energy must be finite > 0, with lam / zeta "
                              f"finite, got {self.zeta}", field="zeta")
        if not self.capacity > 0.0:
            raise DomainError(f"capacity must be positive or infinite, got {self.capacity}",
                              field="capacity")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.capacity)

    @property
    def mean_input_rate(self) -> float:
        """Long-run energy input rate lam / zeta."""
        return self.lam / self.zeta


@dataclass(frozen=True)
class PacketDistribution:
    """Packet-energy law, either exponential(zeta) or a tabulated CDF."""

    form: str
    zeta: float = 0.0
    knots_x: np.ndarray | None = field(default=None, repr=False)
    knots_cdf: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def exponential(cls, zeta: float) -> "PacketDistribution":
        if not (0.0 < zeta < math.inf and 1.0 / zeta < math.inf):
            raise DomainError(f"exponential zeta must be finite > 0 with a finite mean "
                              f"1 / zeta, got {zeta}", field="zeta")
        return cls(form="exponential", zeta=zeta)

    @classmethod
    def tabulated(cls, xs, cdf) -> "PacketDistribution":
        xs = np.asarray(xs, dtype=float)
        cdf = np.asarray(cdf, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or xs.shape != cdf.shape:
            raise DomainError("tabulated CDF needs matching 1-d knot arrays of length >= 2")
        if not (np.isfinite(xs).all() and np.isfinite(cdf).all()):
            raise DomainError("tabulated CDF knots must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise DomainError("tabulated CDF abscissae must be strictly increasing")
        if np.any(np.diff(cdf) < 0.0) or cdf[0] < 0.0 or abs(cdf[-1] - 1.0) > 1e-12:
            raise DomainError("tabulated CDF values must be nondecreasing from >= 0 to 1")
        if xs[0] < 0.0:
            raise DomainError("packet energies are nonnegative; first knot must be >= 0")
        if xs[0] > 0.0 and cdf[0] > 0.0:
            raise DomainError("a positive mass below the first knot is not representable")
        return cls(form="tabulated", knots_x=xs, knots_cdf=cdf)

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        if self.form == "exponential":
            out = -np.expm1(-self.zeta * np.maximum(arr, 0.0))
        else:
            out = np.interp(arr, self.knots_x, self.knots_cdf, left=0.0, right=1.0)
        return float(out) if np.ndim(x) == 0 else out

    def mean(self) -> float:
        if self.form == "exponential":
            return 1.0 / self.zeta
        # E[X] = integral of the survival function
        xs, cdf = self.knots_x, self.knots_cdf
        return float(np.trapezoid(1.0 - cdf, xs) + xs[0])

    def sample(self, rng: np.random.Generator, size: int):
        if self.form == "exponential":
            return rng.exponential(1.0 / self.zeta, size=size)
        u = rng.random(size)
        # inverse transform through the piecewise-linear CDF
        return np.interp(u, self.knots_cdf, self.knots_x)


def survival(dist: PacketDistribution, x):
    """Tail probability 1 - B(x) of the packet law at energy ``x >= 0``."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("survival is defined for nonnegative energies")
    if dist.form == "exponential":
        out = np.exp(-dist.zeta * arr)
    else:
        out = 1.0 - dist.cdf(arr)
    return float(out) if np.ndim(x) == 0 else out


# Arrivals one ``sample_arrivals`` call may plan (1.25 lam horizon): its first
# block of gaps alone takes 8 GB here, far past the memory of the trajectory
# walk it feeds, which keeps about ten floats per arrival and node.
ARRIVAL_CAP = 10**9


def _stream(seed: int, node: int, replication: int) -> np.random.Generator:
    """Splittable per-(node, replication) stream so evaluation order is moot."""
    ss = np.random.SeedSequence(seed, spawn_key=(node, replication))
    return np.random.Generator(np.random.Philox(ss))


def sample_arrivals(params: HarvestParams, dist: PacketDistribution, horizon: float,
                    seed: int, node: int = 0, replication: int = 0):
    """Poisson arrival times on (0, horizon] with i.i.d. packet energies.

    Returns (times, energies) as float arrays, deterministic under
    (seed, node, replication).  A horizon that is not positive and finite, or
    a seed, node or replication that is not a nonnegative integer, raises
    ``DomainError`` naming the argument, and so does a rate and horizon that
    plan more than ``ARRIVAL_CAP`` arrivals, before anything is allocated.
    """
    if not 0.0 < horizon < math.inf:
        raise DomainError(f"horizon must be positive and finite, got {horizon}",
                          field="horizon")
    planned = 1.25 * params.lam * horizon
    if not planned <= ARRIVAL_CAP:
        raise DomainError(f"arrival rate {params.lam:.6g} over horizon {horizon:.6g} plans "
                          f"{planned:.6g} arrivals, above the cap of {ARRIVAL_CAP}",
                          field="lam")
    check_integers(seed=seed, node=node, replication=replication)
    for name, value in (("seed", seed), ("node", node), ("replication", replication)):
        if value < 0:
            raise DomainError(f"{name} must be nonnegative, got {value}", field=name)
    rng = _stream(seed, node, replication)
    times = []
    t = 0.0
    if params.lam == 0.0:
        return np.empty(0), np.empty(0)
    block = max(16, int(planned) + 32)
    while t <= horizon:
        gaps = rng.exponential(1.0 / params.lam, size=block)
        cum = t + np.cumsum(gaps)
        keep = cum[cum <= horizon]
        times.append(keep)
        if cum[-1] > horizon:
            break
        t = cum[-1]
    times = np.concatenate(times) if times else np.empty(0)
    energies = dist.sample(rng, times.size)
    return times, energies


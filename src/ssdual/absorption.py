"""Separation distance, absorption laws, spectra and closed-form bounds."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chain import ChainSpec, SpectrumReport, _propagate, group_with_tolerance
from .duality import DualChain
from .errors import (
    BadParameters,
    BadProbability,
    MaxStepsExceeded,
    MissingStationary,
    NoAbsorbingState,
    NotLumpable,
    NotPureBirth,
    NotTriangular,
    SingularSystem,
)
from .poset import _readonly

LUMP_TOL = 1e-10
TRIANGULAR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SeparationCurve:
    """Separation and total-variation distance to stationarity per step."""

    values: np.ndarray
    tv: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(np.asarray(self.values, dtype=float)))
        object.__setattr__(self, "tv", _readonly(np.asarray(self.tv, dtype=float)))

    @property
    def horizon(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True, eq=False)
class AbsorptionLaw:
    """Survival function P(T > n) for n = 0..horizon with first two moments."""

    survival: np.ndarray
    mean: float
    variance: float

    def __post_init__(self):
        object.__setattr__(self, "survival", _readonly(np.asarray(self.survival, dtype=float)))

    @property
    def horizon(self) -> int:
        return len(self.survival) - 1


@dataclass(frozen=True, eq=False)
class BirthChain:
    """Pure-birth chain on levels 0..L; the top level is absorbing."""

    birth: np.ndarray

    def __post_init__(self):
        birth = np.asarray(self.birth, dtype=float)
        if birth.ndim != 1 or len(birth) < 1:
            raise BadParameters("birth rates must be a nonempty vector")
        if birth.min() < 0.0 or birth.max() > 1.0:
            raise BadParameters("birth rates must lie in [0, 1]")
        if birth[-1] != 0.0:
            raise BadParameters("top level must be absorbing (birth rate 0)")
        object.__setattr__(self, "birth", _readonly(birth))

    @property
    def levels(self) -> int:
        return len(self.birth)

    @property
    def hold(self) -> np.ndarray:
        return 1.0 - self.birth

    def success_probabilities(self) -> np.ndarray:
        """Geometric rates of the level passage times, bottom to top."""
        return self.birth[:-1].copy()


def separation_curve(c: ChainSpec, horizon: int) -> SeparationCurve:
    """Exact separation and total-variation curves for n = 0..horizon."""
    if c.pi is None:
        raise MissingStationary("separation distance needs the stationary distribution")
    if horizon < 0:
        raise BadParameters("horizon must be nonnegative")
    sep = np.empty(horizon + 1)
    tv = np.empty(horizon + 1)
    for n, dist in enumerate(_propagate(c.nu, c.P, horizon)):
        sep[n] = np.max(1.0 - dist / c.pi)
        tv[n] = 0.5 * np.abs(dist - c.pi).sum()
    return SeparationCurve(values=sep, tv=tv)


def _transient_parts(d: DualChain) -> tuple[np.ndarray, np.ndarray]:
    keep = np.arange(d.size) != d.absorbing_index
    return d.P_star[np.ix_(keep, keep)], d.nu_star[keep]


def _absorption_moments(Q: np.ndarray, start: np.ndarray) -> tuple[float, float]:
    m = Q.shape[0]
    if m == 0:
        return 0.0, 0.0
    system = np.eye(m) - Q
    ones = np.ones(m)
    try:
        steps = np.linalg.solve(system, ones)
        second = np.linalg.solve(system, ones + 2.0 * (Q @ steps))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"fundamental matrix solve failed: {exc}") from exc
    if not np.all(np.isfinite(steps)) or steps.min() < 0.0:
        raise NoAbsorbingState("some transient state never reaches the absorbing state")
    mean = float(start @ steps)
    variance = float(start @ second) - mean * mean
    return mean, variance


def default_horizon(mean: float) -> int:
    """max(4 * ceil(mean), 50); leaves only an exp(-4)-scale tail."""
    return max(4 * math.ceil(mean), 50)


def absorption_survival(d: DualChain, horizon: int | None = None) -> AbsorptionLaw:
    """Exact absorption law from powers of the transient block.

    The survival values are the mass still in transient states after n
    steps; the mean and variance come from fundamental-matrix solves and are
    horizon-independent.
    """
    Q, start = _transient_parts(d)
    mean, variance = _absorption_moments(Q, start)
    if horizon is None:
        horizon = default_horizon(mean)
    if horizon < 0:
        raise BadParameters("horizon must be nonnegative")
    masses = _propagate(start, Q, horizon)
    survival = np.fromiter((mass.sum() for mass in masses), float, horizon + 1)
    return AbsorptionLaw(survival=survival, mean=mean, variance=variance)


def geometric_sum_law(
    success_probabilities: Sequence[float], horizon: int
) -> AbsorptionLaw:
    """Law of a sum of independent geometric( p_i ) variables on {1, 2, ...}.

    The probability mass function is built by sequential convolution up to
    the horizon; the moments use the exact formulas sum(1/p) and
    sum((1-p)/p^2).
    """
    ps = [float(p) for p in success_probabilities]
    for p in ps:
        if not 0.0 < p <= 1.0:
            raise BadProbability(f"success probability {p} outside (0, 1]")
    if horizon < 0:
        raise BadParameters("horizon must be nonnegative")
    pmf = np.zeros(horizon + 1)
    pmf[0] = 1.0
    steps = np.arange(horizon + 1, dtype=float)
    for p in ps:
        geo = np.zeros(horizon + 1)
        if horizon >= 1:
            geo[1:] = p * (1.0 - p) ** (steps[1:] - 1.0)
        pmf = np.convolve(pmf, geo)[: horizon + 1]
    survival = np.clip(1.0 - np.cumsum(pmf), 0.0, 1.0)
    mean = sum(1.0 / p for p in ps)
    variance = sum((1.0 - p) / (p * p) for p in ps)
    return AbsorptionLaw(survival=survival, mean=mean, variance=variance)


def pure_birth_projection(
    d: DualChain, level: Callable | Sequence[int]
) -> BirthChain:
    """Lump the dual through a level function into a pure-birth chain.

    Verifies lumpability (class-aggregated rows agree within 1e-10 inside
    every class) and that no move drops a level or climbs more than one.
    """
    if callable(level):
        levels = np.asarray([int(level(lab)) for lab in d.poset.labels])
    else:
        levels = np.asarray([int(v) for v in level])
    if levels.shape != (d.size,):
        raise BadParameters("level function must cover every state")
    top = int(levels.max())
    if levels.min() != 0 or set(np.unique(levels)) != set(range(top + 1)):
        raise BadParameters("levels must cover 0..L without gaps")
    indicator = np.zeros((d.size, top + 1))
    indicator[np.arange(d.size), levels] = 1.0
    aggregated = d.P_star @ indicator
    lumped = np.empty((top + 1, top + 1))
    for value in range(top + 1):
        members = np.nonzero(levels == value)[0]
        rows = aggregated[members]
        dev = np.abs(rows - rows[0]).max(axis=1)
        worst = int(np.argmax(dev))
        if dev[worst] > LUMP_TOL:
            raise NotLumpable(
                f"states {d.poset.labels[members[0]]!r} and "
                f"{d.poset.labels[members[worst]]!r} at level {value} disagree by {dev[worst]:.3e}"
            )
        lumped[value] = rows[0]
    off = np.abs(np.tril(lumped, -1)).max() if top else 0.0
    if off > TRIANGULAR_TOL:
        raise NotPureBirth(f"lumped chain moves down a level with probability {off:.3e}")
    skips = np.triu(lumped, 2)
    if top >= 2 and np.abs(skips).max() > TRIANGULAR_TOL:
        raise NotPureBirth("lumped chain skips levels")
    birth = np.zeros(top + 1)
    if top:
        birth[:-1] = np.diag(lumped, 1)
    return BirthChain(birth=birth)


def spectrum_from_triangular(d: DualChain, *, group_tol: float = 1e-9) -> SpectrumReport:
    """Eigenvalues read off the diagonal of an upper-triangular dual kernel."""
    below = np.tril(d.P_star, -1)
    worst = float(np.abs(below).max()) if d.size > 1 else 0.0
    if worst > TRIANGULAR_TOL:
        raise NotTriangular(
            f"dual kernel has mass {worst:.3e} below the diagonal"
        )
    diag = np.sort(np.diag(d.P_star))[::-1]
    values, counts = group_with_tolerance(diag, group_tol)
    return SpectrumReport(values=values, multiplicities=counts, source="triangular-dual")


def coupon_collector_bound(N: int, c: float) -> tuple[int, float]:
    """Steps and tail bound (ceil(N ln N + c N), exp(-c))."""
    if N < 2:
        raise BadParameters("need N >= 2")
    if c <= 0.0:
        raise BadParameters("need c > 0")
    steps = math.ceil(N * math.log(N) + c * N)
    return steps, math.exp(-c)


def chebyshev_bound(n: int, k: int, c: float) -> tuple[int, float]:
    """Steps and tail bound for the cube chain.

    Returns (ceil((2k/(k+1)) (n+1) ln n + c (2k/(k+1)) (pi/sqrt 6) n), 1/c^2).
    """
    if n < 2:
        raise BadParameters("need n >= 2")
    if k < 1:
        raise BadParameters("need k >= 1")
    if c <= 0.0:
        raise BadParameters("need c > 0")
    scale = 2.0 * k / (k + 1.0)
    steps = math.ceil(scale * (n + 1) * math.log(n) + c * scale * (math.pi / math.sqrt(6.0)) * n)
    return steps, 1.0 / (c * c)


def simulate_sst(
    d: DualChain,
    samples: int,
    seed: int,
    *,
    horizon: int | None = None,
    max_steps: int = 1_000_000,
) -> AbsorptionLaw:
    """Monte Carlo absorption law with counter-based per-trajectory streams.

    Trajectory ``i`` draws from a Philox generator keyed by (seed, i), so the
    result is deterministic for a fixed (seed, samples) regardless of how
    trajectories would be partitioned across workers.
    """
    if samples < 1:
        raise BadParameters("need at least one trajectory")
    if seed < 0:
        raise BadParameters("seed must be nonnegative")
    cum_rows = np.cumsum(d.P_star, axis=1)
    cum_rows[:, -1] = 1.0
    cum_start = np.cumsum(d.nu_star)
    cum_start[-1] = 1.0
    absorbing = int(d.absorbing_index)
    if horizon is None:
        Q, start = _transient_parts(d)
        exact_mean, _ = _absorption_moments(Q, start)
        horizon = default_horizon(exact_mean)
    times = np.empty(samples, dtype=np.int64)
    for i in range(samples):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        buf = rng.random(32)
        pos = 1
        state = int(cum_start.searchsorted(buf[0], side="right"))
        steps = 0
        while state != absorbing:
            if pos == len(buf):
                buf = rng.random(64)
                pos = 0
            state = int(cum_rows[state].searchsorted(buf[pos], side="right"))
            pos += 1
            steps += 1
            if steps > max_steps:
                raise MaxStepsExceeded(
                    f"trajectory {i} exceeded {max_steps} steps without absorbing"
                )
        times[i] = steps
    counts = np.bincount(np.minimum(times, horizon + 1), minlength=horizon + 2)
    still_out = samples - np.cumsum(counts)
    survival = still_out[: horizon + 1] / samples
    return AbsorptionLaw(
        survival=survival, mean=float(times.mean()), variance=float(times.var())
    )

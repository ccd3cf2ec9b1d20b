"""Separation distance, absorption laws, spectra and closed-form bounds."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import TRIANGULAR_TOL, ChainSpec, SpectrumReport, _propagate, group_with_tolerance
from .duality import DualChain
from .errors import (
    BadParameters,
    BadProbability,
    MaxStepsExceeded,
    MissingStationary,
    NoAbsorbingState,
    NotReversible,
    NotTriangular,
    SingularSystem,
)
from .poset import Poset, _readonly


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


def _survival(d: DualChain, horizon: int) -> np.ndarray:
    """P(T > n) for n = 0..horizon: the mass left in transient states."""
    Q, start = _transient_parts(d)
    masses = _propagate(start, Q, horizon)
    return np.fromiter((mass.sum() for mass in masses), float, horizon + 1)


def _absorption_moments(d: DualChain) -> tuple[float, float]:
    system, start = _transient_parts(d)  # Q, as a fresh copy
    m = system.shape[0]
    if m == 0:
        return 0.0, 0.0
    # I - Q in place, the same floats as np.eye(m) - Q
    np.subtract(0.0, system, out=system)
    system.flat[:: m + 1] += 1.0
    try:
        steps = np.linalg.solve(system, np.ones(m))
        # (I - Q) steps = 1, so the second moment's 1 + 2 Q steps is 2 steps - 1
        second = np.linalg.solve(system, 2.0 * steps - 1.0)
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
    mean, variance = _absorption_moments(d)
    if horizon is None:
        horizon = default_horizon(mean)
    if horizon < 0:
        raise BadParameters("horizon must be nonnegative")
    return AbsorptionLaw(survival=_survival(d, horizon), mean=mean, variance=variance)


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


def _levels(p: Poset) -> np.ndarray:
    """Length of the longest chain below each state; covers go up in index."""
    level = [0] * p.size
    for lower, upper in sorted(p.covers):
        level[upper] = max(level[upper], level[lower] + 1)
    return np.asarray(level, dtype=np.int64)


def spectrum_from_triangular(d: DualChain, *, group_tol: float = 1e-9) -> SpectrumReport:
    """Eigenvalues of a dual kernel that never moves down a level.

    Ordered by level (the longest chain below a state), such a kernel is block
    upper triangular: its spectrum is the union of its level blocks' spectra,
    which for a triangular dual is the diagonal.  An eigenvalue with an
    imaginary part above ``group_tol`` is an error, never dropped.
    """
    level = _levels(d.poset)
    rows, cols = np.nonzero(d.P_star > TRIANGULAR_TOL)
    down = level[cols] < level[rows]
    if down.any():
        worst = float(d.P_star[rows[down], cols[down]].max())
        raise NotTriangular(f"dual kernel moves down a level with probability {worst:.3e}")
    blocks = (np.nonzero(level == k)[0] for k in range(int(level.max()) + 1))
    eig = np.concatenate([np.linalg.eigvals(d.P_star[np.ix_(b, b)]) for b in blocks])
    imag = float(np.abs(eig.imag).max())
    if imag > group_tol:
        raise NotReversible(f"dual level block has an eigenvalue with imaginary part {imag:.3e}")
    values, counts = group_with_tolerance(np.sort(eig.real)[::-1], group_tol)
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
        exact_mean, _ = _absorption_moments(d)
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

"""Separation distance, absorption laws, spectra and closed-form bounds."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import ChainSpec, DualChain, SpectrumReport, group_with_tolerance
from .chain import _check_tol, _lump, _nonzeros, _positive_pi, _propagate
from .errors import (
    BadParameters,
    BadProbability,
    MaxStepsExceeded,
    NoAbsorbingState,
    NotReversible,
    NotTriangular,
    SingularSystem,
)
from .poset import _SIZE, _count, _levels, _readonly


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
    """Exact separation and total-variation curves for n = 0..horizon, stepped on the orbits of
    the symmetries the chain keeps (``chain._lump``): an orbit's mass b against pi(orbit)."""
    pi = _positive_pi(c.pi, "separation distance")
    horizon = _count(horizon, "horizon")
    P, start, orbit = _lump(c.poset, c.P, c.nu, (pi,))
    pi = np.bincount(orbit, pi)
    sep, tv = np.empty(horizon + 1), np.empty(horizon + 1)
    for done, b in _step_blocks(start, P, horizon):
        # rounding is monotone, so 1 - min(b / pi) is max(1 - b / pi) exactly
        ratio = b / pi
        sep[done] = 1.0 - ratio.min(axis=1)
        tv[done] = 0.5 * np.abs(np.subtract(b, pi, out=ratio), out=ratio).sum(axis=1)
    return SeparationCurve(values=sep, tv=tv)


def _step_blocks(v: np.ndarray, P: np.ndarray | tuple, n: int):
    """Yield (slice of k, rows of one reused buffer) for vP^k, k = 0..n, 64 steps at a time; after
    each block the subnormal masses of the vector stepped next become 0, as they step slowly."""
    block = np.empty((64, len(v)))
    for k, dist in enumerate(_propagate(v, P, n)):
        block[k % 64] = dist
        if k % 64 == 63 or k == n:
            dist[np.abs(dist) < np.finfo(float).tiny] = 0.0
            yield slice(k - k % 64, k + 1), block[: k % 64 + 1]


def _transient_parts(d: DualChain) -> tuple[tuple, np.ndarray]:
    """The (rows, cols, vals) of the transient block Q's nonzeros, P_star's off the absorbing
    state's row and column, and the start, nu_star less the absorbing mass, in P_star's indices."""
    a = d.absorbing_index
    rows, cols, vals = _nonzeros(d.P_star)
    keep = (rows != a) & (cols != a)
    return (rows[keep], cols[keep], vals[keep]), np.where(np.arange(d.size) == a, 0.0, d.nu_star)


def _survival(d: DualChain, horizon: int, parts: tuple | None = None) -> np.ndarray:
    """P(T > n) for n = 0..horizon: the transient mass, stepped on the orbits of ``chain._lump``."""
    Q, start = parts or _transient_parts(d)
    Q, start, _ = _lump(d.poset, d.P_star, start, (np.arange(d.size) == d.absorbing_index,), Q)
    survival = np.empty(horizon + 1)
    for done, masses in _step_blocks(start, Q, horizon):
        survival[done] = masses.sum(axis=1)  # each row's sum is bitwise its 1-D sum
    return survival


def _level_blocks(level: np.ndarray, rows, cols, vals) -> tuple[list, float]:
    """The states of each level, lowest level first, and the largest of ``vals`` on a
    nonzero (rows, cols) that moves down a level, 0.0 if none does."""
    blocks = [np.nonzero(level == k)[0] for k in range(int(level.max(initial=0)) + 1)]
    return blocks, float(vals[level[cols] < level[rows]].max(initial=0.0))


def _slices(d: DualChain, rows, cols) -> list | None:
    """The transient states of each last coordinate of a shaped poset, lowest first, if no
    nonzero (rows, cols) of Q changes that coordinate by more than 1; else None."""
    if d.poset.shape is not None:
        width = d.size // d.poset.shape[-1]  # the states of one last coordinate
        if np.abs(rows // width - cols // width).max(initial=0) <= 1:
            return [s[s != d.absorbing_index] for s in np.arange(d.size).reshape(-1, width)]
    return None


def _slice_factors(P_star: np.ndarray, slices: list) -> list:
    """Block-Thomas factors of a block-tridiagonal ``I - Q``: per slice k its states, ``Q_k,k-1``,
    ``S_k^-1`` and ``G_k``, with ``S_k = I - Q_kk - Q_k,k-1 G_k-1`` and ``G_k = S_k^-1 Q_k,k+1``."""
    empty = np.zeros(0, dtype=np.intp)
    factors, G = [], np.zeros((0, len(slices[0])))  # no slice below the first, none above the last
    for below, b, above in zip([empty, *slices], slices, [*slices[1:], empty]):
        low = P_star[np.ix_(b, below)]
        inverse = np.linalg.inv(np.eye(len(b)) - P_star[np.ix_(b, b)] - low @ G)
        G = inverse @ P_star[np.ix_(b, above)]
        factors.append((b, low, inverse, G))
    return factors


def _block_sweep(factors: list, rhs: np.ndarray) -> np.ndarray:
    """``(I - Q)^-1 rhs`` from ``_slice_factors``: z_k = S_k^-1 (rhs_k + Q_k,k-1 z_k-1) upward,
    then x_k = z_k + G_k x_k+1 downward; 0 on the absorbing state, in no slice."""
    x, z = np.zeros_like(rhs), np.zeros(0)
    for s, low, inverse, _ in factors:
        z = x[s] = inverse @ (rhs[s] + low @ z)
    z = np.zeros(0)
    for s, _, _, G in reversed(factors):
        z = x[s] = x[s] + G @ z
    return x


def _absorption_moments(d: DualChain, Q: tuple, start: np.ndarray, variance=True) -> tuple[float, float]:
    """Mean and variance of T, solved one level block b at a time from the top down.

    ``(I - Q_bb) steps_b = 1 + Q_b,above steps`` and ``(I - Q_bb) second_b = 2 steps_b - 1
    + Q_b,above second``.  A Q that moves down a level is block tridiagonal in ``_slices`` if
    they exist, both moments sweeping one factorization, and otherwise one dense block.
    Without ``variance`` only the mean's systems are solved, and the variance is NaN.
    """
    rows, cols, vals = Q
    level, n = _levels(d.poset), d.size
    level[d.absorbing_index] = -1  # in no level block
    blocks, down = _level_blocks(level, rows, cols, vals)
    slices = _slices(d, rows, cols) if down > 0.0 else None
    steps, second = np.zeros(n), np.zeros(n)
    try:
        if slices:
            factors = _slice_factors(d.P_star, slices)
            steps = _block_sweep(factors, np.ones(n))
            if variance:
                second = _block_sweep(factors, 2.0 * steps - 1.0)
        else:
            for b in reversed([np.flatnonzero(level >= 0)] if down > 0.0 else blocks):
                system = d.P_star[np.ix_(b, b)]
                np.negative(system, out=system)
                system.flat[:: len(b) + 1] += 1.0
                # steps[b] and second[b] are still zero: these sums see only Q_b,above
                steps[b] = np.linalg.solve(system, 1.0 + np.bincount(rows, vals * steps[cols], n)[b])
                if variance:
                    rhs = 2.0 * steps[b] - 1.0 + np.bincount(rows, vals * second[cols], n)[b]
                    second[b] = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"fundamental matrix solve failed: {exc}") from exc
    if not np.all(np.isfinite(steps)) or steps.min(initial=0.0) < 0.0:
        raise NoAbsorbingState("some transient state never reaches the absorbing state")
    mean = float(start @ steps)
    return mean, float(start @ second) - mean * mean if variance else math.nan


def default_horizon(mean: float) -> int:
    """max(4 * ceil(mean), 50); leaves only an exp(-4)-scale tail."""
    if not math.isfinite(mean):
        raise BadParameters(f"mean must be finite, got {mean!r}")
    return max(4 * math.ceil(mean), 50)


def absorption_survival(d: DualChain, horizon: int | None = None) -> AbsorptionLaw:
    """Exact absorption law from powers of the transient block.

    The survival is the mass left in transient states after n steps.  The
    horizon-free mean and variance solve ``I - Q`` by level blocks if the dual never
    moves down a level, else by slices of a product's last coordinate or densely.
    """
    parts = _transient_parts(d)
    mean, variance = _absorption_moments(d, *parts)
    horizon = _count(default_horizon(mean) if horizon is None else horizon, "horizon")
    return AbsorptionLaw(survival=_survival(d, horizon, parts), mean=mean, variance=variance)


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
    horizon = _count(horizon, "horizon")
    pmf = np.zeros(horizon + 1)
    pmf[0] = 1.0
    steps = np.arange(horizon + 1, dtype=float)
    for p in ps:
        geo = np.zeros(horizon + 1)
        geo[1:] = p * (1.0 - p) ** (steps[1:] - 1.0)
        pmf = np.convolve(pmf, geo)[: horizon + 1]
    survival = np.clip(1.0 - np.cumsum(pmf), 0.0, 1.0)
    mean = sum(1.0 / p for p in ps)
    variance = sum((1.0 - p) / (p * p) for p in ps)
    return AbsorptionLaw(survival=survival, mean=mean, variance=variance)


def spectrum_from_triangular(d: DualChain, *, group_tol: float = 1e-9) -> SpectrumReport:
    """Eigenvalues of a dual kernel that never moves down a level.

    Ordered by level (the longest chain below a state), such a kernel is block
    upper triangular: its spectrum is the union of its level blocks' spectra,
    which for a triangular dual is the diagonal.  An eigenvalue with an
    imaginary part above ``group_tol`` is an error, never dropped.
    """
    _check_tol(group_tol, "group_tol")
    blocks, down = _level_blocks(_levels(d.poset), *_nonzeros(d.P_star))
    if down > 0.0:
        raise NotTriangular(f"dual kernel moves down a level with probability {down:.3e}")
    eig = np.concatenate([np.linalg.eigvals(d.P_star[np.ix_(b, b)]) for b in blocks])
    imag = float(np.abs(eig.imag).max())
    if imag > group_tol:
        raise NotReversible(f"dual level block has an eigenvalue with imaginary part {imag:.3e}")
    values, counts = group_with_tolerance(np.sort(eig.real)[::-1], group_tol)
    return SpectrumReport(values=values, multiplicities=counts, source="triangular-dual")


def _check_c(c: float) -> None:
    if not (math.isfinite(c) and c > 0.0):
        raise BadParameters(f"need a finite c > 0, got {c!r}")


def _finite(steps: float, bound: float) -> tuple[int, float]:
    if not (math.isfinite(steps) and math.isfinite(bound)):
        raise BadParameters(f"c gives {steps!r} steps and a bound {bound!r}; both must be finite")
    return math.ceil(steps), bound


def coupon_collector_bound(N: int, c: float) -> tuple[int, float]:
    """Steps and tail bound (ceil(N ln N + c N), exp(-c))."""
    if not 2 <= _count(N, "coupon count N", *_SIZE) <= sys.float_info.max:  # else no float
        raise BadParameters(f"need 2 <= N <= {sys.float_info.max!r}")
    _check_c(c)
    return _finite(N * math.log(N) + c * N, math.exp(-c))


def chebyshev_bound(n: int, k: int, c: float) -> tuple[int, float]:
    """Steps and tail bound for the cube chain.

    Returns (ceil((2k/(k+1)) (n+1) ln n + c (2k/(k+1)) (pi/sqrt 6) n), 1/c^2).
    """
    if not 2 <= _count(n, "cube n", *_SIZE) <= sys.float_info.max:  # else no float
        raise BadParameters(f"need 2 <= n <= {sys.float_info.max!r}")
    if not 1 <= _count(k, "cube k", *_SIZE) <= sys.float_info.max:
        raise BadParameters(f"need 1 <= k <= {sys.float_info.max!r}")
    _check_c(c)
    scale = 2.0 * k / (k + 1.0)
    steps = scale * (n + 1) * math.log(n) + c * scale * (math.pi / math.sqrt(6.0)) * n
    return _finite(steps, 1.0 / (c * c) if c * c else math.inf)


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
    samples = _count(samples, "sample count", least=1)
    max_steps = _count(max_steps, "step cap")
    seed = _count(seed, "seed", end=2**64)  # the Philox key word is a uint64
    if horizon is None:
        horizon = default_horizon(_absorption_moments(d, *_transient_parts(d), variance=False)[0])
    horizon = _count(horizon, "horizon")
    # A row is cut to its nonzeros when a trajectory first leaves it.  Their partial sums are
    # the dense row's cumsum there, and a draw at or past the last goes to the last state, as
    # past the 1.0 that ended a dense row: (partial sums, 1.0) against (columns, M - 1).
    rows, cols, vals = _nonzeros(d.P_star)
    cum_rows = [None] * d.size
    cum_start = np.cumsum(d.nu_star)
    cum_start[-1] = 1.0
    absorbing = int(d.absorbing_index)
    times = np.empty(samples, dtype=np.int64)
    counts = np.zeros(horizon + 2, dtype=np.int64)  # a horizon too large to count fails at once
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
            row = cum_rows[state]
            if row is None:
                lo, hi = rows.searchsorted([state, state + 1])
                cum, to = np.append(np.cumsum(vals[lo:hi]), 1.0), np.append(cols[lo:hi], d.size - 1)
                row = cum_rows[state] = (cum, to)
            state = int(row[1][row[0].searchsorted(buf[pos], side="right")])
            pos += 1
            steps += 1
            if steps > max_steps:
                raise MaxStepsExceeded(
                    f"trajectory {i} exceeded {max_steps} steps without absorbing"
                )
        times[i] = steps
        counts[min(steps, horizon + 1)] += 1
    still_out = samples - np.cumsum(counts)
    survival = still_out[: horizon + 1] / samples
    return AbsorptionLaw(
        survival=survival, mean=float(times.mean()), variance=float(times.var())
    )

"""Mobius monotonicity certificates and the strong stationary dual construction.

The dual of a chain with a unique maximal state is intertwined with it through
the truncated-stationary link: ``nu = nu* L`` and ``L P = P* L``.  Everything
here works under the poset's consistent enumeration, where the zeta matrix is
upper triangular and the transformed kernel ``mobius @ P @ zeta`` certifies
down-monotonicity by plain entrywise nonnegativity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import DEFAULT_TOL, ROW_TOL, ChainSpec, _reachable_from, time_reversal
from .errors import (
    DimensionMismatch,
    MissingStationary,
    MonotonicityViolated,
    NoAbsorbingState,
    NotRowStochastic,
    NoUniqueMax,
)
from .poset import Poset, _mobius_apply, _readonly, _transitive_reduction
from .poset import mobius_pair  # noqa: F401  (bench/test_bench.py reads duality.mobius_pair)


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    """Outcome of a Mobius monotonicity check.

    ``transformed`` is the checked array itself (a matrix for kernels, a
    vector for functions); ``witness`` indexes its most negative entry.
    """

    direction: str
    transformed: np.ndarray
    min_entry: float
    passed: bool
    witness: tuple[int, ...]
    tol: float

    def __post_init__(self):
        object.__setattr__(self, "transformed", _readonly(np.asarray(self.transformed, dtype=float)))


@dataclass(frozen=True, eq=False)
class LinkKernel:
    """Truncated stationary link: row j is pi conditioned on the down-set of j."""

    matrix: np.ndarray
    down_mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _readonly(np.asarray(self.matrix, dtype=float)))
        object.__setattr__(self, "down_mass", _readonly(np.asarray(self.down_mass, dtype=float)))


@dataclass(frozen=True, eq=False)
class DualChain:
    """Absorbing dual chain on the same poset as the primal."""

    poset: Poset
    P_star: np.ndarray
    nu_star: np.ndarray
    absorbing_index: int

    def __post_init__(self):
        m = self.poset.size
        P = np.ascontiguousarray(self.P_star, dtype=float)
        nu = np.ascontiguousarray(self.nu_star, dtype=float)
        if P.shape != (m, m) or nu.shape != (m,):
            raise DimensionMismatch("dual kernel/initial distribution shape mismatch")
        if not 0 <= self.absorbing_index < m:
            raise NoAbsorbingState(f"absorbing index {self.absorbing_index} out of range")
        if not (np.isfinite(P).all() and np.isfinite(nu).all()):
            raise NotRowStochastic("dual kernel and initial distribution must be finite")
        rows = P.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > ROW_TOL or P.min() < 0.0:
            raise NotRowStochastic("dual kernel is not row stochastic within 1e-10")
        unit = np.zeros(m)
        unit[self.absorbing_index] = 1.0
        if np.max(np.abs(P[self.absorbing_index] - unit)) > ROW_TOL:
            raise NoAbsorbingState("absorbing row is not a unit vector")
        if abs(nu.sum() - 1.0) > ROW_TOL or nu.min() < 0.0:
            raise NotRowStochastic("dual initial distribution does not sum to one")
        object.__setattr__(self, "P_star", _readonly(P))
        object.__setattr__(self, "nu_star", _readonly(nu))

    @property
    def size(self) -> int:
        return self.poset.size


def check_mobius_monotone(
    P: np.ndarray, p: Poset, direction: str = "down", tol: float = DEFAULT_TOL
) -> MonotonicityReport:
    """Check entrywise nonnegativity of the Mobius-transformed kernel.

    direction="down" tests ``mobius @ P @ zeta``; direction="up" tests the
    transform conjugated by the transposed zeta matrix.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (p.size, p.size):
        raise DimensionMismatch(f"kernel shape {P.shape} does not match poset size {p.size}")
    if direction not in ("down", "up"):
        raise DimensionMismatch(f"unknown direction {direction!r}")
    if direction == "down":
        transformed = _mobius_apply(p, P, "mobius", "zeta")
    else:
        transformed = _mobius_apply(p, P, "mobius.T", "zeta.T")
    return _report(direction, transformed, tol)


def check_g_monotone(c: ChainSpec, tol: float = DEFAULT_TOL) -> MonotonicityReport:
    """Check down-monotonicity of the density g = nu / pi.

    The condition is nonnegativity of the Mobius-inverted up-set values,
    i.e. of ``mobius @ g``.
    """
    if c.pi is None:
        raise MissingStationary("g-monotonicity check needs the stationary distribution")
    if c.pi.min() <= 0.0:
        raise MissingStationary("stationary distribution must be strictly positive")
    g = c.nu / c.pi
    return _report("down", _mobius_apply(c.poset, g, left="mobius"), tol)


def _report(direction: str, transformed: np.ndarray, tol: float) -> MonotonicityReport:
    """Report on ``transformed``, witnessed by its most negative entry."""
    idx = np.unravel_index(np.argmin(transformed), transformed.shape)
    min_entry = float(transformed[idx])
    return MonotonicityReport(
        direction=direction,
        transformed=transformed,
        min_entry=min_entry,
        passed=min_entry >= -tol,
        witness=tuple(int(i) for i in idx),
        tol=tol,
    )


def down_set_masses(p: Poset, pi: np.ndarray) -> np.ndarray:
    """Cumulative stationary mass of each down-set."""
    return _mobius_apply(p, pi, right="zeta")


def build_link(p: Poset, pi: np.ndarray) -> LinkKernel:
    """Truncated-stationary link for a poset with a unique maximal state."""
    if not p.has_unique_max:
        raise NoUniqueMax("link construction requires a unique maximal state")
    pi = np.asarray(pi, dtype=float)
    H = down_set_masses(p, pi)
    matrix = p.leq.T * pi[None, :] / H[:, None]
    return LinkKernel(matrix=matrix, down_mass=H)


def _clamp_small_negatives(a: np.ndarray, tol: float, what: str) -> None:
    """Zero the entries of ``a`` in [-tol, 0), in place."""
    low = float(a.min())
    if low < -tol:
        raise MonotonicityViolated(f"{what} has entry {low:.3e} below -{tol:.1e}")
    np.maximum(a, 0.0, out=a)


def _within_error_bound(transformed: np.ndarray, R: np.ndarray, p: Poset) -> np.ndarray:
    """Mask of the entries of ``mobius @ R @ zeta`` within their error bound.

    The two products err by at most M * eps times ``|mobius| @ R @ zeta``
    (as length-M dense products; axis-wise sums err less), and a pi that is
    stationary for P only up to a relative defect (the rows of the reversal
    R sum to 1 within rho) moves the entries by about rho times it.  The
    bound is freed on return, before the caller builds the dual kernel.
    """
    rho = float(np.max(np.abs(R.sum(axis=1) - 1.0)))
    bound = _mobius_apply(p, R, "|mobius|", "zeta")
    bound *= len(R) * np.finfo(float).eps + rho
    return transformed <= bound


def build_dual(c: ChainSpec, *, tol: float = DEFAULT_TOL) -> DualChain:
    """Construct the strong stationary dual of a Mobius-monotone chain.

    Preconditions (checked): stationary distribution available, unique
    maximal state, the time-reversed kernel down-Mobius monotone at ``tol``,
    and the density nu/pi down-Mobius monotone at ``tol``.

    The dual kernel is the transformed time reversal rescaled by down-set
    mass ratios.  Its entries in [-tol, 0), and its positive entries that lie
    within their own error bound, are rounding debris and become exact
    zeros, so the kernel keeps the sparsity of the closed-form duals.  The
    bound is (M * eps + rho) times the same rescaling of
    ``|mobius| @ reversed_kernel @ zeta``, where rho is the largest deviation
    of the reversal's row sums from 1; it is relative, so a genuine small
    transition (a rate of 1e-13, say) is kept.  Each row moves by at most
    the sum of its dropped entries' bounds.  Rows are then checked
    (deviation beyond 1e-10 aborts) and renormalized.  Only negative entries
    of the initial distribution are clamped.
    """
    if c.pi is None:
        raise MissingStationary("dual construction needs the stationary distribution")
    p = c.poset
    if not p.has_unique_max:
        raise NoUniqueMax("dual construction requires a unique maximal state")
    reversed_kernel = time_reversal(c)
    mono = check_mobius_monotone(reversed_kernel, p, "down", tol)
    if not mono.passed:
        i, j = mono.witness
        raise MonotonicityViolated(
            "time-reversed kernel is not down-Mobius monotone: "
            f"entry {mono.min_entry:.3e} at ({p.labels[i]!r}, {p.labels[j]!r})",
            report=mono,
        )
    gmono = check_g_monotone(c, tol)
    if not gmono.passed:
        (i,) = gmono.witness
        raise MonotonicityViolated(
            "initial density nu/pi is not down-Mobius monotone: "
            f"entry {gmono.min_entry:.3e} at {p.labels[i]!r}",
            report=gmono,
        )

    H = down_set_masses(p, c.pi)
    transformed = mono.transformed  # mobius @ reversed_kernel @ zeta
    debris = _within_error_bound(transformed, reversed_kernel, p)
    del reversed_kernel
    P_star = (transformed * H[:, None]).T
    P_star /= H[:, None]
    _clamp_small_negatives(P_star, tol, "dual kernel")
    P_star[debris.T] = 0.0
    rows = P_star.sum(axis=1)
    if np.max(np.abs(rows - 1.0)) > ROW_TOL:
        raise NotRowStochastic(
            f"dual rows sum to 1 only within {np.max(np.abs(rows - 1.0)):.3e}"
        )
    P_star /= rows[:, None]

    nu_star = H * gmono.transformed
    _clamp_small_negatives(nu_star, tol, "dual initial distribution")
    total = nu_star.sum()
    if abs(total - 1.0) > ROW_TOL:
        raise NotRowStochastic(f"dual initial distribution sums to {float(total)!r}")
    nu_star = nu_star / total

    return DualChain(poset=p, P_star=P_star, nu_star=nu_star, absorbing_index=p.max_index)


def intertwining_residuals(c: ChainSpec, d: DualChain, link: LinkKernel) -> tuple[float, float]:
    """(kernel, initial) intertwining residuals in the sup norm."""
    if d.size != c.size or link.matrix.shape != (c.size, c.size):
        raise DimensionMismatch("chain, dual and link sizes disagree")
    kernel = float(np.max(np.abs(link.matrix @ c.P - d.P_star @ link.matrix)))
    initial = float(np.max(np.abs(c.nu - d.nu_star @ link.matrix)))
    return kernel, initial


def verify_intertwining(c: ChainSpec, d: DualChain, link: LinkKernel) -> float:
    """Worst intertwining residual; compare against your tolerance."""
    return max(intertwining_residuals(c, d, link))


def verify_sharpness(c: ChainSpec, d: DualChain, horizon: int) -> float:
    """Max over n <= horizon of |separation(n) - P(T* > n)|."""
    from .absorption import _survival, separation_curve

    sep = separation_curve(c, horizon)
    return float(np.max(np.abs(sep.values - _survival(d, horizon))))


def restrict_to_reachable(d: DualChain, *, atol: float = 0.0) -> DualChain:
    """Dual chain restricted to states reachable from its initial distribution.

    Transitions with probability <= atol (by default, exact zeros) are
    treated as absent when deciding reachability.  The induced sub-poset
    keeps the consistent enumeration; its ``enumeration`` field records the
    parent indices.
    """
    keep = np.nonzero(_reachable_from(d.P_star > atol, d.nu_star > atol))[0]
    if int(d.absorbing_index) not in keep:
        raise NoAbsorbingState("absorbing state unreachable from the initial distribution")
    sub_leq = d.poset.leq[np.ix_(keep, keep)]
    sub = Poset(
        labels=tuple(d.poset.labels[i] for i in keep),
        covers=_transitive_reduction(sub_leq),
        leq=sub_leq,
        enumeration=keep,
    )
    P_sub = d.P_star[np.ix_(keep, keep)]
    nu_sub = d.nu_star[keep]
    new_absorbing = int(np.nonzero(keep == int(d.absorbing_index))[0][0])
    return DualChain(poset=sub, P_star=P_sub, nu_star=nu_sub, absorbing_index=new_absorbing)

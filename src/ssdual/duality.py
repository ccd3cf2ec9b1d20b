"""Mobius monotonicity certificates and the strong stationary dual construction.

The dual of a chain with a unique maximal state is intertwined with it through
the truncated-stationary link: ``nu = nu* L`` and ``L P = P* L``.  Everything
here works under the poset's consistent enumeration, where the zeta matrix is
upper triangular and the transformed kernel ``mobius @ P @ zeta`` certifies
down-monotonicity by plain entrywise nonnegativity.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .absorption import SeparationCurve, _survival, separation_curve
from .chain import DEFAULT_TOL, ROW_TOL, ChainSpec, DualChain, _defect, _depths, _positive_pi
from .chain import _check_tol, time_reversal
from .errors import (
    DimensionMismatch,
    MonotonicityViolated,
    NoAbsorbingState,
    NotRowStochastic,
    NoUniqueMax,
)
from .poset import Poset, _down_sums, _mobius_apply, _pieces, _readonly, _restricted
from .poset import mobius_pair  # noqa: F401  (bench/test_bench.py reads duality.mobius_pair)


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    """Outcome of a Mobius monotonicity check.

    ``transformed`` is the checked array itself (a matrix for kernels, a
    vector for functions); ``witness`` indexes its most negative entry.
    ``zero`` masks the entries the rule of :func:`_debris` decides are exact
    zeros; ``zeroed`` counts the nonzero ones among them.
    """

    direction: str
    transformed: np.ndarray
    min_entry: float
    passed: bool
    witness: tuple[int, ...]
    tol: float
    zero: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "transformed", _readonly(np.asarray(self.transformed, dtype=float)))
        object.__setattr__(self, "zero", _readonly(np.asarray(self.zero, dtype=bool)))

    @property
    def zeroed(self) -> int:
        return int(np.count_nonzero(self.transformed[self.zero]))


@dataclass(frozen=True, eq=False)
class LinkKernel:
    """Truncated stationary link: row j is pi conditioned on the down-set of j, kept as the
    poset, ``pi`` and the down-set masses; ``matrix`` builds the dense M x M link on request."""

    poset: Poset
    pi: np.ndarray
    down_mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pi", _readonly(np.array(self.pi, dtype=float)))
        object.__setattr__(self, "down_mass", _readonly(np.array(self.down_mass, dtype=float)))

    @cached_property
    def matrix(self) -> np.ndarray:
        rows = self.poset.leq.T * self.pi
        return _readonly(np.divide(rows, self.down_mass[:, None], out=rows))


def check_mobius_monotone(
    P: np.ndarray, p: Poset, direction: str = "down", tol: float = DEFAULT_TOL
) -> MonotonicityReport:
    """Check entrywise nonnegativity of the Mobius-transformed kernel.

    direction="down" tests ``mobius @ P @ zeta``; direction="up" tests the
    transform conjugated by the transposed zeta matrix.  Each entry is decided
    against its own rounding bound (:func:`_debris`); ``tol`` is slack beyond it.
    """
    _check_tol(tol)
    P = np.asarray(P, dtype=float)
    if P.shape != (p.size, p.size):
        raise DimensionMismatch(f"kernel shape {P.shape} does not match poset size {p.size}")
    if direction not in ("down", "up"):
        raise DimensionMismatch(f"unknown direction {direction!r}")
    if direction == "down":
        return _certify(p, P, direction, "mobius", "zeta", tol)
    return _certify(p, P, direction, "mobius.T", "zeta.T", tol)


def check_g_monotone(c: ChainSpec, tol: float = DEFAULT_TOL) -> MonotonicityReport:
    """Check down-monotonicity of the density g = nu / pi.

    The condition is nonnegativity of the Mobius-inverted up-set values,
    i.e. of ``mobius @ g``, each entry decided as in :func:`check_mobius_monotone`.
    """
    _check_tol(tol)
    g = c.nu / _positive_pi(c.pi, "g-monotonicity check")
    return _certify(c.poset, g, "down", "mobius", None, tol)


def _certify(
    p: Poset, a: np.ndarray, direction: str, left: str, right: str | None, tol: float
) -> MonotonicityReport:
    """Decide each entry of ``left @ a @ right`` by the one rule for rounding debris (:func:`_debris`),
    with rho the row-sum defect of a kernel ``a`` and 0 for a vector.  ``a`` is copied once, and the
    left factor and the bound are taken one slab of columns at a time."""
    rho = _defect(a)[1] if a.ndim == 2 else 0.0
    transformed = np.array(a, dtype=float) if right is None else _mobius_apply(p, a, right=right)
    zero = np.empty_like(transformed, dtype=bool)
    cols, zero_cols = transformed.reshape(p.size, -1), zero.reshape(p.size, -1)  # a vector is one column
    margin = np.inf
    for lo, hi, part in _pieces(p, cols.T):  # columns lo:hi, a view, which takes the rule's result
        cols[:, lo:hi], zero_cols[:, lo:hi], margin = _debris(p, part.T, left, rho, margin)
    # the first minimum in row-major order, row then column (a flat argmin copies F order)
    idx = (int(np.argmin(transformed.min(axis=1))),) if transformed.ndim == 2 else ()
    idx += (int(np.argmin(transformed[idx])),)
    return MonotonicityReport(
        direction=direction,
        transformed=transformed,
        min_entry=float(transformed[idx]),
        passed=bool(margin >= -tol),
        witness=idx,
        tol=tol,
        zero=zero,
    )


def _debris(p: Poset, cols: np.ndarray, left: str, rho: float, margin: float) -> tuple:
    """The one rule for rounding debris, on columns of ``a @ right``: (those columns of
    ``left @ a @ right``, the mask of its exact zeros, the least of ``margin`` and their margins).
    The products err by at most M * eps times ``|left| @ a @ right`` for a nonnegative ``a``
    (axis-wise sums err less), and kernel rows that sum to 1 only within rho (pi stationary up to a
    relative defect) move the entries by about rho times it.  With bound = (M * eps + rho) times
    ``|left| @ a @ right``, an entry in [-(bound + tol), bound] is an exact zero and one below it a
    violation: the check passes when the least margin, entry + bound, is at least -tol.  The bound
    is relative, so a genuine small transition (a rate of 1e-13, say) is kept."""
    bound = _mobius_apply(p, cols, f"|{left}|")
    cols = _mobius_apply(p, cols, left)
    np.abs(bound, out=bound)  # the bound of a signed ``a`` is still a magnitude
    bound *= p.size * np.finfo(float).eps + rho
    zero = cols <= bound
    bound += cols  # each entry's margin over -bound, without a second mask
    return cols, zero, np.minimum(margin, bound.min())  # keeps a NaN, unlike min()


_CHECKED = ("time-reversed kernel", "initial density nu/pi")


def _hypotheses(c: ChainSpec, direction: str, tol: float) -> tuple[tuple, list]:
    """The dual's two Mobius checks, the time reversal's in ``direction`` then nu/pi's
    down, and a MonotonicityViolated naming the most negative entry of each that fails."""
    p = c.poset
    reports = (check_mobius_monotone(time_reversal(c), p, direction, tol), check_g_monotone(c, tol))
    return reports, [_violation(p, r, what) for r, what in zip(reports, _CHECKED) if not r.passed]


def _violation(p: Poset, report: MonotonicityReport, what: str) -> MonotonicityViolated:
    at = ", ".join(repr(p.labels[i]) for i in report.witness)
    entry = f"entry {report.min_entry:.3e} at ({at})"
    return MonotonicityViolated(f"{what} is not {report.direction}-Mobius monotone: {entry}", report=report)


def down_set_masses(p: Poset, pi: np.ndarray) -> np.ndarray:
    """Cumulative stationary mass of each down-set."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (p.size,):
        raise DimensionMismatch(f"pi has shape {pi.shape} on a poset of {p.size} states")
    return _mobius_apply(p, pi, right="zeta")


def build_link(p: Poset, pi: np.ndarray) -> LinkKernel:
    """Truncated-stationary link for a poset with a unique maximal state."""
    if not p.has_unique_max:
        raise NoUniqueMax("link construction requires a unique maximal state")
    pi = _positive_pi(pi, "link construction")
    return LinkKernel(poset=p, pi=pi, down_mass=down_set_masses(p, pi))


def build_dual(c: ChainSpec, *, tol: float = DEFAULT_TOL) -> DualChain:
    """Construct the strong stationary dual of a Mobius-monotone chain.

    Preconditions (checked): stationary distribution available, unique
    maximal state, the time-reversed kernel down-Mobius monotone at ``tol``,
    and the density nu/pi down-Mobius monotone at ``tol``.

    The dual kernel is the transformed time reversal ``mobius @ R @ zeta``
    rescaled by down-set mass ratios, and the dual initial distribution the
    transformed density rescaled by down-set masses.  The kernel is decided
    (:func:`_debris`, with R's row-sum defect rho = ``max |pi P / pi - 1|``)
    and written one slab of dual rows at a time, without R: columns lo:hi of
    ``R @ zeta`` are rows lo:hi of ``zeta.T @ (pi * P)`` over pi.  The entries
    it decides are exact zeros become exact zeros, so the kernel keeps the
    sparsity of the closed-form duals and each row moves by at most the sum
    of its dropped entries' bounds and ``tol``.  A failing slab raises the
    dense check's violation.  Rows are then checked (deviation beyond 1e-10
    aborts) and renormalized.
    """
    _check_tol(tol)
    pi = _positive_pi(c.pi, "dual construction")
    p = c.poset
    if not p.has_unique_max:
        raise NoUniqueMax("dual construction requires a unique maximal state")

    H, rho = down_set_masses(p, pi), float(np.max(np.abs(pi @ c.P / pi - 1.0)))
    P_star, margin = np.empty((p.size, p.size)), np.inf
    for lo, hi, rows in _down_sums(p, pi, c.P):
        cols, zero, margin = _debris(p, np.divide(rows, pi, out=rows).T, "mobius", rho, margin)
        del rows  # a view of its block, which goes before the next block is made
        if not margin >= -tol:  # the report and message of the dense check
            raise _violation(p, _hypotheses(c, "down", tol)[0][0], _CHECKED[0])
        dual = np.multiply(cols, H[:, None], out=cols).T  # as (T * H[:, None]).T / H[:, None]
        np.divide(dual, H[lo:hi, None], out=P_star[lo:hi])
        P_star[lo:hi][zero.T] = 0.0
    gmono = check_g_monotone(c, tol)
    if not gmono.passed:
        raise _violation(p, gmono, _CHECKED[1])
    rows, dev, _ = _defect(P_star)
    if dev > ROW_TOL:
        raise NotRowStochastic(f"dual rows sum to 1 only within {dev:.3e}")
    P_star /= rows[:, None]

    nu_star = H * gmono.transformed
    nu_star[gmono.zero] = 0.0
    total, dev, _ = _defect(nu_star)
    if dev > ROW_TOL:
        raise NotRowStochastic(f"dual initial distribution sums to {float(total)!r}")
    nu_star = nu_star / total

    return DualChain(poset=p, P_star=P_star, nu_star=nu_star, absorbing_index=p.max_index)


def intertwining_residuals(c: ChainSpec, d: DualChain, link: LinkKernel) -> tuple[float, float]:
    """(kernel, initial) intertwining residuals in the sup norm, in row slabs without the
    link matrix: rows lo:hi of L P as ``(zeta.T (pi P)) / H``, of P* L as ``((P* / H) zeta.T) * pi``.
    :func:`build_dual` reads the same down-set sums ``zeta.T (pi P)``, so a fault in them cancels in
    the kernel residual; :func:`verify_sharpness` is the check that does not read them."""
    if not c.poset.labels == d.poset.labels == link.poset.labels:
        raise DimensionMismatch("chain, dual and link disagree in size or state order")
    p, pi, H = link.poset, link.pi, link.down_mass
    kernel = 0.0
    for lo, hi, rows in _down_sums(p, pi, c.P):
        dual = _mobius_apply(p, d.P_star[lo:hi] / H, right="zeta.T")
        rows /= H[lo:hi, None]
        rows -= np.multiply(dual, pi, out=dual)
        kernel = np.maximum(kernel, np.abs(rows, out=rows).max())  # keeps a NaN, unlike max()
        del rows  # a view of its block, which goes before the next block is made
    initial = _mobius_apply(p, d.nu_star / H, right="zeta.T") * pi
    return float(kernel), float(np.max(np.abs(c.nu - initial)))


def verify_intertwining(c: ChainSpec, d: DualChain, link: LinkKernel) -> float:
    """Worst intertwining residual, NaN if either is; compare against your tolerance."""
    return float(np.max(intertwining_residuals(c, d, link)))


def verify_sharpness(c: ChainSpec, d: DualChain, horizon: int) -> float:
    """Max over n <= horizon of |separation(n) - P(T* > n)|, on the same states in the same order."""
    return _sharpness(c, d, horizon)[2]


def _sharpness(c: ChainSpec, d: DualChain, horizon: int) -> tuple[SeparationCurve, np.ndarray, float]:
    """The chain's separation curve, the dual's survival P(T* > n) and their largest gap, n <= horizon."""
    if c.poset.labels != d.poset.labels:
        raise DimensionMismatch("chain and dual disagree in size or state order")
    sep, survival = separation_curve(c, horizon), _survival(d, horizon)
    return sep, survival, float(np.max(np.abs(sep.values - survival)))


def restrict_to_reachable(d: DualChain) -> DualChain:
    """Dual chain restricted to states reachable from its initial distribution.

    A state is reachable when a path of positive transitions leads to it from
    a state of positive initial mass; only exact zeros count as absent.  The
    induced sub-poset keeps the consistent enumeration; its ``enumeration``
    field records the parent indices, and it has a ``shape`` when the kept
    states form a product of chains.  With every state reachable the result
    is ``d`` itself.
    """
    keep = np.nonzero(_depths(d.P_star > 0.0, d.nu_star > 0.0) >= 0)[0]
    if int(d.absorbing_index) not in keep:
        raise NoAbsorbingState("absorbing state unreachable from the initial distribution")
    if len(keep) == d.size:
        return d
    absorbing = int(np.searchsorted(keep, d.absorbing_index))  # keep ascends and holds it
    return DualChain(_restricted(d.poset, keep), d.P_star[np.ix_(keep, keep)], d.nu_star[keep], absorbing)

"""Finite Markov chain kernel: validation, stationarity, reversal, spectra."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    BadParameters,
    DimensionMismatch,
    MissingStationary,
    NotIrreducible,
    NotReversible,
    SingularSystem,
)
from .poset import Poset, _readonly

# The named tolerances, defined here once for every module.
DEFAULT_TOL = 1e-9  # Mobius-monotonicity slack; build_dual clamps [-tol, 0) to zero
ROW_TOL = 1e-10  # row sums of a built or loaded kernel
ROW_SUM_TOL = 1e-12  # row sums of a chain that validate() calls healthy
STATIONARY_TOL = 1e-10  # |pi P - pi| of a stationary distribution
DEBRIS_TOL = 1e-12  # stored kernel entries within this of zero are rounding debris
TRIANGULAR_TOL = 1e-12  # moves to a lower level that a level-block spectrum ignores


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """Transition matrix with initial distribution, aligned to a poset.

    ``pi`` may be absent until computed; use :func:`with_stationary` to fill
    it in.  Arrays are stored read-only; construction checks shapes and
    finiteness only, use :func:`validate` for a numerical report.
    """

    poset: Poset
    P: np.ndarray
    nu: np.ndarray
    pi: Optional[np.ndarray] = None

    def __post_init__(self):
        m = self.poset.size
        P = np.ascontiguousarray(self.P, dtype=float)
        nu = np.ascontiguousarray(self.nu, dtype=float)
        if P.shape != (m, m):
            raise DimensionMismatch(f"P has shape {P.shape}, expected ({m}, {m})")
        if nu.shape != (m,):
            raise DimensionMismatch(f"nu has shape {nu.shape}, expected ({m},)")
        object.__setattr__(self, "P", _readonly(P))
        object.__setattr__(self, "nu", _readonly(nu))
        if self.pi is not None:
            pi = np.ascontiguousarray(self.pi, dtype=float)
            if pi.shape != (m,):
                raise DimensionMismatch(f"pi has shape {pi.shape}, expected ({m},)")
            object.__setattr__(self, "pi", _readonly(pi))
        if not all(np.isfinite(a).all() for a in (self.P, self.nu, self.pi) if a is not None):
            raise BadParameters("P, nu and pi must be finite")

    @property
    def size(self) -> int:
        return self.poset.size


@dataclass(frozen=True)
class ValidationReport:
    """Numerical health report for a ChainSpec."""

    max_row_sum_dev: float
    min_entry: float
    nu_sum_dev: float
    irreducible: bool
    aperiodic: Optional[bool]
    stationary_dev: Optional[float]
    stationary_min: Optional[float]

    @property
    def ok(self) -> bool:
        good = (
            self.max_row_sum_dev <= ROW_SUM_TOL
            and self.min_entry >= 0.0
            and self.nu_sum_dev <= ROW_SUM_TOL
        )
        if self.stationary_dev is not None:
            good = good and self.stationary_dev <= STATIONARY_TOL and self.stationary_min > 0.0
        return good


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Eigenvalues grouped with multiplicities, sorted descending."""

    values: np.ndarray
    multiplicities: np.ndarray
    source: str

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(np.asarray(self.values, dtype=float)))
        object.__setattr__(
            self, "multiplicities", _readonly(np.asarray(self.multiplicities, dtype=np.int64))
        )

    @property
    def size(self) -> int:
        return int(self.multiplicities.sum())

    def expanded(self) -> np.ndarray:
        """Full eigenvalue multiset, sorted descending."""
        return np.repeat(self.values, self.multiplicities)


def _reachable_from(adj: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Mask of the states reachable along ``adj`` from the boolean mask ``start``."""
    seen = start.copy()
    frontier = np.nonzero(seen)[0]
    while frontier.size:
        nxt = adj[frontier].any(axis=0) & ~seen
        seen |= nxt
        frontier = np.nonzero(nxt)[0]
    return seen


def _strongly_connected(P: np.ndarray) -> bool:
    adj = P > 0.0
    first = np.arange(len(P)) == 0
    return bool(_reachable_from(adj, first).all() and _reachable_from(adj.T, first).all())


def _period(P: np.ndarray) -> int:
    # gcd of (depth[u] + 1 - depth[v]) over edges of an irreducible chain
    adj = P > 0.0
    depth = np.full(len(P), -1, dtype=np.int64)
    frontier, level = np.array([0]), 0
    while frontier.size:
        depth[frontier] = level
        frontier = np.nonzero(adj[frontier].any(axis=0) & (depth < 0))[0]
        level += 1
    u, v = np.nonzero(adj)
    return int(np.gcd.reduce(depth[u] + 1 - depth[v])) or 1


def validate(c: ChainSpec) -> ValidationReport:
    """Report row-sum residuals, negativity, irreducibility and aperiodicity."""
    row_dev = float(np.max(np.abs(c.P.sum(axis=1) - 1.0)))
    min_entry = float(c.P.min())
    nu_dev = float(abs(c.nu.sum() - 1.0))
    irreducible = _strongly_connected(c.P)
    aperiodic = (_period(c.P) == 1) if irreducible else None
    stat_dev = stat_min = None
    if c.pi is not None:
        stat_dev = float(np.max(np.abs(c.pi @ c.P - c.pi)))
        stat_min = float(c.pi.min())
    return ValidationReport(
        max_row_sum_dev=row_dev,
        min_entry=min_entry,
        nu_sum_dev=nu_dev,
        irreducible=irreducible,
        aperiodic=aperiodic,
        stationary_dev=stat_dev,
        stationary_min=stat_min,
    )


def stationary(c: ChainSpec) -> np.ndarray:
    """Stationary distribution by dense linear solve.

    Solves pi (P - I) = 0 with sum(pi) = 1; the residual is checked against
    1e-10 in the sup norm.
    """
    if not _strongly_connected(c.P):
        raise NotIrreducible("chain is not irreducible; stationary distribution not unique")
    m = c.size
    A = c.P.T - np.eye(m)
    A[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"stationary solve failed: {exc}") from exc
    residual = float(np.max(np.abs(pi @ c.P - pi)))
    if residual > STATIONARY_TOL or pi.min() <= 0.0:
        raise SingularSystem(
            f"stationary solve left residual {residual:.3e} or nonpositive mass"
        )
    return pi


def with_stationary(c: ChainSpec) -> ChainSpec:
    """Return ``c`` with ``pi`` computed if absent."""
    if c.pi is not None:
        return c
    return replace(c, pi=stationary(c))


def time_reversal(c: ChainSpec) -> np.ndarray:
    """Time-reversed kernel pi(y) P(y, x) / pi(x)."""
    if c.pi is None:
        raise MissingStationary("time reversal needs the stationary distribution")
    if c.pi.min() <= 0.0:
        raise MissingStationary("stationary distribution must be strictly positive")
    return c.P.T * c.pi[None, :] / c.pi[:, None]


def is_reversible(c: ChainSpec, tol: float = 1e-12) -> bool:
    """Detailed balance check: max |pi(x)P(x,y) - pi(y)P(y,x)| <= tol."""
    if c.pi is None:
        raise MissingStationary("reversibility check needs the stationary distribution")
    flux = c.pi[:, None] * c.P
    flux = flux - flux.T
    return bool(np.max(np.abs(flux, out=flux)) <= tol)


def _propagate(v: np.ndarray, P: np.ndarray, n: int):
    """Yield v, vP, ..., vP^n; the first is a copy of ``v``.

    A kernel with at most one nonzero in 32 entries (``32 * nnz <= M**2``)
    steps through its (rows, cols, vals) triple, taken once per call, as a
    weighted ``np.bincount`` in O(nnz); denser (or all-zero) kernels step by
    ``v @ P``.  The switch sits near the density where the two cost the same
    on 256 to 2048 states.  Both sum the same products, in another order.
    """
    v = v.copy()
    yield v
    m = len(v)
    if 0 < 32 * np.count_nonzero(P) <= m * m:
        rows, cols = np.nonzero(P)
        vals = P[rows, cols]
        for _ in range(n):
            v = np.bincount(cols, weights=vals * v[rows], minlength=m)
            yield v
        return
    for _ in range(n):
        v = v @ P
        yield v


def evolve(c: ChainSpec, n: int) -> np.ndarray:
    """Distribution nu P^n after n steps."""
    if n < 0:
        raise DimensionMismatch("step count must be nonnegative")
    for v in _propagate(c.nu, c.P, n):
        pass
    return v


def spectrum_numeric(
    c: ChainSpec, *, reversible_tol: float = 1e-9, group_tol: float = 1e-7
) -> SpectrumReport:
    """Eigenvalues of a reversible kernel via symmetric similarity.

    The kernel is conjugated by diag(sqrt(pi)) into a symmetric matrix and
    handed to a dense symmetric eigensolver; values are grouped into
    multiplicities at ``group_tol``.
    """
    if c.pi is None:
        raise MissingStationary("numeric spectrum needs the stationary distribution")
    if not is_reversible(c, reversible_tol):
        raise NotReversible("numeric spectrum is only implemented for reversible chains")
    root = np.sqrt(c.pi)
    sym = root[:, None] * c.P
    sym /= root[None, :]
    # eigvalsh reads the lower triangle only: average it with the upper one a
    # block of rows at a time, without a second M x M array
    for lo in range(0, c.size, 128):
        rows, cols = slice(lo, lo + 128), slice(0, lo + 128)
        sym[rows, cols] += sym[cols, rows].T
        sym[rows, cols] *= 0.5
    vals = np.linalg.eigvalsh(sym)[::-1]
    values, counts = group_with_tolerance(vals, group_tol)
    return SpectrumReport(values=values, multiplicities=counts, source="numeric")


def group_with_tolerance(sorted_desc: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Group a descending-sorted array into (representatives, multiplicities)."""
    values: list[float] = []
    counts: list[int] = []
    for v in sorted_desc:
        if values and abs(v - values[-1]) <= tol:
            counts[-1] += 1
        else:
            values.append(float(v))
            counts.append(1)
    return np.asarray(values), np.asarray(counts, dtype=np.int64)

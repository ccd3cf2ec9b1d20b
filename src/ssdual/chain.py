"""Finite Markov chains and their absorbing duals: validation, stationarity, reversal, spectra."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    BadParameters,
    DimensionMismatch,
    MissingStationary,
    NoAbsorbingState,
    NotIrreducible,
    NotReversible,
    NotRowStochastic,
    SingularSystem,
)
from .poset import Poset, _count, _digits, _readonly

# The named tolerances, defined here once for every module.
DEFAULT_TOL = 1e-9  # slack beyond the rounding bound; also the residual bound `ssdual verify` accepts
ROW_TOL = 1e-10  # row sums of a built or loaded kernel
ROW_SUM_TOL = 1e-12  # row sums of a chain that validate() calls healthy
STATIONARY_TOL = 1e-10  # |pi P - pi| of a stationary distribution
DEBRIS_TOL = 1e-12  # stored kernel entries within this of zero are rounding debris
REVERSIBLE_TOL = 1e-9  # detailed-balance flux, and a kept symmetry's move of S, in spectrum_numeric
LUMP_TOL = 4 * np.finfo(float).eps  # a kept symmetry's move of a kernel entry, in the exact laws


def _check_tol(value: float, name: str = "tol") -> None:
    """The one rule for a tolerance argument: a finite nonnegative number."""
    if not (np.isfinite(value) and value >= 0.0):
        raise BadParameters(f"{name} must be finite and nonnegative, got {value!r}")


def _store(obj, names: tuple[str, ...], error: type, message: str) -> None:
    """Freeze the fields ``names`` of ``obj``, a kernel then vectors, as read-only contiguous
    floats; a field that is None stays None.  Raises DimensionMismatch on a shape other than
    the poset's and ``error(message)`` on a non-finite entry, which np.min or np.max returns."""
    m, arrays = obj.poset.size, {}
    for name in names:
        if getattr(obj, name) is not None:
            a = arrays[name] = np.ascontiguousarray(getattr(obj, name), dtype=float)
            if a.shape != (m,) * (1 + (name == names[0])):
                raise DimensionMismatch(f"{name} has shape {a.shape} on a poset of {m} states")
    if not all(np.isfinite(a.min()) and np.isfinite(a.max()) for a in arrays.values()):
        raise error(message)
    for name, a in arrays.items():
        object.__setattr__(obj, name, _readonly(a))


def _defect(a: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(row sums, max |row sum - 1|, least entry) of a kernel; (sum, |sum - 1|, least) of a vector."""
    sums = a.sum(axis=-1)
    return sums, float(np.max(np.abs(sums - 1.0))), float(a.min())


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
        _store(self, ("P", "nu", "pi"), BadParameters, "P, nu and pi must be finite")

    @property
    def size(self) -> int:
        return self.poset.size


@dataclass(frozen=True, eq=False)
class DualChain:
    """Absorbing dual chain on the same poset as the primal."""

    poset: Poset
    P_star: np.ndarray
    nu_star: np.ndarray
    absorbing_index: int

    def __post_init__(self):
        _store(self, ("P_star", "nu_star"), NotRowStochastic, "dual P_star and nu_star must be finite")
        if not 0 <= self.absorbing_index < self.size:
            raise NoAbsorbingState(f"absorbing index {self.absorbing_index} out of range")
        for a, what in ((self.P_star, "kernel is not row stochastic"),
                        (self.nu_star, "initial distribution does not sum to one")):
            _, dev, least = _defect(a)
            if dev > ROW_TOL or least < 0.0:
                raise NotRowStochastic(f"dual {what} within {ROW_TOL:g}")
        unit = np.arange(self.size) == self.absorbing_index
        if np.max(np.abs(self.P_star[self.absorbing_index] - unit)) > ROW_TOL:
            raise NoAbsorbingState("absorbing row is not a unit vector")

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


def _depths(adj: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Breadth-first steps along ``adj`` from the boolean mask ``start``; -1 where unreached."""
    depth = np.full(len(start), -1, dtype=np.int64)
    frontier, level = np.nonzero(start)[0], 0
    while frontier.size:
        depth[frontier] = level
        frontier = np.nonzero(adj[frontier].any(axis=0) & (depth < 0))[0]
        level += 1
    return depth


def _reach(adj: np.ndarray) -> np.ndarray | None:
    """Steps along ``adj`` from state 0; None unless state 0 and every state reach each other."""
    first = np.arange(len(adj)) == 0
    depth = _depths(adj, first)
    return depth if (depth >= 0).all() and (_depths(adj.T, first) >= 0).all() else None


def validate(c: ChainSpec) -> ValidationReport:
    """Report row-sum residuals, negativity, irreducibility and aperiodicity."""
    _, row_dev, min_entry = _defect(c.P)
    nu_dev = _defect(c.nu)[1]
    adj = c.P > 0.0
    depth, aperiodic = _reach(adj), None
    if depth is not None:  # the period: the gcd of depth[u] + 1 - depth[v] over the edges
        u, v = np.divmod(np.flatnonzero(adj), len(adj))
        aperiodic = int(np.gcd.reduce(depth[u] + 1 - depth[v])) in (0, 1)  # 0: no edge
    stat_dev = stat_min = None
    if c.pi is not None:
        stat_dev = float(np.max(np.abs(c.pi @ c.P - c.pi)))
        stat_min = float(c.pi.min())
    return ValidationReport(
        max_row_sum_dev=row_dev,
        min_entry=min_entry,
        nu_sum_dev=nu_dev,
        irreducible=depth is not None,
        aperiodic=aperiodic,
        stationary_dev=stat_dev,
        stationary_min=stat_min,
    )


def stationary(c: ChainSpec) -> np.ndarray:
    """Stationary distribution by dense linear solve.

    Solves pi (P - I) = 0 with sum(pi) = 1; the residual is checked against
    1e-10 in the sup norm.
    """
    if _reach(c.P > 0.0) is None:
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


def _positive_pi(pi: Optional[np.ndarray], what: str) -> np.ndarray:
    """``pi`` as floats for a call that divides by it; MissingStationary unless all of it is > 0."""
    if pi is None or not np.min(pi) > 0.0:
        raise MissingStationary(f"{what} needs a strictly positive stationary distribution")
    return np.asarray(pi, dtype=float)


def time_reversal(c: ChainSpec) -> np.ndarray:
    """Time-reversed kernel pi(y) P(y, x) / pi(x)."""
    pi = _positive_pi(c.pi, "time reversal")
    R = c.P.T * pi[None, :]
    R /= pi[:, None]
    return R


def is_reversible(c: ChainSpec, tol: float = 1e-12) -> bool:
    """Detailed balance check: max |pi(x)P(x,y) - pi(y)P(y,x)| <= tol; pi may have zeros."""
    _check_tol(tol)
    if c.pi is None:
        raise MissingStationary("reversibility check needs the stationary distribution")
    return bool(_balance(c)[0] <= tol)


def _balance(c: ChainSpec, gens: list | tuple = (), root: np.ndarray | None = None) -> tuple:
    """The one detailed-balance scan: (the worst flux |pi(x)P(x,y) - pi(y)P(y,x)|, and each
    permutation g of ``gens``' largest |S(gx, gy) - S(x, y)| with S = diag(root) P diag(root)^-1)
    over the nonzeros (x, y) of P, 2^18 entries at a time, not of the whole kernel: a pair with
    no nonzero has no flux.  NaN propagates."""
    worst, moved, step = 0.0, np.zeros(len(gens)), max(1, (1 << 18) // c.size)
    for lo in range(0, c.size, step):
        rows, cols, vals = _nonzeros(c.P[lo : lo + step])
        rows += lo
        flux = c.pi[rows] * vals - c.pi[cols] * c.P[cols, rows]
        worst = np.maximum(worst, np.abs(flux).max(initial=0.0))
        if gens:
            s = root[rows] * vals / root[cols]
            moved = np.maximum(moved, [np.abs(root[g[rows]] * c.P[g[rows], g[cols]] / root[g[cols]] - s)
                                       .max(initial=0.0) for g, _ in gens])
    return worst, moved


def _propagate(v: np.ndarray, P: np.ndarray | tuple, n: int):
    """Yield v, vP, ..., vP^n; the first is a copy of ``v``, and each is the one stepped next
    (``absorption._step_blocks`` flushes its subnormals in place; this loop changes no value).

    ``P`` is a dense kernel or its nonzeros' (rows, cols, vals) triple.  One
    with at most one nonzero in 32 entries (``32 * nnz <= M**2``) steps by a
    weighted ``np.bincount`` over that triple in O(nnz); denser (or all-zero)
    ones step by ``v @ P``.  The switch sits near the density where the two
    cost the same on 256 to 2048 states.  Both sum the same products, in another order.
    """
    v = v.copy()
    yield v
    m = len(v)
    triple = P if isinstance(P, tuple) else _nonzeros(P, most=m * m // 32)
    if triple is not None and 0 < 32 * len(triple[2]) <= m * m:
        rows, cols, vals = triple
        for _ in range(n):
            v = np.bincount(cols, weights=vals * v[rows], minlength=m)
            yield v
        return
    if isinstance(P, tuple):  # a dense triple
        P = np.bincount(P[0] * m + P[1], P[2], m * m).reshape(m, m)
    for _ in range(n):
        v = v @ P
        yield v


def _nonzeros(P: np.ndarray, most: float = np.inf) -> tuple | None:
    """The (rows, cols, vals) triple of the entries ``np.flatnonzero(P)`` finds (NaN kept, -0.0
    dropped) in row-major order, or None once there are more than ``most``.  Each block of rows
    is scanned through a boolean mask of at most 1 MiB, 4 to 6 times faster than the floats."""
    m = P.shape[1]
    step, flats = max(1, (1 << 20) // max(m, 1)), []
    for lo in range(0, len(P), step):
        flats.append(np.flatnonzero(P[lo : lo + step] != 0) + lo * m)
        if sum(map(len, flats)) > most:
            return None
    flat = flats[0] if len(flats) == 1 else np.concatenate([np.zeros(0, dtype=np.intp), *flats])
    rows, cols = np.divmod(flat, m)
    return rows, cols, P.ravel()[flat]


def evolve(c: ChainSpec, n: int) -> np.ndarray:
    """Distribution nu P^n after n steps."""
    for v in _propagate(c.nu, c.P, _count(n, "step count")):
        pass
    return v


def _symmetries(poset: Poset) -> list[tuple[np.ndarray, int]]:
    """The candidate state permutations and their orders: the index reversal J and, on a
    product of chains of one length, the cyclic shift of coordinates."""
    m, shape = poset.size, poset.shape
    gens = [(np.arange(m)[::-1], 2)]
    if shape is not None and len(set(shape)) == 1:
        gens.append((np.roll(_digits(shape), 1, axis=1) @ np.cumprod((1, *shape[:-1])), len(shape)))
    return gens


def _group(gens: list, m: int) -> tuple[list, np.ndarray, np.ndarray]:
    """(orders, each element's exponents, act[h, x] = x moved by element h) of the group ``gens``."""
    orders = [k for _, k in gens]
    elements = np.array(list(np.ndindex(*orders)), dtype=np.int64).reshape(math.prod(orders), -1)
    act = np.arange(m)[None]
    for g, k in gens:
        powers = itertools.accumulate(range(k - 1), lambda p, _: g[p], initial=act)
        act = np.stack(list(powers), axis=1).reshape(-1, m)
    return orders, elements, act


def _lump(poset: Poset, K: np.ndarray, v: np.ndarray, fixed: tuple, triple: tuple | None = None):
    """(kernel, start, orbit of each state) of K started at v, lumped onto the orbits of the
    candidate symmetries g that fix v and ``fixed`` exactly and move no nonzero (x, y) of
    ``triple`` (K's if None) by more than LUMP_TOL, |K(gx, gy) - K(x, y)|: the kernel is the
    (orbit[x], orbit[y], K(x, y)) of each orbit's least state x (Kemeny and Snell 1960, 6.3)."""
    m = len(v)
    gens = [(g, k) for g, k in _symmetries(poset) if all(np.array_equal(u[g], u) for u in (v, *fixed))]
    if not gens:
        return (K if triple is None else triple), v, np.arange(m)
    rows, cols, vals = triple or _nonzeros(K)
    gens = [(g, k) for g, k in gens if np.abs(K[g[rows], g[cols]] - vals).max(initial=0.0) <= LUMP_TOL]
    least = _group(gens, m)[2].min(axis=0)
    first = least == np.arange(m)
    orbit, keep = (np.cumsum(first) - 1)[least], first[rows]
    return (orbit[rows[keep]], orbit[cols[keep]], vals[keep]), np.bincount(orbit, v), orbit


def spectrum_numeric(c: ChainSpec, *, group_tol: float = 1e-7) -> SpectrumReport:
    """Eigenvalues of a reversible kernel via symmetric similarity, split by its symmetries.

    S = diag(sqrt(pi)) P diag(sqrt(pi))^-1 keeps a state permutation g when
    |S(gx, gy) - S(x, y)| <= REVERSIBLE_TOL on every nonzero (x, y) of P, which by Weyl's
    inequality moves no eigenvalue by more than the largest row's nonzero count times the
    bound.  Two are tried: the index reversal J (Ising's spin flip, the cube's x -> k - x)
    and, on a product of chains of one length, the cyclic shift of coordinates.  Over the
    least states r_a of the orbits of the abelian group G they generate, with stabilisers
    St_a, each character chi of G gives the Hermitian block B[a, b] = sum over h in G of
    S(r_a, h r_b) conj chi(h) / sqrt(|St_a| |St_b|), on the orbits where chi is trivial on
    St_a (Diaconis 1988): real when chi is, and S itself when nothing is kept.  Values are
    grouped into multiplicities at ``group_tol``.
    """
    _check_tol(group_tol, "group_tol")
    root = np.sqrt(_positive_pi(c.pi, "numeric spectrum"))
    m, gens = c.size, _symmetries(c.poset)
    worst, moved = _balance(c, gens, root)
    if not worst <= REVERSIBLE_TOL:
        raise NotReversible("numeric spectrum is only implemented for reversible chains")
    gens = [gen for gen, d in zip(gens, moved) if d <= REVERSIBLE_TOL]
    orders, elements, act = _group(gens, m)
    whole = math.lcm(*orders)  # a character's phases are in units of 1/whole of a turn
    reps = np.flatnonzero(act.min(axis=0) == np.arange(m))
    stab = act[:, reps] == reps
    terms, norm = c.P[reps[:, None], act[:, None, reps]], np.sqrt(stab.sum(axis=0))
    terms *= (root[reps] / norm)[:, None]  # terms[h, a, b]: the summands of B[a, b] but conj chi(h)
    terms /= root[act[:, None, reps]] * norm
    spectra, n, flat = [], len(reps), terms.reshape(len(terms), -1)
    for chi in elements:
        twin = -chi % orders  # conj chi, whose block is conj(B_chi): the same spectrum
        phase = elements @ (chi * whole // orders) % whole
        inside = ~(stab & (phase != 0)[:, None]).any(axis=0)  # chi is trivial on St_a
        if tuple(twin) < tuple(chi) or not inside.any():
            continue
        real = (twin == chi).all()  # then chi is +-1, taken exactly
        unit = 1.0 - 2.0 * (phase != 0) if real else np.exp(-2j * np.pi * phase / whole)
        block = (unit.real @ flat).reshape(n, n) if len(terms) > 1 else terms[0]
        if not real:
            block = block + 1j * (unit.imag @ flat).reshape(n, n)
        block = block if inside.all() else block[np.ix_(inside, inside)]
        spectra += [_eigvalsh_averaged(block)] * (1 if real else 2)
    values, counts = group_with_tolerance(np.sort(np.concatenate(spectra))[::-1], group_tol)
    return SpectrumReport(values=values, multiplicities=counts, source="numeric")


def _eigvalsh_averaged(sym: np.ndarray) -> np.ndarray:
    """Eigenvalues of (sym + sym^H) / 2; ``sym`` is overwritten."""
    # eigvalsh reads the lower triangle only: average it with the upper one a
    # block of rows at a time, without a second M x M array
    for lo in range(0, len(sym), 128):
        rows, cols = slice(lo, lo + 128), slice(0, lo + 128)
        sym[rows, cols] += sym[cols, rows].T.conj()
        sym[rows, cols] *= 0.5
    return np.linalg.eigvalsh(sym)


def group_with_tolerance(sorted_desc: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Group a descending-sorted array into (representatives, multiplicities): each value joins
    the group whose first value it is within ``tol`` of, by one search for where each group ends."""
    values, n = np.asarray(sorted_desc, dtype=float), len(sorted_desc)
    end = np.maximum(np.arange(1, n + 1), (-values).searchsorted(tol - values, side="right"))
    while (on := (end < n) & (np.abs(values[np.minimum(end, n - 1)] - values) <= tol)).any():
        end += on
    while (off := np.abs(values[end - 1] - values) > tol).any():
        end -= off
    starts, ends = [0], end.tolist()
    while starts[-1] < n:  # a loop over the groups, not over the values
        starts.append(ends[starts[-1]])
    return values[starts[:-1]], np.diff(starts).astype(np.int64)

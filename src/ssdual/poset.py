"""Finite posets with order-consistent enumerations and exact Mobius calculus.

A :class:`Poset` always stores its states so that the internal index order is a
linear extension of the partial order: ``leq`` is upper triangular and every
matrix built on top of it (zeta, Mobius, monotonicity transforms) can be used
directly, without permutation bookkeeping.  The ``enumeration`` field remembers
where each internal state sat in the constructor input.
"""
from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import BadParameters, CycleDetected, NoUniqueMax, SizeOverflow

DEFAULT_MAX_STATES = 16384


def max_states() -> int:
    """Current state-count cap; override with the SSD_MAX_STATES env var."""
    raw = os.environ.get("SSD_MAX_STATES") or str(DEFAULT_MAX_STATES)
    if not raw.isdecimal() or int(raw) < 1:
        raise BadParameters(f"SSD_MAX_STATES must be a positive integer, got {raw!r}")
    return int(raw)


def _check_cap(size: int, cap: int | None, exc=SizeOverflow) -> None:
    limit = max_states() if cap is None else cap
    if size > limit:
        raise exc(f"state space of size {size} exceeds cap {limit}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Poset:
    """Finite partially ordered set under a consistent enumeration.

    Attributes
    ----------
    labels : tuple
        Opaque state labels, in internal (consistent) order.
    covers : tuple of (int, int)
        Transitive reduction of the order, as (lower, upper) internal indices.
    leq : ndarray of bool, shape (M, M)
        ``leq[i, j]`` iff state i is below-or-equal state j; upper triangular.
    enumeration : ndarray of int
        ``enumeration[t]`` is the constructor-input position of internal
        state ``t``; the identity permutation for generated posets.
    """

    labels: tuple
    covers: tuple[tuple[int, int], ...]
    leq: np.ndarray
    enumeration: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "covers", tuple((int(a), int(b)) for a, b in self.covers))
        object.__setattr__(self, "leq", _readonly(np.ascontiguousarray(self.leq, dtype=bool)))
        object.__setattr__(
            self, "enumeration", _readonly(np.ascontiguousarray(self.enumeration, dtype=np.int64))
        )

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def _label_index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label) -> int:
        """Internal index of a label."""
        return self._label_index[label]

    @cached_property
    def has_unique_min(self) -> bool:
        return self.size > 0 and bool(self.leq[0].all())

    @cached_property
    def has_unique_max(self) -> bool:
        return self.size > 0 and bool(self.leq[:, -1].all())

    @property
    def max_index(self) -> int:
        if not self.has_unique_max:
            raise NoUniqueMax("poset has no unique maximal state")
        return self.size - 1

    def down_set(self, i: int) -> np.ndarray:
        """Indices of states below-or-equal state ``i``."""
        return np.nonzero(self.leq[:, i])[0]

    def up_set(self, i: int) -> np.ndarray:
        """Indices of states above-or-equal state ``i``."""
        return np.nonzero(self.leq[i])[0]

    @cached_property
    def _mobius_pair(self) -> "MobiusPair":
        return _compute_mobius_pair(self)


@dataclass(frozen=True, eq=False)
class MobiusPair:
    """Zeta matrix of a poset together with its exact integer inverse."""

    zeta: np.ndarray
    mobius: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "zeta", _readonly(np.ascontiguousarray(self.zeta, dtype=np.int64)))
        object.__setattr__(self, "mobius", _readonly(np.ascontiguousarray(self.mobius, dtype=np.int64)))


def _find_cycle(succ: list[list[int]], remaining: set[int]) -> list[int]:
    # Walk successors inside the unresolved set until a node repeats.
    start = min(remaining)
    seen: dict[int, int] = {}
    path: list[int] = []
    v = start
    while v not in seen:
        seen[v] = len(path)
        path.append(v)
        v = next(w for w in succ[v] if w in remaining)
    return path[seen[v]:]


def _topological_order(size: int, covers: Sequence[tuple[int, int]], labels: Sequence) -> list[int]:
    succ: list[list[int]] = [[] for _ in range(size)]
    indeg = [0] * size
    for a, b in covers:
        succ[a].append(b)
        indeg[b] += 1
    heap = [i for i in range(size) if indeg[i] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) < size:
        remaining = set(range(size)) - set(order)
        cycle = _find_cycle(succ, remaining)
        names = " -> ".join(repr(labels[i]) for i in cycle + cycle[:1])
        raise CycleDetected(f"covers contain a directed cycle: {names}")
    return order


def _transitive_reduction(leq: np.ndarray) -> tuple[tuple[int, int], ...]:
    strict = leq & ~np.eye(leq.shape[0], dtype=bool)
    # z with i < z < j exists iff there is a 2-step path in the closed relation
    two_step = (strict.astype(np.float32) @ strict.astype(np.float32)) > 0.5
    cover = strict & ~two_step
    return tuple((int(a), int(b)) for a, b in np.argwhere(cover))


def build_poset(labels: Sequence, covers: Iterable[tuple[int, int]], *, cap: int | None = None) -> Poset:
    """Build a poset from labels and cover pairs given in any order.

    The result is re-enumerated by a deterministic topological sort (Kahn's
    algorithm, ties broken by smallest input index).  Duplicate cover pairs
    are tolerated; redundant (non-cover) pairs are absorbed into the closure.

    Raises
    ------
    BadParameters
        If there are no labels, a label is repeated or unhashable, or a cover
        pair is out of range or a loop.
    CycleDetected
        If the cover pairs contain a directed cycle.
    """
    size = len(labels)
    if size == 0:
        raise BadParameters("a poset needs at least one state")
    _check_cap(size, cap)
    seen: set = set()
    for lab in labels:
        try:
            if lab in seen:
                raise BadParameters(f"duplicate label {lab!r}")
            seen.add(lab)
        except TypeError as exc:
            raise BadParameters(f"label {lab!r} is not hashable") from exc
    dedup = sorted({(int(a), int(b)) for a, b in covers})
    for a, b in dedup:
        if not (0 <= a < size and 0 <= b < size):
            raise BadParameters(f"cover pair ({a}, {b}) out of range for {size} states")
        if a == b:
            raise BadParameters(f"self-cover at index {a}")
    order = _topological_order(size, dedup, labels)

    succ: list[list[int]] = [[] for _ in range(size)]
    for a, b in dedup:
        succ[a].append(b)
    reach = np.eye(size, dtype=bool)
    for v in reversed(order):
        row = reach[v]
        for w in succ[v]:
            row |= reach[w]

    order_arr = np.asarray(order)
    leq = reach[np.ix_(order_arr, order_arr)]
    return Poset(
        labels=tuple(labels[i] for i in order),
        covers=_transitive_reduction(leq),
        leq=leq,
        enumeration=order_arr,
    )


def chain_poset(length: int) -> Poset:
    """Linear order 0 < 1 < ... < length-1."""
    if length < 1:
        raise BadParameters("chain length must be positive")
    leq = np.triu(np.ones((length, length), dtype=bool))
    covers = tuple((i, i + 1) for i in range(length - 1))
    return Poset(labels=tuple(range(length)), covers=covers, leq=leq, enumeration=np.arange(length))


def mixed_radix_decode(index: int, shape: Sequence[int]) -> tuple[int, ...]:
    """Coordinates of a mixed-radix index, coordinate 0 least significant."""
    out = []
    for s in shape:
        out.append(index % s)
        index //= s
    return tuple(out)


def grid_poset(shape: Sequence[int], *, cap: int | None = None) -> Poset:
    """Coordinate-wise order on the product of chains {0..s_i - 1}.

    States are indexed in mixed radix with coordinate 0 least significant,
    which is automatically a consistent enumeration.
    """
    shape = tuple(int(s) for s in shape)
    if not shape or any(s < 1 for s in shape):
        raise BadParameters(f"invalid grid shape {shape}")
    size = math.prod(shape)
    _check_cap(size, cap)
    leq = np.ones((1, 1), dtype=bool)
    for s in shape:  # each new coordinate becomes the most significant
        leq = np.kron(np.triu(np.ones((s, s), dtype=bool)), leq)
    labels = tuple(mixed_radix_decode(i, shape) for i in range(size))
    covers = []
    radix = 1
    radices = []
    for s in shape:
        radices.append(radix)
        radix *= s
    for i, lab in enumerate(labels):
        for axis, s in enumerate(shape):
            if lab[axis] + 1 < s:
                covers.append((i, i + radices[axis]))
    return Poset(labels=labels, covers=tuple(sorted(covers)), leq=leq, enumeration=np.arange(size))


def product_poset(p: Poset, q: Poset, *, cap: int | None = None) -> Poset:
    """Coordinate-wise product; labels are (p_label, q_label) pairs.

    The product index is ``i + p.size * j`` (p varies fastest), which keeps
    the enumeration consistent.
    """
    size = p.size * q.size
    _check_cap(size, cap)
    leq = np.kron(q.leq, p.leq)
    labels = tuple((la, lb) for lb in q.labels for la in p.labels)
    covers = []
    for j in range(q.size):
        base = j * p.size
        covers.extend((base + a, base + b) for a, b in p.covers)
    for a, b in q.covers:
        covers.extend((a * p.size + i, b * p.size + i) for i in range(p.size))
    return Poset(labels=labels, covers=tuple(sorted(covers)), leq=leq, enumeration=np.arange(size))


def _exact_mobius(leq: np.ndarray) -> np.ndarray:
    # Row recursion in Python integers: exact at any magnitude.
    size = leq.shape[0]
    mobius = np.zeros((size, size), dtype=object)
    for i in range(size):
        mobius[i, i] = 1
        for j in np.flatnonzero(leq[i])[1:]:
            # mu(i, j) = -sum over i <= z < j with z <= j of mu(i, z);
            # under the consistent enumeration every such z lives in [i, j)
            mobius[i, j] = -mobius[i, i:j][leq[i:j, j]].sum()
    return mobius


def _compute_mobius_pair(p: Poset) -> MobiusPair:
    size = p.size
    # zeta is unit upper triangular with 0/1 entries, so LU never pivots and
    # the solve is integer arithmetic, exact while its sums stay below 2**53.
    zeta = p.leq.astype(float)
    mobius = np.linalg.inv(zeta)
    np.rint(mobius, out=mobius)
    # Every partial sum of zeta @ mobius is an integer of size at most
    # size * max|mu|; below 2**53 the float64 product is exact, so it equals
    # I exactly when mobius is zeta's inverse.  NaN and inf fail the test.
    bound = size * max(mobius.max(), -mobius.min())
    certified = False
    if bound < 2.0**53:
        residual = zeta @ mobius
        residual.flat[:: size + 1] -= 1.0
        certified = not residual.any()
        del residual
    del zeta
    if not certified:
        mobius = _exact_mobius(p.leq)
    # MobiusPair's int64 conversion raises OverflowError if mu does not fit
    return MobiusPair(zeta=p.leq, mobius=mobius)


def mobius_pair(p: Poset) -> MobiusPair:
    """Exact zeta matrix and Mobius function of the poset (cached).

    The Mobius function is the inverse of zeta, taken by LAPACK in float64
    and rounded.  It is returned only when ``size * max|mu| < 2**53`` and the
    float64 product ``zeta @ mu`` equals the identity, which that bound makes
    an exact certificate.  Otherwise mu comes from the row recursion in
    Python integers, exact at any magnitude.

    Raises
    ------
    OverflowError
        (an ``ArithmeticError``) if some value of mu does not fit in int64.
    """
    return p._mobius_pair


def mobius_inverse_check(f: np.ndarray, p: Poset) -> np.ndarray:
    """Round-trip f through up-set sums and Mobius inversion.

    Computes the cumulative sums F(e) = sum of f over the up-set of e and
    inverts them; the result equals f up to round-off.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (p.size,):
        raise BadParameters(f"vector of length {f.shape} does not match poset size {p.size}")
    pair = mobius_pair(p)
    up_sums = pair.zeta @ f
    return pair.mobius @ up_sums

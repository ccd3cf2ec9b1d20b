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
import numbers
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import BadParameters, CycleDetected, NoUniqueMax, SizeOverflow

DEFAULT_MAX_STATES = 16384


def max_states() -> int:
    """Current state-count cap: the SSD_MAX_STATES env var, or DEFAULT_MAX_STATES.

    Every poset constructor and model builder checks it, for library calls
    and the command line alike; there is no per-call override.
    """
    raw = os.environ.get("SSD_MAX_STATES") or str(DEFAULT_MAX_STATES)
    if not raw.isdecimal() or int(raw) < 1:
        raise BadParameters(f"SSD_MAX_STATES must be a positive integer, got {raw!r}")
    return int(raw)


def _check_cap(shape: Sequence[int], exc=SizeOverflow, repeat: int = 1) -> int:
    """The size of the product of ``shape`` repeated ``repeat`` times, refused above the cap.

    The factors are multiplied in one at a time, and only while the product
    is small: ``_check_cap((2,), repeat=10**6)`` refuses at once, without a
    list of a million factors or their product.  Past 10**30 the message
    gives a power of two below the size.
    """
    limit = max_states()
    stop = max(limit, 10**30)  # str() refuses integers of more than 4300 digits
    size = 1
    for _ in range(repeat):
        for s in shape:
            size *= s
            if size > stop:
                bits = repeat * sum(f.bit_length() - 1 for f in shape)
                raise exc(f"state space of size at least 2**{bits} exceeds cap {limit}")
    if size > limit:
        raise exc(f"state space of size {size} exceeds cap {limit}")
    return size


_SIZE = (-math.inf, math.inf)  # _count's bounds for a size, whose own range check follows


def _count(n, what: str, least: float = 0, end: float = np.iinfo(np.intp).max // 8 - 1) -> int:
    """``n`` as an int, the one integer rule: BadParameters for a bool, a non-integer, or unless
    ``least <= n < end``.  A size passes ``_SIZE``, so its own range check and the state cap
    come after; a step, horizon or sample count (or a seed, with its own ``end``) keeps the
    default ``end``, so that n + 2 eight-byte entries stay within what numpy can size."""
    if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and least <= n < end):
        kind = {0: "a nonnegative", 1: "a positive"}.get(least, "an")
        below = f" below {end}" if end < math.inf else ""
        raise BadParameters(f"{what} must be {kind} integer{below}")
    return int(n)


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
        Given as ``None`` with a ``shape``, it is built from the shape.
    enumeration : ndarray of int
        ``enumeration[t]`` is the constructor-input position of internal
        state ``t``; the identity permutation for generated posets.
    shape : tuple of int or None
        Chain lengths when the poset is the product of chains
        {0..s_0 - 1} x {0..s_1 - 1} x ... in mixed radix, coordinate 0 least
        significant; set by :func:`chain_poset`, :func:`grid_poset` and
        :func:`product_poset`, and ``None`` otherwise.  Zeta and Mobius
        products then run axis by axis instead of as dense matrices.
    """

    labels: tuple
    covers: tuple[tuple[int, int], ...]
    leq: np.ndarray | None
    enumeration: np.ndarray
    shape: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        covers = self.covers if isinstance(self.covers, np.ndarray) else list(self.covers)
        lower, upper = np.array(covers, dtype=np.int64).reshape(-1, 2).T.tolist()
        object.__setattr__(self, "covers", tuple(zip(lower, upper)))
        leq = self.leq
        if self.shape is not None:
            shape = tuple(int(s) for s in self.shape)
            if math.prod(shape) != len(self.labels):
                raise BadParameters(f"shape {shape} does not match {len(self.labels)} states")
            # the shape decides the Mobius function, so it decides the order
            order = _kron_axes(shape, lambda s: np.triu(np.ones((s, s), dtype=bool)))
            if leq is not None and not np.array_equal(leq, order):
                raise BadParameters(f"order is not the product of chains of shape {shape}")
            leq = order
            object.__setattr__(self, "shape", shape)
        elif leq is None:
            raise BadParameters("a poset without a shape needs its order leq")
        object.__setattr__(self, "leq", _readonly(np.ascontiguousarray(leq, dtype=bool)))
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

    @cached_property
    def _mobius_pair(self) -> "MobiusPair":
        return _compute_mobius_pair(self)


@dataclass(frozen=True, eq=False)
class MobiusPair:
    """Zeta, the poset's own read-only boolean ``leq``, with its exact int64 inverse."""

    zeta: np.ndarray
    mobius: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mobius", _readonly(np.ascontiguousarray(self.mobius, dtype=np.int64)))


def _find_cycle(covers: Sequence[tuple[int, int]], remaining: set[int]) -> list[int]:
    # Walk predecessors inside the unresolved set until a node repeats.  Every
    # unresolved node has one, so the walk closes a cycle; a walk along
    # successors can leave the cycles it started below.
    pred = {b: a for a, b in covers if a in remaining}
    seen: dict[int, int] = {}
    v = min(remaining)
    while v not in seen:
        seen[v] = len(seen)
        v = pred[v]
    cycle = list(seen)[seen[v]:]
    return cycle[:1] + cycle[:0:-1]  # forward, from v


def _topological_order(size: int, covers: Sequence, labels: Sequence) -> tuple[list, list]:
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
        cycle = _find_cycle(covers, remaining)
        names = " -> ".join(repr(labels[i]) for i in cycle + cycle[:1])
        raise CycleDetected(f"covers contain a directed cycle: {names}")
    return order, succ


def _transitive_reduction(leq: np.ndarray) -> np.ndarray:
    strict = leq & ~np.eye(leq.shape[0], dtype=bool)
    # z with i < z < j exists iff there is a 2-step path in the closed relation
    two_step = (strict.astype(np.float32) @ strict.astype(np.float32)) > 0.5
    return np.argwhere(strict & ~two_step)


def _grid_shape(size: int, codes: np.ndarray) -> tuple[int, ...] | None:
    """The shape whose mixed-radix grid has exactly these sorted cover codes a * size + b, else None."""
    # the up-neighbours b = code of state 0 are the radices 1 = r_0 < r_1 < ...
    bounds = [*codes[codes < size].tolist(), size]
    if len(bounds) < 2 or bounds[0] != 1 or any(hi % lo for lo, hi in zip(bounds, bounds[1:])):
        return None
    shape = tuple(hi // lo for lo, hi in zip(bounds, bounds[1:]))
    return shape if np.array_equal(_grid_codes(shape), codes) else None


def _grid_codes(shape: tuple[int, ...]) -> np.ndarray:
    """Sorted codes ``a * M + b`` of the covers (a, b) of the product of chains ``shape``."""
    radices = np.cumprod((1, *shape[:-1]))
    lower = np.nonzero(_digits(shape) + 1 < np.asarray(shape))  # (state, axis) below the top
    return np.sort(lower[0] * (math.prod(shape) + 1) + radices[lower[1]])


def _grid(shape: tuple[int, ...], labels: Iterable | None = None) -> Poset:
    """The product of chains ``shape``, labelled by its coordinates unless ``labels`` are given."""
    size = _check_cap(shape)
    if labels is None:
        labels = map(tuple, _digits(shape).tolist())
    return Poset(labels, np.stack(np.divmod(_grid_codes(shape), size), 1), None, np.arange(size), shape)


def build_poset(labels: Sequence, covers: Iterable[tuple[int, int]]) -> Poset:
    """Build a poset from labels and cover pairs given in any order.

    The result is re-enumerated by a deterministic topological sort (Kahn's
    algorithm, ties broken by smallest input index).  Duplicate cover pairs
    are tolerated; redundant (non-cover) pairs are absorbed into the closure.
    When the distinct pairs are exactly the covers of a product of chains in
    mixed radix (:func:`grid_poset`'s indexing, labels free), the result is
    the same poset with its ``shape`` set, built without the closure.

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
    _check_cap((size,))
    seen: set = set()
    for lab in labels:
        try:
            if lab in seen:
                raise BadParameters(f"duplicate label {lab!r}")
            seen.add(lab)
        except TypeError as exc:
            raise BadParameters(f"label {lab!r} is not hashable") from exc
    covers = covers if isinstance(covers, np.ndarray) else list(covers)
    try:
        pairs = np.array(covers, dtype=np.int64).reshape(len(covers), 2)
    except OverflowError:  # an index beyond int64 is out of range all the same
        pairs = np.array(covers, dtype=object).reshape(len(covers), 2)
    bad = (pairs < 0).any(axis=1) | (pairs >= size).any(axis=1) | (pairs[:, 0] == pairs[:, 1])
    if bad.any():  # the first faulty pair in sorted order
        a, b = min(map(tuple, pairs[bad].tolist()))
        if not (0 <= a < size and 0 <= b < size):
            raise BadParameters(f"cover pair ({a}, {b}) out of range for {size} states")
        raise BadParameters(f"self-cover at index {a}")
    codes = np.sort(pairs @ [size, 1])  # a * size + b >= 0: the pairs (a, b) sorted, then distinct
    codes = codes[np.diff(codes, prepend=-1) != 0]
    shape = _grid_shape(size, codes)
    if shape is not None:  # Kahn's order is the identity; a grid's covers are its reduction
        return _grid(shape, labels)
    order, succ = _topological_order(size, np.stack(np.divmod(codes, size), axis=1).tolist(), labels)
    reach = np.eye(size, dtype=bool)
    for v in reversed(order):
        row = reach[v]
        for w in succ[v]:
            row |= reach[w]

    return _induced(labels, reach, np.asarray(order))


def _induced(labels: Sequence, leq: np.ndarray, index: np.ndarray) -> Poset:
    """The order ``leq`` on the states ``index``, in that order, which must be consistent."""
    sub = leq[np.ix_(index, index)]
    return Poset([labels[i] for i in index.tolist()], _transitive_reduction(sub), sub, index)


def _restricted(p: Poset, keep: np.ndarray) -> Poset:
    """The order ``p`` induces on the ascending states ``keep``, shaped if they form a product of chains."""
    sub = _induced(p.labels, p.leq, keep)
    shape = _grid_shape(sub.size, np.array(sub.covers, dtype=np.int64).reshape(-1, 2) @ [sub.size, 1])
    return sub if shape is None else Poset(sub.labels, sub.covers, None, keep, shape)


def chain_poset(length: int) -> Poset:
    """Linear order 0 < 1 < ... < length-1."""
    if _count(length, "chain length", *_SIZE) < 1:
        raise BadParameters("chain length must be positive")
    return _grid((length,), range(length))


def _digits(shape: Sequence[int]) -> np.ndarray:
    """``digits[state, axis]``: the mixed-radix coordinates, coordinate 0 least significant."""
    radices = np.cumprod((1, *shape[:-1]))
    return np.arange(math.prod(shape))[:, None] // radices % np.asarray(shape)


def _levels(p: Poset) -> np.ndarray:
    """Length of the longest chain below each state (on a product of chains, the digit sum)."""
    if p.shape is not None:
        return _digits(p.shape).sum(axis=1)
    level = [0] * p.size
    for lower, upper in sorted(p.covers):
        level[upper] = max(level[upper], level[lower] + 1)
    return np.asarray(level, dtype=np.int64)


def grid_poset(shape: Sequence[int]) -> Poset:
    """Coordinate-wise order on the product of chains {0..s_i - 1}.

    States are indexed in mixed radix with coordinate 0 least significant,
    which is automatically a consistent enumeration.
    """
    shape = tuple(_count(s, "grid side", *_SIZE) for s in shape)
    if not shape or any(s < 1 for s in shape):
        raise BadParameters(f"invalid grid shape {shape}")
    return _grid(shape)


def _kron_axes(shape: Sequence[int], axis_matrix) -> np.ndarray:
    """Kronecker product of ``axis_matrix(s)`` over the axes, coordinate 0 fastest."""
    out = axis_matrix(shape[0])
    for s in shape[1:]:  # each new coordinate becomes the most significant
        out = np.kron(axis_matrix(s), out)
    return out


def product_poset(p: Poset, q: Poset) -> Poset:
    """Coordinate-wise product; labels are (p_label, q_label) pairs.

    The product index is ``i + p.size * j`` (p varies fastest), which keeps
    the enumeration consistent.  The product of two products of chains is
    one, with the axes of ``p`` first, built from the joined shape.
    """
    labels = ((la, lb) for lb in q.labels for la in p.labels)
    if p.shape is not None and q.shape is not None:
        return _grid(p.shape + q.shape, labels)
    size = _check_cap((p.size, q.size))
    covers = [(j * p.size + a, j * p.size + b) for j in range(q.size) for a, b in p.covers]
    covers += [(a * p.size + i, b * p.size + i) for a, b in q.covers for i in range(p.size)]
    return Poset(labels, sorted(covers), np.kron(q.leq, p.leq), np.arange(size))


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


def _chain_mobius(length: int) -> np.ndarray:
    # mu of the chain 0 < 1 < ... : 1 on the diagonal, -1 just above it
    return np.eye(length, dtype=np.int64) - np.eye(length, k=1, dtype=np.int64)


def _compute_mobius_pair(p: Poset) -> MobiusPair:
    if p.shape is not None:
        # product rule: mu of a product of chains is the product of their mus
        return MobiusPair(zeta=p.leq, mobius=_kron_axes(p.shape, _chain_mobius))
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
    """Exact zeta matrix and Mobius function of the poset.

    On a product of chains (a poset with a ``shape``) mu is the Kronecker
    product of the chains' Mobius matrices, exact by the product rule, with
    entries in {-1, 0, 1}.  On any other poset mu is the inverse of zeta,
    taken by LAPACK in float64 and rounded.  It is returned only when
    ``size * max|mu| < 2**53`` and the float64 product ``zeta @ mu`` equals
    the identity, which that bound makes an exact certificate.  Otherwise mu
    comes from the row recursion in Python integers, exact at any magnitude.

    The pair is kept on the poset only where :func:`_mobius_apply` multiplies
    by mu; a product of chains that it sweeps axis by axis gets a fresh pair
    on every call, so no int64 M x M array lives as long as the poset.

    Raises
    ------
    OverflowError
        (an ``ArithmeticError``) if some value of mu does not fit in int64.
    """
    return _compute_mobius_pair(p) if _sweeps(p) else p._mobius_pair


# Products of chains up to this size multiply by dense matrices.  On 2 vCPUs
# with OpenBLAS, mobius @ a @ zeta on {0,1}^7 takes 0.18 ms as two BLAS
# products and 0.26 ms as axis sweeps; on {0,1}^8, 1.3 ms against 0.9 ms.
# Grid chain files load shaped, so loaded and in-memory duals agree without
# this fork; it stays because the benchmark's self-test and predictions expect
# small products of chains to call mobius_pair.
_DENSE_MAX_STATES = 128
_SLAB_ENTRIES = 1 << 15  # entries per slab of a swept transform: _slab's cache-sized width

# Each factor acts on one chain axis, from the left, as the in-place
# recurrence b[k] += sign * b[k + offset].  A cumulative sum (zeta) reads the
# entries it has already updated and a difference (Mobius) those it has not,
# which fixes the direction of the sweep.  Acting from the right is acting
# by the transpose, the same recurrence with the offset negated.
_AXIS_STEPS = {  # name: (sign, offset, cumulative)
    "zeta": (1, 1, True),
    "zeta.T": (1, -1, True),
    "mobius": (-1, 1, False),
    "mobius.T": (-1, -1, False),
    "|mobius|": (1, 1, False),
    "|mobius.T|": (1, -1, False),
}


def _dense_factor(p: Poset, name: str) -> np.ndarray:
    base = name.strip("|")
    factor = p.leq if base.startswith("zeta") else mobius_pair(p).mobius
    factor = factor if base == name else np.abs(factor)
    return factor.T if base.endswith(".T") else factor


def _axis_sweep(view: np.ndarray, sign: int, offset: int, cumulative: bool) -> None:
    # view is (outer, length, inner): the chain axis between the axes before
    # and after it, each collapsed to one
    length, inner = view.shape[1:]
    ks = range(length - 1) if offset > 0 else range(1, length)
    if (offset > 0) == cumulative:
        ks = reversed(ks)
    op = np.add if sign > 0 else np.subtract
    # numpy loops over the innermost axis of a slice; rows of 2 or 4 entries
    # run faster as one strided pass per inner position, rows of 8 do not
    lanes = [slice(None)] if inner >= 8 else range(inner)
    for k in ks:
        for lane in lanes:
            target = view[:, k, lane]
            op(target, view[:, k + offset, lane], out=target)


def _sweeps(p: Poset) -> bool:
    """Whether :func:`_mobius_apply` runs axis sweeps on ``p`` rather than dense products."""
    return p.shape is not None and p.size > _DENSE_MAX_STATES


def _slab(p: Poset) -> int:
    """Columns or rows per slab of a transform on ``p``: all M where it takes dense products; where it
    sweeps, _SLAB_ENTRIES entries, which stay in the cache, or half the longest axis's entries up to
    M / 32, so that its many numpy calls each cover as many."""
    if not _sweeps(p):
        return p.size
    return max(-(-_SLAB_ENTRIES // p.size), min(-(-max(p.shape) // 2), -(-p.size // 32)))


def _mobius_apply(p: Poset, a: np.ndarray, left: str | None = None, right: str | None = None) -> np.ndarray:
    """``left @ a @ right`` as a new float array (``a`` unchanged), factors named in ``_AXIS_STEPS``.

    ``a`` is an M x M matrix, a vector with one factor on either side, or a batch: k x M
    rows with a right factor, M x k columns with a left one.  A product of chains of more
    than ``_DENSE_MAX_STATES`` states takes the factors axis by axis (:func:`_axis_apply`);
    other posets, and small products of chains, multiply by the zeta and Mobius matrices,
    which is faster there."""
    a = np.asarray(a, dtype=float)
    if _sweeps(p):
        return _axis_apply(p.shape, a, left, right)
    if left is not None:
        a = _dense_factor(p, left) @ a
    return a if right is None else a @ _dense_factor(p, right)


def _axis_apply(
    shape: tuple[int, ...], a: np.ndarray, left: str | None = None, right: str | None = None
) -> np.ndarray:
    """``left @ a @ right`` on the product of chains ``shape``, in O(a.size * sum(shape)).

    One factor after the other runs in place one chain axis at a time, with the batch innermost,
    on its own copy: C-ordered for a left factor, F-ordered for a right (``a`` as in
    :func:`_mobius_apply`, and left as it is)."""
    for name, order, flip in ((left, "C", 1), (right, "F", -1)):
        if name is None:
            continue
        a = np.array(a, dtype=float, order=order)
        # the C-ordered face led by the chain axes, coordinate 0 (the fastest) last, then the batch
        face = (a if order == "C" else a.T).reshape(*shape[::-1], -1)
        sign, offset, cumulative = _AXIS_STEPS[name]
        for axis in range(len(shape)):
            view = face.reshape(math.prod(face.shape[:axis]), face.shape[axis], -1)
            _axis_sweep(view, sign, flip * offset, cumulative)
    return a


def _down_sums(p: Poset, pi: np.ndarray, P: np.ndarray):
    """Yield (lo, hi, fresh rows lo:hi of ``zeta.T @ (pi[:, None] * P)``) over all rows, each block in
    :func:`_pieces`.  On a product of chains that :func:`_sweeps`, a block, its low axes (at most
    max(128, M // 16) rows) at a run of positions of the next, long axis (enough for one slab),
    sums the rows below it: a running sum along the long axis carried from block to block and an
    ``einsum`` over the slower axes, then a ``zeta.T`` sweep along the run and the low axes,
    O(M^2 * sum(shape)) in all; other posets take dense products of 128 to M // 8 rows."""
    size, shape = p.size, p.shape if _sweeps(p) else ()
    if not shape:
        for lo in range(0, size, step := max(128, size // 8)):
            hi = min(lo + step, size)
            yield from _pieces(p, (p.leq[:hi, lo:hi].T * pi[:hi]) @ P[:hi], lo)
        return
    low = int(np.searchsorted(np.cumprod(shape), max(128, size // 16), side="right"))
    block, high = math.prod(shape[:low]), shape[low:][::-1]  # C order: most significant first
    n, run, lo = len(high), -(-_slab(p) // block), 0  # a run of positions fills at least one slab
    weights, rows = pi.reshape(*high, block), P.reshape(*high, block, size)
    for c in np.ndindex(*high[:-1]):
        for start in range(0, high[-1], run):  # high[-1] is the long axis
            box = (*(slice(x + 1) for x in c), slice(start, start + run))
            part = np.einsum(weights[box], [*range(n + 1)], rows[box], [*range(n + 2)], [n - 1, n, n + 1])
            if start:
                part[0] += acc
            acc = part[0] if len(part) == 1 else part.sum(axis=0)  # the run's total, before its sweep
            sweep = (*shape[:low], len(part))
            yield from _pieces(p, _axis_apply(sweep, part.reshape(-1, size), left="zeta.T"), lo)
            lo += len(part) * block


def _pieces(p: Poset, rows: np.ndarray, lo: int = 0):
    """Yield (lo + start, lo + stop, rows[start:stop]) in slabs of :func:`_slab` rows.  Once the last
    is read past, only the reader's pieces hold ``rows``: a reader that drops each holds one block."""
    step = _slab(p)
    for start in range(0, len(rows), step):
        yield lo + start, lo + min(start + step, len(rows)), rows[start:start + step]


def mobius_inverse_check(f: np.ndarray, p: Poset) -> np.ndarray:
    """Round-trip f through up-set sums and Mobius inversion.

    Computes the cumulative sums F(e) = sum of f over the up-set of e and
    inverts them; the result equals f up to round-off.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (p.size,):
        raise BadParameters(f"vector of length {f.shape} does not match poset size {p.size}")
    up_sums = _mobius_apply(p, f, left="zeta")
    return _mobius_apply(p, up_sums, left="mobius")

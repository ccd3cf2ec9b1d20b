"""Example chains: Ising Gibbs sampler, weighted lattice walk, k-ary cube.

Each generator returns a ChainSpec whose poset is the coordinate-wise order
on the state space, enumerated in mixed radix (coordinate 0 least
significant), which is automatically consistent.  The *_dual functions build
the known closed-form absorbing duals directly, without going through the
generic engine; tests cross-check the two.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import ROW_SUM_TOL, ChainSpec, DualChain, _depths
from .duality import down_set_masses
from .errors import BadParameters, TooLarge
from .poset import _SIZE, Poset, _check_cap, _count, _digits, grid_poset


@dataclass(frozen=True)
class IsingSpec:
    """Spin system on a simple undirected graph at inverse temperature beta."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    beta: float

    def __post_init__(self):
        if _count(self.n_vertices, "vertex count", *_SIZE) < 1:
            raise BadParameters("graph needs at least one vertex")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise BadParameters("beta must be finite and nonnegative")
        seen = set()
        for u, v in self.edges:
            u, v = _count(u, "edge endpoint", *_SIZE), _count(v, "edge endpoint", *_SIZE)
            if u == v:
                raise BadParameters(f"self-loop at vertex {u}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise BadParameters(f"edge ({u}, {v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise BadParameters(f"duplicate edge {key}")
            seen.add(key)
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))  # hashable


@dataclass(frozen=True)
class LatticeSpec:
    """Nearest-neighbour walk on {0..N}^2 with direction-dependent weights."""

    N: int
    lambda1: float
    lambda2: float
    mu1: float
    mu2: float

    def __post_init__(self):
        if _count(self.N, "lattice side N", *_SIZE) < 1:
            raise BadParameters("lattice side N must be >= 1")
        rates = (self.lambda1, self.lambda2, self.mu1, self.mu2)
        if not all(math.isfinite(r) and r > 0.0 for r in rates):
            raise BadParameters("move probabilities must be finite and positive")
        if sum(rates) > 1.0 + ROW_SUM_TOL:
            raise BadParameters("move probabilities must sum to at most 1")

    @property
    def rho1(self) -> float:
        return self.lambda1 / self.mu1

    @property
    def rho2(self) -> float:
        return self.lambda2 / self.mu2


@dataclass(frozen=True)
class CubeSpec:
    """Single uniform coordinate resampling on {0..k}^n, lazy with rate 1/2."""

    n: int
    k: int

    def __post_init__(self):
        if min(_count(self.n, "cube n", *_SIZE), _count(self.k, "cube k", *_SIZE)) < 1:
            raise BadParameters("cube needs n >= 1 and k >= 1")


def _model_poset(side: int, axes: int) -> Poset:
    """The product of ``axes`` chains of ``side`` states, the cap checked before it exists."""
    _check_cap((side,), TooLarge, axes)
    return grid_poset([side] * axes)


def _start_at_bottom(size: int) -> np.ndarray:
    nu = np.zeros(size)
    nu[0] = 1.0
    return nu


def _bottom_to_top(poset: Poset, P_star: np.ndarray) -> DualChain:
    """A closed-form dual on ``poset``: ``P_star`` started at the bottom and absorbed at the top."""
    return DualChain(poset, P_star, _start_at_bottom(poset.size), poset.size - 1)


def _spin_poset(n: int) -> Poset:
    poset = _model_poset(2, n)
    # relabelled in place, not rebuilt: labels are opaque to the order, and this
    # fresh grid's labels (and its cached label index) have not been read yet
    object.__setattr__(poset, "labels", tuple(map(tuple, _spins(n).tolist())))
    return poset


def _spins(n: int) -> np.ndarray:
    """spins[state, vertex] in {-1, +1}: bit i of the state is vertex i up."""
    return 2 * _digits((2,) * n) - 1


def _adjacency(spec: IsingSpec) -> np.ndarray:
    n = spec.n_vertices
    adjacency = np.zeros((n, n), dtype=np.int64)
    for u, v in spec.edges:
        adjacency[u, v] = adjacency[v, u] = 1
    return adjacency


def _flip_probabilities(spec: IsingSpec) -> tuple[np.ndarray, np.ndarray]:
    """(up, down)[state, vertex]: the refreshed spin lands on +1, on -1.

    With d = k_plus - k_minus the local field at the vertex, up is
    1/(1 + exp(-2 beta d)) and down is 1/(1 + exp(2 beta d)).  Each is its own
    logistic, so the smaller keeps its relative accuracy when 1 - up would
    cancel.
    """
    field = 2.0 * spec.beta * (_spins(spec.n_vertices) @ _adjacency(spec))
    return 1.0 / (1.0 + np.exp(-field)), 1.0 / (1.0 + np.exp(field))


def _ising_stationary(spec: IsingSpec) -> np.ndarray:
    """Gibbs weights exp(beta * sum over edges of s_u s_v), normalized."""
    spins = _spins(spec.n_vertices)
    us = [u for u, _ in spec.edges]
    vs = [v for _, v in spec.edges]
    energy = (spins[:, us] * spins[:, vs]).sum(axis=1)
    weights = np.exp(spec.beta * energy)
    return weights / weights.sum()


def _ising_chain(spec: IsingSpec) -> ChainSpec:
    n = spec.n_vertices
    poset = _spin_poset(n)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, or a logistic of 0 or 1
        pi = _ising_stationary(spec)
        if not pi.min() > 0.0:  # a weight overflowed (pi has NaN) or pi underflowed to 0
            raise BadParameters(f"Gibbs weights overflow or underflow to 0 at beta = {spec.beta!r}")
        up, down = _flip_probabilities(spec)
    states = np.arange(poset.size)
    bits = 1 << np.arange(n)
    is_up = (states[:, None] & bits) != 0
    P = np.zeros((poset.size, poset.size))
    # refreshing vertex i to the spin it has holds, to the other flips bit i
    P[states, states] = (np.where(is_up, up, down) / n).sum(axis=1)
    P[states[:, None], states[:, None] ^ bits] = np.where(is_up, down, up) / n
    nu = _start_at_bottom(poset.size)  # all spins down
    return ChainSpec(poset=poset, P=P, nu=nu, pi=pi)


def _circle_spec(N: int, beta: float) -> IsingSpec:
    if _count(N, "circle size N", *_SIZE) < 3:
        raise BadParameters("a circle needs at least 3 vertices")
    _check_cap((2,), TooLarge, N)  # before the N edges
    edges = tuple((i, (i + 1) % N) for i in range(N))
    return IsingSpec(n_vertices=N, edges=edges, beta=beta)


def ising_circle(N: int, beta: float) -> ChainSpec:
    """Gibbs sampler for the Ising model on a circle of N >= 3 vertices."""
    return _ising_chain(_circle_spec(N, beta))


def ising_gibbs_graph(n_vertices: int, edges: Sequence[tuple[int, int]], beta: float) -> ChainSpec:
    """Gibbs sampler for the Ising model on an arbitrary simple graph."""
    _check_cap((2,), TooLarge, _count(n_vertices, "vertex count", *_SIZE))  # before the edges
    spec = IsingSpec(n_vertices=n_vertices, edges=tuple(map(tuple, edges)), beta=beta)
    chain = _ising_chain(spec)  # checks the cap before the n x n adjacency below
    if not (_depths(_adjacency(spec) > 0, np.arange(n_vertices) == 0) >= 0).all():
        warnings.warn("Ising graph is disconnected", stacklevel=2)
    return chain


def ising_circle_dual(N: int, beta: float) -> DualChain:
    """Closed-form sharp dual of the circle Gibbs sampler.

    With H the down-set mass and f(x, i) the probability that vertex i is
    refreshed to +1 from configuration x, the dual moves from x by:

    * hold, with probability |x|/N (|x| = number of up spins);
    * step up: for each down vertex i, to x + {i} with probability
      H(x + {i})/H(x) * (1 - f(x, i))/N, with 1 - f(x, i) the down-flip
      probability;
    * swap: for each down vertex i and each up neighbour j of i, to
      u = x - {j} + {i} with probability H(u)/H(x) * (f(x, i) - f(x - {j}, i))/N.

    The all-up state absorbs.  These rows are H(y)/H(x) times the Mobius
    sum of the heat-bath kernel; its term that removes both neighbours of i
    cancels because f_-2 - 2 f_0 + f_2 = 0 (f_d + f_-d = 1, f_0 = 1/2) for
    the local field d.  That cancellation needs every vertex to have degree
    2, so the closed form holds on the circle only.
    """
    spec = _circle_spec(N, beta)
    poset = _spin_poset(N)
    size = poset.size
    up, down = _flip_probabilities(spec)
    H = down_set_masses(poset, _ising_stationary(spec))
    states = np.arange(size)
    P = np.zeros((size, size))
    spins = _spins(N)
    P[states, states] = (spins > 0).sum(axis=1) / N
    s, i = np.nonzero(spins < 0)  # vertex i is down in state s
    t = s | (1 << i)
    P[s, t] = (H[t] / H[s]) * down[s, i] / N
    for j in ((i - 1) % N, (i + 1) % N):
        swap = (s >> j & 1) == 1  # neighbour j is up
        x, down_i, up_j = s[swap], i[swap], j[swap]
        u = t[swap] & ~(1 << up_j)
        P[x, u] = (H[u] / H[x]) * (up[x, down_i] - up[x & ~(1 << up_j), down_i]) / N
    return _bottom_to_top(poset, P)


def _product_walk(poset: Poset, moves: Sequence[np.ndarray], total: float = 1.0) -> np.ndarray:
    """Kernel that moves one coordinate of a product of chains at a time.

    ``moves[a][x, j]`` (zero diagonal) is the weight, out of ``total``, with
    which coordinate a goes from x to j, whatever the other coordinates are;
    the rest of each row holds.  The kernel is the Kronecker sum of the
    ``moves`` plus the holding diagonal, divided by ``total``: integer
    weights out of an integer total give exact holds.  A hold that rounding
    takes below zero is zero; moves that exceed ``total`` still leave a row
    that sums to more than one.
    """
    digits = _digits(poset.shape)
    states = np.arange(poset.size)[:, None]
    P = np.zeros((poset.size, poset.size))
    hold = np.full(poset.size, float(total))
    for a, A in enumerate(moves):
        radix = math.prod(poset.shape[:a])
        # row x of A scattered onto the states that differ from x in coordinate a only
        targets = states + (np.arange(len(A)) - digits[:, a, None]) * radix
        P[states, targets] = (A / total)[digits[:, a]]
        hold -= A.sum(axis=1)[digits[:, a]]
    P.flat[:: poset.size + 1] = np.maximum(hold, 0.0) / total
    return P


def _steps(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Moves of a birth-death chain: ``up[x]`` from x to x + 1, ``down[x]`` from x + 1 to x."""
    return np.diag(up, 1) + np.diag(down, -1)


def lattice_walk(spec: LatticeSpec) -> ChainSpec:
    """Weighted nearest-neighbour walk on the square lattice {0..N}^2.

    Moves right/left with probability lambda1/mu1, up/down with lambda2/mu2
    where feasible; the remaining mass stays put.  The stationary law is
    proportional to rho1^x rho2^y, normalized by direct summation so
    rho = 1 needs no special casing.  Raises BadParameters when the rates are
    so skewed that some weight underflows to 0 relative to the largest.
    """
    N = spec.N
    poset = _model_poset(N + 1, 2)
    rates = ((spec.lambda1, spec.mu1), (spec.lambda2, spec.mu2))
    P = _product_walk(poset, [_steps(np.full(N, lam), np.full(N, mu)) for lam, mu in rates])
    # rho^x on each axis, over rho^N where rho > 1 so that no power overflows
    w1, w2 = (
        (mu / lam) ** np.arange(N, -1, -1) if lam > mu else (lam / mu) ** np.arange(N + 1)
        for lam, mu in rates
    )
    weights = np.outer(w2, w1).ravel()
    pi = weights / weights.sum()
    if not pi.all():
        raise BadParameters(
            f"stationary weights underflow to 0: rho1 = {spec.rho1:.6g}, rho2 = {spec.rho2:.6g}"
        )
    return ChainSpec(poset=poset, P=P, nu=_start_at_bottom(poset.size), pi=pi)


def lattice_walk_dual(spec: LatticeSpec) -> DualChain:
    """Closed-form sharp dual of the lattice walk, absorbing at (N, N).

    Requires lambda1 != mu1 and lambda2 != mu2.  The link of the product is
    the product of the per-axis links, so the dual is the Kronecker sum of
    the birth-death duals of the two axes.  With r = lambda/mu on an axis, its
    dual moves up from x with probability mu (1 - r^(x+2)) / (1 - r^(x+1)),
    down from x + 1 with lambda (1 - r^(x+1)) / (1 - r^(x+2)), and never down
    from the upper border N.  Both ratios are taken between the sums
    S_x = 1 + r + ... + r^x = (1 - r^(x+1)) / (1 - r), whose positive terms
    do not cancel as 1 - r^x does when r is near 1.  For r > 1, S_x = r^x Q_x
    with Q_x = 1 + ... + r^-x, so no power overflows.
    """
    if spec.lambda1 == spec.mu1 or spec.lambda2 == spec.mu2:
        raise BadParameters("closed-form dual requires lambda_i != mu_i")
    N = spec.N
    poset = _model_poset(N + 1, 2)
    moves = []
    for lam, mu in ((spec.lambda1, spec.mu1), (spec.lambda2, spec.mu2)):
        lo, hi = min(lam, mu), max(lam, mu)
        Q = np.cumsum((lo / hi) ** np.arange(N + 1))
        down = lo * Q[:-1] / Q[1:]
        down[-1] = 0.0
        moves.append(_steps(hi * Q[1:] / Q[:-1], down))
    P = _product_walk(poset, moves)
    return _bottom_to_top(poset, P)


def kary_cube(spec: CubeSpec) -> ChainSpec:
    """Lazy uniform single-coordinate resampling on {0..k}^n."""
    n, k = spec.n, spec.k
    poset = _model_poset(k + 1, n)
    # each coordinate moves to each other value in 1 of 2nk equally likely outcomes
    P = _product_walk(poset, [1.0 - np.eye(k + 1)] * n, total=2 * n * k)
    return ChainSpec(
        poset=poset, P=P, nu=_start_at_bottom(poset.size), pi=np.full(poset.size, 1.0 / poset.size)
    )


def kary_cube_dual(spec: CubeSpec) -> DualChain:
    """Closed-form sharp dual of the cube chain, at every state.

    From state s, each coordinate below k jumps to k with probability
    (k+1)/(2nk), and s holds with the rest.  The kernel is the average over
    coordinates a of I x ... x R x ... x I with R = ((k-1)/2k) I + (1/2k) J,
    the link is the product of per-coordinate links, and Lambda J Lambda^-1 =
    (k+1) 1 delta_k^T, so each coordinate's dual is
    ((k-1)/2k) I + ((k+1)/2k) 1 delta_k^T.
    """
    n, k = spec.n, spec.k
    poset = _model_poset(k + 1, n)
    jump = np.zeros((k + 1, k + 1))
    jump[:k, k] = k + 1
    P = _product_walk(poset, [jump] * n, total=2 * n * k)
    return _bottom_to_top(poset, P)

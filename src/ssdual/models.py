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
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .chain import ChainSpec
from .duality import DualChain
from .errors import BadParameters, TooLarge
from .poset import Poset, _check_cap, grid_poset


@dataclass(frozen=True)
class IsingSpec:
    """Spin system on a simple undirected graph at inverse temperature beta."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    beta: float
    circle: bool = False

    def __post_init__(self):
        if self.n_vertices < 1:
            raise BadParameters("graph needs at least one vertex")
        if self.beta < 0.0:
            raise BadParameters("beta must be nonnegative")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise BadParameters(f"self-loop at vertex {u}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise BadParameters(f"edge ({u}, {v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise BadParameters(f"duplicate edge {key}")
            seen.add(key)


@dataclass(frozen=True)
class LatticeSpec:
    """Nearest-neighbour walk on {0..N}^2 with direction-dependent weights."""

    N: int
    lambda1: float
    lambda2: float
    mu1: float
    mu2: float

    def __post_init__(self):
        if self.N < 1:
            raise BadParameters("lattice side N must be >= 1")
        rates = (self.lambda1, self.lambda2, self.mu1, self.mu2)
        if any(r <= 0.0 for r in rates):
            raise BadParameters("move probabilities must be positive")
        if sum(rates) > 1.0 + 1e-12:
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
        if self.n < 1 or self.k < 1:
            raise BadParameters("cube needs n >= 1 and k >= 1")


def _spin_tuple(state: int, n: int) -> tuple[int, ...]:
    return tuple(1 if state >> i & 1 else -1 for i in range(n))


def _model_poset(shape: list[int], cap: int | None) -> Poset:
    _check_cap(math.prod(shape), cap, TooLarge)
    return grid_poset(shape, cap=cap)


def _spin_poset(n: int, cap: int | None) -> Poset:
    grid = _model_poset([2] * n, cap)
    labels = tuple(_spin_tuple(i, n) for i in range(grid.size))
    return replace(grid, labels=labels)


def _flip_probabilities(spec: IsingSpec) -> np.ndarray:
    """f[state, vertex] = probability the refreshed spin lands on +1."""
    n = spec.n_vertices
    size = 1 << n
    nbrs = [[] for _ in range(n)]
    for u, v in spec.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    f = np.empty((size, n))
    for s in range(size):
        spins = _spin_tuple(s, n)
        for i in range(n):
            d = sum(spins[j] for j in nbrs[i])  # k_plus - k_minus at vertex i
            f[s, i] = 1.0 / (1.0 + math.exp(-2.0 * spec.beta * d))
    return f


def _ising_stationary(spec: IsingSpec) -> np.ndarray:
    """Gibbs weights exp(beta * sum over edges of s_u s_v), normalized."""
    n = spec.n_vertices
    energy = np.zeros(1 << n)
    for s in range(1 << n):
        spins = _spin_tuple(s, n)
        energy[s] = sum(spins[u] * spins[v] for u, v in spec.edges)
    weights = np.exp(spec.beta * energy)
    return weights / weights.sum()


def _ising_chain(spec: IsingSpec, cap: int | None) -> ChainSpec:
    n = spec.n_vertices
    size = 1 << n
    poset = _spin_poset(n, cap)
    f = _flip_probabilities(spec)
    P = np.zeros((size, size))
    for s in range(size):
        for i in range(n):
            up = s | (1 << i)
            down = s & ~(1 << i)
            P[s, up] += f[s, i] / n
            P[s, down] += (1.0 - f[s, i]) / n
    nu = np.zeros(size)
    nu[0] = 1.0  # all spins down
    return ChainSpec(poset=poset, P=P, nu=nu, pi=_ising_stationary(spec))


def _circle_spec(N: int, beta: float) -> IsingSpec:
    if N < 3:
        raise BadParameters("a circle needs at least 3 vertices")
    edges = tuple((i, (i + 1) % N) for i in range(N))
    return IsingSpec(n_vertices=N, edges=edges, beta=beta, circle=True)


def ising_circle(N: int, beta: float, *, cap: int | None = None) -> ChainSpec:
    """Gibbs sampler for the Ising model on a circle of N >= 3 vertices."""
    return _ising_chain(_circle_spec(N, beta), cap)


def ising_gibbs_graph(
    n_vertices: int, edges: Sequence[tuple[int, int]], beta: float, *, cap: int | None = None
) -> ChainSpec:
    """Gibbs sampler for the Ising model on an arbitrary simple graph."""
    spec = IsingSpec(
        n_vertices=n_vertices, edges=tuple((int(u), int(v)) for u, v in edges), beta=beta
    )
    if not _connected(spec):
        warnings.warn("Ising graph is disconnected", stacklevel=2)
    return _ising_chain(spec, cap)


def _connected(spec: IsingSpec) -> bool:
    n = spec.n_vertices
    adj = [[] for _ in range(n)]
    for u, v in spec.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _subset_masses(pi: np.ndarray, n: int) -> np.ndarray:
    """Down-set masses on {0,1}^n via the subset-sum transform."""
    H = pi.astype(float).copy()
    for i in range(n):
        bit = 1 << i
        for s in range(len(H)):
            if s & bit:
                H[s] += H[s ^ bit]
    return H


def ising_circle_dual(N: int, beta: float, *, cap: int | None = None) -> DualChain:
    """Closed-form sharp dual of the circle Gibbs sampler.

    With H the down-set mass and f(x, i) the probability that vertex i is
    refreshed to +1 from configuration x, the dual moves from x by:

    * hold, with probability |x|/N (|x| = number of up spins);
    * step up: for each down vertex i, to x + {i} with probability
      H(x + {i})/H(x) * (1 - f(x, i))/N;
    * swap: for each down vertex i and each up neighbour j of i, to
      u = x - {j} + {i} with probability H(u)/H(x) * (f(x, i) - f(x - {j}, i))/N.

    The all-up state absorbs.  These rows are H(y)/H(x) times the Mobius
    sum of the heat-bath kernel; its term that removes both neighbours of i
    cancels because f_-2 - 2 f_0 + f_2 = 0 (f_d + f_-d = 1, f_0 = 1/2) for
    the local field d.  That cancellation needs every vertex to have degree
    2, so the closed form holds on the circle only.
    """
    spec = _circle_spec(N, beta)
    poset = _spin_poset(N, cap)
    size = poset.size
    f = _flip_probabilities(spec)
    H = _subset_masses(_ising_stationary(spec), N)
    P = np.zeros((size, size))
    for s in range(size):
        P[s, s] = s.bit_count() / N
        for i in range(N):
            if s >> i & 1:
                continue
            t = s | (1 << i)
            P[s, t] = (H[t] / H[s]) * (1.0 - f[s, i]) / N
            for j in ((i - 1) % N, (i + 1) % N):
                if s >> j & 1:
                    u = t & ~(1 << j)
                    P[s, u] = (H[u] / H[s]) * (f[s, i] - f[s & ~(1 << j), i]) / N
    nu = np.zeros(size)
    nu[0] = 1.0
    return DualChain(poset=poset, P_star=P, nu_star=nu, absorbing_index=size - 1)


def lattice_walk(spec: LatticeSpec, *, cap: int | None = None) -> ChainSpec:
    """Weighted nearest-neighbour walk on the square lattice {0..N}^2.

    Moves right/left with probability lambda1/mu1, up/down with lambda2/mu2
    where feasible; the remaining mass stays put.  The stationary law is
    proportional to rho1^x rho2^y, normalized by direct summation so
    rho = 1 needs no special casing.
    """
    N = spec.N
    side = N + 1
    size = side * side
    poset = _model_poset([side, side], cap)
    P = np.zeros((size, size))
    for y in range(side):
        for x in range(side):
            s = x + side * y
            if x + 1 <= N:
                P[s, s + 1] = spec.lambda1
            if x - 1 >= 0:
                P[s, s - 1] = spec.mu1
            if y + 1 <= N:
                P[s, s + side] = spec.lambda2
            if y - 1 >= 0:
                P[s, s - side] = spec.mu2
            P[s, s] = 1.0 - P[s].sum()
    pow1 = spec.rho1 ** np.arange(side)
    pow2 = spec.rho2 ** np.arange(side)
    weights = (pow2[:, None] * pow1[None, :]).ravel()
    pi = weights / weights.sum()
    nu = np.zeros(size)
    nu[0] = 1.0
    return ChainSpec(poset=poset, P=P, nu=nu, pi=pi)


def lattice_walk_dual(spec: LatticeSpec, *, cap: int | None = None) -> DualChain:
    """Closed-form sharp dual of the lattice walk, absorbing at (N, N).

    Requires lambda1 != mu1 and lambda2 != mu2.  Up-moves carry the mu rates
    scaled by down-set mass ratios, down-moves the lambda rates, and a down
    move along an axis is forbidden from that axis' upper border.
    """
    if spec.lambda1 == spec.mu1 or spec.lambda2 == spec.mu2:
        raise BadParameters("closed-form dual requires lambda_i != mu_i")
    N = spec.N
    side = N + 1
    size = side * side
    poset = _model_poset([side, side], cap)
    r1 = spec.rho1 ** np.arange(side + 1)
    r2 = spec.rho2 ** np.arange(side + 1)
    P = np.zeros((size, size))
    for y in range(side):
        for x in range(side):
            s = x + side * y
            if x == N and y == N:
                P[s, s] = 1.0
                continue
            if x + 1 <= N:
                P[s, s + 1] = spec.mu1 * (1.0 - r1[x + 2]) / (1.0 - r1[x + 1])
            if y + 1 <= N:
                P[s, s + side] = spec.mu2 * (1.0 - r2[y + 2]) / (1.0 - r2[y + 1])
            if x >= 1 and x != N:
                P[s, s - 1] = spec.lambda1 * (1.0 - r1[x]) / (1.0 - r1[x + 1])
            if y >= 1 and y != N:
                P[s, s - side] = spec.lambda2 * (1.0 - r2[y]) / (1.0 - r2[y + 1])
            if y == N:
                P[s, s] = 1.0 - (spec.lambda1 + spec.mu1)
            elif x == N:
                P[s, s] = 1.0 - (spec.lambda2 + spec.mu2)
            else:
                P[s, s] = 1.0 - (spec.lambda1 + spec.lambda2 + spec.mu1 + spec.mu2)
    nu = np.zeros(size)
    nu[0] = 1.0
    return DualChain(poset=poset, P_star=P, nu_star=nu, absorbing_index=size - 1)


def kary_cube(spec: CubeSpec, *, cap: int | None = None) -> ChainSpec:
    """Lazy uniform single-coordinate resampling on {0..k}^n."""
    poset = _model_poset([spec.k + 1] * spec.n, cap)
    size = poset.size
    move = 1.0 / (2 * spec.n * spec.k)
    P = np.full((size, size), 0.0)
    radices = [(spec.k + 1) ** i for i in range(spec.n)]
    for s in range(size):
        P[s, s] = 0.5
        for axis in range(spec.n):
            value = (s // radices[axis]) % (spec.k + 1)
            for other in range(spec.k + 1):
                if other != value:
                    P[s, s + (other - value) * radices[axis]] = move
    pi = np.full(size, 1.0 / size)
    nu = np.zeros(size)
    nu[0] = 1.0
    return ChainSpec(poset=poset, P=P, nu=nu, pi=pi)


def kary_cube_dual(spec: CubeSpec, *, cap: int | None = None) -> DualChain:
    """Closed-form sharp dual of the cube chain, at every state.

    From state s, each coordinate below k jumps to k with probability
    (k+1)/(2nk), and s holds with probability
    (n(k-1) + #{a : s_a = k}(k+1))/(2nk).  The kernel is the average over
    coordinates a of I x ... x R x ... x I with R = ((k-1)/2k) I + (1/2k) J,
    the link is the product of per-coordinate links, and Lambda J Lambda^-1 =
    (k+1) 1 delta_k^T, so each coordinate's dual is
    ((k-1)/2k) I + ((k+1)/2k) 1 delta_k^T.
    """
    n, k = spec.n, spec.k
    poset = _model_poset([k + 1] * n, cap)
    size = poset.size
    states = np.arange(size)
    radices = (k + 1) ** np.arange(n)
    digits = states[:, None] // radices % (k + 1)
    P = np.zeros((size, size))
    P[states, states] = (n * (k - 1) + (digits == k).sum(axis=1) * (k + 1)) / (2 * n * k)
    for a in range(n):
        low = states[digits[:, a] < k]
        P[low, low + (k - digits[low, a]) * radices[a]] = (k + 1) / (2 * n * k)
    nu = np.zeros(size)
    nu[0] = 1.0
    return DualChain(poset=poset, P_star=P, nu_star=nu, absorbing_index=size - 1)

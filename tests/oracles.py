"""Brute-force reference computations, independent of the package internals."""
import tracemalloc

import numpy as np


def closure_from_covers(size, covers):
    """Reflexive-transitive closure by fixpoint iteration over python sets."""
    above = [set() for _ in range(size)]
    for a, b in covers:
        above[a].add(b)
    changed = True
    while changed:
        changed = False
        for i in range(size):
            extra = set()
            for j in above[i]:
                extra |= above[j] - above[i]
            if extra:
                above[i] |= extra
                changed = True
    leq = np.zeros((size, size), dtype=bool)
    for i in range(size):
        leq[i, i] = True
        for j in above[i]:
            leq[i, j] = True
    return leq


def mobius_by_first_argument(leq):
    """Mobius function via the recursion on the lower endpoint.

    mu(y, y) = 1 and mu(x, y) = -sum over x < z <= y of mu(z, y), which is
    the opposite recursion to the production code.
    """
    n = leq.shape[0]
    mu = np.zeros((n, n), dtype=np.int64)
    for y in range(n):
        mu[y, y] = 1
        for x in range(y - 1, -1, -1):
            if leq[x, y]:
                total = 0
                for z in range(x + 1, y + 1):
                    if leq[x, z] and leq[z, y]:
                        total += mu[z, y]
                mu[x, y] = -total
    return mu


def down_set_sums(leq, weights):
    out = np.zeros(len(weights))
    for j in range(len(weights)):
        for i in range(len(weights)):
            if leq[i, j]:
                out[j] += weights[i]
    return out


def separation_by_matrix_power(P, nu, pi, n):
    dist = nu @ np.linalg.matrix_power(P, n)
    return float(np.max(1.0 - dist / pi))


def dense_absorption_moments(P_star, nu_star, absorbing):
    """Mean and variance of the absorption time from two dense solves of I - Q."""
    Q = np.delete(np.delete(P_star, absorbing, axis=0), absorbing, axis=1)
    system = np.eye(len(Q)) - Q
    steps = np.linalg.solve(system, np.ones(len(Q)))
    second = np.linalg.solve(system, 2.0 * steps - 1.0)  # (I - Q) E T^2 = 1 + 2 Q E T
    start = np.delete(nu_star, absorbing)
    mean = float(start @ steps)
    return mean, float(start @ second) - mean * mean


def symmetrised_eigenvalues(P, pi):
    """Eigenvalues of the full symmetrised kernel (S + S.T) / 2, S = D^1/2 P D^-1/2, descending."""
    root = np.sqrt(pi)
    S = root[:, None] * P / root[None, :]
    return np.linalg.eigvalsh((S + S.T) / 2)[::-1]


def peak_bytes(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), tracemalloc peak of the call in bytes)``."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def dense_simulate_sst(d, samples, seed, horizon, max_steps=1_000_000):
    """``(survival, mean, variance)`` of ``samples`` absorption times drawn through a dense
    M x M cumsum of ``P_star``, trajectory ``i`` from a Philox generator keyed by (seed, i)."""
    cum_rows = np.cumsum(d.P_star, axis=1)
    cum_rows[:, -1] = 1.0
    cum_start = np.cumsum(d.nu_star)
    cum_start[-1] = 1.0
    absorbing = int(d.absorbing_index)
    times = np.empty(samples, dtype=np.int64)
    counts = np.zeros(horizon + 2, dtype=np.int64)
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
                raise RuntimeError(f"trajectory {i} exceeded {max_steps} steps without absorbing")
        times[i] = steps
        counts[min(steps, horizon + 1)] += 1
    still_out = samples - np.cumsum(counts)
    return still_out[: horizon + 1] / samples, float(times.mean()), float(times.var())

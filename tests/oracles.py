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


def dense_worst_flux(P, pi):
    """max |diag(pi) P - (diag(pi) P)^T|: the worst detailed-balance flux over every pair of states."""
    flux = np.asarray(pi)[:, None] * P
    return float(np.abs(flux - flux.T).max())


def symmetrised_eigenvalues(P, pi):
    """Eigenvalues of the full symmetrised kernel (S + S.T) / 2, S = D^1/2 P D^-1/2, descending."""
    root = np.sqrt(pi)
    S = root[:, None] * P / root[None, :]
    return np.linalg.eigvalsh((S + S.T) / 2)[::-1]


def dense_dual(kernel_report, g_report, down_mass):
    """``(P_star, nu_star)`` by the dense formula from the two Mobius reports on the time reversal
    and on nu/pi: ``(T * H[:, None]).T / H[:, None]`` and ``H * g``, each with the entries the
    reports decide are exact zeros set to 0, then normalised."""
    H = down_mass
    P_star = (kernel_report.transformed * H[:, None]).T
    P_star /= H[:, None]
    P_star[kernel_report.zero.T] = 0.0
    P_star /= P_star.sum(axis=1)[:, None]
    nu_star = H * g_report.transformed
    nu_star[g_report.zero] = 0.0
    return P_star, nu_star / nu_star.sum()


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


# The chain-file loader and CSR writer as they were before their whole-array checks and
# boolean scans: per-pair and per-label Python loops and a float np.flatnonzero per block.
# Kept verbatim, except that the package helpers whose signatures changed since (the
# cover-code _grid_shape and the (order, successors) pair of _topological_order) are
# replaced by the old versions or unpacked.  Helpers that did not change are the package's.
def reference_from_jsonable(value):
    if isinstance(value, list):
        return tuple(reference_from_jsonable(v) for v in value)
    return value


def reference_grid_shape(size, covers):
    """The shape whose mixed-radix grid has exactly these sorted covers, else None."""
    from ssdual.poset import _grid_codes

    # the up-neighbours of state 0 are the radices 1 = r_0 < r_1 < ...
    bounds = [b for a, b in covers if a == 0] + [size]
    if len(bounds) < 2 or bounds[0] != 1 or any(hi % lo for lo, hi in zip(bounds, bounds[1:])):
        return None
    shape = tuple(hi // lo for lo, hi in zip(bounds, bounds[1:]))
    given = np.array(covers, dtype=np.int64)
    return shape if np.array_equal(_grid_codes(shape), given[:, 0] * size + given[:, 1]) else None


def reference_build_poset(labels, covers):
    from ssdual.errors import BadParameters
    from ssdual.poset import _check_cap, _grid, _induced, _topological_order

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
    dedup = sorted({(int(a), int(b)) for a, b in covers})
    for a, b in dedup:
        if not (0 <= a < size and 0 <= b < size):
            raise BadParameters(f"cover pair ({a}, {b}) out of range for {size} states")
        if a == b:
            raise BadParameters(f"self-cover at index {a}")
    shape = reference_grid_shape(size, dedup)
    if shape is not None:  # Kahn's order is the identity; a grid's covers are its reduction
        return _grid(shape, labels)
    order = _topological_order(size, dedup, labels)[0]

    succ: list[list[int]] = [[] for _ in range(size)]
    for a, b in dedup:
        succ[a].append(b)
    reach = np.eye(size, dtype=bool)
    for v in reversed(order):
        row = reach[v]
        for w in succ[v]:
            row |= reach[w]

    return _induced(labels, reach, np.asarray(order))


def reference_load_chain(path):
    from ssdual.chain import DEBRIS_TOL, ROW_TOL, STATIONARY_TOL, ChainSpec, _defect
    from ssdual.chainfile import (
        LoadedChain, _finite_array, _is_index, _kernel, _read_json, _require,
    )
    from ssdual.errors import BadParameters, CycleDetected, ParseError, SchemaVersionMismatch

    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    version = _require(doc, "version")
    # bool subclasses int, but JSON true is not version 1
    if type(version) is not int or version not in (1, 2):
        raise SchemaVersionMismatch(f"{path}: unsupported format version {version!r}")
    labels = _require(doc, "labels")
    if not isinstance(labels, list) or not labels:
        raise ParseError(f"{path}: labels must be a non-empty list")
    labels = [reference_from_jsonable(lab) for lab in labels]
    size = len(labels)
    covers = _require(doc, "covers")
    if not isinstance(covers, list):
        raise ParseError(f"{path}: covers must be a list")
    for pair in covers:
        if not isinstance(pair, list) or len(pair) != 2 or not all(_is_index(v, size) for v in pair):
            raise ParseError(f"{path}: bad cover pair {pair!r}")
    try:
        poset = reference_build_poset(labels, [(a, b) for a, b in covers])
    except (BadParameters, CycleDetected) as exc:
        raise ParseError(f"{path}: {exc}") from exc

    perm = poset.enumeration
    rank = np.empty_like(perm)
    rank[perm] = np.arange(size)
    P = _kernel(path, doc, version, rank)
    nu = _finite_array(path, _require(doc, "nu"), "nu", (size,))[perm]
    pi = None if doc.get("pi") is None else _finite_array(path, doc["pi"], "pi", (size,))[perm]
    for a, key, sums in ((P, "kernel", "kernel rows sum"), (nu, "nu", "nu sums"), (pi, "pi", "pi sums")):
        if a is None:
            continue
        _, dev, least = _defect(a)
        if least < -DEBRIS_TOL:
            raise ParseError(f"{path}: {key} has negative entry {least:.3e}")
        if dev > ROW_TOL:
            raise ParseError(f"{path}: {sums} to 1 only within {dev:.3e}")
        if least < 0.0:  # rounding debris loads as an exact zero, decided here once
            np.maximum(a, 0.0, out=a)
    if pi is not None:
        stat_dev = float(np.max(np.abs(pi @ P - pi)))
        if stat_dev > STATIONARY_TOL:
            raise ParseError(f"{path}: pi is stationary only within {stat_dev:.3e}")
    absorbing = doc.get("absorbing_index")
    if absorbing is not None:
        if not _is_index(absorbing, size):
            raise ParseError(f"{path}: bad absorbing_index {absorbing!r}")
        absorbing = int(rank[absorbing])
    meta = doc.get("meta") or {}
    chain = ChainSpec(poset=poset, P=P, nu=nu, pi=pi)
    return LoadedChain(chain=chain, absorbing_index=absorbing, meta=meta)


def reference_write_csr(fh, P):
    import json

    from ssdual.chainfile import _BLOCK_ENTRIES

    # The P_data, P_indices and P_indptr members, one nonzero search and one json.dumps per
    # block of rows, so that no list of every stored entry is made.
    size = P.shape[1]
    step, counts = max(1, _BLOCK_ENTRIES // size), [[0]]
    for key in ("P_data", "P_indices"):
        fh.write(f'"{key}": [')
        sep = ""
        for block in np.split(P, range(step, len(P), step)):
            flat = np.flatnonzero(block)
            if flat.size:
                values = block.ravel()[flat] if key == "P_data" else flat % size
                fh.write(sep + json.dumps(values.tolist())[1:-1])
                sep = ", "
            if key == "P_indices":
                counts.append(np.bincount(flat // size, minlength=len(block)))
        fh.write("], ")
    fh.write(f'"P_indptr": {json.dumps(np.cumsum(np.concatenate(counts)).tolist())}, ')


def reference_nonzeros(P):
    """The (rows, cols, vals) triple of one float ``np.flatnonzero`` over all of ``P``."""
    flat = np.flatnonzero(P)
    rows, cols = np.divmod(flat, P.shape[1])
    return rows, cols, P.ravel()[flat]


def per_step_sums(Q, start, horizon):
    """The mass of ``start`` Q^n for n = 0..horizon, each step's mass summed on its own."""
    from ssdual.chain import _propagate

    return np.fromiter((mass.sum() for mass in _propagate(start, Q, horizon)), float, horizon + 1)


def lumped_parts(d):
    """The transient block's nonzeros and start on the orbits of the symmetries the dual keeps,
    in the orbits' indices: ``_transient_parts`` lumped as ``_survival`` lumps it."""
    from ssdual.absorption import _transient_parts
    from ssdual.chain import _lump

    Q, start = _transient_parts(d)
    return _lump(d.poset, d.P_star, start, (np.arange(d.size) == d.absorbing_index,), Q)[:2]


def per_step_survival(d, horizon):
    """P(T > n) for n = 0..horizon by ``per_step_sums``, on the lumped transient block and start
    that ``_survival`` steps."""
    return per_step_sums(*lumped_parts(d), horizon)


def unlumped_survival(d, horizon):
    """P(T > n) for n = 0..horizon by ``per_step_sums`` on every transient state: the survival
    before the symmetries' lumping, bitwise."""
    from ssdual.absorption import _transient_parts

    return per_step_sums(*_transient_parts(d), horizon)


def unlumped_separation(c, horizon):
    """(separation, total variation) for n = 0..horizon on every state, one step at a time: the
    curves before the symmetries' lumping, bitwise."""
    from ssdual.chain import _propagate

    sep, tv = np.empty(horizon + 1), np.empty(horizon + 1)
    for n, dist in enumerate(_propagate(c.nu, c.P, horizon)):
        sep[n] = 1.0 - (dist / c.pi).min()
        tv[n] = 0.5 * np.abs(dist - c.pi).sum()
    return sep, tv


def looped_groups(sorted_desc, tol):
    """(representatives, multiplicities) of a descending array, one value at a time: a value
    within ``tol`` of its group's first value joins the group, any other starts a new one."""
    values, counts = [], []
    for v in sorted_desc:
        if values and abs(v - values[-1]) <= tol:
            counts[-1] += 1
        else:
            values.append(float(v))
            counts.append(1)
    return np.asarray(values), np.asarray(counts, dtype=np.int64)

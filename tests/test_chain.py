import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssdual as sd
from conftest import LATTICE_PARAMS, MODELS, cube, ising, ising_dual, lattice, lattice_dual
from oracles import peak_bytes, reference_nonzeros, separation_by_matrix_power, symmetrised_eigenvalues
from oracles import dense_worst_flux, looped_groups
from ssdual.chain import REVERSIBLE_TOL, _balance, _nonzeros, _propagate, group_with_tolerance
from ssdual.errors import (
    BadParameters,
    DimensionMismatch,
    MissingStationary,
    NotIrreducible,
    NotReversible,
)


def identity_chain(size=3):
    poset = sd.chain_poset(size)
    nu = np.zeros(size)
    nu[0] = 1.0
    return sd.ChainSpec(poset=poset, P=np.eye(size), nu=nu, pi=np.full(size, 1.0 / size))


def biased_cycle(p=0.9):
    poset = sd.build_poset([0, 1, 2], [])
    P = np.zeros((3, 3))
    for i in range(3):
        P[i, (i + 1) % 3] = p
        P[i, (i - 1) % 3] = 1 - p
    nu = np.array([1.0, 0.0, 0.0])
    return sd.ChainSpec(poset=poset, P=P, nu=nu, pi=np.full(3, 1 / 3))


def symmetric_two_state():
    poset = sd.chain_poset(2)
    return sd.ChainSpec(
        poset=poset, P=np.full((2, 2), 0.5), nu=np.array([1.0, 0.0]), pi=np.array([0.5, 0.5])
    )


class TestValidate:
    def test_identity_not_irreducible(self):
        report = sd.validate(identity_chain())
        assert report.irreducible is False
        assert report.aperiodic is None
        assert report.ok

    def test_cube_chain_ergodic(self):
        report = sd.validate(cube(2, 1))
        assert report.irreducible and report.aperiodic
        assert report.ok

    def test_flip_chain_periodic(self):
        poset = sd.chain_poset(2)
        c = sd.ChainSpec(poset=poset, P=[[0, 1], [1, 0]], nu=[1, 0], pi=[0.5, 0.5])
        report = sd.validate(c)
        assert report.irreducible and report.aperiodic is False

    def test_row_sum_violation_flagged(self):
        poset = sd.chain_poset(2)
        c = sd.ChainSpec(poset=poset, P=[[0.4, 0.5], [0.5, 0.5]], nu=[1, 0])
        report = sd.validate(c)
        assert report.max_row_sum_dev == pytest.approx(0.1)
        assert not report.ok

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sd.ChainSpec(poset=sd.chain_poset(2), P=np.eye(3), nu=[1, 0, 0])

    @pytest.mark.parametrize("field", ["P", "nu", "pi"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, bad):
        arrays = {"P": np.full((2, 2), 0.5), "nu": np.array([1.0, 0.0]), "pi": np.full(2, 0.5)}
        arrays[field].flat[0] = bad
        with pytest.raises(BadParameters, match="finite"):
            sd.ChainSpec(poset=sd.chain_poset(2), **arrays)


class TestStationary:
    def test_cube_uniform(self):
        c = cube(2, 2)
        pi = sd.stationary(c)
        assert np.abs(pi - 1.0 / 9).max() <= 1e-12

    def test_lattice_small_corner_mass(self):
        # weights {1, 0.8, 0.8, 0.64} normalize to 25/81 at the corner
        pi = sd.stationary(lattice(1))
        assert pi[0] == pytest.approx(25 / 81, abs=1e-12)

    def test_ising_matches_direct_summation(self):
        c = ising(3, 0.5)
        weights = []
        for s in range(8):
            spins = [1 if s >> i & 1 else -1 for i in range(3)]
            weights.append(math.exp(0.5 * sum(spins[i] * spins[(i + 1) % 3] for i in range(3))))
        expect = np.array(weights) / sum(weights)
        assert np.abs(c.pi - expect).max() <= 1e-12
        assert np.abs(sd.stationary(c) - expect).max() <= 1e-10

    def test_identity_not_irreducible(self):
        with pytest.raises(NotIrreducible):
            sd.stationary(identity_chain())

    def test_invariant_under_evolution(self):
        c = lattice(2)
        assert np.abs(c.pi @ c.P - c.pi).max() <= 1e-10


class TestTimeReversal:
    def test_reversible_chain_unchanged(self):
        c = lattice(2)
        assert np.abs(sd.time_reversal(c) - c.P).max() <= 1e-12

    def test_ising_reversible(self):
        c = ising(4, 0.5)
        assert np.abs(sd.time_reversal(c) - c.P).max() <= 1e-12

    def test_biased_cycle_reverses_direction(self):
        c = biased_cycle(0.9)
        reversed_kernel = sd.time_reversal(c)
        expect = np.zeros((3, 3))
        for i in range(3):
            expect[i, (i - 1) % 3] = 0.9
            expect[i, (i + 1) % 3] = 0.1
        assert np.abs(reversed_kernel - expect).max() <= 1e-12

    def test_involution(self):
        c = biased_cycle(0.8)
        twice = sd.time_reversal(
            sd.ChainSpec(poset=c.poset, P=sd.time_reversal(c), nu=c.nu, pi=c.pi)
        )
        assert np.abs(twice - c.P).max() <= 1e-12

    def test_requires_stationary(self):
        poset = sd.chain_poset(2)
        c = sd.ChainSpec(poset=poset, P=np.full((2, 2), 0.5), nu=[1, 0])
        with pytest.raises(MissingStationary):
            sd.time_reversal(c)
        assert sd.with_stationary(c).pi is not None


class TestReversibility:
    def test_lattice_reversible(self):
        assert sd.is_reversible(lattice(2), 1e-12)

    def test_biased_cycle_not_reversible(self):
        assert not sd.is_reversible(biased_cycle(0.9), 1e-12)

    def test_symmetric_kernel_reversible(self):
        assert sd.is_reversible(cube(2, 2), 1e-12)

    def test_holds_no_kernel_sized_array(self):
        c = ising(10, 0.5)
        reversible, peak = peak_bytes(sd.is_reversible, c, 1e-12)
        assert reversible
        assert peak < c.P.nbytes / 4

    @pytest.mark.parametrize("name", MODELS)
    def test_decides_as_the_dense_flux(self, name):
        chain, _, *args = MODELS[name]
        c = chain(*args)
        worst = dense_worst_flux(c.P, c.pi)
        assert _balance(c)[0] == worst  # each pair's flux is the same product difference
        for tol in (1e-12, REVERSIBLE_TOL):
            assert sd.is_reversible(c, tol) == (worst <= tol)

    def test_pi_with_zeros(self):
        # no square root and no division: a zero in pi is a flux of zero, not a refusal
        P = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        for pi, reversible in (([0.0, 0.0, 1.0], True), ([0.0, 0.5, 0.5], False)):
            c = sd.ChainSpec(poset=sd.chain_poset(3), P=P, nu=[1, 0, 0], pi=pi)
            assert sd.is_reversible(c) is reversible is (dense_worst_flux(P, c.pi) <= 1e-12)

    def test_nan_flux_in_a_later_block_is_not_reversible(self):
        # 1024 states scan 256 rows at a time: a NaN in the second block must not be
        # dropped by a finite worst flux from the first
        model = ising(10, 0.5)
        c = sd.ChainSpec(poset=model.poset, P=model.P, nu=model.nu, pi=model.pi)
        pi = c.pi.copy()
        pi[300] = np.nan
        object.__setattr__(c, "pi", pi)  # past ChainSpec's finite check
        assert np.isnan(_balance(c)[0])
        assert not sd.is_reversible(c, 1.0)


class TestEvolve:
    def test_zero_steps_returns_initial(self):
        c = symmetric_two_state()
        assert np.array_equal(sd.evolve(c, 0), c.nu)

    def test_one_step_symmetric(self):
        c = symmetric_two_state()
        assert np.abs(sd.evolve(c, 1) - 0.5).max() <= 1e-15

    def test_ising_converges(self):
        assert np.abs(sd.evolve(ising(3, 0.0), 60) - ising(3, 0.0).pi).max() <= 1e-8
        # slower at positive beta: the subdominant eigenvalue is ~0.92, not 2/3
        assert np.abs(sd.evolve(ising(3, 0.5), 400) - ising(3, 0.5).pi).max() <= 1e-8

    def test_mass_conserved(self):
        c = ising(4, 1.0)
        assert sd.evolve(c, 17).sum() == pytest.approx(1.0, abs=1e-10)

    @given(st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_semigroup_property(self, n, m):
        c = lattice(1)
        via = sd.ChainSpec(poset=c.poset, P=c.P, nu=sd.evolve(c, n), pi=c.pi)
        assert np.abs(sd.evolve(c, n + m) - sd.evolve(via, m)).max() <= 1e-10

    def test_matches_matrix_power_oracle(self):
        c = ising(3, 1.0)
        for n in (0, 1, 5, 20):
            sep = separation_by_matrix_power(c.P, c.nu, c.pi, n)
            dist = sd.evolve(c, n)
            assert np.max(1.0 - dist / c.pi) == pytest.approx(sep, abs=1e-10)


def matrix_steps(v, P, n):
    """Reference for _propagate: v, vP, ..., vP^n by an explicit v @ P loop."""
    steps = [np.array(v, dtype=float)]
    for _ in range(n):
        steps.append(steps[-1] @ P)
    return steps


def assert_propagation_parity(v, P, n=60):
    got = list(_propagate(v, P, n))
    want = matrix_steps(v, P, n)
    assert len(got) == n + 1
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max(initial=0.0) <= 1e-12


def model_and_dual(kind, *args):
    if kind == "ising":
        return ising(*args), ising_dual(*args)
    if kind == "lattice":
        return lattice(*args), lattice_dual(*args)
    # not cached: the 4096-state cube (6, 3) holds two 128 MB kernels; its
    # closed-form dual has build_dual's nonzero pattern
    spec = sd.CubeSpec(n=args[0], k=args[1])
    return sd.kary_cube(spec), sd.kary_cube_dual(spec)


PROPAGATION_MODELS = [
    *[("ising", N, beta) for N in (4, 10) for beta in (0.0, 0.5, 2.0)],
    ("lattice", 8),
    ("lattice", 24),
    ("cube", 3, 2),
    ("cube", 6, 3),
]


class TestPropagate:
    @pytest.mark.parametrize("model", PROPAGATION_MODELS, ids=str)
    def test_matches_matrix_steps_on_models(self, model):
        c, d = model_and_dual(*model)
        for P in (c.P, d.P_star):
            # from 256 states on, these kernels take the bincount step
            assert c.size < 256 or 32 * np.count_nonzero(P) <= P.size
        assert_propagation_parity(c.nu, c.P)
        assert_propagation_parity(d.nu_star, d.P_star)

    def test_dense_kernel_matches_matrix_steps(self):
        rng = np.random.default_rng(7)
        P = rng.random((300, 300))
        P /= P.sum(axis=1, keepdims=True)
        assert 32 * np.count_nonzero(P) > P.size
        assert_propagation_parity(rng.dirichlet(np.ones(300)), P)

    def test_transient_block_with_empty_last_columns(self):
        # bincount's output ends at the largest column it sees unless
        # minlength pads it to M
        rng = np.random.default_rng(3)
        m = 400
        Q = np.where(rng.random((m, m)) < 0.01, rng.random((m, m)), 0.0)
        Q[:, -3:] = 0.0
        Q *= 0.9 / np.maximum(Q.sum(axis=1, keepdims=True), 1.0)
        assert 32 * np.count_nonzero(Q) <= Q.size
        assert_propagation_parity(np.full(m, 1.0 / m), Q)

    @pytest.mark.parametrize(
        "model", [("ising", 4, 0.5), ("ising", 10, 0.5), ("lattice", 24)], ids=str
    )
    def test_a_triple_steps_exactly_as_its_kernel(self, model):
        # the 16-state kernels step densely, the larger ones through the bincount
        c, d = model_and_dual(*model)
        for v, P in ((c.nu, c.P), (d.nu_star, d.P_star)):
            triple = _nonzeros(P)
            assert np.array_equal(P[triple[0], triple[1]], triple[2])
            assert np.count_nonzero(P) == len(triple[2])
            for a, b in zip(_propagate(v, triple, 40), _propagate(v, P, 40)):
                assert np.array_equal(a, b)

    def test_all_zero_and_empty_kernels(self):
        assert_propagation_parity(np.array([0.25, 0.75]), np.zeros((2, 2)), 3)
        assert_propagation_parity(np.zeros(0), np.zeros((0, 0)), 3)



def adversarial_kernels():
    """Kernels whose entries test the boolean scan: NaN, both zeros, subnormals, infinities,
    empty rows and columns, and row counts that are no multiple of the 1 MiB mask block."""
    rng = np.random.default_rng(5)
    mixed = np.array([[np.nan, -0.0, 0.0, 5e-324], [-5e-324, np.inf, -np.inf, 1.0], [0.0] * 4])
    rows = np.zeros((9, 6))  # empty first, middle and last rows
    rows[[1, 2, 5, 7]] = rng.random((4, 6))
    # 4099 columns: blocks of 255 rows, so 600 rows are two full blocks and 90 more
    tall = np.where(rng.random((600, 4099)) < 0.002, rng.standard_normal((600, 4099)), 0.0)
    tall[::7, ::13] = -0.0
    tall[3, 5], tall[599, 4098], tall[255, 0] = np.nan, 5e-324, -np.inf
    return {
        "mixed": mixed,
        "empty-rows": rows,
        "empty-columns": rows.T.copy(),
        "all-zero": np.zeros((5, 7)),
        "all-negative-zero": np.full((4, 4), -0.0),
        "1x1": np.array([[0.5]]),
        "1x1-zero": np.array([[0.0]]),
        "1x1-nan": np.array([[np.nan]]),
        "block-remainder": tall,
        "no-rows": np.zeros((0, 3)),
    }


ADVERSARIAL = adversarial_kernels()


def same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestNonzeros:
    """_nonzeros, the one kernel scan: a boolean mask a block of rows at a time."""

    @pytest.mark.parametrize("name", ADVERSARIAL)
    def test_matches_one_float_scan(self, name):
        P = ADVERSARIAL[name]
        same_arrays(_nonzeros(P), reference_nonzeros(P))
        # row blocks of a kernel, as the chain-file writer scans them
        for lo in range(0, len(P), 13):
            same_arrays(_nonzeros(P[lo : lo + 13]), reference_nonzeros(P[lo : lo + 13]))

    @pytest.mark.parametrize("model", [("ising", 6, 0.5), ("lattice", 8), ("cube", 3, 2)], ids=str)
    def test_matches_one_float_scan_on_models(self, model):
        for P in (k.P if hasattr(k, "P") else k.P_star for k in model_and_dual(*model)):
            same_arrays(_nonzeros(P), reference_nonzeros(P))

    @pytest.mark.parametrize("name", ["mixed", "block-remainder", "all-zero"])
    def test_stops_past_most(self, name):
        P = ADVERSARIAL[name]
        nnz = len(reference_nonzeros(P)[2])
        same_arrays(_nonzeros(P, most=nnz), reference_nonzeros(P))
        if nnz:
            assert _nonzeros(P, most=nnz - 1) is None

    def test_mask_stays_blocked(self):
        P = ising(10, 0.5).P  # 1024 x 1024, 11 nonzeros a row
        triple, peak = peak_bytes(_nonzeros, P)
        same_arrays(triple, reference_nonzeros(P))
        assert peak < 1.5 * 2**20  # one 1 MiB mask and the triple; P itself is 8 MiB


def reversal_invariant_chain(kind, a, b):
    """An Ising chain (N, beta) or a k-ary cube (n, k) that equals its index reversal."""
    if kind == "cube":
        return cube(a, b)
    # the circle needs three vertices: two spins share one edge
    return sd.ising_gibbs_graph(2, [(0, 1)], b) if a == 2 else ising(a, b)


SPLIT_CASES = [("ising", N, beta) for N in (2, 3, 4, 6, 8, 10) for beta in (0.0, 0.5, 1.0, 2.0)]
SPLIT_CASES += [("cube", n, k) for n, k in ((1, 1), (2, 1), (4, 1), (2, 3), (3, 3), (5, 3))]


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """(size, real?) of the matrices passed to np.linalg.eigvalsh, in call order."""
    sizes = []
    solve = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append((len(a), not np.iscomplexobj(a)))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return sizes


def reversal(m):
    """J: state x to M - 1 - x."""
    return (np.arange(m)[::-1], 2)


def rotation(side, axes):
    """The cyclic shift of the coordinates of {0..side-1}^axes, coordinate 0 least significant:
    x -> side * x mod (M - 1), with the top state M - 1 fixed."""
    m = side**axes
    perm = np.arange(m) * side % max(m - 1, 1)
    perm[-1] = m - 1
    return (perm, axes)


def character_sizes(m, generators):
    """Sorted (size, real?) of the nonzero blocks that the characters chi of the abelian group
    generated by the commuting permutations ``generators``, (perm, order) pairs, predict: the
    size (1/|G|) sum over g of conj chi(g) |Fix(g)|.  The sizes, zero ones too, sum to M.  A
    complex chi and its conjugate share one block's spectrum, so the pair is listed once."""
    orders = [order for _, order in generators]
    exponents = list(itertools.product(*map(range, orders)))
    fixed = []
    for e in exponents:
        g = np.arange(m)
        for (perm, _), power in zip(generators, e):
            for _ in range(power):
                g = perm[g]
        fixed.append(int((g == np.arange(m)).sum()))
    sizes = {}
    for chi in exponents:
        turns = [sum(c * x / o for c, x, o in zip(chi, e, orders)) for e in exponents]
        size = sum(np.exp(-2j * np.pi * u) * f for u, f in zip(turns, fixed)) / len(exponents)
        assert abs(size - round(size.real)) < 1e-9
        sizes[chi] = round(size.real)
    assert sum(sizes.values()) == m
    listed = []
    for chi, size in sizes.items():
        twin = tuple(-c % o for c, o in zip(chi, orders))
        assert sizes[twin] == size
        if size and chi <= twin:
            listed.append((size, chi == twin))
    return sorted(listed)


def assert_character_blocks(c, generators, eigvalsh_sizes):
    assert sorted(eigvalsh_sizes) == character_sizes(c.size, generators)
    assert sum(size * (1 if real else 2) for size, real in eigvalsh_sizes) == c.size


def assert_matches_full_spectrum(c, report):
    values, counts = group_with_tolerance(symmetrised_eigenvalues(c.P, c.pi), 1e-7)
    assert report.multiplicities.tolist() == counts.tolist()
    assert np.abs(report.values - values).max() <= 1e-12


def pushed_off_rotation(c, eps):
    """``c`` with eps added to S(x, y) and S(y, x) at one pair of neighbouring states and at
    its reversal, and taken from their holds: still reversible, and J-invariant."""
    m, root = c.size, np.sqrt(c.pi)
    P = c.P.copy()
    for x, y in ((0, 1), (m - 1, m - 2)):
        P[x, y] += eps * root[y] / root[x]
        P[y, x] += eps * root[x] / root[y]
        P[x, x] -= eps * root[y] / root[x]
        P[y, y] -= eps * root[x] / root[y]
    return sd.ChainSpec(poset=c.poset, P=P, nu=c.nu, pi=c.pi)


def assert_groups_as_the_loop(values, tol):
    got, want = group_with_tolerance(values, tol), looped_groups(values, tol)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


class TestGroupWithTolerance:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_sorted_arrays_group_as_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            tol = float(rng.choice([0.0, 1e-9, 1e-3, 0.1, 0.5]))
            values = np.round(rng.random(rng.integers(0, 80)), rng.integers(1, 5))
            edges = values - tol
            edges = np.concatenate([edges, np.nextafter(edges, 2), np.nextafter(edges, -2)])
            values = np.concatenate([values, edges[rng.random(len(edges)) < 0.3]])
            assert_groups_as_the_loop(np.sort(values)[::-1], tol)

    def test_each_value_is_compared_with_its_groups_first(self):
        tol = 1e-7  # consecutive gaps of 0.6 tol, but 1.2 tol from the first
        values, counts = group_with_tolerance(np.array([1.0, 1.0 - 0.6 * tol, 1.0 - 1.2 * tol]), tol)
        assert values.tolist() == [1.0, 1.0 - 1.2 * tol] and counts.tolist() == [2, 1]

    @pytest.mark.parametrize(
        "first, tol, value, joins",
        [(0.536, 0.403, 0.13299999999999998, True), (1.247, 0.423, 0.8240000000000001, False)],
        ids=["within-by-rounding", "beyond-by-rounding"],
    )
    def test_a_value_at_the_edge_goes_by_the_difference(self, first, tol, value, joins):
        # first - tol rounds to the other side of value than |value - first| does of tol
        assert (value >= first - tol) != joins and (abs(value - first) <= tol) == joins
        assert_groups_as_the_loop(np.array([first, value, value]), tol)
        counts = group_with_tolerance(np.array([first, value]), tol)[1]
        assert counts.tolist() == ([2] if joins else [1, 1])

    def test_empty_and_single(self):
        assert_groups_as_the_loop(np.zeros(0), 0.1)
        assert_groups_as_the_loop(np.array([0.5]), 0.0)


def reversible_kernel(poset, seed, mirrored=False):
    """A random dense reversible chain on ``poset``: P = W / (row sums) for a symmetric W > 0,
    pi proportional to the row sums; W equals its index reversal if ``mirrored``."""
    rng = np.random.default_rng(seed)
    W = rng.random((poset.size, poset.size)) + 0.1
    W += W.T
    if mirrored:
        W += W[::-1, ::-1]
    sums = W.sum(axis=1)
    return sd.ChainSpec(poset=poset, P=W / sums[:, None], nu=np.eye(poset.size)[0], pi=sums / sums.sum())


def unshaped_poset():
    """0 < {a, b, c} < 1: no product of chains."""
    return sd.build_poset(["0", "a", "b", "c", "1"], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


GATE_CASES = [("ising", N, beta) for N in range(3, 11) for beta in (0.0, 0.5, 1.0, 2.0)]
GATE_CASES += [("cube", n, k) for n in range(1, 6) for k in range(1, 4)]
GATE_CASES += [("lattice", N, params) for N in (2, 5, 12) for params in LATTICE_PARAMS]
GATE_CASES += [("lattice", 4, (0.2, 0.2, 0.2, 0.2)), ("lattice", 4, (0.2, 0.3, 0.2, 0.3))]


def gate_case(kind, a, b):
    """(chain, generators it keeps): the circle and the cube keep J and the rotation; the
    lattice keeps J when lambda_a = mu_a and its swap of axes when the two axes' rates agree."""
    if kind == "ising":
        return ising(a, b), [reversal(2**a), rotation(2, a)]
    if kind == "cube":
        return cube(a, b), [reversal((b + 1) ** a), rotation(b + 1, a)]
    l1, l2, m1, m2 = b
    keeps = [reversal((a + 1) ** 2)] if (l1, l2) == (m1, m2) else []
    keeps += [rotation(a + 1, 2)] if (l1, m1) == (l2, m2) else []
    return lattice(a, b), keeps


class TestSpectrumNumeric:
    def test_lazy_unit_square(self):
        report = sd.spectrum_numeric(cube(2, 1))
        assert np.abs(report.values - [1.0, 0.5, 0.0]).max() <= 1e-10
        assert report.multiplicities.tolist() == [1, 2, 1]
        assert report.size == 4

    def test_ising_infinite_temperature(self):
        report = sd.spectrum_numeric(ising(3, 0.0))
        assert np.abs(report.values - [1.0, 2 / 3, 1 / 3, 0.0]).max() <= 1e-8
        assert report.multiplicities.tolist() == [1, 3, 3, 1]

    def test_identity_chain_all_ones(self):
        report = sd.spectrum_numeric(identity_chain())
        assert report.values.tolist() == [1.0]
        assert report.multiplicities.tolist() == [3]

    def test_values_within_unit_interval(self):
        for c in (ising(4, 0.5), lattice(2), cube(2, 3)):
            vals = sd.spectrum_numeric(c).expanded()
            assert vals.min() >= -1.0 - 1e-12 and vals.max() <= 1.0 + 1e-12

    def test_zero_in_pi_is_refused(self):
        # detailed balance holds (both fluxes are 0), but S divides by sqrt(pi)
        c = sd.ChainSpec(poset=sd.chain_poset(2), P=[[0.5, 0.5], [0, 1]], nu=[0, 1], pi=[0, 1])
        assert sd.is_reversible(c)
        with pytest.raises(MissingStationary, match="strictly positive"):
            sd.spectrum_numeric(c)

    def test_rejects_non_reversible(self):
        with pytest.raises(NotReversible):
            sd.spectrum_numeric(biased_cycle(0.9))

    @pytest.mark.parametrize("kind,a,b", SPLIT_CASES)
    def test_reversal_invariant_chain_splits_in_halves(self, eigvalsh_sizes, kind, a, b):
        c = reversal_invariant_chain(kind, a, b)
        report = sd.spectrum_numeric(c)
        side, axes = (b + 1, a) if kind == "cube" else (2, a)
        assert_character_blocks(c, [reversal(c.size), rotation(side, axes)], eigvalsh_sizes)
        assert_matches_full_spectrum(c, report)

    def test_loaded_ising_chain_splits_in_halves(self, eigvalsh_sizes, tmp_path):
        sd.save_chain(tmp_path / "ising.json", ising(6, 0.5))
        c = sd.load_chain(tmp_path / "ising.json").chain
        report = sd.spectrum_numeric(c)
        assert_character_blocks(c, [reversal(64), rotation(2, 6)], eigvalsh_sizes)
        assert len(eigvalsh_sizes) == 8 and max(eigvalsh_sizes)[0] == 8  # 4 real, 4 conjugate pairs
        assert_matches_full_spectrum(c, report)

    @pytest.mark.parametrize(
        "c,generators",
        [(cube(3, 2), [reversal(27), rotation(3, 3)]), (lattice(3), [rotation(4, 2)])],
        ids=["cube-odd-size", "lattice"],
    )
    def test_other_chains_take_one_full_eigensolve(self, eigvalsh_sizes, c, generators):
        report = sd.spectrum_numeric(c)
        assert_character_blocks(c, generators, eigvalsh_sizes)
        assert_matches_full_spectrum(c, report)

    @pytest.mark.parametrize("kind,a,b", GATE_CASES)
    def test_gate_cases_take_their_character_blocks(self, eigvalsh_sizes, kind, a, b):
        c, generators = gate_case(kind, a, b)
        report = sd.spectrum_numeric(c)
        assert_character_blocks(c, generators, eigvalsh_sizes)
        assert_matches_full_spectrum(c, report)

    def test_ising_path_takes_the_flip_only(self, eigvalsh_sizes):
        c = sd.ising_gibbs_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], 0.7)
        report = sd.spectrum_numeric(c)
        assert eigvalsh_sizes == [(16, True)] * 2
        assert_character_blocks(c, [reversal(32)], eigvalsh_sizes)
        assert_matches_full_spectrum(c, report)

    @pytest.mark.parametrize("eps,generators", [(1e-8, "J"), (1e-10, "JR")])
    def test_rotation_is_kept_within_the_reversible_tolerance(self, eigvalsh_sizes, eps, generators):
        c = pushed_off_rotation(ising(6, 0.5), eps)
        report = sd.spectrum_numeric(c)
        keeps = {"J": reversal(64), "R": rotation(2, 6)}
        assert_character_blocks(c, [keeps[g] for g in generators], eigvalsh_sizes)
        # a kept symmetry moves an eigenvalue by at most the row nonzero count (7) times the bound
        values, counts = group_with_tolerance(symmetrised_eigenvalues(c.P, c.pi), 1e-7)
        assert report.multiplicities.tolist() == counts.tolist()
        assert np.abs(report.values - values).max() <= (1e-12 if eps > REVERSIBLE_TOL else 7 * eps)

    @pytest.mark.parametrize(
        "c",
        [lattice(31, LATTICE_PARAMS[1]), lattice(5, LATTICE_PARAMS[1]),
         reversible_kernel(unshaped_poset(), 3), reversible_kernel(sd.chain_poset(6), 4)],
        ids=["lattice-31", "lattice-5", "unshaped", "chain-poset"],
    )
    def test_no_symmetry_takes_one_real_block(self, eigvalsh_sizes, c):
        report = sd.spectrum_numeric(c)
        assert eigvalsh_sizes == [(c.size, True)]
        assert_matches_full_spectrum(c, report)

    def test_the_one_block_is_S_itself(self, monkeypatch):
        c = reversible_kernel(unshaped_poset(), 5)
        blocks = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: blocks.append(a.copy()) or solve(a))
        sd.spectrum_numeric(c)
        root = np.sqrt(c.pi)
        S = root[:, None] * c.P / root[None, :]
        tril = np.tril_indices(c.size)
        assert np.array_equal(blocks[0][tril], ((S + S.T) * 0.5)[tril])

    def test_unshaped_mirrored_kernel_takes_the_flip(self, eigvalsh_sizes):
        c = reversible_kernel(unshaped_poset(), 6, mirrored=True)
        report = sd.spectrum_numeric(c)
        assert sorted(eigvalsh_sizes) == [(2, True), (3, True)]
        assert_character_blocks(c, [reversal(5)], eigvalsh_sizes)
        assert_matches_full_spectrum(c, report)

    def test_odd_cube_splits_around_its_fixed_middle_state(self, eigvalsh_sizes):
        c = cube(3, 2)
        middle = 13  # (1, 1, 1): fixed by J and by the rotation, so its orbit's stabiliser is G
        generators = [reversal(27), rotation(3, 3)]
        assert all(perm[middle] == middle for perm, _ in generators)
        report = sd.spectrum_numeric(c)
        assert_character_blocks(c, generators, eigvalsh_sizes)
        assert len(eigvalsh_sizes) == 4  # 2 real characters of Z2 x Z3, and 2 conjugate pairs
        assert_matches_full_spectrum(c, report)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 1.0 + 2**-40, 1.0 + 2**-20, 2.0, 0.0])
    def test_reversibility_decision_is_is_reversibles(self, scale):
        # a flux of scale * REVERSIBLE_TOL between states 0 and 1, or the same on a model
        c = reversible_kernel(unshaped_poset(), 7)
        P = c.P.copy()
        P[0, 1] += scale * REVERSIBLE_TOL / c.pi[0]
        P[0, 0] -= scale * REVERSIBLE_TOL / c.pi[0]
        for chain in (sd.ChainSpec(poset=c.poset, P=P, nu=c.nu, pi=c.pi), ising(4, scale)):
            dense = dense_worst_flux(chain.P, chain.pi) <= REVERSIBLE_TOL
            assert sd.is_reversible(chain, REVERSIBLE_TOL) == dense
            if sd.is_reversible(chain, REVERSIBLE_TOL):
                sd.spectrum_numeric(chain)
            else:
                with pytest.raises(NotReversible):
                    sd.spectrum_numeric(chain)

    def test_holds_less_than_one_kernel(self):
        # twelve character blocks of at most 56 states, against one symmetrised copy of S
        c = ising(10, 0.5)
        _, peak = peak_bytes(sd.spectrum_numeric, c)
        assert peak < c.P.nbytes

import math
import time
import warnings

import numpy as np
import pytest

import ssdual as sd
import ssdual.poset as poset_module
from conftest import LATTICE_PARAMS, cube, cube_closed_dual, cube_dual, ising, ising_dual, lattice
from ssdual.errors import BadParameters, TooLarge
from ssdual.models import _product_walk, _spin_poset, _spins, _steps


class TestIsingChain:
    def test_infinite_temperature_is_lazy_walk(self):
        c = ising(3, 0.0)
        for s in range(8):
            for i in range(3):
                assert c.P[s, s ^ (1 << i)] == pytest.approx(1 / 6)
            assert c.P[s, s] == pytest.approx(0.5)
        assert np.abs(c.pi - 0.125).max() <= 1e-15

    def test_global_flip_symmetry(self):
        c = ising(3, 0.5)
        assert c.pi[0] == pytest.approx(c.pi[-1], abs=1e-15)

    def test_neighbour_spin_sum_is_even(self):
        # circle vertices have two neighbours, so k+ - k- is -2, 0 or 2
        c = ising(5, 0.7)
        offdiag = {
            round(c.P[s, t], 12) for s in range(32) for t in range(32) if s != t and c.P[s, t] > 0
        }
        f = lambda d: 1.0 / (1.0 + np.exp(-2 * 0.7 * d))
        allowed = {round(x / 5, 12) for d in (-2, 0, 2) for x in (f(d), 1 - f(d))}
        assert offdiag <= allowed

    def test_rows_stochastic_and_reversible(self):
        c = ising(5, 1.0)
        assert np.abs(c.P.sum(axis=1) - 1.0).max() <= 1e-12
        assert sd.is_reversible(c, 1e-12)

    def test_circle_requires_three_vertices(self):
        with pytest.raises(BadParameters):
            sd.ising_circle(2, 0.5)

    def test_down_flip_keeps_relative_accuracy_at_high_beta(self):
        # from the all-up state every local field is 2, so the down flip has
        # probability 1/(1 + e^32) / N, which 1 - f would round to a multiple of eps
        c = sd.ising_circle(4, 8.0)
        for i in range(4):
            assert c.P[15, 15 ^ (1 << i)] == pytest.approx(1 / (1 + np.exp(32.0)) / 4, rel=1e-14)

    @pytest.mark.parametrize("N,beta", [(4, 300.0), (10, 40.0)], ids=["overflow", "underflow"])
    def test_gibbs_weights_out_of_range_are_rejected(self, N, beta):
        # exp(300 * 4) overflows; at N = 10, beta = 40 the normalized pi has exact zeros.
        # A RuntimeWarning would fail this test too: pyproject.toml makes it an error.
        with pytest.raises(BadParameters, match=f"beta = {beta!r}"):
            sd.ising_circle(N, beta)
        with pytest.raises(BadParameters, match=f"beta = {beta!r}"):
            sd.ising_gibbs_graph(N, [(i, (i + 1) % N) for i in range(N)], beta)

    def test_closed_form_dual_builds_where_the_chain_is_refused(self):
        # every down-set mass includes the all-down ground state, so none is 0
        d = sd.ising_circle_dual(10, 40.0)
        assert np.isfinite(d.P_star).all()

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_non_finite_beta_is_rejected(self, beta):
        with pytest.raises(BadParameters, match="beta"):
            sd.ising_circle(4, beta)
        with pytest.raises(BadParameters, match="beta"):
            sd.ising_circle_dual(4, beta)  # NaN reached the dual's row-sum check


class TestIsingGraph:
    def test_spec_keeps_int_pairs_and_hashes(self):
        # a list of edges and a tuple of the same edges give one spec
        listed, tupled = sd.IsingSpec(3, [(0, 1)], 0.5), sd.IsingSpec(3, ((0, 1),), 0.5)
        assert listed == tupled and hash(listed) == hash(tupled)
        assert listed.edges == ((0, 1),) and type(listed.edges[0][0]) is int
        assert sd.IsingSpec(3, [(np.int64(1), 2)], 0.5) == sd.IsingSpec(3, ((1, 2),), 0.5)

    def test_circle_graph_agrees_with_circle_model(self):
        edges = [(i, (i + 1) % 4) for i in range(4)]
        g = sd.ising_gibbs_graph(4, edges, 0.5)
        c = ising(4, 0.5)
        assert np.abs(g.P - c.P).max() <= 1e-15
        assert np.abs(g.pi - c.pi).max() <= 1e-15

    def test_heat_bath_rows_by_hand(self):
        edges = [(0, 1), (0, 2), (0, 3), (3, 4), (1, 4)]
        beta, n = 0.8, 5
        g = sd.ising_gibbs_graph(n, edges, beta)
        expect = np.zeros((1 << n, 1 << n))
        for s in range(1 << n):
            spin = [1 if s >> v & 1 else -1 for v in range(n)]
            for i in range(n):
                d = sum(spin[b] for a, b in edges if a == i)
                d += sum(spin[a] for a, b in edges if b == i)
                expect[s, s | (1 << i)] += 1 / (1 + np.exp(-2 * beta * d)) / n
                expect[s, s & ~(1 << i)] += 1 / (1 + np.exp(2 * beta * d)) / n
        assert np.abs(g.P - expect).max() <= 1e-15
        energy = [
            sum((1 if s >> a & 1 else -1) * (1 if s >> b & 1 else -1) for a, b in edges)
            for s in range(1 << n)
        ]
        weights = np.exp(beta * np.asarray(energy, dtype=float))
        assert np.abs(g.pi - weights / weights.sum()).max() <= 1e-15

    def test_path_at_infinite_temperature(self):
        g = sd.ising_gibbs_graph(3, [(0, 1), (1, 2)], 0.0)
        for s in range(8):
            for i in range(3):
                assert g.P[s, s ^ (1 << i)] == pytest.approx(1 / 6)

    def test_star_is_reversible(self):
        g = sd.ising_gibbs_graph(4, [(0, 1), (0, 2), (0, 3)], 0.3)
        assert sd.is_reversible(g, 1e-12)

    def test_disconnected_graph_warns(self):
        with pytest.warns(UserWarning, match="disconnected"):
            sd.ising_gibbs_graph(4, [(0, 1)], 0.2)

    def test_cap_comes_before_per_vertex_work(self, monkeypatch):
        # 2**20000 has more digits than str() converts, and the n x n
        # adjacency of 20000 vertices would take 3.2 GB; at 10**6 vertices,
        # even multiplying out the 2**n states takes half a minute
        monkeypatch.setattr("ssdual.models._adjacency", lambda spec: pytest.fail("adjacency built"))
        for n in (20000, 10**6):
            ring = [(i, (i + 1) % n) for i in range(n)]
            for build in (lambda: sd.ising_gibbs_graph(n, ring, 0.5), lambda: sd.ising_circle(n, 0.5)):
                begin = time.perf_counter()
                with pytest.raises(TooLarge, match=rf"at least 2\*\*{n} exceeds cap"):
                    build()
                assert time.perf_counter() - begin < 2.0

    def test_rejects_multigraph(self):
        with pytest.raises(BadParameters):
            sd.ising_gibbs_graph(3, [(0, 1), (1, 0)], 0.2)


class TestSpinPoset:
    @pytest.mark.parametrize("build", [sd.ising_circle, sd.ising_circle_dual])
    def test_order_is_built_once(self, monkeypatch, build):
        orders = []
        kron_axes = poset_module._kron_axes

        def spy(shape, axis_matrix):
            out = kron_axes(shape, axis_matrix)
            if out.dtype == bool:  # an order, not a Mobius function
                orders.append(tuple(shape))
            return out

        monkeypatch.setattr(poset_module, "_kron_axes", spy)
        build(6, 0.5)
        assert orders == [(2,) * 6]

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_equals_the_grid_with_spin_labels(self, n):
        p = _spin_poset(n)
        q = poset_module._grid((2,) * n, map(tuple, _spins(n).tolist()))
        assert p.labels == q.labels and p.covers == q.covers and p.shape == q.shape
        assert np.array_equal(p.enumeration, q.enumeration) and np.array_equal(p.leq, q.leq)
        assert [p.index(label) for label in q.labels] == list(range(q.size))


class TestIsingClosedDual:
    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_matches_generic_at_infinite_temperature(self, N):
        closed = sd.ising_circle_dual(N, 0.0)
        generic = ising_dual(N, 0.0)
        assert np.abs(closed.P_star - generic.P_star).max() <= 1e-10

    def test_diagonal_counts_up_spins(self):
        d = sd.ising_circle_dual(4, 0.0)
        diag = np.diag(d.P_star)
        assert diag[0] == 0.0
        assert diag[-1] == 1.0
        ups = np.array([bin(s).count("1") for s in range(16)])
        assert np.abs(diag - ups / 4).max() <= 1e-12

    def test_cover_moves_at_infinite_temperature(self):
        d = sd.ising_circle_dual(3, 0.0)
        for j in (1, 2, 4):
            assert d.P_star[0, j] == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_closed_form_swaps_match_generic_at_positive_beta(self, beta):
        # interacting spins make the dual swap a down spin with an adjacent
        # up spin, a move between incomparable states; the closed form
        # builds and carries exactly the generic dual's mass there
        closed = sd.ising_circle_dual(4, beta)
        generic = ising_dual(4, beta)
        leq = ising(4, beta).poset.leq
        sideways = ~leq & ~leq.T
        assert generic.P_star[sideways].max() > 0.01
        assert np.abs(closed.P_star[sideways] - generic.P_star[sideways]).max() <= 1e-10

    def test_generic_dual_moves_sideways_at_positive_beta(self):
        d = ising_dual(3, 0.5)
        one_up = ising(3, 0.5).poset.index((1, -1, -1))
        other = ising(3, 0.5).poset.index((-1, 1, -1))
        assert d.P_star[one_up, other] > 0.1

    def test_generic_dual_never_moves_strictly_down(self):
        for beta in (0.0, 0.5, 1.0):
            d = ising_dual(4, beta)
            c = ising(4, beta)
            strictly_below = c.poset.leq.T & ~np.eye(c.size, dtype=bool)
            assert np.abs(d.P_star[strictly_below]).max() <= 1e-12

    @pytest.mark.parametrize("N,beta", [(4, 0.5), (5, 1.0)])
    def test_full_dual_structure_from_hand_algebra(self, N, beta):
        # complete row decomposition of the true dual: hold with S(e)/N,
        # flip a down spin up with (H'/H)(1/N)(1 - f), swap an up spin for an
        # adjacent down spin with (H'/H)(1/N)(f(j, e) - f(j, e - s_i)), and
        # nothing else
        c = ising(N, beta)
        d = ising_dual(N, beta)
        H = sd.down_set_masses(c.poset, c.pi)

        def flip_up_probability(state, vertex):
            spins = [1 if state >> v & 1 else -1 for v in range(N)]
            field = spins[(vertex - 1) % N] + spins[(vertex + 1) % N]
            return 1.0 / (1.0 + np.exp(-2.0 * beta * field))

        expect = np.zeros((c.size, c.size))
        for s in range(c.size):
            expect[s, s] = bin(s).count("1") / N
            for j in range(N):
                if s >> j & 1:
                    continue
                up = s | 1 << j
                expect[s, up] = (H[up] / H[s]) * (1 - flip_up_probability(s, j)) / N
                for i in range(N):
                    if i != j and s >> i & 1:
                        swapped = (s & ~(1 << i)) | 1 << j
                        rate = flip_up_probability(s, j) - flip_up_probability(s & ~(1 << i), j)
                        expect[s, swapped] = (H[swapped] / H[s]) * rate / N
        expect[-1] = 0.0
        expect[-1, -1] = 1.0
        assert np.abs(d.P_star - expect).max() <= 1e-12


def kronecker_sum(shape, moves):
    """Sum over axes a of I x moves[a] x I (coordinate 0 fastest), holding 1 - row sum."""
    size = math.prod(shape)
    P = np.zeros((size, size))
    for a, A in enumerate(moves):
        P += np.kron(np.eye(math.prod(shape[a + 1:])), np.kron(A, np.eye(math.prod(shape[:a]))))
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    return P


def assert_is_kronecker_sum(P, shape, moves):
    """The moves are copied exactly; the holds, summed axis by axis, agree to rounding."""
    expect = kronecker_sum(shape, moves)
    off = ~np.eye(len(P), dtype=bool)
    assert np.array_equal(P[off], expect[off])
    assert np.abs(np.diag(P) - np.diag(expect)).max() <= 4.4e-16


def birth_death_dual(N, lam, mu):
    """build_dual of the walk on 0..N that steps up with lam and down with mu."""
    P = np.diag(np.full(N, lam), 1) + np.diag(np.full(N, mu), -1)
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    pi = (lam / mu) ** np.arange(N + 1)
    chain = sd.ChainSpec(poset=sd.chain_poset(N + 1), P=P, nu=np.eye(N + 1)[0], pi=pi / pi.sum())
    return sd.build_dual(chain).P_star


class TestProductWalk:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_explicit_kronecker_sum(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(s) for s in rng.integers(1, 5, size=rng.integers(1, 5)))
        moves = []
        for s in shape:
            A = rng.random((s, s)) / (len(shape) * max(s - 1, 1))
            np.fill_diagonal(A, 0.0)
            moves.append(A)
        P = _product_walk(sd.grid_poset(shape), moves)
        assert_is_kronecker_sum(P, shape, moves)

    @pytest.mark.parametrize("shape", [(1,), (1, 3), (2, 1, 3, 1)])
    def test_length_one_axes_never_move(self, shape):
        moves = [np.full((s, s), 0.1) - 0.1 * np.eye(s) for s in shape]
        P = _product_walk(sd.grid_poset(shape), moves)
        assert_is_kronecker_sum(P, shape, moves)

    def test_weights_out_of_an_integer_total_give_exact_holds(self):
        # 7 moves of 1/14 sum to 0.5 only up to rounding; 7 out of 14 is exact
        P = _product_walk(sd.grid_poset((2,) * 7), [1.0 - np.eye(2)] * 7, total=14)
        assert (np.diag(P) == 0.5).all()
        assert P[0, 1] == 1.0 / 14


class TestLatticeChain:
    @pytest.mark.parametrize("params", LATTICE_PARAMS)
    def test_kernel_is_the_product_walk(self, params):
        l1, l2, m1, m2 = params
        moves = [_steps(np.full(24, lam), np.full(24, mu)) for lam, mu in ((l1, m1), (l2, m2))]
        expect = _product_walk(sd.grid_poset((25, 25)), moves)
        assert np.array_equal(lattice(24, params).P, expect)

    def test_interior_row_has_five_moves(self):
        c = lattice(2)
        s = c.poset.index((1, 1))
        assert int((c.P[s] > 0).sum()) == 5

    def test_corner_feedback(self):
        l1, l2, m1, m2 = LATTICE_PARAMS[0]
        c = lattice(2)
        assert c.P[0, 0] == pytest.approx(1 - (l1 + l2), abs=1e-15)

    def test_top_corner_feedback(self):
        l1, l2, m1, m2 = LATTICE_PARAMS[0]
        c = lattice(2)
        assert c.P[-1, -1] == pytest.approx(1 - (m1 + m2), abs=1e-15)

    def test_balanced_rates_give_uniform_law(self):
        spec = sd.LatticeSpec(N=2, lambda1=0.2, lambda2=0.2, mu1=0.2, mu2=0.2)
        c = sd.lattice_walk(spec)
        assert np.abs(c.pi - 1 / 9).max() <= 1e-15

    def test_geometric_profile(self):
        c = lattice(2)
        spec = sd.LatticeSpec(N=2, lambda1=0.2, lambda2=0.2, mu1=0.25, mu2=0.25)
        x, y = 2, 1
        idx = c.poset.index((x, y))
        assert c.pi[idx] / c.pi[0] == pytest.approx(spec.rho1**x * spec.rho2**y, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(BadParameters):
            sd.LatticeSpec(N=2, lambda1=0.4, lambda2=0.4, mu1=0.2, mu2=0.2)
        with pytest.raises(BadParameters):
            sd.LatticeSpec(N=2, lambda1=0.0, lambda2=0.2, mu1=0.2, mu2=0.2)

    def test_full_case_table(self):
        # every row of the kernel, written out by border case
        l1, l2, m1, m2 = 0.15, 0.3, 0.25, 0.2
        N = 2
        c = sd.lattice_walk(sd.LatticeSpec(N=N, lambda1=l1, lambda2=l2, mu1=m1, mu2=m2))
        expect = np.zeros((9, 9))
        for y in range(N + 1):
            for x in range(N + 1):
                s = x + (N + 1) * y
                if x + 1 <= N:
                    expect[s, s + 1] = l1
                if x - 1 >= 0:
                    expect[s, s - 1] = m1
                if y + 1 <= N:
                    expect[s, s + N + 1] = l2
                if y - 1 >= 0:
                    expect[s, s - N - 1] = m2
                if 0 < x and 0 < y:
                    hold = 1 - (l1 + l2 + m1 + m2)
                    if x == N:
                        hold += l1
                    if y == N:
                        hold += l2
                elif x > 0 and y == 0:
                    hold = 1 - (l1 + l2 + m1) + (l1 if x == N else 0.0)
                elif x == 0 and y > 0:
                    hold = 1 - (l1 + l2 + m2) + (l2 if y == N else 0.0)
                else:
                    hold = 1 - (l1 + l2)
                expect[s, s] = hold
        assert np.abs(c.P - expect).max() <= 1e-15


class TestLatticeClosedDual:
    @pytest.mark.parametrize("params", LATTICE_PARAMS, ids=["balanced", "skew"])
    @pytest.mark.parametrize("N", [1, 2])
    def test_matches_generic(self, N, params):
        l1, l2, m1, m2 = params
        spec = sd.LatticeSpec(N=N, lambda1=l1, lambda2=l2, mu1=m1, mu2=m2)
        closed = sd.lattice_walk_dual(spec)
        generic = sd.build_dual(sd.lattice_walk(spec))
        assert np.abs(closed.P_star - generic.P_star).max() <= 1e-10

    def test_axis_row_sum_identity(self):
        # mu (1 - rho^{x+2}) + lambda (1 - rho^x) = (lambda + mu)(1 - rho^{x+1})
        spec = sd.LatticeSpec(N=3, lambda1=0.15, lambda2=0.3, mu1=0.25, mu2=0.2)
        d = sd.lattice_walk_dual(spec)
        assert np.abs(d.P_star.sum(axis=1) - 1.0).max() <= 1e-12

    def test_first_step_value(self):
        spec = sd.LatticeSpec(N=1, lambda1=0.2, lambda2=0.2, mu1=0.25, mu2=0.25)
        d = sd.lattice_walk_dual(spec)
        assert d.P_star[0, 1] == pytest.approx(0.45, abs=1e-15)

    def test_upper_border_only_moves_along_the_border(self):
        spec = sd.LatticeSpec(N=2, lambda1=0.15, lambda2=0.3, mu1=0.25, mu2=0.2)
        d = sd.lattice_walk_dual(spec)
        poset = sd.lattice_walk(spec).poset
        s = poset.index((1, 2))  # y on the upper border
        moves = {poset.labels[j] for j in np.nonzero(d.P_star[s])[0]}
        assert moves == {(0, 2), (1, 2), (2, 2)}

    @pytest.mark.parametrize("params", LATTICE_PARAMS, ids=["balanced", "skew"])
    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_is_kronecker_sum_of_axis_duals(self, N, params):
        l1, l2, m1, m2 = params
        closed = sd.lattice_walk_dual(sd.LatticeSpec(N=N, lambda1=l1, lambda2=l2, mu1=m1, mu2=m2))
        D1, D2 = birth_death_dual(N, l1, m1), birth_death_dual(N, l2, m2)
        eye = np.eye(N + 1)
        expect = np.kron(eye, D1) + np.kron(D2, eye) - np.eye((N + 1) ** 2)
        assert np.abs(closed.P_star - expect).max() <= 1e-12

    @pytest.mark.parametrize("params", [(0.2, 0.4, 0.3, 0.1), (0.05, 0.1, 0.3, 0.55)])
    def test_rates_summing_to_one_hold_nothing_inside(self, params):
        # the interior holds are 0 up to rounding, which must not make them negative:
        # 1 - (0.2 + 0.4 + 0.3 + 0.1) is -2.2e-16, and so is 1 - the second's dual row sum
        l1, l2, m1, m2 = params
        spec = sd.LatticeSpec(N=3, lambda1=l1, lambda2=l2, mu1=m1, mu2=m2)
        closed = sd.lattice_walk_dual(spec)
        assert closed.P_star.min() == 0.0
        generic = sd.build_dual(sd.lattice_walk(spec))
        assert np.abs(closed.P_star - generic.P_star).max() <= 1e-10

    @pytest.mark.parametrize(
        "lambda1", [0.24999999, np.nextafter(0.25, 0.0), np.nextafter(0.25, 1.0), 0.25000001]
    )
    def test_rates_near_balance_match_generic(self, lambda1):
        # 1 - rho^x by subtraction cancels here: 2.9e-10 off build_dual at 0.24999999
        spec = sd.LatticeSpec(N=5, lambda1=lambda1, lambda2=0.2, mu1=0.25, mu2=0.25)
        closed = sd.lattice_walk_dual(spec)
        generic = sd.build_dual(sd.lattice_walk(spec))
        assert np.abs(closed.P_star - generic.P_star).max() <= 1e-12

    def test_strongly_skewed_rates_stay_finite(self):
        # rho1 = 6e7: rho1^40 overflows unless the weights are taken over rho1^N
        spec = sd.LatticeSpec(N=40, lambda1=0.3, lambda2=0.2, mu1=5e-9, mu2=0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = sd.lattice_walk(spec)
            closed = sd.lattice_walk_dual(spec)
        for a in (chain.P, chain.pi, closed.P_star):
            assert np.isfinite(a).all()
        assert chain.pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(closed.P_star.sum(axis=1) - 1.0).max() <= 1e-12

    def test_underflowing_stationary_weights_are_rejected(self):
        # rho1 = 3e8: 114 of the 1681 stationary weights underflow to 0
        spec = sd.LatticeSpec(N=40, lambda1=0.3, lambda2=0.2, mu1=1e-9, mu2=0.25)
        with pytest.raises(BadParameters, match="rho1 = 3e\\+08"):
            sd.lattice_walk(spec)
        closed = sd.lattice_walk_dual(spec)  # its rates are ratios of sums, not weights
        assert np.abs(closed.P_star.sum(axis=1) - 1.0).max() <= 1e-12

    def test_nan_rate_is_rejected(self):
        # min and max drop a NaN, so the dual of mu2 = NaN came out as mu2 = lambda2
        with pytest.raises(BadParameters, match="finite"):
            sd.lattice_walk_dual(sd.LatticeSpec(3, 0.2, 0.2, 0.25, math.nan))

    def test_requires_distinct_rates(self):
        with pytest.raises(BadParameters):
            sd.lattice_walk_dual(sd.LatticeSpec(N=1, lambda1=0.2, lambda2=0.2, mu1=0.2, mu2=0.25))

    def test_absorbing_at_top_corner(self):
        spec = sd.LatticeSpec(N=2, lambda1=0.15, lambda2=0.3, mu1=0.25, mu2=0.2)
        d = sd.lattice_walk_dual(spec)
        assert d.absorbing_index == d.size - 1


class TestCubeChain:
    def test_unit_cube_is_lazy_walk(self):
        c = cube(3, 1)
        for s in range(8):
            assert c.P[s, s] == pytest.approx(0.5)
            for i in range(3):
                assert c.P[s, s ^ (1 << i)] == pytest.approx(1 / 6)

    def test_row_support_size(self):
        for (n, k) in [(2, 2), (3, 2), (2, 3)]:
            c = cube(n, k)
            support = (c.P > 0).sum(axis=1)
            assert (support == 1 + n * k).all()

    def test_rows_sum_to_one(self):
        c = cube(3, 3)
        assert np.abs(c.P.sum(axis=1) - 1.0).max() <= 1e-12

    def test_uniform_stationary(self):
        c = cube(2, 3)
        assert np.abs(c.pi - 1 / 16).max() <= 1e-15

    @pytest.mark.parametrize("n,k", [(7, 1), (2, 5), (5, 2)])
    def test_holds_exactly_half(self, n, k):
        c = sd.kary_cube(sd.CubeSpec(n=n, k=k))
        assert (np.diag(c.P) == 0.5).all()


class TestCubeClosedDual:
    def test_bottom_row_values(self):
        d = cube_closed_dual(2, 2)
        assert d.P_star[0, 0] == pytest.approx(0.25, abs=1e-15)
        assert d.P_star[0, 2] == pytest.approx(0.375, abs=1e-15)
        assert d.P_star[0, 6] == pytest.approx(0.375, abs=1e-15)

    @pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 2)])
    def test_matches_generic_on_corner_rows(self, n, k):
        closed = cube_closed_dual(n, k)
        generic = cube_dual(n, k)
        radices = [(k + 1) ** i for i in range(n)]
        for mask in range(1 << n):
            s = sum(k * radices[i] for i in range(n) if mask >> i & 1)
            assert np.abs(closed.P_star[s] - generic.P_star[s]).max() <= 1e-10

    @pytest.mark.parametrize("n", [6, 7, 9])
    def test_unit_cube_bottom_never_holds(self, n):
        # each of the n coordinates jumps with 1/n; the hold is an exact zero
        d = sd.kary_cube_dual(sd.CubeSpec(n=n, k=1))
        assert d.P_star[0, 0] == 0.0

    def test_reachable_part_is_unit_cube_walk(self):
        n, k = 3, 2
        sub = sd.restrict_to_reachable(cube_closed_dual(n, k))
        assert sub.size == 2**n
        move = (k + 1) / (2 * n * k)
        expect = np.zeros((8, 8))
        for mask in range(8):
            count = bin(mask).count("1")
            expect[mask, mask] = (n * (k - 1) + count * (k + 1)) / (2 * n * k)
            for i in range(n):
                if not mask >> i & 1:
                    expect[mask, mask | (1 << i)] = move
        assert np.abs(sub.P_star - expect).max() <= 1e-12

    @pytest.mark.parametrize("n,k", [(3, 1), (2, 2), (3, 2), (2, 3)])
    def test_unit_cube_case_is_fully_closed_form(self, n, k):
        # every row, including those the dual never visits from the bottom
        closed = cube_closed_dual(n, k)
        generic = cube_dual(n, k)
        assert np.abs(closed.P_star - generic.P_star).max() <= 1e-10
        assert np.array_equal(closed.nu_star, generic.nu_star)

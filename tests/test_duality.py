import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssdual as sd
import ssdual.duality as duality_module
import ssdual.poset as poset_module
from conftest import LATTICE_PARAMS, cube, cube_dual, ising, ising_dual, lattice, lattice_dual
from conftest import MODELS, rotating_dual
from oracles import dense_dual, down_set_sums, peak_bytes
from ssdual.chain import DEFAULT_TOL
from ssdual.errors import (
    BadParameters,
    DimensionMismatch,
    MissingStationary,
    MonotonicityViolated,
    NoAbsorbingState,
    NotRowStochastic,
    NoUniqueMax,
)


def flip_chain():
    return sd.ChainSpec(
        poset=sd.chain_poset(2), P=[[0, 1], [1, 0]], nu=[1, 0], pi=[0.5, 0.5]
    )


class TestKernelMonotonicity:
    def test_flip_chain_transform(self):
        report = sd.check_mobius_monotone(flip_chain().P, sd.chain_poset(2), "down")
        assert report.transformed.tolist() == [[-1.0, 0.0], [1.0, 1.0]]
        assert report.min_entry == -1.0
        assert not report.passed
        assert report.witness == (0, 0)

    def test_identity_kernel_passes_everywhere(self):
        p = sd.grid_poset([2, 3])
        report = sd.check_mobius_monotone(np.eye(p.size), p, "down")
        assert np.array_equal(report.transformed, np.eye(p.size))
        assert report.passed

    @pytest.mark.parametrize("N", [3, 4, 6])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_ising_down_monotone(self, N, beta):
        c = ising(N, beta)
        report = sd.check_mobius_monotone(sd.time_reversal(c), c.poset, "down", tol=1e-9)
        assert report.passed

    def test_ising_down_monotone_larger_circle(self):
        c = sd.ising_circle(8, 0.5)
        assert sd.check_mobius_monotone(sd.time_reversal(c), c.poset, "down", tol=1e-9).passed

    def test_lattice_down_monotone_any_parameters(self):
        for params in LATTICE_PARAMS:
            c = lattice(2, params)
            assert sd.check_mobius_monotone(sd.time_reversal(c), c.poset, "down").passed

    def test_up_direction(self):
        c = cube(2, 1)
        assert sd.check_mobius_monotone(c.P, c.poset, "up").passed

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sd.check_mobius_monotone(np.eye(3), sd.chain_poset(2), "down")

    @staticmethod
    def certified(monkeypatch, T):
        """The report on ``T`` itself: each signed factor the identity, each bound zero."""

        def transform(p, a, left=None, right=None):
            return np.zeros(a.shape) if (left or right).startswith("|") else np.array(a)

        monkeypatch.setattr(duality_module, "_mobius_apply", transform)
        with np.errstate(invalid="ignore"):  # the kernel defect of a NaN or -inf entry
            return sd.check_mobius_monotone(T, sd.chain_poset(len(T)), "down")

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "marks",
        [
            {(1, 3): -1.0, (2, 0): -1.0, (3, 4): -1.0},
            {(3, 1): np.nan, (2, 4): np.nan, (0, 0): -5.0},
            {(4, 0): -np.inf, (0, 2): -np.inf, (1, 1): np.nan},
            {(4, 0): -np.inf, (0, 2): -np.inf, (1, 1): -2.0},
        ],
        ids=["ties", "nan", "nan-beside-inf", "inf"],
    )
    def test_witness_is_the_first_minimum_in_row_major_order(self, monkeypatch, order, marks):
        # column-major order would name another entry, except where NaN beats -inf
        T = np.arange(25.0).reshape(5, 5)
        for at, value in marks.items():
            T[at] = value
        report = self.certified(monkeypatch, np.array(T, order=order))
        expected = tuple(int(i) for i in np.unravel_index(np.argmin(T), T.shape))
        assert report.witness == expected
        np.testing.assert_equal(report.min_entry, T[expected])

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "marks,expected",
        [
            ({(7, 1): -1.0, (5, 207): -1.0, (5, 105): -1.0}, (5, 105)),
            ({(2, 0): -np.inf, (60, 314): np.nan, (61, 103): np.nan}, (60, 314)),
        ],
        ids=["ties-across-slabs", "nan-in-a-later-slab"],
    )
    def test_witness_across_column_slabs(self, monkeypatch, order, marks, expected):
        # 320 states: slabs of 103 columns, the last of 11, so slab-major order
        # would name (7, 1) or (61, 103)
        assert poset_module._SLAB_ENTRIES == 1 << 15
        T = np.arange(320.0 * 320).reshape(320, 320)
        for at, value in marks.items():
            T[at] = value
        report = self.certified(monkeypatch, np.array(T, order=order))
        assert report.witness == expected
        np.testing.assert_equal(report.min_entry, T[expected])
        assert not report.passed


class TestInitialDensityMonotonicity:
    def test_atom_at_bottom_passes(self):
        assert sd.check_g_monotone(ising(3, 0.5)).passed

    def test_stationary_start_passes(self):
        c = cube(2, 2)
        flat = sd.ChainSpec(poset=c.poset, P=c.P, nu=c.pi, pi=c.pi)
        report = sd.check_g_monotone(flat)
        assert report.passed

    def test_atom_at_top_fails_on_square(self):
        c = cube(2, 1)
        top = sd.ChainSpec(poset=c.poset, P=c.P, nu=[0, 0, 0, 1], pi=c.pi)
        report = sd.check_g_monotone(top)
        assert not report.passed
        assert report.min_entry == pytest.approx(-4.0)

    def test_requires_stationary(self):
        c = sd.ChainSpec(poset=sd.chain_poset(2), P=np.full((2, 2), 0.5), nu=[1, 0])
        with pytest.raises(MissingStationary):
            sd.check_g_monotone(c)


class TestLink:
    def test_rows_are_truncated_stationary(self):
        c = ising(4, 0.5)
        link = sd.build_link(c.poset, c.pi)
        assert np.abs(link.matrix.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(link.matrix[-1] - c.pi).max() <= 1e-15
        bottom = np.zeros(c.size)
        bottom[0] = 1.0
        assert np.array_equal(link.matrix[0], bottom)

    def test_top_column_vanishes_off_top(self):
        c = lattice(2)
        link = sd.build_link(c.poset, c.pi)
        assert not link.matrix[:-1, -1].any()

    def test_down_masses_match_brute_force(self):
        c = lattice(2)
        link = sd.build_link(c.poset, c.pi)
        assert np.abs(link.down_mass - down_set_sums(c.poset.leq, c.pi)).max() <= 1e-14

    def test_cube_corner_mass_ratio(self):
        # adding one full coordinate multiplies the down-set count by k + 1
        for (n, k) in [(2, 2), (3, 3)]:
            c = cube(n, k)
            H = sd.down_set_masses(c.poset, c.pi)
            radices = [(k + 1) ** i for i in range(n)]
            for mask in range(1 << n):
                s = sum(k * radices[i] for i in range(n) if mask >> i & 1)
                for j in range(n):
                    if not mask >> j & 1:
                        t = s + k * radices[j]
                        assert H[t] / H[s] == pytest.approx(k + 1, abs=1e-12)

    def test_requires_unique_max(self):
        p = sd.build_poset([0, 1], [])
        with pytest.raises(NoUniqueMax):
            sd.build_link(p, np.array([0.5, 0.5]))

    def test_zero_in_pi_is_refused(self):
        with pytest.raises(MissingStationary, match="strictly positive"):
            sd.build_link(sd.chain_poset(3), np.array([0.5, 0.0, 0.5]))

    def test_allocates_no_kernel(self):
        # pi and the down-set masses: the matrix is built only on request
        c = ising(10, 0.5)
        link, peak = peak_bytes(sd.build_link, c.poset, c.pi)
        assert peak < 0.01 * c.P.nbytes
        assert "matrix" not in link.__dict__

    def test_matrix_is_the_dense_link(self):
        c = lattice(3)
        link = sd.build_link(c.poset, c.pi)
        dense = c.poset.leq.T * c.pi[None, :] / down_set_sums(c.poset.leq, c.pi)[:, None]
        assert np.abs(link.matrix - dense).max() <= 1e-15
        assert link.matrix is link.matrix and not link.matrix.flags.writeable

    def test_link_does_not_build_mobius_pair(self):
        p = sd.grid_poset([3, 3])
        pi = np.full(9, 1 / 9)
        sd.build_link(p, pi)
        sd.down_set_masses(p, pi)
        assert "_mobius_pair" not in p.__dict__


class TestBuildDual:
    def test_ising_infinite_temperature_bottom_row(self):
        d = ising_dual(3, 0.0)
        row = d.P_star[0]
        assert row[0] == pytest.approx(0.0, abs=1e-15)
        covers = [1, 2, 4]
        assert np.abs(row[covers] - 1 / 3).max() <= 1e-12
        assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_cube_bottom_row(self):
        d = cube_dual(2, 2)
        row = d.P_star[0]
        assert row[0] == pytest.approx(0.25, abs=1e-12)
        assert row[2] == pytest.approx(0.375, abs=1e-12)
        assert row[6] == pytest.approx(0.375, abs=1e-12)

    def test_lattice_first_step(self):
        d = lattice_dual(1)
        assert d.P_star[0, 1] == pytest.approx(0.45, abs=1e-12)

    def test_initial_atom_collapses_exactly(self):
        for d in (ising_dual(4, 1.0), cube_dual(3, 2), lattice_dual(2)):
            expect = np.zeros(d.size)
            expect[0] = 1.0
            assert np.array_equal(d.nu_star, expect)

    def test_absorbing_row_is_unit(self):
        d = ising_dual(4, 0.5)
        unit = np.zeros(d.size)
        unit[-1] = 1.0
        assert np.abs(d.P_star[-1] - unit).max() <= 1e-12

    def test_monotonicity_failure_raises_with_witness(self):
        with pytest.raises(MonotonicityViolated, match="not down-Mobius monotone"):
            sd.build_dual(flip_chain())

    def test_bad_initial_distribution_raises(self):
        c = cube(2, 1)
        top = sd.ChainSpec(poset=c.poset, P=c.P, nu=[0, 0, 0, 1], pi=c.pi)
        with pytest.raises(MonotonicityViolated, match="initial density"):
            sd.build_dual(top)

    def test_requires_stationary(self):
        c = sd.ChainSpec(poset=sd.chain_poset(2), P=np.full((2, 2), 0.5), nu=[1, 0])
        with pytest.raises(MissingStationary):
            sd.build_dual(c)

    def test_unnormalized_initial_distribution_names_its_sum(self):
        c = sd.ChainSpec(
            poset=sd.chain_poset(2), P=np.full((2, 2), 0.5), nu=[0.5, 0.0], pi=[0.5, 0.5]
        )
        with pytest.raises(NotRowStochastic, match=r"distribution sums to 0\.5$"):
            sd.build_dual(c)

    def test_holds_under_two_and_a_quarter_kernels(self):
        # the dual and one block of down-set sums; test_holds_one_and_a_half_kernels
        # bounds the same call closer
        c = ising(10, 0.5)
        _, peak = peak_bytes(sd.build_dual, c)
        assert peak < 2.25 * c.P.nbytes

    def test_holds_one_and_a_half_kernels(self):
        # the dual and one block of down-set sums, decided and written one slab of rows at a
        # time: no time reversal, no transformed copy and no zero mask
        c = ising(10, 0.5)
        _, peak = peak_bytes(sd.build_dual, c)
        assert peak <= 1.5 * c.P.nbytes

    def test_symmetric_two_state_jumps_to_top(self):
        c = sd.ChainSpec(
            poset=sd.chain_poset(2), P=np.full((2, 2), 0.5), nu=[1.0, 0.0], pi=[0.5, 0.5]
        )
        d = sd.build_dual(c)
        assert np.abs(d.P_star - [[0.0, 1.0], [0.0, 1.0]]).max() <= 1e-14


def cycle_chain(nu):
    """A cycle 0 -> 1 -> 2 -> 0 with holds on the chain 0 < 1 < 2: its time reversal is not
    down-Mobius monotone."""
    P = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
    return sd.ChainSpec(poset=sd.chain_poset(3), P=P, nu=nu, pi=[1 / 3] * 3)


NEGATIVE_CONTROLS = {
    "flip": flip_chain,
    "cube-from-top": lambda: sd.ChainSpec(cube(2, 1).poset, cube(2, 1).P, [0, 0, 0, 1], cube(2, 1).pi),
    "cycle": lambda: cycle_chain([1, 0, 0]),
    "cycle-from-top": lambda: cycle_chain([0, 0, 1]),
}


class TestSlabBuild:
    # build_dual decides and writes the dual one slab of rows at a time from the down-set sums;
    # the dense checks of _hypotheses and the dense formula are its reference
    @pytest.mark.parametrize("case", [*MODELS, *NEGATIVE_CONTROLS])
    def test_agrees_with_the_dense_checks_and_formula(self, case):
        if case in MODELS:
            chain, _, *args = MODELS[case]
            c = chain(*args)
        else:
            c = NEGATIVE_CONTROLS[case]()
        reports, failures = duality_module._hypotheses(c, "down", DEFAULT_TOL)
        assert bool(failures) == (case in NEGATIVE_CONTROLS)
        if failures:
            with pytest.raises(MonotonicityViolated) as info:
                sd.build_dual(c)
            assert type(info.value) is type(failures[0]) and str(info.value) == str(failures[0])
            assert info.value.report.witness == failures[0].report.witness
            return
        d = sd.build_dual(c)
        P_star, nu_star = dense_dual(*reports, sd.down_set_masses(c.poset, c.pi))
        assert np.abs(d.P_star - P_star).max() <= 1e-15
        assert np.array_equal(d.P_star != 0, P_star != 0)
        assert d.nu_star.tobytes() == nu_star.tobytes()


class TestDebrisRule:
    # build_dual zeroes each entry within its own error bound, so its kernel
    # has the nonzero pattern of the closed form.
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("N", [4, 6, 8])
    def test_ising_pattern_is_closed_form(self, N, beta):
        closed = sd.ising_circle_dual(N, beta)
        assert np.array_equal(ising_dual(N, beta).P_star != 0, closed.P_star != 0)

    def test_ising_at_high_beta(self):
        # down flips of probability about 1e-14 stay accurate, so the reversal
        # passes the monotonicity check and the pattern is the closed form's
        closed = sd.ising_circle_dual(4, 8.0)
        generic = sd.build_dual(sd.ising_circle(4, 8.0))
        assert np.array_equal(generic.P_star != 0, closed.P_star != 0)
        # the mean is about 1.5e14, so I - Q is ill-conditioned; horizon 0
        # because the default horizon would take 6e14 steps
        mean = sd.absorption_survival(generic, 0).mean
        assert mean == pytest.approx(sd.absorption_survival(closed, 0).mean, rel=0.05)

    @pytest.mark.parametrize(
        "rates", [(1e-13, 0.2, 0.3, 0.1), (0.3, 0.2, 1e-13, 0.1)], ids=["lambda1", "mu1"]
    )
    def test_tiny_rates_are_kept(self, rates):
        # the down-moves (lambda1) or up-moves (mu1) along x are about 1e-13:
        # genuine entries, far above their own error bound
        spec = sd.LatticeSpec(5, *rates)
        generic = sd.build_dual(sd.lattice_walk(spec))
        assert np.array_equal(generic.P_star != 0, sd.lattice_walk_dual(spec).P_star != 0)

    def test_tiny_only_route_to_absorption_is_kept(self):
        # every move along y is below 1e-12, so the absorbing corner is
        # reachable only through entries an absolute 1e-12 cutoff deletes
        spec = sd.LatticeSpec(3, lambda1=0.3, lambda2=1e-14, mu1=0.1, mu2=1e-13)
        generic = sd.build_dual(sd.lattice_walk(spec))
        closed = sd.lattice_walk_dual(spec)
        assert np.array_equal(generic.P_star != 0, closed.P_star != 0)
        # the mean is about 3e13, so I - Q is nearly singular and each solve
        # keeps only about three digits
        mean = sd.absorption_survival(generic, 0).mean
        assert mean == pytest.approx(sd.absorption_survival(closed, 0).mean, rel=1e-2)

    def test_lattice_pattern_is_closed_form(self):
        l1, l2, m1, m2 = LATTICE_PARAMS[0]
        spec = sd.LatticeSpec(N=8, lambda1=l1, lambda2=l2, mu1=m1, mu2=m2)
        closed = sd.lattice_walk_dual(spec)
        assert np.array_equal(lattice_dual(8).P_star != 0, closed.P_star != 0)

    @pytest.mark.parametrize("n,k", [(3, 2), (6, 3)])
    def test_cube_pattern_is_closed_form(self, n, k):
        # built here, not cached: the generic dual of the 4096-state cube
        # (6, 3) takes about 1 GB to build
        spec = sd.CubeSpec(n=n, k=k)
        generic = sd.build_dual(sd.kary_cube(spec))
        assert np.array_equal(generic.P_star != 0, sd.kary_cube_dual(spec).P_star != 0)


class TestIntertwining:
    @pytest.mark.parametrize(
        "chain,dual",
        [
            (ising(3, 0.5), ising_dual(3, 0.5)),
            (ising(5, 1.0), ising_dual(5, 1.0)),
            (cube(3, 2), cube_dual(3, 2)),
            (lattice(2), lattice_dual(2)),
        ],
        ids=["ising3", "ising5", "cube32", "lattice2"],
    )
    def test_constructed_duals_intertwine(self, chain, dual):
        link = sd.build_link(chain.poset, chain.pi)
        kernel, initial = sd.intertwining_residuals(chain, dual, link)
        assert kernel <= 1e-10
        assert initial <= 1e-12
        assert sd.verify_intertwining(chain, dual, link) <= 1e-10

    def test_identity_chain_self_dual(self):
        # L P = L = P* L, and the top row of L is pi
        size = 4
        poset = sd.grid_poset([2, 2])
        pi = np.full(size, 0.25)
        c = sd.ChainSpec(poset=poset, P=np.eye(size), nu=pi, pi=pi)
        d = sd.DualChain(poset=poset, P_star=np.eye(size), nu_star=np.eye(size)[3], absorbing_index=3)
        link = sd.LinkKernel(poset=poset, pi=pi, down_mass=sd.down_set_masses(poset, pi))
        assert sd.verify_intertwining(c, d, link) == 0.0

    def test_perturbation_is_detected(self):
        c = ising(3, 0.0)
        d = ising_dual(3, 0.0)
        P = np.array(d.P_star)
        P[1, 3] += 0.01  # transient entry, compensated on the diagonal
        P[1, 1] -= 0.01
        tampered = sd.DualChain(
            poset=d.poset, P_star=P, nu_star=d.nu_star, absorbing_index=d.absorbing_index
        )
        link = sd.build_link(c.poset, c.pi)
        assert sd.verify_intertwining(c, tampered, link) >= 0.001

    @pytest.mark.parametrize(
        "chain,dual",
        [
            (ising(10, 0.5), ising_dual(10, 0.5)),
            (ising(6, 2.0), ising_dual(6, 2.0)),
            (cube(5, 3), cube_dual(5, 3)),
            (cube(3, 2), cube_dual(3, 2)),
            (lattice(24), lattice_dual(24)),
            (lattice(8, LATTICE_PARAMS[1]), lattice_dual(8, LATTICE_PARAMS[1])),
            (ising(6, 0.5), sd.restrict_to_reachable(ising_dual(6, 0.5))),
            (lattice(3), sd.restrict_to_reachable(lattice_dual(3))),
        ],
        ids=["ising10", "ising6", "cube53", "cube32", "lattice24", "lattice8", "ising6-restricted",
             "lattice3-restricted"],
    )
    def test_row_slabs_match_dense_products(self, chain, dual):
        link = sd.build_link(dual.poset, chain.pi)
        dense = np.max(np.abs(link.matrix @ chain.P - dual.P_star @ link.matrix))
        assert abs(sd.intertwining_residuals(chain, dual, link)[0] - dense) <= 1e-15

    @pytest.mark.parametrize("model", MODELS)
    def test_every_model_dual_matches_the_dense_residuals(self, model):
        chain, dual, *args = MODELS[model]
        c, d = chain(*args), dual(*args)
        link = sd.build_link(c.poset, c.pi)
        kernel = np.max(np.abs(link.matrix @ c.P - d.P_star @ link.matrix))
        initial = np.max(np.abs(c.nu - d.nu_star @ link.matrix))
        got = sd.intertwining_residuals(c, d, link)
        assert abs(got[0] - kernel) <= 1e-15 and abs(got[1] - initial) <= 1e-15

    @staticmethod
    def antichain(m, P_star, down_mass):
        """Identity chain, dual and link on ``m`` unordered states: the link is the identity
        where ``down_mass`` is 1."""
        poset = sd.build_poset(range(m), [])
        nu = np.full(m, 1.0 / m)
        c = sd.ChainSpec(poset=poset, P=np.eye(m), nu=nu)
        d = sd.DualChain(poset=poset, P_star=P_star, nu_star=nu, absorbing_index=m - 1)
        return c, d, sd.LinkKernel(poset=poset, pi=np.ones(m), down_mass=down_mass)

    @pytest.mark.parametrize("row", [0, 136, 137, 1097, 1098])
    def test_every_slab_is_read(self, row):
        # 1100 states: slabs of 137 rows, the last of 4; the residual sits in one row
        m = 1100
        P_star = np.eye(m)
        P_star[row, [row, m - 2 if row == 0 else 0]] = 0.5
        c, d, link = self.antichain(m, P_star, np.ones(m))
        assert sd.intertwining_residuals(c, d, link)[0] == 0.5

    @pytest.mark.parametrize("row", [137, 1097])
    def test_a_nan_in_a_later_slab_is_kept(self, row):
        # the 1100-state setup above, with a NaN down-set mass: one NaN row of L and column of P* L
        m = 1100
        down_mass = np.ones(m)
        down_mass[row] = np.nan
        c, d, link = self.antichain(m, np.eye(m), down_mass)
        assert math.isnan(sd.intertwining_residuals(c, d, link)[0])
        assert math.isnan(sd.verify_intertwining(c, d, link))

    def test_worst_residual_keeps_a_nan(self, monkeypatch):
        c, d = ising(3, 0.5), ising_dual(3, 0.5)
        link = sd.build_link(c.poset, c.pi)
        for pair in ((0.0, math.nan), (math.nan, 0.0)):
            monkeypatch.setattr(duality_module, "intertwining_residuals", lambda *args: pair)
            assert math.isnan(sd.verify_intertwining(c, d, link))

    def test_states_in_another_order_are_refused(self):
        c, d = ising(3, 0.5), ising_dual(3, 0.5)
        # the same states by level: another order consistent with the poset
        order = np.argsort([sum(label) for label in c.poset.labels], kind="stable")
        rank = np.argsort(order).tolist()
        poset = sd.build_poset(
            [c.poset.labels[i] for i in order], [(rank[a], rank[b]) for a, b in c.poset.covers]
        )
        assert sorted(poset.labels) == sorted(c.poset.labels) and poset.labels != c.poset.labels
        moved = sd.DualChain(
            poset=poset, P_star=d.P_star[np.ix_(order, order)], nu_star=d.nu_star[order],
            absorbing_index=rank[d.absorbing_index],
        )
        link = sd.build_link(c.poset, c.pi)
        with pytest.raises(DimensionMismatch, match="state order"):
            sd.intertwining_residuals(c, moved, link)

    def test_a_fault_in_the_shared_down_set_sums_is_caught_by_sharpness(self, monkeypatch):
        # build_dual and the L P half of the intertwining read the same down-set sums, so a fault
        # in them cancels in the kernel residual.  This one moves eps of P* row 0 from a cover to
        # the hold: rows stay stochastic and nonnegative, and the dual intertwines with its own sums
        c = ising(6, 0.5)
        link = sd.build_link(c.poset, c.pi)
        eps, cover = 3.3e-4, 1
        shift = eps * link.down_mass[0] * (link.matrix[0] - link.matrix[cover])
        true_sums = duality_module._down_sums

        def faulty(p, pi, P):
            for lo, hi, rows in true_sums(p, pi, P):
                if lo == 0:
                    rows[0] += shift
                yield lo, hi, rows

        monkeypatch.setattr(duality_module, "_down_sums", faulty)
        d = sd.build_dual(c)
        assert sd.intertwining_residuals(c, d, link)[0] <= 1e-15
        monkeypatch.undo()
        moved = d.P_star - ising_dual(6, 0.5).P_star
        assert moved[0, [0, cover]] == pytest.approx([eps, -eps], abs=1e-15)
        assert np.abs(moved).sum() == pytest.approx(2 * eps, abs=1e-14)
        assert sd.intertwining_residuals(c, d, link)[0] > 1e-5
        assert sd.verify_sharpness(c, d, 100) > 1e-10

    def test_holds_no_kernel_sized_product(self):
        c, d = ising(10, 0.5), ising_dual(10, 0.5)
        link = sd.build_link(c.poset, c.pi)
        _, peak = peak_bytes(sd.intertwining_residuals, c, d, link)
        assert peak < c.P.nbytes / 2

    def test_holds_no_kernel_sized_product_at_4096_states(self):
        c = sd.ising_circle(12, 0.5)
        d = sd.ising_circle_dual(12, 0.5)
        link = sd.build_link(c.poset, c.pi)
        (kernel, initial), peak = peak_bytes(sd.intertwining_residuals, c, d, link)
        assert peak < c.P.nbytes / 2
        assert kernel <= 1e-12 and initial <= 1e-12

    def test_dimension_mismatch(self):
        c = ising(3, 0.0)
        d = cube_dual(2, 1)
        link = sd.build_link(c.poset, c.pi)
        with pytest.raises(DimensionMismatch):
            sd.intertwining_residuals(c, d, link)


class TestSharpness:
    @pytest.mark.parametrize(
        "chain,dual,horizon",
        [
            (ising(3, 0.5), ising_dual(3, 0.5), 60),
            (cube(2, 2), cube_dual(2, 2), 80),
            (lattice(2), lattice_dual(2), 60),
        ],
        ids=["ising", "cube", "lattice"],
    )
    def test_separation_equals_survival(self, chain, dual, horizon):
        assert sd.verify_sharpness(chain, dual, horizon) <= 1e-10

    def test_needs_no_moment_solves(self, monkeypatch):
        def unused(*args):
            raise AssertionError("verify_sharpness solved for the absorption moments")

        monkeypatch.setattr("ssdual.absorption._absorption_moments", unused)
        assert sd.verify_sharpness(ising(3, 0.5), ising_dual(3, 0.5), 60) <= 1e-10

    def test_symmetric_two_state_mixes_in_one_step(self):
        c = sd.ChainSpec(
            poset=sd.chain_poset(2), P=np.full((2, 2), 0.5), nu=[1.0, 0.0], pi=[0.5, 0.5]
        )
        d = sd.build_dual(c)
        sep = sd.separation_curve(c, 1)
        law = sd.absorption_survival(d, 1)
        assert sep.values[1] == pytest.approx(0.0, abs=1e-15)
        assert law.survival[1] == pytest.approx(0.0, abs=1e-15)


class TestRelaxedInitialDistributions:
    def test_stationary_start_gives_absorbed_dual(self):
        c = cube(2, 2)
        flat = sd.ChainSpec(poset=c.poset, P=c.P, nu=c.pi, pi=c.pi)
        d = sd.build_dual(flat)
        expect = np.zeros(d.size)
        expect[-1] = 1.0
        assert np.abs(d.nu_star - expect).max() <= 1e-12
        assert sd.verify_sharpness(flat, d, 20) <= 1e-12

    def test_mixture_start_stays_sharp(self):
        c = ising(3, 0.5)
        nu = 0.5 * c.nu + 0.5 * c.pi
        mixed = sd.ChainSpec(poset=c.poset, P=c.P, nu=nu, pi=c.pi)
        d = sd.build_dual(mixed)
        link = sd.build_link(c.poset, c.pi)
        assert sd.verify_intertwining(mixed, d, link) <= 1e-10
        assert sd.verify_sharpness(mixed, d, 60) <= 1e-10

    def test_nonpositive_stationary_rejected(self):
        c = sd.ChainSpec(
            poset=sd.chain_poset(2), P=np.full((2, 2), 0.5), nu=[1.0, 0.0], pi=[1.0, 0.0]
        )
        with pytest.raises(MissingStationary):
            sd.build_dual(c)


class TestLazyMixtures:
    """Random monotone chains: lazy mixtures of a monotone kernel stay monotone."""

    @given(st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=15, deadline=None)
    def test_mixture_duals_intertwine(self, alpha):
        base = cube(2, 2)
        mixed = sd.ChainSpec(
            poset=base.poset,
            P=alpha * base.P + (1 - alpha) * np.eye(base.size),
            nu=base.nu,
            pi=base.pi,
        )
        d = sd.build_dual(mixed)
        link = sd.build_link(mixed.poset, mixed.pi)
        assert sd.verify_intertwining(mixed, d, link) <= 1e-10


class TestToleranceRule:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, -1e-300])
    def test_non_finite_or_negative_tol_is_rejected(self, tol):
        c = ising(3, 0.5)
        with pytest.raises(BadParameters, match="tol"):
            sd.build_dual(c, tol=tol)
        with pytest.raises(BadParameters, match="tol"):
            sd.check_mobius_monotone(sd.time_reversal(c), c.poset, "down", tol)
        with pytest.raises(BadParameters, match="tol"):
            sd.check_g_monotone(c, tol)
        with pytest.raises(BadParameters, match="^tol must be finite"):
            sd.is_reversible(c, tol)
        with pytest.raises(BadParameters, match="^group_tol must be finite"):
            sd.spectrum_numeric(c, group_tol=tol)
        with pytest.raises(BadParameters, match="^group_tol must be finite"):
            sd.spectrum_from_triangular(ising_dual(3, 0.5), group_tol=tol)

    def test_nan_group_tol_cannot_hide_a_complex_level_block(self):
        # imag > nan is False: a nan group_tol would return the real parts of -0.25 +- 0.433i
        with pytest.raises(BadParameters) as info:
            sd.spectrum_from_triangular(rotating_dual(), group_tol=float("nan"))
        assert str(info.value) == "group_tol must be finite and nonnegative, got nan"

    @pytest.mark.parametrize(
        "model,args",
        [pytest.param(ising, (N, beta), id=f"ising-{N}-{beta}")
         for N in (3, 4, 5, 6, 8) for beta in (0.0, 0.5, 1.0, 2.0)]
        + [pytest.param(lattice, (N, params), id=f"lattice-{N}-rates{r}")
           for N in (1, 2, 3, 8) for r, params in enumerate(LATTICE_PARAMS)]
        + [pytest.param(cube, (n, k), id=f"cube-{n}-{k}") for n in (1, 2, 3) for k in (1, 2, 3)],
    )
    def test_zero_tol_is_allowed(self, model, args):
        # the rounding bound alone absorbs the debris of every model transform
        c = model(*args)
        assert sd.check_mobius_monotone(sd.time_reversal(c), c.poset, "down", 0.0).passed
        assert sd.check_g_monotone(c, 0.0).passed
        sd.build_dual(c, tol=0.0)

    def test_zero_tol_up_direction_and_negative_controls(self):
        c = cube(2, 1)
        assert sd.check_mobius_monotone(c.P, c.poset, "up", 0.0).passed
        flip = flip_chain()
        assert not sd.check_mobius_monotone(flip.P, flip.poset, "down", 0.0).passed
        top = sd.ChainSpec(poset=c.poset, P=c.P, nu=[0, 0, 0, 1], pi=c.pi)
        assert not sd.check_g_monotone(top, 0.0).passed
        with pytest.raises(MonotonicityViolated, match="initial density"):
            sd.build_dual(top, tol=0.0)

    @pytest.mark.parametrize(
        "model,args",
        [pytest.param(ising, (10, 0.5), id="ising-10-0.5"),
         pytest.param(lattice, (24,), id="lattice-24")],
    )
    def test_zeroed_counts_the_entries_the_dual_drops(self, model, args):
        c = model(*args)
        report = sd.check_mobius_monotone(sd.time_reversal(c), c.poset, "down")
        d = sd.build_dual(c)
        assert report.zeroed > 0
        assert report.zeroed == np.count_nonzero(report.transformed) - np.count_nonzero(d.P_star)


def _set_pair(draw, births, deaths, excess):
    """Set p_x + q_{x+1} = 1 + excess at a drawn x, keeping each row's mass <= 1."""
    x = draw(st.integers(0, len(births) - 1))
    up = draw(st.floats(0.3, 0.7))
    births[x], deaths[x] = up, 1.0 + excess - up  # deaths[x] is q_{x+1}
    if x > 0:
        deaths[x - 1] = min(deaths[x - 1], 1.0 - up)
    if x + 1 < len(births):
        births[x + 1] = min(births[x + 1], up - excess)


@st.composite
def birth_death_products(draw, violate=False):
    """Random-coordinate updates of 1-3 birth-death chains of 2-4 states each.

    Axis chains with p_x + q_{x+1} <= 1 are monotone, and so is their product:
    mu P zeta is the mean of the axis transforms, each acting on its own
    coordinate.  An axis transform is negative only on its diagonal, at
    1 - p_x - q_{x+1}, where the other axes add their own diagonals.  So with
    ``violate`` one axis gets p_x + q_{x+1} >= 1 + 1e-3 and every other axis
    a tight pair p_y + q_{y+1} = 1, which leaves the excess uncovered.
    """
    shape = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))
    prob = st.floats(0.05, 0.5)
    axes = [([draw(prob) for _ in range(s - 1)], [draw(prob) for _ in range(s - 1)]) for s in shape]
    if violate:
        bad = draw(st.integers(0, len(shape) - 1))
        for axis, (births, deaths) in enumerate(axes):
            _set_pair(draw, births, deaths, draw(st.floats(1e-3, 0.2)) if axis == bad else 0.0)
    P = np.zeros((math.prod(shape),) * 2)
    for axis, (births, deaths) in enumerate(axes):
        B = np.diag(births, 1) + np.diag(deaths, -1)
        B += np.diag(1.0 - B.sum(axis=1))
        before, after = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
        P += np.kron(np.eye(after), np.kron(B, np.eye(before))) / len(shape)
    nu = np.zeros(len(P))
    nu[0] = 1.0
    return sd.with_stationary(sd.ChainSpec(poset=sd.grid_poset(shape), P=P, nu=nu))


class TestMonotonicityProperties:
    @given(birth_death_products())
    @settings(max_examples=30, deadline=None)
    def test_monotone_products_have_sharp_duals(self, c):
        d = sd.build_dual(c)
        assert sd.check_mobius_monotone(sd.time_reversal(c), c.poset, "down").passed
        kernel, initial = sd.intertwining_residuals(c, d, sd.build_link(c.poset, c.pi))
        assert kernel <= 1e-10 and initial <= 1e-10
        assert sd.verify_sharpness(c, d, 60) <= 1e-10

    @given(birth_death_products(violate=True))
    @settings(max_examples=30, deadline=None)
    def test_violations_are_witnessed_by_the_most_negative_entry(self, c):
        with pytest.raises(MonotonicityViolated) as info:
            sd.build_dual(c)
        report = info.value.report
        assert report.transformed.ndim == 2  # the kernel check, not the density's
        assert not sd.check_mobius_monotone(sd.time_reversal(c), c.poset, "down").passed
        p = c.poset
        flat = sd.Poset(range(p.size), p.covers, p.leq, p.enumeration)
        mobius = sd.mobius_pair(flat).mobius
        dense = mobius @ sd.time_reversal(c) @ flat.leq
        assert not report.passed and report.min_entry < -0.9e-3 / len(p.shape)
        assert report.min_entry == pytest.approx(dense.min(), abs=1e-12)
        assert dense[report.witness] <= dense.min() + 1e-12


class TestTriangularSpectraCrossCheck:
    @pytest.mark.parametrize("model", ["ising", "cube"])
    def test_dual_diagonal_matches_numeric_spectrum(self, model):
        if model == "ising":
            chain, dual = ising(4, 0.0), ising_dual(4, 0.0)
        else:
            chain, dual = cube(2, 3), cube_dual(2, 3)
        tri = sd.spectrum_from_triangular(dual).expanded()
        num = sd.spectrum_numeric(chain).expanded()
        assert np.abs(np.sort(tri) - np.sort(num)).max() <= 1e-7


class TestReachableRestriction:
    def test_cube_dual_restricts_to_unit_cube(self):
        d = cube_dual(3, 2)
        sub = sd.restrict_to_reachable(d)
        assert sub.size == 8
        assert all(set(lab) <= {0, 2} for lab in sub.poset.labels)
        assert sub.poset.labels[sub.absorbing_index] == (2, 2, 2)
        assert np.abs(sub.P_star.sum(axis=1) - 1.0).max() <= 1e-10

    def test_tiny_genuine_moves_count(self):
        # every move along y is below 1e-12; an absolute cutoff there cut the
        # absorbing corner off from the start
        spec = sd.LatticeSpec(3, lambda1=0.3, lambda2=1e-14, mu1=0.1, mu2=1e-13)
        d = sd.build_dual(sd.lattice_walk(spec))
        sub = sd.restrict_to_reachable(d)
        assert sub.size == d.size == 16
        assert sub.poset.labels[sub.absorbing_index] == (3, 3)

    def test_a_dual_with_every_state_reachable_is_its_own_restriction(self):
        d = sd.lattice_walk_dual(sd.LatticeSpec(4, 0.2, 0.2, 0.25, 0.25))
        assert sd.restrict_to_reachable(d) is d

    def test_absorbing_must_stay_reachable(self):
        poset = sd.chain_poset(3)
        P = np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1]])
        d = sd.DualChain(poset=poset, P_star=P, nu_star=[1, 0, 0], absorbing_index=2)
        with pytest.raises(NoAbsorbingState):
            sd.restrict_to_reachable(d)


class TestDualChainValidation:
    def test_rejects_non_stochastic(self):
        with pytest.raises(NotRowStochastic):
            sd.DualChain(
                poset=sd.chain_poset(2),
                P_star=[[0.5, 0.4], [0.0, 1.0]],
                nu_star=[1, 0],
                absorbing_index=1,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NotRowStochastic, match="finite"):
            sd.DualChain(
                poset=sd.chain_poset(2),
                P_star=[[bad, 1.0], [0.0, 1.0]],
                nu_star=[1, 0],
                absorbing_index=1,
            )
        with pytest.raises(NotRowStochastic, match="finite"):
            sd.DualChain(
                poset=sd.chain_poset(2),
                P_star=[[0.5, 0.5], [0.0, 1.0]],
                nu_star=[bad, 0],
                absorbing_index=1,
            )

    def test_rejects_leaky_absorbing_row(self):
        with pytest.raises(NoAbsorbingState):
            sd.DualChain(
                poset=sd.chain_poset(2),
                P_star=[[0.5, 0.5], [0.5, 0.5]],
                nu_star=[1, 0],
                absorbing_index=1,
            )

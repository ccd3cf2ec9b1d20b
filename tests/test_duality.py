import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssdual as sd
from conftest import LATTICE_PARAMS, cube, cube_dual, ising, ising_dual, lattice, lattice_dual
from oracles import down_set_sums
from ssdual.errors import (
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

    def test_symmetric_two_state_jumps_to_top(self):
        c = sd.ChainSpec(
            poset=sd.chain_poset(2), P=np.full((2, 2), 0.5), nu=[1.0, 0.0], pi=[0.5, 0.5]
        )
        d = sd.build_dual(c)
        assert np.abs(d.P_star - [[0.0, 1.0], [0.0, 1.0]]).max() <= 1e-14


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
        size = 4
        poset = sd.grid_poset([2, 2])
        pi = np.full(size, 0.25)
        c = sd.ChainSpec(poset=poset, P=np.eye(size), nu=pi, pi=pi)
        d = sd.DualChain(poset=poset, P_star=np.eye(size), nu_star=pi, absorbing_index=3)
        link = sd.LinkKernel(matrix=np.eye(size), down_mass=np.ones(size))
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

import math

import numpy as np
import pytest

import ssdual as sd
from conftest import cube, cube_closed_dual, cube_dual, ising, ising_dual, lattice, lattice_dual
from oracles import separation_by_matrix_power
from ssdual.errors import (
    BadParameters,
    BadProbability,
    MaxStepsExceeded,
    NotReversible,
    NotTriangular,
)
from ssdual.absorption import _levels
from ssdual.chain import group_with_tolerance


def reads_its_diagonal(d):
    report = sd.spectrum_from_triangular(d)
    values, counts = group_with_tolerance(np.sort(np.diag(d.P_star))[::-1], 1e-9)
    return np.array_equal(report.values, values) and np.array_equal(report.multiplicities, counts)


def unranked_dual(P):
    # 0 < a < b < 1 and 0 < c < 1, enumerated 0, a, b, c, 1: c sits above b by
    # index and below it by level
    poset = sd.build_poset(
        ["0", "a", "b", "c", "1"], [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)]
    )
    return sd.DualChain(poset=poset, P_star=P, nu_star=[1, 0, 0, 0, 0], absorbing_index=4)


def two_state_symmetric():
    return sd.ChainSpec(
        poset=sd.chain_poset(2), P=np.full((2, 2), 0.5), nu=[1.0, 0.0], pi=[0.5, 0.5]
    )


class TestSeparationCurve:
    def test_two_state_mixes_immediately(self):
        sep = sd.separation_curve(two_state_symmetric(), 3)
        assert sep.values[0] == pytest.approx(1.0)
        assert np.abs(sep.values[1:]).max() <= 1e-15

    def test_stationary_start_stays_at_zero(self):
        c = cube(2, 2)
        flat = sd.ChainSpec(poset=c.poset, P=c.P, nu=c.pi, pi=c.pi)
        sep = sd.separation_curve(flat, 10)
        assert np.abs(sep.values).max() <= 1e-12

    def test_matches_matrix_power_oracle(self):
        c = ising(3, 1.0)
        sep = sd.separation_curve(c, 12)
        for n in (0, 3, 12):
            assert sep.values[n] == pytest.approx(
                separation_by_matrix_power(c.P, c.nu, c.pi, n), abs=1e-10
            )

    def test_nonincreasing_and_dominates_tv(self):
        for c in (ising(4, 0.5), lattice(2), cube(3, 2)):
            sep = sd.separation_curve(c, 40)
            assert (np.diff(sep.values) <= 1e-12).all()
            assert (sep.tv <= sep.values + 1e-12).all()

    def test_equals_dual_survival(self):
        c, d = ising(3, 0.5), ising_dual(3, 0.5)
        sep = sd.separation_curve(c, 60)
        law = sd.absorption_survival(d, 60)
        assert np.abs(sep.values - law.survival).max() <= 1e-10


class TestAbsorptionSurvival:
    def test_cube_expected_time_small(self):
        assert sd.absorption_survival(cube_dual(2, 1), 10).mean == pytest.approx(3.0, abs=1e-10)

    def test_cube_expected_time_k2(self):
        assert sd.absorption_survival(cube_dual(2, 2), 10).mean == pytest.approx(4.0, abs=1e-10)

    def test_two_state_absorbs_in_one_step(self):
        d = sd.build_dual(two_state_symmetric())
        law = sd.absorption_survival(d, 5)
        assert law.survival[0] == 1.0
        assert np.abs(law.survival[1:]).max() == 0.0
        assert law.mean == pytest.approx(1.0)
        assert law.variance == pytest.approx(0.0, abs=1e-12)

    def test_moments_match_survival_summation(self):
        # ET = sum of q_n and E T(T+1)/... via tail sums, long horizon
        d = cube_dual(3, 2)
        law = sd.absorption_survival(d, 400)
        assert law.mean == pytest.approx(float(law.survival.sum()), abs=1e-8)
        second = 2.0 * float((np.arange(401) * law.survival).sum()) + law.mean
        assert law.variance == pytest.approx(second - law.mean**2, abs=1e-8)

    def test_default_horizon_scales_with_mean(self):
        law = sd.absorption_survival(ising_dual(4, 0.5))
        assert law.horizon == max(4 * math.ceil(law.mean), 50)
        assert law.survival[-1] <= 2e-2


class TestGeometricSumLaw:
    def test_certain_success(self):
        law = sd.geometric_sum_law([1.0], 4)
        assert law.survival.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
        assert law.mean == 1.0 and law.variance == 0.0

    def test_empty_sum_is_zero(self):
        law = sd.geometric_sum_law([], 3)
        assert law.survival.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_moment_formulas(self):
        ps = [0.25, 0.5, 1.0]
        law = sd.geometric_sum_law(ps, 50)
        assert law.mean == pytest.approx(sum(1 / p for p in ps))
        assert law.variance == pytest.approx(sum((1 - p) / p**2 for p in ps))

    def test_rejects_bad_probability(self):
        with pytest.raises(BadProbability):
            sd.geometric_sum_law([0.5, 0.0], 10)
        with pytest.raises(BadProbability):
            sd.geometric_sum_law([1.2], 10)

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_matches_ising_dual_at_infinite_temperature(self, N):
        law = sd.absorption_survival(ising_dual(N, 0.0), 60)
        geo = sd.geometric_sum_law([1 - i / N for i in range(N)], 60)
        assert np.abs(law.survival - geo.survival).max() <= 1e-10
        assert law.mean == pytest.approx(geo.mean, abs=1e-10)
        assert law.variance == pytest.approx(geo.variance, abs=1e-8)

    def test_matches_cube_dual(self):
        n, k = 3, 2
        law = sd.absorption_survival(cube_dual(n, k), 80)
        rates = [(n - i) * (k + 1) / (2 * n * k) for i in range(n)]
        geo = sd.geometric_sum_law(rates, 80)
        assert np.abs(law.survival - geo.survival).max() <= 1e-10
        assert geo.mean == pytest.approx(2 * n * k / (k + 1) * sum(1 / i for i in range(1, n + 1)))


class TestTriangularSpectrum:
    def test_ising_multiplicities(self):
        report = sd.spectrum_from_triangular(ising_dual(3, 0.0))
        assert np.abs(report.values - [1.0, 2 / 3, 1 / 3, 0.0]).max() <= 1e-12
        assert report.multiplicities.tolist() == [1, 3, 3, 1]
        assert report.source == "triangular-dual"

    def test_cube_reachable_block(self):
        sub = sd.restrict_to_reachable(cube_closed_dual(2, 2))
        report = sd.spectrum_from_triangular(sub)
        assert np.abs(report.values - [1.0, 0.625, 0.25]).max() <= 1e-12
        assert report.multiplicities.tolist() == [1, 2, 1]

    def test_agrees_with_numeric_primal(self):
        tri = sd.spectrum_from_triangular(cube_dual(2, 3)).expanded()
        num = sd.spectrum_numeric(cube(2, 3)).expanded()
        assert np.abs(np.sort(tri) - np.sort(num)).max() <= 1e-7

    def test_lattice_dual_not_triangular(self):
        with pytest.raises(NotTriangular):
            sd.spectrum_from_triangular(lattice_dual(2))

    @pytest.mark.parametrize("N", range(3, 9))
    def test_ising_duals_read_their_diagonal_exactly(self, N):
        assert reads_its_diagonal(ising_dual(N, 0.0))
        assert reads_its_diagonal(sd.ising_circle_dual(N, 0.0))

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("k", range(1, 4))
    def test_cube_duals_read_their_diagonal_exactly(self, n, k):
        closed = cube_closed_dual(n, k)
        assert reads_its_diagonal(closed)
        assert reads_its_diagonal(cube_dual(n, k))
        assert reads_its_diagonal(sd.restrict_to_reachable(closed))

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    @pytest.mark.parametrize("N", [4, 6, 8, 10])
    def test_level_blocks_match_numeric_at_positive_beta(self, N, beta):
        numeric = sd.spectrum_numeric(ising(N, beta), group_tol=0.0).expanded()
        for dual in (ising_dual(N, beta), sd.ising_circle_dual(N, beta)):
            blocks = sd.spectrum_from_triangular(dual, group_tol=1e-12).expanded()
            assert len(blocks) == len(numeric)
            assert np.abs(np.sort(blocks) - np.sort(numeric)).max() <= 1e-9

    def test_levels_are_longest_chains_below(self):
        P = np.eye(5)
        assert _levels(unranked_dual(P).poset).tolist() == [0, 1, 2, 1, 3]

    def test_move_to_a_lower_level_raises_even_upward_by_index(self):
        P = np.eye(5)
        P[2] = [0.0, 0.0, 0.5, 0.5, 0.0]  # b -> c: upper triangular, one level down
        with pytest.raises(NotTriangular):
            sd.spectrum_from_triangular(unranked_dual(P))

    def test_complex_level_block_raises(self):
        # 0 < {a, b, c} < 1, and the dual rotates a -> b -> c -> a
        poset = sd.build_poset(
            ["0", "a", "b", "c", "1"], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
        )
        P = np.array(
            [
                [0.25, 0.25, 0.25, 0.25, 0.0],
                [0.0, 0.0, 0.5, 0.0, 0.5],
                [0.0, 0.0, 0.0, 0.5, 0.5],
                [0.0, 0.5, 0.0, 0.0, 0.5],
                [0.0, 0.0, 0.0, 0.0, 1.0],
            ]
        )
        d = sd.DualChain(poset=poset, P_star=P, nu_star=[1, 0, 0, 0, 0], absorbing_index=4)
        with pytest.raises(NotReversible):
            sd.spectrum_from_triangular(d)


class TestBounds:
    def test_coupon_collector_reference_values(self):
        steps, bound = sd.coupon_collector_bound(10, 2.0)
        assert steps == 44
        assert bound == pytest.approx(math.exp(-2))

    def test_coupon_collector_vacuous_limit(self):
        _, bound = sd.coupon_collector_bound(5, 1e-9)
        assert bound == pytest.approx(1.0)

    def test_coupon_collector_holds_at_infinite_temperature(self):
        for N in (3, 4, 5):
            c = ising(N, 0.0)
            for cc in (1.0, 2.0):
                steps, bound = sd.coupon_collector_bound(N, cc)
                sep = sd.separation_curve(c, steps)
                assert sep.values[steps] <= bound

    def test_chebyshev_reference_values(self):
        steps, bound = sd.chebyshev_bound(10, 1, 3.0)
        assert steps == 64
        assert bound == pytest.approx(1 / 9)

    def test_chebyshev_limit(self):
        _, bound = sd.chebyshev_bound(5, 2, 100.0)
        assert bound == pytest.approx(1e-4)

    def test_chebyshev_holds_for_cube(self):
        for n in (2, 3):
            for k in (1, 2):
                d = cube_dual(n, k)
                for cc in (2.0, 3.0):
                    steps, bound = sd.chebyshev_bound(n, k, cc)
                    law = sd.absorption_survival(d, steps)
                    assert law.survival[steps] <= bound

    def test_parameter_validation(self):
        with pytest.raises(BadParameters):
            sd.coupon_collector_bound(1, 1.0)
        with pytest.raises(BadParameters):
            sd.chebyshev_bound(2, 0, 1.0)
        with pytest.raises(BadParameters):
            sd.chebyshev_bound(2, 1, 0.0)


class TestSimulation:
    def test_cube_moments_within_monte_carlo_error(self):
        d = cube_dual(2, 2)
        exact = sd.absorption_survival(d, 10)
        emp = sd.simulate_sst(d, 20_000, seed=7)
        sigma = math.sqrt(exact.variance / 20_000)
        assert abs(emp.mean - exact.mean) <= 3 * sigma

    def test_survival_within_binomial_error(self):
        d = ising_dual(3, 0.0)
        emp = sd.simulate_sst(d, 20_000, seed=11, horizon=40)
        exact = sd.absorption_survival(d, 40)
        se = np.sqrt(exact.survival * (1 - exact.survival) / 20_000)
        assert (np.abs(emp.survival - exact.survival) <= 3 * se + 1e-12).all()

    def test_started_absorbed_is_zero(self):
        base = cube_dual(2, 1)
        nu = np.zeros(base.size)
        nu[base.absorbing_index] = 1.0
        d = sd.DualChain(
            poset=base.poset, P_star=base.P_star, nu_star=nu, absorbing_index=base.absorbing_index
        )
        emp = sd.simulate_sst(d, 500, seed=3, horizon=5)
        assert emp.mean == 0.0
        assert np.abs(emp.survival).max() == 0.0

    def test_deterministic_for_fixed_seed(self):
        d = cube_dual(2, 2)
        a = sd.simulate_sst(d, 5_000, seed=42)
        b = sd.simulate_sst(d, 5_000, seed=42)
        assert np.array_equal(a.survival, b.survival)
        assert a.mean == b.mean and a.variance == b.variance

    def test_different_seeds_differ(self):
        d = cube_dual(2, 2)
        a = sd.simulate_sst(d, 2_000, seed=1)
        b = sd.simulate_sst(d, 2_000, seed=2)
        assert not np.array_equal(a.survival, b.survival)

    def test_never_absorbing_trips_step_cap(self):
        poset = sd.chain_poset(2)
        d = sd.DualChain(poset=poset, P_star=np.eye(2), nu_star=[1, 0], absorbing_index=1)
        with pytest.raises(MaxStepsExceeded):
            sd.simulate_sst(d, 3, seed=0, horizon=5, max_steps=100)

    def test_seed_validation(self):
        d = cube_dual(2, 1)
        with pytest.raises(BadParameters):
            sd.simulate_sst(d, 0, seed=1)
        with pytest.raises(BadParameters):
            sd.simulate_sst(d, 10, seed=-1)

import math
from types import SimpleNamespace

import numpy as np
import pytest

import ssdual as sd
from conftest import LATTICE_PARAMS, cube, cube_closed_dual, cube_dual, ising, ising_dual, lattice
from conftest import MODELS, lattice_dual, rotating_dual
from oracles import dense_absorption_moments, dense_simulate_sst, lumped_parts, peak_bytes
from oracles import per_step_survival, separation_by_matrix_power, unlumped_separation
from oracles import unlumped_survival
from ssdual import absorption
from ssdual.absorption import _slices, _survival, _transient_parts
from ssdual.errors import (
    BadParameters,
    BadProbability,
    MaxStepsExceeded,
    MissingStationary,
    NotReversible,
    NotTriangular,
    SingularSystem,
)
from ssdual.chain import _lump, _propagate, group_with_tolerance
from ssdual.poset import _levels


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
    def test_zero_in_pi_is_refused(self):
        # pi = (0, 1) is stationary for this kernel, but the separation divides by it
        c = sd.ChainSpec(poset=sd.chain_poset(2), P=[[0.5, 0.5], [0, 1]], nu=[0, 1], pi=[0, 1])
        with pytest.raises(MissingStationary, match="strictly positive"):
            sd.separation_curve(c, 3)

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

    @pytest.mark.parametrize("horizon", [0, 62, 63, 64, 130])
    def test_blocks_give_each_step_its_own_values(self, horizon):
        # the curve is reduced 64 steps at a time; each step must read as if reduced alone, on
        # the orbits of the circle's shift that the curve steps
        c = ising(4, 0.5)
        P, start, orbit = _lump(c.poset, c.P, c.nu, (c.pi,))
        pi = np.bincount(orbit, c.pi)
        assert len(pi) == 6
        sep = sd.separation_curve(c, horizon)
        for n, dist in enumerate(_propagate(start, P, horizon)):
            assert sep.values[n] == np.max(1.0 - dist / pi)
            assert sep.tv[n] == 0.5 * np.abs(dist - pi).sum()


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

    def test_subnormal_masses_are_flushed_after_each_block(self):
        # 0.5**k turns subnormal at k = 1023, the last step of a 64-step block: the block keeps it,
        # and the flush after the block zeroes the mass that is stepped next
        blocks = absorption._step_blocks(np.array([1.0]), np.array([[0.5]]), 1100)
        masses = np.concatenate([rows[:, 0].copy() for _, rows in blocks])  # one reused buffer
        assert masses[1022] == 2.0**-1022 and masses[1023] == 2.0**-1023
        assert masses[1050] == 0.0 and not masses[1024:].any()

    def test_default_horizon_scales_with_mean(self):
        law = sd.absorption_survival(ising_dual(4, 0.5))
        assert law.horizon == max(4 * math.ceil(law.mean), 50)
        assert law.survival[-1] <= 2e-2


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: sd.separation_curve(cube(2, 1), -1), BadParameters),
        (lambda: sd.absorption_survival(cube_dual(2, 1), -1), BadParameters),
        (lambda: sd.geometric_sum_law([0.5], -1), BadParameters),
        (lambda: sd.evolve(cube(2, 1), -1), BadParameters),
        (lambda: sd.simulate_sst(cube_dual(2, 1), 5, seed=0, max_steps=-5), BadParameters),
    ],
    ids=[
        "separation_curve", "absorption_survival", "geometric_sum_law", "evolve",
        "simulate_max_steps",
    ],
)
def test_negative_horizon_is_rejected(call, error):
    with pytest.raises(error, match="nonnegative"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: sd.evolve(cube(2, 1), 10**20),
        lambda: sd.evolve(cube(2, 1), 2.0),
        lambda: sd.evolve(cube(2, 1), 10**5000),  # str() refuses it: the message must not print it
        lambda: sd.separation_curve(cube(2, 1), 10**20),
        lambda: sd.absorption_survival(cube_dual(2, 1), 10**20),
        lambda: sd.geometric_sum_law([0.5], 10**20),
        lambda: sd.simulate_sst(cube_dual(2, 1), 10**20, seed=0),
        lambda: sd.simulate_sst(cube_dual(2, 1), 0, seed=0),
        lambda: sd.simulate_sst(cube_dual(2, 1), 5, seed=2**64),
        lambda: sd.simulate_sst(cube_dual(2, 1), 5, seed=0, horizon=10**20),
        lambda: sd.simulate_sst(cube_dual(2, 1), 5, seed=0, max_steps=2.5),
        lambda: sd.simulate_sst(cube_dual(2, 1), 5, seed=0, max_steps="x"),
        lambda: sd.simulate_sst(cube_dual(2, 1), True, seed=0),
        lambda: sd.absorption_survival(cube_dual(2, 1), True),
        lambda: sd.simulate_sst(cube_dual(2, 1), 5, seed=True),
        lambda: sd.simulate_sst(cube_dual(2, 1), 5, seed=0, max_steps=True),
        lambda: sd.coupon_collector_bound(10**400, 1.0),
        lambda: sd.chebyshev_bound(10**400, 1, 1.0),
        lambda: sd.chebyshev_bound(3, 10**400, 1.0),
    ],
    ids=[
        "evolve", "evolve_float", "evolve_5000_digits", "separation_curve", "absorption_survival",
        "geometric_sum_law", "simulate_samples", "simulate_no_samples", "simulate_seed", "simulate_horizon",
        "simulate_max_steps_float", "simulate_max_steps_str", "simulate_samples_true",
        "absorption_survival_true", "simulate_seed_true", "simulate_max_steps_true",
        "coupon_collector_N", "chebyshev_n", "chebyshev_k",
    ],
)
def test_count_no_array_can_hold_is_rejected(call):
    # BadParameters, not numpy's ValueError or an OverflowError from a C integer or float
    with pytest.raises(BadParameters):
        call()


def test_largest_seed_is_accepted():
    law = sd.simulate_sst(cube_dual(2, 1), 3, seed=2**64 - 1)
    assert law.horizon >= 0


def cover_walk(p):
    """_levels of an unshaped copy of ``p``: the walk over its covers."""
    return _levels(sd.Poset(p.labels, p.covers, p.leq, p.enumeration))


def never_moves_down(d):
    level = _levels(d.poset)
    rows, cols = np.nonzero(d.P_star)
    return bool((level[cols] >= level[rows]).all())


def moment_path(d):
    """The block partition _absorption_moments takes for ``d``."""
    if never_moves_down(d):
        return "levels"
    (rows, cols, _), _ = _transient_parts(d)
    return "dense" if _slices(d, rows, cols) is None else "slices"


def assert_moments_match_dense(d):
    law = sd.absorption_survival(d, 0)
    mean, variance = dense_absorption_moments(d.P_star, d.nu_star, d.absorbing_index)
    assert abs(law.mean - mean) <= 1e-12 * abs(mean)
    assert abs(law.variance - variance) <= 1e-12 * abs(variance)


def swapping_dual(down):
    """A dual whose states a and b swap forever, so I - Q is singular.

    With ``down`` the poset is the chain 0 < a < b < 1 and b -> a moves down
    a level; otherwise it is 0 < {a, b} < 1 and the swap stays in level 1.
    """
    if down:
        poset = sd.chain_poset(4)
    else:
        poset = sd.build_poset(["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    P = np.array(
        [
            [0.0, 0.5, 0.25, 0.25],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return sd.DualChain(poset=poset, P_star=P, nu_star=[1, 0, 0, 0], absorbing_index=3)


def bouncing_dual():
    """On the chain 0 < 1 < 2 < 3 the dual goes 0 -> 1 -> 2 -> 1 and never reaches 3: every
    move changes the only coordinate by 1, so I - Q is block tridiagonal, and singular."""
    P = [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    return sd.DualChain(poset=sd.chain_poset(4), P_star=P, nu_star=[1, 0, 0, 0], absorbing_index=3)


def jumping_dual():
    """On the chain 0 < 1 < 2 < 3, 0 -> 2 and 2 -> 0 change the only coordinate by 2."""
    P = [[0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5], [0.25, 0.25, 0.25, 0.25], [0.0, 0.0, 0.0, 1.0]]
    return sd.DualChain(poset=sd.chain_poset(4), P_star=P, nu_star=[1, 0, 0, 0], absorbing_index=3)


def staircase_dual():
    """On the 3 x 3 grid the dual climbs (0, 0) -> {(1, 0), (0, 1)} -> (1, 1) -> (2, 1) -> (2, 2):
    the six reachable states are not a product of chains."""
    P = np.eye(9)
    for source, targets in {0: (1, 3), 1: (4,), 3: (4,), 4: (5,), 5: (8,)}.items():
        P[source] = 0.0
        P[source, list(targets)] = 1.0 / len(targets)
    return sd.DualChain(poset=sd.grid_poset((3, 3)), P_star=P, nu_star=np.eye(9)[0], absorbing_index=8)


TOP = np.nextafter(1.0, 0.0)  # the largest draw below 1


def short_rows_dual():
    """On the chain 0 < 1 < 2 < 3, rows 0 and 1 sum to 1 - 2**-52: row 0's last nonzero is in
    column 2, and row 1's in column 3, the absorbing state."""
    P = [
        [0.0, 0.5, 0.5 - 2**-52, 0.0],
        [0.0, 0.25, 0.25, 0.5 - 2**-52],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.0, 1.0],
    ]
    return sd.DualChain(poset=sd.chain_poset(4), P_star=P, nu_star=[1, 0, 0, 0], absorbing_index=3)


def absorbing_in_the_middle(down):
    """0 < {a, b}, absorbing at a (index 1), before b, P_star's state 2 and Q's alike.

    With ``down``, b -> 0 moves down a level with probability 0.1.
    """
    poset = sd.build_poset(["0", "a", "b"], [(0, 1), (0, 2)])
    P = [[0.5, 0.2, 0.3], [0.0, 1.0, 0.0], [0.1 if down else 0.0, 0.4, 0.5 if down else 0.6]]
    return sd.DualChain(poset=poset, P_star=P, nu_star=[0.7, 0.0, 0.3], absorbing_index=1)


def neighbour_walk_dual(shape, absorbing, seed=0):
    """A lazy walk on the grid ``shape`` between states one apart in one coordinate, at random
    rates, absorbed at ``absorbing`` and started uniformly, the absorbing state too."""
    poset = sd.grid_poset(shape)
    digits = np.asarray(poset.labels).reshape(poset.size, -1)
    near = np.abs(digits[:, None] - digits[None]).sum(axis=2) == 1
    P = np.random.default_rng(seed).random(near.shape) * near
    P /= 2.0 * P.sum(axis=1, keepdims=True)
    P[np.diag_indices_from(P)] = 0.5
    P[absorbing] = np.eye(poset.size)[absorbing]
    nu = np.full(poset.size, 1.0 / poset.size)
    return sd.DualChain(poset=poset, P_star=P, nu_star=nu, absorbing_index=absorbing)


class TestLevelRule:
    @pytest.mark.parametrize("shape", [(1,), (3, 1, 2), (2,) * 10, (25, 25)], ids=str)
    def test_digit_sum_is_the_cover_walk_on_grids(self, shape):
        p = sd.grid_poset(shape)
        assert np.array_equal(_levels(p), cover_walk(p))
        assert np.array_equal(_levels(p), np.asarray(p.labels).reshape(p.size, -1).sum(axis=1))

    @pytest.mark.parametrize(
        "model",
        [
            lambda: sd.ising_circle(6, 0.5),
            lambda: sd.kary_cube(sd.CubeSpec(3, 2)),
            lambda: sd.lattice_walk(sd.LatticeSpec(5, 0.2, 0.2, 0.25, 0.25)),
        ],
        ids=["ising", "cube", "lattice"],
    )
    def test_digit_sum_is_the_cover_walk_on_loaded_models(self, tmp_path, model):
        sd.save_chain(tmp_path / "chain.json", model())
        p = sd.load_chain(tmp_path / "chain.json").chain.poset
        assert p.shape is not None
        assert np.array_equal(_levels(p), cover_walk(p))

    def test_restricted_dual_takes_the_cover_walk(self):
        sub = sd.restrict_to_reachable(staircase_dual())
        assert sub.size == 6 and sub.poset.shape is None
        # longest chain below each state of the sub-poset, from its order alone
        strict = sub.poset.leq & ~np.eye(sub.size, dtype=bool)
        level = np.zeros(sub.size, dtype=np.int64)
        for j in range(sub.size):
            level[j] = max((level[i] + 1 for i in np.nonzero(strict[:, j])[0]), default=0)
        assert np.array_equal(_levels(sub.poset), level)


class TestBlockMoments:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("N", range(3, 11))
    def test_ising_duals_match_the_dense_solve(self, N, beta):
        for d in (ising_dual(N, beta), sd.ising_circle_dual(N, beta)):
            assert never_moves_down(d)
            assert_moments_match_dense(d)

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_cube_duals_match_the_dense_solve(self, n, k):
        closed = cube_closed_dual(n, k)
        for d in (cube_dual(n, k), closed, sd.restrict_to_reachable(closed)):
            assert never_moves_down(d)
            assert_moments_match_dense(d)

    @pytest.mark.parametrize("N", [2, 5, 12, 24, 40])
    def test_lattice_duals_take_the_slices(self, N):
        for params in LATTICE_PARAMS:
            spec = sd.LatticeSpec(N, *params)
            for d in (lattice_dual(N, params), sd.lattice_walk_dual(spec)):
                assert moment_path(d) == "slices"
                assert_moments_match_dense(d)

    def test_a_jump_of_two_slices_keeps_the_dense_solve_exactly(self):
        d = jumping_dual()
        assert moment_path(d) == "dense"
        law = sd.absorption_survival(d, 0)
        assert (law.mean, law.variance) == dense_absorption_moments(d.P_star, d.nu_star, 3)

    @pytest.mark.parametrize(
        "dual, path",
        [
            (lambda: swapping_dual(False), "levels"),
            (lambda: swapping_dual(True), "dense"),  # its 0 -> b jumps two slices
            (bouncing_dual, "slices"),
        ],
        ids=["level-block", "dense", "slices"],
    )
    def test_a_closed_transient_class_is_singular(self, dual, path):
        d = dual()
        assert moment_path(d) == path
        with pytest.raises(SingularSystem):
            sd.absorption_survival(d)
        with pytest.raises(SingularSystem):
            sd.simulate_sst(d, 10, seed=0)

    @pytest.mark.parametrize("down", [False, True], ids=["level-block", "dense"])
    def test_absorbing_state_before_a_transient_one(self, down):
        d = absorbing_in_the_middle(down)
        assert moment_path(d) == ("dense" if down else "levels")  # 0 < {a, b} has no shape
        law = sd.absorption_survival(d, 0)
        dense = dense_absorption_moments(d.P_star, d.nu_star, d.absorbing_index)
        assert (law.mean, law.variance) == dense
        if down:
            with pytest.raises(NotTriangular, match="with probability 1.000e-01"):
                sd.spectrum_from_triangular(d)
        else:
            assert dense == (3.1999999999999997, 5.360000000000001)
            assert sd.spectrum_from_triangular(d).values.tolist() == [1.0, 0.6, 0.5]

    @pytest.mark.parametrize(
        "shape, absorbing",
        [((4,), 3), ((4,), 1), ((3, 3), 4), ((3, 3), 0), ((2, 3), 5), ((3, 2), 2)],
        ids=["chain-top", "chain-inside", "grid-middle", "grid-bottom", "grid-top", "grid-edge"],
    )
    def test_any_absorbing_state_on_the_slices(self, shape, absorbing):
        # the absorbing state is left out of its slice, which may then be empty (a chain's top)
        d = neighbour_walk_dual(shape, absorbing)
        assert moment_path(d) == "slices"
        assert_moments_match_dense(d)
        Q = np.delete(np.delete(d.P_star, absorbing, axis=0), absorbing, axis=1)
        start = np.delete(d.nu_star, absorbing)
        want = [(start @ np.linalg.matrix_power(Q, n)).sum() for n in range(41)]
        law = sd.absorption_survival(d, 40)
        assert abs(law.survival[0] - (1.0 - 1.0 / d.size)) <= 1e-15  # less the absorbing mass
        assert np.abs(law.survival - want).max() <= 1e-14

    def test_no_dense_transient_block(self):
        # 1024 states: one dense I - Q is 8 MiB; the level blocks stay far below
        d = sd.ising_circle_dual(10, 0.5)
        _, peak = peak_bytes(sd.absorption_survival, d)
        assert peak < d.size**2 * 8 / 4

    def test_no_dense_transient_block_on_slices(self):
        # 1681 states: one dense I - Q is 22.6 MiB; 41 slices of 41 states stay far below
        d = sd.lattice_walk_dual(sd.LatticeSpec(40, 0.2, 0.2, 0.25, 0.25))
        assert moment_path(d) == "slices"
        _, peak = peak_bytes(sd.absorption_survival, d)
        assert peak < (d.size - 1) ** 2 * 8 / 4


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
        with pytest.raises(NotReversible):
            sd.spectrum_from_triangular(rotating_dual())


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
            sd.chebyshev_bound(1, 1, 1.0)
        with pytest.raises(BadParameters):
            sd.chebyshev_bound(2, 0, 1.0)
        with pytest.raises(BadParameters):
            sd.chebyshev_bound(2, 1, 0.0)

    @pytest.mark.parametrize("c", [1e-160, 1e-200, 5e-324])
    def test_bound_must_be_finite(self, c):
        # 1 / c**2 overflows, or c**2 underflows to zero
        with pytest.raises(BadParameters, match="finite"):
            sd.chebyshev_bound(3, 2, c)
        assert sd.coupon_collector_bound(10, c) == (24, 1.0)

    def test_step_count_must_be_finite(self):
        with pytest.raises(BadParameters, match="finite"):
            sd.coupon_collector_bound(10, 1e308)
        with pytest.raises(BadParameters, match="finite"):
            sd.chebyshev_bound(3, 2, 1e308)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, -1.0])
    def test_c_must_be_finite_and_positive(self, c):
        with pytest.raises(BadParameters, match="finite c > 0"):
            sd.coupon_collector_bound(10, c)
        with pytest.raises(BadParameters, match="finite c > 0"):
            sd.chebyshev_bound(10, 1, c)


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

    def test_negative_horizon_is_rejected(self):
        with pytest.raises(BadParameters, match="horizon"):
            sd.simulate_sst(cube_dual(2, 1), 10, seed=0, horizon=-3)

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

    def test_counts_are_allocated_before_any_trajectory(self):
        # state 0 never absorbs: the step cap would trip if a trajectory ran first
        P = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        d = sd.DualChain(poset=sd.chain_poset(3), P_star=P, nu_star=[1, 0, 0], absorbing_index=2)
        with pytest.raises(MemoryError):
            sd.simulate_sst(d, 1, seed=0, horizon=np.iinfo(np.intp).max // 8 - 2, max_steps=10)

    @pytest.mark.parametrize(
        "d",
        [absorbing_in_the_middle(True), ising_dual(4, 0.5), lattice_dual(4)],
        ids=["dense-block", "levels", "slices"],
    )
    def test_default_horizon_solves_only_the_mean(self, monkeypatch, d):
        solved = []

        def counting(name, solver):
            def counted(*args):
                solved.append(name)
                return solver(*args)

            return counted

        monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
        monkeypatch.setattr(absorption, "_block_sweep", counting("sweep", absorption._block_sweep))
        law = sd.absorption_survival(d)
        both = sorted(solved)
        solved.clear()
        emp = sd.simulate_sst(d, 200, seed=5)
        assert both and sorted(2 * solved) == both
        assert ("sweep" in both) == (moment_path(d) == "slices")
        assert emp.horizon == law.horizon
        assert emp.survival.tolist() == sd.simulate_sst(d, 200, seed=5, horizon=law.horizon).survival.tolist()

    @pytest.mark.parametrize(
        "d",
        [
            lambda: sd.ising_circle_dual(5, 0.5),
            lambda: ising_dual(4, 0.5),
            lambda: cube_closed_dual(3, 2),
            lambda: cube_dual(2, 2),
            lambda: sd.lattice_walk_dual(sd.LatticeSpec(3, *LATTICE_PARAMS[1])),
            lambda: lattice_dual(3),
            short_rows_dual,
        ],
        ids=["ising-closed", "ising-generic", "cube-closed", "cube-generic", "lattice-closed",
             "lattice-generic", "short-rows"],
    )
    def test_sparse_rows_draw_as_the_dense_cumsum(self, d):
        d = d()
        law = sd.simulate_sst(d, 1000, seed=17)
        survival, mean, variance = dense_simulate_sst(d, 1000, 17, law.horizon)
        assert law.survival.tobytes() == survival.tobytes()
        assert (law.mean, law.variance) == (mean, variance)

    @pytest.mark.parametrize(
        "draws, steps", [([0.0, TOP], 1), ([0.0, 0.3, TOP], 2)], ids=["column-2", "column-3"]
    )
    def test_a_draw_past_the_last_partial_sum_goes_to_the_last_state(self, monkeypatch, draws, steps):
        # every buffer of draws repeats ``draws``; TOP lies past the partial sums of rows 0 and 1
        scripted = SimpleNamespace(random=lambda n: np.resize(draws, n))
        monkeypatch.setattr(np.random, "Generator", lambda bits: scripted)
        d = short_rows_dual()
        law = sd.simulate_sst(d, 3, seed=0, horizon=3)
        assert (law.mean, law.variance) == (steps, 0.0)
        assert law.survival.tolist() == dense_simulate_sst(d, 3, 0, 3)[0].tolist()

    def test_one_sample_holds_no_kernel(self):
        # 4096 states: a dense cumsum of the kernel is 128 MiB
        d = sd.lattice_walk_dual(sd.LatticeSpec(63, 0.2, 0.2, 0.25, 0.25))
        _, peak = peak_bytes(sd.simulate_sst, d, 1, 0)
        assert peak < 8 * 2**20

    def test_seed_validation(self):
        d = cube_dual(2, 1)
        with pytest.raises(BadParameters):
            sd.simulate_sst(d, 0, seed=1)
        with pytest.raises(BadParameters):
            sd.simulate_sst(d, 10, seed=-1)


# The 46 model duals of conftest.MODELS.
MODEL_DUALS = {name: (dual, *args) for name, (_, dual, *args) in MODELS.items()}


@pytest.mark.parametrize("name", MODEL_DUALS)
def test_survival_blocks_sum_each_step_bitwise_as_alone(name):
    make, *args = MODEL_DUALS[name]
    d = make(*args)
    for horizon in (0, 63, 64, 200):  # a partial block, one full block, and 3 blocks and 9 steps
        want = per_step_survival(d, horizon)
        assert _survival(d, horizon).tobytes() == want.tobytes()
    law = sd.absorption_survival(d, 130)
    assert law.survival.tobytes() == per_step_survival(d, 130).tobytes()


# The primal chain of each model dual.
MODEL_CHAINS = {name: chain(*args) for name, (chain, _, *args) in MODELS.items()}
LUMPED_HORIZONS = (0, 63, 64, 200)


def per_step(bound, horizon):
    """``bound`` plus half an ulp of mass per step: a representative's row may differ from its
    orbit's other rows by rounding, so the lumped law may drift from the unlumped one by that
    much each step (1.0e-14 over 200 steps on the 8-state Ising circle at beta = 2)."""
    return bound + horizon * np.finfo(float).eps / 2


@pytest.mark.parametrize("name", MODEL_DUALS)
def test_lumped_survival_matches_every_transient_state(name):
    make, *args = MODEL_DUALS[name]
    d = make(*args)
    law = sd.absorption_survival(d)
    want = unlumped_survival(d, max(law.horizon, 200))
    for horizon in LUMPED_HORIZONS:
        assert np.abs(_survival(d, horizon) - want[: horizon + 1]).max() <= per_step(1e-14, horizon)
    assert np.abs(law.survival - want[: law.horizon + 1]).max() <= per_step(1e-14, law.horizon)


@pytest.mark.parametrize("name", MODEL_DUALS)
def test_lumped_separation_matches_every_state(name):
    make, *args = MODEL_DUALS[name]
    c = MODEL_CHAINS[name]
    default = absorption.default_horizon(sd.absorption_survival(make(*args), 0).mean)
    sep, tv = unlumped_separation(c, max(default, 200))
    for horizon in (*LUMPED_HORIZONS, default):
        got = sd.separation_curve(c, horizon)
        assert np.abs(got.values - sep[: horizon + 1]).max() <= per_step(1e-12, horizon)
        assert np.abs(got.tv - tv[: horizon + 1]).max() <= per_step(1e-14, horizon)
    if c.size <= 256:  # a dense matrix power per step count
        got = sd.separation_curve(c, 200)
        for n in LUMPED_HORIZONS:
            assert abs(got.values[n] - separation_by_matrix_power(c.P, c.nu, c.pi, n)) <= 1e-12


@pytest.mark.parametrize(
    "chain, dual, orbits",
    [(lambda: ising(10, 0.5), lambda: ising_dual(10, 0.5), 108),
     (lambda: lattice(24), lambda: lattice_dual(24), 325),  # the CLI's rates
     (lambda: cube(3, 2), lambda: cube_dual(3, 2), 11)],
    ids=["ising-10", "lattice-24", "cube-3-2"],
)
def test_lumped_orbit_counts(chain, dual, orbits):
    c = chain()
    (rows, _, vals), start, orbit = _lump(c.poset, c.P, c.nu, (c.pi,))
    assert len(start) == orbit.max() + 1 == orbits
    assert np.abs(np.bincount(rows, vals) - 1.0).max() <= 1e-15  # the lumped kernel is stochastic
    d = dual()
    (rows, cols, _), start = lumped_parts(d)
    assert len(start) == orbits  # the absorbing state is an orbit of its own, with no mass
    assert start[-1] == 0.0 and orbits - 1 not in {*rows.tolist(), *cols.tolist()}
    assert max(rows.max(), cols.max()) == orbits - 2


def moved_entry(P, x, y, eps=1e-13):
    """``P`` with ``eps`` moved from the hold of state x to its move to y."""
    P = P.copy()
    P[x, y] += eps
    P[x, x] -= eps
    return P


def at_state(label):
    """The lattice N = 8 chain, and its dual, started at ``label``."""
    c, d = lattice(8), lattice_dual(8)
    start = np.eye(c.size)[c.poset.labels.index(label)]
    return (sd.ChainSpec(poset=c.poset, P=c.P, nu=start, pi=c.pi),
            sd.DualChain(poset=d.poset, P_star=d.P_star, nu_star=start,
                         absorbing_index=d.absorbing_index))


def unlumpable(kind):
    """(chain, dual) that keep no candidate symmetry."""
    if kind == "unequal-rates":
        return lattice(8, LATTICE_PARAMS[1]), lattice_dual(8, LATTICE_PARAMS[1])
    if kind == "started-at-1-0":
        return at_state((1, 0))
    if kind == "moved-entry":
        c, d = ising(6, 0.5), ising_dual(6, 0.5)
        x, y = 1, int(np.flatnonzero(d.P_star[1])[-2])  # a move between transient states
        assert c.P[1, 3] > 0.0 and y != d.absorbing_index and y != x
        return (sd.ChainSpec(poset=c.poset, P=moved_entry(c.P, 1, 3), nu=c.nu, pi=c.pi),
                sd.DualChain(poset=d.poset, P_star=moved_entry(d.P_star, x, y), nu_star=d.nu_star,
                             absorbing_index=d.absorbing_index))
    poset = rotating_dual().poset  # 0 < {a, b, c} < 1: no product of chains
    W = np.random.default_rng(5).random((5, 5)) + 0.1
    W += W.T
    c = sd.ChainSpec(poset=poset, P=W / W.sum(axis=1)[:, None], nu=np.eye(5)[0],
                     pi=W.sum(axis=1) / W.sum())
    return c, rotating_dual()


@pytest.mark.parametrize("kind", ["unequal-rates", "started-at-1-0", "moved-entry", "unshaped"])
def test_a_chain_without_a_kept_symmetry_is_not_lumped(kind):
    c, d = unlumpable(kind)
    assert np.array_equal(_lump(c.poset, c.P, c.nu, (c.pi,))[2], np.arange(c.size))
    (rows, cols, vals), start = lumped_parts(d)
    (q_rows, q_cols, q_vals), q_start = _transient_parts(d)
    assert all(a.tobytes() == b.tobytes()
               for a, b in ((rows, q_rows), (cols, q_cols), (vals, q_vals), (start, q_start)))
    for horizon in (0, 64, 200):
        assert _survival(d, horizon).tobytes() == unlumped_survival(d, horizon).tobytes()
        got, (sep, tv) = sd.separation_curve(c, horizon), unlumped_separation(c, horizon)
        assert got.values.tobytes() == sep.tobytes() and got.tv.tobytes() == tv.tobytes()

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssdual as sd
from conftest import cube, ising, lattice
from oracles import separation_by_matrix_power
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

    def test_rejects_non_reversible(self):
        with pytest.raises(NotReversible):
            sd.spectrum_numeric(biased_cycle(0.9))

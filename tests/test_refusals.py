"""Each documented refusal raises its own error with its message as written."""
import numpy as np
import pytest

import ssdual as sd
from ssdual.errors import (
    BadParameters,
    DimensionMismatch,
    MissingStationary,
    NoAbsorbingState,
    NotRowStochastic,
    NoUniqueMax,
    SizeOverflow,
    TooLarge,
)

SWAP = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
BIRTH_DEATH = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
RATES = (0.2, 0.2, 0.25, 0.25)
NAN = float("nan")


def two_tops():
    """The uniform walk on a poset with two maximal states, a < b and a < c."""
    poset = sd.build_poset(["a", "b", "c"], [(0, 1), (0, 2)])
    return sd.ChainSpec(poset=poset, P=np.full((3, 3), 1 / 3), nu=[1, 0, 0], pi=np.full(3, 1 / 3))


def nearly_stationary():
    """A birth-death chain whose pi (1, 2, 1)/4 is off by 1e-6 in two entries."""
    pi = np.array([0.25 + 1e-6, 0.5 - 1e-6, 0.25])
    return sd.ChainSpec(poset=sd.chain_poset(3), P=BIRTH_DEATH, nu=[1, 0, 0], pi=pi)


def two_state_pair(chain_labels, dual_labels):
    """A two-state chain and a dual, each on the order ``labels[0] < labels[1]``."""
    chain = sd.ChainSpec(
        poset=sd.build_poset(chain_labels, [(0, 1)]), P=np.full((2, 2), 0.5), nu=[1, 0], pi=[0.5, 0.5]
    )
    dual = sd.DualChain(
        poset=sd.build_poset(dual_labels, [(0, 1)]), P_star=[[0.5, 0.5], [0.0, 1.0]],
        nu_star=[1, 0], absorbing_index=1,
    )
    return chain, dual


CASES = {
    "dual-absorbing-index": (
        lambda: sd.DualChain(
            poset=sd.chain_poset(3), P_star=SWAP, nu_star=[1, 0, 0], absorbing_index=3
        ),
        NoAbsorbingState,
        "absorbing index 3 out of range",
    ),
    "monotone-direction": (
        lambda: sd.check_mobius_monotone(BIRTH_DEATH, sd.chain_poset(3), "sideways"),
        DimensionMismatch,
        "unknown direction 'sideways'",
    ),
    "dual-unique-max": (
        lambda: sd.build_dual(two_tops()),
        NoUniqueMax,
        "dual construction requires a unique maximal state",
    ),
    "dual-row-sums": (
        lambda: sd.build_dual(nearly_stationary()),
        NotRowStochastic,
        "dual rows sum to 1 only within 1.000e-06",
    ),
    "reversible-without-pi": (
        lambda: sd.is_reversible(
            sd.ChainSpec(poset=sd.chain_poset(3), P=BIRTH_DEATH, nu=[1, 0, 0])
        ),
        MissingStationary,
        "reversibility check needs the stationary distribution",
    ),
    "down-set-masses-shape": (
        lambda: sd.down_set_masses(sd.grid_poset((2, 2)), np.full(3, 1 / 3)),
        DimensionMismatch,
        "pi has shape (3,) on a poset of 4 states",
    ),
    "link-pi-shape": (
        lambda: sd.build_link(sd.grid_poset((2,) * 8), np.ones(512) / 512),
        DimensionMismatch,
        "pi has shape (512,) on a poset of 256 states",
    ),
    "sharpness-size": (
        lambda: sd.verify_sharpness(sd.ising_circle(3, 0.5), sd.ising_circle_dual(4, 0.5), 20),
        DimensionMismatch,
        "chain and dual disagree in size or state order",
    ),
    "sharpness-order": (
        lambda: sd.verify_sharpness(*two_state_pair("ab", "ba"), 20),
        DimensionMismatch,
        "chain and dual disagree in size or state order",
    ),
    "ising-no-vertex": (
        lambda: sd.IsingSpec(0, (), 0.5), BadParameters, "graph needs at least one vertex"
    ),
    "ising-self-loop": (
        lambda: sd.IsingSpec(3, ((1, 1),), 0.5), BadParameters, "self-loop at vertex 1"
    ),
    "ising-edge-range": (
        lambda: sd.IsingSpec(3, ((0, 3),), 0.5), BadParameters, "edge (0, 3) out of range"
    ),
    "lattice-side": (
        lambda: sd.LatticeSpec(0, 0.2, 0.2, 0.25, 0.25),
        BadParameters,
        "lattice side N must be >= 1",
    ),
    "cube-size": (lambda: sd.CubeSpec(0, 1), BadParameters, "cube needs n >= 1 and k >= 1"),
    "chain-length": (lambda: sd.chain_poset(0), BadParameters, "chain length must be positive"),
    "grid-empty": (lambda: sd.grid_poset([]), BadParameters, "invalid grid shape ()"),
    "grid-zero-axis": (
        lambda: sd.grid_poset([2, 0]), BadParameters, "invalid grid shape (2, 0)"
    ),
    # a size that is not an integer is refused, never truncated or left to numpy
    "grid-fractional-side": (lambda: sd.grid_poset([2.5]), BadParameters, "grid side must be an integer"),
    "ising-fractional-endpoint": (
        lambda: sd.ising_gibbs_graph(3, [(0, 1.5)], 0.5), BadParameters, "edge endpoint must be an integer"
    ),
    "ising-spec-float-endpoint": (
        lambda: sd.IsingSpec(3, ((0, 1.0),), 0.5), BadParameters, "edge endpoint must be an integer"
    ),
    "ising-fractional-vertex-count": (
        lambda: sd.ising_gibbs_graph(2.5, [(0, 1)], 0.5), BadParameters, "vertex count must be an integer"
    ),
    "ising-spec-fractional-vertex-count": (
        lambda: sd.IsingSpec(2.5, (), 0.5), BadParameters, "vertex count must be an integer"
    ),
    "lattice-fractional-side": (
        lambda: sd.LatticeSpec(2.5, *RATES), BadParameters, "lattice side N must be an integer"
    ),
    "lattice-nan-side": (
        lambda: sd.LatticeSpec(NAN, *RATES), BadParameters, "lattice side N must be an integer"
    ),
    "lattice-bool-side": (
        lambda: sd.LatticeSpec(True, *RATES), BadParameters, "lattice side N must be an integer"
    ),
    "cube-float-n": (lambda: sd.CubeSpec(2.0, 1), BadParameters, "cube n must be an integer"),
    "cube-nan-k": (lambda: sd.CubeSpec(2, NAN), BadParameters, "cube k must be an integer"),
    "circle-fractional-size": (
        lambda: sd.ising_circle(3.5, 0.5), BadParameters, "circle size N must be an integer"
    ),
    "circle-dual-fractional-size": (
        lambda: sd.ising_circle_dual(3.5, 0.5), BadParameters, "circle size N must be an integer"
    ),
    "chain-fractional-length": (
        lambda: sd.chain_poset(2.5), BadParameters, "chain length must be an integer"
    ),
    "coupon-fractional-N": (
        lambda: sd.coupon_collector_bound(2.5, 1.0), BadParameters, "coupon count N must be an integer"
    ),
    "coupon-bool-N": (
        lambda: sd.coupon_collector_bound(True, 1.0), BadParameters, "coupon count N must be an integer"
    ),
    "chebyshev-fractional-n": (
        lambda: sd.chebyshev_bound(2.5, 1.5, 1.0), BadParameters, "cube n must be an integer"
    ),
    "chebyshev-fractional-k": (
        lambda: sd.chebyshev_bound(3, 1.5, 1.0), BadParameters, "cube k must be an integer"
    ),
    "default-horizon-nan": (lambda: sd.default_horizon(NAN), BadParameters, "mean must be finite, got nan"),
    "default-horizon-inf": (
        lambda: sd.default_horizon(float("inf")), BadParameters, "mean must be finite, got inf"
    ),
    # an integer size has no upper bound of its own: the state cap refuses it
    "grid-huge-side": (
        lambda: sd.grid_poset([10**30]), SizeOverflow,
        "state space of size 1000000000000000000000000000000 exceeds cap 16384",
    ),
    "cube-huge-n": (
        lambda: sd.kary_cube(sd.CubeSpec(10**30, 1)), TooLarge,
        "state space of size at least 2**1000000000000000000000000000000 exceeds cap 16384",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_refusal_raises_its_error_and_message(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build, size",
    [
        (lambda n: sd.chain_poset(n(3)), 3),
        (lambda n: sd.grid_poset([n(2), np.int32(3)]), 6),
        (lambda n: sd.ising_circle(n(4), 0.5), 16),
        (lambda n: sd.ising_circle_dual(n(4), 0.5), 16),
        (lambda n: sd.ising_gibbs_graph(n(3), np.array([[0, 1], [1, 2]]), 0.5), 8),
        (lambda n: sd.lattice_walk(sd.LatticeSpec(n(3), *RATES)), 16),
        (lambda n: sd.kary_cube(sd.CubeSpec(n(2), n(1))), 4),
    ],
    ids=["chain", "grid", "circle", "circle-dual", "graph", "lattice", "cube"],
)
def test_numpy_integer_sizes_build(build, size):
    assert build(np.int64).size == build(int).size == size


def test_save_chain_refuses_other_objects_before_writing(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(TypeError) as info:
        sd.save_chain(path, 42)
    assert str(info.value) == "cannot serialize int"
    assert not path.exists()

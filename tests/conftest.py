from functools import lru_cache

import numpy as np

import ssdual as sd


@lru_cache(maxsize=None)
def ising(N, beta):
    return sd.ising_circle(N, beta)


@lru_cache(maxsize=None)
def ising_dual(N, beta):
    return sd.build_dual(ising(N, beta))


@lru_cache(maxsize=None)
def cube(n, k):
    return sd.kary_cube(sd.CubeSpec(n=n, k=k))


@lru_cache(maxsize=None)
def cube_dual(n, k):
    return sd.build_dual(cube(n, k))


@lru_cache(maxsize=None)
def cube_closed_dual(n, k):
    return sd.kary_cube_dual(sd.CubeSpec(n=n, k=k))


LATTICE_PARAMS = (
    (0.2, 0.2, 0.25, 0.25),
    (0.15, 0.3, 0.25, 0.2),
)


@lru_cache(maxsize=None)
def lattice(N, params=LATTICE_PARAMS[0]):
    l1, l2, m1, m2 = params
    return sd.lattice_walk(sd.LatticeSpec(N=N, lambda1=l1, lambda2=l2, mu1=m1, mu2=m2))


@lru_cache(maxsize=None)
def lattice_dual(N, params=LATTICE_PARAMS[0]):
    return sd.build_dual(lattice(N, params))


# The 46 models, each as (chain, dual, *args): Ising N in {3, 4, 5, 6, 8, 10} at four
# temperatures, the lattice at N in {1, 2, 3, 8, 24} with both rate sets, and the cube at
# n in {1, 2, 3, 5}, k in {1, 2, 3}.
MODELS = {
    **{f"ising-{N}-{b}": (ising, ising_dual, N, b) for N in (3, 4, 5, 6, 8, 10) for b in (0.0, 0.5, 1.0, 2.0)},
    **{f"lattice-{N}-{i}": (lattice, lattice_dual, N, rates)
       for N in (1, 2, 3, 8, 24) for i, rates in enumerate(LATTICE_PARAMS)},
    **{f"cube-{n}-{k}": (cube, cube_dual, n, k) for n in (1, 2, 3, 5) for k in (1, 2, 3)},
}


def rotating_dual():
    """0 < {a, b, c} < 1, and the dual rotates a -> b -> c -> a: a level block whose
    eigenvalues are complex, -0.25 +- 0.433i beside 0.5."""
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
    return sd.DualChain(poset=poset, P_star=P, nu_star=[1, 0, 0, 0, 0], absorbing_index=4)


def version_1_document(obj, meta):
    """The dict the version 1 writers dumped: the dense P.tolist() plus the other fields."""
    dual = isinstance(obj, sd.DualChain)
    P, nu = (obj.P_star, obj.nu_star) if dual else (obj.P, obj.nu)
    doc = {
        "version": 1,
        "labels": [list(lab) for lab in obj.poset.labels],
        "covers": [[a, b] for a, b in obj.poset.covers],
        "P": P.tolist(),
        "nu": nu.tolist(),
        "meta": meta,
    }
    if dual:
        doc["absorbing_index"] = obj.absorbing_index
    elif obj.pi is not None:
        doc["pi"] = obj.pi.tolist()
    return doc

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssdual as sd
import ssdual.models as models_module
import ssdual.poset as poset_module
from oracles import closure_from_covers, down_set_sums, mobius_by_first_argument, peak_bytes
from oracles import reference_build_poset
from ssdual.errors import BadParameters, CycleDetected, NoUniqueMax, SizeOverflow, TooLarge
from ssdual.poset import _axis_apply, _mobius_apply


@st.composite
def poset_inputs(draw):
    size = draw(st.integers(min_value=1, max_value=12))
    order = draw(st.permutations(range(size)))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
            max_size=3 * size,
        )
    )
    covers = [
        (order[min(a, b)], order[max(a, b)]) for a, b in pairs if a != b
    ]
    return size, covers


def untouched_inputs(transform, a) -> set[bytes]:
    """The bytes of ``transform`` on a C-ordered, an F-ordered and a read-only copy of ``a``, each
    result in C order, once each copy of ``a`` is asserted to come back unchanged."""
    frozen = np.array(a)
    frozen.flags.writeable = False
    results = set()
    for work in (np.array(a, order="C"), np.array(a, order="F"), frozen):
        kept = work.tobytes()
        results.add(np.asarray(transform(work)).tobytes())
        assert work.tobytes() == kept
    return results


def build(size, covers):
    return sd.build_poset(list(range(size)), covers)


def _random_poset(rng, size):
    order = rng.permutation(size)
    covers = set()
    for _ in range(2 * size):
        a, b = sorted(int(v) for v in rng.integers(0, size, size=2))
        if a != b:
            covers.add((int(order[a]), int(order[b])))
    return sd.build_poset(list(range(size)), covers)


def _stacked_antichains(levels, width=3):
    """bottom < `levels` antichains of `width` < top, each level below the next.

    mu(bottom, top) = -(1 - width) ** levels.
    """
    size = levels * width + 2
    covers = [(0, 1 + a) for a in range(width)]
    for level in range(levels - 1):
        lo, hi = 1 + level * width, 1 + (level + 1) * width
        covers += [(lo + a, hi + b) for a in range(width) for b in range(width)]
    covers += [(size - 1 - width + a, size - 1) for a in range(width)]
    return sd.build_poset(list(range(size)), covers)


class TestBuildPoset:
    def test_two_chain(self):
        p = sd.build_poset(["a", "b"], [(0, 1)])
        assert p.labels == ("a", "b")
        assert p.leq.tolist() == [[True, True], [False, True]]
        assert p.has_unique_min and p.has_unique_max

    def test_antichain_reachability_is_identity(self):
        p = sd.build_poset(["a", "b"], [])
        assert np.array_equal(p.leq, np.eye(2, dtype=bool))
        assert not p.has_unique_max

    def test_boolean_square_has_nine_relations(self):
        p = sd.grid_poset([2, 2])
        assert int(p.leq.sum()) == 9

    def test_duplicate_covers_tolerated(self):
        p = sd.build_poset(["a", "b"], [(0, 1), (0, 1)])
        assert p.covers == ((0, 1),)

    def test_empty_label_list_rejected(self):
        with pytest.raises(BadParameters, match="at least one state"):
            sd.build_poset([], [])

    @pytest.mark.parametrize(
        "labels,message",
        [
            (["a", "b", "a"], "duplicate label 'a'"),
            ([(0, 1), (0, 1)], "duplicate"),
            ([["a"], ["b"]], "not hashable"),
        ],
    )
    def test_labels_must_be_distinct_and_hashable(self, labels, message):
        with pytest.raises(BadParameters, match=message):
            sd.build_poset(labels, [])

    def test_self_cover_rejected(self):
        with pytest.raises(BadParameters):
            sd.build_poset(["a"], [(0, 0)])

    def test_out_of_range_cover_rejected(self):
        with pytest.raises(BadParameters):
            sd.build_poset(["a", "b"], [(0, 2)])

    def test_cycle_detected_with_labels(self):
        with pytest.raises(CycleDetected, match="'b'"):
            sd.build_poset(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])

    def test_cycle_above_the_first_state_is_named(self):
        # 'a' is unresolved only because it lies above the cycle 'b' <-> 'c'
        with pytest.raises(CycleDetected, match="'b' -> 'c' -> 'b'"):
            sd.build_poset(["a", "b", "c"], [(1, 2), (2, 1), (1, 0)])

    def test_deterministic_tiebreak_by_input_index(self):
        p = sd.build_poset(["a", "b", "c"], [(2, 1)])
        assert p.labels == ("a", "c", "b")
        assert p.enumeration.tolist() == [0, 2, 1]

    def test_redundant_pair_absorbed_into_closure(self):
        p = sd.build_poset(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
        assert p.covers == ((0, 1), (1, 2))

    def test_max_index_requires_unique_max(self):
        p = sd.build_poset(["a", "b"], [])
        with pytest.raises(NoUniqueMax):
            p.max_index

    @given(poset_inputs())
    @settings(max_examples=60, deadline=None)
    def test_consistent_enumeration_and_closure(self, inputs):
        size, covers = inputs
        p = build(size, covers)
        assert sorted(p.enumeration.tolist()) == list(range(size))
        # upper triangular: i <= j whenever leq[i, j]
        assert not np.tril(p.leq, -1).any()
        expected = closure_from_covers(size, covers)
        remap = p.enumeration
        assert np.array_equal(p.leq, expected[np.ix_(remap, remap)])


_LATTICE_9 = sd.LatticeSpec(2, 0.2, 0.2, 0.25, 0.25)


@pytest.mark.parametrize(
    "build_too_many,error",
    [
        pytest.param(lambda: sd.build_poset(list(range(5)), []), SizeOverflow, id="build_poset"),
        pytest.param(lambda: sd.chain_poset(5), SizeOverflow, id="chain_poset"),
        pytest.param(lambda: sd.grid_poset([5]), SizeOverflow, id="grid_poset"),
        pytest.param(
            lambda: sd.product_poset(sd.chain_poset(2), sd.chain_poset(3)), SizeOverflow,
            id="product_poset",
        ),
        pytest.param(lambda: sd.ising_circle(3, 0.1), TooLarge, id="ising_circle"),
        pytest.param(
            lambda: sd.ising_gibbs_graph(3, [(0, 1), (1, 2)], 0.1), TooLarge, id="ising_gibbs_graph"
        ),
        pytest.param(lambda: sd.ising_circle_dual(3, 0.1), TooLarge, id="ising_circle_dual"),
        pytest.param(lambda: sd.lattice_walk(_LATTICE_9), TooLarge, id="lattice_walk"),
        pytest.param(lambda: sd.lattice_walk_dual(_LATTICE_9), TooLarge, id="lattice_walk_dual"),
        pytest.param(lambda: sd.kary_cube(sd.CubeSpec(1, 4)), TooLarge, id="kary_cube"),
        pytest.param(lambda: sd.kary_cube_dual(sd.CubeSpec(1, 4)), TooLarge, id="kary_cube_dual"),
    ],
)
def test_state_cap_bounds_every_builder(monkeypatch, build_too_many, error):
    monkeypatch.setenv("SSD_MAX_STATES", "4")
    assert sd.max_states() == 4
    with pytest.raises(error, match="exceeds cap 4") as raised:
        build_too_many()
    assert type(raised.value) is error


def _same_poset(p, q):
    assert p.labels == q.labels and p.covers == q.covers
    assert np.array_equal(p.leq, q.leq) and np.array_equal(p.enumeration, q.enumeration)


def outcome(build, labels, covers):
    """The poset ``build`` makes, as comparable fields, or its exception's type and message."""
    try:
        p = build(labels, covers)
    except Exception as exc:
        return type(exc), str(exc)
    return p.labels, p.covers, p.leq.tolist(), p.enumeration.tolist(), p.shape


COVER_LISTS = {
    "first-bad-sorted": [(2, 2), (0, 5), (1, 1)],
    "self-covers": [(3, 3), (1, 1), (0, 1)],
    "loop-before-range": [(1, 1), (1, 7)],
    "negative": [(0, 1), (-1, 2)],
    "beyond-int64": [(0, 1), (1, 2**70), (2**70, 0)],
    "duplicates": [(0, 1), (1, 2), (0, 1), (1, 2)],
    "redundant": [(0, 1), (1, 2), (0, 2)],
    "cycle": [(0, 1), (1, 2), (2, 0)],
    "unsorted-grid": [(1, 3), (2, 3), (0, 2), (0, 1)],
    "numpy-and-float": [(np.int64(0), 1.0), (np.int32(1), np.float64(3))],
    "array": np.array([[0, 1], [0, 2], [1, 3], [2, 3]]),
    "generator": [(0, 1), (1, 2), (2, 3)],  # passed as an iterator
    "empty": [],
}


class TestCoverCodes:
    """build_poset's one array of cover codes against its per-pair loop (``oracles``)."""

    @pytest.mark.parametrize("name", COVER_LISTS)
    def test_same_poset_or_refusal(self, name):
        covers = COVER_LISTS[name]
        want = outcome(reference_build_poset, list("abcd"), covers)
        assert outcome(sd.build_poset, list("abcd"), iter(covers) if name == "generator" else covers) == want


class TestGridRecognition:
    """build_poset keeps the shape of covers that are exactly a grid's, in mixed radix."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: sd.chain_poset(5),
            lambda: sd.grid_poset([25, 25]),
            lambda: sd.grid_poset([4] * 4),
            lambda: sd.product_poset(sd.grid_poset([2, 3]), sd.chain_poset(4)),
            lambda: sd.ising_circle(4, 0.5).poset,  # spin labels
        ],
        ids=["chain", "square", "cube", "product", "ising"],
    )
    def test_grid_covers_give_the_shape_of_the_slow_path_poset(self, make, monkeypatch):
        grid = make()
        fast = sd.build_poset(list(grid.labels), grid.covers)
        assert fast.shape == grid.shape
        monkeypatch.setattr(poset_module, "_grid_shape", lambda size, covers: None)
        slow = sd.build_poset(list(grid.labels), grid.covers)
        assert slow.shape is None
        _same_poset(fast, slow)
        _same_poset(fast, grid)

    def test_missing_cover_falls_back(self):
        covers = sd.grid_poset([3, 3]).covers
        assert sd.build_poset(range(9), covers[:4] + covers[5:]).shape is None

    def test_redundant_pair_falls_back(self):
        p = sd.build_poset(range(3), [(0, 1), (1, 2), (0, 2)])
        assert p.shape is None and p.covers == sd.chain_poset(3).covers

    def test_relabelled_grid_falls_back(self):
        grid = sd.grid_poset([3, 3])
        perm = [0, 1, 2, 3, 5, 4, 6, 7, 8]  # swap the states (1, 1) and (2, 1)
        p = sd.build_poset(range(9), [(perm[a], perm[b]) for a, b in grid.covers])
        assert p.shape is None
        assert p.enumeration.tolist() == perm and np.array_equal(p.leq, grid.leq)

    def test_size_not_a_product_of_the_radices_falls_back(self):
        # the covers of the 2 x 3 grid plus an isolated seventh state
        p = sd.build_poset(range(7), sd.grid_poset([2, 3]).covers)
        assert p.shape is None and p.size == 7


class TestMobius:
    def test_two_chain(self):
        pair = sd.mobius_pair(sd.chain_poset(2))
        assert pair.mobius.tolist() == [[1, -1], [0, 1]]

    # 11 coordinates: the Kronecker mu at 2048 states
    @pytest.mark.parametrize("dims", [3, 11])
    def test_boolean_lattice_sign_formula(self, dims):
        p = sd.grid_poset([2] * dims)
        pair = sd.mobius_pair(p)
        ranks = np.array([sum(lab) for lab in p.labels])
        signs = 1 - 2 * ((ranks[None, :] - ranks[:, None]) % 2)
        assert np.array_equal(pair.mobius, np.where(p.leq, signs, 0))

    def test_boolean_lattice_from_covers_runs_float_certificate(self, monkeypatch):
        # the same order without its shape: its 2048-state mu is the
        # certified float inverse, not the Python-integer fallback
        monkeypatch.setattr(poset_module, "_exact_mobius", None)
        grid = sd.grid_poset([2] * 11)
        p = sd.Poset(range(grid.size), grid.covers, grid.leq, grid.enumeration)
        assert p.shape is None and np.array_equal(p.leq, grid.leq)
        ranks = np.array([sum(lab) for lab in grid.labels])
        signs = 1 - 2 * ((ranks[None, :] - ranks[:, None]) % 2)
        assert np.array_equal(sd.mobius_pair(p).mobius, np.where(p.leq, signs, 0))

    def test_square_lattice_unit_box(self):
        p = sd.grid_poset([4, 4])
        pair = sd.mobius_pair(p)
        for i, (x, y) in enumerate(p.labels):
            for j, (u, v) in enumerate(p.labels):
                dx, dy = u - x, v - y
                if (dx, dy) in ((0, 0), (1, 1)):
                    expect = 1
                elif (dx, dy) in ((1, 0), (0, 1)):
                    expect = -1
                else:
                    expect = 0
                assert pair.mobius[i, j] == expect

    @given(poset_inputs())
    @settings(max_examples=40, deadline=None)
    def test_inverse_identities_exact(self, inputs):
        size, covers = inputs
        pair = sd.mobius_pair(build(size, covers))
        eye = np.eye(size, dtype=np.int64)
        assert np.array_equal(pair.zeta @ pair.mobius, eye)
        assert np.array_equal(pair.mobius @ pair.zeta, eye)

    @given(poset_inputs())
    @settings(max_examples=30, deadline=None)
    def test_matches_first_argument_recursion(self, inputs):
        size, covers = inputs
        p = build(size, covers)
        assert np.array_equal(sd.mobius_pair(p).mobius, mobius_by_first_argument(p.leq))

    def test_wide_levels_exact_beyond_float_certificate(self, monkeypatch):
        # 152 * 2**50 > 2**53, so mu comes from the Python-integer recursion
        calls = []
        exact = poset_module._exact_mobius
        monkeypatch.setattr(
            poset_module, "_exact_mobius", lambda leq: calls.append(leq.shape) or exact(leq)
        )
        p = _stacked_antichains(50)
        assert p.size == 152
        pair = sd.mobius_pair(p)
        assert calls == [(152, 152)]
        assert pair.mobius[0, -1] == -(2**50)
        assert np.array_equal(pair.zeta @ pair.mobius, np.eye(p.size, dtype=np.int64))

    def test_overflow_raises_instead_of_wrapping(self):
        # mu(bottom, top) = -2**64 wraps to 0 in int64
        with pytest.raises(ArithmeticError):
            sd.mobius_pair(_stacked_antichains(64))

    def test_alternating_sums_collapse(self):
        p = sd.grid_poset([3, 3])
        pair = sd.mobius_pair(p)
        for x in range(p.size):
            for y in range(p.size):
                if not p.leq[x, y]:
                    continue
                total = sum(
                    pair.mobius[z, y] for z in range(p.size) if p.leq[x, z] and p.leq[z, y]
                )
                assert total == (1 if x == y else 0)

    def test_mobius_zero_outside_up_set(self):
        p = sd.grid_poset([3, 2])
        pair = sd.mobius_pair(p)
        assert not pair.mobius[~p.leq].any()


class TestProductPoset:
    def test_square_from_chains(self):
        p = sd.product_poset(sd.chain_poset(2), sd.chain_poset(2))
        assert np.array_equal(p.leq, sd.grid_poset([2, 2]).leq)
        assert p.labels == ((0, 0), (1, 0), (0, 1), (1, 1))

    def test_repeated_chain_matches_grid(self):
        q = sd.product_poset(
            sd.product_poset(sd.chain_poset(3), sd.chain_poset(3)), sd.chain_poset(3)
        )
        grid = sd.grid_poset([3, 3, 3])
        assert np.array_equal(q.leq, grid.leq)
        assert q.has_unique_min and q.has_unique_max
        assert q.labels[0] == ((0, 0), 0) and q.labels[-1] == ((2, 2), 2)

    @pytest.mark.parametrize(
        "left,right", [((2,) * 6, (2,) * 6), ((3, 1), (4,)), ((1,), (2, 3))], ids=str
    )
    def test_product_of_grids_is_the_joined_grid(self, left, right):
        p, q = sd.grid_poset(left), sd.grid_poset(right)
        prod, grid = sd.product_poset(p, q), sd.grid_poset(left + right)
        assert prod.shape == grid.shape == left + right
        assert prod.covers == grid.covers and np.array_equal(prod.leq, grid.leq)
        assert np.array_equal(prod.enumeration, grid.enumeration)
        assert prod.labels == tuple((a, b) for b in q.labels for a in p.labels)

    def test_mobius_is_product(self):
        p = sd.build_poset(list("abcd"), [(0, 1), (0, 2), (1, 3), (2, 3)])
        q = sd.chain_poset(3)
        pq = sd.product_poset(p, q)
        expect = np.kron(sd.mobius_pair(q).mobius, sd.mobius_pair(p).mobius)
        assert np.array_equal(sd.mobius_pair(pq).mobius, expect)

    def test_mobius_product_rule_brute_force_near_cap(self):
        # every product pair satisfies mu((a,b),(a',b')) = mu(a,a') mu(b,b')
        rng = np.random.default_rng(11)
        left = _random_poset(rng, 14)
        right = _random_poset(rng, 16)
        prod = sd.product_poset(left, right)
        assert prod.size == 224
        mu = sd.mobius_pair(prod).mobius
        mu_left = sd.mobius_pair(left).mobius
        mu_right = sd.mobius_pair(right).mobius
        for i in range(prod.size):
            a, b = i % left.size, i // left.size
            for j in range(prod.size):
                c, d = j % left.size, j // left.size
                assert mu[i, j] == mu_left[a, c] * mu_right[b, d]


class TestGridPoset:
    @pytest.mark.parametrize("shape", [(1,), (3, 1, 2), (2, 2, 2, 2)])
    def test_labels_and_covers_match_per_state_reference(self, shape):
        labels = []
        for i in range(math.prod(shape)):
            lab = []
            for s in shape:
                i, digit = divmod(i, s)
                lab.append(digit)
            labels.append(tuple(lab))
        # a cover raises exactly one coordinate by one
        covers = [
            (i, j)
            for i, a in enumerate(labels)
            for j, b in enumerate(labels)
            if sorted(y - x for x, y in zip(a, b)) == [0] * (len(shape) - 1) + [1]
        ]
        p = sd.grid_poset(shape)
        assert p.labels == tuple(labels)
        assert p.covers == tuple(covers)
        assert all(type(v) is int for lab in p.labels for v in lab)


@st.composite
def shaped_posets(draw):
    """A product of chains of length 1-4, at most 256 states, from any of its constructors."""
    shape = draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=8).filter(lambda s: math.prod(s) <= 256)
    )
    split = draw(st.integers(0, len(shape)))
    if 0 < split < len(shape):
        return sd.product_poset(sd.grid_poset(shape[:split]), sd.grid_poset(shape[split:]))
    if len(shape) == 1:
        return sd.chain_poset(shape[0])
    return sd.grid_poset(shape)


def unshaped(p):
    """The same order without a shape."""
    q = sd.Poset(range(p.size), p.covers, p.leq, p.enumeration)
    assert q.shape is None and np.array_equal(q.enumeration, np.arange(p.size))
    return q


class TestShapedCalculus:
    def test_constructors_set_shape(self):
        assert sd.chain_poset(3).shape == (3,)
        assert sd.grid_poset([2, 3]).shape == (2, 3)
        assert sd.product_poset(sd.grid_poset([2, 3]), sd.chain_poset(4)).shape == (2, 3, 4)
        assert sd.ising_circle(3, 0.5).poset.shape == (2, 2, 2)
        vee = sd.build_poset([0, 1, 2], [(0, 1), (0, 2)])
        assert sd.product_poset(vee, sd.chain_poset(2)).shape is None

    def test_shape_must_match_size(self):
        p = sd.grid_poset([2, 2])
        with pytest.raises(BadParameters, match="shape"):
            sd.Poset(
                labels=p.labels, covers=p.covers, leq=p.leq, enumeration=p.enumeration, shape=(3,)
            )

    def test_shape_must_describe_the_order(self):
        # an antichain of 4 states is not the chain of length 4
        with pytest.raises(BadParameters, match="product of chains"):
            sd.Poset(
                labels=range(4), covers=(), leq=np.eye(4, dtype=bool), enumeration=np.arange(4),
                shape=(4,),
            )
        grid = sd.grid_poset([2, 2])
        with pytest.raises(BadParameters, match="product of chains"):
            dataclasses.replace(grid, leq=sd.chain_poset(4).leq)
        assert dataclasses.replace(grid, labels="abcd").shape == (2, 2)

    def test_shape_alone_gives_the_order(self):
        for p in (sd.chain_poset(3), sd.grid_poset([3, 1, 2]), sd.grid_poset([2, 2, 2])):
            q = sd.Poset(p.labels, p.covers, None, p.enumeration, p.shape)
            assert np.array_equal(q.leq, p.leq) and q.leq.dtype == bool
            assert not q.leq.flags.writeable
        with pytest.raises(BadParameters, match="needs its order"):
            sd.Poset(labels=range(2), covers=[(0, 1)], leq=None, enumeration=np.arange(2))

    @pytest.mark.parametrize(
        "builder",
        ["binary-grid", "quaternary-grid", "build-on-grid-covers", "spin-poset", "product"],
    )
    def test_order_is_built_once(self, builder):
        # 4096 states: one boolean order is 16 MiB; building it twice, or
        # checking a built order against a second one, costs at least 2x
        grid = sd.grid_poset((2,) * 12) if builder == "build-on-grid-covers" else None
        build = {
            "binary-grid": lambda: sd.grid_poset((2,) * 12),
            "quaternary-grid": lambda: sd.grid_poset((4,) * 6),
            "build-on-grid-covers": lambda: sd.build_poset(grid.labels, grid.covers),
            "spin-poset": lambda: models_module._spin_poset(12),
            "product": lambda: sd.product_poset(sd.grid_poset((2,) * 6), sd.grid_poset((2,) * 6)),
        }[builder]
        p, peak = peak_bytes(build)
        assert p.size == 4096 and p.shape is not None
        assert peak < 2 * p.leq.nbytes

    def test_zeta_is_the_order_itself(self):
        grid = sd.grid_poset([3, 2])
        for p in (grid, unshaped(grid), _random_poset(np.random.default_rng(5), 9)):
            pair = sd.mobius_pair(p)
            assert np.shares_memory(pair.zeta, p.leq)
            assert pair.zeta.dtype == bool and pair.mobius.dtype == np.int64
            assert np.array_equal(pair.zeta @ pair.mobius, np.eye(p.size, dtype=np.int64))

    def test_restriction_keeps_a_grid_shape(self):
        d = sd.kary_cube_dual(sd.CubeSpec(2, 2))
        sub = sd.restrict_to_reachable(d)
        # {0, 2}^2 is the grid (2, 2); its enumeration still lists the parent's indices
        assert sub.size == 4 and sub.poset.shape == (2, 2)
        assert sub.poset.enumeration.tolist() == [0, 2, 6, 8]
        assert np.array_equal(sub.P_star, d.P_star[np.ix_([0, 2, 6, 8], [0, 2, 6, 8])])
        assert sd.restrict_to_reachable(sd.kary_cube_dual(sd.CubeSpec(3, 2))).poset.shape == (2, 2, 2)

    def test_a_swept_product_gets_a_fresh_exact_pair(self):
        p = sd.grid_poset((2,) * 8)  # 256 states: zeta and Mobius products sweep its axes
        first, second = sd.mobius_pair(p), sd.mobius_pair(p)
        assert first is not second and "_mobius_pair" not in p.__dict__
        kron = functools.reduce(np.kron, [np.array([[1, -1], [0, 1]])] * 8)  # mu of 0 < 1, 8 times
        assert np.array_equal(first.mobius, second.mobius) and np.array_equal(first.mobius, kron)

    @pytest.mark.parametrize(
        "build",
        [lambda: sd.grid_poset((2,) * 7), lambda: _random_poset(np.random.default_rng(3), 12)],
        ids=["dense-product", "unshaped"],
    )
    def test_a_poset_that_multiplies_by_mu_keeps_its_pair(self, build):
        p = build()
        assert sd.mobius_pair(p) is sd.mobius_pair(p)

    def test_the_pair_of_a_swept_product_is_not_kept(self):
        # the Ising chain at N = 10 holds 9.8 MiB, 8 of them its kernel; a kept mu adds 8 MiB
        tracemalloc.start()
        try:
            chain = sd.ising_circle(10, 0.5)
            before = tracemalloc.get_traced_memory()[0]
            sd.mobius_pair(chain.poset)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert live - before < 2**20 and live < 10 * 2**20

    @given(shaped_posets())
    @settings(max_examples=40, deadline=None)
    def test_kronecker_mobius_equals_dense_inverse(self, p):
        q = unshaped(p)
        assert np.array_equal(p.leq, q.leq)
        assert np.array_equal(sd.mobius_pair(p).mobius, sd.mobius_pair(q).mobius)
        assert np.array_equal(sd.mobius_pair(p).zeta, sd.mobius_pair(q).zeta)

    @given(shaped_posets(), st.integers(0, 2**32 - 1), st.sampled_from("CF"))
    @settings(max_examples=60, deadline=None)
    def test_axis_transforms_match_dense_products(self, p, seed, order):
        q = unshaped(p)
        rng = np.random.default_rng(seed)
        A = np.asarray(rng.standard_normal((p.size, p.size)), order=order)
        v = rng.standard_normal(p.size)
        mu = sd.mobius_pair(q).mobius.astype(float)
        zeta = p.leq.astype(float)

        def close(fast, dense, scale):
            assert np.all(np.abs(fast - dense) <= 1e-12 * scale)

        # the axis sweeps directly, since small shapes take the dense products
        for name, M in (("mobius", mu), ("mobius.T", mu.T), ("|mobius|", np.abs(mu))):
            for right, Z in (("zeta", zeta), ("zeta.T", zeta.T)):
                fast, scale = _axis_apply(p.shape, A, name, right), np.abs(M) @ np.abs(A) @ Z
                close(fast, M @ A @ Z, scale)
                close(fast, _mobius_apply(q, A, name, right), scale)
                close(_mobius_apply(p, A, name, right), M @ A @ Z, scale)
            close(_axis_apply(p.shape, v, left=name), M @ v, np.abs(M) @ np.abs(v))
            close(_axis_apply(p.shape, v, right=name), v @ M, np.abs(v) @ np.abs(M))
        for name, Z in (("zeta", zeta), ("zeta.T", zeta.T)):
            close(_axis_apply(p.shape, v, left=name), Z @ v, Z @ np.abs(v))
            close(_axis_apply(p.shape, v, right=name), v @ Z, np.abs(v) @ Z)
        for direction in ("down", "up"):
            fast = sd.check_mobius_monotone(A, p, direction).transformed
            dense = sd.check_mobius_monotone(A, q, direction).transformed
            M, Z = (mu, zeta) if direction == "down" else (mu.T, zeta.T)
            close(fast, dense, np.abs(M) @ np.abs(A) @ Z)
        close(sd.down_set_masses(p, np.abs(v)), sd.down_set_masses(q, np.abs(v)), np.abs(v) @ zeta)
        scale = np.abs(mu) @ zeta @ np.abs(v)
        close(sd.mobius_inverse_check(v, p), sd.mobius_inverse_check(v, q), scale)
        # no sweep writes into its input, and the input's memory order never changes a value
        for name in poset_module._AXIS_STEPS:
            for side in ("left", "right"):
                sweep = functools.partial(_axis_apply, p.shape, **{side: name})
                assert untouched_inputs(sweep, A) == {sweep(A.copy()).tobytes()}


    @given(shaped_posets(), st.integers(1, 5), st.integers(0, 2**32 - 1), st.sampled_from("CF"))
    @settings(max_examples=40, deadline=None)
    def test_batches_match_dense_products(self, p, k, seed, order):
        # k rows with a right factor, k columns with a left one, each left as it was
        rng = np.random.default_rng(seed)
        rows = np.asarray(rng.standard_normal((k, p.size)), order=order)
        cols = np.asarray(rng.standard_normal((p.size, k)), order=order)
        mu = sd.mobius_pair(unshaped(p)).mobius.astype(float)
        zeta = p.leq.astype(float)
        for name, M in (("mobius", mu), ("zeta", zeta), ("zeta.T", zeta.T), ("|mobius.T|", np.abs(mu.T))):
            for a, dense, side in ((rows, rows @ M, "right"), (cols, M @ cols, "left")):
                scale = np.abs(a) @ np.abs(M) if side == "right" else np.abs(M) @ np.abs(a)
                fast = _axis_apply(p.shape, a, **{side: name})
                assert np.all(np.abs(fast - dense) <= 1e-12 * scale)
                sweep = functools.partial(_axis_apply, p.shape, **{side: name})
                assert untouched_inputs(sweep, a) == {fast.tobytes()}
                # dense products, through BLAS, may round by memory order: only the input is checked
                untouched_inputs(functools.partial(_mobius_apply, p, **{side: name}), a)
                assert np.all(np.abs(_mobius_apply(p, a, **{side: name}) - dense) <= 1e-12 * scale)

    @pytest.mark.parametrize(
        "shape",
        # block sums over two high axes, over axes of length 1, and dense products: a product of
        # at most 128 states, blocks of fewer than sqrt(M) rows, and an unshaped poset
        [(2,) * 9, (3, 1, 4), (7,), (2, 3, 2, 5), (25, 25), (4, 4, 4, 4), (1, 50, 3, 1, 3), (2, 200), None],
        ids=str,
    )
    def test_down_sums_match_the_link_product(self, shape):
        # rows of zeta.T @ (pi * P) over H are rows of L P, on a walk along the covers
        p = sd.grid_poset(shape) if shape else _stacked_antichains(20)
        rng = np.random.default_rng(11)
        P = np.zeros((p.size, p.size))
        for a, b in p.covers:
            P[a, b], P[b, a] = rng.random(2)
        P /= 1.5 * P.sum(axis=1).max()
        P[np.diag_indices(p.size)] = 1.0 - P.sum(axis=1)
        pi = rng.random(p.size) + 0.1
        link = sd.build_link(p, pi / pi.sum())
        dense, ends = link.matrix @ P, [0]  # nonnegative: its own |.| scale
        for lo, hi, rows in poset_module._down_sums(p, link.pi, P):
            assert lo == ends[-1] < hi and rows.shape == (hi - lo, p.size) and rows.flags.writeable
            assert np.all(np.abs(rows / link.down_mass[lo:hi, None] - dense[lo:hi]) <= 1e-15 * dense[lo:hi])
            ends.append(hi)
        assert ends[-1] == p.size


class TestMobiusInverse:
    def test_two_chain_roundtrip(self):
        p = sd.chain_poset(2)
        f = np.array([0.3, 1.7])
        assert np.allclose(sd.mobius_inverse_check(f, p), f, atol=1e-15)

    def test_indicator_of_max_on_cube(self):
        p = sd.grid_poset([2, 2, 2])
        f = np.zeros(8)
        f[-1] = 1.0
        up_sums = sd.mobius_pair(p).zeta @ f
        assert np.array_equal(up_sums, np.ones(8))
        assert np.allclose(sd.mobius_inverse_check(f, p), f, atol=1e-14)

    def test_wrong_length_rejected(self):
        with pytest.raises(BadParameters):
            sd.mobius_inverse_check(np.ones(3), sd.chain_poset(2))

    @given(st.lists(st.floats(-1, 1), min_size=9, max_size=9))
    @settings(max_examples=50, deadline=None)
    def test_random_function_on_3x3(self, values):
        p = sd.grid_poset([3, 3])
        f = np.asarray(values)
        assert np.abs(sd.mobius_inverse_check(f, p) - f).max() <= 1e-12

    def test_up_sums_match_brute_force(self):
        p = sd.grid_poset([3, 2])
        rng = np.random.default_rng(7)
        f = rng.random(p.size)
        up = sd.mobius_pair(p).zeta @ f
        assert np.allclose(up, down_set_sums(p.leq.T, f), atol=1e-12)

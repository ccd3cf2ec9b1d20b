import io
import json

import numpy as np
import pytest

import ssdual as sd
import ssdual.chainfile as chainfile_module
from conftest import (
    LATTICE_PARAMS,
    cube,
    cube_dual,
    ising,
    ising_dual,
    lattice,
    lattice_dual,
    rotating_dual,
    version_1_document,
)
from oracles import peak_bytes, reference_load_chain, reference_write_csr
from ssdual.cli import main
from ssdual.errors import (
    NoAbsorbingState,
    NotRowStochastic,
    ParseError,
    SchemaVersionMismatch,
    SizeOverflow,
)


def assert_same_load(got, want):
    """Two loads of one file agree: poset, kernel, distributions, absorbing index and meta."""
    p, q = got.chain.poset, want.chain.poset
    assert repr(p.labels) == repr(q.labels) and p.covers == q.covers and p.shape == q.shape
    assert np.array_equal(p.leq, q.leq) and np.array_equal(p.enumeration, q.enumeration)
    for name in ("P", "nu", "pi"):
        a, b = getattr(got.chain, name), getattr(want.chain, name)
        assert (a is None and b is None) or (a.dtype == b.dtype and a.tobytes() == b.tobytes())
    assert got.absorbing_index == want.absorbing_index and got.meta == want.meta


@pytest.fixture(autouse=True)
def paired_loader(monkeypatch):
    """Every ``sd.load_chain`` call in this module also runs the loader as it was before its
    whole-array checks (``oracles.reference_load_chain``): both load the same chain, or both
    raise the same exception type with the same message."""
    load = chainfile_module.load_chain

    def paired(path):
        try:
            want = reference_load_chain(path)
        except Exception as exc:
            with pytest.raises(type(exc)) as raised:
                load(path)
            assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
            raise raised.value
        got = load(path)
        assert_same_load(got, want)
        return got

    monkeypatch.setattr(sd, "load_chain", paired)


class TestRoundTrip:
    def test_chain_with_stationary(self, tmp_path):
        path = tmp_path / "chain.json"
        c = ising(3, 0.5)
        sd.save_chain(path, c, meta={"model": "ising-circle", "params": {"N": 3, "beta": 0.5}})
        loaded = sd.load_chain(path)
        assert loaded.chain.poset.labels == c.poset.labels
        assert loaded.chain.poset.covers == c.poset.covers
        assert np.array_equal(loaded.chain.P, c.P)
        assert np.array_equal(loaded.chain.nu, c.nu)
        assert np.array_equal(loaded.chain.pi, c.pi)
        assert loaded.meta["params"]["beta"] == 0.5
        assert loaded.absorbing_index is None

    def test_dual_keeps_absorbing_index(self, tmp_path):
        path = tmp_path / "dual.json"
        d = cube_dual(2, 2)
        sd.save_chain(path, d)
        loaded = sd.load_chain(path)
        assert loaded.absorbing_index == d.absorbing_index
        again = loaded.dual()
        assert np.array_equal(again.P_star, d.P_star)
        assert np.array_equal(again.nu_star, d.nu_star)

    def test_missing_pi_loads_as_none(self, tmp_path):
        path = tmp_path / "chain.json"
        c = lattice(1)
        sd.save_chain(path, sd.ChainSpec(poset=c.poset, P=c.P, nu=c.nu))
        loaded = sd.load_chain(path)
        assert loaded.chain.pi is None

    def test_save_load_save_is_stable(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        c = lattice(2)
        sd.save_chain(first, c)
        sd.save_chain(second, sd.load_chain(first).chain)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "chain,dual",
        [
            (lambda: lattice(24), lambda: lattice_dual(24)),
            (lambda: cube(4, 3), lambda: cube_dual(4, 3)),
            (lambda: ising(8, 0.5), lambda: ising_dual(8, 0.5)),
        ],
        ids=["lattice", "cube", "ising"],
    )
    def test_loaded_grid_keeps_its_shape_and_its_dual(self, tmp_path, chain, dual):
        path = tmp_path / "chain.json"
        sd.save_chain(path, chain())
        loaded = sd.load_chain(path).chain
        assert loaded.poset.shape == chain().poset.shape
        again = sd.build_dual(loaded)
        assert np.array_equal(again.P_star, dual().P_star)
        assert np.array_equal(again.nu_star, dual().nu_star)

    def test_chain_without_absorbing_cannot_be_dual(self, tmp_path):
        path = tmp_path / "chain.json"
        sd.save_chain(path, ising(3, 0.0))
        with pytest.raises(NoAbsorbingState):
            sd.load_chain(path).dual()


def csr_document(obj, meta):
    """The v2 dict, built directly: P's nonzeros in compressed sparse rows."""
    doc = version_1_document(obj, meta)
    P = np.asarray(doc.pop("P"))
    rows, cols = np.nonzero(P)
    doc.update(
        version=2,
        P_data=P[rows, cols].tolist(),
        P_indices=cols.tolist(),
        P_indptr=np.searchsorted(rows, np.arange(P.shape[0] + 1)).tolist(),
    )
    return doc


FORMAT_CASES = [
    (ising(3, 0.5), {"model": "ising-circle", "params": {"N": 3, "beta": 0.5}}),
    (cube_dual(2, 2), {"model": "cube", "params": {"n": 2, "k": 2, "nested": {"Z": [1, 2]}}}),
]


def same_bits(a, b):
    return np.asarray(a).view(np.uint64).tolist() == np.asarray(b).view(np.uint64).tolist()


class TestFormat:
    @pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indented"])
    @pytest.mark.parametrize("obj,meta", FORMAT_CASES, ids=["ising-chain", "cube-dual"])
    def test_version_1_loads_bit_exactly(self, tmp_path, obj, meta, indent):
        # the document the version 1 writers produced, compact and indented
        path = tmp_path / "v1.json"
        doc = version_1_document(obj, meta)
        path.write_text(json.dumps(doc, indent=indent, sort_keys=True) + "\n")
        loaded = sd.load_chain(path)
        dual = isinstance(obj, sd.DualChain)
        P, nu = (obj.P_star, obj.nu_star) if dual else (obj.P, obj.nu)
        assert loaded.chain.poset.labels == obj.poset.labels
        assert same_bits(loaded.chain.P, P) and same_bits(loaded.chain.nu, nu)
        if dual:
            assert loaded.absorbing_index == obj.absorbing_index
        else:
            assert same_bits(loaded.chain.pi, obj.pi)
        assert loaded.meta == meta

    @pytest.mark.parametrize("obj,meta", FORMAT_CASES, ids=["ising-chain", "cube-dual"])
    def test_writer_matches_reference_encoding(self, tmp_path, obj, meta):
        path = tmp_path / "chain.json"
        sd.save_chain(path, obj, meta=meta)
        doc = csr_document(obj, meta)
        text = path.read_text(encoding="utf-8")
        assert json.loads(text) == doc
        assert text == json.dumps(doc, sort_keys=True) + "\n"

    def test_blocks_of_rows_match_reference_encoding(self, tmp_path):
        # 400 states: 20 blocks of 20 rows; a dual's absorbing row ends the last
        obj = lattice_dual(19)
        assert obj.size == 400 and chainfile_module._BLOCK_ENTRIES // obj.size == 20
        path = tmp_path / "dual.json"
        sd.save_chain(path, obj, meta={})
        doc = csr_document(obj, {})
        assert path.read_text(encoding="utf-8") == json.dumps(doc, sort_keys=True) + "\n"

    @pytest.mark.parametrize("obj", [ising(4, 0.5), cube_dual(2, 2), lattice(4)], ids=str)
    def test_v2_save_load_save_is_byte_stable(self, tmp_path, obj):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        sd.save_chain(first, obj, meta={"m": 1})
        loaded = sd.load_chain(first)
        again = loaded.dual() if isinstance(obj, sd.DualChain) else loaded.chain
        sd.save_chain(second, again, meta=loaded.meta)
        assert json.loads(first.read_text())["version"] == 2
        assert first.read_bytes() == second.read_bytes()
        P = obj.P_star if isinstance(obj, sd.DualChain) else obj.P
        nz = P != 0
        assert same_bits(loaded.chain.P[nz], P[nz])
        assert not loaded.chain.P[~nz].any()

    def test_negative_zero_is_stored_implicitly(self, tmp_path):
        path = tmp_path / "zeros.json"
        P = np.array([[0.5, 0.5, -0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        sd.save_chain(path, sd.ChainSpec(poset=sd.chain_poset(3), P=P, nu=[1.0, 0.0, 0.0]))
        doc = json.loads(path.read_text())
        assert doc["P_indptr"] == [0, 2, 5, 7]
        assert doc["P_indices"] == [0, 1, 0, 1, 2, 1, 2]
        loaded = sd.load_chain(path).chain.P
        assert np.signbit(P[0, 2]) and not np.signbit(loaded[0, 2])
        assert np.array_equal(loaded, P)

    def test_indented_files_still_load(self, tmp_path):
        path = tmp_path / "indented.json"
        c = ising(3, 0.5)
        meta = {"model": "ising-circle"}
        path.write_text(json.dumps(version_1_document(c, meta), indent=2, sort_keys=True) + "\n")
        loaded = sd.load_chain(path)
        assert np.array_equal(loaded.chain.P, c.P)
        assert np.array_equal(loaded.chain.pi, c.pi)
        assert loaded.meta == meta

    def test_extreme_floats_round_trip_bit_exactly(self, tmp_path):
        path = tmp_path / "floats.json"
        P = np.array(
            [[1 / 3, 2 / 3, 0.0], [5e-324, 1 - 2**-53, 2**-53], [0.0, 1 - 2**-53, 2**-53]]
        )
        c = sd.ChainSpec(poset=sd.chain_poset(3), P=P, nu=[1 / 3, 2 / 3, 0.0])
        sd.save_chain(path, c)
        loaded = sd.load_chain(path).chain
        assert loaded.P.view(np.uint64).tolist() == P.view(np.uint64).tolist()
        assert loaded.nu.tolist() == [1 / 3, 2 / 3, 0.0]

    def test_generic_lattice_dual_file_is_small(self, tmp_path):
        # build_dual drops rounding debris, so only the 4.8 entries per row of
        # the closed form are written (1.5 MB when the debris was kept)
        path = tmp_path / "dual.json"
        sd.save_chain(path, lattice_dual(24))
        assert path.stat().st_size < 150_000

    def test_save_peak_memory_below_kernel_size(self, tmp_path):
        c = lattice(19)
        assert c.size == 400
        _, peak = peak_bytes(sd.save_chain, tmp_path / "lattice.json", c)
        assert peak < c.P.nbytes
        # fully dense: every entry is stored, still streamed one row at a time
        dense = sd.ChainSpec(
            poset=sd.chain_poset(400), P=np.full((400, 400), 1 / 400), nu=np.full(400, 1 / 400)
        )
        _, peak = peak_bytes(sd.save_chain, tmp_path / "dense.json", dense)
        assert peak < dense.P.nbytes
        assert np.array_equal(sd.load_chain(tmp_path / "dense.json").chain.P, dense.P)


def write_doc(path, **overrides):
    doc = {
        "version": 1,
        "labels": ["a", "b"],
        "covers": [[0, 1]],
        "P": [[0.5, 0.5], [0.25, 0.75]],
        "nu": [1.0, 0.0],
        "meta": {},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


class TestValidation:
    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(ParseError, match="line 1"):
            sd.load_chain(path)

    def test_version_mismatch(self, tmp_path):
        path = write_doc(tmp_path / "v3.json", version=3)
        with pytest.raises(SchemaVersionMismatch):
            sd.load_chain(path)

    @pytest.mark.parametrize("version", [True, False, 1.0, 2.0, "1", None, [1], 0, -1])
    def test_version_must_be_a_known_integer(self, tmp_path, version):
        # true == 1 in Python; it must not pass for version 1
        path = write_doc(tmp_path / "version.json", version=version)
        with pytest.raises(SchemaVersionMismatch, match="version"):
            sd.load_chain(path)

    def test_cycle_in_covers_named(self, tmp_path):
        path = write_doc(tmp_path / "cyc.json", covers=[[0, 1], [1, 0]])
        with pytest.raises(ParseError, match="cycle"):
            sd.load_chain(path)

    def test_row_sum_violation(self, tmp_path):
        path = write_doc(tmp_path / "rows.json", P=[[0.5, 0.4], [0.25, 0.75]])
        with pytest.raises(ParseError, match="rows sum"):
            sd.load_chain(path)

    def test_negative_entry(self, tmp_path):
        path = write_doc(tmp_path / "neg.json", P=[[-0.5, 1.5], [0.25, 0.75]])
        with pytest.raises(ParseError, match="negative"):
            sd.load_chain(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"version": 1, "labels": ["a"]}))
        with pytest.raises(ParseError, match="covers"):
            sd.load_chain(path)

    def test_bad_cover_pair(self, tmp_path):
        path = write_doc(tmp_path / "cover.json", covers=[[0, 5]])
        with pytest.raises(ParseError, match="cover"):
            sd.load_chain(path)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("P", [[float("nan"), 1.0], [0.25, 0.75]]),
            ("P", [[float("inf"), 0.5], [0.25, 0.75]]),
            ("nu", [float("nan"), 0.0]),
            ("pi", [0.5, float("inf")]),
        ],
    )
    def test_non_finite_entry(self, tmp_path, field, value):
        path = write_doc(tmp_path / "nonfinite.json", **{field: value})
        with pytest.raises(ParseError, match=f"{field} has a non-finite entry"):
            sd.load_chain(path)

    def test_bool_cover_index(self, tmp_path):
        # true == 1 in Python; as a cover index it must not pass for state 1
        path = write_doc(
            tmp_path / "boolcover.json",
            labels=["a", "b", "c"],
            covers=[[0, 1], [True, 2]],
            P=[[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]],
            nu=[1.0, 0.0, 0.0],
        )
        with pytest.raises(ParseError, match="cover"):
            sd.load_chain(path)

    @pytest.mark.parametrize(
        "field,value", [("labels", 5), ("labels", "ab"), ("labels", []), ("covers", 5)]
    )
    def test_labels_and_covers_must_be_lists(self, tmp_path, field, value):
        path = write_doc(tmp_path / "lists.json", **{field: value})
        with pytest.raises(ParseError, match=f"{field} must be"):
            sd.load_chain(path)

    def test_not_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps({"version": 1}).encode("utf-16-le"))
        with pytest.raises(ParseError, match="UTF-8"):
            sd.load_chain(path)

    def test_bool_absorbing_index(self, tmp_path):
        path = write_doc(tmp_path / "boolabs.json", absorbing_index=True)
        with pytest.raises(ParseError, match="absorbing_index"):
            sd.load_chain(path)


    @pytest.mark.parametrize(
        "labels,message",
        [
            (["a", "a"], "duplicate label 'a'"),
            ([[0, 1], [0, 1]], r"duplicate label \(0, 1\)"),
            ([1, 1.0], "duplicate label"),
            ([{"x": 1}, "b"], "not hashable"),
        ],
    )
    def test_labels_must_be_distinct_and_hashable(self, tmp_path, labels, message):
        path = write_doc(tmp_path / "labels.json", labels=labels)
        with pytest.raises(ParseError, match=message):
            sd.load_chain(path)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("nu", [0.5, 0.0], "nu sums to 1 only within 5.000e-01"),
            ("nu", [1.5, -0.5], "nu has negative entry"),
            ("nu", [True, 0.0], "nu is not a numeric array"),
            ("nu", ["1.0", 0.0], "nu is not a numeric array"),
            ("pi", [0.5, 0.5], "pi is stationary only within"),
            ("pi", [1.0, 1.0], "pi sums to 1"),
            ("pi", [-1 / 3, 4 / 3], "pi has negative entry"),
        ],
    )
    def test_distributions_are_validated(self, tmp_path, field, value, message):
        path = write_doc(tmp_path / "dist.json", **{field: value})
        with pytest.raises(ParseError, match=message):
            sd.load_chain(path)

    def test_stationary_pi_loads(self, tmp_path):
        # the stationary law of [[0.5, 0.5], [0.25, 0.75]] is (1/3, 2/3)
        path = write_doc(tmp_path / "pi.json", pi=[1 / 3, 2 / 3])
        assert sd.load_chain(path).chain.pi.tolist() == [1 / 3, 2 / 3]


MISSING = object()


def write_v2(path, **overrides):
    doc = {
        "version": 2,
        "labels": ["a", "b", "c"],
        "covers": [[0, 1], [1, 2]],
        "P_indptr": [0, 2, 5, 7],
        "P_indices": [0, 1, 0, 1, 2, 1, 2],
        "P_data": [0.5, 0.5, 0.25, 0.5, 0.25, 0.5, 0.5],
        "nu": [1.0, 0.0, 0.0],
        "meta": {},
    }
    doc.update(overrides)
    for key in [k for k, v in overrides.items() if v is MISSING]:
        del doc[key]
    path.write_text(json.dumps(doc))
    return path


class TestVersion2Validation:
    def test_valid_document_loads(self, tmp_path):
        P = sd.load_chain(write_v2(tmp_path / "ok.json")).chain.P
        assert P.tolist() == [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]]

    @pytest.mark.parametrize("field", ["P_indptr", "P_indices", "P_data"])
    def test_missing_csr_field(self, tmp_path, field):
        path = write_v2(tmp_path / "missing.json", **{field: MISSING})
        with pytest.raises(ParseError, match=f"missing the '{field}' field"):
            sd.load_chain(path)

    def test_dense_kernel_is_not_read_in_version_2(self, tmp_path):
        path = write_v2(
            tmp_path / "dense.json", P=[[1.0, 0.0, 0.0]] * 3,
            P_indptr=MISSING, P_indices=MISSING, P_data=MISSING,
        )
        with pytest.raises(ParseError, match="P_indices"):
            sd.load_chain(path)

    @pytest.mark.parametrize(
        "value,message",
        [
            ([0, 2, 5], "4 offsets"),
            ([0, 2, 5, 7, 7], "4 offsets"),
            ([1, 2, 5, 7], "4 offsets from 0"),
            ([0, 2, 5, 6], "to len\\(P_indices\\) = 7"),
            ([0, 5, 2, 7], "decreases"),
            ([0, 2, 5, 8], "outside"),
            ([-1, 2, 5, 7], "outside"),
            ([0, 2.0, 5, 7], "list of integers"),
            ([0, True, 5, 7], "list of integers"),
            ("0257", "list of integers"),
        ],
    )
    def test_bad_indptr(self, tmp_path, value, message):
        path = write_v2(tmp_path / "indptr.json", P_indptr=value)
        with pytest.raises(ParseError, match=f"P_indptr.*{message}"):
            sd.load_chain(path)

    @pytest.mark.parametrize(
        "value,message",
        [
            ([0, 1, 0, 1, 3, 1, 2], "outside \\[0, 3\\)"),
            ([0, 1, 0, 1, -1, 1, 2], "outside"),
            ([0, 1, 0, True, 2, 1, 2], "list of integers"),
            ([0, 1, 0, 1.0, 2, 1, 2], "list of integers"),
            ([0, 1, 0, "1", 2, 1, 2], "list of integers"),
            ([0, 1, 0, 1, 2, 1, 2**70], "outside"),
            ([0, 1, 0, 1, 1, 1, 2], "repeats column 1 in row 1"),
            ({"0": 1}, "list of integers"),
        ],
    )
    def test_bad_indices(self, tmp_path, value, message):
        path = write_v2(tmp_path / "indices.json", P_indices=value)
        with pytest.raises(ParseError, match=f"P_indices.*{message}"):
            sd.load_chain(path)

    @pytest.mark.parametrize(
        "value,message",
        [
            ([0.5, 0.5, 0.25, 0.5, 0.25, 0.5], "shape \\(6,\\), expected \\(7,\\)"),
            ([0.5, 0.5, 0.25, 0.5, 0.25, 0.5, 0.5, 0.0], "shape"),
            ([0.5, 0.5, 0.25, 0.5, 0.25, 0.5, float("nan")], "non-finite"),
            ([0.5, 0.5, 0.25, 0.5, 0.25, 0.5, float("inf")], "non-finite"),
            ([0.5, 0.5, 0.25, 0.5, 0.25, 0.5, 10**400], "not a numeric array"),
            ([0.5, 0.5, 0.25, 0.5, 0.25, 0.5, True], "not a numeric array"),
            ([0.5, 0.5, 0.25, 0.5, 0.25, 0.5, "0.5"], "not a numeric array"),
            ([0.5, 0.5, 0.25, 0.5, 0.25, 0.5, [0.5]], "not a numeric array"),
        ],
    )
    def test_bad_data(self, tmp_path, value, message):
        path = write_v2(tmp_path / "data.json", P_data=value)
        with pytest.raises(ParseError, match=f"P_data.*{message}"):
            sd.load_chain(path)

    def test_row_sums_and_signs_checked_after_scatter(self, tmp_path):
        path = write_v2(tmp_path / "rows.json", P_data=[0.5, 0.5, 0.25, 0.5, 0.25, 0.5, 0.4])
        with pytest.raises(ParseError, match="rows sum"):
            sd.load_chain(path)
        path = write_v2(tmp_path / "neg.json", P_data=[1.5, -0.5, 0.25, 0.5, 0.25, 0.5, 0.5])
        with pytest.raises(ParseError, match="negative"):
            sd.load_chain(path)


class TestReenumeration:
    def test_inconsistent_file_order_is_realigned(self, tmp_path):
        # file lists the top state first; the loader re-sorts consistently
        path = tmp_path / "swapped.json"
        doc = {
            "version": 1,
            "labels": ["top", "bottom"],
            "covers": [[1, 0]],
            "P": [[0.75, 0.25], [0.5, 0.5]],
            "nu": [0.0, 1.0],
            "pi": [2 / 3, 1 / 3],
            "absorbing_index": 0,
            "meta": {},
        }
        path.write_text(json.dumps(doc))
        loaded = sd.load_chain(path)
        assert loaded.chain.poset.labels == ("bottom", "top")
        assert loaded.chain.P[0].tolist() == [0.5, 0.5]
        assert loaded.chain.P[1].tolist() == [0.25, 0.75]
        assert loaded.chain.nu.tolist() == [1.0, 0.0]
        assert loaded.chain.pi.tolist() == [1 / 3, 2 / 3]
        assert loaded.absorbing_index == 1

    def test_inconsistent_order_is_realigned_in_version_2(self, tmp_path):
        # top, middle, bottom in the file; the kernel moves down from the top
        path = write_v2(
            tmp_path / "swapped.json",
            labels=["top", "mid", "bottom"],
            covers=[[2, 1], [1, 0]],
            P_indptr=[0, 2, 4, 5],
            P_indices=[0, 1, 1, 2, 2],
            P_data=[0.75, 0.25, 0.5, 0.5, 1.0],
            nu=[0.0, 0.0, 1.0],
            pi=[0.0, 0.0, 1.0],
            absorbing_index=2,
        )
        loaded = sd.load_chain(path)
        assert loaded.chain.poset.labels == ("bottom", "mid", "top")
        assert loaded.chain.P.tolist() == [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.25, 0.75]]
        assert loaded.chain.nu.tolist() == [1.0, 0.0, 0.0]
        assert loaded.chain.pi.tolist() == [1.0, 0.0, 0.0]
        assert loaded.absorbing_index == 0

    @pytest.mark.parametrize(
        "labels,expected",
        [
            ([np.int64(3), np.int64(7)], (3, 7)),
            ([np.float64(0.5), np.float64(1.5)], (0.5, 1.5)),
            ([(np.int64(0), np.float64(0.5)), (np.int64(1), np.float64(0.5))], ((0, 0.5), (1, 0.5))),
        ],
        ids=["int64", "float64", "tuple"],
    )
    def test_numpy_scalar_labels_load_as_python_numbers(self, tmp_path, labels, expected):
        path = tmp_path / "numpy.json"
        poset = sd.build_poset(labels, [(0, 1)])
        sd.save_chain(path, sd.ChainSpec(poset=poset, P=[[0.5, 0.5], [0.5, 0.5]], nu=[1.0, 0.0]))
        loaded = sd.load_chain(path).chain.poset.labels
        assert loaded == expected
        flat = [v for lab in loaded for v in (lab if isinstance(lab, tuple) else (lab,))]
        assert all(type(v) in (int, float) for v in flat)

    def test_tuple_labels_survive(self, tmp_path):
        path = tmp_path / "tuples.json"
        c = lattice(1)
        sd.save_chain(path, c)
        assert sd.load_chain(path).chain.poset.labels == ((0, 0), (1, 0), (0, 1), (1, 1))


def write_debris(path, value, absorbing_index=MISSING):
    """A version 2 file whose P, nu and pi each hold one entry ``value`` where the law is 0."""
    return write_v2(
        path,
        P_indptr=[0, 3, 5, 6],
        P_indices=[0, 1, 2, 1, 2, 2],
        P_data=[0.5, 0.5, value, 0.5, 0.5, 1.0],
        nu=[1.0, value, 0.0],
        pi=[value, 0.0, 1.0],
        absorbing_index=absorbing_index,
    )


class TestKernelContract:
    """A loaded file is checked once; its dual shares the loaded arrays."""

    def test_loaded_dual_shares_the_kernel(self, tmp_path):
        path = tmp_path / "dual.json"
        sd.save_chain(path, lattice_dual(24))
        loaded = sd.load_chain(path)
        dual, peak = peak_bytes(loaded.dual)
        assert np.shares_memory(dual.P_star, loaded.chain.P)
        assert np.shares_memory(dual.nu_star, loaded.chain.nu)
        assert loaded.chain.P.nbytes == 625 * 625 * 8  # 3.1 MB
        assert peak < loaded.chain.P.nbytes / 10

    @pytest.mark.parametrize("absorbing_index", [MISSING, 2], ids=["chain", "dual"])
    def test_debris_loads_as_exact_zero(self, tmp_path, absorbing_index):
        loaded = sd.load_chain(write_debris(tmp_path / "d.json", -5e-13, absorbing_index))
        c = loaded.chain
        for entry in (c.P[0, 2], c.nu[1], c.pi[0]):
            assert entry == 0.0 and not np.signbit(entry)
        assert c.P.min() == c.nu.min() == c.pi.min() == 0.0
        if loaded.absorbing_index is not None:
            assert loaded.dual().P_star[0].tolist() == [0.5, 0.5, 0.0]

    @pytest.mark.parametrize("field,at", [("P_data", 2), ("nu", 1), ("pi", 0)])
    def test_entry_below_debris_is_refused(self, tmp_path, field, at):
        doc = json.loads(write_debris(tmp_path / "d.json", 0.0).read_text())
        doc[field][at] = -2e-12
        path = write_v2(tmp_path / "neg.json", **doc)
        with pytest.raises(ParseError, match="negative entry -2.000e-12"):
            sd.load_chain(path)

    @pytest.mark.parametrize("excess,accepted", [(2e-10, False), (5e-11, True)])
    def test_row_sum_edge_is_the_same_for_duals_and_files(self, tmp_path, capsys, excess, accepted):
        P = [[0.5, 0.5 + excess, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]

        def make():
            return sd.DualChain(poset=sd.chain_poset(3), P_star=P, nu_star=[1, 0, 0], absorbing_index=2)

        path = write_v2(
            tmp_path / "edge.json",
            P_indptr=[0, 2, 4, 5],
            P_indices=[0, 1, 1, 2, 2],
            P_data=[0.5, 0.5 + excess, 0.5, 0.5, 1.0],
            absorbing_index=2,
        )
        if accepted:
            assert make().P_star[0, 1] == 0.5 + excess
            assert sd.load_chain(path).dual().P_star[0, 1] == 0.5 + excess
            return
        with pytest.raises(NotRowStochastic, match="row stochastic within 1e-10"):
            make()
        with pytest.raises(ParseError, match="rows sum to 1 only within 2.000e-10"):
            sd.load_chain(path)
        assert main(["absorb", "--dual", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1


def written(write, P):
    text = io.StringIO()
    write(text, P)
    return text.getvalue()


MODEL_CHAINS = {
    **{f"ising-{N}-{b}": (ising, ising_dual, N, b) for N in (3, 4, 5, 6) for b in (0.0, 0.5, 1.0, 2.0)},
    **{f"lattice-{N}-{i}": (lattice, lattice_dual, N, rates)
       for N in (1, 2, 3, 4, 5) for i, rates in enumerate(LATTICE_PARAMS)},
    **{f"cube-{n}-{k}": (cube, cube_dual, n, k) for n in (1, 2, 3) for k in (1, 2)},
}


def shuffled_document(obj, seed):
    """The version 1 document of ``obj`` with its states listed in a random order, so that the
    loader re-enumerates them by Kahn's sort rather than recognising a grid."""
    doc = version_1_document(obj, {"seed": seed})
    perm = np.random.default_rng(seed).permutation(obj.size)  # file state s is obj's perm[s]
    where = np.argsort(perm)
    doc["labels"] = [doc["labels"][t] for t in perm]
    doc["covers"] = [[int(where[a]), int(where[b])] for a, b in doc["covers"]]
    doc["P"] = np.asarray(doc["P"])[np.ix_(perm, perm)].tolist()
    for key in ("nu", "pi"):
        if key in doc:
            doc[key] = np.asarray(doc[key])[perm].tolist()
    if "absorbing_index" in doc:
        doc["absorbing_index"] = int(where[doc["absorbing_index"]])
    return doc


class TestAgainstTheReference:
    """The loader's whole-array checks and the writer's boolean scans against the loader and
    writer as they were (``oracles``): the same chains, bytes and refusals."""

    @pytest.mark.parametrize("kind", ["chain", "dual"])
    @pytest.mark.parametrize("name", MODEL_CHAINS)
    def test_model_files(self, tmp_path, name, kind):
        make_chain, make_dual, *args = MODEL_CHAINS[name]
        obj = make_chain(*args) if kind == "chain" else make_dual(*args)
        path = tmp_path / "model.json"
        sd.save_chain(path, obj, meta={"model": name, "kind": kind})
        assert_same_load(chainfile_module.load_chain(path), reference_load_chain(path))
        P = obj.P if kind == "chain" else obj.P_star
        assert written(chainfile_module._write_csr, P) == written(reference_write_csr, P)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", ["ising-4-0.5", "lattice-3-1", "cube-2-2"])
    def test_shuffled_model_files(self, tmp_path, name, seed):
        make_chain, make_dual, *args = MODEL_CHAINS[name]
        for obj in (make_chain(*args), make_dual(*args)):
            path = tmp_path / "shuffled.json"
            path.write_text(json.dumps(shuffled_document(obj, seed)))
            loaded = chainfile_module.load_chain(path)
            assert_same_load(loaded, reference_load_chain(path))
            assert loaded.chain.poset.shape is None and not np.array_equal(
                loaded.chain.poset.enumeration, np.arange(obj.size)
            )

    def test_unshaped_dual_file(self, tmp_path):
        path = tmp_path / "rotating.json"
        sd.save_chain(path, rotating_dual())
        assert_same_load(chainfile_module.load_chain(path), reference_load_chain(path))

    @pytest.mark.parametrize(
        "covers",
        [
            [[0, 1], [0, 1.0]],
            [[0, 1], [0, "1"]],
            [[0, 1], [0, None]],
            [[0, 1], [0]],
            [[0, 1], [0, 1, 2]],
            [[0, 1], 5],
            [[0, 1], {"0": 1}],
            [[0, 1], [0, 2**70]],
            [[0, 1], [-1, 0]],
            [[0, 1], [2, 0]],
            [[1, 1], [0, 1]],
            [[0, 1], [1, 0]],
            [[0, 1], [0, 1], [0, 1]],
            [],
        ],
        ids=str,
    )
    def test_cover_lists(self, tmp_path, covers):
        # the paired loader compares the refusal, or the chain, with the reference's
        path = write_doc(tmp_path / "covers.json", covers=covers)
        try:
            sd.load_chain(path)
        except ParseError:
            pass

    @pytest.mark.parametrize(
        "P",
        [
            np.array([[np.nan, -0.0, 5e-324], [np.inf, 0.0, -np.inf], [0.0, 0.0, 0.0]]),
            np.full((3, 5), -0.0),
            np.array([[0.25]]),
            # blocks of 204 rows: two full ones and 92 rows
            np.where(np.arange(20000).reshape(500, 40) % 7 == 0, 1 / 7, 0.0),
            np.full((400, 400), 1 / 400),
        ],
        ids=["adversarial", "negative-zeros", "1x1", "ragged-blocks", "dense"],
    )
    def test_writer_on_kernels(self, P):
        assert written(chainfile_module._write_csr, P) == written(reference_write_csr, P)

    def test_state_cap_refuses_before_labels_and_covers(self, tmp_path, monkeypatch):
        path = write_v2(tmp_path / "big.json", covers=[[0, 1], [True, 2]])  # a bad cover as well
        converted = []
        monkeypatch.setattr(chainfile_module, "_from_jsonable", lambda lab: converted.append(lab))
        monkeypatch.setattr(chainfile_module, "_is_index", lambda *args: converted.append(args))
        monkeypatch.setenv("SSD_MAX_STATES", "2")
        with pytest.raises(SizeOverflow, match="^state space of size 3 exceeds cap 2$"):
            chainfile_module.load_chain(path)
        assert converted == []
        monkeypatch.undo()
        monkeypatch.setenv("SSD_MAX_STATES", "3")
        with pytest.raises(ParseError, match=r"bad cover pair \[True, 2\]"):
            chainfile_module.load_chain(path)

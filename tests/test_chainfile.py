import json
import tracemalloc

import numpy as np
import pytest

import ssdual as sd
from conftest import cube_dual, ising, lattice
from ssdual.errors import NoAbsorbingState, ParseError, SchemaVersionMismatch


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

    def test_chain_without_absorbing_cannot_be_dual(self, tmp_path):
        path = tmp_path / "chain.json"
        sd.save_chain(path, ising(3, 0.0))
        with pytest.raises(NoAbsorbingState):
            sd.load_chain(path).dual()


def old_writer_document(obj, meta):
    """The dict the indented writer dumped: P.tolist() plus the other fields."""
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


class TestFormat:
    @pytest.mark.parametrize(
        "obj,meta",
        [
            (ising(3, 0.5), {"model": "ising-circle", "params": {"N": 3, "beta": 0.5}}),
            (cube_dual(2, 2), {"model": "cube", "params": {"n": 2, "k": 2, "nested": {"Z": [1, 2]}}}),
        ],
        ids=["ising-chain", "cube-dual"],
    )
    def test_only_whitespace_changed(self, tmp_path, obj, meta):
        path = tmp_path / "chain.json"
        sd.save_chain(path, obj, meta=meta)
        old = old_writer_document(obj, meta)
        text = path.read_text(encoding="utf-8")
        assert json.loads(text) == old
        assert text == json.dumps(old, sort_keys=True) + "\n"

    def test_indented_files_still_load(self, tmp_path):
        path = tmp_path / "indented.json"
        c = ising(3, 0.5)
        meta = {"model": "ising-circle"}
        path.write_text(json.dumps(old_writer_document(c, meta), indent=2, sort_keys=True) + "\n")
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

    def test_save_peak_memory_below_kernel_size(self, tmp_path):
        c = lattice(19)
        assert c.size == 400
        tracemalloc.start()
        try:
            sd.save_chain(tmp_path / "lattice.json", c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < c.P.nbytes


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
        path = write_doc(tmp_path / "v2.json", version=2)
        with pytest.raises(SchemaVersionMismatch):
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
            "pi": [0.25, 0.75],
            "absorbing_index": 0,
            "meta": {},
        }
        path.write_text(json.dumps(doc))
        loaded = sd.load_chain(path)
        assert loaded.chain.poset.labels == ("bottom", "top")
        assert loaded.chain.P[0].tolist() == [0.5, 0.5]
        assert loaded.chain.P[1].tolist() == [0.25, 0.75]
        assert loaded.chain.nu.tolist() == [1.0, 0.0]
        assert loaded.chain.pi.tolist() == [0.75, 0.25]
        assert loaded.absorbing_index == 1

    def test_tuple_labels_survive(self, tmp_path):
        path = tmp_path / "tuples.json"
        c = lattice(1)
        sd.save_chain(path, c)
        assert sd.load_chain(path).chain.poset.labels == ((0, 0), (1, 0), (0, 1), (1, 1))

import json

import numpy as np
import pytest

import ssdual as sd
from conftest import version_1_document
from ssdual.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_model(tmp_path, capsys, *extra):
    path = tmp_path / "chain.json"
    code, out, _ = run(capsys, "model", "gen", "-o", str(path), *extra)
    assert code == 0
    return path


class TestModelGen:
    def test_ising_circle(self, tmp_path, capsys):
        path = gen_model(tmp_path, capsys, "--type", "ising-circle", "--N", "4", "--beta", "0.5")
        loaded = sd.load_chain(path)
        assert loaded.chain.size == 16
        assert loaded.meta["model"] == "ising-circle"
        assert sd.validate(loaded.chain).ok

    def test_lattice(self, tmp_path, capsys):
        path = gen_model(
            tmp_path, capsys, "--type", "lattice", "--N", "2",
            "--lambda1", "0.15", "--lambda2", "0.3", "--mu1", "0.25", "--mu2", "0.2",
        )
        assert sd.load_chain(path).chain.size == 9

    def test_cube(self, tmp_path, capsys):
        path = gen_model(tmp_path, capsys, "--type", "cube", "--n", "2", "--k", "2")
        assert sd.load_chain(path).chain.size == 9

    def test_ising_graph(self, tmp_path, capsys):
        edges = tmp_path / "edges.json"
        edges.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
        path = gen_model(
            tmp_path, capsys, "--type", "ising-graph", "--edges", str(edges), "--beta", "0.3"
        )
        ref = sd.ising_circle(3, 0.3)
        assert np.abs(sd.load_chain(path).chain.P - ref.P).max() <= 1e-15

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 3, "edges": [[0]]},
            {"n": 3, "edges": [[0, 1.5]]},
            {"n": 3, "edges": [[0, True]]},
            {"n": "3", "edges": [[0, 1]]},
            {"n": 3, "edges": 5},
            [[0, 1]],
        ],
    )
    def test_malformed_edges_file_is_input_error(self, tmp_path, capsys, doc):
        edges = tmp_path / "edges.json"
        edges.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "model", "gen", "--type", "ising-graph", "--edges", str(edges),
            "-o", str(tmp_path / "x.json"),
        )
        assert code == 1
        assert err.startswith("error:") and "edges" in err

    def test_edges_file_not_utf8_is_input_error(self, tmp_path, capsys):
        edges = tmp_path / "edges.json"
        edges.write_bytes(b"\xff\xfe" + json.dumps({"n": 2, "edges": [[0, 1]]}).encode("utf-16-le"))
        code, _, err = run(
            capsys, "model", "gen", "--type", "ising-graph", "--edges", str(edges),
            "-o", str(tmp_path / "x.json"),
        )
        assert code == 1
        assert err.startswith("error:") and "UTF-8" in err

    def test_missing_parameter_is_input_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "model", "gen", "--type", "cube", "-o", str(tmp_path / "x"))
        assert code == 1
        assert "--n" in err

    def test_cap_violation_is_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SSD_MAX_STATES", "4")
        code, _, err = run(
            capsys, "model", "gen", "--type", "ising-circle", "--N", "3",
            "-o", str(tmp_path / "x.json"),
        )
        assert code == 1
        assert "cap" in err

    @pytest.mark.parametrize("value", ["lots", "0", "-5"])
    def test_bad_cap_setting_is_input_error(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("SSD_MAX_STATES", value)
        code, _, err = run(
            capsys, "model", "gen", "--type", "cube", "--n", "2", "--k", "1",
            "-o", str(tmp_path / "x.json"),
        )
        assert code == 1
        assert err.startswith("error:") and "SSD_MAX_STATES" in err


@pytest.fixture
def flip_file(tmp_path):
    path = tmp_path / "flip2.json"
    c = sd.ChainSpec(poset=sd.chain_poset(2), P=[[0.0, 1.0], [1.0, 0.0]], nu=[1.0, 0.0])
    sd.save_chain(path, c)
    return path


@pytest.fixture
def cube_file(tmp_path, capsys):
    return gen_model(tmp_path, capsys, "--type", "cube", "--n", "2", "--k", "2")


class TestCheck:
    def test_flip_chain_fails_with_witness(self, flip_file, capsys):
        code, out, err = run(capsys, "check", "--chain", str(flip_file), "--direction", "down")
        assert code == 2
        payload = json.loads(out)
        assert payload["kernel_min_entry"] == -1.0
        assert not payload["kernel_passed"]
        assert "monotonicity failure" in err

    def test_top_start_fails_g_check(self, tmp_path, capsys):
        c = sd.kary_cube(sd.CubeSpec(2, 1))
        bad = sd.ChainSpec(poset=c.poset, P=c.P, nu=[0.0, 0.0, 0.0, 1.0], pi=c.pi)
        path = tmp_path / "top.json"
        sd.save_chain(path, bad)
        code, out, err = run(capsys, "check", "--chain", str(path))
        assert code == 2
        payload = json.loads(out)
        assert payload["kernel_passed"] and not payload["g_passed"]
        assert "initial density" in err

    def test_monotone_model_passes(self, cube_file, capsys):
        code, out, _ = run(capsys, "check", "--chain", str(cube_file))
        assert code == 0
        assert json.loads(out)["kernel_passed"]

    def test_up_direction_flag(self, cube_file, capsys):
        code, out, _ = run(capsys, "check", "--chain", str(cube_file), "--direction", "up")
        assert code == 0
        assert json.loads(out)["direction"] == "up"


class TestDualVerify:
    def test_build_verify_roundtrip(self, cube_file, tmp_path, capsys):
        dual_path = tmp_path / "dual.json"
        code, out, _ = run(capsys, "dual", "--chain", str(cube_file), "-o", str(dual_path))
        assert code == 0
        csv_path = tmp_path / "curves.csv"
        code, out, _ = run(
            capsys, "verify", "--chain", str(cube_file), "--dual", str(dual_path),
            "--horizon", "60", "-o", str(csv_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"]
        assert payload["intertwining_kernel"] <= 1e-10
        assert payload["sharpness_max_dev"] <= 1e-10
        header, first = csv_path.read_text().splitlines()[:2]
        assert header == "n,separation,tv,survival"
        assert first.startswith("0,1.0,")

    def test_monotonicity_failure_exit_code(self, flip_file, tmp_path, capsys):
        code, _, err = run(capsys, "dual", "--chain", str(flip_file), "-o", str(tmp_path / "d"))
        assert code == 2
        assert "monotone" in err

    def test_tampered_dual_fails_verification(self, cube_file, tmp_path, capsys):
        dual_path = tmp_path / "dual.json"
        run(capsys, "dual", "--chain", str(cube_file), "-o", str(dual_path))
        doc = json.loads(dual_path.read_text())
        # row 0 of the CSR kernel: move mass from its largest entry to column 0
        row = range(doc["P_indptr"][0], doc["P_indptr"][1])
        first = next(k for k in row if doc["P_indices"][k] == 0)
        moved = max(row, key=doc["P_data"].__getitem__)
        doc["P_data"][first] += 0.01
        doc["P_data"][moved] -= 0.01
        dual_path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "verify", "--chain", str(cube_file), "--dual", str(dual_path)
        )
        assert code == 3
        assert not json.loads(out)["passed"]

    def test_verify_csv_deterministic(self, cube_file, tmp_path, capsys):
        dual_path = tmp_path / "dual.json"
        run(capsys, "dual", "--chain", str(cube_file), "-o", str(dual_path))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out_path in (a, b):
            run(
                capsys, "verify", "--chain", str(cube_file), "--dual", str(dual_path),
                "-o", str(out_path),
            )
        assert a.read_bytes() == b.read_bytes()


    def test_dual_that_never_absorbs_fails_verification(self, tmp_path, capsys):
        # state 0 of this dual holds forever, so I - Q is singular; verify
        # needs only the survival curve and reports the residuals (exit 3)
        # where it once stopped at the moment solve (exit 4)
        chain = sd.ChainSpec(
            poset=sd.chain_poset(3),
            P=[[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]],
            nu=[1.0, 0.0, 0.0],
        )
        stuck = sd.DualChain(
            poset=sd.chain_poset(3),
            P_star=[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
            nu_star=[1.0, 0.0, 0.0],
            absorbing_index=2,
        )
        chain_path, dual_path = tmp_path / "c.json", tmp_path / "d.json"
        sd.save_chain(chain_path, chain)
        sd.save_chain(dual_path, stuck)
        code, out, _ = run(
            capsys, "verify", "--chain", str(chain_path), "--dual", str(dual_path), "--horizon", "5"
        )
        assert code == 3
        assert json.loads(out)["sharpness_max_dev"] > 0.5
        code, _, err = run(capsys, "absorb", "--dual", str(dual_path))
        assert code == 4 and "solve failed" in err

    def test_version_1_chain_file_gives_version_2_dual(self, tmp_path, capsys):
        # the migration path: any command that writes a file writes version 2
        chain = sd.kary_cube(sd.CubeSpec(2, 2))
        v1_path = tmp_path / "v1.json"
        v1_path.write_text(json.dumps(version_1_document(chain, {"model": "cube"}), indent=2))
        dual_path = tmp_path / "dual.json"
        code, _, _ = run(capsys, "dual", "--chain", str(v1_path), "-o", str(dual_path))
        assert code == 0
        doc = json.loads(dual_path.read_text())
        assert doc["version"] == 2 and "P" not in doc
        assert doc["meta"]["source_meta"] == {"model": "cube"}
        expected = sd.build_dual(chain)
        assert np.array_equal(sd.load_chain(dual_path).dual().P_star, expected.P_star)
        code, out, _ = run(
            capsys, "verify", "--chain", str(v1_path), "--dual", str(dual_path), "--horizon", "40"
        )
        assert code == 0 and json.loads(out)["passed"]


class TestAnalysisCommands:
    def test_eigen_with_dual(self, tmp_path, capsys):
        chain_path = gen_model(tmp_path, capsys, "--type", "ising-circle", "--N", "3", "--beta", "0")
        dual_path = tmp_path / "dual.json"
        run(capsys, "dual", "--chain", str(chain_path), "-o", str(dual_path))
        code, out, _ = run(
            capsys, "eigen", "--chain", str(chain_path), "--dual", str(dual_path)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["numeric"]["multiplicities"] == [1, 3, 3, 1]
        assert payload["triangular_dual"]["multiplicities"] == [1, 3, 3, 1]

    def test_eigen_with_dual_at_positive_beta(self, tmp_path, capsys):
        chain_path = gen_model(
            tmp_path, capsys, "--type", "ising-circle", "--N", "6", "--beta", "0.5"
        )
        dual_path = tmp_path / "dual.json"
        run(capsys, "dual", "--chain", str(chain_path), "-o", str(dual_path))
        code, out, err = run(
            capsys, "eigen", "--chain", str(chain_path), "--dual", str(dual_path)
        )
        assert code == 0, err
        payload = json.loads(out)
        numeric, blocks = payload["numeric"], payload["triangular_dual"]
        assert blocks["multiplicities"] == numeric["multiplicities"]
        assert np.abs(np.subtract(blocks["values"], numeric["values"])).max() <= 1e-9

    def test_separation_csv(self, cube_file, tmp_path, capsys):
        csv_path = tmp_path / "sep.csv"
        code, out, _ = run(
            capsys, "separation", "--chain", str(cube_file), "--horizon", "10",
            "-o", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n,separation,tv"
        assert len(lines) == 12

    def test_absorb_moments(self, cube_file, tmp_path, capsys):
        dual_path = tmp_path / "dual.json"
        run(capsys, "dual", "--chain", str(cube_file), "-o", str(dual_path))
        code, out, _ = run(capsys, "absorb", "--dual", str(dual_path), "--horizon", "40")
        assert code == 0
        payload = json.loads(out)
        assert payload["mean"] == pytest.approx(4.0, abs=1e-10)

    def test_absorb_admits_negative_debris_in_a_dual_file(self, tmp_path, capsys):
        # load_chain admits kernel and nu entries down to -DEBRIS_TOL; the
        # dual built from the file must zero them, not fail as not stochastic
        clean, debris = tmp_path / "clean.json", tmp_path / "debris.json"
        sd.save_chain(clean, sd.kary_cube_dual(sd.CubeSpec(n=2, k=2)))
        doc = json.loads(clean.read_text())
        row0 = doc["P_indices"][: doc["P_indptr"][1]]
        col = min(set(range(len(doc["labels"]))) - set(row0))
        at = sum(c < col for c in row0)
        doc["P_indices"].insert(at, col)
        doc["P_data"].insert(at, -1e-13)
        doc["P_indptr"] = [doc["P_indptr"][0]] + [v + 1 for v in doc["P_indptr"][1:]]
        doc["nu"][doc["nu"].index(0.0)] = -1e-13
        debris.write_text(json.dumps(doc, sort_keys=True))
        code, out, _ = run(capsys, "absorb", "--dual", str(clean))
        assert code == 0
        code, perturbed, err = run(capsys, "absorb", "--dual", str(debris))
        assert code == 0, err
        assert json.loads(perturbed)["mean"] == json.loads(out)["mean"]

    def test_bounds_ising(self, capsys):
        code, out, _ = run(capsys, "bounds", "--type", "ising-circle", "--N", "10", "--c", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["steps"] == 44
        assert payload["bound"] == pytest.approx(np.exp(-2))

    def test_bounds_cube(self, capsys):
        code, out, _ = run(capsys, "bounds", "--type", "cube", "--n", "10", "--k", "1", "--c", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["steps"] == 64
        assert payload["bound"] == pytest.approx(1 / 9)

    def test_bounds_missing_params(self, capsys):
        code, _, err = run(capsys, "bounds", "--type", "cube", "--c", "2")
        assert code == 1

    def test_simulate_deterministic_output(self, cube_file, tmp_path, capsys):
        dual_path = tmp_path / "dual.json"
        run(capsys, "dual", "--chain", str(cube_file), "-o", str(dual_path))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        outputs = []
        for out_path in (a, b):
            code, out, _ = run(
                capsys, "simulate", "--dual", str(dual_path), "--samples", "2000",
                "--seed", "9", "-o", str(out_path),
            )
            assert code == 0
            outputs.append(json.loads(out))
        assert a.read_bytes() == b.read_bytes()
        assert outputs[0]["mean"] == outputs[1]["mean"]
        assert outputs[0]["variance"] == outputs[1]["variance"]


class TestModelFileRoundTrips:
    def test_every_model_type_round_trips(self, tmp_path, capsys):
        edges = tmp_path / "edges.json"
        edges.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
        cases = {
            "ising": ["--type", "ising-circle", "--N", "3", "--beta", "0.5"],
            "graph": ["--type", "ising-graph", "--edges", str(edges), "--beta", "0.2"],
            "lattice": ["--type", "lattice", "--N", "1"],
            "cube": ["--type", "cube", "--n", "2", "--k", "2"],
        }
        for name, argv in cases.items():
            first = tmp_path / f"{name}.json"
            second = tmp_path / f"{name}_again.json"
            code, _, _ = run(capsys, "model", "gen", *argv, "-o", str(first))
            assert code == 0
            loaded = sd.load_chain(first)
            sd.save_chain(second, loaded.chain, meta=loaded.meta)
            assert first.read_bytes() == second.read_bytes()


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "--chain", "/nonexistent.json")
        assert code == 1

    def test_non_finite_kernel_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        c = sd.ChainSpec(poset=sd.chain_poset(2), P=[[0.5, 0.5], [0.5, 0.5]], nu=[1.0, 0.0])
        sd.save_chain(path, c)
        path.write_text(path.read_text().replace("0.5", "NaN", 1))
        code, _, err = run(capsys, "dual", "--chain", str(path), "-o", str(tmp_path / "d.json"))
        assert code == 1
        assert "non-finite" in err

    def test_labels_not_a_list_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "labels.json"
        c = sd.ChainSpec(poset=sd.chain_poset(2), P=[[0.5, 0.5], [0.5, 0.5]], nu=[1.0, 0.0])
        sd.save_chain(path, c)
        doc = json.loads(path.read_text())
        doc["labels"] = 5
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "--chain", str(path))
        assert code == 1
        assert "labels" in err

    def test_chain_file_not_utf8_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        c = sd.ChainSpec(poset=sd.chain_poset(2), P=[[0.5, 0.5], [0.5, 0.5]], nu=[1.0, 0.0])
        sd.save_chain(path, c)
        path.write_bytes(b"\xff\xfe" + path.read_text().encode("utf-16-le"))
        code, _, err = run(capsys, "check", "--chain", str(path))
        assert code == 1
        assert err.startswith("error:") and "UTF-8" in err

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("version", True, "unsupported format version True"),
            ("version", 3, "unsupported format version 3"),
            ("nu", [0.5] + [0.0] * 8, "nu sums to 1"),
            ("P_indices", "first", "P_indices must be a list of integers"),
            ("P_indptr", [0] * 10, "P_indptr must hold 10 offsets"),
            ("labels", [[0, 0]] * 9, "duplicate label"),
        ],
    )
    @pytest.mark.parametrize("command", ["check", "dual", "verify", "absorb"])
    def test_malformed_file_is_input_error(
        self, cube_file, tmp_path, capsys, command, field, value, message
    ):
        dual_path = tmp_path / "dual.json"
        run(capsys, "dual", "--chain", str(cube_file), "-o", str(dual_path))
        target = dual_path if command == "absorb" else cube_file
        doc = json.loads(target.read_text())
        doc[field] = value
        target.write_text(json.dumps(doc))
        argv = {
            "check": ["check", "--chain", str(cube_file)],
            "dual": ["dual", "--chain", str(cube_file), "-o", str(tmp_path / "d.json")],
            "verify": ["verify", "--chain", str(cube_file), "--dual", str(dual_path)],
            "absorb": ["absorb", "--dual", str(dual_path)],
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err

    def test_memory_error_is_numerical_failure(self, cube_file, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("ssdual.duality.build_dual", exhausted)
        code, _, err = run(capsys, "dual", "--chain", str(cube_file), "-o", str(tmp_path / "d.json"))
        assert code == 4
        assert err.startswith("error:") and "MemoryError" in err

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


CORRUPT_VALUES = (True, "x", -1, 2.5, {}, [[]], [True])
CORRUPT_ENTRIES = (None, True, "x", -1, 1e300, [0], {})


def corruptions(doc):
    """(name, document) pairs, each with one field of ``doc`` made invalid."""
    for key, value in doc.items():
        if key == "meta":  # free-form
            continue
        if key != "pi":  # pi is optional; a missing pi is computed
            yield f"{key} missing", {k: v for k, v in doc.items() if k != key}
        for bad in CORRUPT_VALUES:
            yield f"{key} = {bad!r}", {**doc, key: bad}
        if key == "labels":  # any hashable JSON value is a label
            yield "labels[0] repeated", {**doc, key: [value[1], *value[1:]]}
            yield "labels[0] = {}", {**doc, key: [{}, *value[1:]]}
        elif isinstance(value, list):
            for bad in CORRUPT_ENTRIES:
                yield f"{key}[0] = {bad!r}", {**doc, key: [bad, *value[1:]]}
    yield "top level is a list", [doc]


class TestCorruptedFiles:
    """Every single-field corruption of a valid file gives an exit code and an error line."""

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("kind", ["chain", "dual"])
    def test_each_corruption_fails_cleanly(self, tmp_path, capsys, version, kind):
        chain = sd.kary_cube(sd.CubeSpec(2, 2))
        obj = sd.build_dual(chain) if kind == "dual" else chain
        path = tmp_path / "valid.json"
        if version == 1:
            path.write_text(json.dumps(version_1_document(obj, {})))
        else:
            sd.save_chain(path, obj)
        if kind == "dual":
            argv = ["absorb", "--dual", str(path), "--horizon", "20"]
        else:
            argv = ["dual", "--chain", str(path), "-o", str(tmp_path / "out.json")]
        assert run(capsys, *argv)[0] == 0
        doc = json.loads(path.read_text())
        failures = []
        cases = list(corruptions(doc))
        for name, bad in cases:
            path.write_text(json.dumps(bad))
            try:
                code, _, err = run(capsys, *argv)
            except Exception as exc:  # escaped main: a traceback for the user
                failures.append(f"{name}: {exc!r}")
                continue
            if code not in (1, 2, 3, 4) or not err.startswith("error:") or "Traceback" in err:
                failures.append(f"{name}: exit {code}, stderr {err!r}")
        assert len(cases) > 60
        assert failures == []

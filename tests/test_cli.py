import json

import numpy as np
import pytest

import ssdual as sd
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
        row = doc["P"][0]
        moved = max(range(len(row)), key=row.__getitem__)
        row[0] += 0.01
        row[moved] -= 0.01
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

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

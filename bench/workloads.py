"""The benchmark's workloads.

Each workload calls only public ``ssdual`` functions (and ``ssdual.cli.main``)
and is timed from outside the package.  ``pipeline`` is the timed region: it
rebuilds every input from scratch, so nothing cached by an earlier run of it
(such as a poset's Mobius pair) is reused.  It returns a dict whose keys are
metric names, plus private ``_``-prefixed entries that only ``check`` reads.
``check`` runs after the timed region and returns ``(check name, passed)``
pairs.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import ssdual as sd
from ssdual import cli

import gates


class Workload:
    name = ""
    why = ""
    params: dict = {}

    def __init__(self, seed: int, workdir: Path, **params):
        self.seed = seed
        self.params = {**type(self).params, **params}
        self.dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=workdir))

    @classmethod
    def states(cls, params: dict) -> list[int]:
        """State counts of the chains the workload builds."""
        raise NotImplementedError

    def pipeline(self) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class IsingDual(Workload):
    name = "ising-dual"
    why = (
        "library pipeline on ising_circle(N=10, beta=0.5), 1024 states: the dense Mobius pair "
        "and dual algebra of poset/duality dominate; no Monte Carlo"
    )
    params = {"N": 10, "beta": 0.5}

    @classmethod
    def states(cls, params):
        return [2 ** params["N"]]

    def pipeline(self):
        N, beta = self.params["N"], self.params["beta"]
        chain = sd.ising_circle(N, beta)
        sd.validate(chain)
        sd.mobius_pair(chain.poset)
        dual = sd.build_dual(chain)
        link = sd.build_link(chain.poset, chain.pi)
        kernel_res, initial_res = sd.intertwining_residuals(chain, dual, link)
        law = sd.absorption_survival(dual)
        sharpness = sd.verify_sharpness(chain, dual, law.horizon)
        sd.spectrum_numeric(chain)
        return {
            "duality.intertwining_kernel_res": kernel_res,
            "duality.intertwining_initial_res": initial_res,
            "duality.sharpness_res": sharpness,
            "_survival": law.survival,
        }

    def check(self, out):
        return gates.dual_checks(
            out["duality.intertwining_kernel_res"],
            out["duality.intertwining_initial_res"],
            out["duality.sharpness_res"],
            out["_survival"],
        )


# The move probabilities `ssdual model gen --type lattice` uses by default.
CLI_LATTICE_RATES = {"lambda1": 0.2, "lambda2": 0.2, "mu1": 0.25, "mu2": 0.25}


class LatticeCli(Workload):
    name = "lattice-cli"
    why = (
        "CLI model gen (lattice N=24, 625 states) -> dual -> verify --horizon 200 -> absorb on JSON "
        "files: chain files and posets rebuilt from covers"
    )
    params = {"N": 24, "horizon": 200}

    @classmethod
    def states(cls, params):
        return [(params["N"] + 1) ** 2]

    def __init__(self, seed, workdir, **params):
        super().__init__(seed, workdir, **params)
        self._exact_mean = None

    def _commands(self):
        chain, dual = str(self.dir / "chain.json"), str(self.dir / "dual.json")
        return {
            "model_gen": ["model", "gen", "--type", "lattice", "--N", str(self.params["N"]), "-o", chain],
            "dual": ["dual", "--chain", chain, "-o", dual],
            "verify": ["verify", "--chain", chain, "--dual", dual, "--horizon", str(self.params["horizon"])],
            "absorb": ["absorb", "--dual", dual],
        }

    def pipeline(self):
        out = {}
        for command, argv in self._commands().items():
            stdout, stderr = io.StringIO(), io.StringIO()
            begin = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            out[f"cli.{command}_s"] = time.perf_counter() - begin
            lines = stdout.getvalue().splitlines()
            out[f"_{command}"] = (code, json.loads(lines[-1]) if lines else {})
            if code != 0:
                print(f"{command} exited {code}: {stderr.getvalue().strip()}", file=sys.stderr)
        verify = out["_verify"][1]
        out["duality.intertwining_kernel_res"] = verify.get("intertwining_kernel", float("nan"))
        out["duality.intertwining_initial_res"] = verify.get("intertwining_initial", float("nan"))
        out["duality.sharpness_res"] = verify.get("sharpness_max_dev", float("nan"))
        return out

    def check(self, out):
        if self._exact_mean is None:
            spec = sd.LatticeSpec(N=self.params["N"], **CLI_LATTICE_RATES)
            self._exact_mean = sd.absorption_survival(sd.lattice_walk_dual(spec)).mean
        codes = {command: out[f"_{command}"][0] for command in self._commands()}
        absorb_mean = out["_absorb"][1].get("mean", float("nan"))
        return gates.cli_checks(codes, out["_verify"][1], absorb_mean, self._exact_mean)


WORKLOADS = {cls.name: cls for cls in (IsingDual, LatticeCli)}

# Sizes for the benchmark's self-test: the same pipelines, seconds to run.
TINY_PARAMS = {
    "ising-dual": {"N": 4},
    "lattice-cli": {"N": 3},
}


def prepare(name: str, seed: int, workdir: Path, **params) -> Workload:
    """Create the named workload's inputs; the caller closes it."""
    return WORKLOADS[name](seed, Path(workdir), **params)

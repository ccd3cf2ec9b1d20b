"""Command-line front end.

Output: a successful command prints one strict JSON object (a NaN or inf exits
4), with sorted keys, on stdout; ``-o`` writes a CSV whose first column is the
step ``n``.  An error prints one ``error:`` line on stderr and nothing on
stdout.  ``check`` and ``verify`` print their payload even when the check fails,
and exit 2 or 3; ``check`` also writes a ``monotonicity failure:`` line per
failed check.

Exit codes: 0 success, 1 input or validation error, 2 monotonicity failure,
3 verification-residual failure, 4 internal numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import absorption, chainfile, duality, models
from .chain import DEFAULT_TOL, _check_tol, spectrum_numeric, with_stationary
from .errors import (
    MonotonicityViolated,
    NotRowStochastic,
    SingularSystem,
    SSDError,
)

OK, INPUT_ERROR, MONOTONICITY_FAILURE, RESIDUAL_FAILURE, NUMERICAL_FAILURE = 0, 1, 2, 3, 4


def _write_csv(path, **columns) -> None:
    """Write ``columns`` to ``path`` after a step column ``n``; without a path, nothing."""
    if not path:
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["n", *columns]) + "\n")
        for n, row in enumerate(zip(*columns.values())):
            fh.write(",".join([str(n), *(repr(float(v)) for v in row)]) + "\n")


def _require(args, *names: str) -> None:
    if any(getattr(args, name) is None for name in names):
        flags = " and ".join(f"--{name}" for name in names)
        raise SSDError(f"{flags} {'is' if len(names) == 1 else 'are'} required for {args.type}")


def _loaded_with_pi(path: str):
    return with_stationary(chainfile.load_chain(path).chain)


def _load_edges(path: str) -> tuple[int, list[tuple[int, int]]]:
    doc = chainfile._read_json(path)
    n = doc.get("n") if isinstance(doc, dict) else None
    edges = doc.get("edges") if isinstance(doc, dict) else None
    # bool subclasses int, but JSON true/false is not a vertex
    if type(n) is not int or not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e) for e in edges
    ):
        raise SSDError(f'{path}: expected {{"n": int, "edges": [[int, int], ...]}}')
    return n, [tuple(e) for e in edges]


def cmd_model_gen(args) -> tuple[int, dict]:
    if args.type == "ising-circle":
        _require(args, "N")
        chain = models.ising_circle(args.N, args.beta)
        params = {"N": args.N, "beta": args.beta}
    elif args.type == "ising-graph":
        _require(args, "edges")
        chain = models.ising_gibbs_graph(*_load_edges(args.edges), args.beta)
        params = {"edges_file": args.edges, "beta": args.beta}
    elif args.type == "lattice":
        _require(args, "N")
        params = {key: getattr(args, key) for key in ("N", "lambda1", "lambda2", "mu1", "mu2")}
        chain = models.lattice_walk(models.LatticeSpec(**params))
    else:
        _require(args, "n", "k")
        chain = models.kary_cube(models.CubeSpec(n=args.n, k=args.k))
        params = {"n": args.n, "k": args.k}
    chainfile.save_chain(args.output, chain, meta={"model": args.type, "params": params})
    return OK, {"written": args.output, "states": chain.size, "model": args.type}


def cmd_check(args) -> tuple[int, dict]:
    chain = _loaded_with_pi(args.chain)
    labels = chain.poset.labels
    (kernel_report, g_report), failures = duality._hypotheses(chain, args.direction, args.tol)
    for failure in failures:
        print(f"monotonicity failure: {failure}", file=sys.stderr)
    i, j = kernel_report.witness
    payload = {
        "direction": args.direction,
        "kernel_min_entry": kernel_report.min_entry,
        "kernel_passed": kernel_report.passed,
        "kernel_witness": [repr(labels[i]), repr(labels[j])],
        "g_min_entry": g_report.min_entry,
        "g_passed": g_report.passed,
        "g_witness": repr(labels[g_report.witness[0]]),
        "tol": args.tol,
    }
    return (OK if kernel_report.passed and g_report.passed else MONOTONICITY_FAILURE), payload


def cmd_dual(args) -> tuple[int, dict]:
    loaded = chainfile.load_chain(args.chain)
    dual = duality.build_dual(with_stationary(loaded.chain), tol=args.tol)
    chainfile.save_chain(
        args.output, dual, meta={"dual_of": args.chain, "source_meta": loaded.meta}
    )
    absorbing = repr(dual.poset.labels[dual.absorbing_index])
    return OK, {"written": args.output, "states": dual.size, "absorbing_state": absorbing}


def cmd_verify(args) -> tuple[int, dict]:
    _check_tol(args.tol)
    chain = _loaded_with_pi(args.chain)
    dual = chainfile.load_chain(args.dual).dual()
    link = duality.build_link(chain.poset, chain.pi)
    kernel_res, initial_res = duality.intertwining_residuals(chain, dual, link)
    sep, survival, sharpness = duality._sharpness(chain, dual, args.horizon)
    passed = all(res <= args.tol for res in (kernel_res, initial_res, sharpness))  # NaN fails
    _write_csv(args.output, separation=sep.values, tv=sep.tv, survival=survival)
    payload = {
        "intertwining_kernel": kernel_res,
        "intertwining_initial": initial_res,
        "sharpness_max_dev": sharpness,
        "horizon": args.horizon,
        "tol": args.tol,
        "passed": passed,
    }
    return (OK if passed else RESIDUAL_FAILURE), payload


def cmd_eigen(args) -> tuple[int, dict]:
    if not (args.chain or args.dual):
        raise SSDError("eigen needs --chain, --dual or both")
    spectra = {}
    if args.chain:
        spectra["numeric"] = spectrum_numeric(_loaded_with_pi(args.chain))
    if args.dual:
        dual = chainfile.load_chain(args.dual).dual()
        spectra["triangular_dual"] = absorption.spectrum_from_triangular(dual)
    return OK, {
        key: {"values": s.values.tolist(), "multiplicities": s.multiplicities.tolist()}
        for key, s in spectra.items()
    }


def cmd_separation(args) -> tuple[int, dict]:
    sep = absorption.separation_curve(_loaded_with_pi(args.chain), args.horizon)
    _write_csv(args.output, separation=sep.values, tv=sep.tv)
    return OK, {
        "horizon": args.horizon,
        "separation_final": float(sep.values[-1]),
        "tv_final": float(sep.tv[-1]),
        "written": args.output,
    }


def cmd_absorb(args) -> tuple[int, dict]:
    law = absorption.absorption_survival(chainfile.load_chain(args.dual).dual(), args.horizon)
    _write_csv(args.output, survival=law.survival)
    return OK, {
        "mean": law.mean,
        "variance": law.variance,
        "horizon": law.horizon,
        "written": args.output,
    }


def cmd_bounds(args) -> tuple[int, dict]:
    if args.type == "ising-circle":
        _require(args, "N")
        steps, bound = absorption.coupon_collector_bound(args.N, args.c)
    else:
        _require(args, "n", "k")
        steps, bound = absorption.chebyshev_bound(args.n, args.k, args.c)
    return OK, {"type": args.type, "steps": steps, "bound": bound, "c": args.c}


def cmd_simulate(args) -> tuple[int, dict]:
    dual = chainfile.load_chain(args.dual).dual()
    law = absorption.simulate_sst(dual, args.samples, args.seed, horizon=args.horizon)
    _write_csv(args.output, survival=law.survival)
    return OK, {
        "mean": law.mean,
        "variance": law.variance,
        "samples": args.samples,
        "seed": args.seed,
        "written": args.output,
    }

@functools.cache  # one parser per process, built by the first main call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssdual",
        description="Strong stationary duals for Mobius-monotone chains on finite posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    model = sub.add_parser("model", help="model generation")
    model_sub = model.add_subparsers(dest="model_command", required=True)
    gen = model_sub.add_parser("gen", help="generate a model chain file")
    gen.add_argument("--type", required=True, choices=["ising-circle", "ising-graph", "lattice", "cube"])
    gen.add_argument("--N", type=int)
    gen.add_argument("--beta", type=float, default=0.0)
    gen.add_argument("--edges", help="JSON file with {'n': int, 'edges': [[u, v], ...]}")
    gen.add_argument("--lambda1", type=float, default=0.2)
    gen.add_argument("--lambda2", type=float, default=0.2)
    gen.add_argument("--mu1", type=float, default=0.25)
    gen.add_argument("--mu2", type=float, default=0.25)
    gen.add_argument("--n", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func="cmd_model_gen")

    check = sub.add_parser("check", help="Mobius monotonicity checks")
    check.add_argument("--chain", required=True)
    check.add_argument("--direction", choices=["down", "up"], default="down")
    check.add_argument("--tol", type=float, default=DEFAULT_TOL)
    check.set_defaults(func="cmd_check")

    dual = sub.add_parser("dual", help="build the strong stationary dual")
    dual.add_argument("--chain", required=True)
    dual.add_argument("--tol", type=float, default=DEFAULT_TOL)
    dual.add_argument("-o", "--output", required=True)
    dual.set_defaults(func="cmd_dual")

    verify = sub.add_parser("verify", help="verify intertwining and sharpness")
    verify.add_argument("--chain", required=True)
    verify.add_argument("--dual", required=True)
    verify.add_argument("--horizon", type=int, default=60)
    verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    verify.add_argument("-o", "--output")
    verify.set_defaults(func="cmd_verify")

    eigen = sub.add_parser(
        "eigen", help="numeric spectrum of --chain and the dual's from its level blocks (--dual)"
    )
    eigen.add_argument("--chain")
    eigen.add_argument("--dual")
    eigen.set_defaults(func="cmd_eigen")

    separation = sub.add_parser("separation", help="separation/TV curves")
    separation.add_argument("--chain", required=True)
    separation.add_argument("--horizon", type=int, default=60)
    separation.add_argument("-o", "--output")
    separation.set_defaults(func="cmd_separation")

    absorb = sub.add_parser("absorb", help="exact absorption law of a dual")
    absorb.add_argument("--dual", required=True)
    absorb.add_argument("--horizon", type=int)
    absorb.add_argument("-o", "--output")
    absorb.set_defaults(func="cmd_absorb")

    bounds = sub.add_parser("bounds", help="closed-form mixing bounds")
    bounds.add_argument("--type", required=True, choices=["ising-circle", "cube"])
    bounds.add_argument("--N", type=int)
    bounds.add_argument("--n", type=int)
    bounds.add_argument("--k", type=int)
    bounds.add_argument("--c", type=float, required=True)
    bounds.set_defaults(func="cmd_bounds")

    simulate = sub.add_parser("simulate", help="Monte Carlo absorption law")
    simulate.add_argument("--dual", required=True)
    simulate.add_argument("--samples", type=int, required=True)
    simulate.add_argument("--seed", type=int, required=True)
    simulate.add_argument("--horizon", type=int)
    simulate.add_argument("-o", "--output")
    simulate.set_defaults(func="cmd_simulate")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return OK if not exc.code else INPUT_ERROR
    try:
        code, payload = globals()[args.func](args)  # looked up now, so a patched command runs
        try:  # strict JSON: a NaN or inf in the payload is a numerical failure
            text = json.dumps(payload, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise ArithmeticError(str(exc)) from None
        print(text)
        return code
    except MonotonicityViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MONOTONICITY_FAILURE
    except (NotRowStochastic, SingularSystem, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return NUMERICAL_FAILURE
    except (SSDError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

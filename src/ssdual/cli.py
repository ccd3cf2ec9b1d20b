"""Command-line front end.

Exit codes: 0 success, 1 input or validation error, 2 monotonicity failure,
3 verification-residual failure, 4 internal numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import absorption, chainfile, duality, models
from .chain import DEFAULT_TOL, spectrum_numeric, time_reversal, with_stationary
from .errors import (
    MonotonicityViolated,
    NotRowStochastic,
    SingularSystem,
    SSDError,
)

OK, INPUT_ERROR, MONOTONICITY_FAILURE, RESIDUAL_FAILURE, NUMERICAL_FAILURE = 0, 1, 2, 3, 4


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(_cell(col[i]) for col in columns) + "\n")


def _cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _loaded_with_pi(path: str):
    return with_stationary(chainfile.load_chain(path).chain)


def _load_edges(path: str) -> tuple[int, list[tuple[int, int]]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise SSDError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    n = doc.get("n") if isinstance(doc, dict) else None
    edges = doc.get("edges") if isinstance(doc, dict) else None
    # bool subclasses int, but JSON true/false is not a vertex
    if type(n) is not int or not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e) for e in edges
    ):
        raise SSDError(f'{path}: expected {{"n": int, "edges": [[int, int], ...]}}')
    return n, [tuple(e) for e in edges]


def cmd_model_gen(args) -> int:
    if args.type == "ising-circle":
        if args.N is None:
            raise SSDError("--N is required for ising-circle")
        chain = models.ising_circle(args.N, args.beta)
        params = {"N": args.N, "beta": args.beta}
    elif args.type == "ising-graph":
        if args.edges is None:
            raise SSDError("--edges is required for ising-graph")
        chain = models.ising_gibbs_graph(*_load_edges(args.edges), args.beta)
        params = {"edges_file": args.edges, "beta": args.beta}
    elif args.type == "lattice":
        if args.N is None:
            raise SSDError("--N is required for lattice")
        spec = models.LatticeSpec(
            N=args.N, lambda1=args.lambda1, lambda2=args.lambda2, mu1=args.mu1, mu2=args.mu2
        )
        chain = models.lattice_walk(spec)
        params = {
            "N": args.N,
            "lambda1": args.lambda1,
            "lambda2": args.lambda2,
            "mu1": args.mu1,
            "mu2": args.mu2,
        }
    elif args.type == "cube":
        if args.n is None or args.k is None:
            raise SSDError("--n and --k are required for cube")
        chain = models.kary_cube(models.CubeSpec(n=args.n, k=args.k))
        params = {"n": args.n, "k": args.k}
    else:  # pragma: no cover - argparse restricts choices
        raise SSDError(f"unknown model type {args.type}")
    chainfile.save_chain(args.output, chain, meta={"model": args.type, "params": params})
    _emit({"written": args.output, "states": chain.size, "model": args.type})
    return OK


def cmd_check(args) -> int:
    chain = _loaded_with_pi(args.chain)
    reversed_kernel = time_reversal(chain)
    kernel_report = duality.check_mobius_monotone(
        reversed_kernel, chain.poset, args.direction, args.tol
    )
    g_report = duality.check_g_monotone(chain, args.tol)
    i, j = kernel_report.witness
    payload = {
        "direction": args.direction,
        "kernel_min_entry": kernel_report.min_entry,
        "kernel_passed": kernel_report.passed,
        "kernel_witness": [repr(chain.poset.labels[i]), repr(chain.poset.labels[j])],
        "g_min_entry": g_report.min_entry,
        "g_passed": g_report.passed,
        "g_witness": repr(chain.poset.labels[g_report.witness[0]]),
        "tol": args.tol,
    }
    _emit(payload)
    if not kernel_report.passed:
        print(
            f"monotonicity failure: transformed kernel entry {kernel_report.min_entry:.6g} "
            f"at states ({chain.poset.labels[i]!r}, {chain.poset.labels[j]!r})",
            file=sys.stderr,
        )
    if not g_report.passed:
        k = g_report.witness[0]
        print(
            f"monotonicity failure: initial density entry {g_report.min_entry:.6g} "
            f"at state {chain.poset.labels[k]!r}",
            file=sys.stderr,
        )
    return OK if (kernel_report.passed and g_report.passed) else MONOTONICITY_FAILURE


def cmd_dual(args) -> int:
    loaded = chainfile.load_chain(args.chain)
    chain = with_stationary(loaded.chain)
    dual = duality.build_dual(chain, tol=args.tol)
    chainfile.save_chain(
        args.output, dual, meta={"dual_of": args.chain, "source_meta": loaded.meta}
    )
    _emit(
        {
            "written": args.output,
            "states": dual.size,
            "absorbing_state": repr(dual.poset.labels[dual.absorbing_index]),
        }
    )
    return OK


def cmd_verify(args) -> int:
    duality._check_tol(args.tol)
    chain = _loaded_with_pi(args.chain)
    dual = chainfile.load_chain(args.dual).dual()
    link = duality.build_link(chain.poset, chain.pi)
    kernel_res, initial_res = duality.intertwining_residuals(chain, dual, link)
    sep = absorption.separation_curve(chain, args.horizon)
    survival = absorption._survival(dual, args.horizon)
    sharpness = float(np.max(np.abs(sep.values - survival)))
    passed = max(kernel_res, initial_res, sharpness) <= args.tol
    if args.output:
        _write_csv(
            args.output,
            ["n", "separation", "tv", "survival"],
            [np.arange(args.horizon + 1), sep.values, sep.tv, survival],
        )
    _emit(
        {
            "intertwining_kernel": kernel_res,
            "intertwining_initial": initial_res,
            "sharpness_max_dev": sharpness,
            "horizon": args.horizon,
            "tol": args.tol,
            "passed": passed,
        }
    )
    return OK if passed else RESIDUAL_FAILURE


def cmd_eigen(args) -> int:
    if not (args.chain or args.dual):
        raise SSDError("eigen needs --chain, --dual or both")
    payload = {}
    if args.chain:
        numeric = spectrum_numeric(_loaded_with_pi(args.chain))
        payload["numeric"] = {
            "values": numeric.values.tolist(),
            "multiplicities": numeric.multiplicities.tolist(),
        }
    if args.dual:
        dual = chainfile.load_chain(args.dual).dual()
        tri = absorption.spectrum_from_triangular(dual)
        payload["triangular_dual"] = {
            "values": tri.values.tolist(),
            "multiplicities": tri.multiplicities.tolist(),
        }
    _emit(payload)
    return OK


def cmd_separation(args) -> int:
    chain = _loaded_with_pi(args.chain)
    sep = absorption.separation_curve(chain, args.horizon)
    if args.output:
        _write_csv(
            args.output,
            ["n", "separation", "tv"],
            [np.arange(args.horizon + 1), sep.values, sep.tv],
        )
    _emit(
        {
            "horizon": args.horizon,
            "separation_final": float(sep.values[-1]),
            "tv_final": float(sep.tv[-1]),
            "written": args.output,
        }
    )
    return OK


def cmd_absorb(args) -> int:
    dual = chainfile.load_chain(args.dual).dual()
    law = absorption.absorption_survival(dual, args.horizon)
    if args.output:
        _write_csv(
            args.output,
            ["n", "survival"],
            [np.arange(law.horizon + 1), law.survival],
        )
    _emit(
        {
            "mean": law.mean,
            "variance": law.variance,
            "horizon": law.horizon,
            "written": args.output,
        }
    )
    return OK


def cmd_bounds(args) -> int:
    if args.type == "ising-circle":
        if args.N is None:
            raise SSDError("--N is required for ising-circle bounds")
        steps, bound = absorption.coupon_collector_bound(args.N, args.c)
    elif args.type == "cube":
        if args.n is None or args.k is None:
            raise SSDError("--n and --k are required for cube bounds")
        steps, bound = absorption.chebyshev_bound(args.n, args.k, args.c)
    else:
        raise SSDError(f"no closed-form bound for model type {args.type!r}")
    _emit({"type": args.type, "steps": steps, "bound": bound, "c": args.c})
    return OK


def cmd_simulate(args) -> int:
    dual = chainfile.load_chain(args.dual).dual()
    law = absorption.simulate_sst(dual, args.samples, args.seed, horizon=args.horizon)
    if args.output:
        _write_csv(
            args.output,
            ["n", "survival"],
            [np.arange(law.horizon + 1), law.survival],
        )
    _emit(
        {
            "mean": law.mean,
            "variance": law.variance,
            "samples": args.samples,
            "seed": args.seed,
            "written": args.output,
        }
    )
    return OK


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
    gen.set_defaults(func=cmd_model_gen)

    check = sub.add_parser("check", help="Mobius monotonicity checks")
    check.add_argument("--chain", required=True)
    check.add_argument("--direction", choices=["down", "up"], default="down")
    check.add_argument("--tol", type=float, default=DEFAULT_TOL)
    check.set_defaults(func=cmd_check)

    dual = sub.add_parser("dual", help="build the strong stationary dual")
    dual.add_argument("--chain", required=True)
    dual.add_argument("--tol", type=float, default=DEFAULT_TOL)
    dual.add_argument("-o", "--output", required=True)
    dual.set_defaults(func=cmd_dual)

    verify = sub.add_parser("verify", help="verify intertwining and sharpness")
    verify.add_argument("--chain", required=True)
    verify.add_argument("--dual", required=True)
    verify.add_argument("--horizon", type=int, default=60)
    verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    verify.add_argument("-o", "--output")
    verify.set_defaults(func=cmd_verify)

    eigen = sub.add_parser(
        "eigen", help="numeric spectrum of --chain and the dual's from its level blocks (--dual)"
    )
    eigen.add_argument("--chain")
    eigen.add_argument("--dual")
    eigen.set_defaults(func=cmd_eigen)

    separation = sub.add_parser("separation", help="separation/TV curves")
    separation.add_argument("--chain", required=True)
    separation.add_argument("--horizon", type=int, default=60)
    separation.add_argument("-o", "--output")
    separation.set_defaults(func=cmd_separation)

    absorb = sub.add_parser("absorb", help="exact absorption law of a dual")
    absorb.add_argument("--dual", required=True)
    absorb.add_argument("--horizon", type=int)
    absorb.add_argument("-o", "--output")
    absorb.set_defaults(func=cmd_absorb)

    bounds = sub.add_parser("bounds", help="closed-form mixing bounds")
    bounds.add_argument("--type", required=True, choices=["ising-circle", "cube"])
    bounds.add_argument("--N", type=int)
    bounds.add_argument("--n", type=int)
    bounds.add_argument("--k", type=int)
    bounds.add_argument("--c", type=float, required=True)
    bounds.set_defaults(func=cmd_bounds)

    simulate = sub.add_parser("simulate", help="Monte Carlo absorption law")
    simulate.add_argument("--dual", required=True)
    simulate.add_argument("--samples", type=int, required=True)
    simulate.add_argument("--seed", type=int, required=True)
    simulate.add_argument("--horizon", type=int)
    simulate.add_argument("-o", "--output")
    simulate.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return OK if not exc.code else INPUT_ERROR
    try:
        return args.func(args)
    except MonotonicityViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MONOTONICITY_FAILURE
    except (NotRowStochastic, SingularSystem, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return NUMERICAL_FAILURE
    except (SSDError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

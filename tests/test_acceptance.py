"""Acceptance gate: quantitative end-to-end criteria, one line printed each.

Criterion 1 (closed-form equality) covers the circle Gibbs sampler at
positive beta, where the dual also swaps a down spin with an adjacent up
spin, a move between incomparable states of the same level; the closed form
carries those moves.  The spectral, geometric-law and coupon-collector
criteria fix beta = 0: for beta > 0 the dual is block-triangular by level,
not triangular, so its spectrum is not the diagonal and its absorption time
is not a sum of independent geometrics.
"""
import json
import math
import time

import numpy as np

import ssdual as sd
from ssdual.cli import _write_csv, main
from ssdual.errors import NotRowStochastic

ISING_N = (3, 4, 5, 6)
ISING_BETAS = (0.0, 0.5, 1.0)
LATTICE_N = (1, 2, 3)
LATTICE_PARAMS = (
    (0.2, 0.2, 0.25, 0.25),
    (0.15, 0.3, 0.25, 0.2),
)
CUBE_GRID = [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)]


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def lattice_spec(N, params):
    l1, l2, m1, m2 = params
    return sd.LatticeSpec(N=N, lambda1=l1, lambda2=l2, mu1=m1, mu2=m2)


def iter_models():
    for N in ISING_N:
        for beta in ISING_BETAS:
            yield f"ising N={N} beta={beta}", sd.ising_circle(N, beta)
    for N in LATTICE_N:
        for params in LATTICE_PARAMS:
            yield f"lattice N={N} params={params}", sd.lattice_walk(lattice_spec(N, params))
    for n, k in CUBE_GRID:
        yield f"cube n={n} k={k}", sd.kary_cube(sd.CubeSpec(n, k))


def test_criterion_1_generic_matches_closed_forms():
    started = time.monotonic()
    failures = []
    cases = 0
    for N in ISING_N:
        for beta in ISING_BETAS:
            cases += 1
            generic = sd.build_dual(sd.ising_circle(N, beta))
            try:
                closed = sd.ising_circle_dual(N, beta)
            except NotRowStochastic:
                failures.append(
                    f"ising N={N} beta={beta}: closed form is not row stochastic"
                )
                continue
            dev = float(np.abs(closed.P_star - generic.P_star).max())
            if dev > 1e-10:
                failures.append(f"ising N={N} beta={beta}: dev={dev:.2e}")
    for N in LATTICE_N:
        for params in LATTICE_PARAMS:
            cases += 1
            spec = lattice_spec(N, params)
            generic = sd.build_dual(sd.lattice_walk(spec))
            closed = sd.lattice_walk_dual(spec)
            dev = float(np.abs(closed.P_star - generic.P_star).max())
            if dev > 1e-10:
                failures.append(f"lattice N={N} params={params}: dev={dev:.2e}")
    for n, k in CUBE_GRID:
        cases += 1
        generic = sd.build_dual(sd.kary_cube(sd.CubeSpec(n, k)))
        closed = sd.kary_cube_dual(sd.CubeSpec(n, k))
        dev = float(np.abs(closed.P_star - generic.P_star).max())
        if dev > 1e-10:
            failures.append(f"cube n={n} k={k}: dev={dev:.2e}")
    elapsed = time.monotonic() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    ok = not failures
    report(
        1,
        ok,
        f"{cases - len(failures)}/{cases} closed-form cases match within 1e-10 "
        f"in {elapsed:.1f}s" + (f"; failing: {failures}" if failures else ""),
    )
    assert ok, f"closed-form duals differ from the generic construction: {failures}"


def test_criterion_2_intertwining():
    worst_kernel = worst_initial = 0.0
    for name, chain in iter_models():
        dual = sd.build_dual(chain)
        link = sd.build_link(chain.poset, chain.pi)
        kernel, initial = sd.intertwining_residuals(chain, dual, link)
        worst_kernel = max(worst_kernel, kernel)
        worst_initial = max(worst_initial, initial)
    ok = worst_kernel <= 1e-10 and worst_initial <= 1e-12
    report(
        2,
        ok,
        f"max |LP - P*L| = {worst_kernel:.2e} (<= 1e-10), "
        f"max |nu - nu* L| = {worst_initial:.2e} (<= 1e-12)",
    )
    assert ok


def test_criterion_3_sharpness():
    worst = 0.0
    worst_name = ""
    for name, chain in iter_models():
        dual = sd.build_dual(chain)
        dev = sd.verify_sharpness(chain, dual, 60)
        if dev > worst:
            worst, worst_name = dev, name
    ok = worst <= 1e-10
    report(3, ok, f"max_n<=60 |separation - survival| = {worst:.2e} (worst: {worst_name})")
    assert ok


def test_criterion_4_spectra():
    worst = 0.0
    for N in ISING_N:
        dual = sd.build_dual(sd.ising_circle(N, 0.0))
        tri = sd.spectrum_from_triangular(dual)
        expect = np.repeat(
            [k / N for k in range(N + 1)], [math.comb(N, k) for k in range(N + 1)]
        )
        worst = max(worst, float(np.abs(np.sort(tri.expanded()) - expect).max()))
        numeric = sd.spectrum_numeric(sd.ising_circle(N, 0.0))
        worst = max(
            worst, float(np.abs(np.sort(tri.expanded()) - np.sort(numeric.expanded())).max())
        )
    for n in (1, 2, 3, 4):
        for k in (1, 2, 3):
            closed = sd.kary_cube_dual(sd.CubeSpec(n, k))
            block = sd.spectrum_from_triangular(sd.restrict_to_reachable(closed))
            expect = np.repeat(
                [(n * (k - 1) + i * (k + 1)) / (2 * n * k) for i in range(n + 1)],
                [math.comb(n, i) for i in range(n + 1)],
            )
            worst = max(worst, float(np.abs(np.sort(block.expanded()) - expect).max()))
            numeric = sd.spectrum_numeric(sd.kary_cube(sd.CubeSpec(n, k)))
            # distinct primal values are exactly the closed-form levels
            for value in numeric.values:
                worst = max(worst, float(np.abs(expect - value).min()))
            full = sd.spectrum_from_triangular(closed)
            worst = max(
                worst,
                float(np.abs(np.sort(full.expanded()) - np.sort(numeric.expanded())).max()),
            )
    ok = worst <= 1e-7
    report(4, ok, f"worst spectral deviation {worst:.2e} (<= 1e-7; Ising at beta=0)")
    assert ok


def test_criterion_5_absorption_laws():
    worst_survival = 0.0
    for N in ISING_N:
        law = sd.absorption_survival(sd.build_dual(sd.ising_circle(N, 0.0)), 60)
        geo = sd.geometric_sum_law([1 - i / N for i in range(N)], 60)
        worst_survival = max(worst_survival, float(np.abs(law.survival - geo.survival).max()))
    worst_mean = worst_var = 0.0
    for n, k in CUBE_GRID:
        law = sd.absorption_survival(sd.build_dual(sd.kary_cube(sd.CubeSpec(n, k))), 10)
        mean_expect = 2 * n * k / (k + 1) * sum(1 / i for i in range(1, n + 1))
        rates = [(n - i) * (k + 1) / (2 * n * k) for i in range(n)]
        var_expect = sum((1 - p) / p**2 for p in rates)
        worst_mean = max(worst_mean, abs(law.mean - mean_expect))
        worst_var = max(worst_var, abs(law.variance - var_expect))
    ok = worst_survival <= 1e-10 and worst_mean <= 1e-10 and worst_var <= 1e-8
    report(
        5,
        ok,
        f"Ising(beta=0) |survival - geometric| = {worst_survival:.2e} (<= 1e-10), "
        f"cube |ET* - formula| = {worst_mean:.2e} (<= 1e-10), "
        f"|VarT* - formula| = {worst_var:.2e} (<= 1e-8)",
    )
    assert ok


def test_criterion_6_bounds_hold_empirically():
    margins = []
    for N in (3, 4, 5):
        chain = sd.ising_circle(N, 0.0)
        for c in (1.0, 2.0):
            steps, bound = sd.coupon_collector_bound(N, c)
            sep = sd.separation_curve(chain, steps)
            margins.append(bound - float(sep.values[steps]))
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            dual = sd.kary_cube_dual(sd.CubeSpec(n, k))
            for c in (2.0, 3.0):
                steps, bound = sd.chebyshev_bound(n, k, c)
                law = sd.absorption_survival(dual, steps)
                margins.append(bound - float(law.survival[steps]))
    ok = min(margins) >= 0.0
    report(
        6,
        ok,
        f"all {len(margins)} bound checks hold (smallest margin {min(margins):.3f}; "
        "Ising at beta=0)",
    )
    assert ok


def test_criterion_7_mobius_inversion_suite():
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(50):
        size = int(rng.integers(1, 65))
        order = rng.permutation(size)
        covers = set()
        for _ in range(int(rng.integers(0, 2 * size + 1))):
            a, b = sorted(int(v) for v in rng.integers(0, size, size=2))
            if a != b:
                covers.add((int(order[a]), int(order[b])))
        poset = sd.build_poset(list(range(size)), covers)
        pair = sd.mobius_pair(poset)
        eye = np.eye(size, dtype=np.int64)
        assert np.array_equal(pair.zeta @ pair.mobius, eye)
        assert np.array_equal(pair.mobius @ pair.zeta, eye)
        f = rng.random(size)
        worst = max(worst, float(np.abs(sd.mobius_inverse_check(f, poset) - f).max()))
    ok = worst <= 1e-12
    report(7, ok, f"50 random posets: zeta*mobius exact, roundtrip residual {worst:.2e}")
    assert ok


def test_criterion_8_monte_carlo_consistency(tmp_path):
    samples = 100_000
    seed = 20260809
    worst_excess = -np.inf
    for name, dual in (
        ("ising N=4 beta=0.5", sd.build_dual(sd.ising_circle(4, 0.5))),
        ("cube n=3 k=2", sd.kary_cube_dual(sd.CubeSpec(3, 2))),
    ):
        first = sd.simulate_sst(dual, samples, seed)
        second = sd.simulate_sst(dual, samples, seed)
        assert np.array_equal(first.survival, second.survival)
        assert first.mean == second.mean and first.variance == second.variance
        exact = sd.absorption_survival(dual, first.horizon)
        se = np.sqrt(np.clip(exact.survival * (1 - exact.survival), 0.0, None) / samples)
        excess = float(np.max(np.abs(first.survival - exact.survival) - 3 * se))
        worst_excess = max(worst_excess, excess)
        files = []
        for tag, law in (("a", first), ("b", second)):
            path = tmp_path / f"{name.split()[0]}_{tag}.csv"
            _write_csv(path, ["n", "survival"], [np.arange(law.horizon + 1), law.survival])
            files.append(path.read_bytes())
        assert files[0] == files[1]
    ok = worst_excess <= 1e-12
    report(
        8,
        ok,
        f"10^5 trajectories: repeat runs byte-identical, "
        f"max(|empirical - exact| - 3 SE) = {worst_excess:.2e}",
    )
    assert ok


def test_criterion_9_negative_controls(tmp_path, capsys):
    flip = sd.ChainSpec(poset=sd.chain_poset(2), P=[[0.0, 1.0], [1.0, 0.0]], nu=[1.0, 0.0])
    kernel_report = sd.check_mobius_monotone(flip.P, flip.poset, "down")
    exact_witness = kernel_report.min_entry == -1.0 and not kernel_report.passed

    square = sd.kary_cube(sd.CubeSpec(2, 1))
    top_start = sd.ChainSpec(poset=square.poset, P=square.P, nu=[0, 0, 0, 1.0], pi=square.pi)
    g_report = sd.check_g_monotone(top_start)
    g_fails = not g_report.passed

    flip_path = tmp_path / "flip2.json"
    sd.save_chain(flip_path, flip)
    code_flip = main(["check", "--chain", str(flip_path), "--direction", "down"])
    top_path = tmp_path / "top.json"
    sd.save_chain(top_path, top_start)
    code_top = main(["check", "--chain", str(top_path)])
    capsys.readouterr()

    ok = exact_witness and g_fails and code_flip == 2 and code_top == 2
    report(
        9,
        ok,
        f"flip chain min entry {kernel_report.min_entry} (exit {code_flip}), "
        f"top-start density check fails (exit {code_top})",
    )
    assert ok

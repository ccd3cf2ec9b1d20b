"""Correctness gates applied to every timed iteration.

Each gate returns a list of ``(check name, passed)`` pairs.  A NaN anywhere
fails its check, because every comparison with NaN is false.
"""
from __future__ import annotations

import math

import numpy as np

# Bounds of acceptance criteria 2 and 3 (intertwining and sharpness).
INTERTWINING_KERNEL_BOUND = 1e-10
INTERTWINING_INITIAL_BOUND = 1e-12
SHARPNESS_BOUND = 1e-10
# Rounding allowance when a survival curve is tested for monotonicity and range.
SURVIVAL_SLACK = 1e-12
# Relative agreement of the CLI's absorption mean with the library's closed-form dual.
CLI_MEAN_RTOL = 1e-8


def survival_checks(survival) -> list[tuple[str, bool]]:
    s = np.asarray(survival, dtype=float)
    return [
        ("survival_non_increasing", bool(np.all(np.diff(s) <= SURVIVAL_SLACK))),
        ("survival_in_unit_interval", bool(s.min() >= -SURVIVAL_SLACK and s.max() <= 1.0 + SURVIVAL_SLACK)),
    ]


def dual_checks(kernel_res: float, initial_res: float, sharpness: float, survival) -> list[tuple[str, bool]]:
    """Intertwining and sharpness residuals within criteria 2 and 3, plus a sane survival curve."""
    return [
        ("intertwining_kernel", kernel_res <= INTERTWINING_KERNEL_BOUND),
        ("intertwining_initial", initial_res <= INTERTWINING_INITIAL_BOUND),
        ("sharpness", sharpness <= SHARPNESS_BOUND),
    ] + survival_checks(survival)


def cli_checks(exit_codes: dict, verify: dict, absorb_mean: float, exact_mean: float) -> list[tuple[str, bool]]:
    """Every command exits 0, verify passes, and absorb's mean matches the exact one."""
    checks = [(f"exit_{command}", code == 0) for command, code in exit_codes.items()]
    checks.append(("verify_passed", verify.get("passed") is True))
    checks.append(("absorb_mean", math.isclose(absorb_mean, exact_mean, rel_tol=CLI_MEAN_RTOL, abs_tol=0.0)))
    return checks


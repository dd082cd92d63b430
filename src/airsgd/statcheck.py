"""Statistical pass/fail checks for Monte Carlo experiments.

Not a hypothesis-testing library; just three checks on real numbers, each
returning one auditable record of what was compared. The verification
suite uses the zero-mean and variance checks; the nondecreasing-trend check
serves the acceptance gate's antenna-count ordering. Complex samples are
refused rather than silently cut to their real part.
Thresholds are sized so that failures indicate bugs rather than unlucky
draws: 4 standard errors for means (false alarm ~1e-4 per check) and a 5%
variance window at 1e5 trials (a ~10 sigma margin under chi-square
concentration).
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["CheckResult", "check_mean_zero", "check_variance", "check_monotone"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    observed: float
    expected: float
    kind: str  # "standard_errors" | "relative" | "margin" | "range"
    tolerance: float
    trials: int
    passed: bool

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"[{verdict}] {self.name}: observed={self.observed:.6g} "
            f"expected={self.expected:.6g} ({self.kind} tol {self.tolerance:g}, "
            f"n={self.trials})"
        )


def _real_samples(samples) -> np.ndarray:
    values = np.asarray(samples).ravel()
    if np.iscomplexobj(values):
        raise ValueError(f"samples must be real, got {values.dtype}")
    return values.astype(np.float64, copy=False)


def check_mean_zero(name: str, samples, max_standard_errors: float = 4.0) -> CheckResult:
    """Is the mean of real samples within max_standard_errors of zero?"""
    values = _real_samples(samples)
    if values.size < 2:
        raise ValueError("need at least 2 samples")
    if max_standard_errors <= 0:
        raise ValueError("max_standard_errors must be positive")
    mean = float(values.mean())
    sem = float(values.std(ddof=1)) / np.sqrt(values.size)
    if sem == 0.0:
        passed = mean == 0.0  # constant samples: only an exactly-zero mean passes
    else:
        passed = abs(mean) <= max_standard_errors * sem
    return CheckResult(
        name=name, observed=mean, expected=0.0,
        kind="standard_errors", tolerance=max_standard_errors, trials=values.size, passed=passed,
    )


def check_variance(name: str, samples, expected: float, rel_tol: float = 0.05) -> CheckResult:
    """Is the variance of real samples within rel_tol (relative) of the expectation?

    Sample variance uses the n-1 normalization.
    """
    values = _real_samples(samples)
    if values.size < 100:
        raise ValueError("need at least 100 samples for a variance check")
    if expected <= 0:
        raise ValueError("expected variance must be positive")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    var = float(values.var(ddof=1))
    passed = abs(var - expected) <= rel_tol * expected
    return CheckResult(
        name=name, observed=var, expected=expected,
        kind="relative", tolerance=rel_tol, trials=values.size, passed=passed,
    )


def check_monotone(name: str, series, noise_margin: float = 0.0) -> CheckResult:
    """Is the metric nondecreasing along the parameter axis?

    ``series`` is a list of (parameter, metric) pairs; parameters must be
    strictly increasing (a shuffled series would make the comparison
    meaningless). Each successive step may fall by at most noise_margin.
    ``observed`` reports the worst step.
    """
    if noise_margin < 0:
        raise ValueError("noise_margin must be nonnegative")
    points = list(series)
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    params = [p for p, _ in points]
    if any(b <= a for a, b in zip(params, params[1:])):
        raise ValueError(f"parameter values must be strictly increasing, got {params}")
    steps = np.diff(np.asarray([m for _, m in points], dtype=np.float64))
    worst = float(steps.min())  # most adverse step; negative means a fall
    passed = bool(worst >= -noise_margin)
    return CheckResult(
        name=name, observed=worst, expected=0.0,
        kind="margin", tolerance=noise_margin, trials=len(points), passed=passed,
    )

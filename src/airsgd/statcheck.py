"""Statistical pass/fail checks for Monte Carlo experiments.

Not a hypothesis-testing library; just two checks on real samples, each
returning one auditable record of what was compared, for the verification
suite. Complex samples are refused rather than silently cut to their real
part. Thresholds are sized so that failures indicate bugs rather than
unlucky draws: a mean may lie 4 standard errors from zero (false alarm
~1e-4 per check), and a variance may lie the wider of 5% and 6 standard
errors of the sample variance from its expectation. That standard error,
sqrt((m4 - m2^2) / n), comes from the samples' own second and fourth
central moments, so the window widens at small trial counts; at 1e5 draws
of the interference statistic 6 standard errors are about 3%, and the 5%
floor sets the window.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["CheckResult", "check_mean_zero", "check_variance"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    observed: float
    expected: float
    kind: str  # "standard_errors" | "relative" | "range"
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


def check_mean_zero(name: str, samples) -> CheckResult:
    """Is the mean of real samples within 4 standard errors of zero?"""
    values = _real_samples(samples)
    if values.size < 2:
        raise ValueError("need at least 2 samples")
    mean = float(values.mean())
    sem = float(values.std(ddof=1)) / np.sqrt(values.size)
    if sem == 0.0:
        passed = mean == 0.0  # constant samples: only an exactly-zero mean passes
    else:
        passed = abs(mean) <= 4.0 * sem
    return CheckResult(
        name=name, observed=mean, expected=0.0,
        kind="standard_errors", tolerance=4.0, trials=values.size, passed=passed,
    )


def check_variance(name: str, samples, expected: float) -> CheckResult:
    """Is the variance of real samples within 5% or 6 standard errors of the expectation?

    The relative tolerance is the wider of the two. Sample variance uses the
    n-1 normalization.
    """
    values = _real_samples(samples)
    if values.size < 100:
        raise ValueError("need at least 100 samples for a variance check")
    if expected <= 0:
        raise ValueError("expected variance must be positive")
    var = float(values.var(ddof=1))
    dev_sq = (values - values.mean()) ** 2
    m2, m4 = float(dev_sq.mean()), float((dev_sq**2).mean())
    se = np.sqrt(max(m4 - m2**2, 0.0) / values.size)
    tolerance = max(0.05, float(6.0 * se / expected))
    passed = abs(var - expected) <= tolerance * expected
    return CheckResult(
        name=name, observed=var, expected=expected,
        kind="relative", tolerance=tolerance, trials=values.size, passed=passed,
    )

import numpy as np
import pytest

from airsgd.statcheck import CheckResult, check_mean_zero, check_variance


def test_mean_zero_all_zeros_passes():
    assert check_mean_zero("zeros", np.zeros(10)).passed


def test_mean_zero_constant_nonzero_fails():
    # degenerate zero spread with a nonzero mean must fail, not divide by zero
    result = check_mean_zero("ones", np.ones(10))
    assert not result.passed
    assert result.observed == 1.0


def test_mean_zero_standard_normal_passes():
    gen = np.random.default_rng(0)
    result = check_mean_zero("normal", gen.normal(size=100_000))
    assert result.passed
    assert result.name == "normal"


def test_complex_samples_rejected():
    # numpy would silently drop the imaginary part on the way to float64
    z = np.full(200, 1.0 + 0.5j)
    with pytest.raises(ValueError, match="real"):
        check_mean_zero("offset", z)
    with pytest.raises(ValueError, match="real"):
        check_variance("offset", z, 1.0)


def test_mean_zero_needs_two_samples():
    with pytest.raises(ValueError):
        check_mean_zero("tiny", [1.0])


def test_variance_unit_normal_passes():
    gen = np.random.default_rng(2)
    result = check_variance("unit", gen.normal(size=100_000), 1.0)
    assert result.passed
    assert result.trials == 100_000


def test_variance_scaled_samples_fail_against_unscaled_expectation():
    gen = np.random.default_rng(3)
    samples = 2.0 * gen.normal(size=10_000)
    assert not check_variance("scaled", samples, 1.0).passed


def test_variance_window_is_the_wider_of_5_percent_and_6_standard_errors():
    # a unit normal's sample variance has standard error sqrt(2 / n): 6 of
    # them exceed 5% below about 29,000 draws
    gen = np.random.default_rng(6)
    small = check_variance("small", gen.normal(size=2000), 1.0)
    assert small.tolerance == pytest.approx(6 * np.sqrt(2 / 2000), rel=0.1)
    assert check_variance("large", gen.normal(size=100_000), 1.0).tolerance == 0.05


def test_variance_input_validation():
    gen = np.random.default_rng(4)
    with pytest.raises(ValueError):
        check_variance("few", gen.normal(size=50), 1.0)
    with pytest.raises(ValueError):
        check_variance("bad", gen.normal(size=200), 0.0)


def test_reports_carry_audit_fields():
    result = check_variance("audit", np.random.default_rng(5).normal(size=500), 1.0)
    assert isinstance(result, CheckResult)
    text = result.describe()
    for needle in ("audit", "observed", "expected", "n=500"):
        assert needle in text

"""Bump profile and spectral window admissibility."""
import math

import numpy as np
import pytest

from tfedge import (
    ChiProfile,
    DomainError,
    ModelParams,
    WindowViolation,
    build_spectral_table,
    chi,
    chi_deriv,
    make_grid,
    validate_support,
)


@pytest.fixture
def bump():
    return ChiProfile(1.0, 2.0, amplitude=1.0)


def test_support_and_peak(bump):
    assert chi(bump, 0.99) == 0.0
    assert chi(bump, 2.01) == 0.0
    assert chi(bump, 1.0) == 0.0
    assert chi(bump, 2.0) == 0.0
    # peak at the midpoint is amplitude/e
    assert chi(bump, 1.5) == pytest.approx(math.exp(-1.0), rel=1e-15)
    ks = np.linspace(1.05, 1.95, 19)
    assert np.all(chi(bump, ks) > 0.0)


def test_flat_to_all_orders_at_the_edges(bump):
    # 1e-9 inside the support the profile has already underflowed to zero;
    # that is the point of the exp(-1/(1-s^2)) shape
    assert chi(bump, 1.0 + 1e-9) == 0.0
    assert chi(bump, 2.0 - 1e-9) == 0.0
    assert chi_deriv(bump, 1.0 + 1e-9) == 0.0
    assert chi_deriv(bump, 2.0 - 1e-9) == 0.0
    # and no NaN creeps out of the 0 * inf corner at the boundary itself
    assert chi_deriv(bump, 1.0) == 0.0
    assert chi_deriv(bump, 2.0) == 0.0


def test_scalar_and_array_paths_agree(bump):
    ks = np.linspace(0.8, 2.2, 29)
    arr = chi(bump, ks)
    darr = chi_deriv(bump, ks)
    for i, k in enumerate(ks):
        assert arr[i] == chi(bump, float(k))
        assert darr[i] == chi_deriv(bump, float(k))


def test_amplitude_scales_linearly():
    one = ChiProfile(1.0, 2.0, amplitude=1.0)
    three = ChiProfile(1.0, 2.0, amplitude=3.0)
    ks = np.linspace(1.1, 1.9, 9)
    assert np.allclose(chi(three, ks), 3.0 * chi(one, ks), rtol=1e-15, atol=0.0)
    assert np.allclose(chi_deriv(three, ks), 3.0 * chi_deriv(one, ks), rtol=1e-15, atol=0.0)


def test_derivative_against_central_difference(bump):
    h = 1e-6
    for k in np.linspace(1.05, 1.95, 20):
        cd = (chi(bump, k + h) - chi(bump, k - h)) / (2.0 * h)
        assert abs(chi_deriv(bump, k) - cd) <= 1e-7


def test_derivative_antisymmetry(bump):
    # even profile about the midpoint, so the derivative is odd
    for d in (0.1, 0.25, 0.4):
        left = chi_deriv(bump, 1.5 - d)
        right = chi_deriv(bump, 1.5 + d)
        assert abs(left + right) <= 1e-14 * max(abs(left), 1e-30)


def test_integration_by_parts(model, profile, rule):
    # Int lambda chi chi' dk = -1/2 Int lambda' chi^2 dk since chi vanishes
    # at both window ends; ties the profile to the band data.  The residual
    # is dominated by the trapezoid form of lambda', which is O(h^2) in the
    # spatial mesh, so a fine mesh is needed to see the identity at 1e-6
    grid = make_grid(model, profile.k_hi, n=8000)
    tab = build_spectral_table(model, profile, grid, rule)
    w = tab.rule.weights
    lhs = float(np.dot(w, tab.lam * tab.chi_vals * tab.dchi_vals))
    rhs = -0.5 * float(np.dot(w, tab.dlam * tab.chi_vals**2))
    assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


def test_window_validation_accepts_the_reference_setup(model):
    report = validate_support(model, ChiProfile(1.0, 2.0), make_grid(model, 2.0, n=1200))
    assert report.b == 1.0
    assert model.b < report.lambda_at_k_hi < report.lambda_at_k_lo < 3.0 * model.b


def test_window_validation_rejects_negative_momenta(model):
    # at k <= 0 the band sits at or above the second Landau level
    with pytest.raises(WindowViolation) as err:
        validate_support(model, ChiProfile(-1.0, -0.5), make_grid(model, 1.0, n=1200))
    assert "k_lo" in str(err.value)


def test_profile_validation():
    with pytest.raises(DomainError):
        ChiProfile(2.0, 1.0)
    with pytest.raises(DomainError):
        ChiProfile(1.0, 1.0)
    with pytest.raises(DomainError):
        ChiProfile(1.0, 2.0, amplitude=0.0)
    with pytest.raises(DomainError):
        ChiProfile(-math.inf, 2.0)

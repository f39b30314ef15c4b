"""Mittag-Leffler evaluator: reductions, references, the ray, symmetry."""
import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcx, rgamma, wofz

from tfedge import (
    DEFAULT_ACCURACY,
    DomainError,
    MLAccuracy,
    MLParams,
    OverflowGuard,
    gamma_reciprocal,
    ml_deriv,
    ml_eval,
    ml_pair,
    sector_half_angle,
)

from _reference import ml_gll_reference, ml_half, ml_reference
from oracles import INDEPENDENT_ML, PIN_ML_HALF_AT_M1, PIN_ML_ONE_AT_2


def rel_err(got, want):
    return abs(got - want) / abs(want)


def test_value_at_origin():
    for alpha in (0.3, 0.5, 0.8, 1.0):
        for sigma in (0.3, 0.8, 1.0):
            want = gamma_reciprocal(sigma)
            assert ml_eval(MLParams(alpha, sigma), 0.0) == complex(want)


def test_gamma_reciprocal_special_points():
    assert gamma_reciprocal(1.0) == 1.0
    assert gamma_reciprocal(2.0) == 1.0
    assert abs(gamma_reciprocal(0.5) - 1.0 / math.sqrt(math.pi)) < 1e-15
    # exact zeros at the poles of Gamma, not merely small numbers
    for n in (0.0, -1.0, -2.0, -7.0, -41.0):
        assert gamma_reciprocal(n) == 0.0


def test_gamma_reciprocal_agrees_with_scipy():
    # math.gamma in place of scipy.special.rgamma; each is ~1e-15 off the
    # mpmath value at worst (0.95e-15 and 1.1e-15 measured), so they agree
    # to 2e-15, not to 1e-15
    x = np.linspace(-50.0, 170.0, 8801)
    x = x[~((x <= 0.0) & (x == np.floor(x)))]
    got = np.array([gamma_reciprocal(v) for v in x])
    want = rgamma(x)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 2e-15
    # beyond double range of Gamma or of its reciprocal
    assert gamma_reciprocal(200.0) == 0.0
    assert gamma_reciprocal(-200.5) == -math.inf
    assert rel_err(gamma_reciprocal(-170.5), float(rgamma(-170.5))) <= 1e-13


def test_sector_half_angle_is_three_quarters_of_pi_alpha():
    for alpha in (0.3, 0.5, 1.0):
        assert sector_half_angle(alpha) == pytest.approx(0.75 * math.pi * alpha, rel=1e-15)


def test_reduces_to_exponential():
    rng = np.random.default_rng(1815)
    params = MLParams(1.0, 1.0)
    worst = 0.0
    for _ in range(40):
        r = 25.0 * math.sqrt(rng.uniform())
        phi = rng.uniform(-math.pi, math.pi)
        z = r * cmath.exp(1j * phi)
        worst = max(worst, rel_err(ml_eval(params, z), cmath.exp(z)))
    assert worst <= 5e-13


def test_half_order_row_matches_faddeeva():
    # E_{1/2,1}(z) = w(-iz) with w the Faddeeva function
    params = MLParams(0.5, 1.0)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(60):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        worst = max(worst, rel_err(ml_eval(params, z), wofz(-1j * z)))
    assert worst <= 1e-11


def test_deep_negative_axis_matches_scaled_erfc():
    # E_{1/2,1}(-x) = exp(x^2) erfc(x); erfcx avoids the overflow pair
    got = ml_eval(MLParams(0.5, 1.0), -20.0)
    assert abs(got.imag) < 1e-18
    assert rel_err(got.real, float(erfcx(20.0))) <= 1e-12


def test_frozen_reference_values():
    for alpha, sigma, z, want, _dps, rtol in INDEPENDENT_ML:
        got = ml_eval(MLParams(alpha, sigma), z)
        assert rel_err(got, want) <= rtol, (alpha, sigma, z)


def test_frozen_references_are_honest():
    # recompute two mid-cost rows with the live mpmath reference; guards
    # against a typo in the frozen table
    for alpha, sigma, z, want, dps, _rtol in INDEPENDENT_ML[1:3]:
        live = ml_reference(alpha, sigma, z, dps)
        assert abs(live - want) <= 1e-13 * abs(want)


def test_real_line_reference_is_honest():
    # the quadrature reference of the acceptance module against the frozen
    # series values, on the rows with alpha < 1 (none lies on a ray)
    for alpha, sigma, z, want, _dps, _rtol in INDEPENDENT_ML[2:7]:
        assert rel_err(ml_gll_reference(alpha, sigma, z), want) <= 1e-13, (alpha, sigma, z)


def test_regression_pins():
    assert ml_eval(MLParams(0.5, 1.0), -1.0).real == pytest.approx(
        PIN_ML_HALF_AT_M1, rel=1e-13
    )
    assert ml_eval(MLParams(1.0, 1.0), 2.0).real == pytest.approx(
        PIN_ML_ONE_AT_2, rel=1e-13
    )


def test_shift_identity():
    # E_{a,s}(z) = z E_{a,s+a}(z) + 1/Gamma(s), straight from the series
    for alpha in (0.4, 0.7, 1.0):
        for sigma in (0.6, 1.0):
            for r in (0.5, 2.0, 6.0):
                for phi in (0.0, 2.0, -1.5, 3.0):
                    z = r * cmath.exp(1j * phi)
                    lhs = ml_eval(MLParams(alpha, sigma), z)
                    rhs = z * ml_eval(MLParams(alpha, sigma + alpha), z) + gamma_reciprocal(sigma)
                    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@settings(deadline=None, max_examples=60)
@given(
    alpha=st.floats(0.4, 1.0),
    sigma=st.floats(0.4, 1.0),
    u=st.floats(0.0, 1.0),
    phi=st.floats(0.0, math.pi),
)
def test_conjugation_symmetry(alpha, sigma, u, phi):
    rmax = min(8.0, math.exp(4.5 * alpha))
    z = u * rmax * cmath.exp(1j * phi)
    params = MLParams(alpha, sigma)
    assert ml_eval(params, z.conjugate()) == ml_eval(params, z).conjugate()


def test_series_asymptotic_overlap_midrange():
    # the annulus 10 <= |z| <= 20 against the Faddeeva forms at alpha = 1/2;
    # the suite-wide version over three orders lives in the acceptance module
    for sigma in (1.0, 0.5):
        params = MLParams(0.5, sigma)
        for r in (10.0, 15.0, 20.0):
            for phi in np.linspace(0.0, math.pi, 9):
                z = r * cmath.exp(1j * phi)
                assert rel_err(ml_eval(params, z), ml_half(sigma, z)) <= 1e-8, (sigma, r, phi)


@pytest.mark.parametrize("y", [7.5, 9.99, 10.5, 20.0])
def test_ray_components_at_half_order(y):
    # on the ray arg z = -pi/2 = -pi alpha one component of E is exponentially
    # small and must survive to relative accuracy:
    # E_{1/2,1}(-iy) = exp(-y^2) - (2i/sqrt(pi)) D(y), D the Dawson function,
    # E_{1/2,1/2}(-iy) = 1/sqrt(pi) - iy E_{1/2,1}(-iy)
    small = math.exp(-y * y)
    e1 = ml_eval(MLParams(0.5, 1.0), -1j * y)
    e_half = ml_eval(MLParams(0.5, 0.5), -1j * y)
    assert rel_err(e1.real, small) <= 1e-12
    assert rel_err(e_half.imag, -y * small) <= 1e-12
    # the large components against the Dawson function
    dawson_y = 0.5 * math.sqrt(math.pi) * float(wofz(y).imag)
    assert rel_err(e1.imag, -2.0 / math.sqrt(math.pi) * dawson_y) <= 1e-12
    assert rel_err(e_half.real, (1.0 - 2.0 * y * dawson_y) / math.sqrt(math.pi)) <= 1e-8


def _pair_points(alpha):
    """z = 0, the real axis, poles on either side of the parabola, no pole,
    the ray |arg z| = pi alpha (both half-planes), then every point mirrored
    to the other half-plane."""
    ray = math.pi * alpha
    upper = [
        0.0,
        2.5,
        -7.0,
        3.0j,
        cmath.rect(0.4, 0.5 * ray),  # pole, the parabola passes right of it
        cmath.rect(6.0, 0.5 * ray),  # pole left of the parabola: residue
        cmath.rect(1.5, 0.9 * ray),
        cmath.rect(1.5, ray),
        cmath.rect(12.0, ray),
        cmath.rect(12.0, -ray),
    ]
    return np.array(upper + [z.conjugate() for z in map(complex, upper)])


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
def test_array_pair_matches_scalar_calls(alpha):
    z = _pair_points(alpha)
    eaa, ea1 = ml_pair(alpha, z)
    for zi, got_aa, got_a1 in zip(z, eaa, ea1):
        want_aa = ml_eval(MLParams(alpha, alpha), zi)
        want_a1 = ml_eval(MLParams(alpha, 1.0), zi)
        assert abs(got_aa - want_aa) <= 1e-12 * abs(want_aa), zi
        assert abs(got_a1 - want_a1) <= 1e-12 * abs(want_a1), zi
    # the mirrored half is the conjugate, bit for bit
    half = z.size // 2
    for values in (eaa, ea1):
        assert np.all(values[half:].real == values[:half].real)
        assert np.all(values[half:].imag == -values[:half].imag)
    # one element is the scalar call itself; shapes are kept
    for zi in z[:4]:
        single_aa, single_a1 = ml_pair(alpha, zi)
        assert single_aa.shape == ()
        assert complex(single_aa) == ml_eval(MLParams(alpha, alpha), zi)
        assert complex(single_a1) == ml_eval(MLParams(alpha, 1.0), zi)
    square_aa, _ = ml_pair(alpha, z[:4].reshape(2, 2))
    assert square_aa.shape == (2, 2)


@pytest.mark.parametrize("alpha", [0.5, 0.8])
def test_shared_parabola_is_each_vertex_own(alpha):
    # the array path gives every pole vertex beyond the clip of sqrt(phi) in
    # _region_below one parabola; each z must still get the parabola its own
    # vertex selects
    from tfedge.mittag_leffler import _parabola, _route

    log_eps = math.log(1e-15)
    for phi in (0.5, 1.4, 4.0, 5.9, 6.1, 40.0, 1e4):
        # a pole on the imaginary axis has its vertex at |s*| / 2
        z = cmath.rect((2.0 * phi) ** alpha, 0.5 * math.pi * alpha)
        (_, ((mu, h, n), residue)), _ = _route(alpha, (alpha, 1.0), z, log_eps, {})
        (mu_own, h_own, n_own), residue_own = _parabola(phi, 0.0, log_eps)
        assert (n, residue) == (n_own, residue_own), phi
        assert mu == pytest.approx(mu_own, rel=1e-12) and h == pytest.approx(h_own, rel=1e-12)


def test_deriv_identity():
    # d/dz E_{a,1}(z) = E_{a,a}(z)/a; centred difference as the oracle
    h = 1e-5
    for alpha, z in ((0.7, -3.0), (0.5, 2.0), (0.8, -6.0 + 1.0j)):
        cd = (ml_eval(MLParams(alpha, 1.0), z + h) - ml_eval(MLParams(alpha, 1.0), z - h)) / (2 * h)
        assert abs(ml_deriv(alpha, z) - cd) <= 1e-6
    assert rel_err(ml_deriv(1.0, 2.0), math.exp(2.0)) <= 1e-12
    assert rel_err(ml_deriv(0.5, 0.0), 2.0 / math.sqrt(math.pi)) <= 1e-14


def test_parameter_validation():
    with pytest.raises(DomainError):
        MLParams(0.0, 1.0)
    with pytest.raises(DomainError):
        MLParams(2.0, 1.0)
    with pytest.raises(DomainError):
        MLParams(0.5, math.inf)
    with pytest.raises(DomainError):
        MLAccuracy(rel_tol=0.0)
    with pytest.raises(DomainError):
        ml_deriv(1.5, 1.0)
    with pytest.raises(DomainError):
        ml_pair(1.5, [1.0])


def test_overflow_guard_on_dominant_exponential():
    # exp(z^2) at z = 400 is far past double range; must refuse, not inf
    with pytest.raises(OverflowGuard):
        ml_eval(MLParams(0.5, 1.0), 400.0)
    # the array entry point refuses the same element among finite ones
    with pytest.raises(OverflowGuard):
        ml_pair(0.5, [1.0, -2.0j, 400.0])
    with pytest.raises(OverflowGuard):
        ml_pair(1.0, [1.0, 710.0])


def test_accuracy_knob_tightens_the_series():
    # a loose tolerance must not be *less* accurate than the default by
    # orders of magnitude, and a tight one must track the reference; below
    # 1e-12 the float64 contour cannot certify its tolerance, and says so
    params = MLParams(0.6, 1.0)
    z = -4.0 + 2.0j
    want = ml_reference(0.6, 1.0, z, 50)
    loose = ml_eval(params, z, MLAccuracy(rel_tol=1e-6))
    tight = ml_eval(params, z, MLAccuracy(rel_tol=1e-12))
    assert rel_err(loose, want) <= 1e-6
    assert rel_err(tight, want) <= 1e-11
    with pytest.raises(DomainError):
        MLAccuracy(rel_tol=1e-13)


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-8])
def test_rel_tol_holds_where_e_is_algebraically_small(rel_tol):
    # at sigma = alpha the z^-1 term vanishes and E ~ z^-2 is small against
    # the contour integrand; a contour run at rel_tol itself misses by 10-300x
    params = MLParams(0.8, 0.8)
    for r, angle in ((6.7, 0.858), (13.4, 0.942), (25.9, 1.12), (19.1, 1.22)):
        z = cmath.rect(r, angle * 0.8 * math.pi)
        want = ml_gll_reference(0.8, 0.8, z)
        assert rel_err(ml_eval(params, z, MLAccuracy(rel_tol)), want) <= rel_tol, (r, angle)


def test_import_does_not_load_mpmath():
    # mpmath is a test-only dependency: the evaluator is float64 throughout;
    # scipy.sparse is not needed either and would add ~0.2 s to the import,
    # and scipy.special (1/Gamma comes from math.gamma) ~0.08 s
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; import tfedge; "
        "print('mpmath' in sys.modules, 'scipy.sparse' in sys.modules, "
        "'scipy.special' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.stdout.strip() == "False False False"

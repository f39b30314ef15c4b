"""Mittag-Leffler evaluator: reductions, references, the ray, symmetry."""
import bisect
import cmath
import functools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcx, rgamma, wofz

from tfedge import (
    DomainError,
    MLParams,
    OverflowGuard,
    gamma_reciprocal,
    ml_deriv,
    ml_eval,
    ml_pair,
    neg_i_power,
)

from _reference import ml_gll_reference, ml_half, ml_ray_expansion, ml_reference
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


def _sweep_at(alpha, sigmas, z, m, theta, rotation):
    """_sweep at the z = m e^(i theta), with rho = m^(1/alpha) and the
    extremes of m and rho formed as _ml_at forms them."""
    from tfedge import mittag_leffler as ml

    with np.errstate(over="ignore", invalid="ignore"):
        rho = m ** (1.0 / alpha)
        return ml._sweep(alpha, sigmas, z, m, rho, ml._ends(m) + ml._ends(rho), theta, rotation)


def _routes(alpha, sigmas, z, m, theta, rotation):
    """The route groups of one sweep (_sweep at z with Im z >= 0), as a list
    of (route, ids, data) in the order the sweep takes them, ids an index
    array: ("series", None) and ("exp", None), with no data; ("ray", reach)
    with (|z|, |z|^(1/alpha)); ("contour", ((mu, h, N), residue)) with None
    or the residue exponents.  Recorded from the sweep's calls of _taylor
    (with columns of the coefficients taylor of _order_constants), _ray and
    _contour, which are wrapped; the z that none takes are exp(z), where
    alpha and every sigma are 1.  A contour route group is a window and a
    row set, one _contour call: the unshifted rows () where every |z| < 1,
    else the shifted rows of _order_constants, asserted here; the two
    groups of one window are joined again into its route."""
    from tfedge import mittag_leffler as ml

    calls = []
    taylor, ray, contour = ml._taylor, ml._ray, ml._contour
    constants = ml._order_constants(alpha, sigmas)

    def on_taylor(w, coefficients):
        if np.shares_memory(coefficients, constants.taylor):
            calls.append((("series", None), np.flatnonzero(np.isin(z, w)), None))
        return taylor(w, coefficients)

    def on_ray(alpha, sigmas, r0, rho0, reach, out, ids):
        calls.append((("ray", reach), ids, np.array([r0, rho0])))
        ray(alpha, sigmas, r0, rho0, reach, out, ids)

    def on_contour(alpha, sigmas, z, ids, parabola, exponents, factor, out, shifted):
        near = m[ids] < 1.0
        assert shifted == (() if near.all() else constants.shifted) and not (shifted and near.any())
        calls.append((("contour", (parabola, exponents is not None)), ids, exponents))
        contour(alpha, sigmas, z, ids, parabola, exponents, factor, out, shifted)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ml, "_taylor", on_taylor)
        patch.setattr(ml, "_ray", on_ray)
        patch.setattr(ml, "_contour", on_contour)
        _sweep_at(alpha, sigmas, z, m, theta, rotation)
    taken = np.zeros(z.size, dtype=bool)
    joined = {}
    for route, ids, data in calls:
        ids = np.arange(z.size)[ids]
        taken[ids] = True
        if route in joined:
            first, first_data = joined[route]
            order = np.argsort(np.concatenate((first, ids)))
            ids = np.concatenate((first, ids))[order]
            data = None if data is None else np.concatenate((first_data, data), axis=1)[:, order]
        joined[route] = ids, data
    rest = np.flatnonzero(~taken)
    assert constants.exp or not rest.size
    routes = [(route, ids, data) for route, (ids, data) in joined.items()]
    return ([(("exp", None), rest, None)] if rest.size else []) + routes


def _ray_reference(alpha, sigma, z):
    """The mpmath series, with its digits set by |z|^(1/alpha), while that is
    at most 100; the large-|z| expansion (error ~ e^(-|z|^(1/alpha))) past
    it, where the series needs hundreds of digits and seconds a value."""
    rho = abs(z) ** (1.0 / alpha)
    if rho <= 100.0:
        return ml_reference(alpha, sigma, z, 30 + int(rho / 2.3))
    return ml_ray_expansion(alpha, sigma, z)


# per alpha, one |z| in each reach of the ray: reach 2 (every interval),
# reach 1 (the pole's fold reaches past r_cut) and reach 0 (the pole lies
# past r_cut)
_RAY_RADII = {0.1: (1.05, 1.2, 2.2), 0.3: (1.5, 2.5, 6.5), 0.7: (3.0, 12.0, 31.0), 0.9: (5.0, 27.0, 49.0)}


@pytest.mark.parametrize("alpha", sorted(_RAY_RADII))
def test_ray_matches_independent_references(alpha):
    # on the ray |arg z| = pi alpha, in both half-planes and each reach,
    # against references that share no code with the ray's integral
    from tfedge.mittag_leffler import _ml_at, _ml_values, _ray_intervals

    radii = np.array(_RAY_RADII[alpha])
    d, r_cut = _ray_intervals(alpha, radii)
    assert list((radii - d < r_cut).astype(int) + (radii + d < r_cut)) == [2, 1, 0]
    # the sweep z = |z| (-i)^(-2 alpha) of the array entry, and the same z
    # given as complex numbers, split by argument
    u = neg_i_power(-2.0 * alpha)
    routes = _routes(alpha, (alpha, 1.0), radii * u, radii, math.atan2(u.imag, u.real), u ** (1.0 / alpha))
    assert sorted(route for route, _, _ in routes) == [("ray", 0), ("ray", 1), ("ray", 2)]
    z = radii * cmath.exp(1j * math.pi * alpha)
    z = np.concatenate((z, z.conj()))
    sweeps = np.concatenate([_ml_values(alpha, (alpha, 1.0), (1.0,), radii, beta)[:, 0] for beta in (-2.0 * alpha, 2.0 * alpha)], axis=1)
    for values in (sweeps, _ml_at(alpha, (alpha, 1.0), z)):
        for k, sigma in enumerate((alpha, 1.0)):
            for zi, got in zip(z[:3], values[k, :3]):
                want = _ray_reference(alpha, sigma, zi)
                assert rel_err(got, want) <= 1e-12, (alpha, sigma, zi)
            # the lower half-plane is the conjugate, bit for bit
            assert np.array_equal(values[k, 3:], values[k, :3].conj())


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_ray_tail_at_its_edges(alpha):
    # reach 2 takes the tail [r0 + d, r_cut] from one memoised rule over
    # y = r / r0 in [1 + d/r0, r_cut], whatever r0: at r0 = 1, where the
    # rule is the tail's own, midway, and just inside the edge
    # r0 (1 + d/r0) = r_cut of reach 2, where the tail is shortest
    from tfedge.mittag_leffler import _ml_at, _ml_values, _ray_intervals

    d, r_cut = _ray_intervals(alpha, 1.0)
    edge = r_cut / (1.0 + d)
    radii = np.array([1.0, 0.5 * (1.0 + edge), edge * (1.0 - 1e-6)])
    u = neg_i_power(-2.0 * alpha)
    routes = _routes(alpha, (alpha, 1.0), radii * u, radii, math.atan2(u.imag, u.real), u ** (1.0 / alpha))
    assert [route for route, _, _ in routes] == [("ray", 2)]
    z = radii * cmath.exp(1j * math.pi * alpha)
    for values in (_ml_values(alpha, (alpha, 1.0), (1.0,), radii, -2.0 * alpha)[:, 0], _ml_at(alpha, (alpha, 1.0), z)):
        for k, sigma in enumerate((alpha, 1.0)):
            for zi, got in zip(z, values[k]):
                assert rel_err(got, _ray_reference(alpha, sigma, zi)) <= 1e-12, (alpha, sigma, zi)


def test_ray_far_out_keeps_its_digits():
    # |z| past 1e154 on the ray: the product of the two distances
    # |r - r0| |r - r0 e^(2 i pi alpha)| leaves double range, yet E ~ 1/z
    # does not
    for alpha, sigma, r in ((0.9, 1.0, 1e160), (0.9, 1.0, 1e250), (0.9, 0.9, 1e100), (0.6, 1.0, 1e160)):
        z = r * cmath.exp(1j * math.pi * alpha)
        want = ml_ray_expansion(alpha, sigma, z)
        assert rel_err(ml_eval(MLParams(alpha, sigma), z), want) <= 1e-12, (alpha, sigma, r)
        assert rel_err(ml_pair(alpha, [z, 2.0 * z])[sigma == 1.0][0], want) <= 1e-12, (alpha, sigma, r)


def test_ray_values_do_not_depend_on_their_block():
    # a ray-only array of 300 z, every reach, longer than one block of
    # _ray: each z's E is the same bit for bit in shuffled and re-sliced
    # sub-arrays, whatever its position or companions; a lone ml_eval agrees
    # to rounding
    from tfedge.mittag_leffler import _RAY_CELLS, _ray_rows

    rng = np.random.default_rng(602)
    for alpha in (0.3, 0.5):
        # the fold's half-width is |z| / 2 at these orders
        r_cut = 50.0**alpha
        radii = np.concatenate([
            rng.uniform(1.0, r_cut / 1.5, 100),
            rng.uniform(r_cut / 1.5, r_cut / 0.5, 100),
            rng.uniform(r_cut / 0.5, 10.0 * r_cut, 100),
        ])
        pool = radii * np.exp(1j * math.pi * alpha * rng.choice([-1.0, 1.0], radii.size))
        want = np.array(ml_pair(alpha, pool))
        for reach in (0, 1, 2):
            _, rows, _ = _ray_rows(alpha, (alpha, 1.0), reach)
            assert _RAY_CELLS // rows.size < 100, (alpha, reach)
        for size in (2, 7, 33, 150):
            order = rng.permutation(pool.size)
            for start in range(0, pool.size - size + 1, max(size, 53)):
                ids = order[start : start + size]
                assert np.array_equal(np.array(ml_pair(alpha, pool[ids])), want[:, ids]), (alpha, size)
        assert np.array_equal(np.array(ml_pair(alpha, pool[1::4])), want[:, 1::4])
        for i in rng.choice(pool.size, 12, replace=False):
            for k, sigma in enumerate((alpha, 1.0)):
                assert rel_err(ml_eval(MLParams(alpha, sigma), pool[i]), want[k, i]) <= 1e-14, (alpha, pool[i])


def test_ray_memo_is_read_only_and_bounded(table):
    # the ray's z-free rows are kept across calls as _nodes keeps the
    # contour's: read-only, in a bounded memo, one entry per reach for an
    # order's sweep (reach 0 and 1 here)
    from tfedge import FractionalOrder, current_trace
    from tfedge.mittag_leffler import _ray_rows

    _ray_rows.cache_clear()
    current_trace(FractionalOrder(0.5, 1.0), table, (50.0, 100.0, 160.0, 250.0, 400.0, 600.0))
    info = _ray_rows.cache_info()
    assert info.currsize == 2 <= info.maxsize
    for reach in (0, 1):
        for a in _ray_rows(0.5, (0.5, 1.0), reach):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
    assert _ray_rows.cache_info().hits == info.hits + 2
    # many orders cannot grow it past its bound
    for alpha in np.linspace(0.05, 0.95, 2 * info.maxsize):
        ml_pair(alpha, np.array([3.0, 40.0]) * cmath.exp(1j * math.pi * alpha))
    assert _ray_rows.cache_info().currsize == _ray_rows.cache_info().maxsize


def test_contour_memos_are_read_only_and_bounded():
    # the nodes of the windows' parabolas, what the orders decide (the one
    # Taylor coefficient matrix and its limits among it), the residue rows
    # of a sweep's argument and the powers of -i are kept across calls,
    # also for sigma = 1 + alpha, the domain's edge: sweeping more orders than
    # the memos hold cannot grow them past their bound, and the arrays
    # handed out are read-only
    from tfedge.mittag_leffler import _TERMS, _WINDOWS, _ml_values, _nodes, _order_constants, _residue_row

    memos = (_nodes, _order_constants, _residue_row, neg_i_power)
    sweep = 2 * max(memo.cache_info().maxsize for memo in memos)
    for alpha in np.linspace(0.05, 1.0, sweep):
        # z = |z| e^(0.6 i pi alpha), |z| = 6 past the series' reach, where the contour takes the residue
        _ml_values(alpha, (alpha, 1.0 + alpha), (1.0,), [0.5, 3.0, 6.0], -1.2 * alpha)
    for memo in memos:
        info = memo.cache_info()
        assert info.currsize <= info.maxsize < info.misses, memo
    constants = _order_constants(0.5, (0.5, 1.0))
    # one weight row per sigma, the shifted rows' own
    s_alpha, weights = _nodes(0.5, (0.5, 1.0), _WINDOWS[-1][0], constants.shifted)
    assert constants.shifted == (0,) and weights.shape == (2, s_alpha.size)
    assert constants.taylor.shape == (2, _TERMS) and len(constants.limits) == _TERMS
    for a in (s_alpha, weights, constants.one_minus, constants.taylor, _residue_row(0.5, (0.5, 1.0), 0.25 * math.pi)):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_memos_change_no_bit():
    # a sweep whose memos are cleared first (cold) and the same sweep with
    # every memo filled (warm) give the same values bit for bit, or the same
    # refusal: on the contour with and without residues, off the sheet, on
    # the ray, at z = 0, and at the domain's edge sigma = 1 + alpha
    from tfedge.mittag_leffler import _ml_values, _nodes, _order_constants, _ray_rows, _residue_row

    def sweep(alpha, sigmas, moduli, beta):
        try:
            return _ml_values(alpha, sigmas, (1.0,), moduli, beta).tobytes()
        except OverflowGuard as refusal:
            return str(refusal)

    moduli = np.concatenate(([0.0], np.geomspace(0.05, 60.0, 23))).reshape(2, 12)
    for alpha in (0.3, 0.5, 0.8, 1.0):
        for beta in (0.25, 0.8, 1.0, 1.5, -2.0 * alpha):
            for sigmas in ((alpha, 1.0), (1.0,), (alpha, 1.0 + alpha)):
                for memo in (_nodes, _ray_rows, _order_constants, _residue_row, neg_i_power):
                    memo.cache_clear()
                cold = sweep(alpha, sigmas, moduli, beta)
                assert sweep(alpha, sigmas, moduli, beta) == cold, (alpha, beta, sigmas)


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
    # ml_eval is a one-element sweep of the same router, so each value of
    # the pair equals it bit for bit, on the ray at reach 0 (|z| = 12 at
    # alpha = 0.3) too
    from tfedge.mittag_leffler import _ml_at

    z = _pair_points(alpha)
    eaa, ea1 = ml_pair(alpha, z)
    for zi, got_aa, got_a1 in zip(z, eaa, ea1):
        for got, sigma in ((got_aa, alpha), (got_a1, 1.0)):
            want = ml_eval(MLParams(alpha, sigma), zi)
            assert want == _ml_at(alpha, (sigma,), [zi])[0, 0], (sigma, zi)
            assert got == want, (sigma, zi)
    # the mirrored half is the conjugate, bit for bit
    half = z.size // 2
    for values in (eaa, ea1):
        assert np.all(values[half:].real == values[:half].real)
        assert np.all(values[half:].imag == -values[:half].imag)
    # one element is the array call itself; shapes are kept
    for i, zi in enumerate(z[:4]):
        single_aa, single_a1 = ml_pair(alpha, zi)
        assert single_aa.shape == ()
        assert complex(single_aa) == eaa[i] and complex(single_a1) == ea1[i]
    square_aa, _ = ml_pair(alpha, z[:4].reshape(2, 2))
    assert square_aa.shape == (2, 2)


@pytest.mark.parametrize("alpha", [0.5, 0.8])
def test_shared_parabola_is_each_vertex_own(alpha):
    # a pole takes the parabola of its vertex's window in the table: beyond
    # the clip of sqrt(phi) in _region_below the clip's own, below it the
    # one its octave [lo, 2 lo) of vertices would have alone, bit for bit
    from tfedge.mittag_leffler import _CLIP, _EDGES, _WINDOWS, _parabola, _region_below

    theta = 0.9 * math.pi * alpha
    for phi in (0.5, 1.4, 4.0, 5.9, 6.1, 40.0, 1e4):
        # a pole at arg s* = 0.9 pi has its vertex at |s*| cos^2(0.45 pi), past
        # the series' reach (|s*| <= ln 16 / (1 - cos(0.9 pi))); its z alone is a sweep
        m = np.array([(phi / math.cos(0.45 * math.pi) ** 2) ** alpha])
        rotation = cmath.rect(1.0, 0.9 * math.pi)
        [((_, parabola), _, _)] = _routes(alpha, (alpha, 1.0), m * cmath.exp(1j * theta), m, theta, rotation)
        (mu, _, _), residue = parabola
        window = bisect.bisect_right(_EDGES, phi)
        assert parabola == _WINDOWS[window], phi
        # the residue is taken exactly when the pole is right of the parabola
        assert residue == (phi > mu), phi
        if phi >= _CLIP:
            assert window == len(_EDGES) and parabola == (_region_below(phi), True), phi
        else:
            lo = _CLIP / 2.0 ** (math.floor(math.log2(_CLIP / phi)) + 1)
            assert lo <= phi < 2.0 * lo and parabola == _parabola(lo), phi


def test_pole_vertex_windows_share_valid_parabolas():
    # the table of windows: built by merging the octaves [lo, 2 lo), lo =
    # clip 2^-j, of equal parabolas, from the clip down to the 1e-15 cut.
    # Every octave's own parabola is its window's; each window leaves all
    # its poles on the side its residue says, within _N_MAX nodes; the
    # lowest window reaches the cut, below which the poles take the
    # parabola of no pole
    from tfedge.mittag_leffler import _CLIP, _EDGES, _N_MAX, _WINDOWS, _parabola

    cut = math.nextafter(1e-15, math.inf)
    assert _EDGES[0] == cut and _EDGES[-1] == _CLIP and list(_EDGES) == sorted(set(_EDGES))
    assert _WINDOWS[0] == _parabola(0.0) and _WINDOWS[-1] == _parabola(_CLIP)
    # at _LOG_EPS = log(1e-14), 12 windows below the clip's, no two
    # neighbours alike (they would be one window)
    assert len(_WINDOWS) == 14 and all(a != b for a, b in zip(_WINDOWS[1:], _WINDOWS[2:]))
    lo, octaves = _CLIP, set()
    while lo > 1e-15:
        lo *= 0.5
        # the window of the octave's lowest vertex above the cut, and of its highest
        window = bisect.bisect_right(_EDGES, max(lo, cut))
        assert bisect.bisect_right(_EDGES, math.nextafter(2.0 * lo, 0.0)) == window, lo
        assert _parabola(lo) == _WINDOWS[window], lo
        octaves.add(window)
    assert octaves == set(range(1, len(_EDGES))) and lo < cut
    for window, ((mu, _, n), residue) in enumerate(_WINDOWS):
        assert n <= _N_MAX, window
        # poles at vertices in [lower, upper): right of the vertex mu with residue, else left
        lower, upper = ([0.0] + list(_EDGES))[window], (list(_EDGES) + [math.inf])[window]
        assert (mu < lower) if residue else (upper <= mu), window


def _rule_route(alpha, sigmas, zi):
    """(route, data) of one z (Im z >= 0) by the routing rules, stated here
    in Python scalars: exp(z) where alpha and every sigma are 1; the Taylor
    series at |z| <= its reach (_series_reach); the ray's reach where |z| >=
    1 on arg z = pi alpha and every sigma <= 1; else the window of the
    vertex (Re s* + |s*|) / 2 of the pole s* = z^(1/alpha) on the principal
    sheet, with the residue exponents s* + (1 - sigma) log |s*|, one per
    sigma, where the window's parabola passes left of s* (the residue is
    e^(exponent) e^(i (1 - sigma) arg s*) / alpha).  None where the value is not finite:
    exp(z), or a residue, of which the contour sum is a small part."""
    from tfedge.mittag_leffler import _EDGES, _RAY_TOL, _WINDOWS, _ray_intervals

    if alpha == 1.0 and all(sigma == 1.0 for sigma in sigmas):
        return (("exp", None), None) if _finite_exp(zi) else None
    r, theta = abs(zi), math.atan2(zi.imag, zi.real)
    on_ray = alpha < 1.0 and max(sigmas) <= 1.0 and abs(theta - math.pi * alpha) <= _RAY_TOL
    if r <= _series_reach(alpha, theta, on_ray):
        return ("series", None), None
    if on_ray and r >= 1.0:
        d, r_cut = _ray_intervals(alpha, r)
        return ("ray", int(r - d < r_cut) + int(r + d < r_cut)), np.array([r, r ** (1.0 / alpha)])
    if theta > math.pi * alpha:
        return ("contour", _WINDOWS[0]), None
    rho = r ** (1.0 / alpha)
    pole = cmath.rect(rho, theta / alpha)
    parabola = _WINDOWS[bisect.bisect_right(_EDGES, 0.5 * (pole.real + abs(pole)))]
    if not parabola[1]:
        return ("contour", parabola), None
    exponents = np.array([pole + (1.0 - sigma) * math.log(rho) for sigma in sigmas])
    if not all(_finite_exp(exponent - math.log(alpha)) for exponent in exponents.tolist()):
        return None
    return ("contour", parabola), exponents


def _series_reach(alpha, theta, on_ray):
    """The |z| up to which the sweep sums the Taylor series at arg z = theta
    in [0, pi]: its radius (< 1, taken at sigma = -1 and so the same for
    every sigma >= -1); off the ray on the principal sheet, theta < pi
    alpha, M(theta) = min(R, (ln 16 / (1 - cos(theta / alpha)))^alpha)
    where that is larger, R the largest |z| at which 64 terms of sigma = -1
    fall to 2^-60 of the largest: there rho (1 - cos(theta / alpha)) <= ln
    16, rho = |z|^(1/alpha), and the terms sum to at most 16 |E|."""
    from tfedge.mittag_leffler import _order_constants

    radius, big = _order_constants(alpha, (-1.0,)).radius, _uncapped_radius(alpha)
    if on_ray or theta >= math.pi * alpha:
        return radius
    fall = 1.0 - math.cos(theta / alpha)
    return max(radius, big if fall * big ** (1.0 / alpha) <= math.log(16.0) else (math.log(16.0) / fall) ** alpha)


@functools.lru_cache(maxsize=None)
def _uncapped_radius(alpha):
    """R: the largest |z| at which 64 terms of sigma = -1 fall to 2^-60 of the largest."""
    from tfedge.mittag_leffler import _taylor_radii

    return _taylor_radii(alpha, -1.0)[-1]


def _finite_exp(w):
    """Whether e^w is finite: cmath.exp raises OverflowError where it is not."""
    try:
        cmath.exp(w)
    except OverflowError:
        return False
    return True


def _assert_routes_follow_the_rules(alpha, sigmas, z):
    """The sweep router at every z (Im z >= 0), split by argument into
    sweeps as array calls split them, against _rule_route; returns the
    routes taken, each with its |z|.  Each z's route and data equal those
    of its one-element sweep bit for bit."""
    from tfedge.mittag_leffler import _by_argument

    want = []
    for zi in z.tolist():
        want.append(_rule_route(alpha, sigmas, zi))
        if want[-1] is None:
            # the router refuses the z in a sweep with z = 0
            theta = math.atan2(zi.imag, zi.real)
            with pytest.raises(OverflowGuard):
                _sweep_at(
                    alpha, sigmas, np.array([0.0, zi]), np.array([0.0, abs(zi)]), theta, cmath.rect(1.0, theta / alpha)
                )
    kept = np.array([zi for zi, w in zip(z, want) if w is not None])
    want = [w for w in want if w is not None]
    eps = np.finfo(float).eps
    taken = []
    for sweep, m, theta in _by_argument(kept):
        rotation = cmath.rect(1.0, theta / alpha)
        for route, ids, data in _routes(alpha, sigmas, kept[sweep], m, theta, rotation):
            for j, i in enumerate(sweep[ids]):
                datum = None if data is None else data[:, j]
                [(lone, _, lone_data)] = _routes(alpha, sigmas, kept[[i]], m[ids][j : j + 1], theta, rotation)
                assert lone == route and (datum is None) == (lone_data is None), (alpha, sigmas, kept[i])
                assert datum is None or np.array_equal(lone_data[:, 0], datum), (alpha, sigmas, kept[i])
                want_route, want_datum = want[i]
                assert route == want_route, (alpha, sigmas, kept[i])
                taken.append((route, abs(kept[i])))
                if want_datum is None:
                    assert datum is None, (alpha, sigmas, kept[i])
                    continue
                # |z| to its rounding; the pole's |s*| and the residue exponent to
                # the rounding of |z| and arg z raised to the power 1/alpha
                pole = abs(kept[i]) ** (1.0 / alpha)
                if route[0] == "ray":
                    tol = np.array([2.0 * eps * abs(kept[i]), 8.0 * eps / alpha * pole])
                else:
                    tol = 8.0 * eps / alpha * (1.0 + pole)
                assert np.all(np.abs(datum - want_datum) <= tol), (alpha, sigmas, kept[i])
    return taken


def test_sweep_router_follows_the_routing_rules():
    # every z's route against the rules stated z by z (_rule_route): the
    # same route kind, ray reach and parabola ((mu, h, N), residue), the
    # residue taken for the same z, and the same OverflowGuard; the ray's
    # (|z|, |z|^(1/a)) and the residue exponents agree to the rounding of
    # the pole.  Arrays of random z (each a one-element sweep, their
    # arguments differing), the ray, and one sweep of many moduli; every
    # route kind, ray reach and window is taken
    from tfedge.mittag_leffler import _WINDOWS

    rng = np.random.default_rng(2718)
    routes = []
    for alpha in [1.0, *rng.uniform(0.05, 1.0, 39)]:
        r = 10.0 ** rng.uniform(-3.0, 3.0, 90)
        z = r * np.exp(1j * rng.uniform(0.0, math.pi, 90))
        on_ray = np.array([0.5, 1.0, 2.0, 7.0, 40.0, 900.0]) * cmath.exp(1j * math.pi * alpha)
        sweep = np.geomspace(1e-3, 50.0, 24) * cmath.exp(0.5j * math.pi * alpha)
        # just off the ray, past the series' radius: pole vertices |z|^(1/alpha) v from v on,
        # which reach the windows of the smallest vertices
        near_ray = np.concatenate([np.geomspace(1.0, 50.0, 12) * cmath.exp(
            1j * (math.pi * alpha - 2.0 * alpha * math.asin(math.sqrt(v)))) for v in (1e-14, 1e-9, 1e-5)])
        # 1 + alpha/2 and 1 + alpha, the domain's edge: the ray's poles lie on the cut
        for sigmas in ((alpha,), (1.0,), (alpha, 1.0), (1.0 + 0.5 * alpha,), (alpha, 1.0 + alpha)):
            every = np.concatenate(([0.0], on_ray, z, sweep, near_ray, [0.0]))
            routes += _assert_routes_follow_the_rules(alpha, sigmas, every)
            routes += _assert_routes_follow_the_rules(alpha, sigmas, on_ray[2:])
    assert {kind for (kind, _), _ in routes} == {"series", "exp", "ray", "contour"}
    # the series past |z| = 1 > radius, up to its reach, as well as within the radius
    assert {r > 1.0 for (kind, _), r in routes if kind == "series"} == {False, True}
    assert {reach for (kind, reach), _ in routes if kind == "ray"} == {0, 1, 2}
    assert {parabola for (kind, parabola), _ in routes if kind == "contour"} == set(_WINDOWS)
    # a numpy alpha reaches every interval of the ray, as a float does
    z = cmath.rect(2.0, -0.5 * math.pi)
    assert ml_eval(MLParams(np.float64(0.5), 1.0), z) == ml_eval(MLParams(0.5, 1.0), z)


def _independence_pool(alpha, rng):
    """501 z of every route: contour windows with and without residue, the
    ray, z = 0, both half-planes; E inside double range."""
    ray = math.pi * alpha
    r = 10.0 ** rng.uniform(-3.0, math.log10(min(8.0, 24.0**alpha)), 440)
    z = r * np.exp(1j * rng.uniform(-math.pi, math.pi, 440))
    on_ray = rng.uniform(0.5, 15.0, 40) * np.exp(1j * ray * rng.choice([-1.0, 1.0], 40))
    off_sheet = rng.uniform(8.0, 200.0, 20) * np.exp(1j * rng.uniform(min(ray + 0.1, 3.0), math.pi, 20))
    return np.concatenate((z, on_ray, off_sheet, [0.0]))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
def test_values_do_not_depend_on_position_or_companions(alpha):
    # the E at a z is the same bit for bit whatever its position and the
    # other z of the call: shuffled and re-sliced calls of every length,
    # one z included, against one call over the pool
    rng = np.random.default_rng(int(31 * alpha))
    pool = _independence_pool(alpha, rng)
    want = np.array(ml_pair(alpha, pool))
    for size in (1, 2, 7, 33, 501):
        order = rng.permutation(pool.size)
        for start in range(0, pool.size - size + 1, max(size, 61)):
            ids = order[start : start + size]
            got = np.array(ml_pair(alpha, pool[ids]))
            assert np.array_equal(got, want[:, ids]), (size, start)
    # the odd ends of a strided view
    ids = np.arange(3, pool.size, 5)
    assert np.array_equal(np.array(ml_pair(alpha, pool[3::5])), want[:, ids])
    # and no z at all
    assert np.array(ml_pair(alpha, pool[:0])).shape == (2, 0)
    # a mixed-argument array: sweeps along the four exact directions (-i)^beta
    # and along two other arguments (scaling by powers of two keeps arctan2
    # exact), shuffled into the pool.  Each sweep equals a call over that
    # sweep alone, and along the exact directions the array entry's sweep
    from tfedge.mittag_leffler import _ml_values, _order_constants

    moduli = np.array([0.0, 0.5, 1.0, 2.0, 3.5, 5.0])
    sweeps = [moduli * neg_i_power(beta) for beta in (0.0, 1.0, 2.0, 3.0)]
    sweeps += [2.0 ** np.arange(-2.0, 4.0) * cmath.rect(1.0, angle) for angle in (0.3, -2.0)]
    mixed = np.concatenate([pool] + sweeps)
    shuffle = rng.permutation(mixed.size)
    got = np.empty((2, mixed.size), dtype=complex)
    got[:, shuffle] = ml_pair(alpha, mixed[shuffle])
    for k, sweep in enumerate(sweeps):
        ids = pool.size + np.arange(k * moduli.size, (k + 1) * moduli.size)
        assert np.array_equal(np.array(ml_pair(alpha, sweep)), got[:, ids]), k
        if k < 4:
            assert np.array_equal(_ml_values(alpha, (alpha, 1.0), (1.0,), moduli, float(k))[:, 0], got[:, ids]), k
    assert np.array_equal(got[:, : pool.size], want)
    # an on-sheet sweep at arg z = pi alpha / 2 through the series' radius,
    # its reach past it and the contour beyond: the series sums as many
    # terms for a z within the radius as for one past it, so each z equals
    # its lone call
    radius = _order_constants(alpha, (-1.0,)).radius
    reach = _series_reach(alpha, 0.5 * math.pi * alpha, False)
    moduli = np.array([0.3, 0.99, 1.0, 1.01, 0.5 * (1.0 + reach / radius), 0.99 * reach / radius, 1.5 * reach / radius])
    sweep = radius * moduli * cmath.exp(0.5j * math.pi * alpha)
    lone = [[ml_eval(MLParams(alpha, sigma), zi) for zi in sweep] for sigma in (alpha, 1.0)]
    assert np.array_equal(np.array(ml_pair(alpha, sweep)), lone)
    assert np.array_equal(np.array(ml_pair(alpha, sweep[::-1])), np.array(lone)[:, ::-1])


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_entry_routes_from_its_extremes_as_per_z(alpha, monkeypatch):
    # the entry routes a sweep from the extremes of t^alpha, t, lambda and
    # lambda^(1/alpha), with no reduction: a many-time sweep over three
    # lambdas whose moduli straddle the series' reach and pole-window edges
    # (beta = alpha, 1.9 alpha), the ray's reach 0/1 boundary (beta = 2
    # alpha) and the radius off the sheet (beta = 2.5 alpha) gives each (t,
    # lambda) the bits of the one-time, one-lambda sweep at it
    from tfedge import mittag_leffler as ml

    times, lam = np.geomspace(1e-3, 100.0, 41), np.array([1.0, 1.37, 2.9])
    taylor, ray, contour = ml._taylor, ml._ray, ml._contour
    for beta in (alpha, 1.9 * alpha, 2.0 * alpha, 2.5 * alpha):
        routes = set()
        with monkeypatch.context() as patch:
            patch.setattr(ml, "_taylor", lambda w, c: routes.add("series") or taylor(w, c))
            patch.setattr(ml, "_ray", lambda *args: routes.add(("ray", args[4])) or ray(*args))
            patch.setattr(ml, "_contour", lambda *args: routes.add((args[4], args[8])) or contour(*args))
            got = ml._ml_values(alpha, (alpha, 1.0), times, lam, beta)
        if beta < 2.0 * alpha:
            assert "series" in routes and len(routes) >= 3, (alpha, beta, routes)
        elif beta == 2.0 * alpha:
            assert {("ray", 0), ("ray", 1)} <= routes, (alpha, routes)
        else:
            assert {"series", (ml._WINDOWS[0][0], (0,))} <= routes, (alpha, routes)
        for i, t in enumerate(times.tolist()):
            for j, lam_j in enumerate(lam.tolist()):
                lone = ml._ml_values(alpha, (alpha, 1.0), [t], [lam_j], beta)
                assert np.array_equal(lone[:, 0, 0], got[:, i, j]), (alpha, beta, t, lam_j)


def test_values_do_not_depend_on_their_cauchy_block():
    # one parabola (no pole on the sheet) serves 400 z at |z| >= 1, more
    # than two blocks of _contour: rolled through every position, each z
    # sits at the first and the last offset of each block, and its E is the
    # same bit for bit
    from tfedge.mittag_leffler import _CAUCHY_CELLS, _ml_values

    alpha, sigmas, beta = 0.5, (0.5, 1.0), 1.6
    m = np.geomspace(1.0, 50.0, 400)
    z = m * neg_i_power(beta).conjugate()
    [((kind, ((_, _, n), _)), _, _)] = _routes(alpha, sigmas, z, m, 0.8 * math.pi, neg_i_power(-beta / alpha))
    assert kind == "contour" and m.size > 2 * (_CAUCHY_CELLS // (2 * n + 1))
    want = _ml_values(alpha, sigmas, (1.0,), m, beta)[:, 0]
    for shift in range(m.size):
        assert np.array_equal(_ml_values(alpha, sigmas, (1.0,), np.roll(m, shift), beta)[:, 0], np.roll(want, shift, axis=1))


def _dot_bound(terms):
    """N 2^-53 Sum_j |t_j|, the bound on a length-N dot product's rounding."""
    return len(terms) * 2.0**-53 * sum(abs(t) for t in terms)


def test_contour_sums_within_the_dot_product_bound():
    # _contour's sum Sum_j w_j / (s_j^alpha - z) against the mpmath sum of
    # the same terms on the same nodes and weights: the summation alone,
    # apart from the trapezoidal rule's error, within the dot product's
    # bound.  At |z| >= 1 the sigma = alpha row sums the weights of sigma =
    # 0 and is divided by z, a few roundings more.  Each z is routed alone;
    # those whose residue leaves double range are refused, and those on the
    # ray (alpha = 1/2, beta = 1, |z| >= 1) take no contour.  Below |z| = 1
    # the contour serves only radius < |z| (the Taylor series below it):
    # |z| = 0.95 at alpha = 0.3 (radius 0.877), not 0.5; and past it the
    # series takes the 8 z of the sheet within its reach M(arg z) (|z| =
    # 1.28 at alpha = 1/2 and 0.8, 3.26 at alpha = 0.8)
    import mpmath

    from tfedge.mittag_leffler import _contour, _nodes, _order_constants

    checked = 0
    with mpmath.workdps(40):
        for alpha in (0.3, 0.5, 0.8):
            sigmas = (alpha, 1.0)
            for beta in (0.25, 0.5, 0.75, 1.0):
                for m in [0.95, *np.geomspace(0.5, 900.0, 9)[1:]]:
                    z = np.array([m * neg_i_power(beta).conjugate()])
                    try:
                        [((kind, detail), _, _)] = _routes(
                            alpha, sigmas, z, np.array([m]), 0.5 * math.pi * beta, neg_i_power(-beta / alpha)
                        )
                    except OverflowGuard:
                        continue
                    if kind != "contour":
                        continue
                    shifted = _order_constants(alpha, sigmas).shifted if m >= 1.0 else ()
                    assert shifted in ((), (0,))
                    out = np.empty((2, 1), dtype=complex)
                    _contour(alpha, sigmas, z, slice(None), detail[0], None, None, out, shifted)
                    s_alpha, weights = _nodes(alpha, sigmas, detail[0], shifted)
                    for k in range(2):
                        terms = [-mpmath.mpc(w).conjugate() / (mpmath.mpc(s) - complex(z[0])) for w, s in zip(weights[k], s_alpha)]
                        want, bound = mpmath.fsum(terms), _dot_bound(terms)
                        if k in shifted:
                            want, bound = want / complex(z[0]), (bound + 4.0 * 2.0**-53 * abs(want)) / m
                        assert abs(out[k, 0] - complex(want)) <= bound, (alpha, beta, m, k)
                    checked += 1
    assert checked == 71


@pytest.mark.parametrize("alpha", [0.01, 0.03])
def test_unshifted_rows_where_the_series_has_radius_zero(alpha):
    # at alpha <= 0.03 the Taylor series has radius 0, and the contour
    # serves every |z| < 1: there the route group takes the unshifted rows
    # E_{alpha,sigma} (asserted by _routes), as the shifted rows
    # E_{alpha,sigma-alpha}(z) / z lose to the division what they gain in
    # the contour's tolerance (5.0e-5 off at alpha = 0.01, 1.6e-5 at 0.03)
    from tfedge.mittag_leffler import _order_constants

    sigmas = (alpha, 1.0)
    assert _order_constants(alpha, sigmas).radius == 0.0
    for r in (1e-8, 1e-4, 1e-2, 0.3):
        for theta in (0.0, 2.0, math.pi):
            z = np.array([cmath.rect(r, theta)])
            m = np.hypot(z.real, z.imag)
            [((kind, _), _, _)] = _routes(alpha, sigmas, z, m, theta, cmath.rect(1.0, theta / alpha))
            assert kind == "contour", (r, theta)
            for sigma in sigmas:
                want = ml_reference(alpha, sigma, z[0], 30)
                assert rel_err(ml_eval(MLParams(alpha, sigma), z[0]), want) <= 1e-12, (sigma, r, theta)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_ray_row_sums_within_the_dot_product_bound(alpha, monkeypatch):
    # each of _ray's sums of a memoised row against a z's factor, at every
    # reach, against math.fsum of the same products, within the dot
    # product's bound
    from tfedge.mittag_leffler import _ml_values

    calls = []
    vecdot = np.vecdot

    def recorded(a, b):
        calls.append((a, b, vecdot(a, b)))
        return calls[-1][2]

    monkeypatch.setattr(np, "vecdot", recorded)
    # z = m e^(i pi alpha), through the intervals of every reach
    _ml_values(alpha, (alpha, 1.0), (1.0,), np.geomspace(1.0, 900.0, 30), -2.0 * alpha)
    # one abscissa count per reach
    assert len({a.shape[-1] for a, _, _ in calls}) == 3
    for a, b, sums in calls:
        a, b = np.broadcast_arrays(a, b)
        for at in np.ndindex(sums.shape):
            products = (a[at] * b[at]).tolist()
            assert abs(sums[at] - math.fsum(products)) <= _dot_bound(products), (alpha, at)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.8, 1.0])
def test_array_entry_matches_lone_calls(alpha):
    # the array entry takes a sweep z = m (-i)^beta as moduli m and one
    # beta: below, on and beyond the ray's angle, with m = 0, m < 1 and m up
    # to 1e3, against ml_eval at each z.  Within 1e-12 plus the rounding of
    # z times E's condition number kappa, 1 + |s*| / alpha where the residue
    # does not decay (beta <= alpha), which the polar form rounds apart from
    # ml_eval's |z| and arg z; where ml_eval refuses a z with OverflowGuard,
    # the sweep refuses it among finite ones.  Past kappa eps = 1e-7 the
    # rounding of z alone decides E, and whether its residue overflows
    from tfedge.mittag_leffler import _ml_values

    eps = np.finfo(float).eps
    moduli = np.array([0.0, 0.25, 0.9, 1.0, 3.0, 12.0, 80.0, 1e3])
    for beta in sorted({0.5 * alpha, alpha, 1.0} | ({2.0 * alpha} if 2.0 * alpha <= 1.0 else set())):
        u = neg_i_power(beta)
        kappa = 1.0 + moduli ** (1.0 / alpha) / alpha if beta <= alpha else np.ones(moduli.size)
        kept, want = [], []
        for r in moduli[kappa * eps <= 1e-7]:
            try:
                want.append([ml_eval(MLParams(alpha, sigma), r * u) for sigma in (alpha, 1.0)])
                kept.append(r)
            except OverflowGuard:
                with pytest.raises(OverflowGuard):
                    _ml_values(alpha, (alpha, 1.0), (1.0,), [0.5, r], beta)
        assert kept[:4] == [0.0, 0.25, 0.9, 1.0], (alpha, beta)
        values = _ml_values(alpha, (alpha, 1.0), (1.0,), kept, beta)[:, 0]
        for r, got, lone in zip(kept, values.T, want):
            bound = 1e-12 + 8.0 * eps * kappa[moduli == r][0]
            for g, w in zip(got, lone):
                assert abs(g - w) <= bound * abs(w), (alpha, beta, r)


def test_plateau_sweep_keeps_its_modulus():
    # on beta = alpha the poles s* = -i rho of a sweep lie on the imaginary
    # axis, where |e^(s*)| = 1: the array entry takes their direction from
    # beta, exactly, so |E| holds 1e-13 against mpmath at the exact z = m
    # (-i)^alpha out to rho = 1e8 (with cos(pi / 2) = 6.1e-17 for its real
    # part it was 6.1e-13 off at rho = 1e4 and 6.1e-9 at 1e8)
    import mpmath

    from tfedge.mittag_leffler import _ml_values

    for alpha in (0.5, 0.8):
        for rho in (1e4, 1e6, 1e8):
            m = rho**alpha
            got = _ml_values(alpha, (alpha, 1.0), (1.0,), [m], alpha)[:, 0, 0]
            with mpmath.workdps(40):
                z = m * mpmath.expjpi(-mpmath.mpf(alpha) / 2)
                pole = mpmath.mpc(0.0, -1.0) * mpmath.mpf(m) ** (1 / mpmath.mpf(alpha))
                for g, sigma in zip(got, (alpha, 1.0)):
                    # the residue and the converged expansion
                    want = pole ** (1 - sigma) * mpmath.exp(pole) / alpha - mpmath.fsum(
                        z**-k * mpmath.rgamma(sigma - k * alpha) for k in range(1, 40)
                    )
                    assert abs(abs(g) - abs(want)) <= 1e-13 * abs(want), (alpha, rho, sigma)
    # rho = 80^10, where that real part was 650 and |E| about 1e303: the
    # residue's modulus (1 / alpha) rho^(1 - alpha) alone, as the rest is of size 1 / |z|
    got = _ml_values(0.1, (0.1, 1.0), (1.0,), [80.0], 0.1)[0, 0, 0]
    assert abs(abs(got) - 10.0 * 80.0**9) <= 1e-13 * 10.0 * 80.0**9


def test_plateau_sweep_keeps_its_phase(monkeypatch):
    # on beta = alpha the residue (1/alpha) s*^(1-sigma) e^(s*) of the pole
    # s* = -i rho turns by rho, and its phase (1 - sigma) arg s* is kept
    # apart from Im s* = rho, where adding it rounded it away (7.0e-9 at rho
    # = 1e8 at (1/2, 1/2), 8.0e-10 at (0.3, 0.3)).  The entry forms rho = t
    # lambda^(1/alpha) with one rounding, at lambda = 1.37, whose root
    # rounds: within 2 ulp of the exact product for t up to 1e8 (rho =
    # m^(1/alpha) of the rounded m = t^alpha lambda was up to 2.0 ulp off at
    # these points), and both sigmas of the sweeps at (1/2, 1/2) and (0.3,
    # 0.3) within 1e-13 of the 60-digit residue plus the converged
    # expansion, taken at the entry's own float rho
    import mpmath

    from tfedge import mittag_leffler as ml

    lam, times = 1.37, np.geomspace(1e2, 1e8, 7)
    sweep, passed = ml._sweep, []

    def recorded(alpha, sigmas, z, m, rho, *rest):
        passed.append(rho.copy())
        return sweep(alpha, sigmas, z, m, rho, *rest)

    monkeypatch.setattr(ml, "_sweep", recorded)
    for alpha in (0.5, 0.3):
        passed.clear()
        got = ml._ml_values(alpha, (alpha, 1.0), times, [lam], alpha)[:, :, 0]
        [rho] = passed
        with mpmath.workdps(60):
            root = mpmath.mpf(lam) ** (1 / mpmath.mpf(alpha))
            for t, r in zip(times.tolist(), rho.tolist()):
                assert abs(r - t * root) <= 2 * math.ulp(r), (alpha, t)
            for k, sigma in enumerate((alpha, 1.0)):
                for r, g in zip(rho.tolist(), got[k]):
                    pole = mpmath.mpc(0.0, -r)
                    z = pole ** mpmath.mpf(alpha)
                    want = pole ** (1 - mpmath.mpf(sigma)) * mpmath.exp(pole) / alpha - mpmath.fsum(
                        z**-j * mpmath.rgamma(sigma - j * mpmath.mpf(alpha)) for j in range(1, 60)
                    )
                    assert rel_err(g, complex(want)) <= 1e-13, (alpha, sigma, r)


def _assert_expansion(got, alpha, sigma, z):
    """got is -Sum_k z^-k / Gamma(sigma - k alpha) to 1e-12, or exactly 0
    where that underflows."""
    want = _expansion(alpha, sigma, z)
    assert got == want if want == 0 else rel_err(got, want) <= 1e-12, (alpha, sigma, z, got, want)


def test_array_entry_guards():
    # the array entry refuses, as ml_eval does, where E is not finite:
    # exp(z) at alpha = sigma = 1, |z|^(1/alpha) past double range on the
    # sheet, and a residue past double range
    from tfedge.mittag_leffler import _ml_values

    for alpha, sigmas, m, beta in (
        (1.0, (1.0,), [1.0, 710.0], 0.0),
        (1.0, (1.0,), [1.0, 750.0], 0.2),  # Re z = 713
        (0.05, (0.05, 1.0), [1.0, 1e20], 0.0),
        (0.5, (0.5, 1.0), [1.0, 30.0], 0.0),
        (0.8, (0.8, 1.0), [1.0, 2e3], 0.4),
    ):
        with pytest.raises(OverflowGuard):
            ml_eval(MLParams(alpha, sigmas[-1]), m[-1] * neg_i_power(beta))
        with pytest.raises(OverflowGuard):
            _ml_values(alpha, sigmas, (1.0,), m, beta)
    # a numpy alpha is refused alike, with no RuntimeWarning
    with pytest.raises(OverflowGuard):
        _ml_values(np.float64(0.1), (0.1, 1.0), (1.0,), [1e40], 0.1)
    # inside double range: Re z = 704 for exp(z), and no pole off the sheet
    assert np.all(np.isfinite(_ml_values(1.0, (1.0,), (1.0,), [1.0, 740.0], 0.2)))
    assert np.all(np.isfinite(_ml_values(0.05, (0.05, 1.0), (1.0,), [1.0, 1e20], 2.0)))
    # on the ray |z|^(1/alpha) past double range leaves E algebraic: the
    # half residue e^(-|z|^(1/alpha)) is 0
    values = _ml_values(0.5, (0.5, 1.0), (1.0,), [2.0, 1e200], 1.0)[:, 0]
    for k, sigma in enumerate((0.5, 1.0)):
        _assert_expansion(values[k, 1], 0.5, sigma, -1e200j)
    # and so on the decay side of the sheet: the residue e^(s*), Re s* =
    # -inf, is 0 where its exponent is inf - inf (it was refused), in a
    # sweep, at the domain's edge sigma = 1 + alpha, and alone
    values = _ml_values(0.8, (0.8, 1.0, 1.8), (1.0,), [2.0, 1e247, 1e300], 1.0)[:, 0]
    for k, sigma in enumerate((0.8, 1.0, 1.8)):
        for j, m in ((1, 1e247), (2, 1e300)):
            _assert_expansion(values[k, j], 0.8, sigma, -1j * m)
    _assert_expansion(ml_eval(MLParams(0.8, 1.0), 1e247j), 0.8, 1.0, 1e247j)


def test_array_calls_raise_overflow_guard():
    # a residue past double range inside a multi-z array, and |z|^(1/alpha)
    # past double range on the contour: OverflowGuard, not a RuntimeWarning
    for alpha, z in (
        (0.5, [1.0, 30.0]),
        (0.5, [1.0, 1e200]),
        (0.05, [1.0, 2.0, 1e20]),
    ):
        with pytest.raises(OverflowGuard):
            ml_pair(alpha, z)
    # on the ray the same |z| is answered, in either half-plane
    for z in ([1.0, 1e200j], [1.0, -1e200j, 2.0]):
        for sigma, values in zip((0.5, 1.0), ml_pair(0.5, z)):
            _assert_expansion(values[1], 0.5, sigma, z[1])
    # past double range off the principal sheet there is no pole to overflow
    values = ml_pair(0.05, [1.0, -1e20])
    assert np.all(np.isfinite(values))


def test_half_order_diagonal_within_its_conditioning():
    # z = exp(-i pi/4) t^(1/2) lam, the alpha = 1/2 current's argument at
    # beta = 1/2, for t up to 1e4, against the Faddeeva forms.  E's
    # condition number at these z is kappa = |z E'/E| ~ 2 |z|^2: the
    # rounding of z alone moves E by kappa eps
    eps = np.finfo(float).eps
    lam = np.linspace(1.0, 3.0, 17)
    worst = 0.0
    for t in np.geomspace(1e-2, 1e4, 25):
        z = cmath.exp(-0.25j * math.pi) * math.sqrt(t) * lam
        e_half, e_one = ml_pair(0.5, z)
        for zi, got_half, got_one in zip(z, e_half, e_one):
            bound = 1e-12 + 4.0 * 2.0 * abs(zi) ** 2 * eps
            for got, sigma in ((got_half, 0.5), (got_one, 1.0)):
                ratio = rel_err(got, ml_half(sigma, zi)) / bound
                worst = max(worst, ratio)
                assert ratio <= 1.0, (t, zi, sigma)
    print(f"worst error / bound = {worst:.3g}")


@pytest.mark.parametrize("alpha", [0.2, 0.3, 0.5, 0.8, 0.95])
def test_small_z_matches_the_series(alpha):
    # below the clip the parabola serves a whole octave of pole vertices;
    # against the mpmath series at |z| up to 8 (and |s*| = |z|^(1/alpha) up
    # to 24, which covers every vertex below the clip), every arg z
    rng = np.random.default_rng(int(100 * alpha))
    r = 10.0 ** rng.uniform(-3.0, math.log10(min(8.0, 24.0**alpha)), 16)
    z = r * np.exp(1j * rng.uniform(-math.pi, math.pi, 16))
    e_aa, e_a1 = ml_pair(alpha, z)
    for sigma, values in ((alpha, e_aa), (1.0, e_a1)):
        for zi, value in zip(z, values):
            got = ml_eval(MLParams(alpha, sigma), zi)
            want = ml_reference(alpha, sigma, zi, 30 + int(abs(zi) ** (1.0 / alpha) / 2.3))
            assert rel_err(got, want) <= 1e-12, (sigma, zi)
            assert abs(value - got) <= 1e-13 * abs(got), (sigma, zi)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.8, 1.0])
def test_domain_edge_matches_the_series(alpha):
    # sigma = 1 + alpha, the largest sigma MLParams takes, where the
    # integrand s^(alpha-sigma) / (s^alpha - z) is still of strength zero at
    # s = 0: against the mpmath series at 7 moduli from 0.05 to |z|^(1/alpha)
    # = 100 (at most 30) and 7 arguments in [0, pi], within 1e-12 (2.8e-14
    # measured); each value equals its row of an array call bit for bit
    from tfedge.mittag_leffler import _ml_at

    sigma = 1.0 + alpha
    z = np.array([cmath.rect(m, theta) for m in np.geomspace(0.05, min(30.0, 100.0**alpha), 7)
                  for theta in np.linspace(0.0, math.pi, 7)])
    values = _ml_at(alpha, (alpha, sigma), z)[1]
    for zi, value in zip(z, values):
        got = ml_eval(MLParams(alpha, sigma), zi)
        assert got == value, zi
        assert rel_err(got, ml_reference(alpha, sigma, zi, 30 + int(abs(zi) ** (1.0 / alpha) / 2.3))) <= 1e-12, zi


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.8])
def test_taylor_series_within_its_radius(alpha):
    # at |z| <= radius < 1 the sweep sums the float64 Taylor series, to
    # 2^-60 of its largest term in at most 64 terms: ml_eval at |z| in
    # {1e-3, 0.1, 0.9 radius}, and the series alone at 1.1 radius (the
    # margin past its radius), within 1e-13 of the mpmath series, sigma in
    # {alpha, 1, 0, -1, 1 + alpha}.  At sigma <= 0, 1/Gamma(sigma) = 0
    # leaves E ~ z / Gamma(sigma + alpha) small against the contour's absolute 1e-14,
    # which missed by up to 1.2e-10 at |z| = 1e-3.  The radius and the
    # number of terms are those of sigma = -1, the same for each of these
    # sigmas and for the pair (alpha, 1), so a z takes one route whatever
    # the other sigmas of its call
    from tfedge.mittag_leffler import _order_constants, _taylor

    least = _order_constants(alpha, (-1.0,))
    radius, taylor = least.radius, least.taylor
    assert 0.5 < radius < 1.0 and taylor.shape[1] <= 64
    for sigmas in ((alpha,), (1.0,), (0.0,), (alpha, 1.0), (1.0 + alpha,)):
        constants = _order_constants(alpha, sigmas)
        assert constants.radius == radius and constants.taylor.shape == (len(sigmas), taylor.shape[1]), sigmas
    for sigma in (alpha, 1.0, 0.0, -1.0, 1.0 + alpha):
        series = _order_constants(alpha, (sigma,)).taylor
        for m in (1e-3, 0.1, 0.9 * radius, 1.1 * radius):
            for theta in np.linspace(0.0, math.pi, 7):
                z = cmath.rect(m, theta)
                got = ml_eval(MLParams(alpha, sigma), z) if m < radius else _taylor(np.array([z]), series)[0, 0]
                assert rel_err(got, ml_reference(alpha, sigma, z, 40)) <= 1e-13, (sigma, m, theta)


@pytest.mark.parametrize("alpha", [0.45, 0.5, 0.65, 0.8, 0.95, 1.0])
def test_taylor_series_within_its_reach(alpha):
    # off the ray on the principal sheet (arg z < pi alpha) the sweep sums
    # the series past the radius while |z| <= M(arg z) = min(R, (ln 16 / (1 -
    # cos(arg z / alpha)))^alpha), R the largest |z| at which 64 terms of
    # sigma = -1 fall to 2^-60 of the largest: there the terms sum to at
    # most 16 |E|.  At 1.01 radius, midway and 0.99 M(arg z), six arguments
    # in [0, pi alpha), sigma in {alpha, 1, 0, -1, 1 + alpha}: that route, with the
    # fewest columns of the one coefficient matrix whose limit reaches
    # M(arg z), and ml_eval within 1e-13 of the mpmath series, and
    # _ml_values and ml_pair equal to it bit for bit (the contour missed
    # sigma = -1 by 2e-12 at alpha = 1)
    from tfedge import mittag_leffler as ml

    radius, big = ml._order_constants(alpha, (-1.0,)).radius, _uncapped_radius(alpha)
    assert 1.0 < big < 16.0
    taylor = ml._taylor
    for theta in np.linspace(0.0, math.pi * alpha, 6, endpoint=False):
        reach = _series_reach(alpha, theta, False)
        m = np.array([1.01 * radius, 0.5 * (radius + reach), 0.99 * reach])
        beta = -2.0 * theta / math.pi
        z = m * neg_i_power(beta)
        for sigmas in ((alpha,), (1.0,), (0.0,), (-1.0,), (alpha, 1.0), (1.0 + alpha,)):
            if not ml._order_constants(alpha, sigmas).exp:
                routes = _routes(alpha, sigmas, z, m, theta, cmath.rect(1.0, theta / alpha))
                assert [route for route, _, _ in routes] == [("series", None)], (sigmas, theta)
                columns = []
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(ml, "_taylor", lambda w, c: columns.append(c.shape[1]) or taylor(w, c))
                    _sweep_at(alpha, sigmas, z, m, theta, cmath.rect(1.0, theta / alpha))
                limits = ml._order_constants(alpha, sigmas).limits
                [n] = columns
                assert n <= 64 and limits[n - 1] >= reach > limits[n - 2], (sigmas, theta)
        for sigma in (alpha, 1.0, 0.0, -1.0, 1.0 + alpha):
            got = [ml_eval(MLParams(alpha, sigma), zi) for zi in z]
            for zi, value in zip(z, got):
                assert rel_err(value, ml_reference(alpha, sigma, zi, 40)) <= 1e-13, (sigma, theta, zi)
            assert np.array_equal(ml._ml_values(alpha, (sigma,), (1.0,), m, beta)[0, 0], got), (sigma, theta)
        assert np.array_equal(np.array(ml_pair(alpha, z)), [[ml_eval(MLParams(alpha, s), zi) for zi in z] for s in (alpha, 1.0)])


def test_library_sweeps_from_t_20_stay_past_the_series_reach(table):
    # the transport sweeps at (1/2, beta in {1/4, 1/2, 3/4}) and the
    # spreading ones at (0.8, beta in {0.8, 1}) from t = 20 on: |z| = t^alpha
    # lambda with lambda >= 1 on the window lies past the series' reach M(arg
    # z) <= R (1.79 and 6.11), so the series takes no z past the radius
    # (1 - 2^-53 at both orders)
    from tfedge import FractionalOrder, current_trace
    from tfedge import mittag_leffler as ml
    from tfedge.msd import msd_trace

    sweep, taylor = ml._sweep, ml._taylor
    sweeps, series = set(), []

    def on_sweep(alpha, sigmas, *rest):
        sweeps.add((alpha, sigmas))
        return sweep(alpha, sigmas, *rest)

    def on_taylor(w, coefficients):
        series.extend(np.abs(w).tolist())
        return taylor(w, coefficients)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ml, "_sweep", on_sweep)
        patch.setattr(ml, "_taylor", on_taylor)
        for beta, times in ((0.25, (20.0, 40.0, 80.0)), (0.5, (20.0, 1e2, 1e4)), (0.75, (20.0, 1e2, 1e4))):
            current_trace(FractionalOrder(0.5, beta), table, times)
        for beta in (0.8, 1.0):
            current_trace(FractionalOrder(0.8, beta), table, (20.0, 1e3, 1e5))
            msd_trace(FractionalOrder(0.8, beta), table, (20.0, 1e3, 1e5))
    assert {alpha for alpha, _ in sweeps} == {0.5, 0.8}
    assert all(ml._order_constants(alpha, sigmas).radius == 1.0 - 2.0**-53 for alpha, sigmas in sweeps)
    assert max(series, default=0.0) < 1.0


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
    # sigma <= 1 + alpha is the domain: its edge is taken, the next double is not
    for alpha in (0.1, 0.5, 1.0):
        assert MLParams(alpha, 1.0 + alpha).sigma == 1.0 + alpha
        with pytest.raises(DomainError, match="at most 1 \\+ alpha"):
            MLParams(alpha, math.nextafter(1.0 + alpha, math.inf))
    with pytest.raises(DomainError):
        ml_deriv(1.5, 1.0)
    with pytest.raises(DomainError):
        ml_pair(1.5, [1.0])


def test_non_finite_z_is_refused():
    # a z with a NaN or infinite component is a domain error, not a value
    # past double range, in each entry point
    for z in (complex(math.nan, 0.0), complex(1.0, math.inf), complex(-math.inf, math.nan)):
        with pytest.raises(DomainError, match=re.escape(f"E_{{0.5,1.0}} needs a finite z, got {z!r}")):
            ml_eval(MLParams(0.5, 1.0), z)
        with pytest.raises(DomainError):
            ml_deriv(0.5, z)
        with pytest.raises(DomainError, match=re.escape(f"got {z!r}")):
            ml_pair(0.5, [1.0, z, 2.0j])


def test_overflow_guard_on_dominant_exponential():
    # exp(z^2) at z = 400 is far past double range; must refuse, not inf
    with pytest.raises(OverflowGuard):
        ml_eval(MLParams(0.5, 1.0), 400.0)
    # the array entry point refuses the same element among finite ones
    with pytest.raises(OverflowGuard):
        ml_pair(0.5, [1.0, -2.0j, 400.0])
    with pytest.raises(OverflowGuard):
        ml_pair(1.0, [1.0, 710.0])
    # the refusal names the z asked for, below the real axis too
    with pytest.raises(OverflowGuard, match=re.escape("E_{0.5,1.0}((30-5j)) exceeds double range")):
        ml_eval(MLParams(0.5, 1.0), 30 - 5j)
    # E_{1/2,1/2} is finite, its quotient by alpha is not
    with pytest.raises(OverflowGuard):
        ml_deriv(0.5, math.sqrt(705.3))


def test_values_up_to_the_edge_of_double_range():
    # exp(707) and e^(z^2) erfc(-z) at z^2 = 705.56, both below the largest
    # double (e^709.78), are answered: the residue exponent z^2 - log(1/2)
    # = 706.26 is rounded, so E is within 1e-13
    import mpmath

    assert ml_eval(MLParams(1.0, 1.0), 707.0) == cmath.exp(707.0)
    z = 26.5625
    with mpmath.workdps(30):
        want = complex(mpmath.exp(mpmath.mpf(z) ** 2) * mpmath.erfc(-mpmath.mpf(z)))
    assert rel_err(ml_eval(MLParams(0.5, 1.0), z), want) <= 1e-13


def test_accuracy_holds_where_e_is_algebraically_small():
    # at sigma = alpha the z^-1 term vanishes and E ~ z^-2 is small against
    # the contour integrand; a contour run at 1e-12 itself misses by 10-300x
    params = MLParams(0.8, 0.8)
    for r, angle in ((6.7, 0.858), (13.4, 0.942), (25.9, 1.12), (19.1, 1.22)):
        z = cmath.rect(r, angle * 0.8 * math.pi)
        want = ml_gll_reference(0.8, 0.8, z)
        assert rel_err(ml_eval(params, z), want) <= 1e-12, (r, angle)


def _expansion(alpha, sigma, z):
    """-Sum_{k<40} z^-k / Gamma(sigma - k alpha) at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        zm = mpmath.mpc(z)
        return complex(-mpmath.fsum(zm**-k * mpmath.rgamma(sigma - k * alpha) for k in range(1, 40)))


def test_algebraically_small_e_holds_far_out():
    # on the decay side at |z| = 1e3 .. 1e8, where E_{alpha,alpha} ~ z^-2 is
    # small against the contour integrand: ml_eval and ml_pair within 1e-12
    # of the converged expansion (the residue there is below e^-117 of E)
    radii = 10.0 ** np.arange(3.0, 9.0)
    for alpha in (0.3, 0.5, 0.8, 0.95):
        z = np.concatenate([radii * cmath.exp(1j * math.pi * angle) for angle in (-0.5, -0.9, -1.0)])
        pair = ml_pair(alpha, z)
        for k, sigma in enumerate((alpha, 1.0)):
            for zi, got in zip(z, pair[k]):
                want = _expansion(alpha, sigma, zi)
                assert rel_err(got, want) <= 1e-12, (alpha, sigma, zi)
                assert rel_err(ml_eval(MLParams(alpha, sigma), zi), want) <= 1e-12, (alpha, sigma, zi)


def test_values_either_side_of_the_unit_circle():
    # E_{alpha,alpha} is E_{alpha,0}(z) / z at |z| >= 1 only: z at
    # |z| = 1 - 1e-9, 1 and 1 + 1e-9, in one array call and alone, against
    # the series, on contours with and without a residue
    radii = np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])
    for alpha in (0.3, 0.5, 0.8):
        for angle in (0.0, 0.4, 0.95):
            if abs(angle - alpha) < 0.05:
                continue
            z = radii * cmath.exp(1j * math.pi * angle)
            pair = ml_pair(alpha, z)
            for k, sigma in enumerate((alpha, 1.0)):
                for zi, got in zip(z, pair[k]):
                    want = ml_reference(alpha, sigma, zi, 30)
                    assert rel_err(got, want) <= 1e-12, (alpha, sigma, zi)
                    assert rel_err(ml_eval(MLParams(alpha, sigma), zi), want) <= 1e-12, (alpha, sigma, zi)


def test_import_does_not_load_mpmath():
    # mpmath and scipy are test-only dependencies: the evaluator is float64
    # throughout and 1/Gamma comes from math.gamma; the fiber solver is one
    # numpy SVD, and scipy.linalg alone would add ~0.3 s to the import.
    # numpy.polynomial (the ray's Gauss-Legendre rule) loads with the first
    # ray call, and nothing logs
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; import tfedge; "
        "print('mpmath' in sys.modules, any(m.split('.')[0] == 'scipy' for m in sys.modules), "
        "'numpy.polynomial' in sys.modules, 'logging' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.stdout.strip() == "False False False False"

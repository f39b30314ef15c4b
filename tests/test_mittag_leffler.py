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
    DomainError,
    MLParams,
    NonConvergence,
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
    from tfedge.mittag_leffler import _RAY, _ml_at, _ml_values, _ray_intervals, _sweep_routes

    radii = np.array(_RAY_RADII[alpha])
    d, r_cut = _ray_intervals(alpha, radii)
    assert list((radii - d < r_cut).astype(int) + (radii + d < r_cut)) == [2, 1, 0]
    # the sweep z = |z| (-i)^(-2 alpha) of the array entry, and the same z
    # given as complex numbers, split by argument
    u = neg_i_power(-2.0 * alpha)
    routes = _sweep_routes(alpha, (alpha, 1.0), radii * u, radii, math.atan2(u.imag, u.real))
    assert sorted(route for route, _, _ in routes) == [(_RAY, 0), (_RAY, 1), (_RAY, 2)]
    z = radii * cmath.exp(1j * math.pi * alpha)
    z = np.concatenate((z, z.conj()))
    sweeps = np.concatenate([_ml_values(alpha, (alpha, 1.0), radii, beta) for beta in (-2.0 * alpha, 2.0 * alpha)], axis=1)
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
    from tfedge.mittag_leffler import _RAY, _ml_at, _ml_values, _ray_intervals, _sweep_routes

    d, r_cut = _ray_intervals(alpha, 1.0)
    edge = r_cut / (1.0 + d)
    radii = np.array([1.0, 0.5 * (1.0 + edge), edge * (1.0 - 1e-6)])
    u = neg_i_power(-2.0 * alpha)
    routes = _sweep_routes(alpha, (alpha, 1.0), radii * u, radii, math.atan2(u.imag, u.real))
    assert [route for route, _, _ in routes] == [(_RAY, 2)]
    z = radii * cmath.exp(1j * math.pi * alpha)
    for values in (_ml_values(alpha, (alpha, 1.0), radii, -2.0 * alpha), _ml_at(alpha, (alpha, 1.0), z)):
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
    # the parabolas of the windows, their nodes, a sweep's z-free constants
    # and the powers of -i are kept across calls: sweeping more
    # orders than the memos hold cannot grow them past their bound, and the
    # arrays handed out are read-only
    from tfedge.mittag_leffler import _CLIP, _ml_values, _nodes, _parabola, _sweep_constants

    memos = (_parabola, _nodes, _sweep_constants, neg_i_power)
    sweep = 2 * max(memo.cache_info().maxsize for memo in memos)
    for alpha in np.linspace(0.05, 1.0, sweep):
        # a branch point of strength 1: each pole vertex has its own parabola;
        # z = |z| e^(0.6 i pi alpha)
        _ml_values(alpha, (alpha, 1.5 + alpha), [0.5, 3.0], -1.2 * alpha)
    for memo in memos:
        info = memo.cache_info()
        assert info.currsize <= info.maxsize < info.misses, memo
    s_alpha, weights = _nodes(0.5, (0.5, 1.0), _parabola(_CLIP, 0.0)[0])
    one_minus = _sweep_constants(0.5, (0.5, 1.0), 0.25 * math.pi)[-2]
    for a in (s_alpha, weights, one_minus):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_memos_change_no_bit():
    # a sweep whose memos are cleared first (cold) and the same sweep with
    # every memo filled (warm) give the same values bit for bit, or the same
    # refusal: on the contour with and without residues, off the sheet, on
    # the ray, and at z = 0
    from tfedge.mittag_leffler import _ml_values, _nodes, _parabola, _ray_rows, _sweep_constants

    def sweep(alpha, sigmas, moduli, beta):
        try:
            return _ml_values(alpha, sigmas, moduli, beta).tobytes()
        except OverflowGuard as refusal:
            return str(refusal)

    moduli = np.concatenate(([0.0], np.geomspace(0.05, 60.0, 23))).reshape(2, 12)
    for alpha in (0.3, 0.5, 0.8, 1.0):
        for beta in (0.25, 0.8, 1.0, 1.5, -2.0 * alpha):
            for sigmas in ((alpha, 1.0), (1.0,)):
                for memo in (_parabola, _nodes, _ray_rows, _sweep_constants, neg_i_power):
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
    # _region_below one parabola, and below it one per octave of vertices;
    # each z must still get the parabola its own vertex's window selects,
    # and beyond the clip exactly the one its own vertex selects
    from tfedge.mittag_leffler import _CLIP, _parabola, _region_below, _route, _vertex_key

    for phi in (0.5, 1.4, 4.0, 5.9, 6.1, 40.0, 1e4):
        # a pole on the imaginary axis has its vertex at |s*| / 2
        z = cmath.rect((2.0 * phi) ** alpha, 0.5 * math.pi * alpha)
        [((_, ((mu, h, n), residue)), _, _)] = _route(alpha, (alpha, 1.0), z)
        lo = _vertex_key(phi)
        assert lo <= phi and (lo == _CLIP or phi < 2.0 * lo), phi
        (mu_own, h_own, n_own), residue_own = _parabola(lo, 0.0)
        assert (n, residue) == (n_own, residue_own), phi
        assert mu == pytest.approx(mu_own, rel=1e-12) and h == pytest.approx(h_own, rel=1e-12)
        # the residue is taken exactly when the pole is right of the parabola
        assert residue == (phi > mu), phi
        if phi >= _CLIP:
            assert ((mu, h, n), residue) == (_region_below(phi, 0.0), True), phi


def test_pole_vertex_windows_share_valid_parabolas():
    # poles share parabolas by windows of their vertex phi: beyond the clip
    # of sqrt(phi) in _region_below one parabola, below it one per octave.
    # Each must leave the pole on the side its residue says, within _N_MAX
    from tfedge.mittag_leffler import (
        _CLIP, _CONTOUR, _N_MAX, _parabola, _region_below, _region_beyond, _route,
    )

    rng = np.random.default_rng(12)
    octaves = set()
    for alpha, r, theta in zip(
        rng.uniform(0.05, 1.0, 4000), 10.0 ** rng.uniform(-3.0, math.log10(50.0), 4000),
        rng.uniform(0.0, math.pi, 4000),
    ):
        z = cmath.rect(r, theta)
        try:
            [((route, parabola), _, exponents)] = _route(alpha, (alpha, 1.0), z)
        except OverflowGuard:
            continue
        if route != _CONTOUR:
            continue
        (mu, _, n), residue = parabola
        assert n <= _N_MAX, z
        assert residue == (exponents is not None)
        if theta > math.pi * alpha:
            assert not residue, (alpha, z)
            continue
        pole = cmath.rect(r ** (1.0 / alpha), theta / alpha)
        phi = 0.5 * (pole.real + abs(pole))
        if phi >= _CLIP:
            assert parabola == _parabola(_CLIP, 0.0), (alpha, z)
        elif phi > 1e-15:
            assert residue == (phi > mu), (alpha, z, phi, mu)
            # one parabola per octave [lo, 2 lo) of vertices, whatever alpha:
            # below lo, or beyond 2 lo
            lo = _CLIP / 2.0 ** (math.floor(math.log2(_CLIP / phi)) + 1)
            if residue:
                assert parabola[0] == _region_below(lo, 0.0), (alpha, z)
            else:
                assert parabola[0] == _region_beyond(2.0 * lo, 1.0), (alpha, z)
            octaves.add(lo)
    assert len(octaves) > 5


def _assert_routes_agree(alpha, sigmas, z):
    """The array router against _route at every z (Im z >= 0), the z split
    by argument into sweeps as array calls split them; returns the routes
    taken.  With a branch point of strength p0 > 0 each vertex has its own
    parabola, whose (mu, h) follow the vertex's rounding."""
    from tfedge.mittag_leffler import _CONTOUR, _RAY, _branch_strength, _by_argument, _route, _sweep_routes

    want = []
    for zi in z.tolist():
        try:
            [(route, _, data)] = _route(alpha, sigmas, zi)
            want.append((route, None if data is None else data[:, 0]))
        except (OverflowGuard, NonConvergence) as refusal:
            # the array router refuses the same z in a sweep with z = 0
            with pytest.raises(type(refusal)):
                _sweep_routes(
                    alpha, sigmas, np.array([0.0, zi]), np.array([0.0, abs(zi)]), math.atan2(zi.imag, zi.real)
                )
            want.append(None)
    kept = np.array([zi for zi, w in zip(z, want) if w is not None])
    want = [w for w in want if w is not None]
    got = [None] * kept.size
    for sweep, m, theta in _by_argument(kept):
        for route, ids, data in _sweep_routes(alpha, sigmas, kept[sweep], m, theta):
            for j, i in enumerate(sweep[ids]):
                got[i] = (route, None if data is None else data[:, j])
    eps = np.finfo(float).eps
    per_vertex = _branch_strength(alpha, sigmas) > 0.0
    for zi, (route, datum), (want_route, want_datum) in zip(kept, got, want):
        if per_vertex and route[0] == _CONTOUR == want_route[0]:
            ((mu, h, n), residue), ((want_mu, want_h, want_n), want_residue) = route[1], want_route[1]
            assert (n, residue) == (want_n, want_residue), (alpha, sigmas, zi)
            assert (mu, h) == pytest.approx((want_mu, want_h), rel=1e-12), (alpha, sigmas, zi)
        else:
            assert route == want_route, (alpha, sigmas, zi)
        if want_datum is None:
            assert datum is None, (alpha, sigmas, zi)
            continue
        # |z| to its rounding; the pole's |s*| and the residue exponent to
        # the rounding of |z| and arg z raised to the power 1/alpha
        pole = abs(zi) ** (1.0 / alpha)
        if route[0] == _RAY:
            tol = np.array([2.0 * eps * abs(zi), 8.0 * eps / alpha * pole])
        else:
            tol = 8.0 * eps / alpha * (1.0 + pole)
        assert np.all(np.abs(datum - want_datum) <= tol), (alpha, sigmas, zi)
    return [route for route, _ in got]


def test_array_router_agrees_with_the_scalar_one():
    # the router of array calls against _route, z by z: the same route
    # kind, ray reach and parabola ((mu, h, N), residue), the residue taken
    # for the same z, and the same OverflowGuard; the ray's (|z|, |z|^(1/a))
    # and the residue exponents agree to the rounding of the pole.  Mixed
    # arrays, and arrays wholly on the ray
    from tfedge.mittag_leffler import _CONTOUR

    rng = np.random.default_rng(2718)
    routes = []
    for alpha in [1.0, *rng.uniform(0.05, 1.0, 39)]:
        r = 10.0 ** rng.uniform(-3.0, 3.0, 90)
        z = r * np.exp(1j * rng.uniform(0.0, math.pi, 90))
        on_ray = np.array([0.5, 1.0, 2.0, 7.0, 40.0, 900.0]) * cmath.exp(1j * math.pi * alpha)
        # 1 + alpha/2: strength zero, but the ray's poles lie on the cut;
        # 1.5 + alpha: a branch point of strength 1, each vertex its own parabola
        for sigmas in ((alpha,), (1.0,), (alpha, 1.0), (1.0 + 0.5 * alpha,), (alpha, 1.5 + alpha)):
            routes += _assert_routes_agree(alpha, sigmas, np.concatenate(([0.0], on_ray, z, [0.0])))
            routes += _assert_routes_agree(alpha, sigmas, on_ray[2:])
    assert {kind for kind, _ in routes} == {"zero", "exp", "ray", "contour"}
    assert {reach for kind, reach in routes if kind == "ray"} == {0, 1, 2}
    assert len({parabola for kind, parabola in routes if kind == _CONTOUR}) > 12
    # a numpy alpha reaches every interval of the ray, as a float does
    z = cmath.rect(2.0, -0.5 * math.pi)
    assert ml_eval(MLParams(np.float64(0.5), 1.0), z) == ml_eval(MLParams(0.5, 1.0), z)


def test_array_calls_with_a_strong_branch_point():
    # sigma > 1 + alpha gives the branch point s = 0 strength p0 > 0 and each
    # pole vertex its own parabola; the array router serves such calls too.
    # Against the lone-z evaluation and the mpmath series, and independent
    # of the other z of the call
    from tfedge.mittag_leffler import _ml_at

    rng = np.random.default_rng(1414)
    for alpha in [1.0, *rng.uniform(0.05, 1.0, 11)]:
        sigmas = (alpha, 1.5 + alpha)
        r = 10.0 ** rng.uniform(-3.0, math.log10(min(8.0, 24.0**alpha)), 8)
        z = r * np.exp(1j * rng.uniform(-math.pi, math.pi, 8))
        values = _ml_at(alpha, sigmas, z)
        for k, sigma in enumerate(sigmas):
            for i, zi in enumerate(z):
                want = ml_reference(alpha, sigma, zi, 30 + int(abs(zi) ** (1.0 / alpha) / 2.3))
                assert rel_err(values[k, i], want) <= 1e-12, (alpha, sigma, zi)
                assert rel_err(values[k, i], ml_eval(MLParams(alpha, sigma), zi)) <= 1e-13
        assert np.array_equal(_ml_at(alpha, sigmas, z[::-1][:5]), values[:, ::-1][:, :5])


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
    # within arrays of two or more z, the E at a z is the same bit for bit
    # whatever its position and the other z of the call: shuffled and
    # re-sliced calls of every length against one call over the pool
    rng = np.random.default_rng(int(31 * alpha))
    pool = _independence_pool(alpha, rng)
    want = np.array(ml_pair(alpha, pool))
    for size in (2, 7, 33, 501):
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
    from tfedge.mittag_leffler import _ml_values

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
            assert np.array_equal(_ml_values(alpha, (alpha, 1.0), moduli, float(k)), got[:, ids]), k
    assert np.array_equal(got[:, : pool.size], want)


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
                    _ml_values(alpha, (alpha, 1.0), [0.5, r], beta)
        assert kept[:4] == [0.0, 0.25, 0.9, 1.0], (alpha, beta)
        values = _ml_values(alpha, (alpha, 1.0), kept, beta)
        for r, got, lone in zip(kept, values.T, want):
            bound = 1e-12 + 8.0 * eps * kappa[moduli == r][0]
            for g, w in zip(got, lone):
                assert abs(g - w) <= bound * abs(w), (alpha, beta, r)


def test_array_entry_guards():
    # the array entry's three OverflowGuard checks, each as ml_eval's:
    # exp(z) at alpha = sigma = 1, |z|^(1/alpha) past double range (on the
    # sheet and on the ray), and a residue past double range
    from tfedge.mittag_leffler import _ml_values

    for alpha, sigmas, m, beta in (
        (1.0, (1.0,), [1.0, 710.0], 0.0),
        (1.0, (1.0,), [1.0, 750.0], 0.2),  # Re z = 713
        (0.05, (0.05, 1.0), [1.0, 1e20], 0.0),
        (0.5, (0.5, 1.0), [2.0, 1e200], 1.0),
        (0.5, (0.5, 1.0), [1.0, 30.0], 0.0),
        (0.8, (0.8, 1.0), [1.0, 2e3], 0.4),
    ):
        with pytest.raises(OverflowGuard):
            ml_eval(MLParams(alpha, sigmas[-1]), m[-1] * neg_i_power(beta))
        with pytest.raises(OverflowGuard):
            _ml_values(alpha, sigmas, m, beta)
    # inside double range: Re z = 704 for exp(z), and no pole off the sheet
    assert np.all(np.isfinite(_ml_values(1.0, (1.0,), [1.0, 740.0], 0.2)))
    assert np.all(np.isfinite(_ml_values(0.05, (0.05, 1.0), [1.0, 1e20], 2.0)))


def test_array_calls_raise_overflow_guard():
    # a residue exponent past 705 inside a multi-z array, and |z|^(1/alpha)
    # past double range, on the contour and on the ray: OverflowGuard, not
    # a RuntimeWarning
    for alpha, z in (
        (0.5, [1.0, 30.0]),
        (0.5, [1.0, 1e200]),
        (0.05, [1.0, 2.0, 1e20]),
        (0.5, [1.0, 1e200j]),
        (0.5, [1.0, -1e200j, 2.0]),
    ):
        with pytest.raises(OverflowGuard):
            ml_pair(alpha, z)
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


def test_accuracy_holds_where_e_is_algebraically_small():
    # at sigma = alpha the z^-1 term vanishes and E ~ z^-2 is small against
    # the contour integrand; a contour run at 1e-12 itself misses by 10-300x
    params = MLParams(0.8, 0.8)
    for r, angle in ((6.7, 0.858), (13.4, 0.942), (25.9, 1.12), (19.1, 1.22)):
        z = cmath.rect(r, angle * 0.8 * math.pi)
        want = ml_gll_reference(0.8, 0.8, z)
        assert rel_err(ml_eval(params, z), want) <= 1e-12, (r, angle)


def test_import_does_not_load_mpmath():
    # mpmath and scipy are test-only dependencies: the evaluator is float64
    # throughout and 1/Gamma comes from math.gamma; the fiber solver is one
    # numpy SVD, and scipy.linalg alone would add ~0.3 s to the import
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; import tfedge; "
        "print('mpmath' in sys.modules, any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.stdout.strip() == "False False"

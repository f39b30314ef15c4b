"""Norm evolution: continuity, envelopes, certification, memory residual."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfedge import (
    CertifiedBound,
    DomainError,
    FractionalOrder,
    ModeSpectrum,
    OverflowGuard,
    caputo_residual,
    certify_bounds,
    envelope,
    solution_norm_sq,
)
from tfedge.wellposed import _bounds_sq, _norms_sq

SPECTRUM = ModeSpectrum(lambdas=(2.0, 5.0, 11.0), weights=(1.0, 0.5, 0.25))


def test_mode_spectrum_validation():
    with pytest.raises(DomainError):
        ModeSpectrum(lambdas=(), weights=())
    with pytest.raises(DomainError):
        ModeSpectrum(lambdas=(2.0, 2.0), weights=(1.0, 1.0))
    with pytest.raises(DomainError):
        ModeSpectrum(lambdas=(-1.0, 2.0), weights=(1.0, 1.0))
    with pytest.raises(DomainError):
        ModeSpectrum(lambdas=(1.0, 2.0), weights=(1.0, -1.0))
    with pytest.raises(DomainError):
        ModeSpectrum(lambdas=(1.0, 2.0), weights=(0.0, 0.0))
    assert SPECTRUM.norm_sq == 1.75
    assert SPECTRUM.dh_norm_sq == pytest.approx(
        1.0 * 5.0 + 0.5 * 26.0 + 0.25 * 122.0, rel=1e-15
    )
    assert SPECTRUM.lambda_max == 11.0


def test_norm_at_zero_is_the_initial_norm():
    for beta in (0.4, 0.8, 1.0):
        order = FractionalOrder(0.8, beta)
        got = solution_norm_sq(order, SPECTRUM, 0.0)
        assert got == pytest.approx(SPECTRUM.norm_sq, rel=1e-14)


def test_short_time_continuity():
    # the evolved norm must approach the initial norm as t -> 0+; alpha is
    # kept away from the smallest orders where the t^alpha transient is
    # too slow for a meaningful numeric check at t = 1e-6
    for beta in (0.4, 0.8, 1.0):
        order = FractionalOrder(0.8, beta)
        got = solution_norm_sq(order, SPECTRUM, 1e-6)
        assert abs(got - SPECTRUM.norm_sq) / SPECTRUM.norm_sq <= 1e-3


def test_unit_orders_preserve_the_norm():
    order = FractionalOrder(1.0, 1.0)
    for t in (0.5, 3.0, 20.0, 200.0):
        got = solution_norm_sq(order, SPECTRUM, t)
        assert got == pytest.approx(SPECTRUM.norm_sq, rel=1e-12)


def test_schrodinger_half_order_decay_rate():
    # single mode, beta = 1 > alpha = 1/2: |E|^2 ~ t^(-1) at large t
    one = ModeSpectrum(lambdas=(2.0,), weights=(1.0,))
    order = FractionalOrder(0.5, 1.0)
    times = np.geomspace(1e2, 1e4, 13)
    vals = np.array([solution_norm_sq(order, one, t) for t in times])
    slope = np.polyfit(np.log(times), np.log(vals), 1)[0]
    assert abs(slope + 1.0) <= 2e-2


def test_envelope_shapes():
    sup = FractionalOrder(0.5, 1.0)
    crit = FractionalOrder(0.5, 0.5)
    sub = FractionalOrder(0.5, 0.25)
    assert envelope(crit, 2.0, 17.0) == 1.0
    assert envelope(sup, 2.0, 100.0) < envelope(sup, 2.0, 1.0) < 1.0
    assert envelope(sub, 2.0, 10.0) > envelope(sub, 2.0, 1.0) > 1.0
    with pytest.raises(DomainError):
        envelope(sup, -1.0, 1.0)
    # at t = 0 the growth exponent t lam^(1/alpha) cos(theta) is 0, also
    # where lam^(1/alpha) leaves double range (0 * inf was nan)
    assert envelope(FractionalOrder(0.8, 0.4), 1e300, 0.0) == 2.0


def test_certification_across_regimes():
    for order, t_hi in (
        (FractionalOrder(0.8, 0.4), 20.0),
        (FractionalOrder(0.8, 0.8), 1e3),
        (FractionalOrder(0.8, 1.0), 1e3),
    ):
        cert = certify_bounds(order, SPECTRUM, np.geomspace(1e-2, t_hi, 40))
        assert isinstance(cert, CertifiedBound)
        assert cert.passed, (order, cert)
        assert math.isfinite(cert.constant) and cert.constant > 0.0
        assert cert.rel_drift < 0.01


def test_overflow_is_refused():
    # in the growth regime the norms, the envelope and the memory residual
    # leave double range: OverflowGuard, not OverflowError, inf or a warning
    order = FractionalOrder(0.8, 0.4)
    for t_hi in (30.0, 40.0, 50.0):
        with pytest.raises(OverflowGuard):
            certify_bounds(order, SPECTRUM, np.geomspace(1e-2, t_hi, 40))
    with pytest.raises(OverflowGuard):
        solution_norm_sq(order, SPECTRUM, 40.0)
    with pytest.raises(OverflowGuard):
        envelope(order, 11.0, 60.0)
    with pytest.raises(OverflowGuard):
        caputo_residual(order, 2.0, 421.5)


def test_non_finite_inputs_are_refused():
    # a NaN or infinite time, frequency or grid point is a domain error,
    # before any arithmetic: not a value, not OverflowGuard, not a warning
    for order in (FractionalOrder(0.5, 1.0), FractionalOrder(0.5, 0.5), FractionalOrder(0.8, 0.4)):
        for lam, t in ((math.nan, 1.0), (2.0, math.nan), (math.inf, 1.0), (2.0, math.inf)):
            with pytest.raises(DomainError):
                envelope(order, lam, t)
        for t in (math.nan, math.inf):
            with pytest.raises(DomainError):
                solution_norm_sq(order, SPECTRUM, t)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                certify_bounds(order, SPECTRUM, [1.0, 2.0, 3.0, bad])
        with pytest.raises(DomainError):
            certify_bounds(order, SPECTRUM, [math.nan, 1.0, 2.0, 3.0])
    order = FractionalOrder(0.8, 0.4)
    for lam, T in ((2.0, math.inf), (2.0, math.nan), (math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            caputo_residual(order, lam, T)


def test_certified_constant_is_the_largest_ratio():
    # on each grid of `tfedge verify` the certified constant is the largest
    # ratio of the one-time norm to the bound formed from the public envelope
    from tfedge.cli import _VERIFY_ORDERS, _VERIFY_SPECTRUM

    spectrum = _VERIFY_SPECTRUM
    for order in _VERIFY_ORDERS:
        growth = order.beta < order.alpha
        times = np.geomspace(1e-2, 20.0 if growth else 1e3, 40)
        cert = certify_bounds(order, spectrum, times)
        ratios = []
        for t in times:
            if growth:
                bound_sq = envelope(order, spectrum.lambda_max, t) ** 2 * spectrum.dh_norm_sq
            else:
                bound_sq = sum(
                    w * envelope(order, lam, t) ** 2
                    for lam, w in zip(spectrum.lambdas, spectrum.weights)
                )
            ratios.append(solution_norm_sq(order, spectrum, t) / bound_sq)
        assert cert.constant == pytest.approx(math.sqrt(max(ratios)), rel=1e-14), order
        # both grids take their values from one call over their union, and
        # each constant is its own grid's largest ratio bit for bit
        fine = np.geomspace(1e-2, 20.0 if growth else 1e3, 79)
        assert np.union1d(times, fine).size == fine.size
        for constant, grid in ((cert.constant, times), (cert.refined_constant, fine)):
            ratios = _norms_sq(order, spectrum, grid) / _bounds_sq(order, spectrum, grid)
            assert constant == math.sqrt(float(np.max(ratios))), order


def test_certification_input_validation():
    order = FractionalOrder(0.8, 0.8)
    with pytest.raises(DomainError):
        certify_bounds(order, SPECTRUM, [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        certify_bounds(order, SPECTRUM, [3.0, 2.0, 1.0, 0.5])


def test_memory_residual_small_on_the_graded_mesh():
    # the L1 quadrature of the memory derivative must reproduce the right
    # hand side of the evolution equation for a single mode
    for beta in (0.4, 0.8, 1.0):
        order = FractionalOrder(0.8, beta)
        for T in (0.5, 1.0, 2.0):
            assert caputo_residual(order, 2.0, T) <= 1e-3


def test_memory_residual_converges_with_the_mesh():
    order = FractionalOrder(0.8, 0.8)
    coarse = caputo_residual(order, 2.0, 1.0, n_points=120)
    fine = caputo_residual(order, 2.0, 1.0, n_points=500)
    assert fine < coarse
    with pytest.raises(DomainError):
        caputo_residual(order, 2.0, 1.0, n_points=8)
    with pytest.raises(DomainError):
        caputo_residual(FractionalOrder(1.0, 1.0), 2.0, 1.0)
    with pytest.raises(DomainError):
        caputo_residual(order, -2.0, 1.0)


@settings(deadline=None, max_examples=30)
@given(
    alpha=st.floats(0.5, 1.0),
    beta=st.floats(0.25, 1.0),
    lam=st.floats(0.5, 3.0),
    t=st.floats(0.0, 3.0),
)
def test_norm_is_nonnegative_and_continuous_at_zero(alpha, beta, lam, t):
    order = FractionalOrder(alpha, beta)
    modes = ModeSpectrum(lambdas=(lam,), weights=(1.0,))
    val = solution_norm_sq(order, modes, t)
    assert val >= 0.0
    if t == 0.0:
        assert val == pytest.approx(1.0, rel=1e-12)

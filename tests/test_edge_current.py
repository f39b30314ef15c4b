"""Edge-current evaluators: closed forms vs the exact kernel, fits, traces."""
import math

import numpy as np
import pytest

from tfedge import (
    ChiProfile,
    DomainError,
    FractionalOrder,
    ModelParams,
    OverflowGuard,
    QuadratureRule,
    SignChange,
    TransportTrace,
    build_spectral_table,
    classify_regime,
    current_asymptotic_case1,
    current_asymptotic_case2,
    current_ayh,
    current_beta_line,
    current_direct,
    current_naber,
    current_schrodinger,
    current_trace,
    decay_exponent,
    fit_exponent,
    gauss_legendre_rule,
    log_current_case1,
    make_grid,
    map_over_times,
)

from oracles import (
    PIN_J_DIRECT_55_AT_1E3,
    PIN_J_DIRECT_55_AT_2,
    PIN_J_NABER_AT_1E3,
    PIN_SCHRODINGER_CONST,
)


def test_order_classification():
    assert classify_regime(FractionalOrder(0.5, 0.25)) == "ExponentialGrowth"
    assert classify_regime(FractionalOrder(0.5, 0.5)) == "AsymptoticallyConstant"
    assert classify_regime(FractionalOrder(0.5, 1.0)) == "PowerLawDecay"
    assert decay_exponent(FractionalOrder(0.5, 1.0)) == -2.5
    assert decay_exponent(FractionalOrder(0.5, 0.5)) is None
    assert FractionalOrder(0.5, 0.25).theta == pytest.approx(math.pi / 4, rel=1e-15)
    with pytest.raises(DomainError):
        FractionalOrder(0.0, 0.5)
    with pytest.raises(DomainError):
        FractionalOrder(0.5, 1.2)


def test_quadrature_rule_validation():
    x, w = np.polynomial.legendre.leggauss(64)
    with pytest.raises(DomainError):
        QuadratureRule(a=0.0, b=1.0, nodes=x[:16], weights=w[:16])
    with pytest.raises(DomainError):
        QuadratureRule(a=0.0, b=1.0, nodes=x, weights=w)  # weights sum to 2
    with pytest.raises(DomainError):
        gauss_legendre_rule(2.0, 1.0, 64)


def test_gauss_legendre_integrates_polynomials_exactly():
    rule = gauss_legendre_rule(1.0, 2.0, 64)
    got = float(np.dot(rule.weights, rule.nodes**7))
    assert got == pytest.approx((2.0**8 - 1.0) / 8.0, rel=1e-14)


def test_direct_current_pins(model, profile, grid, rule, table):
    order = FractionalOrder(0.5, 0.5)
    j2 = current_direct(order, model, profile, grid, rule, 2.0, table)
    j3 = current_direct(order, model, profile, grid, rule, 1e3, table)
    assert j2 == pytest.approx(PIN_J_DIRECT_55_AT_2, rel=1e-12)
    assert j3 == pytest.approx(PIN_J_DIRECT_55_AT_1E3, rel=1e-12)
    with pytest.raises(DomainError):
        current_direct(order, model, profile, grid, rule, 0.0, table)


def test_unit_orders_reduce_to_schrodinger(model, profile, grid, rule, table):
    order = FractionalOrder(1.0, 1.0)
    const = current_schrodinger(model, profile, grid, rule, table)
    assert const == pytest.approx(PIN_SCHRODINGER_CONST, rel=1e-12)
    assert const < 0.0  # current flows against +y for this sign convention
    values = [
        current_direct(order, model, profile, grid, rule, t, table)
        for t in (1.0, 10.0, 100.0)
    ]
    spread = (max(values) - min(values)) / abs(values[0])
    assert spread <= 1e-10
    assert abs(values[0] - const) <= 5e-3 * abs(const)


def test_beta_line_matches_direct_on_unit_alpha(model, profile, grid, rule, table):
    order = FractionalOrder(1.0, 0.5)
    for t in (0.5, 1.0, 2.0):
        closed = current_beta_line(0.5, model, profile, grid, rule, t, table)
        direct = current_direct(order, model, profile, grid, rule, t, table)
        assert abs(closed - direct) <= 1e-10 * abs(direct)


def test_beta_line_overflow_guard(model, profile, grid, rule, table):
    with pytest.raises(OverflowGuard):
        current_beta_line(0.5, model, profile, grid, rule, 500.0, table)


def test_growth_model_matches_direct(model, profile, grid, rule, table):
    order = FractionalOrder(0.6, 0.3)
    for t in (50.0, 120.0):
        closed = current_asymptotic_case1(order, model, profile, grid, rule, t, table)
        direct = current_direct(order, model, profile, grid, rule, t, table)
        assert abs(closed - direct) <= 1e-8 * abs(direct)
    with pytest.raises(DomainError):
        current_asymptotic_case1(
            FractionalOrder(0.5, 1.0), model, profile, grid, rule, 10.0, table
        )


def test_growth_log_form_consistency(model, profile, grid, rule, table):
    order = FractionalOrder(0.5, 0.25)
    t = 50.0
    direct = current_direct(order, model, profile, grid, rule, t, table)
    sign, logv = log_current_case1(order, model, profile, grid, rule, t, table)
    assert sign == -1.0
    assert abs(logv - math.log(abs(direct))) <= 1e-8
    # past double overflow the exact kernel refuses but the log form carries on
    with pytest.raises(OverflowGuard):
        current_direct(order, model, profile, grid, rule, 500.0, table)
    sign2, logv2 = log_current_case1(order, model, profile, grid, rule, 500.0, table)
    assert sign2 == -1.0
    assert logv2 > 700.0
    with pytest.raises(DomainError):
        log_current_case1(
            FractionalOrder(0.5, 1.0), model, profile, grid, rule, 10.0, table
        )


def test_decay_model_matches_direct(model, profile, grid, rule, table):
    # alpha chosen away from 1/2 so the leading coefficient is not degenerate,
    # and large enough that every node stays on the cheap asymptotic branch
    order = FractionalOrder(0.45, 0.9)
    t = 1e3
    closed = current_asymptotic_case2(order, model, profile, grid, rule, t, table)
    direct = current_direct(order, model, profile, grid, rule, t, table)
    assert abs(closed - direct) <= 0.1 * abs(direct)
    with pytest.raises(DomainError):
        current_asymptotic_case2(
            FractionalOrder(0.5, 0.5), model, profile, grid, rule, 10.0, table
        )


def test_half_alpha_unit_beta_current_is_exponentially_small(
    model, profile, grid, rule, table
):
    # at (1/2, 1) the closed forms E_{1/2,1}(z) = exp(z^2) erfc(-z) and
    # E_{1/2,1/2}(z) = 1/sqrt(pi) + z E_{1/2,1}(z) on z = -i sqrt(t) lambda
    # reduce the current to
    #     J(t) = -(2/sqrt(pi)) t^-1/2 Int lambda chi chi' exp(-t lambda^2) dk,
    # with no algebraic tail, so the phases must not leak one in.  z lies on
    # the ray arg z = -pi alpha, where exp(-t lambda^2) is half the residue;
    # from t = 60 on it is below 1e-26 and must still come out to 1e-10
    order = FractionalOrder(0.5, 1.0)
    cross = table.lam * table.chi_vals * table.dchi_vals
    for t in (0.5, 1.0, 2.0, 5.0, 60.0, 100.0, 250.0):
        exact = -(2.0 / math.sqrt(math.pi)) * t**-0.5 * float(
            np.sum(rule.weights * cross * np.exp(-t * table.lam**2))
        )
        direct = current_direct(order, model, profile, grid, rule, t, table)
        assert abs(direct - exact) <= 1e-10 * abs(exact), t
    for t in (1e2, 1e3):
        assert abs(current_direct(order, model, profile, grid, rule, t, table)) <= 1e-40


def test_plateau_model_matches_direct(model, profile, grid, rule, table):
    direct = current_naber(0.5, model, profile, grid, rule, 1e3, table)
    assert direct == pytest.approx(PIN_J_NABER_AT_1E3, rel=1e-12)
    exact = current_direct(
        FractionalOrder(0.5, 0.5), model, profile, grid, rule, 1e3, table
    )
    assert abs(direct - exact) <= 1e-5 * abs(exact)


def test_ayh_is_the_beta_one_slice_of_case2(model, profile, grid, rule, table):
    for t in (10.0, 1e3):
        a = current_ayh(0.4, model, profile, grid, rule, t, table)
        b = current_asymptotic_case2(
            FractionalOrder(0.4, 1.0), model, profile, grid, rule, t, table
        )
        assert a == b
    with pytest.raises(DomainError):
        current_ayh(1.0, model, profile, grid, rule, 10.0, table)


def test_quadrature_self_check_passes_on_smooth_data(model, profile):
    # small standalone setup so the doubled table stays cheap
    grid = make_grid(model, 2.0, n=800)
    rule = gauss_legendre_rule(1.0, 2.0, 32)
    value = current_direct(
        FractionalOrder(0.5, 0.5), model, profile, grid, rule, 2.0,
        check_quadrature=True,
    )
    assert np.isfinite(value) and value < 0.0


def test_shared_table_equals_fresh_build(model, profile):
    grid = make_grid(model, 2.0, n=800)
    rule = gauss_legendre_rule(1.0, 2.0, 32)
    table = build_spectral_table(model, profile, grid, rule)
    order = FractionalOrder(0.5, 0.5)
    with_table = current_direct(order, model, profile, grid, rule, 3.0, table)
    without = current_direct(order, model, profile, grid, rule, 3.0)
    assert with_table == without


def test_trace_and_method_dispatch(model, profile, grid, rule, table):
    times = np.geomspace(1e2, 1e4, 9)
    tr = current_trace(
        FractionalOrder(0.5, 0.5), model, profile, grid, rule, times, "Naber", table
    )
    assert tr.method == "Naber"
    assert tr.values.shape == (9,)
    sch = current_trace(
        FractionalOrder(1.0, 1.0), model, profile, grid, rule, times, "Schrodinger", table
    )
    assert np.all(sch.values == sch.values[0])
    with pytest.raises(DomainError):
        current_trace(
            FractionalOrder(0.5, 0.5), model, profile, grid, rule, times, "Magic", table
        )


def test_trace_validation():
    good_t = np.array([1.0, 2.0, 3.0])
    good_v = np.array([1.0, 0.5, 0.25])
    TransportTrace(times=good_t, values=good_v, method="Direct")
    with pytest.raises(DomainError):
        TransportTrace(times=good_t[::-1].copy(), values=good_v, method="Direct")
    with pytest.raises(DomainError):
        TransportTrace(times=good_t, values=np.array([1.0, np.nan, 2.0]), method="Direct")
    with pytest.raises(DomainError):
        TransportTrace(times=good_t, values=good_v, method="nope")


def test_fit_recovers_planted_exponents():
    times = np.geomspace(1.0, 100.0, 25)
    decay = TransportTrace(times=times, values=3.0 * times**-2.5, method="Direct")
    fit = fit_exponent(decay, (1.0, 100.0), "loglog")
    assert abs(fit.slope + 2.5) <= 1e-9
    assert fit.max_rel_residual <= 1e-9
    assert fit.n_used == 25

    lin = np.linspace(1.0, 20.0, 20)
    growth = TransportTrace(times=lin, values=-0.2 * np.exp(0.3 * lin), method="Direct")
    fit = fit_exponent(growth, (1.0, 20.0), "semilog")
    assert abs(fit.slope - 0.3) <= 1e-9

    wobble = TransportTrace(
        times=lin, values=np.cos(np.pi * lin / 3.0), method="Direct"
    )
    with pytest.raises(SignChange):
        fit_exponent(wobble, (1.0, 20.0), "loglog")
    with pytest.raises(DomainError):
        fit_exponent(decay, (1.0, 1.5), "loglog")  # too few samples
    with pytest.raises(DomainError):
        fit_exponent(decay, (1.0, 100.0), "cubic")


def test_map_over_times_is_order_preserving_and_deterministic(
    model, profile, grid, rule, table
):
    order = FractionalOrder(0.5, 0.5)
    times = np.geomspace(10.0, 1e3, 12)

    def run():
        return current_trace(
            order, model, profile, grid, rule, times, "Direct", table
        ).values

    assert np.array_equal(run(), run())
    # identity mapping sanity: results line up with their inputs
    assert map_over_times(lambda t: 2.0 * t, [3.0, 1.0, 2.0]) == [6.0, 2.0, 4.0]

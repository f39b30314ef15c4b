"""Second-moment channels: identity, limits, and the two leading models."""
import numpy as np
import pytest

from tfedge import (
    DomainError,
    FractionalOrder,
    build_spectral_table,
    gauss_legendre_rule,
    make_grid,
    msd_assembled,
    msd_case2_leading,
    msd_direct,
    msd_naber_leading,
    msd_trace,
    packet_norm_sq,
)

from oracles import (
    PIN_MSD_51_AT_1E3,
    PIN_MSD_55_AT_1E3,
    PIN_MSD_CASE2_LEAD,
    PIN_MSD_NABER_LEAD,
    PIN_PACKET_NORM_SQ,
)

ORDERS_AND_TIMES = [
    (FractionalOrder(0.5, 0.5), 10.0),
    (FractionalOrder(0.5, 1.0), 100.0),
    (FractionalOrder(0.8, 0.4), 5.0),
    (FractionalOrder(1.0, 1.0), 50.0),
    (FractionalOrder(0.45, 0.9), 200.0),
]


def test_packet_norm(table):
    assert packet_norm_sq(table) == pytest.approx(PIN_PACKET_NORM_SQ, rel=1e-13)


@pytest.mark.parametrize("order,t", ORDERS_AND_TIMES)
def test_channel_sum_equals_assembled_density(order, t, model, profile, grid, rule, table):
    # the four channels are an algebraic expansion of |gradient|^2; summing
    # them must reproduce the assembled quadratic form to rounding
    br = msd_direct(order, model, profile, grid, rule, t, table)
    whole = msd_assembled(order, model, profile, grid, rule, t, table)
    assert abs(br.total - whole) <= 1e-8 * abs(whole)
    assert br.total == pytest.approx(br.A + br.B + br.C + br.F, rel=1e-14)
    assert br.A >= 0.0 and br.B >= 0.0 and br.C >= 0.0
    assert br.total > 0.0


def test_cross_channel_vanishes_at_unit_orders(model, profile, grid, rule, table):
    # at alpha = beta = 1 the cross term carries Re(-i |E|^2) = 0 exactly
    br = msd_direct(FractionalOrder(1.0, 1.0), model, profile, grid, rule, 7.0, table)
    assert abs(br.F) <= 1e-15 * br.total


def test_regression_pins(model, profile, grid, rule, table):
    t = 1e3
    n55 = msd_direct(FractionalOrder(0.5, 0.5), model, profile, grid, rule, t, table)
    n51 = msd_direct(FractionalOrder(0.5, 1.0), model, profile, grid, rule, t, table)
    assert n55.total == pytest.approx(PIN_MSD_55_AT_1E3, rel=1e-12)
    assert n51.total == pytest.approx(PIN_MSD_51_AT_1E3, rel=1e-12)
    assert msd_naber_leading(0.5, model, profile, grid, rule, table) == pytest.approx(
        PIN_MSD_NABER_LEAD, rel=1e-13
    )
    assert msd_case2_leading(0.5, model, profile, grid, rule, table) == pytest.approx(
        PIN_MSD_CASE2_LEAD, rel=1e-13
    )


def test_ballistic_coefficient_on_the_diagonal(model, profile, grid, rule, table):
    # spreading at beta = alpha is ballistic: msd ~ t^2 * leading
    t = 1e3
    br = msd_direct(FractionalOrder(0.5, 0.5), model, profile, grid, rule, t, table)
    lead = msd_naber_leading(0.5, model, profile, grid, rule, table)
    assert abs(br.total / (t**2 * lead) - 1.0) <= 1e-2


def test_decay_coefficient_above_the_diagonal(model, profile, grid, rule, table):
    # at beta = 1 the moment decays like t^(-2 alpha) with a two-part constant
    t = 1e3
    alpha = 0.5
    br = msd_direct(FractionalOrder(alpha, 1.0), model, profile, grid, rule, t, table)
    lead = msd_case2_leading(alpha, model, profile, grid, rule, table)
    assert abs(t ** (2 * alpha) * br.total / lead - 1.0) <= 5e-2
    with pytest.raises(DomainError):
        msd_case2_leading(1.0, model, profile, grid, rule, table)


def test_trace_shape_and_positivity(model, profile, grid, rule, table):
    times = np.geomspace(1e2, 1e3, 8)
    tr = msd_trace(FractionalOrder(0.5, 1.0), table, times)
    assert tr.method == "Direct"
    assert np.all(tr.values > 0.0)
    # decaying regime: strictly smaller at the last sample than the first
    assert tr.values[-1] < tr.values[0]


def test_cap_is_in_every_table(model, profile):
    # with_cap has no effect: a table built with with_cap=False serves
    # msd_direct bit for bit like one built with with_cap=True
    grid = make_grid(model, 2.0, n=800)
    rule = gauss_legendre_rule(1.0, 2.0, 32)
    bare = build_spectral_table(model, profile, grid, rule, with_cap=False)
    full = build_spectral_table(model, profile, grid, rule, with_cap=True)
    order = FractionalOrder(0.5, 0.5)
    assert np.array_equal(bare.cap, full.cap)
    assert msd_direct(order, None, None, None, None, 1.0, bare) == msd_direct(order, None, None, None, None, 1.0, full)
    with pytest.raises(DomainError):
        msd_direct(order, None, None, None, None, 0.0, bare)

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
    msd_assembled,
    msd_case2_leading,
    msd_direct,
    msd_naber_leading,
    msd_trace,
)

from _reference import closed_form_current, closed_form_msd_leads

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
    # the first order whose split coefficients do not cancel: 3 in general,
    # 4 at alpha = 1/2; at (1/2, 1) every order up to 7 cancels
    with pytest.raises(DomainError):
        decay_exponent(FractionalOrder(0.5, 1.0))
    assert decay_exponent(FractionalOrder(0.5, 0.75)) == -3.0
    assert decay_exponent(FractionalOrder(0.8, 1.0)) == pytest.approx(-3.4, rel=1e-15)
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
    # a NaN weight or node: the weights' resum test alone lets a NaN pass
    for k in (0, 1):
        nodes, weights = 0.5 * (x + 1.0), 0.5 * w
        (nodes, weights)[k][7] = math.nan
        with pytest.raises(DomainError, match="must be finite"):
            QuadratureRule(a=0.0, b=1.0, nodes=nodes, weights=weights)
    with pytest.raises(DomainError):
        gauss_legendre_rule(2.0, 1.0, 64)
    # an infinite end: the weights' resum test alone lets inf - inf pass
    nodes, weights = 1.5 + 0.5 * x, 0.5 * w
    for a, b in ((1.0, math.inf), (-math.inf, 2.0), (math.nan, 2.0)):
        with pytest.raises(DomainError, match="needs finite a < b"):
            QuadratureRule(a=a, b=b, nodes=nodes, weights=weights)
    # nodes outside [a, b], with weights that resum to its width
    for shift in (5.0, -0.5):
        with pytest.raises(DomainError, match=r"nodes must lie in \[a, b\]"):
            QuadratureRule(a=1.0, b=2.0, nodes=nodes + shift, weights=weights)
    assert QuadratureRule(a=1.0, b=2.0, nodes=nodes, weights=weights).n_nodes == 64


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
    const = current_schrodinger(table)
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
    # on alpha = 1 case 1 is the residue pair alone: 1/Gamma(1 - alpha) = 0
    order = FractionalOrder(1.0, 0.5)
    for t in (0.5, 1.0, 2.0):
        closed = current_asymptotic_case1(order, table, t)
        direct = current_direct(order, model, profile, grid, rule, t, table)
        assert abs(closed - direct) <= 1e-10 * abs(direct)


def test_beta_line_overflow_guard(model, profile, grid, rule, table):
    with pytest.raises(OverflowGuard):
        current_asymptotic_case1(FractionalOrder(1.0, 0.5), table, 500.0)


def test_growth_model_matches_direct(model, profile, grid, rule, table):
    order = FractionalOrder(0.6, 0.3)
    for t in (50.0, 120.0):
        closed = current_asymptotic_case1(order, table, t)
        direct = current_direct(order, model, profile, grid, rule, t, table)
        assert abs(closed - direct) <= 1e-8 * abs(direct)
    with pytest.raises(DomainError):
        current_asymptotic_case1(FractionalOrder(0.5, 1.0), table, 10.0)


def test_growth_log_form_consistency(model, profile, grid, rule, table):
    order = FractionalOrder(0.5, 0.25)
    t = 50.0
    direct = current_direct(order, model, profile, grid, rule, t, table)
    sign, logv = log_current_case1(order, table, t)
    assert sign == -1.0
    assert abs(logv - math.log(abs(direct))) <= 1e-8
    # past double overflow the exact kernel refuses but the log form carries
    # on: at t = 300 each E is finite and their product is not, at t = 500
    # E itself is out of range
    for t_big in (300.0, 500.0):
        with pytest.raises(OverflowGuard):
            current_direct(order, model, profile, grid, rule, t_big, table)
        with pytest.raises(OverflowGuard):
            msd_direct(order, model, profile, grid, rule, t_big, table)
        with pytest.raises(OverflowGuard):
            msd_assembled(order, model, profile, grid, rule, t_big, table)
        with pytest.raises(OverflowGuard):
            current_trace(order, table, [t, t_big])
        with pytest.raises(OverflowGuard):
            msd_trace(order, table, [t, t_big])
    sign2, logv2 = log_current_case1(order, table, 500.0)
    assert sign2 == -1.0
    assert logv2 > 700.0
    with pytest.raises(DomainError):
        log_current_case1(FractionalOrder(0.5, 1.0), table, 10.0)


def test_growth_log_form_on_the_default_table(table):
    # on the 64-node table the J weight lambda chi chi' of the node nearest
    # k = 1, whose growth exponent is the largest, is exactly 0 (chi =
    # 2.7e-313 there).  The signed log-sum-exp takes it as a zero term: ln|J|
    # is finite and grows for t in [1, 1e6] at beta = alpha / 2, and agrees
    # with ln|case 1| to 1e-12 wherever that is representable.  (Shifted by
    # that node's exponent, every term underflowed, and from t ~ 1e3 at
    # alpha = 0.1 the sum "cancelled completely".)
    from tfedge.edge_current import _channel_weights

    assert _channel_weights(table, ("J",))[0, 0, 0] == 0.0
    for alpha in (0.1, 0.3, 0.5, 0.8, 1.0):
        order = FractionalOrder(alpha, 0.5 * alpha)
        logs = []
        for t in np.geomspace(1.0, 1e6, 31):
            sign, logv = log_current_case1(order, table, t)
            logs.append(logv)
            try:
                value = current_asymptotic_case1(order, table, t)
            except OverflowGuard:
                continue
            assert sign == math.copysign(1.0, value), (alpha, t)
            assert abs(logv - math.log(abs(value))) <= 1e-12, (alpha, t)
        assert np.all(np.isfinite(logs)) and np.all(np.diff(logs) > 0.0), alpha
        with pytest.raises(DomainError):
            log_current_case1(order, table, 0.0)


def test_decay_model_matches_direct(model, profile, grid, rule, table):
    # alpha chosen away from 1/2 so the leading coefficient is not degenerate,
    # and large enough that every node stays on the cheap asymptotic branch
    order = FractionalOrder(0.45, 0.9)
    t = 1e3
    closed = current_asymptotic_case2(order, table, t)
    direct = current_direct(order, model, profile, grid, rule, t, table)
    assert abs(closed - direct) <= 0.1 * abs(direct)
    with pytest.raises(DomainError):
        current_asymptotic_case2(FractionalOrder(0.5, 0.5), table, 10.0)


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


# alpha on both sides of 1/2 with beta on both sides of alpha, and the
# alpha = 1 line, where 1/Gamma(1 - alpha) = 0 drops the correction
SPLIT_ORDERS = [
    (alpha, beta)
    for alpha in (0.3, 0.45, 0.8)
    for beta in (0.5 * alpha, alpha, min(1.0, 1.5 * alpha))
] + [(1.0, 0.5), (1.0, 1.0)]


@pytest.mark.parametrize("alpha,beta", SPLIT_ORDERS)
def test_split_models_match_their_formulas(alpha, beta, model, profile, grid, rule, table):
    # each closed form is a sum of term pairs of the split of E; the formula
    # its docstring states, coded apart in _reference, pins the phases and
    # signs away from alpha = 1/2
    order = FractionalOrder(alpha, beta)
    checks = []  # (model, value, formula)
    for t in (2.0, 20.0):
        formula = closed_form_current(alpha, beta, table, t)
        if beta <= alpha:
            checks.append(("case 1", current_asymptotic_case1(order, table, t), formula))
            sign, logv = log_current_case1(order, table, t)
            assert sign == math.copysign(1.0, formula)
            assert abs(logv - math.log(abs(formula))) <= 1e-12, (t, logv)
        else:
            checks.append(("case 2", current_asymptotic_case2(order, table, t), formula))
        if beta == alpha:
            naber = current_naber(alpha, model, profile, grid, rule, t, table)
            checks.append(("plateau", naber, formula))
    ballistic, decay = closed_form_msd_leads(alpha, table)
    if beta == alpha:
        lead = msd_naber_leading(alpha, model, profile, grid, rule, table)
        checks.append(("msd ballistic", lead, ballistic))
    if beta > alpha:
        lead = msd_case2_leading(alpha, model, profile, grid, rule, table)
        checks.append(("msd decay", lead, decay))
    if alpha == beta == 1.0:
        formula = closed_form_current(1.0, 1.0, table, 1.0)
        checks.append(("Schrodinger", current_schrodinger(table), formula))
    for name, value, formula in checks:
        assert abs(value - formula) <= 1e-12 * abs(formula), (name, value, formula)


# (order, window): a growth, a plateau and a decay order on the windows that
# `tfedge regimes` fits; (1/2, 1) on the ray, whose sweep over [10, 600]
# splits into the ray's reaches 0, 1 and 2; the plateau and decay orders of
# perfbench's spreading workload, on the contour with the pole's residue;
# and (1, 1), where E_{1,1}(z) = exp(z)
TRACE_CASES = [
    (FractionalOrder(0.5, 0.25), (20.0, 80.0)),
    (FractionalOrder(0.5, 0.5), (1e2, 1e4)),
    (FractionalOrder(0.5, 0.75), (1e2, 1e4)),
    (FractionalOrder(0.5, 1.0), (10.0, 600.0)),
    (FractionalOrder(0.8, 0.8), (20.0, 1e5)),
    (FractionalOrder(0.8, 1.0), (20.0, 1e5)),
    (FractionalOrder(1.0, 1.0), (1.0, 1e2)),
]
TRACE_IDS = ["growth", "plateau", "decay", "ray", "spreading-plateau", "spreading-decay", "exp"]


def _assert_one_time_values_are_the_sweeps(order, times, model, profile, grid, rule, table, monkeypatch):
    """current_direct, msd_direct (all four channels and the total) and
    msd_assembled at each time equal, bit for bit, the values of one sweep
    over every time: current_trace, msd_trace and its channels, and
    msd_assembled on its column of the sweep's E."""
    import tfedge.msd as msd_module
    from tfedge.edge_current import _ml_over_times
    from tfedge.msd import _msd_channels

    tr = current_trace(order, table, times)
    assert tr.method == "Direct"
    assert np.array_equal(tr.times, times)
    direct = [current_direct(order, model, profile, grid, rule, t, table) for t in times]
    assert np.array_equal(tr.values, direct)
    breakdowns = [msd_direct(order, model, profile, grid, rule, t, table) for t in times]
    channels = [[b.A, b.B, b.C, b.F, b.total] for b in breakdowns]
    assert np.array_equal([[b.A, b.B, b.C, b.F, b.total] for b in _msd_channels(order, table, times)], channels)
    assert np.array_equal(msd_trace(order, table, times).values, [b.total for b in breakdowns])
    sweep = _ml_over_times(order, table, times)
    for i, t in enumerate(times):
        alone = msd_assembled(order, model, profile, grid, rule, t, table)
        with monkeypatch.context() as patch:
            patch.setattr(msd_module, "_ml_over_times", lambda *_: sweep[:, i : i + 1])
            assert msd_assembled(order, model, profile, grid, rule, t, table) == alone, t


@pytest.mark.parametrize("order,window", TRACE_CASES, ids=TRACE_IDS)
def test_traces_equal_per_time_evaluations(order, window, model, profile, grid, rule, table, monkeypatch):
    # on these windows one _ml_values call over every (time, node) pair gives
    # the per-time values bit for bit; the CLI's regimes output depends on it
    times = np.geomspace(*window, 13)
    _assert_one_time_values_are_the_sweeps(order, times, model, profile, grid, rule, table, monkeypatch)


@pytest.mark.parametrize("order", [order for order, _ in TRACE_CASES], ids=TRACE_IDS)
def test_traces_match_per_time_evaluations_at_early_times(
    order, model, profile, grid, rule, table, monkeypatch
):
    # for t <= 1 _ml_values groups a node's z with different companions in the
    # two calls; each z's contour sum runs in the same order whatever its
    # companions, so E and the sums over nodes agree bit for bit
    times = np.geomspace(1e-2, 1.0, 30)
    _assert_one_time_values_are_the_sweeps(order, times, model, profile, grid, rule, table, monkeypatch)


def test_each_sweep_is_one_evaluator_call(table, monkeypatch):
    # current_trace, msd_trace and caputo_residual take every E of a sweep
    # from one call of the evaluator's array entry, with the sweep's times
    # and lambdas; certify_bounds makes one over the union of its grid and
    # the refinement (here the 9 times and the 17 of their arithmetic
    # refinement, 2 shared: 24) and its 3 modes, and the one-time forms one
    # with one time.  The table's sweeps pass the lambda^(1/alpha) and
    # extremes the table keeps; wellposed's are formed per call
    import tfedge.edge_current as ec
    import tfedge.wellposed as wp
    from tfedge.mittag_leffler import _ml_values
    from tfedge.wellposed import ModeSpectrum, caputo_residual, certify_bounds

    calls = []

    def counted(alpha, sigmas, times, lam, beta, roots=None):
        calls.append((len(times), np.size(lam), roots is not None and roots is table._roots.get(alpha)))
        return _ml_values(alpha, sigmas, times, lam, beta, roots)

    monkeypatch.setattr(ec, "_ml_values", counted)
    monkeypatch.setattr(wp, "_ml_values", counted)
    order = FractionalOrder(0.8, 0.8)
    times = np.geomspace(1.0, 50.0, 9)
    spectrum = ModeSpectrum(lambdas=(2.0, 5.0, 11.0), weights=(1.0, 0.5, 0.25))
    for sweep, shapes in (
        (lambda: current_trace(order, table, times), [(9, table.lam.size, True)]),
        (lambda: msd_trace(order, table, times), [(9, table.lam.size, True)]),
        (lambda: caputo_residual(order, 2.0, 1.0), [(501, 1, False)]),
        (lambda: certify_bounds(order, spectrum, times), [(24, 3, False)]),
        (lambda: current_direct(order, None, None, None, None, 7.0, table), [(1, table.lam.size, True)]),
        (lambda: msd_direct(order, None, None, None, None, 7.0, table), [(1, table.lam.size, True)]),
        (lambda: msd_assembled(order, None, None, None, None, 7.0, table), [(1, table.lam.size, True)]),
    ):
        calls.clear()
        sweep()
        assert calls == shapes


def test_empty_sweeps(table):
    # no time or no lambda, no evaluation: the entry's empty guard, and
    # empty traces
    from tfedge.mittag_leffler import _ml_values

    assert _ml_values(0.5, (0.5, 1.0), [], [1.0, 2.0], 0.5).shape == (2, 0, 2)
    assert _ml_values(0.5, (0.5, 1.0), [1.0, 2.0], [], 0.5).shape == (2, 2, 0)
    order = FractionalOrder(0.5, 0.5)
    for sweep in (current_trace, msd_trace):
        trace = sweep(order, table, [])
        assert trace.times.shape == trace.values.shape == (0,)


def test_kernel_memos_are_read_only_and_change_no_bit(model, profile, grid, rule):
    # the channel weights are formed once per table and kept with it, the
    # phases and rows of E once per (channels, beta) in a bounded memo, all
    # read-only; a sweep on a fresh table with the memo cleared (cold) gives
    # the values of the same sweep repeated (warm) bit for bit
    from tfedge.edge_current import _CHANNELS, _kernel

    times = np.geomspace(1.0, 40.0, 7)
    for names in (("J",), ("A", "B", "C", "F")):
        sweep = current_trace if names == ("J",) else msd_trace
        for beta in (0.6, 0.8, 1.0):
            order = FractionalOrder(0.8, beta)
            _kernel.cache_clear()
            fresh = build_spectral_table(model, profile, grid, rule)
            cold = sweep(order, fresh, times).values
            assert np.array_equal(sweep(order, fresh, times).values, cold)
            assert _kernel.cache_info()[:2] == (1, 1)  # (hits, misses)
        weights = fresh._weights[names]
        assert np.array_equal(weights[:, 0], [_CHANNELS[name].weight(fresh) for name in names])
        phases, left, right = _kernel(names, 1.0)
        for a in (weights, phases, left, right):
            if isinstance(a, np.ndarray):
                assert not a.flags.writeable
    for beta in np.linspace(0.01, 1.0, 2 * _kernel.cache_info().maxsize):
        _kernel(("J",), beta)
    info = _kernel.cache_info()
    assert info.currsize == info.maxsize


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
        return current_trace(order, table, times).values

    assert np.array_equal(run(), run())
    # identity mapping sanity: results line up with their inputs
    assert map_over_times(lambda t: 2.0 * t, [3.0, 1.0, 2.0]) == [6.0, 2.0, 4.0]

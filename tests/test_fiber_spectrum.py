"""Half-line band solver: anchors, monotonicity, convergence, derivatives."""
import math

import numpy as np
import pytest

from tfedge import (
    DomainError,
    GridError,
    HalfLineGrid,
    ModelParams,
    auto_length,
    build_fiber_operator,
    dk_phi1,
    make_grid,
    solve_ground_state,
)

from _reference import cap_reference, lam_reference
from oracles import INDEPENDENT_LAM, PIN_LAM1_AT_0, PIN_LAM1_AT_8, PIN_LAM1_WINDOW


def lam(b, k, **kw):
    m = ModelParams(b)
    return solve_ground_state(m, k, make_grid(m, k, **kw)).lambda1


def test_frozen_lam_reference_is_honest():
    live = lam_reference(1.0, 1.0)
    assert abs(live - INDEPENDENT_LAM[(1.0, 1.0)]) < 1e-9


def test_matches_independent_fd_reference():
    # the FD + Richardson oracle and the FE pencil share no code; agreement
    # to a few 1e-6 pins the discretisation error of both
    for (b, k), want in INDEPENDENT_LAM.items():
        got = lam(b, k)
        assert abs(got - want) <= 5e-4 * max(1.0, abs(want)), (b, k, got, want)


def test_dispersion_anchors():
    # k = 0 is the odd harmonic oscillator level 3b; k -> +inf flattens
    # onto the first Landau level b
    assert abs(lam(1.0, 0.0) - 3.0) <= 1e-3
    assert 1.0 < lam(1.0, 8.0) < 1.001
    assert abs(lam(2.0, 0.0) - 6.0) <= 2e-3
    k_far = 8.0 * math.sqrt(2.0)
    assert lam(2.0, k_far) - 2.0 <= 2e-3


def test_regression_pins_on_reference_window():
    m = ModelParams(1.0)
    assert solve_ground_state(m, 0.0, make_grid(m, 0.0)).lambda1 == pytest.approx(
        PIN_LAM1_AT_0, rel=1e-12
    )
    assert solve_ground_state(m, 8.0, make_grid(m, 8.0)).lambda1 == pytest.approx(
        PIN_LAM1_AT_8, rel=1e-12
    )
    grid = make_grid(m, 2.0)
    for k, (lam_want, dlam_want) in PIN_LAM1_WINDOW.items():
        st = solve_ground_state(m, k, grid)
        assert st.lambda1 == pytest.approx(lam_want, rel=1e-12)
        assert st.dlambda1 == pytest.approx(dlam_want, rel=1e-10)


def test_band_is_strictly_decreasing():
    # past k ~ 4 the gap above the Landau level (~ k e^{-k^2}) sinks below
    # the Ritz discretisation error, so the strict comparison is only
    # meaningful on the left part of the band
    values = [lam(1.0, k, n=2400) for k in np.linspace(-3.0, 3.5, 20)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_band_lower_bounds():
    for k in (-3.0, -1.0, 0.0, 2.0, 6.0):
        v = lam(1.0, k, n=1200)
        assert v > 1.0
        if k < 0.0:
            # the potential already sits above k^2 on the whole half-line
            assert v > k * k


def test_grid_convergence_is_second_order():
    m = ModelParams(1.0)
    vals = {
        n: solve_ground_state(m, 1.0, HalfLineGrid(L=14.0, n=n)).lambda1
        for n in (800, 1600, 3200)
    }
    d1 = vals[800] - vals[1600]
    d2 = vals[1600] - vals[3200]
    assert d1 > 0.0 and d2 > 0.0  # variational: errors shrink from above
    assert 2.0 <= d1 / d2 <= 8.0


def test_state_quality(model, grid):
    st = solve_ground_state(model, 1.0, grid)
    assert st.residual <= 1e-10 * st.lambda1
    h = grid.h
    assert abs(h * float(st.phi1 @ st.phi1) - 1.0) <= 1e-12
    assert st.phi1[np.argmax(np.abs(st.phi1))] > 0.0
    # Dirichlet tail: nothing left at the far wall
    assert abs(st.phi1[-1]) < 1e-8


def test_feynman_hellmann_matches_finite_difference():
    m = ModelParams(1.0)
    for k in (0.0, 1.0, 3.0):
        grid = make_grid(m, k)
        fh = solve_ground_state(m, k, grid).dlambda1
        dk = 1e-4
        up = solve_ground_state(m, k + dk, grid).lambda1
        dn = solve_ground_state(m, k - dk, grid).lambda1
        fd = (up - dn) / (2.0 * dk)
        assert fh < 0.0
        assert abs(fh - fd) <= 1e-5 * abs(fd)


def test_momentum_derivative_projection(model, grid):
    st, dphi, cap = dk_phi1(model, 1.5, grid)
    # after projection the derivative is exactly transverse to phi_1
    assert abs(grid.h * float(st.phi1 @ dphi)) <= 1e-10
    assert cap > 0.0
    assert np.all(np.isfinite(dphi))


def test_momentum_derivative_deep_band_limit():
    # far inside the band the fiber problem is a rigidly translated
    # oscillator, so |dk phi|^2 -> 1/(2b)
    m = ModelParams(1.0)
    _, _, cap = dk_phi1(m, 8.0, make_grid(m, 8.0))
    assert abs(cap - 0.5) <= 1e-3


def test_momentum_derivative_norm_matches_dense_reference():
    # Richardson-differenced eigenvectors of the same P1 pencil from dense
    # eigh; the reference agrees with itself to about 2e-9 at n = 800
    m = ModelParams(1.0)
    grid = HalfLineGrid(L=14.0, n=800)
    for k in (1.0, 1.5, 2.0):
        _, _, cap = dk_phi1(m, k, grid)
        want = cap_reference(1.0, k, grid.L, grid.n)
        assert abs(cap - want) <= 1e-8 * want, (k, cap, want)


def test_confinement_guard():
    m = ModelParams(1.0)
    with pytest.raises(GridError) as err:
        build_fiber_operator(m, 8.0, HalfLineGrid(L=12.0, n=2000))
    assert "confinement" in str(err.value)


def test_auto_length_respects_the_wall():
    m = ModelParams(1.0)
    assert auto_length(m, 2.0) == pytest.approx(14.0, rel=1e-12)
    for k in (-3.0, 0.0, 2.0, 8.0):
        L = auto_length(m, k)
        assert (L - k) ** 2 >= 10.0 * (3.0 + k * k) - 1e-9


def test_parameter_validation():
    with pytest.raises(DomainError):
        ModelParams(0.0)
    with pytest.raises(DomainError):
        HalfLineGrid(L=-1.0, n=4000)
    with pytest.raises(DomainError):
        HalfLineGrid(L=10.0, n=100)

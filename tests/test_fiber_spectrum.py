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
    dk_phi1,
    fiber_band,
    make_grid,
    solve_ground_state,
)

from _reference import band_reference, lam_exact, lam_reference
from oracles import INDEPENDENT_LAM, PIN_LAM1_AT_0, PIN_LAM1_AT_8, PIN_LAM1_WINDOW


def lam(b, k, **kw):
    m = ModelParams(b)
    return solve_ground_state(m, k, make_grid(m, k, **kw)).lambda1


def test_frozen_lam_reference_is_honest():
    live = lam_reference(1.0, 1.0)
    assert abs(live - INDEPENDENT_LAM[(1.0, 1.0)]) < 1e-9


def test_matches_independent_fd_reference():
    # the FD + Richardson oracle and the Legendre-Galerkin basis share no
    # code; the frozen values are themselves a few 1e-10 off the exact ones
    for (b, k), want in INDEPENDENT_LAM.items():
        got = lam(b, k)
        assert abs(got - want) <= 5e-4 * max(1.0, abs(want)), (b, k, got, want)


def test_matches_exact_parabolic_cylinder_oracle():
    # the root of D_nu(-k sqrt(2/b)) by mpmath; at k = 8 the exact gap above
    # b is 1.4e-27, so what the solver reports there is its Ritz excess
    for (b, k), guess in INDEPENDENT_LAM.items():
        want = lam_exact(b, k, guess)
        got = lam(b, k)
        assert abs(got - want) <= 1e-10, (b, k, got, want)
        assert got >= want  # a Ritz value bounds the eigenvalue from above


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
    # the gap above the Landau level shrinks like k e^{-k^2} and sinks below
    # double precision past k ~ 6, so the strict comparison is only
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


def test_grid_refinement_changes_nothing():
    # n only sets where phi_1 is sampled; a longer truncation grows the
    # basis with it (N ~ L sqrt(b)) and leaves the converged band alone
    m = ModelParams(1.0)
    ks = [1.0, 1.5, 2.0]
    base = fiber_band(m, ks, HalfLineGrid(L=14.0, n=800))
    fine = fiber_band(m, ks, HalfLineGrid(L=14.0, n=3200))
    assert all(np.array_equal(a, b) for a, b in zip(base, fine))
    for L in (21.0, 28.0):
        for got, want in zip(fiber_band(m, ks, HalfLineGrid(L=L)), base):
            assert np.max(np.abs(got / want - 1.0)) <= 1e-10, (L, got, want)


def test_state_quality(model, grid):
    st = solve_ground_state(model, 1.0, grid)
    h = grid.h
    assert abs(h * float(st.phi1 @ st.phi1) - 1.0) <= 1e-12
    # the samples solve the equation: their difference-form Rayleigh
    # quotient is lambda_1 up to the O(h^2) error of the difference (1.5e-6)
    steps = np.diff(np.concatenate(([0.0], st.phi1, [0.0])))
    energy = float(steps @ steps) / h + h * float((grid.x - 1.0) ** 2 @ st.phi1**2)
    assert abs(energy - st.lambda1) <= 1e-5
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
    # finite differences at h and h/2 with a pinned derivative solve each,
    # Richardson-extrapolated; the reference moves by under 1e-10 from
    # n = 2000 to n = 4000
    m = ModelParams(1.0)
    grid = HalfLineGrid(L=14.0)
    for k in (1.0, 1.5, 2.0):
        _, _, cap = dk_phi1(m, k, grid)
        want = band_reference(1.0, k, grid.L)[2]
        assert abs(cap - want) <= 1e-8 * want, (k, cap, want)


def test_confinement_guard():
    m = ModelParams(1.0)
    with pytest.raises(GridError) as err:
        solve_ground_state(m, 8.0, HalfLineGrid(L=12.0, n=2000))
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

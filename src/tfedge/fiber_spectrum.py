"""Ground state of the shifted-oscillator fiber operator on the half line.

For each transverse momentum k the fiber Hamiltonian is

    h(k) = -d^2/dx^2 + (b x - k)^2   on (0, inf), Dirichlet at 0,

whose lowest eigenvalue lambda_1(k) decreases from 3b at k = 0 toward the
Landau level b as k -> +inf (the well at x = k/b moves away from the wall).

Discretisation.  The operator is truncated to (0, L) and treated by a
Legendre-Galerkin Ritz method (Shen, SIAM J. Sci. Comput. 15 (1994) 1489):
the basis psi_j = P_j - P_{j+2}, j < N, in t = 2x/L - 1, vanishes at both
ends.  N = ceil(2.6 L sqrt(b)) holds lambda_1 within about 1e-11 of the
exact parabolic-cylinder eigenvalue at every auto_length truncation; the
products of basis functions are polynomials, so one Gauss-Legendre rule of
N + 4 points integrates every matrix exactly, and one Cholesky factor of
the mass matrix makes the basis orthonormal.

The factorisation h(k) - b = A^* A, A = d/dx + (b x - k), makes the Galerkin
matrix of h(k) - b the Gram matrix of A on the basis, so the squared
singular values of A are the Ritz values minus b.  One stacked SVD over all
momenta gives every Ritz pair; lambda_1 = b + s_1^2 then stays above b in
floating point too (at k = 8, b = 1, where the exact gap is 1.4e-27, what
it reads above b is the Ritz excess of the basis), and the gaps
lambda_j - lambda_1 = (s_j - s_1)(s_j + s_1) keep their relative accuracy.
From the pairs, lambda_1' = <phi_1, -2(b x - k) phi_1> (Feynman-Hellmann)
and the momentum derivative of the ground state,

    d_k phi_1 = sum_{j>1} phi_j <phi_j, 2(b x - k) phi_1> / (lambda_j - lambda_1),

are exact within the basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError

__all__ = [
    "ModelParams",
    "HalfLineGrid",
    "GroundState",
    "auto_length",
    "make_grid",
    "fiber_band",
    "solve_ground_state",
    "dk_phi1",
]


@dataclass(frozen=True)
class ModelParams:
    """Field strength b > 0 of the transverse confinement."""

    b: float = 1.0

    def __post_init__(self):
        if not (self.b > 0.0 and np.isfinite(self.b)):
            raise DomainError(f"ModelParams.b must be positive, got {self.b!r}")


@dataclass(frozen=True)
class HalfLineGrid:
    """Truncation (0, L) of the half line, and the n interior points
    x_j = j*h, j = 1..n, h = L/(n+1), where GroundState samples its state."""

    L: float
    n: int = 4000

    def __post_init__(self):
        if not (self.L > 0.0 and np.isfinite(self.L)):
            raise DomainError(f"HalfLineGrid.L must be positive, got {self.L!r}")
        if self.n < 200:
            raise DomainError(f"HalfLineGrid.n must be at least 200, got {self.n!r}")

    @property
    def h(self) -> float:
        return self.L / (self.n + 1)

    @property
    def x(self) -> np.ndarray:
        """Interior points only; the Dirichlet endpoints are implicit."""
        return self.h * np.arange(1, self.n + 1)


def auto_length(model: ModelParams, k: float) -> float:
    """Truncation length that keeps the potential wall at x = L high.

    Past the classical turning point the state decays like a Gaussian of
    width 1/sqrt(b); twelve widths beyond the well centre is far more than
    double precision can resolve.  The second branch enforces
    V(L) >= 10*(3b + k^2) directly so the confinement check below can never
    reject a grid this function built.
    """
    b = model.b
    base = 12.0 / math.sqrt(b) + max(k, 0.0) / b
    wall = (k + math.sqrt(10.0 * (3.0 * b + k * k))) / b + 1.0 / math.sqrt(b)
    return max(base, wall)


def make_grid(model: ModelParams, k: float, n: int = HalfLineGrid.n) -> HalfLineGrid:
    """Grid of n interior points on (0, auto_length(model, k))."""
    return HalfLineGrid(L=auto_length(model, k), n=n)


@dataclass(frozen=True)
class GroundState:
    """Ground-state data at one momentum.

    phi1 is the L2-normalised ground state sampled at the grid's interior
    points, sign-fixed so its peak is positive; dlambda1 is lambda_1'(k).
    """

    k: float
    lambda1: float
    phi1: np.ndarray
    dlambda1: float


def _check_confinement(model: ModelParams, ks: np.ndarray, L: float) -> None:
    """GridError when the truncated potential wall is too low to confine the
    ground state at some k, specifically when V(L) < 10*(3b + k^2)."""
    b = model.b
    low = (b * L - ks) ** 2 < 10.0 * (3.0 * b + ks * ks)
    if np.any(low):
        k = float(ks[np.argmax(low)])
        raise GridError(
            f"potential at x=L is {(b * L - k) ** 2:.3f} but confinement needs at least "
            f"{10.0 * (3.0 * b + k * k):.3f}; enlarge L (k={k}, L={L})"
        )


def _ritz(model: ModelParams, ks: np.ndarray, L: float):
    """Ritz pairs of h(k) on the Shen basis of (0, L) at every k in ks.

    Returns (lam, dlam, dcoef, coef): lambda_1 and lambda_1' per k; the
    coefficients of d_k phi_1 on phi_2..phi_N, shape (n_k, N - 1); and the
    Shen coefficients of phi_1..phi_N, shape (n_k, N, N), one column each.
    GridError before any allocation past N = 256 (91 at the auto length of
    k = 8, b = 1; 37 at the defaults), as the arrays grow as N^2 a node:
    2.4 GB at N = 2 168 (b = 1e-4, 64 nodes).
    """
    _check_confinement(model, ks, L)
    b = model.b
    N = 2.6 * L * math.sqrt(b)
    if not N <= 256:
        raise GridError(f"b = {b!r} and L = {L!r} need N = 2.6 L sqrt(b) = {N:.6g} basis functions, more than 256")
    N = math.ceil(N)
    t, w = np.polynomial.legendre.leggauss(N + 4)
    P = np.polynomial.legendre.legvander(t, N + 1)
    psi = P[:, :N] - P[:, 2:]
    # (P_j - P_{j+2})' = -(2j + 3) P_{j+1}, and dt/dx = 2/L
    dpsi = (-2.0 / L) * (2.0 * np.arange(N) + 3.0) * P[:, 1 : N + 1]
    x = 0.5 * L * (t + 1.0)
    sw = np.sqrt(0.5 * L * w)[:, None]
    # psi @ R is orthonormal on (0, L): R^T (mass) R = I
    R = np.linalg.inv(np.linalg.cholesky((sw * psi).T @ (sw * psi))).T
    Q = sw * (psi @ R)
    A = sw * ((dpsi + b * x[:, None] * psi) @ R) - ks[:, None, None] * Q
    _, s, vt = np.linalg.svd(A, full_matrices=False)
    s = s[:, ::-1]
    V = np.swapaxes(vt[:, ::-1, :], 1, 2)
    # values at the Gauss points times sqrt(weight): U^T f U is the matrix
    # of multiplication by f between the Ritz vectors
    U = Q @ V
    g = np.einsum("ngj,ng->nj", U, (b * x[None, :] - ks[:, None]) * U[:, :, 0])
    gap = (s[:, 1:] - s[:, :1]) * (s[:, 1:] + s[:, :1])
    return b + s[:, 0] ** 2, -2.0 * g[:, 0], 2.0 * g[:, 1:] / gap, R @ V


def fiber_band(model: ModelParams, ks, grid: HalfLineGrid):
    """lambda_1, lambda_1' and the squared norm of d_k phi_1 at every k in
    ks, from one stacked SVD; GridError if grid.L does not confine some k."""
    lam, dlam, dcoef, _ = _ritz(model, np.asarray(ks, dtype=float), grid.L)
    return lam, dlam, np.sum(dcoef * dcoef, axis=1)


def dk_phi1(model: ModelParams, k: float, grid: HalfLineGrid):
    """Ground state at k and its momentum derivative, sampled on the grid.

    Returns (state, dphi, cap): the ground state, d_k phi_1 (orthogonal to
    phi_1) at the grid's interior points, and its squared L2 norm.
    """
    lam, dlam, dcoef, coef = _ritz(model, np.array([float(k)]), grid.L)
    shen = np.stack([coef[0, :, 0], coef[0, :, 1:] @ dcoef[0]], axis=1)
    legendre = np.zeros((shen.shape[0] + 2, 2))
    legendre[:-2] += shen
    legendre[2:] -= shen
    phi, dphi = np.polynomial.legendre.legval(2.0 * grid.x / grid.L - 1.0, legendre)
    if phi[np.argmax(np.abs(phi))] < 0.0:
        phi, dphi = -phi, -dphi
    state = GroundState(k=float(k), lambda1=float(lam[0]), phi1=phi, dlambda1=float(dlam[0]))
    return state, dphi, float(dcoef[0] @ dcoef[0])


def solve_ground_state(model: ModelParams, k: float, grid: HalfLineGrid) -> GroundState:
    """Lowest Ritz pair of h(k) on (0, grid.L); GridError if L does not
    confine it."""
    return dk_phi1(model, k, grid)[0]

"""Independent reference implementations used only by the tests.

All of them deliberately avoid the code paths of the package under test,
which evaluates the Mittag-Leffler function by a float64 contour integral.
The Mittag-Leffler references are a plain mpmath power series at a fixed
working precision, the real-line integral of Gorenflo, Loutchko and Luchko
by mpmath quadrature (where the series would need thousands of digits), the
large-|z| expansion on the ray |arg z| = pi alpha (where the series would
need hundreds), and the Faddeeva function at alpha = 1/2.
The band references share no arithmetic with the production solver, a
Legendre-Galerkin Ritz method solved by one numpy SVD:
- lam_exact is the exact eigenvalue b(2 nu + 1), nu the root of the
  parabolic-cylinder function D_nu(-k sqrt(2/b)) by mpmath.pcfd;
- lam_reference discretizes the half-line operator with second order finite
  differences and LAPACK's tridiagonal bisection, then removes the leading
  h^2 error by Richardson extrapolation (the frozen INDEPENDENT_LAM);
- band_fd and band_reference give lambda_1, lambda_1' and the squared norm
  of the momentum derivative of the ground state from the same difference
  matrix, the last by one pinned tridiagonal solve, at h and h/2 with
  Richardson extrapolation.
The closed-form models are coded as their docstrings write them
(closed_form_current, closed_form_msd_leads), in real arithmetic on a
spectral table's node arrays with scipy's reciprocal gamma function.
"""
import math

import mpmath as mp
import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.special import rgamma, wofz


def ml_reference(alpha, sigma, z, dps, nmax=200_000):
    """E_{alpha,sigma}(z) by direct mpmath summation at dps digits."""
    with mp.workdps(dps):
        am = mp.mpf(alpha)
        sm = mp.mpf(sigma)
        zm = mp.mpc(z)
        total = mp.mpc(0)
        zn = mp.mpc(1)
        floor = mp.mpf(10) ** (-(dps - 5))
        quiet = 0
        for n in range(nmax):
            arg = am * n + sm
            if not (arg <= 0 and arg == mp.floor(arg)):
                term = zn / mp.gamma(arg)
                total += term
                if n > 4 and abs(term) < floor * abs(total):
                    quiet += 1
                    if quiet >= 3:
                        break
                else:
                    quiet = 0
            zn *= zm
        else:
            raise RuntimeError("reference series did not settle")
        return complex(total)


def ml_gll_reference(alpha, sigma, z, dps=30):
    """E_{alpha,sigma}(z) for 0 < alpha < 1, off the rays |arg z| = pi alpha,
    from the real-line integral

        (1/(alpha pi)) Int_0^inf r^((1-sigma)/alpha) exp(-r^(1/alpha))
            (r sin(pi(1-sigma)) - z sin(pi(1-sigma+alpha)))
            / (r^2 - 2 r z cos(pi alpha) + z^2) dr

    plus (1/alpha) z^((1-sigma)/alpha) exp(z^(1/alpha)) where |arg z| < pi alpha,
    by mpmath's tanh-sinh quadrature at dps digits.  The integral converges
    for sigma < 1 + alpha, and its integrand is bounded at r = 0 for sigma
    <= 1; a sigma >= 1 + alpha is taken at sigma - k alpha <= 1, the fewest
    k, and climbed by E_{a,s+a}(z) = (E_{a,s}(z) - 1/Gamma(s)) / z at dps
    digits, which is meant for |z| >= 1.
    """
    steps = 0
    while sigma >= 1.0 + alpha and sigma - steps * alpha > 1.0:
        steps += 1
    with mp.workdps(dps):
        a, zm = mp.mpf(alpha), mp.mpc(z)
        s = mp.mpf(sigma) - steps * a
        s1, s2, c = mp.sinpi(1 - s), mp.sinpi(1 - s + a), mp.cospi(a)

        def kernel(r):
            return (
                r ** ((1 - s) / a) * mp.exp(-(r ** (1 / a))) * (r * s1 - zm * s2)
                / (r * r - 2 * r * zm * c + zm * zm)
            )

        # the integrand has spent itself (below e^-60) by r = 60^alpha
        cut = mp.mpf(60) ** a
        value = mp.quad(kernel, [0, cut / 4, cut / 2, cut]) / (a * mp.pi)
        if abs(mp.arg(zm)) < mp.pi * a:
            value += zm ** ((1 - s) / a) * mp.exp(zm ** (1 / a)) / a
        for _ in range(steps):
            value = (value - mp.rgamma(s)) / zm
            s += a
        return complex(value)


def ml_ray_expansion(alpha, sigma, z, dps=40, tol=1e-25):
    """E_{alpha,sigma}(z) on the ray |arg z| = pi alpha far out, by the
    expansion -Sum_{k>=1} z^-k / Gamma(sigma - alpha k) at dps digits.

    On the ray the pole's exponential is e^(-|z|^(1/alpha)) in size, and so
    is the error of the expansion at its smallest term, near
    k = |z|^(1/alpha) / alpha; the sum must settle (three nonzero terms in a
    row below tol of it) before that.
    """
    smallest = abs(z) ** (1.0 / alpha) / alpha
    with mp.workdps(dps):
        zm, total = mp.mpc(z), mp.mpc(0)
        quiet = 0
        for k in range(1, int(smallest)):
            term = zm ** -k * mp.rgamma(sigma - alpha * k)
            total -= term
            if term != 0:
                quiet = quiet + 1 if abs(term) < tol * abs(total) else 0
            if quiet == 3:
                return complex(total)
        raise RuntimeError("ray expansion did not settle before its smallest term")


def ml_half(sigma, z):
    """E_{1/2,sigma}(z) for sigma in {1/2, 1}: E_{1/2,1}(z) = w(-iz) and
    E_{1/2,1/2}(z) = 1/sqrt(pi) + z w(-iz), w the Faddeeva function."""
    e1 = complex(wofz(-1j * complex(z)))
    if sigma == 1.0:
        return e1
    assert sigma == 0.5
    return 1.0 / math.sqrt(math.pi) + z * e1


def _lam_fd(b, k, L, n):
    h = L / (n + 1)
    x = h * np.arange(1, n + 1)
    diag = 2.0 / h**2 + (b * x - k) ** 2
    off = np.full(n - 1, -1.0 / h**2)
    return float(
        eigh_tridiagonal(diag, off, select="i", select_range=(0, 0), eigvals_only=True)[0]
    )


def lam_reference(b, k):
    """Lowest eigenvalue of -d^2/dx^2 + (bx-k)^2 on (0, L), Dirichlet.

    Finite differences at two resolutions with h exactly halved; the
    extrapolant (4*fine - coarse)/3 kills the h^2 term and is good to
    about 1e-9 at these sizes.
    """
    reach = 12.0 / math.sqrt(b) + max(k, 0.0) / b
    wall = (k + math.sqrt(10.0 * (3.0 * b + k * k))) / b + 1.0 / math.sqrt(b)
    L = max(reach, wall)
    coarse = _lam_fd(b, k, L, 6000)
    fine = _lam_fd(b, k, L, 12001)
    return (4.0 * fine - coarse) / 3.0


def lam_exact(b, k, guess, dps=30):
    """Lowest eigenvalue of -d^2/dx^2 + (bx-k)^2 on (0, inf), Dirichlet at 0.

    With y = sqrt(2b)(x - k/b) the operator is 2b(-d^2/dy^2 + y^2/4), whose
    decaying solutions are the parabolic-cylinder functions D_nu(y) with
    eigenvalue b(2 nu + 1); the wall at x = 0 asks for D_nu(-k sqrt(2/b)) = 0.
    The root is found from the eigenvalue guess with mpmath.pcfd.  D_nu(y0)
    is scaled by e^(y0^2/4), because for k >> sqrt(b) it is of order
    e^(-y0^2/4) on both sides of the root (1e-14 at k = 8, b = 1) and an
    unscaled findroot stops at nu = 0.
    """
    with mp.workdps(dps):
        y0 = -mp.mpf(k) * mp.sqrt(2 / mp.mpf(b))
        nu = mp.findroot(
            lambda nu: mp.pcfd(nu, y0) * mp.exp(y0 * y0 / 4), (mp.mpf(guess) / b - 1) / 2
        )
        return float(b * (2 * nu + 1))


def band_fd(b, k, L, n):
    """(lambda_1, lambda_1', ||d_k phi_1||^2) of the 3-point difference
    matrix on (0, L) with n interior points.

    The eigenvector comes from LAPACK's tridiagonal bisection and inverse
    iteration; lambda_1 is its Rayleigh quotient in difference form, which
    keeps the rounding at eps * lambda instead of eps / h^2.  lambda_1' is
    the discrete Feynman-Hellmann sum, and d_k phi_1 solves
    (A - lambda_1) d = -(A' - lambda_1') phi_1 with the entry at the peak of
    |phi_1| pinned to zero (Nelson, AIAA J. 14 (1976) 1201), then loses its
    phi_1 component.  Each of the three has an error expansion in h^2.
    """
    h = L / (n + 1)
    x = h * np.arange(1, n + 1)
    V = (b * x - k) ** 2
    diag = 2.0 / h**2 + V
    off = np.full(n - 1, -1.0 / h**2)
    v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[1][:, 0]
    v = v / math.sqrt(h * float(v @ v))
    steps = np.diff(np.concatenate(([0.0], v, [0.0])))
    lam = h * (float(steps @ steps) / h**2 + float(V @ (v * v)))
    dV = -2.0 * (b * x - k)
    dlam = h * float(dV @ (v * v))
    rhs = (dlam - dV) * v
    ab = np.zeros((3, n))
    ab[0, 1:] = off
    ab[1] = diag - lam
    ab[2, :-1] = off
    p = int(np.argmax(np.abs(v)))
    ab[0, p : p + 2] = 0.0
    ab[2, max(p - 1, 0) : p + 1] = 0.0
    ab[1, p] = 1.0
    rhs[p] = 0.0
    d = solve_banded((1, 1), ab, rhs)
    d -= h * float(v @ d) * v
    return lam, dlam, h * float(d @ d)


def band_reference(b, k, L, n=4000):
    """band_fd at n and 2n + 1 points (h exactly halved), Richardson-
    extrapolated: (4 fine - coarse) / 3 for each of the three values."""
    coarse = np.array(band_fd(b, k, L, n))
    fine = np.array(band_fd(b, k, L, 2 * n + 1))
    return tuple((4.0 * fine - coarse) / 3.0)


def closed_form_current(alpha, beta, table, t):
    """The large-time current model of the regime of (alpha, beta) at time t:
    case 1 for beta < alpha, the plateau model on beta = alpha, case 2 for
    beta > alpha, as the docstrings of tfedge.edge_current write them."""
    w, lam, dlam = table.rule.weights, table.lam, table.dlam
    chi, dchi = table.chi_vals, table.dchi_vals
    root = lam ** (1.0 / alpha)
    mid = lam ** ((1.0 - alpha) / alpha)
    corr_coef = 2.0 * t**-alpha * rgamma(1.0 - alpha) / alpha
    if beta < alpha:
        theta = math.pi * beta / (2.0 * alpha)
        lead = -(2.0 / alpha**2) * math.sin(theta) * np.sum(
            w * root * chi * dchi * np.exp(2.0 * t * root * math.cos(theta))
        )
        phase = t * root * math.sin(theta) + theta + 0.5 * math.pi * (1.0 + beta)
        corr = corr_coef * np.sum(
            w * np.cos(phase) * mid * chi * dchi * np.exp(t * root * math.cos(theta))
        )
        return lead - corr
    if beta == alpha:
        lead = (1.0 / alpha**3) * np.sum(w * mid * dlam * chi**2)
        corr = corr_coef * np.sum(w * mid * chi * dchi * np.cos(0.5 * math.pi * alpha + t * root))
        return lead + corr
    bracket = rgamma(1.0 - 2.0 * alpha) * rgamma(-alpha) - rgamma(1.0 - alpha) * rgamma(
        -2.0 * alpha
    )
    return (
        3.0 * t ** -(1.0 + 3.0 * alpha) * math.cos(0.5 * math.pi * (1.0 + beta)) * bracket
        * np.sum(w * lam**-4 * dlam * chi**2)
    )


def closed_form_msd_leads(alpha, table):
    """(ballistic coefficient on beta = alpha, decay coefficient for
    beta > alpha) as the docstrings of tfedge.msd write them; the second is
    None at alpha = 1."""
    w, lam, dlam = table.rule.weights, table.lam, table.dlam
    chi, dchi = table.chi_vals, table.dchi_vals
    ballistic = np.sum(w * lam ** (2.0 * (1.0 - alpha) / alpha) * dlam**2 * chi**2) / alpha**2
    if alpha == 1.0:
        return ballistic, None
    ra, r1 = rgamma(-alpha), rgamma(1.0 - alpha)
    decay = (
        ra**2 * np.sum(w * dlam**2 * lam**-4 * chi**2)
        + r1**2 * np.sum(w * (dchi**2 + chi**2 * table.cap) * lam**-2)
        + 2.0 * ra * r1 * np.sum(w * dlam * lam**-3 * chi * dchi)
    )
    return ballistic, decay

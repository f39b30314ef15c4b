"""Transverse spreading of the evolved wavepacket along the edge direction.

The second moment of the edge coordinate decomposes, after Fourier transform
in the edge variable, into four momentum integrals:

    A(t) = t^(2 alpha) Int |E_{a,a}(z)|^2 (lambda')^2 chi^2 dk
    B(t) =             Int |E_{a,1}(z)|^2 (chi')^2 dk
    C(t) =             Int |E_{a,1}(z)|^2 chi^2 Phi dk
    F(t) = 2 t^alpha   Int Re{ (-i)^beta E_{a,a}(z) conj(E_{a,1}(z)) }
                           lambda' chi' chi dk

with z = (-i)^beta t^alpha lambda_1(k) and Phi(k) the squared norm of the
projected momentum gradient of the transverse mode.  A is the ballistic
channel (band velocity), B and C are the packet's intrinsic k-width and the
mode deformation, F the cross term; at alpha = beta = 1 the phases align so
F vanishes identically.

The long-time models: on the diagonal beta = alpha the ballistic channel
dominates and msd ~ t^2 times msd_naber_leading; for beta > alpha every
channel decays and t^(2 alpha) * msd approaches msd_case2_leading.

msd_trace(order, table, times) takes the channels at every time from one
ml_pair call, and msd_direct is its one-time case; both raise OverflowGuard
where a node value leaves double range (the growth regime at large t).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .edge_current import (
    FractionalOrder,
    QuadratureRule,
    SpectralTable,
    TransportTrace,
    _finite,
    _fsum_dot,
    _ml_over_times,
    _table,
    neg_i_power,
)
from .errors import DomainError
from .fiber_spectrum import HalfLineGrid, ModelParams
from .mittag_leffler import (
    gamma_reciprocal,
    ml_eval,  # noqa: F401  perfbench's traced run rebinds msd.ml_eval
)
from .wavepacket import ChiProfile

__all__ = [
    "MSDBreakdown",
    "msd_direct",
    "msd_assembled",
    "msd_naber_leading",
    "msd_case2_leading",
    "msd_trace",
    "packet_norm_sq",
]


@dataclass(frozen=True)
class MSDBreakdown:
    """The four spreading channels and their sum at one time."""

    A: float
    B: float
    C: float
    F: float
    total: float


def packet_norm_sq(table: SpectralTable) -> float:
    """Squared norm of the packet, Int chi^2 dk (transverse mode is unit)."""
    return _fsum_dot(table.rule.weights, table.chi_vals**2)


def msd_direct(
    order: FractionalOrder,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    t: float,
    table: Optional[SpectralTable] = None,
) -> MSDBreakdown:
    """Exact-kernel second moment at time t, split into its four channels;
    the one-time case of msd_trace.

    Needs the mode-deformation norm Phi, so a supplied table must carry cap
    data (build_spectral_table with with_cap=True).
    """
    tab = _table(model, profile, grid, rule, table, with_cap=True)
    return _msd_channels(order, tab, [t])[0]


def _msd_channels(order, tab, times):
    """MSDBreakdown at each time: one ml_pair call, then one correctly
    rounded sum per channel and time (OverflowGuard past double range)."""
    if tab.cap is None:
        raise DomainError("supplied SpectralTable lacks the dk-phi norm data")
    a = order.alpha
    rot = neg_i_power(order.beta)
    w = tab.rule.weights
    chi2 = tab.chi_vals**2
    eaa_rows, ea1_rows = _ml_over_times(order, tab, times)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t, eaa, ea1 in zip(times, eaa_rows, ea1_rows):
            ea1_sq = np.abs(ea1) ** 2
            A = t ** (2.0 * a) * _fsum_dot(w, np.abs(eaa) ** 2 * tab.dlam**2 * chi2)
            B = _fsum_dot(w, ea1_sq * tab.dchi_vals**2)
            C = _fsum_dot(w, ea1_sq * chi2 * tab.cap)
            cross = (rot * eaa * np.conj(ea1)).real * tab.dlam * tab.dchi_vals * tab.chi_vals
            F = 2.0 * t**a * _fsum_dot(w, cross)
            out.append(MSDBreakdown(A=A, B=B, C=C, F=F, total=_finite(A + B + C + F, "msd(t)")))
    return out


def msd_assembled(
    order: FractionalOrder,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    t: float,
    table: Optional[SpectralTable] = None,
) -> float:
    """Second moment recomputed from the momentum gradient of the evolved
    amplitude, squared after assembly rather than channel by channel.

    Per node the gradient has a component along the transverse mode,
    g = t^alpha (-i)^beta lambda' chi E_{a,a} + chi' E_{a,1}, and an
    orthogonal component chi E_{a,1} of squared norm Phi, so the integrand is
    |g|^2 + chi^2 |E_{a,1}|^2 Phi.  Equals the channel sum up to rounding;
    kept as an independent consistency path.
    """
    tab = _table(model, profile, grid, rule, table, with_cap=True)
    a = order.alpha
    (eaa,), (ea1,) = _ml_over_times(order, tab, [t])
    with np.errstate(over="ignore", invalid="ignore"):
        g = t**a * neg_i_power(order.beta) * tab.dlam * tab.chi_vals * eaa + tab.dchi_vals * ea1
        dens = np.abs(g) ** 2 + tab.chi_vals**2 * np.abs(ea1) ** 2 * tab.cap
    return _fsum_dot(tab.rule.weights, dens)


def msd_naber_leading(
    alpha: float,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    table: Optional[SpectralTable] = None,
) -> float:
    """Ballistic coefficient on the diagonal beta = alpha:

        msd(t) ~ t^2 (1/alpha^2) Int lambda^(2(1-alpha)/alpha) (lambda')^2 chi^2 dk.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    tab = _table(model, profile, grid, rule, table)
    vals = tab.lam ** (2.0 * (1.0 - alpha) / alpha) * tab.dlam**2 * tab.chi_vals**2
    return (1.0 / alpha**2) * _fsum_dot(tab.rule.weights, vals)


def msd_case2_leading(
    alpha: float,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    table: Optional[SpectralTable] = None,
) -> float:
    """Decay coefficient for beta > alpha, from E_{a,a}(z) ~ -z^-2/Gamma(-alpha)
    and E_{a,1}(z) ~ -z^-1/Gamma(1-alpha) in the A, B + C and F channels:

        t^(2 alpha) msd(t) -> (1/Gamma(-alpha)^2) Int (lambda')^2 lambda^-4 chi^2 dk
                            + (1/Gamma(1-alpha)^2) Int ((chi')^2 + chi^2 Phi) lambda^-2 dk
                            + (2/(Gamma(-alpha) Gamma(1-alpha))) Int lambda' lambda^-3 chi chi' dk.

    At alpha = 1/2 the reciprocal-gamma factors are 1/(4 pi), 1/pi and
    -1/pi.  Needs cap data for the Phi part.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"decay coefficient requires alpha in (0, 1), got {alpha!r}")
    tab = _table(model, profile, grid, rule, table, with_cap=True)
    w = tab.rule.weights
    ballistic = gamma_reciprocal(-alpha) ** 2 * _fsum_dot(
        w, tab.dlam**2 * tab.lam**-4 * tab.chi_vals**2
    )
    width = gamma_reciprocal(1.0 - alpha) ** 2 * _fsum_dot(
        w, (tab.dchi_vals**2 + tab.chi_vals**2 * tab.cap) * tab.lam**-2
    )
    cross = 2.0 * gamma_reciprocal(-alpha) * gamma_reciprocal(1.0 - alpha) * _fsum_dot(
        w, tab.dlam * tab.lam**-3 * tab.chi_vals * tab.dchi_vals
    )
    return ballistic + width + cross


def msd_trace(
    order: FractionalOrder,
    table: SpectralTable,
    times: Sequence[float],
) -> TransportTrace:
    """Total second moment over a time grid: msd_direct's channels at every
    time from one ml_pair call over every (time, node) pair."""
    times = [float(t) for t in times]
    return TransportTrace(
        times=np.asarray(times),
        values=np.array([br.total for br in _msd_channels(order, table, times)]),
        method="Direct",
    )

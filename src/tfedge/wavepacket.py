"""Compactly supported momentum profile of the edge wavepacket.

The profile is the standard smooth bump on [k_lo, k_hi],

    chi(k) = amplitude * exp(-1 / (1 - s^2)),   s = (2k - k_hi - k_lo) / (k_hi - k_lo),

identically zero outside the open interval.  All derivatives vanish at the
endpoints, so boundary terms never appear when integrating by parts in k.

validate_support checks that the window is spectrally admissible for a given
field strength: the packet must sit strictly inside the first band, which
means lambda_1(k_hi) > b (window not pushed to the Landau level) and
lambda_1(k_lo) < 3b (window past the k = 0 edge value).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, WindowViolation
from .fiber_spectrum import HalfLineGrid, ModelParams, fiber_band

__all__ = [
    "ChiProfile",
    "SupportReport",
    "chi",
    "chi_deriv",
    "validate_support",
]


@dataclass(frozen=True)
class ChiProfile:
    """Bump profile on (k_lo, k_hi) with peak value amplitude / e."""

    k_lo: float
    k_hi: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.k_lo) and np.isfinite(self.k_hi)):
            raise DomainError("ChiProfile endpoints must be finite")
        if not self.k_lo < self.k_hi:
            raise DomainError(
                f"ChiProfile needs k_lo < k_hi, got [{self.k_lo}, {self.k_hi}]"
            )
        if not (self.amplitude > 0.0 and np.isfinite(self.amplitude)):
            raise DomainError(
                f"ChiProfile.amplitude must be positive, got {self.amplitude!r}"
            )


def _on_support(profile: ChiProfile, k, shape):
    """shape(s, 1 - s^2) at the scaled momentum s on the open support, zero
    off it, at scalar or array k."""
    width = profile.k_hi - profile.k_lo
    s = np.atleast_1d((2.0 * np.asarray(k, dtype=float) - profile.k_hi - profile.k_lo) / width)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = shape(s[inside], 1.0 - s[inside] ** 2)
    return float(out[0]) if np.ndim(k) == 0 else out


def chi(profile: ChiProfile, k):
    """Evaluate the bump at scalar or array k; zero off the open support."""
    return _on_support(profile, k, lambda s, t: profile.amplitude * np.exp(-1.0 / t))


def chi_deriv(profile: ChiProfile, k):
    """Derivative of the bump in k.

    Written as exp(-1/t - 2 log t) * (-2 s) * (2 / width) with t = 1 - s^2.
    Combining the exponential and the 1/t^2 factor in one exponent avoids the
    0 * inf -> nan that appears near the endpoints if exp(-1/t) underflows
    before being multiplied by the diverging rational factor.
    """

    def slope(s, t):
        rise = profile.amplitude * np.exp(-1.0 / t - 2.0 * np.log(t))
        return rise * (-2.0 * s) * (2.0 / (profile.k_hi - profile.k_lo))

    return _on_support(profile, k, slope)


@dataclass(frozen=True)
class SupportReport:
    """Eigenvalues at the window endpoints and the thresholds they met."""

    k_lo: float
    k_hi: float
    lambda_at_k_lo: float
    lambda_at_k_hi: float
    b: float


def validate_support(model: ModelParams, profile: ChiProfile, grid: HalfLineGrid) -> SupportReport:
    """Check spectral admissibility of the momentum window on grid.

    Requires lambda_1(k_hi) > b and lambda_1(k_lo) < 3b, both eigenvalues
    from one fiber_band call.  Raises WindowViolation naming the offending
    endpoint; on success returns the report carrying both endpoint
    eigenvalues.
    """
    lam_lo, lam_hi = fiber_band(model, [profile.k_lo, profile.k_hi], grid)[0].tolist()
    b = model.b
    if not lam_hi > b:
        raise WindowViolation(
            f"k_hi={profile.k_hi}: lambda_1 = {lam_hi:.9f} has reached the "
            f"Landau level b = {b}; shrink the window from the right"
        )
    if not lam_lo < 3.0 * b:
        raise WindowViolation(
            f"k_lo={profile.k_lo}: lambda_1 = {lam_lo:.9f} is not below "
            f"3b = {3.0 * b}; move the window to k > 0"
        )
    return SupportReport(
        k_lo=profile.k_lo,
        k_hi=profile.k_hi,
        lambda_at_k_lo=lam_lo,
        lambda_at_k_hi=lam_hi,
        b=b,
    )

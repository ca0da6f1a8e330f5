"""Reference paths that several test modules share."""

import mpmath

from ngtmsv.analytics import _SLOPE_FLOOR
from ngtmsv.errors import StationaryPointError
from ngtmsv.series import GeneratingExponent, mixed_partial_at_zero


def herald_core(spec, quad):
    """The heralding derivative of ``spec`` applied to exp(u^T quad u): a
    dense engine run of its own on the whole 8-variable form."""
    return mixed_partial_at_zero(GeneratingExponent(8, quad), spec.derivative_spec())


def tmsv_sensitivity_mp(lam, phi):
    """delta_phi of the bare TMSV at 50 digits, from its parity signal
    f = (1 + k sin^2 phi)^(-1/2), k = 4 lam^2 / (1 - lam^2)^2, as
    sqrt(1 - f^2) / |f'|. It applies the stationary rule itself: a slope
    below ``_SLOPE_FLOOR`` raises StationaryPointError."""
    with mpmath.workdps(50):
        lam, phi = mpmath.mpf(lam), mpmath.mpf(phi)
        k = 4 * lam ** 2 / (1 - lam ** 2) ** 2
        spread = 1 + k * mpmath.sin(phi) ** 2
        slope = abs(k * mpmath.sin(phi) * mpmath.cos(phi)) * spread ** mpmath.mpf(-1.5)
        if slope < _SLOPE_FLOOR:
            raise StationaryPointError(f"reference slope {float(slope):.3e} vanishes")
        return float(mpmath.sqrt(1 - 1 / spread) / slope)

"""Reference paths that several test modules share."""

import math

import mpmath
import numpy as np

from ngtmsv.analytics import (
    _OTHERS, _PAIRED, _SLOPE_FLOOR, _cauchy, _circle_rule)
from ngtmsv.errors import StationaryPointError
from ngtmsv.model import phase_space_form, wigner_coupling
from ngtmsv.series import GeneratingExponent, _levels, mixed_partial_at_zero


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


def two_sided_numerator(batch, phi, order):
    """The parity quadrature's numerator series of every state of ``batch``
    (an ``analytics._Batch``), as ``analytics._parity_numerator`` computed
    it before it derived b's side from a's: the direction series and the
    Cauchy products of b are built from b's own coupling rows, every block
    is contracted with b, and the weight is 2^d d!. One pass takes the
    whole batch; the batch axis is never summed over."""
    dspec = batch.specs[0].derivative_spec()
    orders = dspec.orders
    kept = [i for i, v in enumerate(_PAIRED) if orders[v]]
    levels = _levels(tuple(orders[_PAIRED[i]] for i in kept))
    coupling = wigner_coupling(batch.params)[
        :, [_PAIRED[i] for i in kept] + [_OTHERS[i] for i in kept]]
    form = phase_space_form(batch.params)
    s_even, s_odd = form[:, [0, 1], [0, 1]], form[:, [0, 1], [2, 3]]
    nodes = _circle_rule(batch.specs[0].total_photons + 1)
    sin_phi, cos_phi = math.sin(phi), math.cos(phi)
    diag = s_even + s_odd * sin_phi
    diag = np.where((diag < 0.0).all(axis=1)[:, None], diag, -0.5)
    terms = order + 1
    scale = 1.0 / np.sqrt(-2.0 * diag)
    cube = scale ** 3
    d_diag = s_odd * cos_phi
    scales = np.array([scale, cube * d_diag, 1.5 * scale ** 5 * d_diag ** 2
                       - 0.5 * cube * s_odd * sin_phi]).swapaxes(0, 1)
    c, s = math.cos(0.5 * phi), math.sin(0.5 * phi)
    rot = np.array([[c, 0.0], [0.0, c], [s, 0.0], [0.0, s]])
    rots = np.array([rot, 0.5 * np.array([[-s, 0.0], [0.0, -s], [c, 0.0], [0.0, c]]),
                     -0.125 * rot])
    m = np.stack([np.einsum("eab,xeb->xab", rots[:d + 1], scales[:, d::-1])
                  for d in range(terms)], axis=1)
    m = np.einsum("xva,xdab->xdvb", coupling, m)
    ells = np.einsum("xdvb,bn->xvdn", m, nodes)[:, :, ::-1]
    half = ells.shape[1] // 2
    a = b = np.zeros((len(ells), 1, terms, ells.shape[3]), dtype=np.complex128)
    a[:, :, 0] = 1.0
    num = 0.0
    for d, block in enumerate(reversed(batch.blocks)):
        if d:
            _, parent, axis, power = levels[d]
            a = _cauchy(ells[:, axis], a[:, parent])
            b = _cauchy(ells[:, axis + half], b[:, parent])
            recip = (1.0 / power)[:, None, None]
            for parts in (a.view(np.float64), b.view(np.float64)):
                parts *= recip
        values = np.einsum("xrc,xcm->xrm", block[:, ::-1, ::-1],
                           b.view(np.float64).reshape(b.shape[:2] + (-1,)))
        values = values.view(np.complex128).reshape(a.shape)
        term = np.empty((len(a), terms, a.shape[3]), dtype=np.complex128)
        for k in range(terms):
            np.einsum("xren,xren->xn", a[:, :, k::-1], values[:, :, :k + 1], out=term[:, k])
        num = num + 2.0 ** d * math.factorial(d) * term
    scale = dspec.prefactor * math.prod(map(math.factorial, orders))
    return scale / nodes.shape[1] * num.sum(axis=-1)

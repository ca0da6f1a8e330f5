"""Physical quantities of the heralded states.

Every function takes the squeezing parameter ``lam`` and an
:class:`~ngtmsv.model.NGOperationSpec` and reduces the quantity to mixed
partial derivatives of Gaussian generating functions (see
:mod:`ngtmsv.series`). Outputs that must be real are checked for imaginary
residues before the imaginary part is discarded; quantities that normalize by
the heralding probability raise :class:`~ngtmsv.errors.DegenerateOperationError`
when that probability is below the representable floor.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dual import Dual
from .errors import (
    ConsistencyError,
    DegenerateOperationError,
    DegenerateStateError,
    ParameterError,
    StationaryPointError,
)
from .model import (
    ModelParams,
    NGOperationSpec,
    derive_params,
    moment_exponent,
    parity_aux,
    parity_form,
    phase_space_form,
    probability_form,
    tmsv_spec,
    wigner_aux_form,
    wigner_coupling,
)
from .series import (
    DerivativeSpec,
    GeneratingExponent,
    coefficient_array,
    mixed_partial_at_zero,
)

_RESIDUE_TOL = 1e-10
_PROB_FLOOR = 1e-300
_SLOPE_FLOOR = 1e-14
_PARITY_SLACK = 1e-9
_DEFAULT_MOMENT_CAP = 4


def _real(value, what: str) -> float:
    """Discard an imaginary residue after checking it is negligible."""
    re, im = value.real, value.imag
    if abs(im) > _RESIDUE_TOL * max(1.0, abs(re)):
        raise ConsistencyError(
            f"{what} carries imaginary residue {im:.3e} (re={re:.3e})")
    return float(re)


def _real_dual(value: Dual, what: str) -> Dual:
    return Dual(_real(value.value, what), _real(value.deriv, what + " derivative"))


@dataclass(frozen=True)
class PhaseSpacePoint:
    """A point (q1, p1, q2, p2) in two-mode phase space."""

    q1: float
    p1: float
    q2: float
    p2: float

    def __post_init__(self):
        for name in ("q1", "p1", "q2", "p2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ParameterError(f"phase-space coordinate {name} must be finite")

    def as_tuple(self) -> tuple:
        return (self.q1, self.p1, self.q2, self.p2)


def _as_point(point) -> tuple:
    if isinstance(point, PhaseSpacePoint):
        return point.as_tuple()
    if isinstance(point, (str, bytes)):
        raise ParameterError("phase-space point must be a sequence of numbers, "
                             f"not the string {point!r}")
    try:
        vals = tuple(point)
    except TypeError:
        raise ParameterError("phase-space point must be a sequence of numbers, "
                             f"not {type(point).__name__}") from None
    if len(vals) != 4:
        raise ParameterError("phase-space point needs 4 coordinates (q1, p1, q2, p2)")
    if not all(isinstance(v, numbers.Real) for v in vals):
        raise ParameterError(f"phase-space coordinates must be real numbers, got {vals!r}")
    vals = tuple(float(v) for v in vals)
    if not all(math.isfinite(v) for v in vals):
        raise ParameterError("phase-space coordinates must be finite")
    return vals


def _herald_core(params: ModelParams, spec: NGOperationSpec, quad) -> complex:
    """The heralding derivative applied to exp(u^T quad u)."""
    return mixed_partial_at_zero(GeneratingExponent(8, quad),
                                 spec.derivative_spec())


def _probability_core(params: ModelParams, spec: NGOperationSpec) -> float:
    core = _real(_herald_core(params, spec, probability_form(params)),
                 "heralding probability")
    if core < -_RESIDUE_TOL:
        raise ConsistencyError(f"heralding probability core is negative ({core:.3e})")
    return max(core, 0.0)


def success_probability(lam: float, spec: NGOperationSpec) -> float:
    """Probability of heralding the requested ancilla photon numbers."""
    params = derive_params(lam, spec)
    p = _probability_core(params, spec) / params.base_norm
    if p > 1.0 + _RESIDUE_TOL:
        raise ConsistencyError(f"heralding probability {p} exceeds 1")
    return min(p, 1.0)


def wigner(lam: float, spec: NGOperationSpec, point) -> float:
    """Normalized Wigner function of the heralded state at a point."""
    xi = _as_point(point)
    return wigner_polynomial(lam, spec)(xi)


@dataclass(frozen=True, eq=False)
class WignerKernel:
    """Wigner function in closed form: ``scale * num(xi) * exp(xi^T quad xi)``.

    The numerator is the heralding derivative of exp(u^T Q u + l.u) with
    l = coupling @ xi. Since exp(l.u) factorizes per variable, it equals
    sum_j coeffs[j] * prod_i l_i^j_i / j_i!, where ``coeffs`` holds
    ``prefactor * prod(k_i!) * [u^(k-j)] exp(u^T Q u)``. The numerator's
    imaginary part is a residue; calling the kernel checks and discards it.
    """

    coeffs: np.ndarray
    coupling: np.ndarray
    quad: tuple
    scale: float

    def __call__(self, point) -> float:
        xi = _as_point(point)
        num = self.coeffs
        for ell in self.coupling @ xi:
            powers = np.ones(num.shape[0], dtype=np.complex128)
            for j in range(1, len(powers)):
                powers[j] = powers[j - 1] * ell / j
            num = np.tensordot(powers, num, axes=1)
        val = _real(complex(num), "Wigner numerator")
        expo = sum(self.quad[i][j] * xi[i] * xi[j]
                   for i in range(4) for j in range(4))
        return self.scale * val * math.exp(expo)


def wigner_polynomial(lam: float, spec: NGOperationSpec) -> WignerKernel:
    """Closed-form Wigner kernel: one coefficient array of the heralding
    generating function, contracted against each point on call."""
    params = derive_params(lam, spec)
    pcore = _probability_core(params, spec)
    prob = pcore / params.base_norm
    if prob < _PROB_FLOOR:
        raise DegenerateOperationError(
            "heralding probability underflows; normalized Wigner undefined")
    dspec = spec.derivative_spec()
    fact = math.prod(map(math.factorial, dspec.orders))
    arr = coefficient_array(GeneratingExponent(8, wigner_aux_form(params)), dspec)
    coeffs = dspec.prefactor * fact * arr[0][(slice(None, None, -1),) * 8]
    quad = tuple(tuple(row) for row in phase_space_form(params))
    scale = 1.0 / (params.base_norm * math.pi ** 2 * prob)
    return WignerKernel(coeffs=coeffs, coupling=np.array(wigner_coupling(params)),
                        quad=quad, scale=scale)


def moment(lam: float, spec: NGOperationSpec, idx,
           max_total: int = _DEFAULT_MOMENT_CAP) -> float:
    """Symmetric-ordered quadrature moment <q1^a1 p1^b1 q2^a2 p2^b2>_W.

    ``idx = (a1, b1, a2, b2)`` are derivative orders on the moment source
    vector; the total order is capped (default 4). Index (0,0,0,0) returns
    exactly 1.0.
    """
    idx = tuple(idx)
    if len(idx) != 4 or any((not isinstance(k, int)) or k < 0 for k in idx):
        raise ParameterError("moment index must be four non-negative integers")
    if sum(idx) > max_total:
        raise ParameterError(
            f"moment total order {sum(idx)} exceeds cap {max_total}")
    params = derive_params(lam, spec)
    dspec = spec.derivative_spec()
    num = mixed_partial_at_zero(
        moment_exponent(params),
        DerivativeSpec(dspec.orders + idx, dspec.prefactor))
    den = _herald_core(params, spec, probability_form(params))
    den_re = _real(den, "moment denominator")
    if abs(den_re) / params.base_norm < _PROB_FLOOR:
        raise DegenerateOperationError(
            "heralding probability underflows; moments undefined")
    if idx == (0, 0, 0, 0):
        # numerator and denominator are the same arithmetic; keep it exact
        return float((num / den).real)
    return _real(num, "moment numerator") / den_re


def j2_second_moment(lam: float, spec: NGOperationSpec) -> float:
    """<J2^2> of the heralded state (J2 generates the interferometer phase)."""
    m_qp = moment(lam, spec, (2, 0, 0, 2))
    m_pq = moment(lam, spec, (0, 2, 2, 0))
    m_x = moment(lam, spec, (1, 1, 1, 1))
    return -0.125 + 0.25 * m_qp + 0.25 * m_pq - 0.5 * m_x


def qfi(lam: float, spec: NGOperationSpec) -> float:
    """Quantum Fisher information 4<J2^2> (first moment of J2 vanishes)."""
    value = 4.0 * j2_second_moment(lam, spec)
    if value <= 0.0:
        raise DegenerateStateError(
            f"quantum Fisher information {value:.3e} is not positive; "
            "the state carries no phase information")
    return value


def qcrb(lam: float, spec: NGOperationSpec) -> float:
    """Quantum Cramer-Rao bound on the phase deviation: 1/sqrt(QFI)."""
    return 1.0 / math.sqrt(qfi(lam, spec))


def parity_expectation(lam: float, spec: NGOperationSpec, phi):
    """Parity signal on the second output port after the phase evolution.

    ``phi`` may be a float (returns float) or a :class:`Dual` seeded with
    d(phi)/d(parameter) (returns the signal and its derivative).
    """
    params = derive_params(lam, spec)
    den = _probability_core(params, spec)
    if den / params.base_norm < _PROB_FLOOR:
        raise DegenerateOperationError(
            "heralding probability underflows; parity signal undefined")
    aux = parity_aux(params, phi)
    num = _herald_core(params, spec, parity_form(params, aux))
    if isinstance(num, Dual):
        num = _real_dual(num, "parity numerator")
    else:
        num = _real(num, "parity numerator")
    f = params.base_norm * num / (aux.norm * den)
    mag = abs(f.value) if isinstance(f, Dual) else abs(f)
    if mag > 1.0 + _PARITY_SLACK:
        raise ConsistencyError(f"parity signal magnitude {mag} exceeds 1")
    return f


def phase_sensitivity(lam: float, spec: NGOperationSpec, phi: float) -> float:
    """Error-propagation phase deviation of the parity signal.

    Evaluated at the operating point ``phi`` (the signal is differentiated at
    ``phi + pi/2``, where the parity fringe crosses its steep region).
    """
    fd = parity_expectation(lam, spec, Dual(phi + math.pi / 2.0, 1.0))
    slope = fd.deriv
    if abs(slope) < _SLOPE_FLOOR:
        raise StationaryPointError(
            f"parity slope {slope:.3e} vanishes at phi={phi}; sensitivity undefined")
    variance = 1.0 - fd.value * fd.value
    if variance < -2.0 * _PARITY_SLACK:
        raise ConsistencyError(f"parity variance {variance:.3e} is negative")
    return math.sqrt(max(variance, 0.0)) / abs(slope)


def merit(lam: float, spec: NGOperationSpec, phi: float) -> float:
    """Sensitivity gain over the unmodified squeezed vacuum at the same lam:
    positive when the heralded state resolves phase better."""
    ref = phase_sensitivity(lam, tmsv_spec(), phi)
    return ref - phase_sensitivity(lam, spec, phi)


def weighted_merit(lam: float, spec: NGOperationSpec, phi: float) -> float:
    """Merit weighted by the heralding probability (resource-aware gain)."""
    return success_probability(lam, spec) * merit(lam, spec, phi)


@dataclass(frozen=True)
class SensitivityReport:
    """Every figure of merit for one (lam, spec, phi) operating point."""

    lam: float
    spec: NGOperationSpec
    phi: float
    probability: float
    parity: float
    delta_phi: float
    qfi: float
    delta_phi_min: float
    merit: float
    weighted_merit: float

    def __post_init__(self):
        if not (0.0 <= self.probability <= 1.0 + _RESIDUE_TOL):
            raise ConsistencyError(
                f"probability {self.probability} outside [0, 1]")
        if abs(self.parity) > 1.0 + _PARITY_SLACK:
            raise ConsistencyError(f"parity {self.parity} outside [-1, 1]")
        if self.delta_phi < self.delta_phi_min - _PARITY_SLACK:
            raise ConsistencyError(
                f"sensitivity {self.delta_phi} beats the quantum bound "
                f"{self.delta_phi_min}")


def sensitivity_report(lam: float, spec: NGOperationSpec,
                       phi: float) -> SensitivityReport:
    """Compute all figures of merit at one operating point."""
    prob = success_probability(lam, spec)
    parity = parity_expectation(lam, spec, phi)
    dphi = phase_sensitivity(lam, spec, phi)
    fisher = qfi(lam, spec)
    bound = 1.0 / math.sqrt(fisher)
    gain = phase_sensitivity(lam, tmsv_spec(), phi) - dphi
    return SensitivityReport(
        lam=lam, spec=spec, phi=phi, probability=prob, parity=parity,
        delta_phi=dphi, qfi=fisher, delta_phi_min=bound, merit=gain,
        weighted_merit=prob * gain)


__all__ = [
    "PhaseSpacePoint",
    "WignerKernel",
    "SensitivityReport",
    "success_probability",
    "wigner",
    "wigner_polynomial",
    "moment",
    "j2_second_moment",
    "qfi",
    "qcrb",
    "parity_expectation",
    "phase_sensitivity",
    "merit",
    "weighted_merit",
    "sensitivity_report",
]

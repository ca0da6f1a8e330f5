"""Physical model: operations, derived parameters, and generating-function forms.

A two-mode squeezed vacuum with squeezing parameter ``lam = tanh(r)`` passes
each mode through a beamsplitter of transmissivity ``tau_i`` whose ancilla
port carries ``m_i`` photons in and heralds ``n_i`` photons out. ``m < n``
subtracts photons, ``m > n`` adds, ``m = n`` catalyzes. Every downstream
quantity is a mixed partial derivative, at zero, of a Gaussian generating
function ``exp(u^T Q u + ...)`` in eight formal variables (two per beam
splitter port pair, primed and unprimed); this module builds those quadratic
forms.

Variable ordering conventions used throughout:

* formal vector ``u = (u1, v1, u2, v2, u1', v1', u2', v2')``
* phase-space vector ``xi = (q1, p1, q2, p2)``
* moment-source vector ``x = (x1, y1, x2, y2)``
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

from .dual import Dual, d_cos, d_sin, d_sqrt
from .errors import ConstructionError, ParameterError
from .series import DerivativeSpec, GeneratingExponent

_KIND_ROWS = {
    # kind -> (m per mode, n per mode, tau placement) as functions of (n, tau)
    "asym-ps": lambda n, tau: ((0, 0), (0, n), (1.0, tau)),
    "asym-pa": lambda n, tau: ((0, n), (0, 0), (1.0, tau)),
    "asym-pc": lambda n, tau: ((0, n), (0, n), (1.0, tau)),
    "sym-ps": lambda n, tau: ((0, 0), (n, n), (tau, tau)),
    "sym-pa": lambda n, tau: ((n, n), (0, 0), (tau, tau)),
    "sym-pc": lambda n, tau: ((n, n), (n, n), (tau, tau)),
}


@dataclass(frozen=True)
class NGOperationSpec:
    """Per-mode ancilla photon numbers and beamsplitter transmissivities.

    ``m1, m2`` photons enter the ancilla ports; ``n1, n2`` are heralded at the
    detectors; ``tau1, tau2`` are intensity transmissivities in (0, 1].
    """

    m1: int
    m2: int
    n1: int
    n2: int
    tau1: float = 1.0
    tau2: float = 1.0

    def __post_init__(self):
        for name in ("m1", "m2", "n1", "n2"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ParameterError(f"{name} must be a non-negative integer, got {v!r}")
        for name in ("tau1", "tau2"):
            _check_tau(name, getattr(self, name))

    def mode_operation(self, mode: int) -> str:
        """'subtraction', 'addition', 'catalysis', or 'none' for mode 1 or 2."""
        m, n = (self.m1, self.n1) if mode == 1 else (self.m2, self.n2)
        if m == n == 0:
            return "none"
        if m < n:
            return "subtraction"
        if m > n:
            return "addition"
        return "catalysis"

    @property
    def total_photons(self) -> int:
        return self.m1 + self.m2 + self.n1 + self.n2

    def swapped(self) -> "NGOperationSpec":
        """The same operation with mode labels 1 and 2 exchanged."""
        return NGOperationSpec(self.m2, self.m1, self.n2, self.n1,
                               self.tau2, self.tau1)

    def derivative_spec(self) -> DerivativeSpec:
        """Derivative orders on (u1,v1,u2,v2,u1',v1',u2',v2') with the
        heralding prefactor (-2)^(m1+m2+n1+n2) / (m1! m2! n1! n2!)."""
        pref = (-2.0) ** self.total_photons / (
            math.factorial(self.m1) * math.factorial(self.m2)
            * math.factorial(self.n1) * math.factorial(self.n2))
        return DerivativeSpec(
            (self.m1, self.m1, self.m2, self.m2,
             self.n1, self.n1, self.n2, self.n2),
            prefactor=pref)


def _check_tau(name: str, tau) -> None:
    if not isinstance(tau, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {tau!r}")
    if not (0.0 < tau <= 1.0):
        raise ParameterError(f"{name} must lie in (0, 1], got {tau!r}")


def tmsv_spec() -> NGOperationSpec:
    """The do-nothing operation: heralding zero photons at full transmission."""
    return NGOperationSpec(0, 0, 0, 0, 1.0, 1.0)


def operation_from_table(kind: str, n: int, tau: float) -> NGOperationSpec:
    """Build a standard operation row.

    ``kind`` is one of asym-ps, asym-pa, asym-pc, sym-ps, sym-pa, sym-pc.
    Asymmetric rows act on mode 2 only (mode 1 kept at tau = 1); symmetric
    rows apply the same ancilla photons and tau to both modes.
    """
    key = kind.lower().replace("_", "-")
    if key not in _KIND_ROWS:
        raise ParameterError(
            f"unknown operation kind {kind!r}; expected one of {sorted(_KIND_ROWS)}")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParameterError(f"photon number n must be a positive integer, got {n!r}")
    _check_tau("tau", tau)
    (m1, m2), (n1, n2), (t1, t2) = _KIND_ROWS[key](n, tau)
    return NGOperationSpec(m1, m2, n1, n2, t1, t2)


@dataclass(frozen=True)
class ModelParams:
    """Scalars derived from (lam, tau1, tau2) that every form builder uses.

    ``sinh_r = lam/sqrt(1-lam^2)`` and ``cosh_r = 1/sqrt(1-lam^2)`` are the
    squeezing sinh/cosh; ``t_i, refl_i`` are amplitude transmissivity and
    reflectivity; ``base_norm = 1 + sinh_r^2 (1 - tau1 tau2)`` normalizes the
    zero-detection Gaussian branch.
    """

    lam: float
    tau1: float
    tau2: float
    r: float
    sinh_r: float
    cosh_r: float
    t1: float
    t2: float
    refl1: float
    refl2: float
    base_norm: float


def derive_params(lam: float, spec: NGOperationSpec) -> ModelParams:
    """Validate the squeezing parameter and derive the shared scalars."""
    if not (0.0 <= lam < 1.0):
        raise ParameterError(f"lambda must lie in [0, 1), got {lam!r}")
    r = math.atanh(lam)
    sc = 1.0 / math.sqrt(1.0 - lam * lam)
    sh = lam * sc
    t1 = math.sqrt(spec.tau1)
    t2 = math.sqrt(spec.tau2)
    refl1 = math.sqrt(1.0 - spec.tau1)
    refl2 = math.sqrt(1.0 - spec.tau2)
    base = 1.0 + sh * sh * (1.0 - spec.tau1 * spec.tau2)
    return ModelParams(lam=lam, tau1=spec.tau1, tau2=spec.tau2, r=r,
                       sinh_r=sh, cosh_r=sc, t1=t1, t2=t2,
                       refl1=refl1, refl2=refl2, base_norm=base)


# ---------------------------------------------------------------------------
# Quadratic-form builders. Entries follow the closed-form Gaussian integrals
# for the heralded state; each matrix is returned as a GeneratingExponent
# block or plain nested list with the stated variable ordering.
# ---------------------------------------------------------------------------


def _check_symmetric(mat, name):
    n = len(mat)
    for i in range(n):
        for j in range(i + 1, n):
            if not (mat[i][j] == mat[j][i]):
                raise ConstructionError(f"{name} not symmetric at ({i},{j})")


def phase_space_form(p: ModelParams):
    """4x4 quadratic form in xi for the Gaussian envelope of the Wigner function."""
    a, b = p.sinh_r, p.cosh_r
    tt = p.t1 * p.t2
    dg = a * a * (tt * tt + 1.0) + 1.0
    od = 2.0 * a * b * tt
    s = -1.0 / p.base_norm
    mat = [
        [s * dg, 0.0, s * -od, 0.0],
        [0.0, s * dg, 0.0, s * od],
        [s * -od, 0.0, s * dg, 0.0],
        [0.0, s * od, 0.0, s * dg],
    ]
    _check_symmetric(mat, "phase-space form")
    return mat


def wigner_coupling(p: ModelParams):
    """8x4 coupling of the formal vector u to xi in the Wigner generating function."""
    a, b = p.sinh_r, p.cosh_r
    t1, t2, r1, r2 = p.t1, p.t2, p.refl1, p.refl2
    s = -1.0 / p.base_norm
    bb1 = b * b * r1
    bb2 = b * b * r2
    ab12 = a * b * r1 * t1 * t2
    ab21 = a * b * r2 * t1 * t2
    aa1 = a * a * r1 * t1 * t2 * t2
    aa2 = a * a * r2 * t1 * t1 * t2
    ab1 = a * b * r1 * t2
    ab2 = a * b * r2 * t1
    rows = [
        (-bb1, -1j * bb1, ab12, -1j * ab12),
        (bb1, -1j * bb1, -ab12, -1j * ab12),
        (ab21, -1j * ab21, -bb2, -1j * bb2),
        (-ab21, -1j * ab21, bb2, -1j * bb2),
        (-aa1, -1j * aa1, ab1, -1j * ab1),
        (aa1, -1j * aa1, -ab1, -1j * ab1),
        (ab2, -1j * ab2, -aa2, -1j * aa2),
        (-ab2, -1j * ab2, aa2, -1j * aa2),
    ]
    return [[s * c for c in row] for row in rows]


def _herald_quad(p: ModelParams, sign: float):
    """Shared 8x8 pattern behind the Wigner auxiliary form (sign=-1) and the
    heralding-probability form (sign=+1); they differ only in the signs of
    the beamsplitter-reflection blocks."""
    a, b = p.sinh_r, p.cosh_r
    t1, t2, r1, r2 = p.t1, p.t2, p.refl1, p.refl2
    s = -1.0 / (4.0 * p.base_norm)
    bb1 = sign * b * b * r1 * r1
    bb2 = sign * b * b * r2 * r2
    x12 = -a * b * r1 * r2 * t1 * t2
    c1 = a * a * r2 * r2 * t1 + t1
    c2 = a * a * r1 * r1 * t2 + t2
    y1 = sign * a * b * r1 * r2 * t1
    y2 = sign * a * b * r1 * r2 * t2
    z1 = sign * a * a * r1 * r1 * t2 * t2
    z2 = sign * a * a * r2 * r2 * t1 * t1
    w = -a * b * r1 * r2
    mat = [
        [0.0, bb1, x12, 0.0, 0.0, c1, y1, 0.0],
        [bb1, 0.0, 0.0, x12, c1, 0.0, 0.0, y1],
        [x12, 0.0, 0.0, bb2, y2, 0.0, 0.0, c2],
        [0.0, x12, bb2, 0.0, 0.0, y2, c2, 0.0],
        [0.0, c1, y2, 0.0, 0.0, z1, w, 0.0],
        [c1, 0.0, 0.0, y2, z1, 0.0, 0.0, w],
        [y1, 0.0, 0.0, c2, w, 0.0, 0.0, z2],
        [0.0, y1, c2, 0.0, 0.0, w, z2, 0.0],
    ]
    return [[s * c for c in row] for row in mat]


def wigner_aux_form(p: ModelParams):
    """8x8 quadratic form in u inside the Wigner generating function."""
    return _herald_quad(p, -1.0)


def probability_form(p: ModelParams):
    """8x8 quadratic form in u whose heralding derivative gives the success
    probability (after the 1/base_norm factor)."""
    return _herald_quad(p, +1.0)


# The moment blocks are the Wigner blocks up to signs and powers of two, both
# exact in floating point: D = diag(1,1,-1,-1) acts on x and
# R = diag(1,1,-1,-1,-1,-1,1,1) on u.
_D = (1.0, 1.0, -1.0, -1.0)
_R = (1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0)


def moment_coupling(p: ModelParams):
    """8x4 coupling of u to the moment source vector x: 1/2 R C D, where C
    is :func:`wigner_coupling`."""
    return [[0.5 * r * d * c for d, c in zip(_D, row)]
            for r, row in zip(_R, wigner_coupling(p))]


def moment_source_form(p: ModelParams):
    """4x4 quadratic form in the moment source vector x: -1/4 D S D, where S
    is :func:`phase_space_form`."""
    return [[-0.25 * di * dj * c for dj, c in zip(_D, row)]
            for di, row in zip(_D, phase_space_form(p))]


@dataclass(frozen=True)
class ParityAux:
    """Phase-dependent scalars entering the parity signal.

    ``norm`` is the Gaussian normalization of the parity overlap; ``weights``
    are the 21 entry values of the parity quadratic form (index 0 is the
    shared denominator weight, which must stay positive).
    """

    phi: object
    norm: object
    weights: tuple

    def __post_init__(self):
        w0 = self.weights[0]
        val = w0.value if isinstance(w0, Dual) else w0
        if not (val.real > 0.0):
            raise ConstructionError("parity denominator weight must be positive")


def parity_aux(p: ModelParams, phi) -> ParityAux:
    """Compute the parity-form weights and normalization at phase ``phi``.

    ``phi`` may be a float or a :class:`Dual` (to differentiate the signal).
    """
    lam = p.lam
    t1, t2, r1, r2 = p.t1, p.t2, p.refl1, p.refl2
    c1 = d_cos(phi)
    s1 = d_sin(phi)
    c2 = d_cos(2 * phi)
    s2 = d_sin(2 * phi)
    tt = t1 * t2
    ltt = lam * lam * tt * tt          # lam^2 t1^2 t2^2
    lt = lam * tt                      # lam t1 t2

    w = [None] * 21
    w[0] = 2 * c2 * ltt + ltt * ltt + 1.0
    w[1] = lam * r1 * r1 * s2 * t1 * t2
    w[2] = c1 * (r1 * r1) * (ltt + 1.0)
    w[3] = lt * r1 * r2 * (c2 + ltt)
    w[4] = r1 * r2 * s1 * (ltt - 1.0)
    w[5] = lam * r1 * r1 * s1 * t2 * (ltt - 1.0)
    w[6] = (lam * lam * t2 * t2 * t1 ** 3 * (c2 + lam * lam * t2 * t2)
            + c2 * lam * lam * t2 * t2 * t1 + t1)
    w[7] = c1 * lam * r1 * r2 * t1 * (ltt + 1.0)
    w[8] = 2 * c1 * lam * lam * r1 * r2 * s1 * t1 * t1 * t2
    w[9] = -2 * c1 * lam * r2 * r2 * s1 * t1 * t2
    w[10] = -c1 * (r2 * r2) * (ltt + 1.0)
    w[11] = -c1 * lam * r1 * r2 * t2 * (ltt + 1.0)
    w[12] = -2 * c1 * lam * lam * r1 * r2 * s1 * t1 * t2 * t2
    w[13] = lam * r2 * r2 * s1 * t1 * (ltt - 1.0)
    w[14] = (lam * lam * t1 * t1 * t2 ** 3 * (c2 + lam * lam * t1 * t1)
             + c2 * lam * lam * t1 * t1 * t2 + t2)
    w[15] = -(lam ** 3) * r1 * r1 * s2 * t1 * t2 ** 3
    w[16] = -c1 * lam * lam * r1 * r1 * t2 * t2 * (ltt + 1.0)
    w[17] = -lam * r1 * r2 * (c2 * ltt + 1.0)
    w[18] = lam * lam * r1 * r2 * s1 * t1 * t2 * (ltt - 1.0)
    w[19] = (lam ** 3) * r2 * r2 * s2 * t1 ** 3 * t2
    w[20] = c1 * lam * lam * r2 * r2 * t1 * t1 * (ltt + 1.0)

    return ParityAux(phi=phi, norm=_parity_norm(p, phi), weights=tuple(w))


def _parity_norm(p: ModelParams, phi):
    """The Gaussian normalization of the parity overlap at phase ``phi``
    (a float or a :class:`Dual`)."""
    lam = p.lam
    tau12 = p.tau1 * p.tau2
    inner = 1.0 + lam * lam * tau12 * (lam * lam * tau12 + 2 * d_cos(2 * phi))
    return d_sqrt(inner) / (1.0 - lam * lam)


def parity_form(p: ModelParams, aux: ParityAux):
    """8x8 quadratic form in u for the parity-signal numerator."""
    scale = -1.0 / (4.0 * aux.weights[0])
    w = [scale * c for c in aux.weights]
    return [
        [w[1], w[2], w[3], w[4], w[5], w[6], w[7], w[8]],
        [w[2], w[1], w[4], w[3], w[6], w[5], w[8], w[7]],
        [w[3], w[4], w[9], w[10], w[11], w[12], w[13], w[14]],
        [w[4], w[3], w[10], w[9], w[12], w[11], w[14], w[13]],
        [w[5], w[6], w[11], w[12], w[15], w[16], w[17], w[18]],
        [w[6], w[5], w[12], w[11], w[16], w[15], w[18], w[17]],
        [w[7], w[8], w[13], w[14], w[17], w[18], w[19], w[20]],
        [w[8], w[7], w[14], w[13], w[18], w[17], w[20], w[19]],
    ]


def moment_exponent(p: ModelParams) -> GeneratingExponent:
    """12-variable exponent (u then x) for quadrature moments:
    u^T Q_u u + u^T C x + x^T Q_x x."""
    qu = probability_form(p)
    cx = moment_coupling(p)
    qx = moment_source_form(p)
    dim = 12
    quad = [[0.0] * dim for _ in range(dim)]
    for i in range(8):
        for j in range(8):
            quad[i][j] = qu[i][j]
    for i in range(8):
        for a in range(4):
            quad[i][8 + a] = cx[i][a] / 2.0
            quad[8 + a][i] = cx[i][a] / 2.0
    for a in range(4):
        for b in range(4):
            quad[8 + a][8 + b] = qx[a][b]
    return GeneratingExponent(dim, quad)


__all__ = [
    "NGOperationSpec",
    "ModelParams",
    "ParityAux",
    "tmsv_spec",
    "operation_from_table",
    "derive_params",
    "phase_space_form",
    "wigner_coupling",
    "wigner_aux_form",
    "probability_form",
    "moment_coupling",
    "moment_source_form",
    "parity_aux",
    "parity_form",
    "moment_exponent",
]

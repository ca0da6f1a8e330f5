"""Physical model: operations, derived parameters, and generating-function forms.

A two-mode squeezed vacuum with squeezing parameter ``lam = tanh(r)`` passes
each mode through a beamsplitter of transmissivity ``tau_i`` whose ancilla
port carries ``m_i`` photons in and heralds ``n_i`` photons out. ``m < n``
subtracts photons, ``m > n`` adds, ``m = n`` catalyzes. Every downstream
quantity is a mixed partial derivative, at zero, of a Gaussian generating
function ``exp(u^T Q u + ...)`` in eight formal variables (two per beam
splitter port pair, primed and unprimed); this module builds those quadratic
forms. The heralding-probability form is derived from the Wigner auxiliary
form as D Q_aux D, with D a diagonal of signs.

Variable ordering conventions used throughout:

* formal vector ``u = (u1, v1, u2, v2, u1', v1', u2', v2')``
* phase-space vector ``xi = (q1, p1, q2, p2)``
* moment-source vector ``x = (x1, y1, x2, y2)``
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .dual import Dual, d_cos, d_sin
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


def _is_real(v) -> bool:
    """Whether ``v`` is a real number: bools are not."""
    # A float is tested first: the ABC check takes about 0.3 us on CPython
    # 3.11, and the figure table alone checks 14,000 axis values on import.
    return type(v) is float or isinstance(v, numbers.Real) and not isinstance(v, bool)


def _check_tau(name: str, tau) -> None:
    if not _is_real(tau):
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
    key = kind.lower().replace("_", "-") if isinstance(kind, str) else None
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
    zero-detection Gaussian branch. For a batch of operations the fields
    that vary across it are arrays with a leading batch axis.
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

    def at(self, index: int) -> "ModelParams":
        """The scalar parameters of one entry of a batch, as Python floats."""
        return ModelParams(*(
            float(v[index]) if isinstance(v, np.ndarray) else v
            for v in (getattr(self, f.name) for f in fields(self))))


def _check_lambda(lam) -> None:
    if not _is_real(lam):
        raise ParameterError(f"lambda must be a real number, got {lam!r}")
    if not (0.0 <= lam < 1.0):
        raise ParameterError(f"lambda must lie in [0, 1), got {lam!r}")


def derive_params(lam, spec) -> ModelParams:
    """Validate the squeezing parameter and derive the shared scalars.

    ``spec`` is a sequence of :class:`NGOperationSpec` at one ``lam``, a
    batch: the fields that depend on tau are arrays over it. lam is checked
    first, then tau1 and tau2 of each spec in batch order, and the first bad
    value raises. A single spec gives entry 0 of a batch of one, whose
    tau-dependent fields are Python floats.
    """
    if isinstance(spec, NGOperationSpec):
        return derive_params(lam, (spec,)).at(0)
    _check_lambda(lam)
    specs = tuple(spec)
    tau1 = np.array([s.tau1 for s in specs], dtype=float)
    tau2 = np.array([s.tau2 for s in specs], dtype=float)
    if not ((0.0 < tau1) & (tau1 <= 1.0) & (0.0 < tau2) & (tau2 <= 1.0)).all():
        for s in specs:
            _check_tau("tau1", s.tau1)
            _check_tau("tau2", s.tau2)
    r = math.atanh(lam)
    sc = 1.0 / math.sqrt(1.0 - lam * lam)
    sh = lam * sc
    base = 1.0 + sh * sh * (1.0 - tau1 * tau2)
    return ModelParams(lam=lam, tau1=tau1, tau2=tau2, r=r,
                       sinh_r=sh, cosh_r=sc, t1=np.sqrt(tau1), t2=np.sqrt(tau2),
                       refl1=np.sqrt(1.0 - tau1), refl2=np.sqrt(1.0 - tau2),
                       base_norm=base)


# ---------------------------------------------------------------------------
# Quadratic-form builders. Entries follow the closed-form Gaussian integrals
# for the heralded state. Each form is a numpy array whose leading axes are
# the batch axes of its parameters (none for a single operation). Every
# entry is its scalar expression evaluated elementwise, so a batch entry
# holds the bits of its operation alone.
# ---------------------------------------------------------------------------


def _symmetric(p: ModelParams, size: int, scale, entries: dict) -> np.ndarray:
    """A size x size form that holds ``scale * value`` at (i, j) and (j, i)
    for each ``(i, j): value`` of ``entries``, and zeros elsewhere."""
    rows, cols = zip(*entries)
    values = np.asarray(scale)[..., None] * np.array(list(entries.values())).T
    mat = np.zeros(np.shape(p.base_norm) + (size, size))
    mat[..., rows, cols] = values
    mat[..., cols, rows] = values
    return mat


def phase_space_form(p: ModelParams):
    """4x4 quadratic form in xi for the Gaussian envelope of the Wigner function."""
    a, b = p.sinh_r, p.cosh_r
    tt = p.t1 * p.t2
    dg = a * a * (tt * tt + 1.0) + 1.0
    od = 2.0 * a * b * tt
    s = -1.0 / p.base_norm
    return _symmetric(p, 4, s, {(0, 0): dg, (1, 1): dg, (2, 2): dg, (3, 3): dg,
                                (0, 2): -od, (1, 3): od})


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
    # Rows 2k and 2k+1 are (-+x_k, -1j x_k, +-y_k, -1j y_k) with x, y >= 0
    # and the upper signs at k = 0, 2. As s < 0, s * (-1j x) has real part
    # +0.0 and imaginary part s * -x = -(s * x), so the parts are filled
    # directly: parts[..., k, row in pair, column, real/imaginary].
    s = np.asarray(s)[..., None]
    x = s * np.array((bb1, ab21, aa1, ab2)).T
    y = s * np.array((ab12, bb2, ab1, aa2)).T
    sign = np.array([-1.0, 1.0, -1.0, 1.0])
    parts = np.zeros(x.shape[:-1] + (4, 2, 4, 2))
    parts[..., 0, 0, 0] = sign * x
    parts[..., 1, 0, 0] = -sign * x
    parts[..., 0, 2, 0] = -sign * y
    parts[..., 1, 2, 0] = sign * y
    parts[..., 1, 1] = -x[..., None]
    parts[..., 3, 1] = -y[..., None]
    return parts.view(np.complex128).reshape(x.shape[:-1] + (8, 4))


def wigner_aux_form(p: ModelParams):
    """8x8 quadratic form in u inside the Wigner generating function."""
    a, b = p.sinh_r, p.cosh_r
    t1, t2, r1, r2 = p.t1, p.t2, p.refl1, p.refl2
    s = -1.0 / (4.0 * p.base_norm)
    bb1 = -b * b * r1 * r1
    bb2 = -b * b * r2 * r2
    x12 = -a * b * r1 * r2 * t1 * t2
    c1 = a * a * r2 * r2 * t1 + t1
    c2 = a * a * r1 * r1 * t2 + t2
    y1 = -a * b * r1 * r2 * t1
    y2 = -a * b * r1 * r2 * t2
    z1 = -a * a * r1 * r1 * t2 * t2
    z2 = -a * a * r2 * r2 * t1 * t1
    w = -a * b * r1 * r2
    return _symmetric(p, 8, s, {
        (0, 1): bb1, (0, 2): x12, (0, 5): c1, (0, 6): y1,
        (1, 3): x12, (1, 4): c1, (1, 7): y1, (2, 3): bb2,
        (2, 4): y2, (2, 7): c2, (3, 5): y2, (3, 6): c2,
        (4, 5): z1, (4, 6): w, (5, 7): w, (6, 7): z2})


# The heralding-probability form is the Wigner auxiliary form with the
# beamsplitter-reflection blocks negated: Q_prob = D Q_aux D with
# D = diag(_PROB_SIGNS), exactly, as the signs only flip. So
# [u^j] exp(u^T Q_prob u) is the Wigner aux array times prod_i D_i^j_i.
_PROB_SIGNS = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0])


def probability_form(p: ModelParams):
    """8x8 quadratic form in u whose heralding derivative gives the success
    probability (after the 1/base_norm factor): D Q_aux D, where Q_aux is
    :func:`wigner_aux_form`."""
    return _PROB_SIGNS[:, None] * wigner_aux_form(p) * _PROB_SIGNS


# The moment blocks are the Wigner blocks up to signs and powers of two, both
# exact in floating point: D = diag(1,1,-1,-1) acts on x and
# R = diag(1,1,-1,-1,-1,-1,1,1) on u.
_D = np.array([1.0, 1.0, -1.0, -1.0])
_R = np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0])


def moment_coupling(p: ModelParams):
    """8x4 coupling of u to the moment source vector x: 1/2 R C D, where C
    is :func:`wigner_coupling`."""
    return 0.5 * _R[:, None] * _D * wigner_coupling(p)


def moment_source_form(p: ModelParams):
    """4x4 quadratic form in the moment source vector x: -1/4 D S D, where S
    is :func:`phase_space_form`."""
    return -0.25 * _D[:, None] * _D * phase_space_form(p)


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
    (a float, or a :class:`Dual` for its phase derivative too). The
    parameters may be a batch; the derivative is the chain rule that
    :class:`Dual` arithmetic applies, written out in the same order."""
    lam = p.lam
    x = lam * lam * (p.tau1 * p.tau2)
    at, seed = (phi.value, phi.deriv) if isinstance(phi, Dual) else (phi, 0.0)
    inner = 1.0 + (2 * math.cos(2 * at) + x) * x
    root = np.sqrt(inner) if isinstance(inner, np.ndarray) else math.sqrt(inner)
    norm = root / (1.0 - lam * lam)
    if not isinstance(phi, Dual):
        return norm
    d_inner = -math.sin(2 * at) * (seed * 2) * 2 * x
    return Dual(norm, d_inner / (2 * root) / (1.0 - lam * lam))


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
    half = moment_coupling(p) / 2.0
    quad = np.zeros((12, 12), dtype=complex)
    quad[:8, :8] = probability_form(p)
    quad[:8, 8:] = half
    quad[8:, :8] = half.T
    quad[8:, 8:] = moment_source_form(p)
    return GeneratingExponent(12, quad)


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

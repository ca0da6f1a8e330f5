"""Physical quantities of the heralded states.

Every function takes the squeezing parameter ``lam`` and an
:class:`~ngtmsv.model.NGOperationSpec` and reduces the quantity to mixed
partial derivatives of Gaussian generating functions (see
:mod:`ngtmsv.series`). One engine call fills the heralding coefficient
arrays of a batch of states that share their photon numbers; the
probability, the Wigner kernel, the moments, the QFI, and the parity
signal with its phase slope are all read from them. A batch of one is a
batch: the per-point functions run the same array code, with the same
shapes, as :func:`evaluate_chunk`, which evaluates a sweep's chunk of tau
values at once, with the same bits per point.
Outputs that must be real are checked for imaginary residues before the
imaginary part is discarded; quantities that
normalize by the heralding probability raise
:class:`~ngtmsv.errors.DegenerateOperationError` when that probability is
below the representable floor.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dual import Dual
from .errors import (
    ConsistencyError,
    ConstructionError,
    DegenerateOperationError,
    DegenerateStateError,
    NGError,
    ParameterError,
    StationaryPointError,
)
from .model import (
    ModelParams,
    NGOperationSpec,
    _PROB_SIGNS,
    _is_real,
    _parity_norm,
    derive_params,
    moment_coupling,
    moment_source_form,
    phase_space_form,
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
_TOP_WINDOW = 2.0 ** -30  # |cos phi| within which the slope is read from the curvature
_DEFAULT_MOMENT_CAP = 4

def _real(value, what: str) -> float:
    """Discard an imaginary residue after checking it is negligible."""
    re, im = value.real, value.imag
    if abs(im) > _RESIDUE_TOL * max(1.0, abs(re)):
        raise ConsistencyError(
            f"{what} carries imaginary residue {im:.3e} (re={re:.3e})")
    return float(re)


@dataclass(frozen=True)
class PhaseSpacePoint:
    """A point (q1, p1, q2, p2) in two-mode phase space."""

    q1: float
    p1: float
    q2: float
    p2: float

    def __post_init__(self):
        _as_point(self.as_tuple())  # the same check as any other point

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
    if not all(map(_is_real, vals)):
        raise ParameterError(f"phase-space coordinates must be real numbers, got {vals!r}")
    vals = tuple(float(v) for v in vals)
    if not all(math.isfinite(v) for v in vals):
        raise ParameterError("phase-space coordinates must be finite")
    return vals


def _as_lambda(lam):
    """``lam`` once it is checked to be a real number: public entry points
    check it before it becomes a cache key."""
    if not _is_real(lam):
        raise ParameterError(f"lambda must be a real number, got {lam!r}")
    return lam


def _as_phase(phi):
    """``phi`` once it is checked to be a finite real number."""
    if not (_is_real(phi) and math.isfinite(phi)):
        raise ParameterError(f"phi must be a finite real number, got {phi!r}")
    return phi


def _herald_core(params: ModelParams, spec: NGOperationSpec, quad) -> complex:
    """The heralding derivative applied to exp(u^T quad u)."""
    return mixed_partial_at_zero(GeneratingExponent(8, quad),
                                 spec.derivative_spec())


def _fail(faults: list, mask, error) -> None:
    """Record ``error(b)`` for every batch entry b in ``mask`` that has no
    fault yet: a point keeps the first error its evaluation raises."""
    if mask.any():
        for b in np.flatnonzero(mask):
            if faults[b] is None:
                faults[b] = error(b)


def _real_parts(values: np.ndarray, what: str, faults: list) -> np.ndarray:
    """:func:`_real` over a batch: the real parts, with a fault for every
    entry whose imaginary residue is not negligible."""
    re, im = values.real, values.imag
    mag = np.abs(re)
    _fail(faults, np.abs(im) > _RESIDUE_TOL * np.where(mag > 1.0, mag, 1.0),
          lambda b: ConsistencyError(
              f"{what} carries imaginary residue {im[b]:.3e} (re={re[b]:.3e})"))
    return re


def _pick(values: np.ndarray, faults: list, index: int) -> float:
    """One entry of a batch result: its value, or the error it raised."""
    if faults[index] is not None:
        raise faults[index]
    return float(values[index])


def _scaled(spec: NGOperationSpec, arr: np.ndarray) -> np.ndarray:
    """``prefactor * prod(k_i!) * arr[..., k - j]``, indexed by j."""
    dspec = spec.derivative_spec()
    fact = math.prod(map(math.factorial, dspec.orders))
    return dspec.prefactor * fact * arr[(Ellipsis,) + (slice(None, None, -1),) * 8]


@dataclass(frozen=True, eq=False)
class _Batch:
    """Heralded states that share their photon numbers, evaluated at once.

    ``params`` holds the batch's parameters, whose tau-dependent fields
    have the batch axis.
    ``aux`` is the read-only engine array [u^j] exp(u^T Q_aux u), j <= k,
    of :func:`wigner_aux_form` with a leading batch axis; ``core`` is the
    heralding derivative of the probability form and ``prob`` the success
    probability, per state. ``faults`` holds, per state, the error its
    evaluation raises (or None); such a state's other entries are not read.
    """

    params: ModelParams
    specs: tuple
    aux: np.ndarray
    core: np.ndarray
    prob: np.ndarray
    faults: tuple

    def state(self, index: int) -> _State:
        """One state of the batch; raises the error its evaluation raised."""
        if self.faults[index] is not None:
            raise self.faults[index]
        return _State(batch=self, index=index, params=self.params.at(index),
                      spec=self.specs[index], aux=self.aux[index],
                      core=float(self.core[index]), prob=float(self.prob[index]))

    @functools.cached_property
    def parity_terms(self) -> tuple:
        """What :func:`_parity_numerator` reads: the derivative orders of
        each half of u (variables of order 0 dropped), the coupling rows of
        the variables kept, ``coeffs`` as real (first half, last half)
        matrices, the phase-space entries (S11, S22) and (S13, S24) and
        the plane rule. ``coeffs`` is not built here, which lowers a sweep's
        peak memory."""
        shape = self.aux.shape[1:]
        first = [i for i in range(4) if shape[i] > 1]
        last = [i for i in range(4, 8) if shape[i] > 1]
        coupling = wigner_coupling(self.params)[:, first + last]
        s = phase_space_form(self.params)
        matrix = np.ascontiguousarray(_scaled(self.specs[0], self.aux).reshape(
            len(self.aux), math.prod(shape[:4]), -1))
        return ([shape[i] - 1 for i in first], [shape[i] - 1 for i in last],
                coupling, matrix, (s[:, [0, 1], [0, 1]], s[:, [0, 1], [2, 3]]),
                _plane_rule((sum(shape) - 8) // 2 + 1))


def _herald(lam: float, specs: tuple) -> _Batch:
    """Evaluate heralded states that share their photon numbers, in one
    engine call: the only place the heralding core is computed, so every
    normalized quantity divides by the same number."""
    params = derive_params(lam, specs)
    dspec = specs[0].derivative_spec()
    aux = coefficient_array(GeneratingExponent(8, wigner_aux_form(params)), dspec)[0]
    aux.flags.writeable = False
    # The corner's probability sign is (-1)^(k2+k4+k5+k7) = (-1)^photons.
    corner = aux[(slice(None),) + dspec.orders]
    if specs[0].total_photons % 2:
        corner = -corner
    faults = [None] * len(specs)
    core = dspec.prefactor * math.prod(map(math.factorial, dspec.orders)) * corner
    _fail(faults, core < -_RESIDUE_TOL, lambda b: ConsistencyError(
        f"heralding probability core is negative ({core[b]:.3e})"))
    core = np.where(core > 0.0, core, 0.0)  # an impossible herald gives +0.0
    p = core / params.base_norm
    _fail(faults, p > 1.0 + _RESIDUE_TOL,
          lambda b: ConsistencyError(f"heralding probability {p[b]} exceeds 1"))
    return _Batch(params=params, specs=specs, aux=aux, core=core,
                  prob=np.where(1.0 < p, 1.0, p), faults=tuple(faults))


@dataclass(frozen=True, eq=False)
class _State:
    """State ``index`` of ``batch``, with scalar parameters.

    The kernel and the moment contractions are derived from ``aux`` on
    first use and kept.
    """

    batch: _Batch
    index: int
    params: ModelParams
    spec: NGOperationSpec
    aux: np.ndarray
    core: float
    prob: float
    moments: dict = field(default_factory=dict)  # order -> _moment_tables

    @functools.cached_property
    def coeffs(self) -> np.ndarray:
        """``prefactor * prod(k_i!) * aux[k - j]``, indexed by j, as a
        complex array: the kernel and the moments multiply it with complex
        factors, and a real array would be converted on every product."""
        out = _scaled(self.spec, self.aux).astype(np.complex128)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def kernel(self) -> WignerKernel:
        params = self.params
        prob = self.core / params.base_norm  # unclamped: the kernel integrates to 1
        _check_floor(prob, "normalized Wigner")
        scale = 1.0 / (params.base_norm * math.pi ** 2 * prob)
        return WignerKernel(coeffs=self.coeffs, coupling=wigner_coupling(params),
                            quad=tuple(map(tuple, phase_space_form(params).tolist())),
                            scale=scale)


# Public entry points share the last evaluation, a batch of one; private
# helpers take the state or batch explicitly, so an evaluation in between
# (such as the bare-TMSV reference) cannot make a caller recompute.
# Exceptions are never cached.
@functools.lru_cache(maxsize=1, typed=True)
def _heralding(lam: float, spec: NGOperationSpec) -> _State:
    return _herald(lam, (spec,)).state(0)


def _check_floor(prob: float, what: str) -> None:
    if prob < _PROB_FLOOR:
        raise DegenerateOperationError(_floor_message(what))


def _floor_message(what: str) -> str:
    return f"heralding probability underflows; {what} undefined"


def success_probability(lam: float, spec: NGOperationSpec) -> float:
    """Probability of heralding the requested ancilla photon numbers."""
    return _heralding(_as_lambda(lam), spec).prob


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
        expo = sum(self.quad[i][j] * xi[i] * xi[j]
                   for i in range(4) for j in range(4))
        gauss = math.exp(expo)
        if not gauss > 0.0:
            # Far out the Gaussian underflows (its terms may even overflow to
            # inf - inf) while the numerator's powers overflow. The quadratic
            # form is negative definite and |W| <= 1/pi^2, so W is 0 there.
            return 0.0
        num = self.coeffs
        for ell in self.coupling @ xi:
            k = num.shape[0]
            powers = np.ones(k, dtype=np.complex128)
            for j in range(1, k):
                powers[j] = powers[j - 1] * ell / j
            num = (powers @ num.reshape(k, -1)).reshape(num.shape[1:])
        val = _real(complex(num), "Wigner numerator")
        return self.scale * val * gauss


def wigner_polynomial(lam: float, spec: NGOperationSpec) -> WignerKernel:
    """Closed-form Wigner kernel: the heralding coefficient array of the
    state, contracted against each point on call."""
    return _heralding(_as_lambda(lam), spec).kernel


def moment(lam: float, spec: NGOperationSpec, idx,
           max_total: int = _DEFAULT_MOMENT_CAP) -> float:
    """Symmetric-ordered quadrature moment <q1^a1 p1^b1 q2^a2 p2^b2>_W.

    ``idx = (a1, b1, a2, b2)`` are derivative orders on the moment source
    vector; the total order is capped (default 4). Index (0,0,0,0) returns
    exactly 1.0: its numerator is the same arithmetic as the core.
    """
    idx = tuple(idx)
    if len(idx) != 4 or any(isinstance(k, bool) or not isinstance(k, int) or k < 0 for k in idx):
        raise ParameterError("moment index must be four non-negative integers")
    if sum(idx) > max_total:
        raise ParameterError(
            f"moment total order {sum(idx)} exceeds cap {max_total}")
    state = _heralding(_as_lambda(lam), spec)
    _check_floor(state.prob, "moments")
    return _moment(state, idx)


def _moment(state: _State, idx: tuple) -> float:
    """One moment normalized by the state's probability core.

    Let a be the probability array, C the moment coupling (columns c_b) and
    h[g] = [x^g] exp(x^T Q_x x). Then
    [u^k x^idx] exp(u^T Q_prob u + u^T C x + x^T Q_x x)
    = sum_{beta <= idx} h[idx - beta] T_beta, with
    T_beta = sum_j [u^j](prod_b (c_b.u)^beta_b / beta_b!) a[k - j].
    Splitting u into its first and last four variables splits each power
    binomially, so T_beta = sum_{g <= beta} m[g, beta - g] (see
    :func:`_moment_tables`).
    """
    order = max(sum(idx), _DEFAULT_MOMENT_CAP)  # one table serves the default cap
    tables = state.moments.get(order)
    if tables is None:
        tables = state.moments[order] = _moment_tables(state, order)
    h, rows, cols, m = tables
    num = 0
    for gam in itertools.product(*(range(i + 1) for i in idx)):
        row = rows.get(gam)
        if row is None:
            continue
        for dlt in itertools.product(*(range(i - g + 1) for i, g in zip(idx, gam))):
            col = cols.get(dlt)
            if col is not None:
                num += h[tuple(i - g - d for i, g, d in zip(idx, gam, dlt))] * m[row, col]
    # a[k - j] = D^k D^j aux[k - j]: D^j sits in the couplings of
    # _moment_tables, D^k is this sign.
    sign = -1 if state.spec.total_photons % 2 else 1
    num = num * (sign * math.prod(map(math.factorial, idx)))
    return _real(num, "moment numerator") / state.core


def _moment_tables(state: _State, order: int):
    """The arrays every moment of total order <= ``order`` is read from.

    Returns h (orders up to ``order`` per variable), the row and column of
    each multi-index, and m[g, d] = sum_j A_g[j'] B_d[j''] coeffs[j], where
    j = (j', j'') splits the eight variables in halves and A_g (B_d) holds
    [u^j'] prod_b (c_b.u)^g_b / g_b! over the first (last) half. The
    columns c_b of the moment coupling carry the probability signs D on
    their rows, so the Wigner-signed ``coeffs`` can be contracted. A
    multi-index missing from the rows or columns has A_g = 0 or B_d = 0.
    """
    h = coefficient_array(
        GeneratingExponent(4, moment_source_form(state.params)[None]),
        DerivativeSpec((order,) * 4))[0, 0]
    shape = state.coeffs.shape
    coupling = moment_coupling(state.params) * _PROB_SIGNS[:, None]
    rows, first = _power_products(coupling[:4], shape[:4], order)
    cols, last = _power_products(coupling[4:], shape[4:], order)
    # Elementwise products and numpy sums only: a BLAS product's last bits
    # depend on the library build, and moments are pinned to the last bit.
    m = np.zeros((first.shape[1], last.shape[1]), dtype=np.complex128)
    for a_row, k_row in zip(first, state.coeffs.reshape(len(first), len(last))):
        if a_row.any():
            m += np.multiply.outer(a_row, (k_row[:, None] * last).sum(axis=0))
    return h, rows, cols, m


def _power_products(vecs: np.ndarray, shape: tuple, order: int):
    """The column of every g with |g| <= order, and a matrix whose column
    holds [u^j] prod_b (vecs[:, b].u)^g_b / g_b! for j < shape (raveled).
    A product of higher degree than the array holds is zero, so the levels
    stop there.

    Level d holds |g| = d; g is reached from g - e_b with b its last
    nonzero axis, multiplying by one linear form and dropping what shifts
    past ``shape``.
    """
    level_g = [(0, 0, 0, 0)]
    level = np.zeros((1,) + shape, dtype=np.complex128)
    level[(0,) * 5] = 1.0
    gammas, cols = list(level_g), [level]
    for _ in range(min(order, sum(shape) - len(shape))):
        up = np.zeros((4,) + level.shape, dtype=np.complex128)
        for i, n in enumerate(shape):
            if n > 1:
                head = (slice(None),) * (1 + i)
                up[(slice(None),) + head + (slice(1, None),)] += (
                    vecs[i].reshape((4,) + (1,) * 5) * level[head + (slice(-1),)])
        kids = [(b, p, g[:b] + (g[b] + 1,) + g[b + 1:])
                for p, g in enumerate(level_g)
                for b in range(max((a for a in range(4) if g[a]), default=0), 4)]
        b_idx, p_idx, level_g = zip(*kids)
        div = np.array([g[b] for b, g in zip(b_idx, level_g)], dtype=float)
        level = up[list(b_idx), list(p_idx)] / div.reshape((-1,) + (1,) * 4)
        gammas += level_g
        cols.append(level)
    return ({g: n for n, g in enumerate(gammas)},
            np.concatenate(cols).reshape(len(gammas), -1).T)


def j2_second_moment(lam: float, spec: NGOperationSpec) -> float:
    """<J2^2> of the heralded state (J2 generates the interferometer phase)."""
    state = _heralding(_as_lambda(lam), spec)
    _check_floor(state.prob, "moments")
    return _j2(state)


def _j2(state: _State) -> float:
    m_qp = _moment(state, (2, 0, 0, 2))
    m_pq = _moment(state, (0, 2, 2, 0))
    m_x = _moment(state, (1, 1, 1, 1))
    return -0.125 + 0.25 * m_qp + 0.25 * m_pq - 0.5 * m_x


def qfi(lam: float, spec: NGOperationSpec) -> float:
    """Quantum Fisher information 4<J2^2> (first moment of J2 vanishes)."""
    return _qfi(j2_second_moment(lam, spec))


def _qfi(j2: float) -> float:
    value = 4.0 * j2
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
    for part in (phi.value, phi.deriv) if isinstance(phi, Dual) else (phi,):
        _as_phase(part)
    state = _heralding(_as_lambda(lam), spec)
    f, df, faults = _parity(state.batch, phi)
    value = _pick(f, faults, state.index)
    return value if df is None else Dual(value, float(df[state.index]))


def _parity(batch: _Batch, phi) -> tuple:
    """The parity signal of every state of a batch, normalized by its
    probability core: ``(f, df, faults)``, where ``df`` is the derivative
    for a :class:`Dual` ``phi`` (else None) and ``faults`` holds per state
    the error its evaluation raises, or None.

    <Pi> = pi * integral of W(N eta) d eta over the detection plane, where
    N's columns are (c, 0, s, 0) and (0, c, 0, s) with (c, s) = (cos, sin)
    of phi/2. The Gaussian factor is exp(eta^T A eta) with A = N^T S N =
    diag(S11 + S13 sin phi, S22 + S24 sin phi), and sqrt(det(-A)) =
    norm / base_norm, so <Pi> = base_norm * num / (norm * core) with the
    numerator ``num`` of :func:`_parity_numerator`. The quotient is the
    arithmetic of :class:`Dual`, written out per batch entry.

    The slope at a fringe top: a heralded state has the definite photon
    number difference (m1 - n1) - (m2 - n2). When the photon total, and so
    that difference, is even, every component has an even photon number
    and the signal is even about each phi* = pi/2 + m pi. Its slope there is
    zero, but the quadrature's slope is a sum of terms that cancel, whose
    rounding can exceed the stationary floor. Within ``_TOP_WINDOW`` of phi*
    the slope is num'' * delta instead, with delta = phi - phi* =
    -cos(phi) sin(phi) to relative O(delta^2), which is below rounding there.
    """
    params, den = batch.params, batch.core
    faults = list(batch.faults)
    _fail(faults, den / params.base_norm < _PROB_FLOOR,
          lambda b: DegenerateOperationError(_floor_message("parity signal")))
    at = phi.value if isinstance(phi, Dual) else phi
    top = (isinstance(phi, Dual) and batch.specs[0].total_photons % 2 == 0
           and abs(math.cos(at)) <= _TOP_WINDOW)
    order = 2 if top else 1 if isinstance(phi, Dual) else 0
    series = _parity_numerator(batch, at, order, faults)
    num = _real_parts(series[:, 0], "parity numerator", faults)
    norm = _parity_norm(params, phi)
    # a state with a fault may divide by zero here; its entries are not read
    with np.errstate(divide="ignore", invalid="ignore"):
        if isinstance(phi, Dual):
            slope = (2.0 * series[:, 2] * (-math.cos(at) * math.sin(at)) if top
                     else series[:, 1])
            dnum = _real_parts(slope * phi.deriv, "parity numerator derivative", faults)
            top_v, top_d = num * params.base_norm, dnum * params.base_norm
            bottom_v, bottom_d = norm.value * den, norm.deriv * den
            f = top_v / bottom_v
            df = (top_d - f * bottom_d) / bottom_v
        else:
            f, df = params.base_norm * num / (norm * den), None
    mag = np.abs(f)
    _fail(faults, mag > 1.0 + _PARITY_SLACK, lambda b: ConsistencyError(
        f"parity signal magnitude {float(mag[b])} exceeds 1"))
    return f, df, faults


def _parity_numerator(batch: _Batch, phi: float, order: int,
                      faults: list) -> np.ndarray:
    """The Taylor coefficients of ``num`` of :func:`_parity` at ``phi``, up
    to ``order`` (at most 2), as a complex (batch, order + 1) array; states
    whose numerator is undefined get a fault.

    Let num_W(xi) be the Wigner kernel's numerator and C the Wigner
    coupling. Substituting eta = L sqrt(2) x, L = diag(1/sqrt(-2 A_ii)),
    the plane integral of num_W(N eta) exp(eta^T A eta) is
    pi / sqrt(det(-A)) times num, the Gauss-Hermite sum of num_W over the
    nodes x with weights normalized to 1; at a node, num_W's linear term is
    l = C N L sqrt(2) x. exp(u^T Q u) has no terms of odd degree and |k| is
    even, so num_W(N eta) is an even polynomial of total degree <= |k|, and
    the rule of :func:`_plane_rule` makes the sum exact. At a node,
    num_W = a K b^T: a (b) holds prod_i l_i^j_i / j_i! over the first (last)
    half of u and K is the state's ``coeffs`` matrix. b is built per node,
    K b^T is contracted with ``np.einsum``, and a is contracted with it one
    variable at a time. Every factor is a truncated Taylor series in phi,
    held on the axis after the batch axis, and products are Cauchy
    products. The batch axis leads every array and is never summed over,
    so each state's sums run in the order they run for a batch of one.
    """
    first, last, coupling, matrix, (s_even, s_odd), (nodes, weights) = (
        batch.parity_terms)
    sin_phi, cos_phi = math.sin(phi), math.cos(phi)
    diag = s_even + s_odd * sin_phi
    grows = ~(diag < 0.0).all(axis=1)
    if grows.any():
        _fail(faults, grows, lambda b: ConstructionError(
            "parity Gaussian must decay on the detection plane"))
        diag = np.where(grows[:, None], -0.5, diag)  # a stand-in for those states
    terms = order + 1
    # the series of L and of N
    scale = 1.0 / np.sqrt(-2.0 * diag)
    cube = scale ** 3
    d_diag = s_odd * cos_phi
    scales = np.array([scale, cube * d_diag, 1.5 * scale ** 5 * d_diag ** 2
                       - 0.5 * cube * s_odd * sin_phi]).swapaxes(0, 1)
    c, s = math.cos(0.5 * phi), math.sin(0.5 * phi)
    rot = np.array([[c, 0.0], [0.0, c], [s, 0.0], [0.0, s]])
    rots = np.array([rot, 0.5 * np.array([[-s, 0.0], [0.0, -s], [c, 0.0], [0.0, c]]),
                     -0.125 * rot])
    # the series of l = C N L x per node
    m = np.einsum("eab,xdeb->xdab", rots[:terms], _toeplitz(scales[:, :terms]))
    m = np.einsum("xva,xdab->xdvb", coupling, m)
    ells = np.einsum("xdvb,bn->xdvn", m, nodes)
    # powers[x, d, i, j] is the series of l_i^j / j! per node
    n = len(weights)
    powers = np.zeros((len(matrix), terms, coupling.shape[1],
                       max(first + last, default=0) + 1, n), dtype=np.complex128)
    powers[:, 0, :, 0] = 1.0
    for j in range(1, powers.shape[3]):
        powers[:, 0, :, j] = _cmul(powers[:, 0, :, j - 1], ells[:, 0]) / j
    powers[:, 1:, :, 1:] = _cmul(powers[:, :1, :, :-1], ells[:, 1:, :, None])
    if order == 2:
        powers[:, 2, :, 2:] += _cmul(powers[:, 0, :, :-2],
                                     0.5 * _cmul(ells[:, 1], ells[:, 1])[:, :, None])
    split = len(first)
    b = _products(powers[:, :, split:], last)
    # K b^T: K is real, so it is contracted with the real and imaginary
    # parts of b, a row per (order, node, part); the result's columns pair
    # up into complex numbers. np.einsum without `optimize` calls no BLAS
    # routine, whose last bits depend on the library build and the CPU.
    b = b.transpose(0, 1, 3, 2)
    parts = np.stack((b.real, b.imag), axis=3).reshape(len(b), -1, b.shape[3])
    values = np.einsum("xij,xnj->xin", matrix, parts).view(np.complex128)
    values = values.reshape(matrix.shape[:2] + (terms, n)).transpose(0, 2, 1, 3)
    # contract a with K b^T one first-half variable at a time, the fastest first
    for i in reversed(range(split)):
        k = first[i]
        values = np.einsum("xeijn,xdejn->xdin",
                           values.reshape(len(b), terms, -1, k + 1, n),
                           _toeplitz(powers[:, :, i, :k + 1]))
    return (values[:, :, 0] * weights).sum(axis=-1)


def _toeplitz(series: np.ndarray) -> np.ndarray:
    """t[x, d, e] = series[x, d - e] for e <= d, and 0 above. Summing e
    against another truncated Taylor series (the axis after the batch
    axis) gives their Cauchy product."""
    terms = series.shape[1]
    out = np.zeros(series.shape[:1] + (terms,) + series.shape[1:], dtype=series.dtype)
    for e in range(terms):
        out[:, e:, e] = series[:, :terms - e]
    return out


def _products(powers: np.ndarray, orders: list) -> np.ndarray:
    """Per batch entry and node (last axis), the series (second axis) of
    prod_i powers[:, :, i, j_i] for every j <= orders, raveled with the last
    variable fastest."""
    batch, terms, n = len(powers), powers.shape[1], powers.shape[-1]
    rows = np.zeros((batch, terms, 1, n), dtype=np.complex128)
    rows[:, 0] = 1.0
    for i, k in enumerate(orders):
        rows = np.einsum("xepn,xdejn->xdpjn", rows, _toeplitz(powers[:, :, i, :k + 1]))
        rows = rows.reshape(batch, terms, -1, n)
    return rows


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y for complex arrays, broadcast. numpy's complex multiply ufunc is
    dispatched per CPU and fuses its products (FMA) where the CPU can, so
    its last bits depend on the machine; np.einsum's loops are compiled
    once for numpy's baseline instruction set and round the same on every
    CPU."""
    return np.einsum("...,...->...", x, y)


@functools.lru_cache(maxsize=None)
def _plane_rule(n: int) -> tuple:
    """The n x n Gauss-Hermite rule for exp(-x^2 - y^2), folded for even
    integrands: node coordinates times sqrt(2) as a (2, ceil(n^2/2)) array,
    and weights that sum to 1.

    The roots of the n-th Hermite polynomial come from Newton's method on
    the orthonormal three-term recurrence, from the classic initial guesses
    (Numerical Recipes, gauher); the weights are 2 / psi_n'(x)^2. This needs
    no LAPACK call, whose first use costs about 0.75 MB of resident memory.
    The rule is centrally symmetric: node q of the n^2, with the second
    coordinate running fastest, mirrors node n^2 - 1 - q and has the same
    weight. An even integrand takes the same value at both, so the first of
    each pair is kept with twice the weight, and the centre node (odd n)
    once.
    """
    x, w = [0.0] * n, [0.0] * n
    z = 0.0
    for i in range((n + 1) // 2):
        if i == 0:
            z = math.sqrt(2 * n + 1) - 1.85575 * (2 * n + 1) ** (-1 / 6)
        elif i == 1:
            z -= 1.14 * n ** 0.426 / z
        elif i == 2:
            z = 1.86 * z - 0.86 * x[0]
        elif i == 3:
            z = 1.91 * z - 0.91 * x[1]
        else:
            z = 2.0 * z - x[i - 2]
        for _ in range(100):
            p1, p2 = math.pi ** -0.25, 0.0  # psi_0, psi_-1
            for j in range(1, n + 1):
                p1, p2 = (z * math.sqrt(2.0 / j) * p1
                          - math.sqrt((j - 1) / j) * p2), p1
            slope = math.sqrt(2.0 * n) * p2
            step = p1 / slope
            z -= step
            if abs(step) <= 3e-15 * max(1.0, abs(z)):
                break
        x[n - 1 - i], x[i] = -z, z
        w[n - 1 - i] = w[i] = 2.0 / (slope * slope)
    x, w = np.array(x), np.outer(w, w).ravel()
    w = w / w.sum()
    pairs, kept = n * n // 2, (n * n + 1) // 2
    nodes = math.sqrt(2.0) * np.array([np.repeat(x, n), np.tile(x, n)])[:, :kept]
    weights = np.concatenate((2.0 * w[:pairs], w[pairs:kept]))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def phase_sensitivity(lam: float, spec: NGOperationSpec, phi: float) -> float:
    """Error-propagation phase deviation of the parity signal.

    Evaluated at the operating point ``phi`` (the signal is differentiated at
    ``phi + pi/2``, where the parity fringe crosses its steep region).
    """
    phi = _as_phase(phi)
    state = _heralding(_as_lambda(lam), spec)
    return _pick(*_sensitivity(state.batch, phi), state.index)


def _sensitivity(batch: _Batch, phi: float) -> tuple:
    """delta_phi of every state of a batch, and the faults of :func:`_parity`."""
    f, slope, faults = _parity(batch, Dual(phi + math.pi / 2.0, 1.0))
    _fail(faults, np.abs(slope) < _SLOPE_FLOOR, lambda b: StationaryPointError(
        f"parity slope {slope[b]:.3e} vanishes at phi={phi}; sensitivity undefined"))
    variance = 1.0 - f * f
    _fail(faults, variance < -2.0 * _PARITY_SLACK, lambda b: ConsistencyError(
        f"parity variance {variance[b]:.3e} is negative"))
    with np.errstate(divide="ignore", invalid="ignore"):  # only at faults
        return np.sqrt(np.where(0.0 > variance, 0.0, variance)) / np.abs(slope), faults


# A sweep holds lam fixed along a row and varies phi fastest, so the
# reference is kept for a whole phi axis (up to 256 values) at a time.
# Exceptions are never cached.
@functools.lru_cache(maxsize=256, typed=True)
def _tmsv_reference(lam: float, phi: float) -> float:
    return phase_sensitivity(lam, tmsv_spec(), phi)


def merit(lam: float, spec: NGOperationSpec, phi: float) -> float:
    """Sensitivity gain over the unmodified squeezed vacuum at the same lam:
    positive when the heralded state resolves phase better."""
    ref = _tmsv_reference(_as_lambda(lam), _as_phase(phi))
    return ref - phase_sensitivity(lam, spec, phi)


def weighted_merit(lam: float, spec: NGOperationSpec, phi: float) -> float:
    """Merit weighted by the heralding probability (resource-aware gain)."""
    phi = _as_phase(phi)
    state = _heralding(_as_lambda(lam), spec)
    ref = _tmsv_reference(lam, phi)
    return state.prob * (ref - _pick(*_sensitivity(state.batch, phi), state.index))


_STATE_QUANTITIES = ("probability", "qfi", "qcrb", "wigner")
_PHASE_QUANTITIES = ("parity", "sensitivity", "merit", "weighted_merit")


def evaluate_chunk(quantity: str, lam: float, specs, phis, point=None) -> list:
    """One quantity at every point (lam, spec, phi), spec outermost, from
    one heralding array for all of ``specs``, which must share their photon
    numbers (m1, m2, n1, n2). ``quantity`` is a sweep quantity name;
    ``point`` is the Wigner point. Returns per point the value that the
    per-point function (``success_probability``, ``qfi``, ``qcrb``,
    ``parity_expectation``, ``phase_sensitivity``, ``merit``,
    ``weighted_merit`` or ``wigner``) returns there, bit for bit, or the
    :class:`~ngtmsv.errors.NGError` it raises. Invalid arguments raise at
    once; no specs give no points.
    """
    if quantity not in _STATE_QUANTITIES + _PHASE_QUANTITIES:
        raise ParameterError(f"unknown quantity {quantity!r}")
    xi = _as_point(point) if quantity == "wigner" else None
    lam = _as_lambda(lam)
    if quantity in _PHASE_QUANTITIES:
        phis = [_as_phase(phi) for phi in phis]
    specs = tuple(specs)
    if len({(s.m1, s.m2, s.n1, s.n2) for s in specs}) > 1:
        raise ParameterError("a chunk's specs must share their photon numbers (m1, m2, n1, n2)")
    if not specs:
        return []
    batch = _herald(lam, specs)
    if quantity in _STATE_QUANTITIES:
        outcomes = [_state_outcome(quantity, batch, b, xi) for b in range(len(specs))]
        return [out for out in outcomes for _ in phis]
    columns = [_phase_outcomes(quantity, batch, lam, phi) for phi in phis]
    return [column[b] for b in range(len(specs)) for column in columns]


def _state_outcome(quantity: str, batch: _Batch, index: int, xi):
    """A phase-free quantity of one state of a batch, or its error."""
    try:
        state = batch.state(index)
        if quantity == "probability":
            return state.prob
        if quantity == "wigner":
            return state.kernel(xi)
        _check_floor(state.prob, "moments")
        fisher = _qfi(_j2(state))
        return fisher if quantity == "qfi" else 1.0 / math.sqrt(fisher)
    except NGError as err:
        return err


def _phase_outcomes(quantity: str, batch: _Batch, lam: float, phi: float) -> list:
    """A phase quantity of every state of a batch at ``phi``, or the error
    of each state, in the order the per-point function raises them."""
    if quantity == "parity":
        values, _, faults = _parity(batch, phi)
    else:
        if quantity != "sensitivity":
            try:
                ref = _tmsv_reference(lam, phi)
            except NGError as err:
                # merit reads the reference first, weighted merit the state
                return [err if quantity == "merit" or fault is None else fault
                        for fault in batch.faults]
        values, faults = _sensitivity(batch, phi)
        if quantity == "merit":
            values = ref - values
        elif quantity == "weighted_merit":
            values = batch.prob * (ref - values)
    return [float(v) if fault is None else fault for v, fault in zip(values, faults)]


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
    phi = _as_phase(phi)
    state = _heralding(_as_lambda(lam), spec)
    f, _, faults = _parity(state.batch, phi)
    parity = _pick(f, faults, state.index)
    dphi = _pick(*_sensitivity(state.batch, phi), state.index)
    fisher = _qfi(_j2(state))
    bound = 1.0 / math.sqrt(fisher)
    gain = _tmsv_reference(lam, phi) - dphi
    return SensitivityReport(
        lam=lam, spec=spec, phi=phi, probability=state.prob, parity=parity,
        delta_phi=dphi, qfi=fisher, delta_phi_min=bound, merit=gain,
        weighted_merit=state.prob * gain)


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
    "evaluate_chunk",
]

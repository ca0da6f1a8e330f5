"""Physical quantities of the heralded states.

Every function takes the squeezing parameter ``lam`` and an
:class:`~ngtmsv.model.NGOperationSpec` and reduces the quantity to mixed
partial derivatives of Gaussian generating functions (see
:mod:`ngtmsv.series`). One fill of the photon-pair heralding blocks
(:func:`~ngtmsv.series.pair_blocks`) serves a batch of states that share
their photon numbers; the probability, the Wigner kernel, the moments,
the QFI, and the parity signal with its phase slope are all read from
them. Merit and weighted merit compare a state with the bare TMSV at
the same lam, whose delta_phi is a closed form, so they evaluate no second
state. A batch of one is a batch: the per-point functions run the same
array code, with the same shapes, as :func:`evaluate_chunk`, which
evaluates a sweep's row of tau values in fills of bounded bytes, with the
same bits per point. Outputs that must be real are checked for imaginary
residues before the imaginary part is discarded; quantities that
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
    _MOMENT_COUPLING_SCALE,
    _MOMENT_FORM_SCALE,
    _PROB_SIGNS,
    _check_lambda,
    _is_double,
    _is_real,
    _parity_norm,
    derive_params,
    phase_space_form,
    wigner_aux_form,
    wigner_coupling,
)
from .series import (
    DerivativeSpec,
    GeneratingExponent,
    _frozen,
    _is_count,
    _levels,
    coefficient_array,
    pair_blocks,
)

_RESIDUE_TOL = 1e-10
_PROB_FLOOR = 1e-300
_SLOPE_FLOOR = 1e-14
_PARITY_SLACK = 1e-9
_TOP_WINDOW = 2.0 ** -30  # |cos phi| within which the slope is read from the curvature
_DEFAULT_MOMENT_CAP = 4
_ONE = np.complex128(1.0)  # the kernel's first power: Python's complex / rounds otherwise

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
    vals = _as_tuple(point, "phase-space point", "numbers")
    if len(vals) != 4:
        raise ParameterError("phase-space point needs 4 coordinates (q1, p1, q2, p2)")
    if not all(map(_is_real, vals)):
        raise ParameterError(f"phase-space coordinates must be real numbers, got {vals!r}")
    vals = tuple(map(float, vals))
    if not all(map(math.isfinite, vals)):
        raise ParameterError("phase-space coordinates must be finite")
    return vals


def _as_tuple(values, what: str, items: str) -> tuple:
    """``values`` as a tuple, once it is checked to be iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise ParameterError(f"{what} must be a sequence of {items}, "
                             f"not {type(values).__name__}") from None


def _as_spec(spec):
    """``spec`` once it is checked to be an operation: public entry points
    check it, as they check lambda, before it becomes a cache key."""
    if not isinstance(spec, NGOperationSpec):
        raise ParameterError(f"spec must be an NGOperationSpec, got {spec!r}")
    return spec


def _as_lambda(lam):
    """``lam`` once it is checked to be a real number in double precision:
    public entry points check it before it becomes a cache key."""
    if not _is_double(lam):
        raise ParameterError(f"lambda must be a real number in double precision, got {lam!r}")
    return lam


def _as_phase(phi):
    """``phi`` once it is checked to be a finite real number in double precision."""
    if not (_is_double(phi) and math.isfinite(phi)):
        raise ParameterError(f"phi must be a finite real number in double precision, got {phi!r}")
    return phi


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


# The squeezer and the beam splitters create and detect photons in pairs:
# wigner_aux_form pairs the variables (u1, v2, u1', v2') only with
# (v1, u2, v1', u2'), and each half has the orders (m1, m2, n1, n2).
_PAIRED = (0, 3, 4, 7)
_OTHERS = (1, 2, 5, 6)


@functools.lru_cache(maxsize=64)
def _dense_index(orders: tuple) -> tuple:
    """Per degree s of the heralding blocks, the raveled positions k - j in
    the dense array indexed by j of their rows (j = r over ``_PAIRED``) and
    of their columns (j = c over ``_OTHERS``)."""
    strides = [math.prod(k + 1 for k in orders[v + 1:]) for v in range(8)]
    rows, cols = (
        [np.array([sum((orders[v] - e) * strides[v] for v, e in zip(half, exp))
                   for exp in exps.tolist()], dtype=np.intp)
         for exps, *_ in _levels(tuple(orders[v] for v in half))]
        for half in (_PAIRED, _OTHERS))
    return tuple(zip(_frozen(*rows), _frozen(*cols)))


@dataclass(frozen=True, eq=False)
class _Batch:
    """Heralded states that share their photon numbers, evaluated at once.

    ``params`` holds the batch's parameters, whose tau-dependent fields
    have the batch axis.
    ``blocks`` are the read-only :func:`~ngtmsv.series.pair_blocks` of
    :func:`wigner_aux_form` with a leading batch axis: [a^r b^c]
    exp(u^T Q_aux u) for r, c <= (m1, m2, n1, n2) with |r| = |c| = s in
    block s, where a is u over ``_PAIRED`` and b over ``_OTHERS``; every
    other coefficient is zero. ``core`` is the heralding derivative of the
    probability form and ``prob`` the success probability, per state.
    ``faults`` holds, per state, the error its evaluation raises (or None);
    such a state's other entries are not read. ``orders`` and ``scale``, the
    heralding derivative's orders and ``prefactor * prod(k_i!)``, are shared.
    """

    params: ModelParams
    specs: tuple
    orders: tuple
    scale: float
    blocks: list
    core: np.ndarray
    prob: np.ndarray
    faults: tuple

    def state(self, index: int) -> _State:
        """One state of the batch; raises the error its evaluation raised."""
        if self.faults[index] is not None:
            raise self.faults[index]
        return _State(batch=self, index=index, params=self.params.at(index),
                      spec=self.specs[index], core=float(self.core[index]),
                      prob=float(self.prob[index]))

    @functools.cached_property
    def parity_terms(self) -> tuple:
        """What :func:`_parity_numerator` reads: the degrees (see
        :func:`~ngtmsv.series._levels`) of the orders of a that are not 0, the
        coupling rows of those variables (b's rows are derived), the
        phase-space entries (S11, S22) and (S13, S24) and the circle rule. An
        exponent of a variable of order 0 is 0, so dropping it keeps the order
        of the degrees' exponents."""
        kept = [v for v in _PAIRED if self.orders[v]]
        s = phase_space_form(self.params)
        return (_levels(tuple(self.orders[v] for v in kept)),
                wigner_coupling(self.params)[:, kept],
                (s[:, [0, 1], [0, 1]], s[:, [0, 1], [2, 3]]),
                _circle_rule(self.specs[0].total_photons + 1))


def _herald(lam: float, specs: tuple) -> _Batch:
    """Evaluate heralded states that share their photon numbers, in one
    fill of their heralding blocks: the only place the heralding core is
    computed, so every normalized quantity divides by the same number."""
    params = derive_params(lam, specs)
    dspec = specs[0].derivative_spec()
    orders, scale = dspec.orders, dspec.prefactor * math.prod(map(math.factorial, dspec.orders))
    blocks = pair_blocks(wigner_aux_form(params), _PAIRED, orders)
    _frozen(*blocks)
    # a and b have the same orders, so the top degree holds only the corner
    # [u^k]. Its probability sign is (-1)^(k2+k4+k5+k7) = (-1)^photons.
    corner = blocks[-1][:, 0, 0]
    if specs[0].total_photons % 2:
        corner = -corner
    faults = [None] * len(specs)
    core = scale * corner
    _fail(faults, core < -_RESIDUE_TOL, lambda b: ConsistencyError(
        f"heralding probability core is negative ({core[b]:.3e})"))
    core = np.where(core > 0.0, core, 0.0)  # an impossible herald gives +0.0
    p = core / params.base_norm
    _fail(faults, p > 1.0 + _RESIDUE_TOL,
          lambda b: ConsistencyError(f"heralding probability {p[b]} exceeds 1"))
    return _Batch(params=params, specs=specs, orders=orders, scale=scale, blocks=blocks,
                  core=core, prob=np.where(1.0 < p, 1.0, p), faults=tuple(faults))


@dataclass(frozen=True, eq=False)
class _State:
    """State ``index`` of ``batch``, with scalar parameters.

    The dense coefficients, the Wigner coupling and phase-space form, the
    kernel and the moment contractions are derived on first use and kept:
    the kernel and the moment tables read the same read-only arrays.
    """

    batch: _Batch
    index: int
    params: ModelParams
    spec: NGOperationSpec
    core: float
    prob: float
    moments: dict = field(default_factory=dict)  # order -> _moment_tables

    @functools.cached_property
    def coeffs(self) -> np.ndarray:
        """``prefactor * prod(k_i!) * [u^(k - j)] exp(u^T Q_aux u)``,
        indexed by j, as a dense complex array: the kernel and the moments
        multiply it with complex factors, and a real array would be
        converted on every product."""
        out = np.zeros(tuple(k + 1 for k in self.batch.orders), dtype=np.complex128)
        for block, (rows, cols) in zip(self.batch.blocks, _dense_index(self.batch.orders)):
            out.reshape(-1)[rows[:, None] + cols] = self.batch.scale * block[self.index]
        return _frozen(out)[0]

    @functools.cached_property
    def coupling(self) -> np.ndarray:
        """:func:`~ngtmsv.model.wigner_coupling` of the state."""
        return _frozen(wigner_coupling(self.params))[0]

    @functools.cached_property
    def form(self) -> np.ndarray:
        """:func:`~ngtmsv.model.phase_space_form` of the state."""
        return _frozen(phase_space_form(self.params))[0]

    @functools.cached_property
    def kernel(self) -> WignerKernel:
        params = self.params
        prob = self.core / params.base_norm  # unclamped: the kernel integrates to 1
        _check_floor(prob, "normalized Wigner")
        scale = 1.0 / (params.base_norm * math.pi ** 2 * prob)
        return WignerKernel(coeffs=self.coeffs, coupling=self.coupling,
                            quad=tuple(map(tuple, self.form.tolist())), scale=scale)


# Public entry points share the last evaluation, a batch of one, and hand
# the state or batch to private helpers explicitly. Exceptions are never
# cached.
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
    return _heralding(_as_lambda(lam), _as_spec(spec)).prob


def wigner(lam: float, spec: NGOperationSpec, point) -> float:
    """Normalized Wigner function of the heralded state at a point."""
    xi = _as_point(point)
    return wigner_polynomial(lam, spec)._value(xi)


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
        return self._value(_as_point(point))

    def _value(self, xi: tuple) -> float:  # at a checked point
        # quad[i][j] * xi[i] * xi[j] summed left to right over (i, j) in
        # row-major order: from Python 3.12 the built-in sum() of floats is
        # compensated, and would round otherwise.
        x0, x1, x2, x3 = xi
        q0, q1, q2, q3 = self.quad
        expo = (q0[0] * x0 * x0 + q0[1] * x0 * x1 + q0[2] * x0 * x2 + q0[3] * x0 * x3
                + q1[0] * x1 * x0 + q1[1] * x1 * x1 + q1[2] * x1 * x2 + q1[3] * x1 * x3
                + q2[0] * x2 * x0 + q2[1] * x2 * x1 + q2[2] * x2 * x2 + q2[3] * x2 * x3
                + q3[0] * x3 * x0 + q3[1] * x3 * x1 + q3[2] * x3 * x2 + q3[3] * x3 * x3)
        gauss = math.exp(expo)
        if not gauss > 0.0:
            # Far out the Gaussian underflows (its terms may even overflow to
            # inf - inf) while the numerator's powers overflow. The quadratic
            # form is negative definite and |W| <= 1/pi^2, so W is 0 there.
            return 0.0
        num = self.coeffs
        for k, ell in zip(num.shape, self.coupling @ xi):
            powers = [power := _ONE]
            for j in range(1, k):
                powers.append(power := power * ell / j)
            num = np.dot(powers, num.reshape(k, -1))
        val = _real(complex(num[0]), "Wigner numerator")
        return self.scale * val * gauss


def wigner_polynomial(lam: float, spec: NGOperationSpec) -> WignerKernel:
    """Closed-form Wigner kernel: the heralding coefficient array of the
    state, contracted against each point on call."""
    return _heralding(_as_lambda(lam), _as_spec(spec)).kernel


def moment(lam: float, spec: NGOperationSpec, idx,
           max_total: int = _DEFAULT_MOMENT_CAP) -> float:
    """Symmetric-ordered quadrature moment <q1^a1 p1^b1 q2^a2 p2^b2>_W.

    ``idx = (a1, b1, a2, b2)`` are derivative orders on the moment source
    vector; the total order is capped (default 4). Index (0,0,0,0) returns
    exactly 1.0: its numerator is the same arithmetic as the core.
    """
    idx = _as_tuple(idx, "moment index", "integers")
    if len(idx) != 4 or not all(map(_is_count, idx)):
        raise ParameterError("moment index must be four non-negative integers")
    if not _is_count(max_total):
        raise ParameterError(f"max_total must be a non-negative integer, got {max_total!r}")
    if sum(idx) > max_total:
        raise ParameterError(
            f"moment total order {sum(idx)} exceeds cap {max_total}")
    state = _heralding(_as_lambda(lam), _as_spec(spec))
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
    if order not in state.moments:
        state.moments[order] = _moment_tables(state, order)
    h, m = state.moments[order]
    h_at, m_at, factorials = _moment_plan(idx, state.coeffs.shape, order)
    num = 0  # Python's complex product and sum are numpy's scalar ones
    for a, b in zip(h.take(h_at).tolist(), m.take(m_at).tolist()):
        num += a * b
    # a[k - j] = D^k D^j aux[k - j]: D^j sits in the couplings of
    # _moment_tables, D^k is (-1)^photons.
    num = num * complex((-1) ** state.spec.total_photons * factorials)
    return _real(num, "moment numerator") / state.core


@functools.lru_cache(maxsize=256)
def _moment_plan(idx: tuple, shape: tuple, order: int) -> tuple:
    """The flat positions in h and m of the terms h[idx - g - d] m[g, d] of
    :func:`_moment`, in summing order, and prod(idx_i!); a g or d past the
    tables' degree has A_g = 0 or B_d = 0, and no term."""
    rows, cols = ({g: n for n, g in enumerate(
        g for exps, *_ in _power_plan(half, order)[0] for g in map(tuple, exps.tolist()))}
        for half in (shape[:4], shape[4:]))
    h_at, m_at = zip(*(
        ([i - g - d for i, g, d in zip(idx, gam, dlt)], rows[gam] * len(cols) + cols[dlt])
        for gam in itertools.product(*(range(i + 1) for i in idx)) if gam in rows
        for dlt in itertools.product(*(range(i - g + 1) for i, g in zip(idx, gam)))
        if dlt in cols))
    return (*_frozen(np.ravel_multi_index(np.array(h_at).T, (order + 1,) * 4), np.array(m_at)),
            math.prod(map(math.factorial, idx)))


def _moment_tables(state: _State, order: int):
    """The arrays every moment of total order <= ``order`` reads: h (orders
    up to ``order`` per variable) and, where |g| + |d| <= order, m[g, d] =
    sum_j A_g[j'] B_d[j''] coeffs[j]; j = (j', j'') splits the variables in
    halves, A_g (B_d) holds [u^j'] prod_b (c_b.u)^g_b / g_b! over the first
    (last) half for the g (d) of :func:`_power_plan`. The columns c_b of the
    moment coupling carry the probability signs D on their rows, so the
    Wigner-signed ``coeffs`` can be contracted."""
    h = coefficient_array(GeneratingExponent(4, _MOMENT_FORM_SCALE * state.form),
                          DerivativeSpec((order,) * 4))[0]
    shape = state.coeffs.shape
    coupling = _MOMENT_COUPLING_SCALE * state.coupling * _PROB_SIGNS[:, None]
    first = _power_products(coupling[:4], shape[:4], order)
    last = _power_products(coupling[4:], shape[4:], order)
    coeffs = state.coeffs.reshape(first.shape[1], last.shape[1])
    # Elementwise products and numpy sums only: a BLAS product's last bits
    # depend on the library build, and moments are pinned to the last bit.
    # The sum over j'' is numpy's pairwise sum along memory. The sum over j'
    # runs in order from +0: A_g[j'] = 0 unless |j'| = |g|, and adding a
    # zero to such a sum changes no bit.
    m = np.zeros((len(first), len(last)), dtype=np.complex128)
    ends = [cols.stop for _, cols in _power_plan(shape[4:], order)[1]]
    for s, (rows, cols) in enumerate(_power_plan(shape[:4], order)[1]):
        width = ends[min(order - s, len(ends) - 1)]  # a moment reads |g| + |d| <= order
        part = (coeffs[rows, None] * last[:width]).sum(axis=2)
        m[cols, :width] = (first.T[rows, cols][..., None] * part[:, None]).sum(axis=0)
    return h, m


@functools.lru_cache(maxsize=64)
def _power_plan(shape: tuple, order: int) -> tuple:
    """What the power products read, the same for every state: the degrees
    d <= top of the g <= (top,) * 4 (see :func:`~ngtmsv.series._levels`),
    top = min(order, |shape - 1|), the degree the array holds; per degree
    d, the raveled j < ``shape`` with |j| = d and the slice of the rows of
    the g with |g| = d."""
    top = min(order, sum(shape) - len(shape))
    levels = _levels((top,) * 4, top)
    ends = list(itertools.accumulate((len(exps) for exps, *_ in levels), initial=0))
    rows = _frozen(*(np.ravel_multi_index(exps.T, shape)
                     for exps, *_ in _levels(tuple(n - 1 for n in shape))[:top + 1]))
    return levels, tuple(zip(rows, map(slice, ends, ends[1:])))


def _power_products(vecs: np.ndarray, shape: tuple, order: int) -> np.ndarray:
    """Row g (see :func:`_power_plan`): [u^j] prod_b (vecs[:, b].u)^g_b / g_b!
    for the raveled j < shape, its parent's row times one linear form."""
    levels, _ = _power_plan(shape, order)
    level = np.zeros((1,) + shape, dtype=np.complex128)
    level[(0,) * 5] = 1.0
    cols = [level]
    for _, p_idx, b_idx, div in levels[1:]:
        up = np.zeros((4,) + level.shape, dtype=np.complex128)
        for i, n in enumerate(shape):
            if n > 1:
                head = (slice(None),) * (1 + i)
                up[(slice(None),) + head + (slice(1, None),)] += (
                    vecs[i].reshape((4,) + (1,) * 5) * level[head + (slice(-1),)])
        level = up[b_idx, p_idx] / div.reshape((-1,) + (1,) * 4)
        cols.append(level)
    return np.concatenate(cols).reshape(-1, math.prod(shape))


def j2_second_moment(lam: float, spec: NGOperationSpec) -> float:
    """<J2^2> of the heralded state (J2 generates the interferometer phase)."""
    state = _heralding(_as_lambda(lam), _as_spec(spec))
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
    slope = isinstance(phi, Dual)
    for part in (phi.value, phi.deriv) if slope else (phi,):
        _as_phase(part)
    state = _heralding(_as_lambda(lam), _as_spec(spec))
    f, df, faults = _parity(state.batch, phi.value if slope else phi, slope)
    value = _pick(f, faults, state.index)
    return Dual(value, float(df[state.index] * phi.deriv)) if slope else value


def _parity(batch: _Batch, phi: float, slope: bool) -> tuple:
    """The parity signal of every state of a batch at the phase ``phi``,
    normalized by its probability core: ``(f, df, faults)``, where ``df`` is
    its phase derivative if ``slope`` is set (else None) and ``faults`` holds
    per state the error its evaluation raises, or None.

    <Pi> = pi * integral of W(N eta) d eta over the detection plane, where
    N's columns are (c, 0, s, 0) and (0, c, 0, s) with (c, s) = (cos, sin)
    of phi/2. The Gaussian factor is exp(eta^T A eta) with A = N^T S N =
    diag(S11 + S13 sin phi, S22 + S24 sin phi), and sqrt(det(-A)) =
    norm / base_norm, so <Pi> = base_norm * num / (norm * core) with the
    numerator ``num`` of :func:`_parity_numerator`, and ``df`` is the
    quotient rule on that, per batch entry.

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
    top = (slope and batch.specs[0].total_photons % 2 == 0
           and abs(math.cos(phi)) <= _TOP_WINDOW)
    series = _parity_numerator(batch, phi, 2 if top else 1 if slope else 0, faults)
    num = _real_parts(series[:, 0], "parity numerator", faults)
    if slope:
        dnum = _real_parts(2.0 * series[:, 2] * (-math.cos(phi) * math.sin(phi)) if top
                           else series[:, 1], "parity numerator derivative", faults)
    norm, d_norm = _parity_norm(params, phi)
    # a state with a fault may divide by zero here; its entries are not read
    with np.errstate(divide="ignore", invalid="ignore"):
        f = params.base_norm * num / (norm * den)
        df = (dnum * params.base_norm - f * (d_norm * den)) / (norm * den) if slope else None
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
    coupling. Substituting eta = L z, L = diag(1/sqrt(-2 A_ii)), the plane
    integral of num_W(N eta) exp(eta^T A eta) is pi / sqrt(det(-A)) times
    num, the mean of num_W(N L z) over a standard normal z in the plane;
    num_W's linear term is l = C N L z. num_W = scale * sum_s A_s G_s B_s^T
    over the blocks G_s of the batch: A_s holds P(alpha - r) for the rows
    r of G_s, B_s holds P(beta - c) for its columns c, and
    P(t) = prod_i l_i^t_i / t_i! over the variables of a (or of b). The
    term of block s is a homogeneous polynomial of degree 2d in z, with
    d = |alpha| - s = |beta| - s. Its mean is E|z|^(2d) = 2^d d! times its
    mean over the directions z / |z|, which the directions of
    :func:`_circle_rule` give exactly. P is built a degree at a time,
    P(t) = P(t - e_b) l_b / t_b (see :func:`~ngtmsv.series._levels`), and
    the block whose rows and columns need that degree is contracted before
    the next one is built, on every direction at once. b's coupling rows are
    -conj of a's and N L is real, so B_s = (-1)^d conj(A_s) and G_s B_s =
    (-1)^d conj(G_s A_s), to the bit, as negation and conjugation round
    symmetrically: only A_s is built. Every factor is a truncated Taylor
    series in phi, held on the axis after the batch axis, and products are
    Cauchy products. The batch axis leads every array and is never summed
    over, so each state's sums run in the order they run for a batch of one,
    and the degree loop can take the batch in slices (see :func:`_slices`).
    """
    levels, coupling, (s_even, s_odd), nodes = batch.parity_terms
    sin_phi, cos_phi = math.sin(phi), math.cos(phi)
    diag = s_even + s_odd * sin_phi
    grows = ~(diag < 0.0).all(axis=1)
    if grows.any():
        _fail(faults, grows, lambda b: ConstructionError(
            "parity Gaussian must decay on the detection plane"))
        diag = np.where(grows[:, None], -0.5, diag)  # a stand-in for those states
    terms = order + 1
    # the series of L and of N; only a slope at a fringe top reads term 2
    scale = 1.0 / np.sqrt(-2.0 * diag)
    cube = scale ** 3
    d_diag = s_odd * cos_phi
    c, s = math.cos(0.5 * phi), math.sin(0.5 * phi)
    rot = np.array([[c, 0.0], [0.0, c], [s, 0.0], [0.0, s]])
    scales = [scale, cube * d_diag]
    rots = [rot, 0.5 * np.array([[-s, 0.0], [0.0, -s], [c, 0.0], [0.0, c]])]
    if order == 2:
        scales.append(1.5 * scale ** 5 * d_diag ** 2 - 0.5 * cube * s_odd * sin_phi)
        rots.append(-0.125 * rot)
    scales, rots = np.array(scales).swapaxes(0, 1), np.array(rots)
    # the series of N L, term d the sum over e <= d of rots[e] scales[d - e],
    # and of l = C N L z per direction, with its terms reversed: the Cauchy
    # product's term k reads terms k, k - 1, ..., 0 of it in order
    m = np.stack([np.einsum("eab,xeb->xab", rots[:d + 1], scales[:, d::-1])
                  for d in range(terms)], axis=1)
    m = np.einsum("xva,xdab->xdvb", coupling, m)
    sums = np.empty((len(m), terms), dtype=np.complex128)
    for rows in _slices(batch, terms):
        ells = np.einsum("xdvb,bn->xvdn", m[rows], nodes)[:, :, ::-1]
        sums[rows] = _direction_sums(levels, ells, [block[rows] for block in batch.blocks])
    return batch.scale / nodes.shape[1] * sums


def _direction_sums(levels: tuple, ells: np.ndarray, blocks: list) -> np.ndarray:
    """The numerator's series terms of :func:`_parity_numerator`, summed
    over the directions, for a slice of the batch whose reversed direction
    series of a are ``ells`` and whose heralding blocks are ``blocks``."""
    terms = ells.shape[2]
    a = np.zeros((len(ells), 1, terms, ells.shape[3]), dtype=np.complex128)
    a[:, :, 0] = 1.0  # P at degree 0 is 1
    num = 0.0
    # Complex products go through np.einsum without `optimize`: its loops
    # are built once for numpy's baseline instruction set and round the same
    # on every CPU, where a BLAS routine and numpy's complex multiply ufunc
    # pick kernels per CPU, and the latter fuses its products (FMA). Each
    # term of a Cauchy product is one einsum over views, so no operand is
    # expanded to a (terms x terms) matrix; the operands' strides keep every
    # sum in the order it had as one contraction with such a matrix.
    for d, block in enumerate(reversed(blocks)):
        if d:
            _, parent, axis, power = levels[d]
            a = _cauchy(ells[:, axis], a[:, parent])
            # numpy divides a complex number by t_b + 0j as the product of
            # each part with 1 / t_b; no part here is -0.0 (an einsum's sum
            # starts at +0.0), so these products are those quotients
            parts = a.view(np.float64)
            parts *= (1.0 / power)[:, None, None]
        # P at degree d, in lexicographic order, meets the rows and columns
        # of block |alpha| - d in reverse order, as t = alpha - r reverses it
        values = np.einsum("xrc,xcm->xrm", block[:, ::-1, ::-1],
                           a.view(np.float64).reshape(a.shape[:2] + (-1,)))
        values = values.view(np.complex128).reshape(a.shape)
        np.negative(values.imag, out=values.imag)  # G conj(A); B's sign is in the weight
        term = np.empty((len(a), terms, a.shape[3]), dtype=np.complex128)
        for k in range(terms):  # sum over r, then over e <= k of a[k - e] values[e]
            np.einsum("xren,xren->xn", a[:, :, k::-1], values[:, :, :k + 1], out=term[:, k])
        del values
        num = num + (-2.0) ** d * math.factorial(d) * term
    return num.sum(axis=-1)


def _cauchy(ells: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Per exponent t: the Cauchy product of the series ``parents[:, t]``
    with the reversed series ``ells[:, t]``, term by term, each term a sum
    over e in increasing order."""
    terms = parents.shape[2]
    out = np.empty(parents.shape, dtype=np.complex128)
    for k in range(terms):
        np.einsum("xten,xten->xtn", ells[:, :, terms - 1 - k:], parents[:, :, :k + 1],
                  out=out[:, :, k])
    return out


# The bytes of arrays one fill holds: its states' heralding blocks and the
# parity quadrature's arrays for a slice of them at a time. A 101-state
# sym-pc-2 row takes fills of 26, 26, 26 and 23 states; a 21-state fill's
# quadrature takes one slice at series order 0, two at order 1, three at 2.
_CHUNK_BYTES = 560_000


def _cut(count: int, fit: int) -> list:
    """The fewest consecutive slices of ``count`` states with at most ``fit``
    (at least one) in each: ceil(count / slices) each, the last the rest."""
    parts = -(-count // max(1, fit))
    size = -(-count // parts)
    return [slice(start, start + size) for start in range(0, count, size)]


def _fills(specs: tuple) -> list:
    """The fills of :func:`evaluate_chunk` over ``specs``: per state,
    :func:`~ngtmsv.series.pair_blocks` ends with the blocks' entries
    (float64) and holds, at its widest degree, about three more blocks of
    that size. Block s has the exponents of degree s as rows and columns."""
    orders = specs[0].derivative_spec().orders
    counts = [len(exps) for exps, *_ in _levels(tuple(orders[v] for v in _PAIRED))]
    per_state = 8 * (sum(c * c for c in counts) + 3 * max(counts) ** 2)
    return _cut(len(specs), _CHUNK_BYTES // per_state)


def _slices(batch: _Batch, terms: int) -> list:
    """The passes of :func:`_direction_sums` over ``batch``: what the fill's
    bytes leave beside its blocks, over the bytes per state. At the widest
    degree a state holds about five complex arrays of its exponents times
    ``terms`` times the directions: the old and the new a, the two gathered
    operands of a Cauchy product, and the direction series."""
    levels, _, _, nodes = batch.parity_terms
    per_state = 16 * 5 * max(len(exps) for exps, *_ in levels) * terms * nodes.shape[1]
    held = sum(block.nbytes for block in batch.blocks)
    return _cut(len(batch.specs), (_CHUNK_BYTES - held) // per_state)


@functools.lru_cache(maxsize=64)
def _circle_rule(n: int) -> np.ndarray:
    """The n directions (cos theta, sin theta), theta = pi k / n for k < n,
    as a read-only (2, n) array.

    On a direction, a homogeneous polynomial of even degree 2d < 2n in the
    plane is an even trigonometric polynomial of degree 2d in theta, with
    period pi. The mean of such a polynomial over n equally spaced angles of
    one period is its mean over the circle, exactly.
    """
    angles = [math.pi * k / n for k in range(n)]
    nodes = np.array([[math.cos(t) for t in angles], [math.sin(t) for t in angles]])
    return _frozen(nodes)[0]


def phase_sensitivity(lam: float, spec: NGOperationSpec, phi: float) -> float:
    """Error-propagation phase deviation of the parity signal.

    Evaluated at the operating point ``phi`` (the signal is differentiated at
    ``phi + pi/2``, where the parity fringe crosses its steep region).
    """
    phi = _as_phase(phi)
    state = _heralding(_as_lambda(lam), _as_spec(spec))
    return _pick(*_sensitivity(state.batch, phi), state.index)


def _sensitivity(batch: _Batch, phi: float) -> tuple:
    """delta_phi of every state of a batch, and the faults of :func:`_parity`."""
    f, slope, faults = _parity(batch, phi + math.pi / 2.0, True)
    _fail(faults, np.abs(slope) < _SLOPE_FLOOR, lambda b: StationaryPointError(
        f"parity slope {slope[b]:.3e} vanishes at phi={phi}; sensitivity undefined"))
    variance = 1.0 - f * f
    _fail(faults, variance < -2.0 * _PARITY_SLACK, lambda b: ConsistencyError(
        f"parity variance {variance[b]:.3e} is negative"))
    with np.errstate(divide="ignore", invalid="ignore"):  # only at faults
        return np.sqrt(np.where(0.0 > variance, 0.0, variance)) / np.abs(slope), faults


def _tmsv_reference(lam: float, phi: float) -> float:
    """delta_phi of the bare TMSV in closed form (Anisimov et al., PRL 104,
    103602 (2010)): at the operating point the parity signal is
    (1 + k sin^2 phi)^(-1/2), k = nbar (nbar + 2) with nbar = 2 lam^2 /
    (1 - lam^2), so delta_phi = (1 + k sin^2 phi) / (sqrt(k) |cos phi|),
    with no cancellation. 1 - lam^2 is the product (1 - lam)(1 + lam),
    which keeps its digits near lam = 1. The stationary rule is the state
    path's, applied to the closed-form slope, before any division."""
    _check_lambda(lam)
    lam = float(lam)
    nbar = 2.0 * lam * lam / ((1.0 - lam) * (1.0 + lam))
    k = nbar * (nbar + 2.0)
    spread = 1.0 + k * math.sin(phi) ** 2
    slope = 0.5 * k * abs(math.sin(2.0 * phi)) * spread ** -1.5
    if slope < _SLOPE_FLOOR:
        raise StationaryPointError(
            f"parity slope {slope:.3e} vanishes at phi={phi}; sensitivity undefined")
    return spread / (math.sqrt(k) * abs(math.cos(phi)))


def merit(lam: float, spec: NGOperationSpec, phi: float) -> float:
    """Sensitivity gain over the unmodified squeezed vacuum at the same lam:
    positive when the heralded state resolves phase better."""
    lam, phi, spec = _as_lambda(lam), _as_phase(phi), _as_spec(spec)
    return _tmsv_reference(lam, phi) - phase_sensitivity(lam, spec, phi)


def weighted_merit(lam: float, spec: NGOperationSpec, phi: float) -> float:
    """Merit weighted by the heralding probability (resource-aware gain)."""
    phi = _as_phase(phi)
    state = _heralding(_as_lambda(lam), _as_spec(spec))
    ref = _tmsv_reference(lam, phi)
    return state.prob * (ref - _pick(*_sensitivity(state.batch, phi), state.index))


_STATE_QUANTITIES = ("probability", "qfi", "qcrb", "wigner")
_PHASE_QUANTITIES = ("parity", "sensitivity", "merit", "weighted_merit")


def evaluate_chunk(quantity: str, lam: float, specs, phis, point=None) -> list:
    """One quantity at every point (lam, spec, phi), spec outermost, from
    fills of bounded bytes (see :func:`_fills`) of ``specs``, which must
    share their photon numbers (m1, m2, n1, n2). ``quantity`` is a sweep
    quantity name; ``point`` is the Wigner point. Returns per point the
    value that the per-point function (``success_probability``, ``qfi``,
    ``qcrb``, ``parity_expectation``, ``phase_sensitivity``, ``merit``,
    ``weighted_merit`` or ``wigner``) returns there, bit for bit, or the
    :class:`~ngtmsv.errors.NGError` it raises. Invalid arguments raise at
    once; no specs give no points.
    """
    if quantity not in _STATE_QUANTITIES + _PHASE_QUANTITIES:
        raise ParameterError(f"unknown quantity {quantity!r}")
    xi = _as_point(point) if quantity == "wigner" else None
    lam = _as_lambda(lam)
    phis = [_as_phase(phi) for phi in _as_tuple(phis, "phis", "phases")]
    specs = _as_tuple(specs, "specs", "operations")
    if len({(_as_spec(s).m1, s.m2, s.n1, s.n2) for s in specs}) > 1:
        raise ParameterError("a chunk's specs must share their photon numbers (m1, m2, n1, n2)")
    return evaluate_checked(quantity, lam, specs, phis, xi)


def evaluate_checked(quantity: str, lam: float, specs: tuple, phis, xi) -> list:
    """:func:`evaluate_chunk` without its checks, on arguments a ``SweepRequest``
    has checked; ``xi`` is the Wigner point as a tuple of floats, or None."""
    if not specs:
        return []
    outcomes = []
    for fill in _fills(specs):
        batch = _herald(lam, specs[fill])
        if quantity in _STATE_QUANTITIES:
            states = [_state_outcome(quantity, batch, b, xi) for b in range(len(batch.specs))]
            outcomes += [out for out in states for _ in phis]
        else:
            columns = [_phase_outcomes(quantity, batch, lam, phi) for phi in phis]
            outcomes += [column[b] for b in range(len(batch.specs)) for column in columns]
        del batch  # released before the next fill is made
    return outcomes


def _state_outcome(quantity: str, batch: _Batch, index: int, xi):
    """A phase-free quantity of one state of a batch, or its error."""
    if quantity == "probability":  # the batch's own value: no _State is built
        fault = batch.faults[index]
        return float(batch.prob[index]) if fault is None else fault
    try:
        state = batch.state(index)
        if quantity == "wigner":
            return state.kernel._value(xi)
        _check_floor(state.prob, "moments")
        fisher = _qfi(_j2(state))
        return fisher if quantity == "qfi" else 1.0 / math.sqrt(fisher)
    except NGError as err:  # its traceback's frames would keep the batch alive
        return err.with_traceback(None)


def _phase_outcomes(quantity: str, batch: _Batch, lam: float, phi: float) -> list:
    """A phase quantity of every state of a batch at ``phi``, or the error
    of each state, in the order the per-point function raises them."""
    if quantity == "parity":
        values, _, faults = _parity(batch, phi, False)
    else:
        if quantity != "sensitivity":
            try:
                ref = _tmsv_reference(lam, phi)
            except NGError as err:
                # merit reads the reference first, weighted merit the state
                err = err.with_traceback(None)  # see _state_outcome
                return [err if quantity == "merit" or fault is None else fault
                        for fault in batch.faults]
        values, faults = _sensitivity(batch, phi)
        if quantity == "merit":
            values = ref - values
        elif quantity == "weighted_merit":
            values = batch.prob * (ref - values)
    return [v if fault is None else fault for v, fault in zip(values.tolist(), faults)]


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
    state = _heralding(_as_lambda(lam), _as_spec(spec))
    f, _, faults = _parity(state.batch, phi, False)
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
    "evaluate_checked",
]

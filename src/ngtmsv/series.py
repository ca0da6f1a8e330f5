"""Dense Taylor-coefficient engine and derivative extraction.

The analytic layer reduces every physical quantity to mixed partial
derivatives, evaluated at zero, of ``exp(u^T Q u + L.u + c)`` in up to twelve
formal variables. This module provides:

* :class:`GeneratingExponent` — one exponent's quadratic-plus-linear data,
  in the array a form builder returns for one operation.
* :func:`coefficient_array` — every Taylor coefficient [u^j] of
  ``exp(u^T Q u + L.u)`` up to the requested orders, as one dense complex
  array; entries that are :class:`~ngtmsv.dual.Dual` add a derivative row.
* :func:`mixed_partial_at_zero` — the derivative functional: the corner
  entry of that array times the factorials, the prefactor and ``exp(c)``.
* :func:`pair_blocks` — the coefficients of ``exp(2 a^T M b)``, a form that
  pairs one set of variables only with the rest, grouped by degree: the
  only ones that are not zero, for a batch of forms in one array.

Truncation soundness: all exponents are non-negative, so a product term at
an exponent within the orders can only arise from factor terms bounded by
it componentwise. Dropping everything beyond the orders never changes the
kept coefficients. In particular a variable of order 0 only ever appears at
power 0 in a kept coefficient: its axis has size 1, and every monomial that
touches it is skipped.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dual import Dual, d_exp
from .errors import ConstructionError


class GeneratingExponent:
    """Exponent data ``u^T quad u + lin . u + const`` over ``dim`` variables.

    ``quad`` is kept as ``np.asarray(quad)``, of shape ``(dim, dim)``, and
    must be symmetric (checked exactly on construction); ``lin`` is a
    length-``dim`` sequence; entries may be numbers or Duals, which make
    ``quad`` an object array.
    """

    __slots__ = ("dim", "quad", "lin", "const")

    def __init__(self, dim: int, quad=None, lin=None, const=0.0):
        if dim <= 0:
            raise ConstructionError("dimension must be positive")
        self.dim = dim
        try:
            quad = np.zeros((dim, dim)) if quad is None else np.asarray(quad)
        except ValueError:  # a ragged nesting
            quad = np.empty(0)
        if quad.shape != (dim, dim):
            raise ConstructionError(f"quadratic block must be {dim}x{dim}")
        _check_symmetric(quad)
        lin = [0.0] * dim if lin is None else list(lin)
        if len(lin) != dim:
            raise ConstructionError(f"linear part must have {dim} entries")
        self.quad = quad
        self.lin = lin
        self.const = const

    def monomials(self):
        """Yield (exponent_tuple, coefficient) with exact zero entries skipped.

        Iteration order is deterministic: quadratic entries row-major with
        i <= j (off-diagonal coefficients doubled), then linear entries.
        """
        n = self.dim
        for i in range(n):
            for j in range(i, n):
                c = self.quad[i, j]
                if not c:
                    continue
                if i != j:
                    c = c + c
                expo = [0] * n
                expo[i] += 1
                expo[j] += 1
                yield tuple(expo), c
        for i, c in enumerate(self.lin):
            if not c:
                continue
            expo = [0] * n
            expo[i] = 1
            yield tuple(expo), c

    def value_at(self, point: Sequence[complex]) -> complex:
        """Numeric value of exp(exponent) at a numeric point (numeric entries only)."""
        if len(point) != self.dim:
            raise ConstructionError("point dimension mismatch")
        total = self.const
        for i in range(self.dim):
            for j in range(self.dim):
                total += self.quad[i][j] * point[i] * point[j]
            total += self.lin[i] * point[i]
        return cmath.exp(total)


def _check_symmetric(quad: np.ndarray) -> None:
    """Raise ConstructionError unless every ``quad[..., i, j]`` equals
    ``quad[..., j, i]`` exactly; the message names the first (i, j), i < j,
    in row-major order where some entry differs."""
    asym = quad != quad.swapaxes(-1, -2)
    if asym.any():
        n = quad.shape[-1]
        for i, j in np.argwhere(asym.reshape(-1, n, n).any(0)):
            if i < j:
                raise ConstructionError(f"quadratic block not symmetric at ({i},{j})")


def _is_count(v) -> bool:
    """Whether ``v`` is a non-negative integer: bools are not."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


@dataclass(frozen=True)
class DerivativeSpec:
    """Mixed-partial request: per-variable derivative orders and a prefactor."""

    orders: tuple
    prefactor: complex = 1.0

    def __post_init__(self):
        if not (isinstance(self.orders, (tuple, list)) and all(map(_is_count, self.orders))):
            raise ConstructionError(
                f"derivative orders must be a sequence of non-negative integers, got {self.orders!r}")


def coefficient_array(exponent: GeneratingExponent,
                      spec: DerivativeSpec) -> np.ndarray:
    """Taylor coefficients [u^j] exp(u^T quad u + lin . u) for every j <= k.

    ``k`` is ``spec.orders``; the constant part and the prefactor are not
    applied. The result is a complex array of shape ``(w, k_1+1, ...,
    k_n+1)`` whose leading axis is a jet: ``w = 2`` (value, derivative) when
    any quadratic or linear entry is a :class:`Dual`, otherwise ``w = 1``.

    The exponent is a finite sum of commuting monomials c_m u^m, so the
    exponential is the product of exp(c_m u^m) = sum_j c_m^j/j! u^(j m).
    Multiplying by one factor adds c_m^j/j! times the array shifted by j*m
    for each j; entries shifted past the orders are dropped, which is exact
    because all exponents are non-negative.
    """
    if not isinstance(spec, DerivativeSpec):
        raise ConstructionError(f"expected a DerivativeSpec, got {spec!r}")
    orders = tuple(spec.orders)
    if len(orders) != exponent.dim:
        raise ConstructionError("derivative orders do not match exponent dimension")
    jet = any(isinstance(c, Dual) for c in exponent.lin) or exponent.quad.dtype == object and any(
        isinstance(c, Dual) for c in exponent.quad.flat)
    shape = tuple(k + 1 for k in orders)
    arr = np.zeros((2 if jet else 1,) + shape, dtype=np.complex128)
    arr[(0,) * arr.ndim] = 1.0
    whole = [slice(None)] * len(shape)
    for expo, coeff in exponent.monomials():
        moved = [(k, e) for k, e in enumerate(expo) if e]
        jmax = min(orders[k] // e for k, e in moved)
        if jmax == 0:
            continue
        cv, cd = (coeff.value, coeff.deriv) if isinstance(coeff, Dual) else (complex(coeff), 0.0)
        fv, fd = 1.0, 0.0
        # Every term is read from the array as it was before this factor;
        # then the terms are added in order of j.
        terms = []
        for j in range(1, jmax + 1):
            src, dst = whole.copy(), whole.copy()
            for k, e in moved:
                src[k] = slice(0, shape[k] - j * e)
                dst[k] = slice(j * e, None)
            src, dst = tuple(src), tuple(dst)
            if jet:
                fv, fd = fv * cv / j, (fd * cv + fv * cd) / j
                terms.append((1, dst, fv * arr[1][src] + fd * arr[0][src]))
            else:
                fv = fv * cv / j
            terms.append((0, dst, fv * arr[0][src]))
        for w, dst, term in terms:
            target = arr[w][dst]
            target += term
    return arr


def mixed_partial_at_zero(exponent: GeneratingExponent, spec: DerivativeSpec):
    """prefactor * (d^k / du^k) exp(exponent) at u = 0.

    Equals ``prefactor * prod(k_i!) * exp(const) * [u^k] exp(u^T quad u +
    lin . u)``, read from the corner of :func:`coefficient_array`. Returns a
    :class:`Dual` when any entry of the exponent is one, else a complex.
    """
    corner = coefficient_array(exponent, spec)[(slice(None),) + tuple(spec.orders)]
    if len(corner) == 2:
        coeff = Dual(complex(corner[0]), complex(corner[1]))
    else:
        coeff = complex(corner[0])
    out = spec.prefactor * math.prod(map(math.factorial, spec.orders)) * coeff
    if exponent.const:
        out = out * d_exp(exponent.const)
    return out


def _frozen(*arrays) -> tuple:
    for a in arrays:  # read-only: cached plans and a state's arrays are shared
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=64)
def _levels(orders: tuple, top: int | None = None) -> tuple:
    """The exponents e <= ``orders``, grouped by degree |e|: the one tree
    of multi-indices that every per-shape plan reads.

    Per degree d: the (n_d, len(orders)) int array of its exponents in
    lexicographic order; for d > 0 also, per exponent e, the index of its
    parent e - e_b in degree d - 1, b, the last nonzero axis of e, and
    e_b. So every exponent is reached once, from its parent, along axis b.
    Only the degrees up to ``top`` (default: all of them) are built.
    """
    top = sum(orders) if top is None else min(top, sum(orders))
    degrees = [[] for _ in range(top + 1)]
    for e in itertools.product(*(range(min(k, top) + 1) for k in orders)):
        if sum(e) <= top:
            degrees[sum(e)].append(e)
    out = [_frozen(np.array(degrees[0])) + (None, None, None)]
    for exps in degrees[1:]:
        at = {e: n for n, e in enumerate(map(tuple, out[-1][0].tolist()))}
        axis = [max(i for i, k in enumerate(e) if k) for e in exps]
        out.append(_frozen(
            np.array(exps),
            np.array([at[e[:b] + (e[b] - 1,) + e[b + 1:]] for e, b in zip(exps, axis)]),
            np.array(axis), np.array([e[b] for e, b in zip(exps, axis)])))
    return tuple(out)


@functools.lru_cache(maxsize=64)
def _pair_plan(alpha: tuple, beta: tuple) -> tuple:
    """Per degree s >= 1 of :func:`pair_blocks`: the a-variables ``var``
    that some row of degree s holds, and for each of them the index, into
    the raveled block of degree s - 1 with a zero appended, of the entry
    [r - e_i, parent of c] (the zero where r_i = 0); the axis b of each
    column and its exponent c_b."""
    rows, cols = _levels(alpha), _levels(beta)
    plan = []
    for s in range(1, min(len(rows), len(cols))):
        at = {r: n for n, r in enumerate(map(tuple, rows[s - 1][0].tolist()))}
        width = len(cols[s - 1][0])
        _, parent, axis, power = cols[s]
        exps = list(map(tuple, rows[s][0].tolist()))
        var = [i for i in range(len(alpha)) if any(r[i] for r in exps)]
        gather = [[[at[r[:i] + (r[i] - 1,) + r[i + 1:]] * width + c if r[i] else len(at) * width
                    for c in parent.tolist()] for r in exps] for i in var]
        plan.append(_frozen(np.array(gather), np.array(var)[:, None], axis, power))
    return tuple(plan)


def pair_blocks(quad: np.ndarray, first: tuple, orders: tuple) -> list:
    """Taylor coefficients of exp(u^T quad u) for a form that pairs the
    variables ``first`` only with the others, grouped by degree.

    ``quad`` is a real symmetric array of shape ``batch + (n, n)``, one
    form per batch entry, with ``n = len(orders)``. Let a be u over
    ``first`` and b over the others, in increasing order, with orders alpha
    and beta taken from ``orders``. A form whose entries inside a and inside
    b are exactly zero is u^T quad u = 2 a^T M b, M = quad[first, others]:
    every monomial holds as many a's as b's, so [a^r b^c] exp(2 a^T M b) is
    zero unless |r| = |c|. Block s holds the others: a real array of shape
    ``batch + (n_s, m_s)`` with [a^r b^c] at row r and column c, for the
    r <= alpha and c <= beta of degree s in lexicographic order, s from 0
    to min(|alpha|, |beta|). Any other form, or orders of another length,
    raises ConstructionError.

    [b^c] exp(b . 2 M^T a) = prod_j (2 M^T a)_j^c_j / c_j!, a polynomial
    in a of degree |c|. Column c of block s is the column of its parent
    c - e_b in block s - 1 times the linear form (2 M^T a)_b / c_b; the
    product shifts each row r - e_i to r, and the rows that it shifts past
    alpha are dropped, which is exact as every exponent is non-negative.
    """
    quad = np.asarray(quad)
    n = len(orders)
    if quad.shape[-2:] != (n, n):
        raise ConstructionError(f"derivative orders do not match the form's shape {quad.shape}")
    _check_symmetric(quad)
    first = list(first)
    others = [v for v in range(n) if v not in first]
    if (quad.dtype.kind != "f" or quad[..., first, :][..., first].any()
            or quad[..., others, :][..., others].any()):
        raise ConstructionError(
            "pair_blocks needs a real quadratic form that pairs the variables "
            f"{tuple(first)} only with the others")
    pair = quad[..., first, :][..., others]
    pair = pair + pair
    batch = quad.shape[:-2]
    level = np.ones(batch + (1, 1))
    blocks = [level]
    for gather, var, axis, div in _pair_plan(tuple(orders[v] for v in first),
                                             tuple(orders[v] for v in others)):
        flat = np.concatenate((level.reshape(batch + (-1,)), np.zeros(batch + (1,))), axis=-1)
        factor = pair[..., var, axis] / div
        # one variable of a at a time, added onto +0.0 in the order of var:
        # the sum np.sum would form, without the (var, rows, cols) array
        level = np.zeros(batch + gather.shape[1:])
        for i, rows in enumerate(gather):
            level += flat[..., rows] * factor[..., i, None, :]
        blocks.append(level)
    return blocks


__all__ = [
    "GeneratingExponent",
    "DerivativeSpec",
    "coefficient_array",
    "mixed_partial_at_zero",
    "pair_blocks",
    "Dual",
]

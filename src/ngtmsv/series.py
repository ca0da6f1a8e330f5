"""Dense Taylor-coefficient engine and derivative extraction.

The analytic layer reduces every physical quantity to mixed partial
derivatives, evaluated at zero, of ``exp(u^T Q u + L.u + c)`` in up to twelve
formal variables. This module provides:

* :class:`GeneratingExponent` — the quadratic-plus-linear exponent data.
* :func:`coefficient_array` — every Taylor coefficient [u^j] of
  ``exp(u^T Q u + L.u)`` up to the requested orders, as one dense complex
  array; entries that are :class:`~ngtmsv.dual.Dual` add a derivative row.
* :func:`mixed_partial_at_zero` — the derivative functional: the corner
  entry of that array times the factorials, the prefactor and ``exp(c)``.

Truncation soundness: all exponents are non-negative, so a product term at
an exponent within the orders can only arise from factor terms bounded by
it componentwise. Dropping everything beyond the orders never changes the
kept coefficients. In particular a variable of order 0 only ever appears at
power 0 in a kept coefficient, so the engine sets it to zero: monomials that
touch it are dropped, the array is built over the remaining variables, and
size-1 axes are restored at the end.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dual import Dual, d_exp
from .errors import ConstructionError


class GeneratingExponent:
    """Exponent data ``u^T quad u + lin . u + const`` over ``dim`` variables.

    ``quad`` must be symmetric (checked exactly on construction); ``lin`` is a
    length-``dim`` sequence; entries may be numbers or Duals. A real array
    ``quad`` of shape ``(B, dim, dim)`` is a batch of B quadratic parts that
    share ``lin`` and ``const``: each entry of ``quad`` is then the array of
    its B values, and the engine fills one array per batch entry.
    """

    __slots__ = ("dim", "quad", "lin", "const", "batch")

    def __init__(self, dim: int, quad=None, lin=None, const=0.0):
        if dim <= 0:
            raise ConstructionError("dimension must be positive")
        self.dim = dim
        self.batch, asym = (), ()
        if quad is None:
            quad = [[0.0] * dim for _ in range(dim)]
        elif isinstance(quad, np.ndarray) and quad.ndim == 3:
            if (quad.shape[1:] != (dim, dim) or quad.dtype.kind != "f"
                    or not all(isinstance(c, numbers.Real) for c in ([] if lin is None else lin))):
                raise ConstructionError(
                    f"a batch of quadratic blocks must be real, of shape (B, {dim}, {dim}),"
                    " with a real linear part")
            self.batch = quad.shape[:1]
            quad = np.moveaxis(quad, 0, -1)  # quad[i][j] holds the batch
            asym = quad != quad.swapaxes(0, 1)
            asym = [tuple(ij) for ij in np.argwhere(asym.any(-1)) if ij[0] < ij[1]
                    ] if asym.any() else ()
        else:
            quad = quad.tolist() if isinstance(quad, np.ndarray) else [list(row) for row in quad]
            if len(quad) != dim or any(len(row) != dim for row in quad):
                raise ConstructionError(
                    f"quadratic block must be {dim}x{dim}")
            asym = [(i, j) for i in range(dim) for j in range(i + 1, dim)
                    if quad[i][j] != quad[j][i]]
        if asym:
            raise ConstructionError(
                "quadratic block not symmetric at ({},{})".format(*asym[0]))
        if lin is None:
            lin = [0.0] * dim
        else:
            lin = list(lin)
            if len(lin) != dim:
                raise ConstructionError(f"linear part must have {dim} entries")
        self.quad = quad
        self.lin = lin
        self.const = const

    def monomials(self, variables=None):
        """Yield (exponent_tuple, coefficient) with exact zero entries skipped.

        ``variables`` (default: all, in order) restricts the exponent to the
        sub-vector of those variables; exponent tuples then index it.
        Iteration order is deterministic: quadratic entries row-major with
        i <= j (off-diagonal coefficients doubled), then linear entries. For
        a batch, a coefficient is the array of its B values, skipped when
        all of them are zero.
        """
        var = tuple(range(self.dim) if variables is None else variables)
        n = len(var)
        nonzero = self.quad.any(axis=-1).tolist() if self.batch else self.quad
        for a, i in enumerate(var):
            for b in range(a, n):
                if not nonzero[i][var[b]]:
                    continue
                c = self.quad[i][var[b]]
                if a != b:
                    c = c + c
                expo = [0] * n
                expo[a] += 1
                expo[b] += 1
                yield tuple(expo), c
        for a, i in enumerate(var):
            c = self.lin[i]
            if not c:
                continue
            expo = [0] * n
            expo[a] = 1
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


@dataclass(frozen=True)
class DerivativeSpec:
    """Mixed-partial request: per-variable derivative orders and a prefactor."""

    orders: tuple
    prefactor: complex = 1.0

    def __post_init__(self):
        if any((not isinstance(k, int)) or k < 0 for k in self.orders):
            raise ConstructionError("derivative orders must be non-negative integers")

    @property
    def total(self) -> int:
        return sum(self.orders)


def coefficient_array(exponent: GeneratingExponent,
                      spec: DerivativeSpec) -> np.ndarray:
    """Taylor coefficients [u^j] exp(u^T quad u + lin . u) for every j <= k.

    ``k`` is ``spec.orders``; the constant part and the prefactor are not
    applied. The result is a complex array of shape ``(w, k_1+1, ...,
    k_n+1)`` whose leading axis is a jet: ``w = 2`` (value, derivative) when
    any quadratic or linear entry is a :class:`Dual`, otherwise ``w = 1``.
    A batch of B exponents, which is real, gives a real array of shape
    ``(1, B, k_1+1, ..., k_n+1)``; each batch entry holds the bits of the
    real part that the exponent alone gives, as the batch axis only ever
    broadcasts.

    The exponent is a finite sum of commuting monomials c_m u^m, so the
    exponential is the product of exp(c_m u^m) = sum_j c_m^j/j! u^(j m).
    Multiplying by one factor adds c_m^j/j! times the array shifted by j*m
    for each j; entries shifted past the orders are dropped, which is exact
    because all exponents are non-negative.
    """
    return _coefficients(exponent, spec)


# The engine proper. mixed_partial_at_zero calls it directly, so a layer
# trace of this module counts one engine call per extraction.
def _coefficients(exponent: GeneratingExponent,
                  spec: DerivativeSpec) -> np.ndarray:
    orders = tuple(spec.orders)
    if len(orders) != exponent.dim:
        raise ConstructionError("derivative orders do not match exponent dimension")
    batch = exponent.batch
    jet = any(isinstance(c, Dual) for c in exponent.lin) or not batch and any(
        isinstance(c, Dual) for row in exponent.quad for c in row)
    if jet and batch:
        raise ConstructionError("a batch of exponents cannot carry Dual entries")
    # Variables with order 0 are set to zero: every monomial touching one
    # would be skipped below anyway, so the array is built over the rest.
    active = [i for i, k in enumerate(orders) if k]
    sub = tuple(orders[i] for i in active)
    shape = tuple(k + 1 for k in sub)
    # A batch is real, and so is every product below: its arrays are filled
    # in real arithmetic. These are the real parts of the complex arithmetic
    # of a single exponent, whose imaginary parts are zeros that never reach
    # the real parts, so each batch entry gets the bits it gets alone.
    arr = np.zeros((2 if jet else 1,) + batch + shape,
                   dtype=float if batch else np.complex128)
    arr[(0,) + (slice(None),) * len(batch) + (0,) * len(shape)] = 1.0
    whole = [Ellipsis] + [slice(None)] * len(shape)  # variable k at k + 1
    for expo, coeff in exponent.monomials(active):
        moved = [(k, e) for k, e in enumerate(expo) if e]
        jmax = min(sub[k] // e for k, e in moved)
        if jmax == 0:
            continue
        if jet:
            if isinstance(coeff, Dual):
                cv, cd = coeff.value, coeff.deriv
            else:
                cv, cd = complex(coeff), 0.0
            fv, fd = 1.0, 0.0
        elif batch:
            cv, fv = coeff, 1.0
        else:
            cv, fv = complex(coeff), 1.0 + 0j
        # Every term is read from the array as it was before this factor;
        # then the terms are added in order of j.
        terms = []
        for j in range(1, jmax + 1):
            src, dst = whole.copy(), whole.copy()
            for k, e in moved:
                src[k + 1] = slice(0, shape[k] - j * e)
                dst[k + 1] = slice(j * e, None)
            src, dst = tuple(src), tuple(dst)
            if jet:
                fv, fd = fv * cv / j, (fd * cv + fv * cd) / j
                terms.append((1, dst, fv * arr[1][src] + fd * arr[0][src]))
            else:
                fv = fv * cv / j
            f = fv.reshape(batch + (1,) * len(shape)) if batch else fv
            terms.append((0, dst, f * arr[0][src]))
        for w, dst, term in terms:
            target = arr[w][dst]
            target += term
    return arr.reshape(arr.shape[:1] + batch + tuple(k + 1 for k in orders))


def mixed_partial_at_zero(exponent: GeneratingExponent, spec: DerivativeSpec):
    """prefactor * (d^k / du^k) exp(exponent) at u = 0.

    Equals ``prefactor * prod(k_i!) * exp(const) * [u^k] exp(u^T quad u +
    lin . u)``, read from the corner of :func:`coefficient_array`. Returns a
    :class:`Dual` when any entry of the exponent is one, else a complex.
    """
    if exponent.batch:
        raise ConstructionError("mixed_partial_at_zero takes one exponent, not a batch")
    corner = _coefficients(exponent, spec)[(slice(None),) + tuple(spec.orders)]
    if len(corner) == 2:
        coeff = Dual(complex(corner[0]), complex(corner[1]))
    else:
        coeff = complex(corner[0])
    out = spec.prefactor * math.prod(map(math.factorial, spec.orders)) * coeff
    if exponent.const:
        out = out * d_exp(exponent.const)
    return out


__all__ = [
    "GeneratingExponent",
    "DerivativeSpec",
    "coefficient_array",
    "mixed_partial_at_zero",
    "Dual",
]

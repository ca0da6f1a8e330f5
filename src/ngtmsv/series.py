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
kept coefficients.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dual import Dual, d_exp
from .errors import ConstructionError


class GeneratingExponent:
    """Exponent data ``u^T quad u + lin . u + const`` over ``dim`` variables.

    ``quad`` must be symmetric (checked exactly on construction); ``lin`` is a
    length-``dim`` sequence; entries may be numbers or Duals.
    """

    __slots__ = ("dim", "quad", "lin", "const")

    def __init__(self, dim: int, quad=None, lin=None, const=0.0):
        if dim <= 0:
            raise ConstructionError("dimension must be positive")
        self.dim = dim
        if quad is None:
            quad = [[0.0] * dim for _ in range(dim)]
        else:
            quad = [list(row) for row in quad]
            if len(quad) != dim or any(len(row) != dim for row in quad):
                raise ConstructionError(
                    f"quadratic block must be {dim}x{dim}")
            for i in range(dim):
                for j in range(i + 1, dim):
                    if quad[i][j] != quad[j][i]:
                        raise ConstructionError(
                            f"quadratic block not symmetric at ({i},{j})")
        if lin is None:
            lin = [0.0] * dim
        else:
            lin = list(lin)
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
        dim = self.dim
        for i in range(dim):
            for j in range(i, dim):
                c = self.quad[i][j]
                if not c:
                    continue
                if i != j:
                    c = c + c
                expo = tuple(
                    (2 if k == i == j else 1 if k in (i, j) else 0)
                    for k in range(dim))
                yield expo, c
        for i in range(dim):
            c = self.lin[i]
            if not c:
                continue
            yield tuple(1 if k == i else 0 for k in range(dim)), c

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
    entries = [c for row in exponent.quad for c in row] + exponent.lin
    jet = any(isinstance(c, Dual) for c in entries)
    shape = tuple(k + 1 for k in orders)
    arr = np.zeros((2 if jet else 1,) + shape, dtype=np.complex128)
    arr[(0,) * arr.ndim] = 1.0
    for expo, coeff in exponent.monomials():
        jmax = min((c // e for e, c in zip(expo, orders) if e),
                   default=0)
        if jmax == 0:
            continue
        if jet:
            if isinstance(coeff, Dual):
                cv, cd = coeff.value, coeff.deriv
            else:
                cv, cd = complex(coeff), 0.0
            fv, fd = 1.0, 0.0
        else:
            cv, fv = complex(coeff), 1.0 + 0j
        out = arr.copy()
        for j in range(1, jmax + 1):
            src = tuple(slice(0, s - j * e) for s, e in zip(shape, expo))
            dst = tuple(slice(j * e, None) for e in expo)
            if jet:
                fv, fd = fv * cv / j, (fd * cv + fv * cd) / j
                out[1][dst] += fv * arr[1][src] + fd * arr[0][src]
            else:
                fv = fv * cv / j
            out[0][dst] += fv * arr[0][src]
        arr = out
    return arr


def mixed_partial_at_zero(exponent: GeneratingExponent, spec: DerivativeSpec):
    """prefactor * (d^k / du^k) exp(exponent) at u = 0.

    Equals ``prefactor * prod(k_i!) * exp(const) * [u^k] exp(u^T quad u +
    lin . u)``, read from the corner of :func:`coefficient_array`. Returns a
    :class:`Dual` when any entry of the exponent is one, else a complex.
    """
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

"""Forward-mode dual numbers.

A :class:`Dual` carries a value and the derivative of that value with respect
to one scalar parameter. Arithmetic propagates derivatives exactly (no step
size). The public parity functions take a Dual phase to differentiate the
signal, and the dense reference engine takes Dual form entries.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

Number = (int, float, complex)


@dataclass(frozen=True)
class Dual:
    """Value/derivative pair under forward-mode differentiation."""

    value: complex
    deriv: complex = 0.0

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.deriv + other.deriv)
        if isinstance(other, Number):
            return Dual(self.value + other, self.deriv)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.value, -self.deriv)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.deriv - other.deriv)
        if isinstance(other, Number):
            return Dual(self.value - other, self.deriv)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, Number):
            return Dual(other - self.value, -self.deriv)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value * other.value,
                        self.deriv * other.value + self.value * other.deriv)
        if isinstance(other, Number):
            return Dual(self.value * other, self.deriv * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if other.value == 0:
                raise ZeroDivisionError("dual division by zero value")
            v = self.value / other.value
            return Dual(v, (self.deriv - v * other.deriv) / other.value)
        if isinstance(other, Number):
            return Dual(self.value / other, self.deriv / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, Number):
            if self.value == 0:
                raise ZeroDivisionError("dual division by zero value")
            v = other / self.value
            return Dual(v, -v * self.deriv / self.value)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Dual(1.0, 0.0)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, Dual):
            return self.value == other.value and self.deriv == other.deriv
        if isinstance(other, Number):
            return self.value == other and self.deriv == 0
        return NotImplemented

    def __bool__(self):
        return bool(self.value) or bool(self.deriv)

    def __abs__(self):
        # magnitude of the value part; used only for threshold checks
        return abs(self.value)


def _sin(x):
    return math.sin(x) if isinstance(x, (int, float)) else cmath.sin(x)


def _cos(x):
    return math.cos(x) if isinstance(x, (int, float)) else cmath.cos(x)


def d_sin(x):
    """sin for plain numbers or Dual (real inputs stay real)."""
    if isinstance(x, Dual):
        return Dual(_sin(x.value), _cos(x.value) * x.deriv)
    return _sin(x)


def d_cos(x):
    """cos for plain numbers or Dual (real inputs stay real)."""
    if isinstance(x, Dual):
        return Dual(_cos(x.value), -_sin(x.value) * x.deriv)
    return _cos(x)


def d_exp(x):
    """exp for plain numbers or Dual."""
    if isinstance(x, Dual):
        e = math.exp(x.value) if isinstance(x.value, (int, float)) else cmath.exp(x.value)
        return Dual(e, e * x.deriv)
    return math.exp(x) if isinstance(x, (int, float)) else cmath.exp(x)

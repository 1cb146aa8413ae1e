"""Forward-mode differentiation.

A :class:`FirstOrderNumber` carries a value and a gradient through
arithmetic.  Entries are duck-typed: they are plain floats in ordinary
use, but may themselves be lifted numbers, so lifting can be nested
when derivatives of derivatives are required: the gradient entries of
a number lifted over already lifted inputs are numbers at the outer
depth, and their own gradients are rows of the Hessian.
"""

from __future__ import annotations

import math
import numbers

from .errors import DomainError

__all__ = [
    "FirstOrderNumber",
    "lift",
    "lift_first",
    "unwrap",
    "sin",
    "cos",
    "exp",
    "log",
    "sqrt",
]

_SCALAR = numbers.Real


class FirstOrderNumber:
    """Value and gradient propagated together.

    ``grad`` is a tuple of length ``dim``.  The instance is immutable.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "grad", tuple(grad))

    def __setattr__(self, name, value):
        raise AttributeError("FirstOrderNumber is immutable")

    def __repr__(self):
        return f"FirstOrderNumber({self.value!r}, grad={self.grad!r})"

    def __add__(self, other):
        if isinstance(other, FirstOrderNumber):
            return FirstOrderNumber(
                self.value + other.value,
                tuple(a + b for a, b in zip(self.grad, other.grad)),
            )
        if isinstance(other, _SCALAR):
            return FirstOrderNumber(self.value + other, self.grad)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return FirstOrderNumber(-self.value, tuple(-g for g in self.grad))

    def __sub__(self, other):
        if isinstance(other, FirstOrderNumber):
            return FirstOrderNumber(
                self.value - other.value,
                tuple(a - b for a, b in zip(self.grad, other.grad)),
            )
        if isinstance(other, _SCALAR):
            return FirstOrderNumber(self.value - other, self.grad)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALAR):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, FirstOrderNumber):
            av, bv = self.value, other.value
            return FirstOrderNumber(
                av * bv,
                tuple(a * bv + av * b for a, b in zip(self.grad, other.grad)),
            )
        if isinstance(other, _SCALAR):
            return FirstOrderNumber(
                self.value * other, tuple(g * other for g in self.grad)
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, FirstOrderNumber):
            bv = other.value
            if unwrap(bv) == 0.0:
                raise ZeroDivisionError("division by a number with zero value part")
            q = self.value / bv
            return FirstOrderNumber(
                q,
                tuple((a - q * b) / bv for a, b in zip(self.grad, other.grad)),
            )
        if isinstance(other, _SCALAR):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _SCALAR):
            return FirstOrderNumber(other, (0.0,) * len(self.grad)) / self
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, _SCALAR):
            return NotImplemented
        v = self.value
        v0 = unwrap(v)
        if k == 0:
            return FirstOrderNumber(1.0, (0.0,) * len(self.grad))
        if k == 1:
            return self
        is_int = float(k).is_integer()
        if not is_int and v0 < 0.0:
            raise DomainError(f"fractional power of negative base {v0}")
        if v0 == 0.0 and k < 0:
            raise ZeroDivisionError("negative power of zero")
        if v0 == 0.0 and not is_int and k < 1:
            raise DomainError(f"power {k} of zero base has a singular derivative")
        c1 = k * v ** (k - 1)
        return FirstOrderNumber(v**k, tuple(c1 * g for g in self.grad))

    # comparisons act on the value part, which keeps branch logic
    # (argument checks, max/min) working on lifted inputs
    def __lt__(self, other):
        return unwrap(self) < unwrap(other)

    def __le__(self, other):
        return unwrap(self) <= unwrap(other)

    def __gt__(self, other):
        return unwrap(self) > unwrap(other)

    def __ge__(self, other):
        return unwrap(self) >= unwrap(other)

    def __float__(self):
        return unwrap(self)


def unwrap(x):
    """Peel nested value parts down to a plain float."""
    while isinstance(x, FirstOrderNumber):
        x = x.value
    return float(x)


def lift(values):
    """Seed a vector for differentiation.

    Returns one :class:`FirstOrderNumber` per entry with a unit
    gradient in its own slot; positions follow input order.  Entries
    may themselves be lifted numbers, which nests the differentiation
    one order deeper.
    """
    vals = list(values)
    d = len(vals)
    zero_row = (0.0,) * d
    return tuple(
        FirstOrderNumber(v, zero_row[:j] + (1.0,) + zero_row[j + 1 :])
        for j, v in enumerate(vals)
    )


lift_first = lift  # the benchmark's span tracer resolves both names


# -- elementary functions, duck-typed ----------------------------------


def _unary(x, f, df):
    """Apply ``f`` to a lifted ``x`` by the chain rule; ``df`` is applied
    to the value part, so it may itself be lifted."""
    c1 = df(x.value)
    return FirstOrderNumber(f(x.value), tuple(c1 * gj for gj in x.grad))


def sin(x):
    if isinstance(x, FirstOrderNumber):
        return _unary(x, sin, cos)
    return math.sin(x)


def cos(x):
    if isinstance(x, FirstOrderNumber):
        return _unary(x, cos, lambda v: -sin(v))
    return math.cos(x)


def exp(x):
    if isinstance(x, FirstOrderNumber):
        return _unary(x, exp, exp)
    return math.exp(x)


def log(x):
    if isinstance(x, FirstOrderNumber):
        if unwrap(x.value) <= 0.0:
            raise DomainError(f"log of non-positive value {unwrap(x.value)}")
        return _unary(x, log, lambda v: 1.0 / v)
    if x <= 0.0:
        raise DomainError(f"log of non-positive value {x}")
    return math.log(x)


def sqrt(x):
    if isinstance(x, FirstOrderNumber):
        if unwrap(x.value) <= 0.0:
            raise DomainError(f"sqrt of non-positive value {unwrap(x.value)}")
        return x**0.5
    if x < 0.0:
        raise DomainError(f"sqrt of negative value {x}")
    return math.sqrt(x)

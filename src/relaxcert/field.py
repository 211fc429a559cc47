"""Exact arithmetic and sign determination in Q(c), where c = r**(1/n).

Elements are stored as rational coefficient vectors over the power basis
1, c, ..., c**(n-1).  All arithmetic is exact (arbitrary-precision
rationals).  Signs come from the integers L[i] = floor(2**B * c**i), the
same brackets the lattice enumerator uses: they bound 2**B times an
element between two integers, and B is raised until that bracket excludes
zero.  No floating-point arithmetic is used on any certified result (float
conversion exists for diagnostics only).
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .errors import ValidationError

RationalLike = Union[int, Fraction, str]

_INITIAL_BITS = 8
_STEP_BITS = 16
_MAX_BITS = 1 << 14


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ValidationError(f"not an exact rational: {value!r}")


def _int_nth_root(value: int, n: int) -> int:
    """Floor of value ** (1/n) for a nonnegative integer value."""
    if value < 0:
        raise ValueError("negative radicand")
    if value == 0:
        return 0
    if n == 1:
        return value
    x = 1 << (-(-value.bit_length() // n))
    while True:
        y = ((n - 1) * x + value // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    while x ** n > value:
        x -= 1
    while (x + 1) ** n <= value:
        x += 1
    return x


def _rational_nth_root(value: Fraction, n: int) -> Fraction | None:
    """Exact n-th root of a positive rational, or None if irrational."""
    p, q = value.numerator, value.denominator
    rp, rq = _int_nth_root(p, n), _int_nth_root(q, n)
    if rp ** n == p and rq ** n == q:
        return Fraction(rp, rq)
    return None


class FieldContext:
    """The field Q(c) with c the real n-th root of a positive rational r.

    Refuses a reducible x**n - r.  Caches a precision B with the power
    brackets L = power_brackets(B), which bound 2**B times any element
    between two integers.  B is only ever raised, under a lock, so
    concurrent sign queries are safe.  make_context interns contexts.
    """

    __slots__ = ("degree", "radicand", "_lock", "_brackets", "_zero", "_one")

    def __init__(self, degree: int, radicand: RationalLike):
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
            raise ValidationError(f"degree must be a positive integer, got {degree!r}")
        radicand = as_fraction(radicand)
        if radicand <= 0:
            raise ValidationError(f"radicand must be positive, got {radicand}")
        # Capelli: for r > 0, x**n - r is irreducible over Q iff r is no p-th power
        # in Q for a prime p | n, that is, no m-th power for any divisor m > 1 of n
        for m in range(2, degree + 1):
            if degree % m == 0 and _rational_nth_root(radicand, m) is not None:
                raise ValidationError(
                    f"x^{degree} - {radicand} is reducible over Q "
                    f"({radicand} = s^{m} with s rational)")
        self.degree = degree
        self.radicand = radicand
        self._lock = threading.Lock()
        self._brackets = (_INITIAL_BITS, self.power_brackets(_INITIAL_BITS))
        self._zero = FieldElement(self, (Fraction(0),) * degree)
        self._one = FieldElement(self, (Fraction(1),) + (Fraction(0),) * (degree - 1))

    # -- brackets for c ------------------------------------------------------

    def power_brackets(self, bits: int) -> tuple[int, ...]:
        """Integers L[i] = floor(2**bits * c**i) for 0 <= i < degree; L[0] is exact."""
        n, p, q = self.degree, self.radicand.numerator, self.radicand.denominator
        return tuple(_int_nth_root(((p ** i) << (bits * n)) // q ** i, n) for i in range(n))

    def _narrow(self) -> None:
        with self._lock:
            bits = self._brackets[0]
            if bits >= _MAX_BITS:
                raise ArithmeticError(
                    f"cannot separate element from zero within {_MAX_BITS} bits")
            bits += _STEP_BITS
            self._brackets = (bits, self.power_brackets(bits))

    @property
    def isolating_interval(self) -> tuple[Fraction, Fraction]:
        """Rational (lo, hi) with 0 < lo < c < hi."""
        n, p, q = self.degree, self.radicand.numerator, self.radicand.denominator
        bits = self._brackets[0]
        while True:
            m = _int_nth_root((p << (bits * n)) // q, n)  # floor(2**bits * c)
            if m >= 2:
                break
            bits += _STEP_BITS
        # m / 2**bits < c unless c is dyadic, which only degree 1 allows
        lo = m - (m ** n * q == p << (bits * n))
        return Fraction(lo, 1 << bits), Fraction(m + 1, 1 << bits)

    # -- exact sign machinery ----------------------------------------------

    def _bracket(self, vec: Sequence[int]) -> tuple[int, int, int]:
        """(B, lo, hi) with lo <= 2**B * sum(vec[i] * c**i) <= hi.

        L[i] <= 2**B * c**i < L[i] + 1 with L[0] = 2**B exactly, so each
        term of index i >= 1 adds w_i * L[i] to one end and w_i * (L[i] + 1)
        to the other.  At degree 1 there is no such term and lo == hi.
        """
        bits, scale = self._brackets
        lo = hi = vec[0] << bits
        for v, s in zip(vec[1:], scale[1:]):
            if v > 0:
                lo += v * s
                hi += v * (s + 1)
            elif v < 0:
                lo += v * (s + 1)
                hi += v * s
        return bits, lo, hi

    def sign_of_int_vector(self, vec: Sequence[int]) -> int:
        """Sign of sum(vec[i] * c**i) for an integer coefficient vector."""
        if not any(vec):
            return 0
        while True:
            _, lo, hi = self._bracket(vec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self._narrow()

    def bounds_of_int_vector(self, vec: Sequence[int]) -> tuple[Fraction, Fraction]:
        """Rational lower/upper bounds on sum(vec[i] * c**i) at current precision."""
        bits, lo, hi = self._bracket(vec)
        return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)

    # -- element constructors ----------------------------------------------

    def element(self, coeffs: Iterable[RationalLike]) -> FieldElement:
        vals = tuple(as_fraction(v) for v in coeffs)
        if len(vals) > self.degree:
            raise ValidationError(
                f"coefficient vector of length {len(vals)} in a degree-{self.degree} field")
        vals = vals + (Fraction(0),) * (self.degree - len(vals))
        return FieldElement(self, vals)

    def from_rational(self, value: RationalLike) -> FieldElement:
        return self.element((as_fraction(value),))

    @property
    def zero(self) -> FieldElement:
        return self._zero

    @property
    def one(self) -> FieldElement:
        return self._one

    def root_power(self, j: int) -> FieldElement:
        """The basis element c**j for 0 <= j < degree."""
        if not 0 <= j < self.degree:
            raise ValidationError(f"power {j} outside basis range of degree {self.degree}")
        coeffs = [Fraction(0)] * self.degree
        coeffs[j] = Fraction(1)
        return FieldElement(self, tuple(coeffs))

    def coerce(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.context != self:
                raise ValidationError("element from a different field context")
            return value
        return self.from_rational(value)

    # -- identity and serialization ------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldContext)
                and self.degree == other.degree and self.radicand == other.radicand)

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash((self.degree, self.radicand))

    def __repr__(self) -> str:
        return f"FieldContext(degree={self.degree}, radicand={self.radicand})"

    def to_json_dict(self) -> dict:
        return {"degree": self.degree, "radicand": str(self.radicand)}

    @staticmethod
    def from_json_dict(data: dict) -> "FieldContext":
        return make_context(int(data["degree"]), as_fraction(data["radicand"]))

    def root_float(self) -> float:
        return float(self.radicand) ** (1.0 / self.degree)


_cached_context = lru_cache(maxsize=None, typed=True)(FieldContext)


def make_context(degree: int, radicand: RationalLike = 2) -> FieldContext:
    """Context for Q(radicand ** (1/degree)); instances are shared per parameters."""
    return _cached_context(degree, as_fraction(radicand))


class FieldElement:
    """An element sum(coeffs[i] * c**i) of a FieldContext, immutable."""

    __slots__ = ("context", "coeffs", "_hash")

    def __init__(self, context: FieldContext, coeffs: tuple[Fraction, ...]):
        self.context = context
        self.coeffs = coeffs
        self._hash = None

    # -- helpers -------------------------------------------------------------

    def _check_context(self, other: "FieldElement") -> None:
        # contexts are interned by make_context, so identity settles almost every call
        if self.context is not other.context and self.context != other.context:
            raise ValidationError("elements from different field contexts")

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            self._check_context(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.context.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        """True when the element's value is rational (the context is irreducible)."""
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if any(self.coeffs[1:]):
            raise ValidationError("element is irrational")
        return self.coeffs[0]

    def _int_vector(self) -> tuple[int, ...]:
        """Coefficients scaled by their denominator lcm (sign preserved)."""
        den = math.lcm(*(v.denominator for v in self.coeffs))
        return tuple(int(v * den) for v in self.coeffs)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.context,
                            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.context,
                            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return FieldElement(self.context, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if type(other) is int:
            return FieldElement(self.context, tuple(a * other for a in self.coeffs))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = self.context.degree
        if n == 1:
            return FieldElement(self.context, (self.coeffs[0] * other.coeffs[0],))
        prod = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    prod[i + j] += a * b
        # c**n reduces to r: fold the upper half of the convolution back down
        r = self.context.radicand
        for i in range(2 * n - 2, n - 1, -1):
            if prod[i]:
                prod[i - n] += prod[i] * r
        return FieldElement(self.context, tuple(prod[:n]))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        n = self.context.degree
        if n == 1:
            return FieldElement(self.context, (1 / self.coeffs[0],))
        # extended Euclid on coefficient polynomials modulo x**n - r
        modulus = [-self.context.radicand] + [Fraction(0)] * (n - 1) + [Fraction(1)]
        inv = _poly_modular_inverse(list(self.coeffs), modulus)
        if inv is None:
            raise ZeroDivisionError(
                f"element has no inverse modulo x^{n} - {self.context.radicand}")
        inv = inv + [Fraction(0)] * (n - len(inv))
        return FieldElement(self.context, tuple(inv[:n]))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.context.one
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- sign, order, value -------------------------------------------------------

    def sign(self) -> int:
        if self.is_zero():
            return 0
        return self.context.sign_of_int_vector(self._int_vector())

    def rational_bounds(self, max_width: Fraction | None = None) -> tuple[Fraction, Fraction]:
        """Exact rational bracket [lo, hi] around the element's value."""
        vec = self._int_vector()
        den = math.lcm(*(v.denominator for v in self.coeffs))
        lo, hi = self.context.bounds_of_int_vector(vec)
        lo, hi = lo / den, hi / den
        while max_width is not None and hi - lo > max_width:
            self.context._narrow()
            lo, hi = self.context.bounds_of_int_vector(vec)
            lo, hi = lo / den, hi / den
        return lo, hi

    def exact_floor(self) -> int:
        if self.is_rational():
            return self.as_fraction().__floor__()
        lo, hi = self.rational_bounds()
        while lo.__floor__() != hi.__floor__():
            self.context._narrow()
            lo, hi = self.rational_bounds()
        return lo.__floor__()

    def exact_ceil(self) -> int:
        return -(-self).exact_floor()

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement) and self.context != other.context:
            return False
        if isinstance(other, (int, Fraction, FieldElement)):
            coerced = self._coerce(other)
            return self.coeffs == coerced.coeffs
        return NotImplemented

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __lt__(self, other) -> bool:
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - self._coerce(other)).sign() >= 0

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.coeffs, self.context.degree, self.context.radicand))
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __float__(self) -> float:
        c = self.context.root_float()
        return float(sum(float(v) * c ** i for i, v in enumerate(self.coeffs)))

    def __repr__(self) -> str:
        return f"FieldElement({[str(v) for v in self.coeffs]}, {self.context!r})"

    def __str__(self) -> str:
        terms = []
        for i, v in enumerate(self.coeffs):
            if not v:
                continue
            if i == 0:
                terms.append(str(v))
            elif v == 1:
                terms.append(f"c^{i}" if i > 1 else "c")
            else:
                terms.append(f"{v}*c^{i}" if i > 1 else f"{v}*c")
        return " + ".join(terms) if terms else "0"

    # -- serialization ---------------------------------------------------------

    def to_json_list(self) -> list[str]:
        return [str(v) for v in self.coeffs]

    @staticmethod
    def from_json_list(context: FieldContext, data: Sequence[str]) -> "FieldElement":
        return context.element(data)


# -- dense polynomial helpers over Fraction (private) ---------------------------

def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        coef = a[i + len(b) - 1] * inv_lead
        if coef:
            q[i] = coef
            for j, bj in enumerate(b):
                a[i + j] -= coef * bj
    return q, _poly_trim(a)


def _poly_modular_inverse(a: list[Fraction], modulus: list[Fraction]):
    """Inverse of a modulo the given polynomial, or None if gcd is not a unit."""
    a = _poly_trim(list(a))
    r0, r1 = list(modulus), a
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s_new = list(s0)
        s_new += [Fraction(0)] * (len(q) + len(s1) - 1 - len(s_new))
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    if sj:
                        s_new[i + j] -= qi * sj
        s0, s1 = s1, _poly_trim(s_new)
    if len(r0) != 1:
        return None
    inv_gcd = 1 / r0[0]
    return [v * inv_gcd for v in s0]

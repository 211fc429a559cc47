"""Exact arithmetic and sign determination in Q(c), where c = r**(1/n).

An element is sum(num[i] * c**i) / den over the power basis 1, c, ...,
c**(n-1), with integer numerators and one denominator den > 0 such that
gcd(den, *num) == 1 (the form of ANTIC's nf_elem), so two elements are
equal exactly when their (num, den) are.  Products fold c**n = p/q back in
integers; inverses solve the element's integer multiplication matrix, the
same matrix _linalg.kernel_basis expands field entries into, by the
fraction-free Gauss-Jordan elimination of _linalg.  Every sign is that of
an integer vector w: with L[i] = floor(2**B * c**i), sum L[i] w[i] lies
within sum_{i>=1} |w[i]| of 2**B times the value.  sign_of_int_vector
raises B until that bracket excludes zero; signs_of_int_vectors, the one
kernel for numpy stacks of vectors, applies it at B = 32 and leaves only
what it cannot decide to sign_of_int_vector.  No floating-point
arithmetic is used on any certified result (float conversion exists for
diagnostics only).
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

from ._linalg import _fraction_free
from .errors import ValidationError

RationalLike = Union[int, Fraction, str]

_INITIAL_BITS = 8
_STEP_BITS = 16
_MAX_BITS = 1 << 14
# the largest degree read from JSON: the k = 8 pipeline builds degree 248
MAX_JSON_DEGREE = 1 << 10


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not an exact rational: {value!r}") from exc
    raise ValidationError(f"not an exact rational: {value!r}")


def _int_nth_root(value: int, n: int, start: int | None = None) -> int:
    """Floor of value ** (1/n) for a nonnegative integer value; Newton descends
    from start (default: a power of two above it); the result is exact from any start."""
    if value < 0:
        raise ValueError("negative radicand")
    if value == 0:
        return 0
    if n == 1:
        return value
    x = start if start is not None else 1 << (-(-value.bit_length() // n))
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

    __slots__ = ("degree", "radicand", "_lock", "_brackets", "_kernel", "_fold", "_zero", "_one")

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
        self._kernel = self._fold = None
        self._zero = FieldElement(self, (0,) * degree, 1)
        self._one = FieldElement(self, (1,) + (0,) * (degree - 1), 1)

    # -- brackets for c ------------------------------------------------------

    def power_brackets(self, bits: int) -> tuple[int, ...]:
        """Integers L[i] = floor(2**bits * c**i) for 0 <= i < degree; L[0] is exact.
        From i = 2, Newton starts at ((L[i-1] + 1) (L[1] + 1) >> bits) + 1 > L[i]."""
        n, p, q = self.degree, self.radicand.numerator, self.radicand.denominator
        out = [1 << bits]
        for i in range(1, n):
            start = ((out[-1] + 1) * (out[1] + 1) >> bits) + 1 if i > 1 else None
            out.append(_int_nth_root(((p ** i) << (bits * n)) // q ** i, n, start))
        return tuple(out)

    def _narrow(self, bits: int) -> None:
        """Raise B past `bits`, the precision a query failed at, unless B has moved on."""
        with self._lock:
            if self._brackets[0] > bits:
                return
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
            bits, lo, hi = self._bracket(vec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self._narrow(bits)

    def _kernel_brackets(self) -> tuple[int, ...]:
        """The kernel's L = power_brackets(32), computed once; a race stores equal tuples."""
        if self._kernel is None:
            self._kernel = self.power_brackets(32)
        return self._kernel

    def signs_of_int_vectors(self, w: np.ndarray) -> np.ndarray:
        """Signs of sum(w[..., i] * c**i) for the integer vectors on w's last axis.

        _bracket at B = 32 on the whole stack; sign_of_int_vector decides only
        the vectors it leaves open.  The arithmetic is int64 while max|w| *
        (sum L + n) < 2**62, and Python integers otherwise, whatever w's dtype.
        """
        w = np.asarray(w)
        if w.ndim == 0 or w.shape[-1] != self.degree or w.dtype.kind not in "iuO":
            raise ValidationError(f"not a stack of integer vectors of length {self.degree}")
        if self.degree == 1:  # the bracket is exact: the value is w[..., 0] itself
            return np.sign(w[..., 0]).astype(np.int64)
        brackets = self._kernel_brackets()
        top = max(int(w.max(initial=0)), -int(w.min(initial=0)))
        dtype = np.int64 if top * (sum(brackets) + self.degree) < (1 << 62) else object
        flat = w.reshape(-1, self.degree).astype(dtype, copy=False)
        centre, err = flat @ np.array(brackets, dtype=dtype), np.abs(flat[:, 1:]).sum(axis=1)
        signs = (centre > err).astype(np.int64) - (centre < -err)
        for i in np.flatnonzero((signs == 0) & (err > 0)):
            signs[i] = self.sign_of_int_vector(flat[i].tolist())
        return signs.reshape(w.shape[:-1])

    def multiplication_matrix(self, num, columns: Sequence[int] | None = None) -> np.ndarray:
        """q times the matrix of multiplication by sum(num[..., i] * c**i), for c**n = p/q.

        Column j holds the coefficients of q * num * c**j, which are integers;
        columns picks some (default all).  num may be a stack of vectors on its
        last axis: a numpy array keeps its dtype, a sequence becomes Python
        integers.  The fold's index and factor arrays are built once per context.
        """
        if self._fold is None:
            n, p, q = self.degree, self.radicand.numerator, self.radicand.denominator
            i, j = np.arange(n)[:, None], np.arange(n)
            self._fold = ((i - j) % n, np.where(i >= j, q, p))
        index, factor = self._fold if columns is None else (x[:, columns] for x in self._fold)
        num = num if isinstance(num, np.ndarray) else np.array(num, dtype=object)
        return num[..., index] * factor

    # -- element constructors ----------------------------------------------

    def element(self, coeffs: Iterable[RationalLike]) -> FieldElement:
        vals = [as_fraction(v) for v in coeffs]
        if len(vals) > self.degree:
            raise ValidationError(
                f"coefficient vector of length {len(vals)} in a degree-{self.degree} field")
        # over the lcm of the denominators, the numerators share no factor with it
        den = math.lcm(*(v.denominator for v in vals))
        num = tuple(v.numerator * (den // v.denominator) for v in vals)
        return FieldElement(self, num + (0,) * (self.degree - len(vals)), den)

    def from_rational(self, value: RationalLike) -> FieldElement:
        value = value if type(value) is int else as_fraction(value)
        return FieldElement(self, (value.numerator,) + (0,) * (self.degree - 1),
                            value.denominator)

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
        return FieldElement(self, tuple(int(i == j) for i in range(self.degree)), 1)

    def coerce(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.context != self:
                raise ValidationError("element from a different field context")
            return value
        return self.from_rational(value)

    # -- identity and serialization ------------------------------------------

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, FieldContext) and self.degree == other.degree
                                 and self.radicand == other.radicand)

    def __hash__(self) -> int:
        return hash((self.degree, self.radicand))

    def __repr__(self) -> str:
        return f"FieldContext(degree={self.degree}, radicand={self.radicand})"

    def to_json_dict(self) -> dict:
        return {"degree": self.degree, "radicand": str(self.radicand)}

    @staticmethod
    def from_json_dict(data: dict) -> "FieldContext":
        degree = int(data["degree"])
        if degree > MAX_JSON_DEGREE:
            raise ValidationError(f"field degree {degree} is above the limit {MAX_JSON_DEGREE}")
        return make_context(degree, as_fraction(data["radicand"]))

    def root_float(self) -> float:
        return float(self.radicand) ** (1.0 / self.degree)


_cached_context = lru_cache(maxsize=None, typed=True)(FieldContext)


def make_context(degree: int, radicand: RationalLike = 2) -> FieldContext:
    """Context for Q(radicand ** (1/degree)); instances are shared per parameters."""
    return _cached_context(degree, as_fraction(radicand))


class FieldElement:
    """An element sum(num[i] * c**i) / den of a FieldContext, immutable.

    The constructor takes the canonical form as given: den > 0 and
    gcd(den, *num) == 1.  Build elements through the context.
    """

    __slots__ = ("context", "num", "den", "_hash")

    def __init__(self, context: FieldContext, num: tuple[int, ...], den: int):
        self.context = context
        self.num = num
        self.den = den
        self._hash = None

    # -- helpers -------------------------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            # contexts are interned by make_context, so identity settles almost every call
            if self.context is not other.context and self.context != other.context:
                raise ValidationError("elements from different field contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.context.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients num[i] / den over the power basis (a derived view)."""
        return tuple(Fraction(v, self.den) for v in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        """True when the element's value is rational (the context is irreducible)."""
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if any(self.num[1:]):
            raise ValidationError("element is irrational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic ------------------------------------------------------------

    def _combine(self, other, op) -> "FieldElement":
        """self op other for op in (operator.add, operator.sub)."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            num = tuple(map(op, self.num, other.num))
            if da == 1:
                return FieldElement(self.context, num, 1)
            return _reduced(self.context, num, da)
        g = math.gcd(da, db)
        s, t = db // g, da // g
        return _reduced(self.context,
                        tuple(op(a * s, b * t) for a, b in zip(self.num, other.num)), da * s)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return FieldElement(self.context, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if type(other) is int:
            g = math.gcd(other, self.den)
            m = other // g
            return FieldElement(self.context, tuple(a * m for a in self.num), self.den // g)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ctx = self.context
        n, den = ctx.degree, self.den * other.den
        if n == 1:
            return _reduced(ctx, (self.num[0] * other.num[0],), den)
        prod = [0] * (2 * n - 1)
        terms = [(j, b) for j, b in enumerate(other.num) if b]
        for i, a in enumerate(self.num):
            if a:
                for j, b in terms:
                    prod[i + j] += a * b
        # c**n = p/q: fold the upper half down, scaling the lower half by q unless q == 1
        p, q = ctx.radicand.numerator, ctx.radicand.denominator
        low, high = prod[:n], prod[n:] + [0]
        if q == 1:
            num = tuple(a + p * b if b else a for a, b in zip(low, high))
        else:
            num = tuple(q * a + p * b for a, b in zip(low, high))
            den *= q
        return _reduced(ctx, num, den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        ctx, a = self.context, self.num
        if self.is_rational():
            value = a[0]
            return FieldElement(ctx, (self.den if value > 0 else -self.den,) + a[1:],
                                abs(value))
        # solve N x = q den e_0, N = q times the matrix of multiplication by sum(a_i c**i)
        n, q = ctx.degree, ctx.radicand.denominator
        m = [row + [q * self.den if i == 0 else 0]
             for i, row in enumerate(ctx.multiplication_matrix(a).tolist())]
        _, pivot, cols = _fraction_free(m, n, jordan=True)
        if len(cols) < n:
            raise ZeroDivisionError(f"element has no inverse modulo x^{n} - {ctx.radicand}")
        # Gauss-Jordan leaves pivot * x_i = m[i][n] in every row
        sign = 1 if pivot > 0 else -1
        return _reduced(ctx, tuple(sign * row[n] for row in m), sign * pivot)

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
        return self.context.sign_of_int_vector(self.num)

    def exact_floor(self) -> int:
        if self.is_rational():
            return self.num[0] // self.den
        ctx = self.context
        while True:
            bits, lo, hi = ctx._bracket(self.num)
            scale = self.den << bits
            if lo // scale == hi // scale:
                return lo // scale
            ctx._narrow(bits)

    def exact_ceil(self) -> int:
        return -(-self).exact_floor()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.context.from_rational(other)
        elif not isinstance(other, FieldElement):
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and (self.context is other.context or self.context == other.context))

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
            self._hash = hash((self.num, self.den))
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


def _reduced(context: FieldContext, num: tuple[int, ...], den: int) -> FieldElement:
    """The canonical element num / den for den > 0: divide out gcd(den, *num)."""
    g = math.gcd(den, *num)
    if g != 1:
        num, den = tuple(v // g for v in num), den // g
    return FieldElement(context, num, den)

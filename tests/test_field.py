import math
import random
import sys
import threading
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxcert.errors import ValidationError
from relaxcert import field
from relaxcert.field import (_INITIAL_BITS, _STEP_BITS, MAX_JSON_DEGREE, FieldContext,
                             FieldElement, _divide_exact,
                             _fit, _int_nth_root, _reduced, make_context)


def sqrt2_ctx():
    return make_context(2, 2)


def elem(a, b=0):
    return sqrt2_ctx().element((Fraction(a), Fraction(b)))


# ---------------------------------------------------------------------------
# context construction
# ---------------------------------------------------------------------------

def test_make_context_sqrt2_interval_brackets_root():
    ctx = make_context(2, 2)
    lo, hi = ctx.isolating_interval
    assert 0 < lo < hi
    assert lo ** 2 < 2 < hi ** 2
    assert hi - lo <= 1


def test_make_context_degree_one_is_rationals():
    ctx = make_context(1, 2)
    assert ctx.degree == 1
    # value of the single basis element is the radicand itself
    assert ctx.from_rational(5).as_fraction() == 5
    lo, hi = ctx.isolating_interval
    assert lo < 2 < hi


def test_make_context_degree_five():
    # degree m+1 = 5 covers a four-point perturbation set
    ctx = make_context(5, 2)
    lo, hi = ctx.isolating_interval
    assert lo ** 5 < 2 < hi ** 5
    assert hi - lo <= 1


def test_make_context_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        make_context(0, 2)
    with pytest.raises(ValidationError):
        make_context(2, 0)
    with pytest.raises(ValidationError):
        make_context(2, Fraction(-1, 3))


def test_make_context_decides_irreducibility():
    # Capelli: x^n - r is irreducible iff r is no p-th power for a prime p | n
    assert make_context(3, 5).degree == 3
    assert make_context(1, 7).degree == 1
    for degree, radicand in ((4, 4), (2, 4), (6, 8)):
        with pytest.raises(ValidationError):
            make_context(degree, radicand)


def test_field_context_validates_directly():
    # FieldContext refuses what make_context refuses, reducible fields included
    for degree, radicand in ((4, 4), (2, 4), (True, 2)):
        with pytest.raises(ValidationError):
            FieldContext(degree, radicand)
    # the interned degree-1 context is not served for degree True
    assert make_context(1, 2).degree == 1
    for degree in (0, True, 2.0, "2"):
        with pytest.raises(ValidationError):
            make_context(degree, 2)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_mul_difference_of_squares():
    # (1 + sqrt2)(1 - sqrt2) = -1
    assert elem(1, 1) * elem(1, -1) == elem(-1)


def test_div_rationalizes():
    # 1 / sqrt2 = (1/2) sqrt2
    assert elem(1) / elem(0, 1) == elem(0, Fraction(1, 2))


def test_cube_root_power_reduction():
    ctx = make_context(3, 2)
    c = ctx.root_power(1)
    c2 = ctx.root_power(2)
    assert c * c2 == ctx.from_rational(2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        elem(1) / elem(0)


def test_mixed_contexts_rejected():
    a = make_context(2, 2).from_rational(1)
    b = make_context(3, 2).from_rational(1)
    with pytest.raises(ValidationError):
        a + b
    # equality across contexts is False, not an error
    assert a != b
    assert make_context(2, 2).from_rational(1) == a


@pytest.mark.parametrize("degree", [1, 2, 5])
def test_integer_scaling_matches_generic_product(degree):
    ctx = make_context(degree, 2)
    rng = random.Random(degree)
    for _ in range(20):
        a = ctx.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                         for _ in range(degree)])
        for n in (0, 1, -1, 7, -12, 1 << 70):
            generic = a * ctx.from_rational(n)
            for product in (a * n, n * a):
                assert product == generic
                assert product.context is ctx
                assert all(type(v) is Fraction for v in product.coeffs)
                assert product.to_json_list() == generic.to_json_list()


def test_equal_contexts_need_not_be_identical():
    interned = make_context(2, 2)
    direct = FieldContext(2, 2)
    assert direct is not interned and direct == interned
    a = interned.element((1, 2))
    b = direct.element((3, -1))
    assert a * b == interned.element((-1, 5))
    assert (b * a).coeffs == (a * b).coeffs
    assert (a + b).coeffs == (4, 1)
    with pytest.raises(ValidationError):
        a * make_context(3, 2).element((1, 2))
    with pytest.raises(ValidationError):
        b - FieldContext(2, 3).one


def test_pow_matches_repeated_mul():
    a = elem(1, 2)
    assert a ** 3 == a * a * a
    assert a ** 0 == elem(1)
    assert a ** -2 == (a * a).inverse()


# ---------------------------------------------------------------------------
# sign determination
# ---------------------------------------------------------------------------

def test_sign_examples():
    # 1 - sqrt2/2 > 0 since sqrt2 < 2
    assert elem(1, Fraction(-1, 2)).sign() == 1
    assert elem(0, 0).sign() == 0
    # 3 - 2 sqrt2 - 1/10 = 29/10 - 2 sqrt2 > 0 since (2 sqrt2)^2 = 8 < 8.41
    assert elem(Fraction(29, 10), -2).sign() == 1
    assert elem(1, -1).sign() == -1  # 1 < sqrt2


def test_sign_close_to_zero():
    # 577/408 is a continued-fraction convergent of sqrt2; the difference is
    # about 2.1e-6 but its sign is still determined exactly
    assert elem(Fraction(577, 408), -1).sign() == 1
    assert elem(Fraction(-577, 408), 1).sign() == -1


def test_sign_degree_five():
    ctx = make_context(5, 2)
    c = ctx.root_power(1)
    # 11486^5 < 2*10^20 < 11487^5, so 1.1486 < 2^(1/5) < 1.1487
    assert 11486 ** 5 < 2 * 10 ** 20 < 11487 ** 5
    assert (c - Fraction(11486, 10000)).sign() == 1
    assert (c - Fraction(11487, 10000)).sign() == -1


def test_sign_agrees_with_float_when_far_from_zero():
    ctx = make_context(3, 2)
    rng = random.Random(7)
    for _ in range(200):
        coeffs = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(3))
        a = ctx.element(coeffs)
        fval = float(a)
        if abs(fval) > 1e-6:
            assert a.sign() == (1 if fval > 0 else -1)


def test_total_order_on_random_samples():
    ctx = make_context(2, 2)
    rng = random.Random(11)
    elems = [ctx.element((Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                          Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
             for _ in range(25)]
    for a in elems:
        for b in elems:
            assert (a < b) == (b > a)
            assert (a < b) + (a == b) + (a > b) == 1
    for a in elems:
        for b in elems:
            for c in elems:
                if a < b and b < c:
                    assert a < c


def test_inverse_round_trip():
    ctx = make_context(4, 2)
    rng = random.Random(3)
    for _ in range(40):
        coeffs = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(4))
        a = ctx.element(coeffs)
        if a.is_zero():
            continue
        assert a * a.inverse() == ctx.one


def test_float_embedding_homomorphism():
    ctx = make_context(3, 2)
    rng = random.Random(19)
    for _ in range(60):
        a = ctx.element(tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3)))
        b = ctx.element(tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3)))
        assert float(a + b) == pytest.approx(float(a) + float(b), abs=1e-9)
        assert float(a * b) == pytest.approx(float(a) * float(b), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# floors and bounds
# ---------------------------------------------------------------------------

def test_exact_floor_and_ceil():
    assert elem(0, 1).exact_floor() == 1        # sqrt2
    assert elem(0, 1).exact_ceil() == 2
    assert elem(0, -1).exact_floor() == -2      # -sqrt2
    assert elem(Fraction(7, 2)).exact_floor() == 3
    assert elem(-3).exact_floor() == -3
    assert elem(0, 2).exact_floor() == 2        # 2 sqrt2 ~ 2.83


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_element_json_round_trip():
    a = elem(Fraction(-3, 7), Fraction(5, 2))
    data = a.to_json_list()
    assert data == ["-3/7", "5/2"]
    assert FieldElement.from_json_list(sqrt2_ctx(), data) == a


def test_context_json_round_trip():
    ctx = make_context(5, Fraction(3, 2))
    data = ctx.to_json_dict()
    assert data == {"degree": 5, "radicand": "3/2"}
    assert ctx.from_json_dict(data) == ctx


def test_context_json_refuses_a_huge_degree_at_once():
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="above the limit"):
        FieldContext.from_json_dict({"degree": 100000, "radicand": "2"})
    assert time.perf_counter() - start < 0.5
    limit = {"degree": MAX_JSON_DEGREE + 1, "radicand": "2"}
    with pytest.raises(ValidationError):
        FieldContext.from_json_dict(limit)
    assert FieldContext.from_json_dict({"degree": 248, "radicand": "2"}).degree == 248


# ---------------------------------------------------------------------------
# concurrency: interval narrowing is guarded
# ---------------------------------------------------------------------------

def test_concurrent_sign_queries():
    # fresh contexts start at _INITIAL_BITS, where neither sign is decided, so
    # the threads narrow the shared brackets while the others read them
    sqrt2, fifth = FieldContext(2, 2), FieldContext(5, 2)
    targets = ([(sqrt2.element((Fraction(577, 408), -1)), 1)] * 8
               + [(fifth.root_power(1) - Fraction(11487, 10000), -1)] * 8)
    start = threading.Barrier(len(targets), timeout=60)
    results = []

    def worker(element, expected):
        start.wait()
        results.append(element.sign() == expected)

    threads = [threading.Thread(target=worker, args=t) for t in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * len(targets)
    for ctx in (sqrt2, fifth):
        lo, hi = ctx.isolating_interval
        assert hi - lo < Fraction(1, 1 << _INITIAL_BITS)


def test_narrow_from_a_stale_precision_raises_it_once():
    # two queries that failed at the same B both ask to narrow; only the first may
    ctx = FieldContext(2, 2)
    bits = ctx._brackets[0]
    ctx._narrow(bits)
    ctx._narrow(bits)
    assert ctx._brackets == (bits + _STEP_BITS, ctx.power_brackets(bits + _STEP_BITS))
    ctx._narrow(bits + _STEP_BITS)
    assert ctx._brackets[0] == bits + 2 * _STEP_BITS
    # a query that failed long ago never lowers B
    ctx._narrow(bits)
    assert ctx._brackets[0] == bits + 2 * _STEP_BITS


# ---------------------------------------------------------------------------
# representation oracle: a Fraction-vector reference modulo x^n - r
# ---------------------------------------------------------------------------

def _ref_mul(a, b, radicand):
    """Product of two Fraction coefficient vectors modulo x^n - radicand."""
    n = len(a)
    prod = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return tuple(prod[i] + (prod[i + n] * radicand if i + n < 2 * n - 1 else 0)
                 for i in range(n))


def _canonical(element, degree):
    num, den = element.num, element.den
    assert len(num) == degree and all(type(v) is int for v in num + (den,))
    assert den > 0 and math.gcd(den, *num) == 1


_REP_RADICANDS = (2, Fraction(3, 2), Fraction(1, 10 ** 9))


@st.composite
def _field_and_elements(draw, degree):
    # 1/10**9 is a cube, so x**n - 1/10**9 is reducible when 3 divides n
    radicand = Fraction(draw(st.sampled_from(
        [r for r in _REP_RADICANDS if degree % 3 or r != Fraction(1, 10 ** 9)])))
    ctx = make_context(degree, radicand)
    value = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-40, max_value=40, max_denominator=30),
                      st.integers(-(1 << 40), 1 << 40).map(Fraction))
    vector = st.lists(value, min_size=degree, max_size=degree)
    return ctx, [tuple(draw(vector)) for _ in range(3)]


@pytest.mark.parametrize("degree", [1, 2, 3, 5, 12, 27])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_representation_matches_fraction_reference(degree, data):
    ctx, vectors = data.draw(_field_and_elements(degree))
    r = ctx.radicand
    a, b, c = (ctx.element(v) for v in vectors)
    va, vb, _ = vectors
    for x in (a, b, c, -a, a + b, a - b, a * b, a * 7, -3 * a, a * Fraction(5, 6), a - a):
        _canonical(x, degree)
    # the operations agree with the reference, coefficient by coefficient
    assert a.coeffs == va
    assert (a + b).coeffs == tuple(x + y for x, y in zip(va, vb))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(va, vb))
    assert (a * b).coeffs == _ref_mul(va, vb, r)
    assert (a * Fraction(5, 6)).coeffs == tuple(x * Fraction(5, 6) for x in va)
    assert (a * -9).coeffs == tuple(x * -9 for x in va)
    # ring axioms
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ctx.zero == a and a * ctx.one == a and a - a == ctx.zero
    # inverse round trip
    if not a.is_zero():
        inv = a.inverse()
        _canonical(inv, degree)
        assert a * inv == ctx.one and b * inv * a == b
        assert _ref_mul(va, inv.coeffs, r) == (1,) + (0,) * (degree - 1)
        if degree <= 5:
            assert inv.inverse() == a and (b / a) * a == b
    # equality and hashing are tuple work on the canonical form
    twice = a * 2 / 2
    assert twice == a and hash(twice) == hash(a)
    other = FieldContext(degree, r).element(va)
    assert other == a and hash(other) == hash(a)
    assert (a == b) == (va == vb)
    if a.is_rational():
        assert a == va[0] and a == a.as_fraction()
    # order compatibility
    sa, sb = a.sign(), b.sign()
    assert (a * b).sign() == sa * sb and (-a).sign() == -sa
    if a < b:
        assert a + c < b + c and not b <= a
        if c.sign() > 0:
            assert a * c < b * c
        elif c.sign() < 0:
            assert a * c > b * c


def _convolution(x, y):
    """x * y by the dense convolution and the fold c**n = p/q, whatever the factors."""
    ctx = x.context
    n, p, q = ctx.degree, ctx.radicand.numerator, ctx.radicand.denominator
    prod = [0] * (2 * n)
    for i, a in enumerate(x.num):
        for j, b in enumerate(y.num):
            prod[i + j] += a * b
    return _reduced(ctx, tuple(q * lo + p * hi for lo, hi in zip(prod[:n], prod[n:])),
                    x.den * y.den * q)


@pytest.mark.parametrize("degree", [2, 5, 12, 27])
@pytest.mark.parametrize("radicand", [2, Fraction(3, 2)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rational_factor_product_matches_convolution(degree, radicand, data):
    """A rational factor on either side scales the other's numerators, and the
    product is the convolution's, in canonical form."""
    ctx = make_context(degree, radicand)
    value = st.one_of(st.just(Fraction(0)), st.integers(-(1 << 70), 1 << 70).map(Fraction),
                      st.fractions(min_value=-40, max_value=40, max_denominator=1 << 20))
    full = ctx.element(data.draw(st.lists(value, min_size=degree, max_size=degree)))
    rational = ctx.from_rational(data.draw(value))
    for x, y in ((full, rational), (rational, full), (rational, rational), (full, full)):
        product = x * y
        _canonical(product, degree)
        assert product == _convolution(x, y)


# ---------------------------------------------------------------------------
# independent oracle: mpmath at 200 digits
# ---------------------------------------------------------------------------

_RADICANDS = (2, 3, Fraction(3, 2), 5, Fraction(1, 10 ** 9))


def _convergents(x, limit):
    """Continued-fraction convergents p/q of an mpf x > 0 with q <= limit."""
    out, (p0, q0), (p1, q1) = [], (1, 0), (0, 1)
    while True:
        a = int(mpmath.floor(x))
        p0, q0, p1, q1 = a * p0 + p1, a * q0 + q1, p0, q0
        if q0 > limit:
            return out
        out.append((p0, q0))
        if x == a:
            return out
        x = 1 / (x - a)


def _mpf(value: Fraction):
    return mpmath.mpf(value.numerator) / value.denominator


@pytest.mark.parametrize("degree", [1, 2, 3, 5, 12, 27])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_signs_floors_and_bounds_match_mpmath(degree, data):
    # 1/10**9 is a cube, so x**n - 1/10**9 is reducible when 3 divides n
    radicand = Fraction(data.draw(st.sampled_from(
        [r for r in _RADICANDS if degree % 3 or r != Fraction(1, 10 ** 9)])))
    # a fresh context starts at _INITIAL_BITS, so near-zero elements narrow it
    ctx = FieldContext(degree, radicand)
    with mpmath.workdps(200):
        c = mpmath.root(_mpf(radicand), degree)
        if data.draw(st.booleans()):
            # q c - p for a convergent p/q of c, times a power of c and a sign
            p, q = data.draw(st.sampled_from(_convergents(c, 10 ** 24)))
            root = ctx.root_power(1) if degree > 1 else ctx.from_rational(radicand)
            power = ctx.root_power(data.draw(st.integers(0, degree - 1)))
            element = (q * root - p) * power * data.draw(st.sampled_from((1, -1)))
        else:
            element = ctx.element(data.draw(st.lists(
                st.fractions(min_value=-50, max_value=50, max_denominator=12),
                min_size=degree, max_size=degree)))
        value = sum(_mpf(v) * c ** i for i, v in enumerate(element.coeffs))
        assert element.sign() == int(mpmath.sign(value))
        assert element.exact_floor() == int(mpmath.floor(value))
    lo, hi = ctx.isolating_interval
    assert 0 < lo and lo ** degree < radicand < hi ** degree


# ---------------------------------------------------------------------------
# the batched kernel against the scalar sign
# ---------------------------------------------------------------------------

_INT64_MAX = (1 << 63) - 1


@st.composite
def _int_vectors(draw, ctx):
    """One integer vector over ctx's power basis: zero, random, or near-cancelling."""
    n = ctx.degree
    kind = draw(st.sampled_from(("zero", "random", "near") if n > 1 else ("zero", "random")))
    if kind == "zero":
        return [0] * n
    if kind == "random":
        bound = draw(st.sampled_from((1, 1 << 10, 1 << 31, 1 << 40, 1 << 62, 1 << 90)))
        return draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
    # q c^i - p for a convergent p/q of c^i: the 32-bit bracket leaves it open once q > 2^16
    i = draw(st.integers(1, n - 1))
    with mpmath.workdps(60):
        power = mpmath.root(_mpf(ctx.radicand), n) ** i
        p, q = draw(st.sampled_from(_convergents(power, 1 << 40)))
    vec = [0] * n
    vec[0], vec[i] = -p, q
    return vec if draw(st.booleans()) else [-v for v in vec]


@pytest.mark.parametrize("degree", [1, 2, 5, 27])
@pytest.mark.parametrize("radicand", [2, Fraction(3, 2)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_signs_of_int_vectors_match_scalar_sign(degree, radicand, data):
    ctx = make_context(degree, radicand)
    shape = tuple(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    vectors = data.draw(st.lists(_int_vectors(ctx), min_size=math.prod(shape),
                                 max_size=math.prod(shape)))
    fits = all(abs(v) <= _INT64_MAX for vec in vectors for v in vec)
    dtype = np.int64 if fits and data.draw(st.booleans()) else object
    stack = np.array(vectors, dtype=dtype).reshape(*shape, degree)
    signs = ctx.signs_of_int_vectors(stack)
    assert signs.shape == shape and signs.dtype == np.int64
    assert signs.reshape(-1).tolist() == [ctx.sign_of_int_vector(v) for v in vectors]


def test_kernel_switches_to_python_integers_before_int64_overflows():
    # centre = sum L_i w_i reaches about 2^72 here, far past int64
    ctx = make_context(5, Fraction(3, 2))
    vectors = [[1 << 40, -(1 << 40), 3, 0, -(1 << 39)], [-(1 << 40), 1 << 40, 0, 0, 0],
               [1 << 61, 0, 0, 0, -1], [0] * 5]
    signs = ctx.signs_of_int_vectors(np.array(vectors, dtype=np.int64))
    assert signs.tolist() == [ctx.sign_of_int_vector(v) for v in vectors]


def test_fit_keeps_int64_just_below_two_to_the_62():
    small, big = np.array([1, -2], dtype=object), np.array([3], dtype=np.int64)
    fitted = _fit((1 << 62) - 1, small, big)
    assert [x.dtype for x in fitted] == [np.int64, np.int64]
    assert [x.tolist() for x in fitted] == [[1, -2], [3]]
    fitted = _fit(1 << 62, small, big)
    assert [x.dtype for x in fitted] == [object, object]
    assert [x.tolist() for x in fitted] == [[1, -2], [3]]


_INT64_MAX = (1 << 63) - 1
# odd, even and power-of-two divisors up to the int64 bound, of both signs
_DIVISORS = st.one_of(st.integers(0, 1 << 40).map(lambda o: 2 * o + 1),
                      st.tuples(st.integers(0, 1 << 20), st.integers(1, 40)).map(
                          lambda p: (2 * p[0] + 1) << p[1]),
                      st.integers(0, 62).map(lambda s: 1 << s),
                      st.integers(1, _INT64_MAX)).flatmap(lambda d: st.sampled_from([d, -d]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), two_adic=st.booleans(), per_row=st.booleans())
def test_divide_exact_matches_floor_division(data, two_adic, per_row):
    # exact quotients of any size up to the int64 bound, divided per column or per
    # row, by the 2-adic inverse (forced on small stacks) or by //, against Python ints
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    divisors = data.draw(st.lists(_DIVISORS, min_size=rows if per_row else cols,
                                  max_size=rows if per_row else cols))
    quotient = [[data.draw(st.integers(-(_INT64_MAX // abs(d)), _INT64_MAX // abs(d)))
                 for d in (divisors[r:r + 1] * cols if per_row else divisors)]
                for r in range(rows)]
    d = np.array(divisors, dtype=np.int64)
    d = d[:, None] if per_row else d
    w = np.array(quotient, dtype=object) * d.astype(object)
    expected = (w // d.astype(object)).tolist()
    assert expected == quotient
    with pytest.MonkeyPatch.context() as patch:
        if two_adic:
            patch.setattr(field, "_EXACT_DIVISION_MIN", 0)
        for dtype in (np.int64, object):
            stack = w.astype(dtype)
            _divide_exact(stack, d)
            assert stack.dtype == np.dtype(dtype) and stack.tolist() == expected


def test_divide_exact_divides_a_strided_view_in_place():
    # a large stack takes the 2-adic path by default; only the view's entries change
    w = np.arange(4 * 5 * 1000, dtype=np.int64).reshape(4, 5, 1000) * 12
    before = w.copy()
    d = np.where(np.arange(1000) % 2, -6, 4)
    assert w[:, 2:].size >= field._EXACT_DIVISION_MIN
    _divide_exact(w[:, 2:], d)
    assert (w[:, :2] == before[:, :2]).all()
    assert w[:, 2:].tolist() == (before[:, 2:].astype(object) // d.astype(object)).tolist()


def test_kernel_sends_only_what_its_bracket_leaves_open_to_the_exact_sign(monkeypatch):
    # (-p, q) for the convergents p/q of sqrt 2, which alternate below and above it
    convergents = [(1, 1), (3, 2)]
    while convergents[-1][1] < 10 ** 7:
        p, q = convergents[-1]
        convergents.append((p + 2 * q, p + q))
    ctx, seen = make_context(2, 2), []
    exact = FieldContext.sign_of_int_vector

    def spy(self, vec):
        seen.append(tuple(vec))
        return exact(self, vec)

    monkeypatch.setattr(FieldContext, "sign_of_int_vector", spy)
    stack = np.array([[-p, q] for p, q in convergents] + [[0, 0]], dtype=np.int64)
    assert ctx.signs_of_int_vectors(stack).tolist() == \
        [(-1) ** j for j in range(len(convergents))] + [0]
    # 2^32 |q sqrt 2 - p| < 2^32 / (2 q): open for the large q, decided for the small
    assert {(-1607521, 1136689), (-3880899, 2744210)} <= set(seen)
    assert all(q > 30000 for _, q in seen)
    seen.clear()
    assert ctx.signs_of_int_vectors(np.zeros((0, 2), dtype=np.int64)).shape == (0,)
    assert ctx.signs_of_int_vectors(np.zeros((2, 0, 2), dtype=object)).shape == (2, 0)
    assert not seen


def test_kernel_refuses_what_is_not_an_integer_stack():
    ctx = make_context(2, 2)
    with pytest.raises(ValidationError):
        ctx.signs_of_int_vectors(np.zeros((3, 2), dtype=float))
    with pytest.raises(ValidationError):
        ctx.signs_of_int_vectors(np.zeros((3, 5), dtype=np.int64))


@pytest.mark.parametrize("radicand", [2, Fraction(3, 2)])
@pytest.mark.parametrize("degree", [2, 5, 27, 58, 121, 248])
def test_power_brackets_match_integer_roots(degree, radicand):
    """Newton from the previous bracket gives sympy's roots and the bit-length start's."""
    import sympy
    ctx = FieldContext(degree, radicand)
    p, q = ctx.radicand.numerator, ctx.radicand.denominator
    for bits in (8, 32, 61):
        brackets = ctx.power_brackets(bits)
        values = [((p ** i) << (bits * degree)) // q ** i for i in range(degree)]
        assert list(brackets) == [int(sympy.integer_nthroot(v, degree)[0]) for v in values]
        if degree <= 121 or bits == 8:  # the bit-length start is slow beyond
            assert list(brackets) == [_int_nth_root(v, degree) for v in values]


def test_int_nth_root_exact_from_any_start():
    value = (3 << 200) + 12345
    root = _int_nth_root(value, 7)
    assert root ** 7 <= value < (root + 1) ** 7
    # a start below the root only walks up by ones, so it stays close
    for start in (root - 5, root, root + 1, root + 1000, 1 << 40):
        assert _int_nth_root(value, 7, start) == root

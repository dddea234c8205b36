"""Exact scalar ring, Laurent polynomials, and the mode-agnostic helpers."""

import math
import operator
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from opuc import algebra
from opuc.algebra import (EXPONENT_LIMIT, ExactScalar, GaussianRational,
                          LaurentPoly, NUMERIC, SYMBOLIC, _decode, alpha,
                          alpha_bar, bar_inverse_substitute, beta_form,
                          conjugate, evaluate_numeric, gauss,
                          is_polynomial, render_batch, render_beta_monomial,
                          render_scalar, sym, t_root, values_close)
from opuc.errors import ExactDivisionError


# ---------------------------------------------------------------------------
# Gaussian rationals


def test_gaussian_product_of_conjugates_is_squared_modulus():
    z = GaussianRational(Fraction(3, 10), Fraction(1, 10))
    assert z * z.conjugate() == Fraction(1, 10)


def test_gaussian_field_operations():
    z = GaussianRational(1, 2)
    w = GaussianRational(Fraction(-1, 3), 1)
    assert z + w == GaussianRational(Fraction(2, 3), 3)
    assert z - w == GaussianRational(Fraction(4, 3), 1)
    assert (z / w) * w == z
    assert 1 / GaussianRational(0, 1) == GaussianRational(0, -1)
    with pytest.raises(ZeroDivisionError):
        z / GaussianRational(0, 0)


def test_gaussian_mixes_with_plain_rationals():
    z = GaussianRational(1, 1)
    assert z + Fraction(1, 2) == GaussianRational(Fraction(3, 2), 1)
    assert 2 * z == GaussianRational(2, 2)
    assert z - 1 == GaussianRational(0, 1)
    assert complex(z) == 1 + 1j


def test_gaussian_rendering():
    assert str(GaussianRational(0, 1)) == "i"
    assert str(GaussianRational(0, -1)) == "-i"
    assert str(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "(1/2-3/4i)"
    assert str(GaussianRational(5)) == "5"


# ---------------------------------------------------------------------------
# the coefficient field Q(i)(t)


def test_division_by_an_element_with_the_root_is_exact():
    t = t_root(2)
    assert (1 + t) * (1 - t) / (1 + t) == 1 - t
    assert 1 / (1 + t) == t - 1
    assert (alpha(0) + t) * (alpha(1) - t) / (alpha(0) + t) == alpha(1) - t
    with pytest.raises(ExactDivisionError):
        (t + alpha(0)) / (t + alpha(1))


def test_the_root_of_a_rational_square_is_that_rational():
    # adjoining t with t*t = 1/4 would make 1 - 2t a nonzero zero divisor
    assert 1 - 2 * t_root(Fraction(1, 4)) == 0
    assert not 1 - 2 * t_root(Fraction(1, 4))
    assert t_root(Fraction(9, 4)) == Fraction(3, 2)
    assert t_root(4) == 2 and type(t_root(4)) is GaussianRational
    assert t_root(Fraction(9, 8)) * t_root(Fraction(9, 8)) == Fraction(9, 8)


def test_symbol_free_values_are_field_elements():
    t = t_root(Fraction(1, 3))
    for x in (gauss(2), gauss(0, 1), t, t * t, 1 + t, sym(-1),
              algebra.one_of(SYMBOLIC), algebra.zero_of(SYMBOLIC),
              algebra.as_mode_scalar(Fraction(1, 2), SYMBOLIC)):
        assert type(x) is GaussianRational
    assert type(alpha(0) * t) is ExactScalar


def test_equal_exact_values_hash_alike():
    t = t_root(2)
    groups = [
        [2, Fraction(2), gauss(2), alpha(0) - alpha(0) + 2, t * t,
         ExactScalar({0: Fraction(4, 2)})],
        [Fraction(1, 3), gauss(Fraction(1, 3)), alpha(1) / alpha(1) / 3],
        [gauss(1, -2), alpha(0) + gauss(1, -2) - alpha(0)],
        [0, Fraction(0), gauss(0), ExactScalar(), alpha(2) - alpha(2)],
        [1 + t, t + 1, alpha(0) + t + 1 - alpha(0)],
    ]
    for group in groups:
        assert len(set(group)) == 1
        table = {group[0]: "found"}
        assert all(table[x] == "found" for x in group)
        assert all(x == y and hash(x) == hash(y)
                   for x in group for y in group)
    assert len({x for group in groups for x in group}) == len(groups)


def test_helpers_read_a_field_element_as_its_constant():
    t = t_root(Fraction(9, 8))
    z = gauss(Fraction(1, 2), -1)
    assert values_close(GaussianRational(1, 1), GaussianRational(1, 1))
    assert not values_close(GaussianRational(1, 1), GaussianRational(1))
    assert values_close(z, ExactScalar({0: z}))
    assert values_close(gauss(2), 2.0 + 1e-12j)
    assert values_close(2, Fraction(4, 2)) and not values_close(2, 3)
    assert beta_form(gauss(3)) == {(): 3}
    assert beta_form(gauss(0)) == {}
    with pytest.raises(ValueError):
        beta_form(1 + t)
    assert is_polynomial(z) and not is_polynomial(1 + t)
    assert evaluate_numeric(1 + t, {}) == pytest.approx(1 + 1.125 ** 0.5)
    assert evaluate_numeric(z, {0: 0.3}) == complex(0.5, -1)
    assert render_scalar(z) == str(ExactScalar({0: z})) == "(1/2-i)"
    assert render_scalar(3 * t - 1) == "-1 + 3*t"
    assert render_scalar(gauss(0)) == "0"
    assert conjugate(z * t) == gauss(Fraction(1, 2), 1) * t


def _field_elements(root):
    part = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    unit = st.sampled_from([1, gauss(0, 1), root, gauss(0, 1) * root])
    return st.lists(st.tuples(part, unit), max_size=4).map(
        lambda pairs: sum((c * u for c, u in pairs), gauss(0)))


@settings(max_examples=80, deadline=None)
@given(_field_elements(t_root(Fraction(2, 3))),
       _field_elements(t_root(Fraction(2, 3))),
       _field_elements(t_root(Fraction(2, 3))))
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z) and x + y == y + x
    assert (x * y) * z == x * (y * z) and x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x - x == 0 and x * 1 == x and x + 0 == x
    assert conjugate(x * y) == conjugate(x) * conjugate(y)
    assert abs(complex(x * y) - complex(x) * complex(y)) < 1e-9
    if y:
        assert (x * y) / y == x and y * (1 / y) == 1


# a reference field on Fraction parts: (re, im, tre, tim) and the root's q


def _gmul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _ref_mul(x, y, q):
    a, b, c, d = x[:2], x[2:], y[:2], y[2:]
    ac, bd, ad, bc = _gmul(a, c), _gmul(b, d), _gmul(a, d), _gmul(b, c)
    return (ac[0] + q * bd[0], ac[1] + q * bd[1], ad[0] + bc[0], ad[1] + bc[1])


def _ref_inverse(x, q):
    # (a + b*t)^-1 = (a - b*t) / (a*a - q*b*b), and 1/m = conj(m) / |m|^2
    a, b = x[:2], x[2:]
    aa, bb = _gmul(a, a), _gmul(b, b)
    m = (aa[0] - q * bb[0], aa[1] - q * bb[1])
    norm = m[0] ** 2 + m[1] ** 2
    inv = (m[0] / norm, -m[1] / norm)
    return _gmul(a, inv) + _gmul((-b[0], -b[1]), inv)


def _ref_element(parts, root):
    re, im, tre, tim = parts
    return gauss(re, im) + gauss(tre, tim) * root


def _assert_canonical(x, parts, q):
    """x is in canonical integer form and holds the reference parts."""
    ints = (x.n0, x.n1, x.n2, x.n3)
    assert all(type(n) is int for n in ints + (x.den,))
    assert x.den > 0 and math.gcd(*ints, x.den) == 1
    assert (x.q is None) == (x.n2 == x.n3 == 0)
    assert x.q is None or x.q == q
    assert (x.re, x.im, x.tre, x.tim) == parts
    assert all(type(p) is (int if x.den == 1 else Fraction)
               for p in (x.re, x.im, x.tre, x.tim))


_parts = st.tuples(*[st.builds(Fraction, st.integers(-40, 40),
                               st.integers(1, 30))] * 4)


@settings(max_examples=150, deadline=None)
@given(_parts, _parts, st.sampled_from([Fraction(2), Fraction(2, 3),
                                        Fraction(5, 12)]),
       st.booleans(), st.booleans())
@example((Fraction(1), Fraction(1), 0, 0), (Fraction(1), Fraction(-1), 0, 0),
         Fraction(2), False, False)
def test_field_operations_match_the_fraction_parts_reference(
        xp, yp, q, x_has_t, y_has_t):
    # (1+i)(1-i) = 2: a Gaussian product can reduce where no part's does
    xp = xp if x_has_t else xp[:2] + (0, 0)
    yp = yp if y_has_t else yp[:2] + (0, 0)
    t = t_root(q)
    x, y = _ref_element(xp, t), _ref_element(yp, t)
    _assert_canonical(x, xp, q)
    cases = [
        (x + y, tuple(a + b for a, b in zip(xp, yp))),
        (x - y, tuple(a - b for a, b in zip(xp, yp))),
        (x * y, _ref_mul(xp, yp, q)),
        (-x, tuple(-a for a in xp)),
        (x.conjugate(), (xp[0], -xp[1], xp[2], -xp[3])),
        (x + yp[0], (xp[0] + yp[0],) + xp[1:]),
        (x * yp[1], tuple(a * yp[1] for a in xp)),
    ]
    if any(yp):
        inv = _ref_inverse(yp, q)
        cases += [(y.inverse(), inv), (1 / y, inv),
                  (x / y, _ref_mul(xp, inv, q))]
    for got, parts in cases:
        _assert_canonical(got, parts, q)


@settings(max_examples=80, deadline=None)
@given(st.fractions(), _parts)
def test_rational_elements_equal_and_hash_as_their_rationals(r, xp):
    x = _ref_element(xp, t_root(3))
    for g in (gauss(r), (x + r) - x, (x + 1) * r - x * r):
        assert g == r and r == g and hash(g) == hash(r)
        assert {r: 1}[g] == 1
        assert type(g.re) is (int if r.denominator == 1 else Fraction)
        if r.denominator == 1:
            assert g == int(r) and hash(g) == hash(int(r))
    assert gauss(r, 1) != r


def test_mixing_two_roots_and_dividing_by_zero_still_raise():
    s, t = t_root(2), t_root(3)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ValueError, match="incompatible adjoined roots"):
            op(1 + s, t)
    for zero in (gauss(0), s - s, (1 + t) * 0, 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            (1 + t) / zero
        with pytest.raises(ZeroDivisionError):
            gauss(1, 1) / zero
        with pytest.raises(ZeroDivisionError):
            1 / (gauss(0) + zero)


def test_exact_sum_equals_the_running_sum():
    t = t_root(3)
    for values in ([alpha(0), 2 * alpha_bar(1), -alpha(0), gauss(0, 1), 3],
                   [alpha(0), -alpha(0)],
                   [t, gauss(2), Fraction(1, 2), -t],
                   []):
        running = gauss(0)
        for x in values:
            running = running + x
        total = algebra.exact_sum(values)
        assert total == running and str(total) == str(running)
        assert type(total) is type(running)


# ---------------------------------------------------------------------------
# symbolic scalars


def test_rho_plus_modulus_squared_is_one():
    rho0 = 1 - alpha(0) * alpha_bar(0)
    assert rho0 + alpha(0) * alpha_bar(0) == 1


def test_addition_cancels_exactly():
    assert (alpha(0) + alpha(1)) - alpha(1) == alpha(0)


def test_index_minus_one_collapses_to_constant():
    assert sym(-1) == -1
    assert sym(-1, barred=True) == -1
    with pytest.raises(ValueError):
        sym(-2)


def test_conjugate_swaps_bars_and_conjugates_coefficients():
    assert conjugate(alpha(0)) == alpha_bar(0)
    assert conjugate(alpha_bar(3)) == alpha(3)
    x = gauss(0, 1) * alpha(2)
    assert conjugate(x) == gauss(0, -1) * alpha_bar(2)
    assert conjugate(Fraction(2, 3)) == Fraction(2, 3)
    assert conjugate(1 - 2j) == 1 + 2j


def test_single_term_inverse_and_negative_exponents():
    x = alpha_bar(1)
    assert x * x.inverse() == 1
    assert x ** -2 == x.inverse() * x.inverse()
    with pytest.raises(ExactDivisionError):
        (alpha(0) + 1).inverse()


def test_multi_term_exact_division():
    rho0 = 1 - alpha(0) * alpha_bar(0)
    rho1 = 1 - alpha(1) * alpha_bar(1)
    assert (rho0 * rho1) / rho0 == rho1
    assert rho0 * rho1 * alpha(2) / rho1 == rho0 * alpha(2)
    assert ExactScalar() / rho1 == 0
    with pytest.raises(ExactDivisionError):
        (rho0 + alpha(2)) / rho1


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        alpha(0) / ExactScalar()


def test_power_and_constant_queries():
    x = alpha(0) + 1
    assert x ** 0 == 1
    assert x ** 3 == x * x * x
    assert (alpha(0) + 7 - alpha(0)).constant_value() == 7
    assert (alpha(0) * 0).is_zero
    assert ExactScalar().constant_value() == 0
    assert alpha(0).constant_value() is None


def test_symbol_ordering_in_rendering():
    rho0 = 1 - alpha(0) * alpha_bar(0)
    assert str(alpha(0)) == "a0"
    assert str(rho0) == "1 - a0*ab0"
    assert str(alpha(1) ** 2 * alpha_bar(0) - 3) == "-3 + ab0*a1^2"
    assert str(alpha_bar(2) ** -1) == "ab2^-1"


def test_adjoined_root_squares_to_rational():
    t = t_root(Fraction(1, 3))
    assert t * t == Fraction(1, 3)
    assert t ** 4 == Fraction(1, 9)
    assert t ** 3 == t * Fraction(1, 3)
    with pytest.raises(ValueError):
        t_root(-2)
    with pytest.raises(ValueError):
        t * t_root(Fraction(1, 5))  # two different roots cannot mix


def test_evaluate_rho_at_real_point():
    rho0 = 1 - alpha(0) * alpha_bar(0)
    assert evaluate_numeric(rho0, {0: 0.6}) == pytest.approx(0.64)


def test_evaluate_negated_bar_at_imaginary_point():
    minus_bar = -alpha_bar(0)
    assert evaluate_numeric(minus_bar, {0: 0.5j}) == pytest.approx(0.5j)


def test_evaluate_requires_assignment_and_handles_root():
    with pytest.raises(KeyError):
        alpha(5).evaluate({0: 0.1})
    t = t_root(Fraction(1, 4))
    assert evaluate_numeric(t * alpha(0), {0: 2j}) == pytest.approx(1j)


def test_scalar_mode_helpers():
    assert not ExactScalar()
    assert not alpha(0) - alpha(0)
    assert alpha(0)
    assert values_close(alpha(0), alpha(0))
    assert not values_close(alpha(0), alpha(1))
    assert values_close(1.0 + 0j, 1.0 + 1e-12j)
    assert not values_close(1.0 + 0j, 1.1 + 0j)


def test_render_scalar_both_modes():
    assert render_scalar(alpha(0) - 1) == "-1 + a0"
    assert render_scalar(0.25 + 0j) == "0.25"
    assert render_scalar(1 + 2j) == "(1+2j)"


# ---------------------------------------------------------------------------
# packed monomials


def _pack(pairs):
    """The packed key of (field, exponent) pairs: field 2j is a_j, field
    2j+1 is ab_j, each a signed 16-bit exponent."""
    return sum(e << (16 * f) for f, e in pairs)


# fields of a_0..a_1000 and their conjugates
_monomials = st.dictionaries(
    st.integers(0, 2001),
    st.integers(-EXPONENT_LIMIT, EXPONENT_LIMIT).filter(bool),
    max_size=6).map(lambda d: sorted(d.items()))


@settings(max_examples=80, deadline=None)
@given(_monomials)
@example([(1, -2), (1000, 7), (1463, -EXPONENT_LIMIT)])
def test_packed_monomials_round_trip(m):
    assert _decode(_pack(m)) == m


def test_packed_keys_add_exponents_across_fields():
    m1 = [(0, 3), (1001, -4)]
    m2 = [(0, -3), (5, 1), (1001, -1)]
    assert _decode(_pack(m1) + _pack(m2)) == [(5, 1), (1001, -5)]
    x = alpha(500) ** 3 * alpha_bar(0) ** -2
    assert str(x) == "ab0^-2*a500^3"
    assert x.symbol_indices() == [0, 500]
    assert list(sym(3, True).terms) == [_pack([(7, 1)])]
    (key,) = (alpha(1) ** EXPONENT_LIMIT).terms
    assert _decode(key) == [(2, EXPONENT_LIMIT)]
    with pytest.raises(OverflowError):
        alpha(1) ** (EXPONENT_LIMIT + 1)


def test_exponent_overflow_raises_instead_of_wrapping():
    assert str(alpha(0) ** EXPONENT_LIMIT) == "a0^%d" % EXPONENT_LIMIT
    for make in (lambda: alpha(0) ** 40000,
                 lambda: alpha_bar(3) ** -40000,
                 lambda: (alpha(1) ** 20000 + 1) * alpha(1) ** 20000,
                 lambda: (alpha(0) ** 20000 + alpha(1)) / alpha(0) ** -20000):
        with pytest.raises(OverflowError):
            make()
    # the adjoined root is a coefficient, so its powers never overflow
    assert t_root(2) ** 40001 == 2 ** 20000 * t_root(2)


def test_adjoined_root_reduction_in_packed_keys():
    t = t_root(Fraction(1, 3))
    assert t ** 5 == t * Fraction(1, 9)
    assert t.inverse() == 3 * t and t ** -3 == 9 * t
    assert (t * alpha(0)) ** 2 == alpha(0) ** 2 / 3
    assert (1 + t) * (1 - t) == Fraction(2, 3)
    assert ExactScalar({_pack([(0, 1)]): t}) == alpha(0) * t
    assert str(t ** 3 - alpha_bar(1) * t) == "1/3*t - ab1*t"
    with pytest.raises(ExactDivisionError):
        (t + alpha(0)) / (t + alpha(1))


def test_conjugate_twice_is_the_identity():
    t = t_root(Fraction(1, 5))
    x = (gauss(Fraction(1, 2), -3) * alpha(0) ** -2 * alpha_bar(600)
         + t * alpha_bar(1) ** 3 - gauss(0, 1) * t)
    assert conjugate(x) != x
    assert conjugate(conjugate(x)) == x
    assert str(conjugate(alpha(4) ** -1 * alpha_bar(2))) == "a2*ab4^-1"


def test_equal_scalars_built_in_different_orders_hash_alike():
    x = (alpha(0) + alpha_bar(1) * alpha(2)) - 3 + gauss(0, 1) * alpha(7)
    y = gauss(0, 1) * alpha(7) + (alpha(2) * alpha_bar(1) - 3) + alpha(0)
    assert list(x.terms) != list(y.terms)
    assert x == y and hash(x) == hash(y)
    assert len({x, y, x - alpha(0) + alpha(0)}) == 1


def _root_parts(c):
    """(t exponent, part) of a coefficient's nonzero parts a and b of
    a + b*t, the t-free part first."""
    if not isinstance(c, GaussianRational):
        return [(0, c)]
    parts = [(0, GaussianRational(c.re, c.im)),
             (1, GaussianRational(c.tre, c.tim))]
    return [(te, part) for te, part in parts if part]


def _reference_str(x):
    """The text form as defined on the ((field, exp), ...) monomials,
    each coefficient's t part right after its t-free part."""
    if not x.terms:
        return "0"
    parts = []
    for m, te, part in sorted(
            (_decode(k), te, part)
            for k, c in x.terms.items() for te, part in _root_parts(c)):
        names = [("ab%d" if f % 2 else "a%d") % (f // 2) for f, _ in m]
        factors = [s if e == 1 else "%s^%d" % (s, e)
                   for s, (_, e) in zip(names, m)]
        if te:
            factors.append("t")
        body, cs = "*".join(factors), str(part)
        if not body:
            parts.append(cs)
        elif cs in ("1", "-1"):
            parts.append(cs[:-1] + body)
        else:
            parts.append(cs + "*" + body)
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


_coefficients = st.one_of(
    st.integers(-3, 3),
    st.fractions(max_denominator=5).filter(lambda q: abs(q) < 4),
    st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2)))


@st.composite
def _wide_scalars(draw):
    t = t_root(Fraction(2, 7)) if draw(st.booleans()) else 1
    out = ExactScalar()
    for _ in range(draw(st.integers(0, 6))):
        term = gauss(1) * draw(_coefficients)
        for _ in range(draw(st.integers(0, 4))):
            term = term * sym(draw(st.integers(0, 40)), draw(st.booleans())) \
                ** draw(st.integers(-3, 3))
        out = out + term * t ** draw(st.integers(0, 1))
    return out


@settings(max_examples=80, deadline=None)
@given(_wide_scalars())
def test_rendering_matches_the_monomial_reference(x):
    assert str(x) == _reference_str(x)


@st.composite
def _batches(draw):
    """Scalars, field elements (some carrying t) and zeros, with their sum
    appended at times, so that values share monomials."""
    member = st.one_of(
        _wide_scalars(),
        st.builds(lambda c, te: gauss(1) * c * t_root(Fraction(2, 7)) ** te,
                  _coefficients, st.integers(0, 1)),
        st.sampled_from([ExactScalar(), gauss(0)]))
    batch = draw(st.lists(member, max_size=5))
    if batch and draw(st.booleans()):
        batch.append(sum(batch, ExactScalar()))
    return batch


@settings(max_examples=80, deadline=None)
@given(_batches())
@example([])
@example([alpha(3) * alpha_bar(1) ** -2 - Fraction(1, 2)])
@example([alpha(0) + t_root(Fraction(2, 7)), gauss(0), alpha(0) - 1])
def test_batch_rendering_matches_one_value_at_a_time(batch):
    assert render_batch(batch) == [render_scalar(x) for x in batch]
    assert render_batch(batch) == [
        _reference_str(x) if isinstance(x, ExactScalar) else str(x)
        for x in batch]


def test_rendering_survives_a_full_chunk_memo():
    x = ExactScalar({_pack([(2 * (j % 9) + j % 2, e)]): e
                     for j in range(9) for e in range(1, 700)})
    y = alpha(0) * alpha_bar(8) ** 2 - 1
    for _ in range(2):  # the first render fills the memo past its bound
        assert str(x) == _reference_str(x)
        assert sum(map(len, algebra._CHUNKS)) > algebra._CHUNKS_KEPT
        assert str(y) == _reference_str(y) == "-1 + a0*ab8^2"
        # emptied, then refilled by the two terms of y alone
        assert sum(map(len, algebra._CHUNKS)) <= 2 * len(algebra._CHUNKS)


def test_tracer_counts_each_term_product():
    # perfbench/spans.py wraps the ring's methods from outside; run it in a
    # fresh interpreter so its wrappers stay out of this test session
    root = Path(__file__).resolve().parents[1]
    code = textwrap.dedent("""
        import sys
        sys.path.insert(0, %r)
        import spans
        from opuc.algebra import alpha, alpha_bar
        tracer = spans.Tracer()
        spans.install(tracer)
        x, y = alpha(0) + alpha(1), 1 + alpha_bar(0) + alpha(2) * alpha(0)
        tracer.begin()
        product = x * y
        print(tracer.end()[2]["algebra.mul"][::2], len(product.terms))
    """ % str(root / "perfbench"))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[1, 6] 6\n"


# ---------------------------------------------------------------------------
# the doubled-alphabet rewrite


def test_beta_form_of_first_moments():
    mu1 = alpha(0)
    assert beta_form(mu1) == {(((0, "a"), 1),): 1}
    mu2 = alpha(0) ** 2 + alpha(1) * (1 - alpha(0) * alpha_bar(0))
    assert beta_form(mu2) == {
        (((0, "a"), 2),): 1,
        (((1, "a"), 1),): 1,
        (((0, "a"), 1), ((0, "b"), 1), ((1, "a"), 1)): 1,
    }


def test_beta_form_sign_rule_is_parity_of_bar_degree():
    assert beta_form(alpha_bar(0)) == {(((0, "b"), 1),): -1}
    assert beta_form(alpha_bar(0) ** 2) == {(((0, "b"), 2),): 1}


def test_beta_form_rejects_non_polynomials():
    with pytest.raises(ValueError):
        beta_form(alpha_bar(0) ** -1)
    with pytest.raises(ValueError):
        beta_form(t_root(2))
    with pytest.raises(TypeError):
        beta_form(1.5 + 0j)


def test_render_beta_monomial():
    assert render_beta_monomial(()) == "1"
    key = (((0, "a"), 2), ((1, "b"), 1))
    assert render_beta_monomial(key) == "a0^2*b1"


def test_is_polynomial():
    assert is_polynomial(alpha(0) * alpha_bar(1) + 2)
    assert not is_polynomial(alpha_bar(0) ** -1)
    assert not is_polynomial(t_root(2))


# ---------------------------------------------------------------------------
# Laurent polynomials


def test_z_times_z_inverse_is_one():
    z = LaurentPoly.z_power(1, SYMBOLIC)
    zinv = LaurentPoly.z_power(-1, SYMBOLIC)
    assert z * zinv == LaurentPoly.one(SYMBOLIC)


def test_binomial_square():
    z = LaurentPoly.z_power(1, NUMERIC)
    one = LaurentPoly.one(NUMERIC)
    sq = (z + one) * (z + one)
    assert sq.coeff(2) == 1 and sq.coeff(1) == 2 and sq.coeff(0) == 1
    assert sq.degree() == 2 and sq.valuation() == 0


def test_bar_inverse_substitute_on_degree_one():
    f = LaurentPoly({1: alpha(0) * 0 + 1, 0: -alpha_bar(0)}, SYMBOLIC)
    g = bar_inverse_substitute(f)
    assert g.coeff(-1) == 1
    assert g.coeff(0) == -alpha(0)


def test_bar_inverse_substitute_conjugates_coefficients():
    f = LaurentPoly({2: 2j}, NUMERIC)
    g = bar_inverse_substitute(f)
    assert g.coeffs == {-2: -2j}


def test_laurent_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        LaurentPoly.one(SYMBOLIC) + LaurentPoly.one(NUMERIC)


def test_laurent_shift_scale_support():
    f = LaurentPoly({0: 1 + 0j, 3: 2 + 0j}, NUMERIC)
    assert f.shift(-1).support() == [-1, 2]
    assert f.scale(2 + 0j).coeff(3) == 4
    assert (f - f).is_zero
    assert str(LaurentPoly({1: 1 + 0j, 0: -1 + 0j}, NUMERIC)) == "1.0*z - 1.0"
    one = LaurentPoly.one(SYMBOLIC)
    assert str(one.shift(1) - one) == "z - 1"


# ---------------------------------------------------------------------------
# property tests


_ROOT = t_root(Fraction(2, 7))


def _scalars(exponents=st.integers(1, 2), min_size=0):
    # coefficients are mostly integers, sometimes field elements with the
    # root t or with i
    term = st.tuples(st.integers(0, 2), st.booleans(), exponents,
                     st.integers(-3, 3),
                     st.sampled_from([1, 1, 1, _ROOT, 1 - _ROOT,
                                      gauss(0, 1), gauss(1, 1) * _ROOT]))

    def build(terms):
        out = ExactScalar()
        for idx, barred, exp, coef, unit in terms:
            out = out + coef * unit * sym(idx, barred) ** exp
        return out

    return st.lists(term, min_size=min_size, max_size=4).map(build)


@settings(max_examples=60, deadline=None)
@given(_scalars(), _scalars(), _scalars())
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ExactScalar() == x
    assert x * 1 == x
    assert x - x == ExactScalar()


@settings(max_examples=60, deadline=None)
@given(_scalars(st.integers(-2, 2)), _scalars(st.integers(-2, 2), 2))
@example(alpha(0) ** -1, alpha(1) + alpha(2))
def test_exact_division_undoes_laurent_multiplication(f, g):
    assume(len(g.terms) >= 2)
    assert (f * g) / g == f


@settings(max_examples=60, deadline=None)
@given(_scalars(), _scalars())
def test_conjugation_is_an_involutive_homomorphism(x, y):
    assert conjugate(conjugate(x)) == x
    assert conjugate(x + y) == conjugate(x) + conjugate(y)
    assert conjugate(x * y) == conjugate(x) * conjugate(y)


@settings(max_examples=60, deadline=None)
@given(_scalars(), _scalars())
def test_evaluation_commutes_with_arithmetic(x, y):
    assignment = {0: 0.31 + 0.42j, 1: -0.57 + 0.11j, 2: 0.23 - 0.66j}
    ex, ey = x.evaluate(assignment), y.evaluate(assignment)
    assert abs((x + y).evaluate(assignment) - (ex + ey)) < 1e-12
    assert abs((x * y).evaluate(assignment) - ex * ey) < 1e-9
    assert abs(conjugate(x).evaluate(assignment) - ex.conjugate()) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(-4, 4),
                       st.complex_numbers(max_magnitude=5, allow_nan=False,
                                          allow_infinity=False),
                       max_size=5))
def test_bar_inverse_substitute_is_an_involution(coeffs):
    f = LaurentPoly(coeffs, NUMERIC)
    assert bar_inverse_substitute(bar_inverse_substitute(f)) == f


@settings(max_examples=40, deadline=None)
@given(_scalars())
def test_beta_rewrite_evaluates_to_the_same_number(x):
    try:
        expansion = beta_form(x)
    except ValueError:
        return
    assignment = {0: 0.4 + 0.1j, 1: -0.3 + 0.2j, 2: 0.15 - 0.5j}
    direct = x.evaluate(assignment)
    total = 0j
    for key, coef in expansion.items():
        v = complex(coef)
        for (idx, kind), e in key:
            base = assignment[idx]
            if kind == "b":
                base = -base.conjugate()
            v *= base ** e
        total += v
    assert abs(total - direct) < 1e-9

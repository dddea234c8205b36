"""Exact scalar ring, Laurent polynomials, and the mode-agnostic helpers."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from opuc.algebra import (ExactScalar, GaussianRational, LaurentPoly, NUMERIC,
                          SYMBOLIC, Symbol, alpha, alpha_bar,
                          bar_inverse_substitute, beta_form, conjugate,
                          evaluate_numeric, exact_div, gauss, is_polynomial,
                          render_beta_monomial, render_scalar, sym, t_root,
                          values_close)
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
    assert exact_div(rho0 * rho1 * alpha(2), rho1) == rho0 * alpha(2)
    with pytest.raises(ExactDivisionError):
        (rho0 + alpha(2)) / rho1


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        alpha(0) / ExactScalar()


def test_power_and_constant_queries():
    x = alpha(0) + 1
    assert x ** 0 == 1
    assert x ** 3 == x * x * x
    assert gauss(7).constant_value() == GaussianRational(7)
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


def _scalars(exponents=st.integers(1, 2), min_size=0):
    term = st.tuples(st.integers(0, 2), st.booleans(), exponents,
                     st.integers(-3, 3))

    def build(terms):
        out = ExactScalar()
        for idx, barred, exp, coef in terms:
            out = out + coef * sym(idx, barred) ** exp
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

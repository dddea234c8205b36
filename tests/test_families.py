"""Named coefficient families: sequences, closed moment formulas, and the
generating-function route for the constant-coefficient family."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuc.algebra import (NUMERIC, SYMBOLIC, GaussianRational, conjugate,
                          gauss, t_root, values_close)
from opuc.core import VerblunskySequence, phi
from opuc.errors import UnsupportedFamily
from opuc.families import (FAMILY_PARAMS, FamilySpec, closed_moment_nm,
                           closed_moment_nrs, family_mode, geronimus_gf_moment,
                           geronimus_phi_coeff, geronimus_series,
                           nrs_from_nm, q_binomial, rising_factorial,
                           verblunsky_of)
from opuc.paths import moment_lukasiewicz

from .conftest import numeric_vs


def _spec(tag, value):
    return FamilySpec(tag, value)


BS_ZETA = GaussianRational(Fraction(2, 5), Fraction(1, 5))


# ---------------------------------------------------------------------------
# parameter validation and representation choice


def test_every_family_names_its_parameter():
    for tag in FAMILY_PARAMS:
        assert isinstance(FAMILY_PARAMS[tag], str)


def test_parameter_ranges_are_enforced():
    with pytest.raises(ValueError):
        _spec("geronimus", 1.5)
    with pytest.raises(ValueError):
        _spec("bernstein_szego", 1)
    with pytest.raises(ValueError):
        _spec("mass_point", 0)
    with pytest.raises(ValueError):
        _spec("mass_point", Fraction(3, 2))
    with pytest.raises(ValueError):
        _spec("circular_jacobi", -1)
    with pytest.raises(ValueError):
        _spec("single_nontrivial", Fraction(3, 2))
    with pytest.raises(ValueError):
        _spec("rogers_szego", 1)
    with pytest.raises(ValueError):
        _spec("no_such_family", Fraction(1, 2))


def test_spec_equality_and_repr():
    a = _spec("mass_point", Fraction(1, 2))
    b = _spec("mass_point", Fraction(1, 2))
    assert a == b and hash(a) == hash(b)
    assert a != _spec("mass_point", Fraction(1, 3))
    assert repr(a) == "mass_point(gamma=1/2)"


def test_natural_mode_selection():
    assert family_mode(_spec("geronimus", Fraction(1, 2))) == SYMBOLIC
    assert family_mode(_spec("geronimus", 0.3 + 0.4j)) == NUMERIC
    assert family_mode(_spec("bernstein_szego", BS_ZETA)) == SYMBOLIC
    # exact parameter but irrational coefficient data
    assert family_mode(_spec("single_nontrivial", Fraction(1, 2))) == NUMERIC
    assert family_mode(_spec("single_nontrivial", 1)) == SYMBOLIC


def test_symbolic_request_rejected_without_exact_data():
    with pytest.raises(UnsupportedFamily):
        verblunsky_of(_spec("single_nontrivial", Fraction(1, 2)), SYMBOLIC)
    with pytest.raises(UnsupportedFamily):
        verblunsky_of(_spec("geronimus", 0.3 + 0.4j), SYMBOLIC)


# ---------------------------------------------------------------------------
# coefficient sequences


def test_bernstein_szego_sequence():
    vs = verblunsky_of(_spec("bernstein_szego", BS_ZETA))
    assert vs.alpha(0) == BS_ZETA
    for j in range(1, 6):
        assert vs.alpha(j).is_zero


def test_mass_point_sequence():
    vs = verblunsky_of(_spec("mass_point", Fraction(1, 2)))
    for j in range(6):
        assert vs.alpha(j) == Fraction(1, j + 2)


def test_circular_jacobi_sequence():
    vs = verblunsky_of(_spec("circular_jacobi", Fraction(3, 2)))
    a = Fraction(3, 2)
    assert vs.alpha(0) == -a / (a + 1)
    for j in range(6):
        assert vs.alpha(j) == -Fraction(3, 2 * j + 5)


def test_single_nontrivial_sequences():
    vs = verblunsky_of(_spec("single_nontrivial", 1))
    for j in range(6):
        assert vs.alpha(j) == Fraction(-1, j + 2)
    num = verblunsky_of(_spec("single_nontrivial", Fraction(1, 2)))
    # u = 2 + sqrt(3);  alpha_j = -(u - 1/u) / (u^(j+2) - u^-(j+2))
    u = 2 + 3 ** 0.5
    for j in range(4):
        want = -(u - 1 / u) / (u ** (j + 2) - u ** -(j + 2))
        assert values_close(num.alpha(j), want)


def test_rogers_szego_sequence_lives_in_the_square_root_ring():
    q = Fraction(1, 3)
    vs = verblunsky_of(_spec("rogers_szego", q))
    t = t_root(q)
    assert vs.alpha(0) == t
    assert vs.alpha(1) == Fraction(-1, 3)
    assert vs.alpha(2) == t * q
    assert vs.alpha(3) == -q * q
    assert vs.rho(0) == 1 - q


def test_al_salam_carlitz_sequence_vanishes_at_even_indices():
    q = Fraction(1, 3)
    vs = verblunsky_of(_spec("al_salam_carlitz", q))
    for j in range(0, 8, 2):
        assert vs.alpha(j).is_zero
    assert vs.alpha(1) == Fraction(1, 3)
    assert vs.alpha(3) == Fraction(7, 9)


# ---------------------------------------------------------------------------
# exact combinatorial helpers


def test_rising_factorial():
    assert rising_factorial(2, 3) == 24
    assert rising_factorial(Fraction(1, 2), 2) == Fraction(3, 4)
    assert rising_factorial(Fraction(-3, 2), 1) == Fraction(-3, 2)
    assert rising_factorial(7, 0) == 1


def test_gaussian_binomial():
    q = Fraction(1, 2)
    assert q_binomial(4, 2, q) == Fraction(35, 16)
    assert q_binomial(3, 0, q) == 1
    assert q_binomial(3, 3, q) == 1
    assert q_binomial(3, 4, q) == 0
    assert q_binomial(3, -1, q) == 0


def test_gaussian_binomial_symmetry_and_pascal():
    q = Fraction(2, 7)
    for n in range(1, 6):
        for m in range(n + 1):
            assert q_binomial(n, m, q) == q_binomial(n, n - m, q)
            assert q_binomial(n, m, q) == (q_binomial(n - 1, m - 1, q)
                                           + q ** m * q_binomial(n - 1, m, q))


# ---------------------------------------------------------------------------
# closed moments against the lattice-path evaluation


def _check_nm(spec, nmax, close=False):
    vs = verblunsky_of(spec)
    for n in range(nmax + 1):
        for m in range(nmax + 1):
            want = moment_lukasiewicz(vs, n, 0, m)
            got = closed_moment_nm(spec, n, m)
            if close:
                assert values_close(got, want), (spec, n, m)
            else:
                assert got == want, (spec, n, m)


def _check_nrs(spec, bound, close=False):
    vs = verblunsky_of(spec)
    for n in range(bound + 1):
        for r in range(bound + 1):
            for s in range(bound + 1):
                want = moment_lukasiewicz(vs, n, r, s)
                got = closed_moment_nrs(spec, n, r, s)
                if close:
                    assert values_close(got, want), (spec, n, r, s)
                else:
                    assert got == want, (spec, n, r, s)


def test_bernstein_szego_closed_moments():
    spec = _spec("bernstein_szego", BS_ZETA)
    assert closed_moment_nm(spec, 3, 1) == BS_ZETA * BS_ZETA
    assert closed_moment_nm(spec, 1, 3).is_zero
    _check_nm(spec, 4)
    _check_nrs(spec, 3)


def test_bernstein_szego_positive_width_moments_collapse():
    spec = _spec("bernstein_szego", BS_ZETA)
    for n in range(4):
        for r in range(1, 4):
            for s in range(6):
                got = closed_moment_nrs(spec, n, r, s)
                assert got == (1 if s == n + r else 0), (n, r, s)


def test_mass_point_closed_moments():
    spec = _spec("mass_point", Fraction(1, 2))
    assert closed_moment_nm(spec, 3, 1) == Fraction(1, 3)
    _check_nm(spec, 4)
    _check_nrs(spec, 3)


def test_circular_jacobi_closed_moments():
    spec = _spec("circular_jacobi", Fraction(3, 2))
    assert closed_moment_nm(spec, 2, 1) == -Fraction(6, 7)
    _check_nm(spec, 4)
    _check_nrs(spec, 3)


def test_circular_jacobi_zero_parameter_degenerates():
    spec = _spec("circular_jacobi", Fraction(0))
    for n in range(3):
        for r in range(3):
            for s in range(5):
                assert closed_moment_nrs(spec, n, r, s) == (
                    1 if s == n + r else 0)


def test_single_nontrivial_closed_moments_exact_branch():
    spec = _spec("single_nontrivial", 1)
    assert closed_moment_nm(spec, 3, 2) == Fraction(-3, 4)
    _check_nm(spec, 4)
    _check_nrs(spec, 3)


def test_single_nontrivial_closed_moments_numeric_branch():
    spec = _spec("single_nontrivial", Fraction(1, 2))
    _check_nm(spec, 4, close=True)
    _check_nrs(spec, 3, close=True)


def test_rogers_szego_closed_moments():
    spec = _spec("rogers_szego", Fraction(1, 3))
    q = Fraction(1, 3)
    t = t_root(q)
    assert closed_moment_nm(spec, 2, 1) == t * (1 + q)
    _check_nm(spec, 4)
    _check_nrs(spec, 3)


def test_rogers_szego_numeric_route_matches_exact():
    exact = _spec("rogers_szego", Fraction(1, 3))
    approx = _spec("rogers_szego", 1 / 3)
    for n in range(4):
        for r in range(3):
            for s in range(5):
                a = closed_moment_nrs(exact, n, r, s).evaluate({})
                b = closed_moment_nrs(approx, n, r, s)
                assert abs(a - b) <= 1e-9 * (1 + abs(a)), (n, r, s)


def test_families_without_closed_moments_say_so():
    with pytest.raises(UnsupportedFamily):
        closed_moment_nm(_spec("geronimus", Fraction(1, 2)), 2, 0)
    with pytest.raises(UnsupportedFamily):
        closed_moment_nrs(_spec("al_salam_carlitz", Fraction(1, 3)), 2, 0, 0)


# ---------------------------------------------------------------------------
# rebuilding three-index moments from two-index ones


def test_width_reduction_for_closed_families():
    for spec in (_spec("bernstein_szego", BS_ZETA),
                 _spec("mass_point", Fraction(1, 2)),
                 _spec("circular_jacobi", Fraction(3, 2)),
                 _spec("rogers_szego", Fraction(1, 3))):
        for n in range(4):
            for r in range(3):
                for s in range(5):
                    assert nrs_from_nm(spec, n, r, s) == closed_moment_nrs(
                        spec, n, r, s), (spec, n, r, s)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 4), st.integers(0, 3), st.integers(0, 5),
       st.integers(0, 2 ** 30))
def test_width_reduction_for_arbitrary_sequences(n, r, s, seed):
    vs = numeric_vs(seed)
    assert values_close(nrs_from_nm(vs, n, r, s),
                        moment_lukasiewicz(vs, n, r, s))


# ---------------------------------------------------------------------------
# constant-coefficient family via its pair of series


def test_series_start_at_one():
    f, g = geronimus_series(Fraction(1, 2), 0)
    assert f == [1] and g == [1]


def test_series_satisfy_their_functional_equations():
    a = Fraction(1, 2)
    order = 8
    f, g = geronimus_series(a, order)
    rr = 1 - a * a
    scale = a / (a * a)

    def cut_mul(x, y):
        return [sum(x[i] * y[k - i] for i in range(k + 1))
                for k in range(order + 1)]

    ff = cut_mul(f, f)
    fg = cut_mul(f, g)
    # (1 + z) f - rr z f^2 = 1  and  g - scale z g + scale rr z f g = 1
    for k in range(1, order + 1):
        assert f[k] + f[k - 1] - rr * ff[k - 1] == 0, k
        assert g[k] - scale * g[k - 1] + scale * rr * fg[k - 1] == 0, k


def test_series_rejects_zero_parameter():
    with pytest.raises(ValueError):
        geronimus_series(0, 4)


def test_gf_moment_matches_path_evaluation_exact():
    a = Fraction(1, 2)
    vs = verblunsky_of(_spec("geronimus", a))
    for n in range(6):
        for m in range(6):
            assert geronimus_gf_moment(a, n, m) == moment_lukasiewicz(
                vs, n, 0, m), (n, m)


def test_gf_moment_matches_path_evaluation_boundary_parameter():
    vs = verblunsky_of(_spec("geronimus", 1))
    for n in range(6):
        for m in range(6):
            assert geronimus_gf_moment(1, n, m) == moment_lukasiewicz(
                vs, n, 0, m), (n, m)


def test_gf_moment_matches_path_evaluation_complex():
    a = 0.3 + 0.4j
    vs = verblunsky_of(_spec("geronimus", a))
    for n in range(6):
        for m in range(6):
            assert values_close(geronimus_gf_moment(a, n, m),
                                moment_lukasiewicz(vs, n, 0, m)), (n, m)


def test_gf_moment_at_boundary_parameter_has_binomial_form():
    def signed_binomial_sum(n, m):
        # sum_k (-1)^k C(m+k-1, k) over 0 <= k <= n-m, with the empty
        # product convention C(-1, 0) = 1
        total = 0
        for k in range(n - m + 1):
            if m == 0 and k == 0:
                c = 1
            elif m + k - 1 < k:
                c = 0
            else:
                from math import comb
                c = comb(m + k - 1, k)
            total += (-1) ** k * c
        return total

    for n in range(7):
        for m in range(n + 1):
            assert geronimus_gf_moment(1, n, m) == signed_binomial_sum(n, m)
    assert geronimus_gf_moment(1, 2, 1) == 0
    for n in range(7):
        assert geronimus_gf_moment(1, n, 0) == 1


def test_gf_moment_zero_parameter_short_circuits():
    assert geronimus_gf_moment(0, 3, 3) == 1
    assert geronimus_gf_moment(0, 3, 1) == 0
    assert geronimus_gf_moment(gauss(0, 0), 2, 2) == 1


def test_gf_moment_above_diagonal_vanishes():
    assert geronimus_gf_moment(Fraction(1, 2), 1, 3) == 0


def test_constant_family_polynomial_coefficients():
    a = Fraction(1, 2)
    vs = verblunsky_of(_spec("geronimus", a))
    for n in range(6):
        pair = phi(vs, n)
        for i in range(n + 1):
            assert pair.phi.coeff(i) == geronimus_phi_coeff(a, n, i), (n, i)
    with pytest.raises(ValueError):
        geronimus_phi_coeff(a, 2, 3)


def test_constant_family_polynomial_coefficients_complex():
    a = 0.3 + 0.4j
    vs = verblunsky_of(_spec("geronimus", a))
    for n in range(5):
        pair = phi(vs, n)
        for i in range(n + 1):
            assert values_close(pair.phi.coeff(i),
                                geronimus_phi_coeff(a, n, i)), (n, i)


# ---------------------------------------------------------------------------
# the bits of every family's outputs

# one exact and one float parameter per family, and the exact parameter
# that has only a numeric sequence
PINNED_SPECS = [
    ("geronimus", GaussianRational(Fraction(1, 3), Fraction(-1, 4))),
    ("geronimus", 0.3 + 0.4j),
    ("bernstein_szego", BS_ZETA),
    ("bernstein_szego", -0.35 + 0.2j),
    ("mass_point", Fraction(1, 2)),
    ("mass_point", 0.3),
    ("circular_jacobi", Fraction(3, 2)),
    ("circular_jacobi", -0.4),
    ("single_nontrivial", 1),
    ("single_nontrivial", Fraction(1, 2)),
    ("single_nontrivial", 0.7),
    ("rogers_szego", Fraction(1, 3)),
    ("rogers_szego", 0.45),
    ("al_salam_carlitz", Fraction(1, 3)),
    ("al_salam_carlitz", 0.6),
]


def _pinned(fn, *args):
    try:
        x = fn(*args)
    except UnsupportedFamily as exc:
        return "UnsupportedFamily: %s" % exc
    return "%s %r" % (type(x).__name__, x)


def _families_digest():
    digest = hashlib.sha256()
    for tag, value in PINNED_SPECS:
        spec = _spec(tag, value)
        for mode in (None, NUMERIC, SYMBOLIC):
            lines = [repr(spec), str(mode)]
            try:
                vs = verblunsky_of(spec, mode)
            except UnsupportedFamily as exc:
                lines.append("UnsupportedFamily: %s" % exc)
            else:
                lines += [_pinned(vs.alpha, j) for j in range(14)]
            lines += [_pinned(closed_moment_nm, spec, n, m, mode)
                      for n in range(9) for m in range(9)]
            lines += [_pinned(closed_moment_nrs, spec, n, r, s, mode)
                      for n in range(6) for r in range(5) for s in range(8)]
            digest.update("\n".join(lines).encode())
    return digest.hexdigest()


def test_family_outputs_keep_their_bits():
    # the repr and type of each alpha and closed moment, for every
    # family, both kinds of parameter and each mode request
    assert _families_digest() == (
        "de9f307e3660c091e0655f6dd1e71b943929bbffe370e04cae540186bd3f1ca2")

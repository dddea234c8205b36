"""Named coefficient families: sequences, closed moment formulas, and the
generating-function route for the constant-coefficient family."""

import cmath
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
    # every exact parameter gives exact coefficient data
    assert family_mode(_spec("single_nontrivial", Fraction(1, 2))) == SYMBOLIC
    assert family_mode(_spec("single_nontrivial", 1)) == SYMBOLIC
    assert family_mode(_spec("single_nontrivial", 0.7)) == NUMERIC


def test_symbolic_request_rejected_without_exact_data():
    with pytest.raises(UnsupportedFamily):
        verblunsky_of(_spec("single_nontrivial", 0.7), SYMBOLIC)
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
    # alpha_j = -1 / U_{j+1}(2), and U_k(2) = 1, 4, 15, 56, 209, ...
    half = verblunsky_of(_spec("single_nontrivial", Fraction(1, 2)))
    assert [half.alpha(j) for j in range(4)] == [
        Fraction(-1, 4), Fraction(-1, 15), Fraction(-1, 56), Fraction(-1, 209)]
    num = verblunsky_of(_spec("single_nontrivial", 0.7))
    # u = 1/a + sqrt(1/a^2 - 1);  alpha_j = -(u - 1/u) / (u^(j+2) - u^-(j+2))
    u = 1 / 0.7 + (1 / 0.49 - 1) ** 0.5
    for j in range(4):
        want = -(u - 1 / u) / (u ** (j + 2) - u ** -(j + 2))
        assert values_close(num.alpha(j), want)


def test_single_nontrivial_alphas_stay_finite_for_small_parameters():
    vs = verblunsky_of(_spec("single_nontrivial", 0.01))
    for j in range(300):
        v = vs.alpha(j)
        assert cmath.isfinite(v) and abs(v) < 1, j


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
    spec = _spec("single_nontrivial", 0.7)
    _check_nm(spec, 4, close=True)
    _check_nrs(spec, 3, close=True)


def test_single_nontrivial_closed_moments_are_exact_for_rational_a():
    for a in (1, Fraction(1, 2), Fraction(3, 5), Fraction(2, 7),
              Fraction(1, 10)):
        spec = _spec("single_nontrivial", a)
        vs = verblunsky_of(spec)
        assert vs.mode == SYMBOLIC
        for n in range(9):
            for r in range(4):
                for s in range(n + r + 1):
                    assert closed_moment_nrs(spec, n, r, s) == (
                        moment_lukasiewicz(vs, n, r, s)), (a, n, r, s)


def test_geronimus_closed_moments_match_the_path_evaluation():
    exact = (Fraction(1, 2), Fraction(-1, 3), 1,
             gauss(Fraction(1, 3), Fraction(-1, 4)))
    for a, close in [(a, False) for a in exact] + [(0.3 + 0.4j, True)]:
        spec = _spec("geronimus", a)
        vs = verblunsky_of(spec)
        for n in range(6):
            for r in range(5):
                for s in range(n + r + 2):
                    got = closed_moment_nrs(spec, n, r, s)
                    want = moment_lukasiewicz(vs, n, r, s)
                    assert (values_close(got, want) if close
                            else got == want), (a, n, r, s)
    assert closed_moment_nrs(_spec("geronimus", Fraction(1, 2)), 3, 2, 1) == (
        Fraction(45, 256))


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
        closed_moment_nm(_spec("al_salam_carlitz", Fraction(1, 3)), 2, 0)
    with pytest.raises(UnsupportedFamily):
        closed_moment_nrs(_spec("al_salam_carlitz", Fraction(1, 3)), 2, 0, 0)


# ---------------------------------------------------------------------------
# rebuilding three-index moments from two-index ones


def test_width_reduction_for_closed_families():
    for spec in (_spec("bernstein_szego", BS_ZETA),
                 _spec("mass_point", Fraction(1, 2)),
                 _spec("circular_jacobi", Fraction(3, 2)),
                 _spec("rogers_szego", Fraction(1, 3)),
                 _spec("geronimus", Fraction(1, 2))):
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

# one exact and one float parameter per family, and a second exact
# single nontrivial parameter, a != 1
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


def _family_digests():
    """SHA-256 per (spec, mode, output kind) over the reprs and types."""
    out = {}
    for tag, value in PINNED_SPECS:
        spec = _spec(tag, value)
        for mode in (None, NUMERIC, SYMBOLIC):
            try:
                vs = verblunsky_of(spec, mode)
            except UnsupportedFamily as exc:
                alphas = ["UnsupportedFamily: %s" % exc]
            else:
                alphas = [_pinned(vs.alpha, j) for j in range(14)]
            kinds = {
                "alphas": alphas,
                "nm": [_pinned(closed_moment_nm, spec, n, m, mode)
                       for n in range(9) for m in range(9)],
                "nrs": [_pinned(closed_moment_nrs, spec, n, r, s, mode)
                        for n in range(6) for r in range(5) for s in range(8)],
            }
            for kind, lines in kinds.items():
                key = "%r %s %s" % (spec, mode, kind)
                out[key] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return out


FAMILY_DIGESTS = {
    "geronimus(alpha=(1/3-1/4i)) None alphas":
        "4d4cf184f04ce3ce04f73626395fa570c4eb216834e2e7546e6e60b8a18e7816",
    "geronimus(alpha=(1/3-1/4i)) None nm":
        "4799ecb7f88d5ed3ccb655b84ebf94e0fa3f7ee830cc0d3321a511abfbd86f38",
    "geronimus(alpha=(1/3-1/4i)) None nrs":
        "d9e16deb5cd8a613a210c097d71bafacbdf370d91141085af0a9505ad98b06c1",
    "geronimus(alpha=(1/3-1/4i)) numeric alphas":
        "c592d00a1a358e4bd854318b671fff8010d6b309006aec01adb8d9adbfa48584",
    "geronimus(alpha=(1/3-1/4i)) numeric nm":
        "daba6b2f1a1af4fd462c90e61a11d0ca9002e84fe8a9aa672280519fc792eec9",
    "geronimus(alpha=(1/3-1/4i)) numeric nrs":
        "4d46e38950972f4c0e859c2cee9dee98392474c59f67c99747a0d75e6133c0c3",
    "geronimus(alpha=(1/3-1/4i)) symbolic alphas":
        "4d4cf184f04ce3ce04f73626395fa570c4eb216834e2e7546e6e60b8a18e7816",
    "geronimus(alpha=(1/3-1/4i)) symbolic nm":
        "4799ecb7f88d5ed3ccb655b84ebf94e0fa3f7ee830cc0d3321a511abfbd86f38",
    "geronimus(alpha=(1/3-1/4i)) symbolic nrs":
        "d9e16deb5cd8a613a210c097d71bafacbdf370d91141085af0a9505ad98b06c1",
    "geronimus(alpha=(0.3+0.4j)) None alphas":
        "cb9fc26d1097d9a705a2ca98d3dd70e788f9c8b38c8b8273f89e0e3bdd6f0446",
    "geronimus(alpha=(0.3+0.4j)) None nm":
        "ae97ad3a8b3b4bcbdf110ee25e9bddb67fcb9ef225462bd68bb1ec32facf0603",
    "geronimus(alpha=(0.3+0.4j)) None nrs":
        "46ec9c12da79a2867980ba46e79465cbbae73dcac4fae32db9fdb5902b3c1d35",
    "geronimus(alpha=(0.3+0.4j)) numeric alphas":
        "cb9fc26d1097d9a705a2ca98d3dd70e788f9c8b38c8b8273f89e0e3bdd6f0446",
    "geronimus(alpha=(0.3+0.4j)) numeric nm":
        "ae97ad3a8b3b4bcbdf110ee25e9bddb67fcb9ef225462bd68bb1ec32facf0603",
    "geronimus(alpha=(0.3+0.4j)) numeric nrs":
        "46ec9c12da79a2867980ba46e79465cbbae73dcac4fae32db9fdb5902b3c1d35",
    "geronimus(alpha=(0.3+0.4j)) symbolic alphas":
        "108fb4f11ab166ebad055aa764b7f1c6dcddd892108a0f5911b35c4dfee8081e",
    "geronimus(alpha=(0.3+0.4j)) symbolic nm":
        "fcc824395891f8d99b8edec98c304da072c827e5727c8692d8cec29b0edd610d",
    "geronimus(alpha=(0.3+0.4j)) symbolic nrs":
        "85683cdfa7842ae561667c7ded5169aeea38c0d2b3b6f68e04ca2da35767f15f",
    "bernstein_szego(zeta=(2/5+1/5i)) None alphas":
        "bae9c9711a05338cff3ecc5f4d0a2e772c9ee47261ef394a46e5bec63291e04b",
    "bernstein_szego(zeta=(2/5+1/5i)) None nm":
        "08760daa25fd8f94460c3c9b5203c60fb624d323ba1f72eef9170444dbb93822",
    "bernstein_szego(zeta=(2/5+1/5i)) None nrs":
        "c7001c447a9178854dbf3ed163f9bfa4bd93c6dfad319986cd7e35abae18dee4",
    "bernstein_szego(zeta=(2/5+1/5i)) numeric alphas":
        "8521d615580324c60588ecb5247ca8af275131c05db27ba01316837a5066ee48",
    "bernstein_szego(zeta=(2/5+1/5i)) numeric nm":
        "278d59bcac787fef066c1882386ad08e3b7a43c6704ec676bb4a2c07e90ecd7c",
    "bernstein_szego(zeta=(2/5+1/5i)) numeric nrs":
        "17e4803b752eef3f612d9513d25e12b0b335631eddb28b4619f10c1aadd96d8f",
    "bernstein_szego(zeta=(2/5+1/5i)) symbolic alphas":
        "bae9c9711a05338cff3ecc5f4d0a2e772c9ee47261ef394a46e5bec63291e04b",
    "bernstein_szego(zeta=(2/5+1/5i)) symbolic nm":
        "08760daa25fd8f94460c3c9b5203c60fb624d323ba1f72eef9170444dbb93822",
    "bernstein_szego(zeta=(2/5+1/5i)) symbolic nrs":
        "c7001c447a9178854dbf3ed163f9bfa4bd93c6dfad319986cd7e35abae18dee4",
    "bernstein_szego(zeta=(-0.35+0.2j)) None alphas":
        "3454383fe50c33d0da9fd4549f508b627976776ef5819e3f79cf1ec9e9ebec6e",
    "bernstein_szego(zeta=(-0.35+0.2j)) None nm":
        "aa135f8f1841647687e57406e6a524819654c0eff70e853ac522d71c89da8b3b",
    "bernstein_szego(zeta=(-0.35+0.2j)) None nrs":
        "41f8e3187751fca6b53efccf6c8c381b482b9b22b1a2b380d87fe7f06f30678a",
    "bernstein_szego(zeta=(-0.35+0.2j)) numeric alphas":
        "3454383fe50c33d0da9fd4549f508b627976776ef5819e3f79cf1ec9e9ebec6e",
    "bernstein_szego(zeta=(-0.35+0.2j)) numeric nm":
        "aa135f8f1841647687e57406e6a524819654c0eff70e853ac522d71c89da8b3b",
    "bernstein_szego(zeta=(-0.35+0.2j)) numeric nrs":
        "41f8e3187751fca6b53efccf6c8c381b482b9b22b1a2b380d87fe7f06f30678a",
    "bernstein_szego(zeta=(-0.35+0.2j)) symbolic alphas":
        "045fd0748dee054f73d9eda7b98fe98bfdb05c27b048379e7e2ceebf734b2504",
    "bernstein_szego(zeta=(-0.35+0.2j)) symbolic nm":
        "c1290aaf9574d41ebe8e167027a2479d032fea38422f943bf88758f3a0e81093",
    "bernstein_szego(zeta=(-0.35+0.2j)) symbolic nrs":
        "7e6f7a7c774dd0521dbd6b67cc9340ee19e42da7da21f5c9b7cad7472f8956f1",
    "mass_point(gamma=1/2) None alphas":
        "9faeb56eb9a8243731137bd8f086d10a29864929a79a6f3dc84c97f9acf95438",
    "mass_point(gamma=1/2) None nm":
        "ad77db067eea940214fbe586279823761c64a105afc0bcf3a3d4494f975ebebe",
    "mass_point(gamma=1/2) None nrs":
        "43b06e468db78d30b985f7076ddecca57792331d5caa3f9be131144bc40cacd5",
    "mass_point(gamma=1/2) numeric alphas":
        "7d098b6eba1988ac145fad2437edd28b98f9a8420e235b40acbcab74d9e927f2",
    "mass_point(gamma=1/2) numeric nm":
        "ed39c607a5e9c7bd974764bcbd1b941bd86ef2042d6081d67ca895e2f15dd93f",
    "mass_point(gamma=1/2) numeric nrs":
        "1f697f09fcb12c88f10f1010b381e693b92064d64be94c663aa58030b53e88c2",
    "mass_point(gamma=1/2) symbolic alphas":
        "9faeb56eb9a8243731137bd8f086d10a29864929a79a6f3dc84c97f9acf95438",
    "mass_point(gamma=1/2) symbolic nm":
        "ad77db067eea940214fbe586279823761c64a105afc0bcf3a3d4494f975ebebe",
    "mass_point(gamma=1/2) symbolic nrs":
        "43b06e468db78d30b985f7076ddecca57792331d5caa3f9be131144bc40cacd5",
    "mass_point(gamma=0.3) None alphas":
        "33408d613486cc1ac91f573ada6e8582a6dc8bf773f68be843211211a8527dd6",
    "mass_point(gamma=0.3) None nm":
        "d804662f8a95d76344597acd0c11b278a3408769fed623dea06c80f791987815",
    "mass_point(gamma=0.3) None nrs":
        "4608033f20b14336cf137b14c5bc80820cde934184ef08f4286c8da0a2433510",
    "mass_point(gamma=0.3) numeric alphas":
        "33408d613486cc1ac91f573ada6e8582a6dc8bf773f68be843211211a8527dd6",
    "mass_point(gamma=0.3) numeric nm":
        "d804662f8a95d76344597acd0c11b278a3408769fed623dea06c80f791987815",
    "mass_point(gamma=0.3) numeric nrs":
        "4608033f20b14336cf137b14c5bc80820cde934184ef08f4286c8da0a2433510",
    "mass_point(gamma=0.3) symbolic alphas":
        "3499f38fec256a7c372a1a67f8b81155c8d050fd82a0ef77cfc5bae33bcf169d",
    "mass_point(gamma=0.3) symbolic nm":
        "003cb9240a81d4a25377b36ff5164835ba97f537e57f71ea3903e6c6336223a6",
    "mass_point(gamma=0.3) symbolic nrs":
        "24ddb4a7f3be57fd257025622d7bc27ca7de9bb88e6aae741a2d702530767872",
    "circular_jacobi(a=3/2) None alphas":
        "71af858b52c87b367d17af4b05f79ceddfbfed1f8e4ced8a515ba3ca5eaec46a",
    "circular_jacobi(a=3/2) None nm":
        "eee6186256e898088441c91576fc7083a25e70a7b8a431089ef3644d4e2c1913",
    "circular_jacobi(a=3/2) None nrs":
        "95cc11911bf5377d90c261c9272b5955009f5d0d437542c355d564c84a7b4a9f",
    "circular_jacobi(a=3/2) numeric alphas":
        "b862db9eeab1dfa3c10a497087a2375542159d8a6e126e9525ffb19842fd8b45",
    "circular_jacobi(a=3/2) numeric nm":
        "e4ccb2364b69abfa331714be1cfbd924a3f117409ca824b824c2130e613b7318",
    "circular_jacobi(a=3/2) numeric nrs":
        "b08124126ca4561f928e161e363da78fd1e0a5e4660b6d02a8089a71a338b592",
    "circular_jacobi(a=3/2) symbolic alphas":
        "71af858b52c87b367d17af4b05f79ceddfbfed1f8e4ced8a515ba3ca5eaec46a",
    "circular_jacobi(a=3/2) symbolic nm":
        "eee6186256e898088441c91576fc7083a25e70a7b8a431089ef3644d4e2c1913",
    "circular_jacobi(a=3/2) symbolic nrs":
        "95cc11911bf5377d90c261c9272b5955009f5d0d437542c355d564c84a7b4a9f",
    "circular_jacobi(a=-0.4) None alphas":
        "1f8afefb7414fbd9f137353af98cf0a06b4229b486ee225927220894c5f7b25b",
    "circular_jacobi(a=-0.4) None nm":
        "d1e48a2f2cfd8d5286749ef8f2eedb4a0b46d5c1495955de322524fafa6d5f73",
    "circular_jacobi(a=-0.4) None nrs":
        "5c55981c71bdd806c1b68348fc1e1ebb615b1703f8ace1c57db570b9d731cb2e",
    "circular_jacobi(a=-0.4) numeric alphas":
        "1f8afefb7414fbd9f137353af98cf0a06b4229b486ee225927220894c5f7b25b",
    "circular_jacobi(a=-0.4) numeric nm":
        "d1e48a2f2cfd8d5286749ef8f2eedb4a0b46d5c1495955de322524fafa6d5f73",
    "circular_jacobi(a=-0.4) numeric nrs":
        "5c55981c71bdd806c1b68348fc1e1ebb615b1703f8ace1c57db570b9d731cb2e",
    "circular_jacobi(a=-0.4) symbolic alphas":
        "1e2227a86a3e9de329c735190aafc4c33f95f80271c098e49afabf124c246b0c",
    "circular_jacobi(a=-0.4) symbolic nm":
        "4b2268b708573f3b06e196c96d629733d370a089e343dfd272b79f759a867770",
    "circular_jacobi(a=-0.4) symbolic nrs":
        "5ebff03bfe7c7bb6b6e64d95316b647b91deb05915742b9ea2266963d1017d39",
    "single_nontrivial(a=1) None alphas":
        "7c9236e6456d9bcec5f93c72175ada5cd7eb07b4afcfaf4553e11720e58279a6",
    "single_nontrivial(a=1) None nm":
        "d2ad914616d3ed49173061bd152784beef17ccee9152b2d07f548f6ccfc553a5",
    "single_nontrivial(a=1) None nrs":
        "212b51d3590d5551e124931fd33ad9de8a1f2975d1710167204f07a0da58f95d",
    "single_nontrivial(a=1) numeric alphas":
        "fe8278b187ad85bf11613b16d07cde8340fb218d47eba4578e72ade63f085e44",
    "single_nontrivial(a=1) numeric nm":
        "f45032e6d98c489ffbd88cf691f562bcd6d4fa30a9b07991f821a56d5dff220f",
    "single_nontrivial(a=1) numeric nrs":
        "09e63d55c461dc1bc77369c7b9f2d4844165c16ecf7e4dfd668d6aafdf25d6cc",
    "single_nontrivial(a=1) symbolic alphas":
        "7c9236e6456d9bcec5f93c72175ada5cd7eb07b4afcfaf4553e11720e58279a6",
    "single_nontrivial(a=1) symbolic nm":
        "d2ad914616d3ed49173061bd152784beef17ccee9152b2d07f548f6ccfc553a5",
    "single_nontrivial(a=1) symbolic nrs":
        "212b51d3590d5551e124931fd33ad9de8a1f2975d1710167204f07a0da58f95d",
    "single_nontrivial(a=1/2) None alphas":
        "d9825108cfbadef7e6c6a87843b91e38fcf91ee0f873466c5e525b58e5f5b9c6",
    "single_nontrivial(a=1/2) None nm":
        "660e621ca5b575c6e4a37497698158d950b01c4e3ed333e498405edb47af90f5",
    "single_nontrivial(a=1/2) None nrs":
        "acf550ac97d8178d0c99dc812d48dcf5edd9ae96f565d9c4b8f21f9c9fbb0630",
    "single_nontrivial(a=1/2) numeric alphas":
        "45beb33a50b7e2b54ace01385bbe4562c935c5a52a11dc382bb2f20ed74f5fc3",
    "single_nontrivial(a=1/2) numeric nm":
        "3ba3a13326d0eacc32e0423ef107a9532b514757074c7a2c5362a0b72b09c946",
    "single_nontrivial(a=1/2) numeric nrs":
        "1bcd4f852d07584c66bfc42fce4eae5fd6cbe3607a61a7ccf5d5b66bed38e4c9",
    "single_nontrivial(a=1/2) symbolic alphas":
        "d9825108cfbadef7e6c6a87843b91e38fcf91ee0f873466c5e525b58e5f5b9c6",
    "single_nontrivial(a=1/2) symbolic nm":
        "660e621ca5b575c6e4a37497698158d950b01c4e3ed333e498405edb47af90f5",
    "single_nontrivial(a=1/2) symbolic nrs":
        "acf550ac97d8178d0c99dc812d48dcf5edd9ae96f565d9c4b8f21f9c9fbb0630",
    "single_nontrivial(a=0.7) None alphas":
        "fef950061ddabd16cab5d5d7fc654532485eb7b499eb91a3d8823c848a7ce56b",
    "single_nontrivial(a=0.7) None nm":
        "4f20c5e0efd82ce6ee50b3e9bec5adb30242b270c0aac5a05ab105d24b4152e3",
    "single_nontrivial(a=0.7) None nrs":
        "42b130b9f72fa057f7c107c4e55d5531a8ffd293bbe080f83f1d1676469b53a9",
    "single_nontrivial(a=0.7) numeric alphas":
        "fef950061ddabd16cab5d5d7fc654532485eb7b499eb91a3d8823c848a7ce56b",
    "single_nontrivial(a=0.7) numeric nm":
        "4f20c5e0efd82ce6ee50b3e9bec5adb30242b270c0aac5a05ab105d24b4152e3",
    "single_nontrivial(a=0.7) numeric nrs":
        "42b130b9f72fa057f7c107c4e55d5531a8ffd293bbe080f83f1d1676469b53a9",
    "single_nontrivial(a=0.7) symbolic alphas":
        "17a9918ade934d319c77226b358f0de5f5c91325118495b403df8da952dc1f8f",
    "single_nontrivial(a=0.7) symbolic nm":
        "a0f1510ab46912575aab3272be18c6150b5e9c006c694c4d1d00095175a3e5b2",
    "single_nontrivial(a=0.7) symbolic nrs":
        "fb6382b7d16741f78a8ba9d623147e735444c6d85806b109ba48c8cc917658e5",
    "rogers_szego(q=1/3) None alphas":
        "33db7767148e18dbd2d46cdad755119ce7ab708c23c63c8fb7f2b37ab69fa453",
    "rogers_szego(q=1/3) None nm":
        "9440ec1dd6cb1db7dea82a11cfb01d4e58832f2253f359438d90c4fb531fdb2d",
    "rogers_szego(q=1/3) None nrs":
        "e833486966bc7b5e543b2eef9e8b08e9cb387bbc314ada14c8b306279883c5b8",
    "rogers_szego(q=1/3) numeric alphas":
        "0e1b81706ac83335e6be40bb135a14a87d61f6db8d85fadbd06cf2297cddb33d",
    "rogers_szego(q=1/3) numeric nm":
        "17d80abfc26a3254b86b1fe2708762a1ec61a133f94dbcd97e06e24ec3528d1b",
    "rogers_szego(q=1/3) numeric nrs":
        "18bd9f8c1b58aa5c12d8da4cd389d332aabb6d717f78f60ced2564c08565a4d8",
    "rogers_szego(q=1/3) symbolic alphas":
        "33db7767148e18dbd2d46cdad755119ce7ab708c23c63c8fb7f2b37ab69fa453",
    "rogers_szego(q=1/3) symbolic nm":
        "9440ec1dd6cb1db7dea82a11cfb01d4e58832f2253f359438d90c4fb531fdb2d",
    "rogers_szego(q=1/3) symbolic nrs":
        "e833486966bc7b5e543b2eef9e8b08e9cb387bbc314ada14c8b306279883c5b8",
    "rogers_szego(q=0.45) None alphas":
        "f810587930698654af81b385e0ac899bb9c5a5c6652bc32b6901c028bf20a085",
    "rogers_szego(q=0.45) None nm":
        "3cd1d0d6dfe5fd92567df0268dcbc94f3d2d58fbf0b6b149af6fb30e2310aff6",
    "rogers_szego(q=0.45) None nrs":
        "a6f7cd501cedcc7bb9811988458881180b747297711188b7c459d68dfe3a2e59",
    "rogers_szego(q=0.45) numeric alphas":
        "f810587930698654af81b385e0ac899bb9c5a5c6652bc32b6901c028bf20a085",
    "rogers_szego(q=0.45) numeric nm":
        "3cd1d0d6dfe5fd92567df0268dcbc94f3d2d58fbf0b6b149af6fb30e2310aff6",
    "rogers_szego(q=0.45) numeric nrs":
        "a6f7cd501cedcc7bb9811988458881180b747297711188b7c459d68dfe3a2e59",
    "rogers_szego(q=0.45) symbolic alphas":
        "39ecd7e3577f2da3d6ab012cebf2f5da250a86e705369f7bbafca63d11e927ae",
    "rogers_szego(q=0.45) symbolic nm":
        "c2c1618dc9681286cfb06b6ffe309c1d646a6cc0b33432094d32c8595df4d33f",
    "rogers_szego(q=0.45) symbolic nrs":
        "d89f7ec642aeb630cbbd12d4af063a8cee0c079cd7af85421f539246b0848ba2",
    "al_salam_carlitz(q=1/3) None alphas":
        "215220b94f1a21b4da4294a8b4a333c1401053d750fb2c88d7689361b366b2dd",
    "al_salam_carlitz(q=1/3) None nm":
        "631ca90ee7fb88d3ba0154b3d47a2b26553982471e320f62829673486715b21c",
    "al_salam_carlitz(q=1/3) None nrs":
        "753367954a20b61f4be9e89cc7b329ea9414f6df4a0523de5106013d309b4f59",
    "al_salam_carlitz(q=1/3) numeric alphas":
        "d03fe6434f9c910d6643b8e9e5354f76c730e389db7335b598a38203bc026549",
    "al_salam_carlitz(q=1/3) numeric nm":
        "631ca90ee7fb88d3ba0154b3d47a2b26553982471e320f62829673486715b21c",
    "al_salam_carlitz(q=1/3) numeric nrs":
        "753367954a20b61f4be9e89cc7b329ea9414f6df4a0523de5106013d309b4f59",
    "al_salam_carlitz(q=1/3) symbolic alphas":
        "215220b94f1a21b4da4294a8b4a333c1401053d750fb2c88d7689361b366b2dd",
    "al_salam_carlitz(q=1/3) symbolic nm":
        "631ca90ee7fb88d3ba0154b3d47a2b26553982471e320f62829673486715b21c",
    "al_salam_carlitz(q=1/3) symbolic nrs":
        "753367954a20b61f4be9e89cc7b329ea9414f6df4a0523de5106013d309b4f59",
    "al_salam_carlitz(q=0.6) None alphas":
        "f7dea0017cc701815fbe7692c43d033745a7eaaa65cda4ebf657d356b3d038fa",
    "al_salam_carlitz(q=0.6) None nm":
        "631ca90ee7fb88d3ba0154b3d47a2b26553982471e320f62829673486715b21c",
    "al_salam_carlitz(q=0.6) None nrs":
        "753367954a20b61f4be9e89cc7b329ea9414f6df4a0523de5106013d309b4f59",
    "al_salam_carlitz(q=0.6) numeric alphas":
        "f7dea0017cc701815fbe7692c43d033745a7eaaa65cda4ebf657d356b3d038fa",
    "al_salam_carlitz(q=0.6) numeric nm":
        "631ca90ee7fb88d3ba0154b3d47a2b26553982471e320f62829673486715b21c",
    "al_salam_carlitz(q=0.6) numeric nrs":
        "753367954a20b61f4be9e89cc7b329ea9414f6df4a0523de5106013d309b4f59",
    "al_salam_carlitz(q=0.6) symbolic alphas":
        "a9bd09a3b35bd9893597cc77423f365418ffea768fd2fd11c4dc8331ad6e6716",
    "al_salam_carlitz(q=0.6) symbolic nm":
        "20449bd791af6fc80f94674cce3e7a7a0a114cb1036a84c0b2ed6ebd4f80941c",
    "al_salam_carlitz(q=0.6) symbolic nrs":
        "6d80373a0669c717a433bf1c97e98ad7dae389bc40b657d37565c3aeec73c585",
}


def test_family_outputs_keep_their_bits():
    # the repr and type of each alpha and closed moment, for every
    # family, both kinds of parameter and each mode request; a failure
    # names the (spec, mode, kind) cells that moved
    assert _family_digests() == FAMILY_DIGESTS

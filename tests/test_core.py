"""Coefficient sequences, the polynomial recurrences, the moment
functional, and the inner-product oracle."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opuc.algebra import (GaussianRational, LaurentPoly, NUMERIC, SYMBOLIC,
                          alpha, alpha_bar, bar_inverse_substitute, conjugate,
                          gauss, values_close)
from opuc.core import (VerblunskySequence, functional_eval, inner_product,
                       kappa, moment_oracle, moments_from_phis,
                       normalized_pairing, phi, reverse)
from opuc.matrices import cmv_walk_entry, u_power_entry
from opuc.paths import (moment_gmotzkin, moment_lukasiewicz, moment_negative,
                        moment_schroder)

from .conftest import generic_vs, numeric_vs


# ---------------------------------------------------------------------------
# the sequence object


def test_boundary_coefficient_is_minus_one():
    vs = generic_vs()
    assert vs.alpha(-1) == -1
    assert vs.alpha_bar(-1) == -1
    with pytest.raises(ValueError):
        vs.alpha(-2)


def test_generic_sequence_returns_symbols():
    vs = generic_vs()
    assert vs.alpha(3) == alpha(3)
    assert vs.alpha_bar(3) == alpha_bar(3)
    assert vs.rho(0) == 1 - alpha(0) * alpha_bar(0)


def test_rho_product_bounds():
    vs = generic_vs()
    assert vs.rho_product(0, 0) == 1
    assert vs.rho_product(2, 2) == 1
    assert vs.rho_product(0, 2) == vs.rho(0) * vs.rho(1)
    with pytest.raises(ValueError):
        vs.rho(-1)


def test_table_sequence_is_finite():
    vs = VerblunskySequence.from_table([Fraction(1, 2)], SYMBOLIC)
    assert vs.alpha(0) == Fraction(1, 2)
    with pytest.raises(IndexError):
        vs.alpha(1)


def test_numeric_mode_rejects_coefficients_outside_the_disk():
    vs = VerblunskySequence.from_table([1.2], NUMERIC)
    with pytest.raises(ValueError):
        vs.alpha(0)


# route -> the highest alpha index it may read for mu(n, r, s): the
# forward walks stay below height r + n + 1, the U walk reads U's rows
# only below the height r + n its last row reaches, the mirrored walk
# runs from s to r, and the oracle (n >= 0 here) reads phi_s and its
# norm kappa_s (rho_0 .. rho_{s-1}) only when s <= r + n
READ_BOUNDS = {
    moment_lukasiewicz: lambda n, r, s: r + n,
    moment_gmotzkin: lambda n, r, s: r + n,
    moment_schroder: lambda n, r, s: r + n,
    u_power_entry: lambda n, r, s: r + n - 1,
    cmv_walk_entry: lambda n, r, s: r + n,
    moment_negative: lambda n, r, s: max(r, s) + n,
    moment_oracle: lambda n, r, s: r + n,
}


def _counting_sequence(mode):
    """A sequence whose rule records each index it is asked for."""
    reads = []

    def rule(j):
        reads.append(j)
        if mode == SYMBOLIC:
            return alpha(j)
        return complex(0.3 + 0.05 * j, 0.2 - 0.03 * j)

    return VerblunskySequence(rule, mode), reads


@pytest.mark.parametrize("mode", [NUMERIC, SYMBOLIC])
def test_each_coefficient_is_read_once_and_only_where_needed(mode):
    shared, shared_reads = _counting_sequence(mode)
    for (route, bound), (n, r, s) in itertools.product(
            READ_BOUNDS.items(), itertools.product(range(3), repeat=3)):
        vs, reads = _counting_sequence(mode)
        route(vs, n, r, s)
        assert reads == list(range(len(reads))), (route.__name__, n, r, s)
        assert len(reads) <= bound(n, r, s) + 1, (route.__name__, n, r, s)
        route(shared, n, r, s)
    # one table serves every route: each index read once over the grid
    assert shared_reads == list(range(len(shared_reads)))
    for j in range(-1, len(shared_reads)):
        assert shared.alpha(j) is shared.alpha(j)
        assert shared.alpha_bar(j) is shared.alpha_bar(j)
        assert shared.alpha_bar(j) == conjugate(shared.alpha(j))
        if j >= 0:
            assert shared.rho(j) is shared.rho(j)


# ---------------------------------------------------------------------------
# the polynomial recurrences


def test_degree_zero_pair_is_one():
    pair = phi(generic_vs(), 0)
    assert pair.phi == LaurentPoly.one(SYMBOLIC)
    assert pair.phi_star == LaurentPoly.one(SYMBOLIC)


def test_degree_one_pair():
    pair = phi(generic_vs(), 1)
    assert pair.phi.coeff(1) == 1
    assert pair.phi.coeff(0) == -alpha_bar(0)
    assert pair.phi_star.coeff(0) == 1
    assert pair.phi_star.coeff(1) == -alpha(0)


def test_single_head_coefficient_family_polynomials():
    # alpha = (zeta, 0, 0, ...): degree n polynomial is z^n - conj(zeta) z^(n-1)
    zeta = gauss(Fraction(2, 5), Fraction(1, 5))
    vs = VerblunskySequence.from_table([zeta] + [0] * 7, SYMBOLIC)
    for n in range(1, 6):
        p = phi(vs, n).phi
        assert p.coeff(n) == 1
        assert p.coeff(n - 1) == -conjugate(zeta)
        assert len(p.coeffs) == 2


def test_constant_value_is_next_negated_bar():
    vs = generic_vs()
    for n in range(1, 6):
        assert phi(vs, n).phi.coeff(0) == -alpha_bar(n - 1)


def test_star_member_is_the_reverse():
    vs = generic_vs()
    for n in range(6):
        pair = phi(vs, n)
        assert pair.phi_star == reverse(pair.phi, n)


def test_reverse_examples():
    one = LaurentPoly.one(SYMBOLIC)
    f = one.shift(1) - one.scale(alpha_bar(0))
    assert reverse(f, 1) == one - one.shift(1).scale(alpha(0))
    assert reverse(one.shift(4), 4) == one
    assert reverse(one, 2) == one.shift(2)


def test_reverse_rejects_bad_inputs():
    one = LaurentPoly.one(SYMBOLIC)
    with pytest.raises(ValueError):
        reverse(one.shift(-1), 1)
    with pytest.raises(ValueError):
        reverse(one.shift(3), 2)


def test_kappa_values():
    vs = generic_vs()
    assert kappa(vs, 0) == 1
    assert kappa(vs, 2) == vs.rho(0) * vs.rho(1)
    half = VerblunskySequence.from_table([Fraction(1, 2)] * 4, SYMBOLIC)
    assert kappa(half, 3) == Fraction(27, 64)  # 0.421875


# ---------------------------------------------------------------------------
# the moment functional


def test_first_moments_match_the_classical_displays():
    vs = generic_vs()
    pos, neg = moments_from_phis(vs, 2)
    rho0 = 1 - alpha(0) * alpha_bar(0)
    assert pos[0] == 1
    assert pos[1] == alpha(0)
    assert pos[2] == alpha(0) ** 2 + alpha(1) * rho0
    assert neg[1] == alpha_bar(0)


def test_single_head_coefficient_moments_are_powers():
    zeta = gauss(Fraction(2, 5), Fraction(1, 5))
    vs = VerblunskySequence.from_table([zeta] + [0] * 9, SYMBOLIC)
    pos, _ = moments_from_phis(vs, 6)
    for n in range(7):
        assert pos[n] == zeta ** n


def test_positive_and_negative_moments_are_conjugate():
    vs = generic_vs()
    pos, neg = moments_from_phis(vs, 6)
    for n in range(7):
        assert neg[n] == conjugate(pos[n])


def test_functional_eval_on_monomials():
    vs = generic_vs()
    zinv = LaurentPoly.z_power(-1, SYMBOLIC)
    z = LaurentPoly.z_power(1, SYMBOLIC)
    assert functional_eval(vs, zinv) == alpha(0)
    assert functional_eval(vs, z) == alpha_bar(0)
    assert functional_eval(vs, LaurentPoly.one(SYMBOLIC)) == 1
    assert functional_eval(vs, LaurentPoly.zero(SYMBOLIC)) == 0


def test_functional_kills_the_polynomials_and_their_bar_images():
    vs = generic_vs()
    for n in range(1, 6):
        p = phi(vs, n).phi
        assert functional_eval(vs, p).is_zero
        assert functional_eval(vs, bar_inverse_substitute(p)).is_zero


def test_orthogonality_with_squared_norms():
    vs = generic_vs()
    for m in range(5):
        for n in range(5):
            val = inner_product(vs, phi(vs, m).phi, phi(vs, n).phi)
            assert val == (kappa(vs, n) if m == n else 0)


def test_functional_of_polynomial_times_negative_power():
    # L(phi_m * z^(-n)) = kappa_n * delta_{m,n} whenever 0 <= n <= m
    vs = generic_vs()
    for m in range(5):
        for n in range(m + 1):
            val = functional_eval(vs, phi(vs, m).phi.shift(-n))
            assert val == (kappa(vs, n) if m == n else 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.lists(st.complex_numbers(max_magnitude=2, allow_nan=False,
                                   allow_infinity=False), min_size=1,
                max_size=6))
def test_numeric_functional_is_positive_definite(seed, coeffs):
    # <p, p> > 0 is scale-invariant; scaling to max |c| = 1 keeps tiny
    # coefficients from underflowing to a zero form in floats
    top = max(abs(c) for c in coeffs)
    if top == 0:
        return
    vs = numeric_vs(seed)
    p = LaurentPoly({k: c / top for k, c in enumerate(coeffs)}, NUMERIC)
    val = inner_product(vs, p, p)
    assert abs(val.imag) < 1e-9 * (1 + abs(val))
    assert val.real > 0


# ---------------------------------------------------------------------------
# the oracle


def test_oracle_normalization_at_zero_width():
    vs = generic_vs()
    for r in range(4):
        for s in range(4):
            assert moment_oracle(vs, 0, r, s) == (1 if r == s else 0)


def test_oracle_third_moment_matches_display():
    vs = generic_vs()
    rho0, rho1 = vs.rho(0), vs.rho(1)
    expected = (alpha(0) ** 3 + 2 * alpha(0) * alpha(1) * rho0
                - alpha(1) ** 2 * alpha_bar(0) * rho0
                + alpha(2) * rho0 * rho1)
    assert moment_oracle(vs, 3, 0, 0) == expected


def test_oracle_point_mass_family_closed_form():
    # alpha_j = gamma/(1 + j gamma): mu_{n,m} = gamma/(1 + m gamma) for n > m
    g = Fraction(1, 2)
    vs = VerblunskySequence(
        lambda j: g / (1 + j * g), SYMBOLIC)
    for n in range(5):
        for m in range(5):
            want = 1 if n == m else (g / (1 + m * g) if n > m else 0)
            assert moment_oracle(vs, n, 0, m) == want


def test_oracle_handles_negative_first_index():
    vs = generic_vs()
    assert moment_oracle(vs, -1, 0, 0) == alpha_bar(0)
    assert moment_oracle(vs, -1, 0, 1) == alpha_bar(1)
    for n in range(1, 4):
        assert moment_oracle(vs, -n, 0, 0) == conjugate(moment_oracle(vs, n, 0, 0))


def test_oracle_numeric_agrees_with_itself_rebuilt():
    vs = numeric_vs(7)
    fresh = numeric_vs(7)
    for n in range(-3, 4):
        assert values_close(moment_oracle(vs, n, 1, 2),
                            moment_oracle(fresh, n, 1, 2))


def test_oracle_rejects_negative_degrees():
    with pytest.raises(ValueError):
        moment_oracle(generic_vs(), 1, -1, 0)


def test_oracle_refuses_a_zero_norm():
    # |alpha_1| = 1 makes rho_1 = 0 exactly; a product of tiny rho_j can
    # also reach 0 in floating point.  Past s = r + n the moment is 0 and
    # the norm is never formed.
    unit = VerblunskySequence.from_table([Fraction(1, 2), -1, 0, 0],
                                         SYMBOLIC)
    assert moment_oracle(unit, 1, 0, 1) == 1
    with pytest.raises(ValueError, match="rho_1 = 0"):
        moment_oracle(unit, 1, 1, 2)
    assert moment_oracle(unit, 1, 0, 2) == 0
    tiny = VerblunskySequence.from_table([0.99999999] * 60, NUMERIC)
    with pytest.raises(ValueError, match="underflows"):
        moment_oracle(tiny, 50, 0, 50)
    assert moment_oracle(tiny, 1, 0, 50) == 0


# the oracle pairs through one product per (r, s): these pin it to the
# pairing built afresh for every cell

ORACLE_GRID = [(n, r, s) for n in range(-6, 9) for r in range(5)
               for s in range(5)]


def _fresh_pairing(vs, n, r, s):
    if n >= 0 and s > r + n:
        return vs.zero()
    return normalized_pairing(vs, s, phi(vs, r).phi.shift(n))


def _definition(vs, n, r, s):
    # the pairing spelled out here, so that a change shared by the oracle
    # and `functional_eval` cannot hide: the product for this n, then L
    # term by term in the product's key order, then the rho_j product
    if n >= 0 and s > r + n:
        return vs.zero()
    f = phi(vs, s).phi * bar_inverse_substitute(phi(vs, r).phi.shift(n))
    top = max([abs(k) for k in f.coeffs] + [0])
    pos, neg = moments_from_phis(vs, top)
    out = vs.zero()
    for k, c in f.coeffs.items():
        out = out + c * (neg[k] if k >= 0 else pos[-k])
    return out / vs.rho_product(0, s)


def _bits(z):
    return z.real.hex(), z.imag.hex()


def _products(vs):
    return {key: table[0] for key, table in vs.cache.items()
            if key[0] == "pairing"}


def test_oracle_repeats_the_fresh_pairing_bit_for_bit():
    for seed in (3, 11):
        vs = numeric_vs(seed, length=24)
        fresh = numeric_vs(seed, length=24)
        for n, r, s in ORACLE_GRID:
            value = _bits(moment_oracle(vs, n, r, s))
            assert value == _bits(_fresh_pairing(fresh, n, r, s))
            assert value == _bits(_definition(fresh, n, r, s))


def test_oracle_equals_the_fresh_pairing_exactly():
    exact = VerblunskySequence.from_table(
        [Fraction(1, 2), gauss(Fraction(1, 3), Fraction(-1, 5)),
         Fraction(-2, 7), gauss(0, Fraction(3, 4)), Fraction(1, 9),
         gauss(Fraction(-1, 6), Fraction(1, 2))] * 3, SYMBOLIC)
    for n, r, s in ORACLE_GRID:
        value = moment_oracle(exact, n, r, s)
        assert value == _fresh_pairing(exact, n, r, s)
        assert value == _definition(exact, n, r, s)
    # generic symbols grow fast in n + max(r, s), so a corner of the grid
    vs = generic_vs()
    for n, r, s in ORACLE_GRID:
        if abs(n) + max(r, s) <= 6:
            assert moment_oracle(vs, n, r, s) == _fresh_pairing(vs, n, r, s)


def test_more_n_reuses_each_pairing_product():
    vs = numeric_vs(5, length=24)
    for n, r, s in ORACLE_GRID:
        moment_oracle(vs, n, r, s)
    products = _products(vs)
    assert sorted(products) == [("pairing", r, s) for r in range(5)
                                for s in range(5)]
    for n in list(range(9, 13)) + list(range(-9, -6)):
        for r in range(5):
            for s in range(5):
                moment_oracle(vs, n, r, s)
    assert all(len(vs.cache[key]) == 1 for key in products)
    after = _products(vs)
    assert after.keys() == products.keys()
    assert all(after[key] is products[key] for key in products)


def test_kappa_table_is_the_rho_product():
    vs = numeric_vs(9, length=12)
    kappa(vs, 12)
    table = vs.cache[("kappa",)]
    assert len(table) == 13
    for s, value in enumerate(table):
        assert _bits(value) == _bits(vs.rho_product(0, s))
        assert kappa(vs, s) is value


# the golden CLI file prints %.12g, which cannot see the last bit: a
# SHA-256 over every float's repr (phi's items in key order, the oracle at
# +-n, the transfer walk asked ascending and shuffled) and every exact
# value's str.  One table has zero alphas; the dyadic one cancels
# coefficients of phi exactly

ZERO_ALPHAS = [0.5, 0, -0.3j, 0, 0, 0.25 + 0.6j, 0] * 4
CANCELLING = [-0.25, 0.5, -0.25, 0.25, 0.25, 0.25, 0.25, -0.5] * 3


def _bit_tables():
    yield numeric_vs(1, length=24, radius=0.6)
    yield numeric_vs(2, length=24, radius=0.98)
    for table in (ZERO_ALPHAS, CANCELLING):
        yield VerblunskySequence.from_table(table, NUMERIC)


def _phi_oracle_u_walk_digest():
    digest = hashlib.sha256()
    oracle = [(n, r, s) for n in range(-12, 13) for r in range(5)
              for s in range(6)]
    walk = [(n, r, s) for n in range(13) for r in range(5)
            for s in range(8)]
    for seed, vs in enumerate(_bit_tables()):
        lines = []
        for n in range(24):
            pair = phi(vs, n)
            lines += [repr(list(pair.phi.coeffs.items())),
                      repr(list(pair.phi_star.coeffs.items()))]
        lines += [repr(moment_oracle(vs, *cell)) for cell in oracle]
        lines += [repr(u_power_entry(vs, *cell)) for cell in walk]
        shuffled = list(walk)
        random.Random(seed).shuffle(shuffled)
        fresh = VerblunskySequence(vs.alpha, NUMERIC)
        lines += [repr(u_power_entry(fresh, *cell)) for cell in shuffled]
        digest.update("\n".join(lines).encode())
    exact = VerblunskySequence.from_table(
        [Fraction(1, 2), 0, gauss(Fraction(1, 3), Fraction(-1, 5)),
         Fraction(-1, 2), gauss(0, Fraction(3, 4)), 0, Fraction(1, 9)] * 2,
        SYMBOLIC)
    for vs in (exact, generic_vs()):
        lines = [str([(k, str(c)) for k, c in poly.coeffs.items()])
                 for n in range(6)
                 for poly in (phi(vs, n).phi, phi(vs, n).phi_star)]
        lines += [str(moment_oracle(vs, n, r, s)) for n in range(-4, 5)
                  for r in range(3) for s in range(4)]
        lines += [str(u_power_entry(vs, n, r, s)) for n in range(5)
                  for r in range(3) for s in range(6)]
        digest.update("\n".join(lines).encode())
    return digest.hexdigest()


def test_phi_oracle_and_u_walk_keep_their_bits():
    assert _phi_oracle_u_walk_digest() == (
        "16008d913b1ae55d913eb699e448ac0c55fb814b4b0a95a3cfb4faeed29ee9ff")

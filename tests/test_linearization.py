"""Expansions of shifted polynomials in the monic and reversed bases, the
closed coefficient formulas, and their lattice-path companions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuc.algebra import (SYMBOLIC, LaurentPoly, alpha, alpha_bar, beta_form,
                          conjugate, is_polynomial, values_close)
from opuc.core import VerblunskySequence, moment_oracle, phi
from opuc.errors import ZeroVerblunsky
from opuc.families import FamilySpec, verblunsky_of
from opuc.linearization import (PHI_BASIS, PHI_STAR_BASIS,
                                expand_in_phi_basis, expand_in_phistar_basis,
                                expand_moment_basis, phi_to_star_coeff,
                                phi_to_star_coeff_paths, reconstruct,
                                star_basis_change, star_overlap_matrix,
                                star_pairing_oracle, star_to_phi_coeff,
                                star_to_phi_coeff_negative,
                                star_to_phi_coeff_paths, star_to_star_coeff,
                                star_to_star_coeff_paths)
from opuc.matrices import ScalarMatrix
from opuc.paths import moment_lukasiewicz, moment_negative

from .conftest import generic_vs, numeric_vs


def _polys_close(p, q):
    keys = set(p.support()) | set(q.support())
    return all(values_close(p.coeff(k), q.coeff(k)) for k in keys)


def _zero_at(positions, length=8):
    table = [Fraction(1, j + 2) for j in range(length)]
    for p in positions:
        table[p] = 0
    return VerblunskySequence.from_table(table, SYMBOLIC)


# ---------------------------------------------------------------------------
# triangular solves against the two bases


def test_basis_expansion_of_basis_elements():
    vs = generic_vs()
    res = expand_in_phi_basis(vs, phi(vs, 2).phi)
    assert res[2] == 1
    assert res[0].is_zero and res[1].is_zero


def test_monomial_in_monic_basis():
    vs = generic_vs()
    z = LaurentPoly({1: vs.one()}, vs.mode)
    res = expand_in_phi_basis(vs, z)
    assert res == [alpha_bar(0), vs.one()]


def test_empty_and_invalid_targets():
    vs = generic_vs()
    assert expand_in_phi_basis(vs, vs.zero() * phi(vs, 0).phi) == []
    laurent = phi(vs, 1).phi.shift(-1)
    with pytest.raises(ValueError):
        expand_in_phi_basis(vs, laurent)
    with pytest.raises(ValueError):
        expand_in_phistar_basis(vs, laurent, 2)


def test_monomial_in_reversed_basis():
    vs = generic_vs()
    z = LaurentPoly({1: vs.one()}, vs.mode)
    res = expand_in_phistar_basis(vs, z, 1)
    inv = vs.one() / alpha(0)
    assert res == [inv, -inv]
    assert reconstruct(vs, PHI_STAR_BASIS, res) == z


def test_reversed_basis_needs_nonzero_alphas():
    vs = _zero_at([0])
    with pytest.raises(ZeroVerblunsky) as info:
        expand_in_phistar_basis(vs, phi(vs, 1).phi, 1)
    assert info.value.index == 0


def test_reversed_basis_bound_is_enforced():
    vs = generic_vs()
    with pytest.raises(ValueError):
        expand_in_phistar_basis(vs, phi(vs, 3).phi, 2)


# ---------------------------------------------------------------------------
# closed coefficient values at small indices


def test_reversed_target_monic_basis_small_values():
    vs = generic_vs()
    assert star_to_phi_coeff(vs, 0, 0, 0) == 1
    assert star_to_phi_coeff(vs, 0, 1, 0) == vs.rho(0)
    assert star_to_phi_coeff(vs, 0, 1, 1) == -alpha_bar(0)
    assert star_to_phi_coeff(vs, 0, 2, 2) == -alpha_bar(1)
    with pytest.raises(ValueError):
        star_to_phi_coeff(vs, -1, 0, 0)


def test_monic_target_reversed_basis_small_values():
    vs = generic_vs()
    one = vs.one()
    assert phi_to_star_coeff(vs, 0, 0, 0) == 1
    assert phi_to_star_coeff(vs, 1, 0, 0) == one / alpha_bar(0)
    for r in range(1, 4):
        assert phi_to_star_coeff(vs, 0, r, r) == -one / alpha_bar(r - 1)
        assert phi_to_star_coeff(vs, 0, r, r - 1) == (
            vs.rho(r - 1) / alpha_bar(r - 1))


def test_reversed_to_reversed_is_identity_without_shift():
    vs = generic_vs()
    for r in range(4):
        for s in range(4):
            want = vs.one() if r == s else vs.zero()
            assert star_to_star_coeff(vs, 0, r, s) == want


def test_starred_coefficients_guard_their_divisions():
    vs = _zero_at([1])
    with pytest.raises(ZeroVerblunsky) as info:
        phi_to_star_coeff(vs, 1, 0, 1)
    assert info.value.index == 1
    with pytest.raises(ZeroVerblunsky):
        star_to_star_coeff(vs, 1, 0, 2)
    # the division-free family is fine with vanishing alphas
    star_to_phi_coeff(vs, 2, 2, 1)


# ---------------------------------------------------------------------------
# ground truth by the bilinear pairing


def test_reversed_target_matches_pairing_oracle():
    vs = generic_vs()
    for n in range(4):
        for r in range(3):
            for s in range(n + r + 2):
                assert star_to_phi_coeff(vs, n, r, s) == star_pairing_oracle(
                    vs, n, r, s), (n, r, s)


def test_reversed_target_with_zero_coefficients_matches_oracle():
    vs = _zero_at([0, 2, 4])
    for n in range(4):
        for r in range(3):
            for s in range(n + r + 2):
                assert star_to_phi_coeff(vs, n, r, s) == star_pairing_oracle(
                    vs, n, r, s), (n, r, s)


def test_negative_shift_pairing():
    vs = generic_vs()
    assert star_to_phi_coeff_negative(vs, 1, 0, 0) == alpha_bar(0)
    assert star_to_phi_coeff_negative(vs, 1, 0, 1) == alpha_bar(1)
    for n in range(1, 4):
        for r in range(3):
            for s in range(4):
                assert star_to_phi_coeff_negative(
                    vs, n, r, s) == star_pairing_oracle(vs, -n, r, s), (n, r, s)
    with pytest.raises(ValueError):
        star_to_phi_coeff_negative(vs, 0, 0, 0)


def test_negative_shift_pairing_numeric():
    vs = numeric_vs(21)
    for n in range(1, 4):
        for r in range(3):
            for s in range(4):
                assert values_close(
                    star_to_phi_coeff_negative(vs, n, r, s),
                    star_pairing_oracle(vs, -n, r, s)), (n, r, s)


def test_both_oracles_refuse_a_zero_norm_alike():
    # symbolic geronimus admits |alpha| = 1, so rho_0 = 0 and phi_1 has
    # norm 0; phi_0 keeps norm 1
    vs = verblunsky_of(FamilySpec("geronimus", 1))
    for oracle in (star_pairing_oracle, moment_oracle):
        assert oracle(vs, 1, 0, 0) == 1
        with pytest.raises(ValueError) as info:
            oracle(vs, 1, 0, 1)
        assert str(info.value) == ("the oracle divides by <phi_1, phi_1>, "
                                   "which is 0: rho_0 = 0")


def test_negative_shift_reduces_to_mirrored_moments_at_zero_width():
    vs = generic_vs()
    for n in range(1, 4):
        for s in range(4):
            assert star_to_phi_coeff_negative(vs, n, 0, s) == moment_negative(
                vs, n, 0, s)


# ---------------------------------------------------------------------------
# the four reconstruction identities


def _shifted(vs, n, r, starred):
    pair = phi(vs, r)
    base = pair.phi_star if starred else pair.phi
    return base.shift(n)


def test_monic_target_monic_basis_roundtrip():
    vs = generic_vs()
    for n in range(3):
        for r in range(4 - n):
            target = _shifted(vs, n, r, False)
            res = expand_in_phi_basis(vs, target)
            for s in range(n + r + 1):
                assert res[s] == conjugate(
                    moment_lukasiewicz(vs, n, r, s)), (n, r, s)


def test_reversed_target_monic_basis_roundtrip():
    vs = generic_vs()
    for n in range(3):
        for r in range(4 - n):
            target = _shifted(vs, n, r, True)
            coeffs = [conjugate(star_to_phi_coeff(vs, n, r, s))
                      for s in range(n + r + 1)]
            rebuilt = reconstruct(vs, PHI_BASIS, coeffs)
            assert rebuilt == target, (n, r)


def test_monic_target_reversed_basis_roundtrip():
    vs = generic_vs()
    for n in range(3):
        for r in range(4 - n):
            target = _shifted(vs, n, r, False)
            coeffs = [conjugate(phi_to_star_coeff(vs, n, r, s))
                      for s in range(n + r + 1)]
            rebuilt = reconstruct(vs, PHI_STAR_BASIS, coeffs)
            assert rebuilt == target, (n, r)
            solved = expand_in_phistar_basis(vs, target, n + r)
            assert solved == coeffs, (n, r)


def test_reversed_target_reversed_basis_roundtrip():
    vs = generic_vs()
    for n in range(3):
        for r in range(4 - n):
            target = _shifted(vs, n, r, True)
            coeffs = [conjugate(star_to_star_coeff(vs, n, r, s))
                      for s in range(n + r + 1)]
            rebuilt = reconstruct(vs, PHI_STAR_BASIS, coeffs)
            assert rebuilt == target, (n, r)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 30))
def test_roundtrips_numeric(n, r, starred_target, starred_basis, seed):
    vs = numeric_vs(seed)
    target = _shifted(vs, n, r, starred_target)
    coeff_of = {
        (False, False): moment_lukasiewicz,
        (True, False): star_to_phi_coeff,
        (False, True): phi_to_star_coeff,
        (True, True): star_to_star_coeff,
    }[(starred_target, starred_basis)]
    basis = PHI_STAR_BASIS if starred_basis else PHI_BASIS
    coeffs = [conjugate(coeff_of(vs, n, r, s)) for s in range(n + r + 1)]
    rebuilt = reconstruct(vs, basis, coeffs)
    assert _polys_close(rebuilt, target)


def test_reconstruct_rejects_unknown_basis():
    vs = generic_vs()
    assert reconstruct(vs, PHI_BASIS, []) == LaurentPoly({}, vs.mode)
    with pytest.raises(ValueError):
        reconstruct(vs, "chebyshev", [1])


def test_expand_moment_basis_collects_all_four():
    vs = generic_vs()
    n, r = 2, 1
    out = expand_moment_basis(vs, n, r)
    assert set(out) == {("phi", PHI_BASIS), ("phi_star", PHI_BASIS),
                        ("phi", PHI_STAR_BASIS), ("phi_star", PHI_STAR_BASIS)}
    for (target_tag, basis), coeffs in out.items():
        assert len(coeffs) == n + r + 1
        target = _shifted(vs, n, r, target_tag == "phi_star")
        rebuilt = reconstruct(vs, basis, [conjugate(c) for c in coeffs])
        assert rebuilt == target, (target_tag, basis)


# ---------------------------------------------------------------------------
# lattice-path companions


def test_reversed_target_path_route():
    vs = generic_vs()
    for n in range(3):
        for r in range(3):
            for s in range(n + r + 2):
                assert star_to_phi_coeff_paths(vs, n, r, s) == (
                    star_to_phi_coeff(vs, n, r, s)), (n, r, s)


def test_reversed_target_path_route_needs_nonzero_alpha():
    vs = _zero_at([1])
    with pytest.raises(ZeroVerblunsky) as info:
        star_to_phi_coeff_paths(vs, 2, 1, 0)
    assert info.value.index == 1


def test_monic_target_reversed_basis_path_route():
    vs = generic_vs()
    for n in range(1, 4):
        for r in range(3):
            for s in range(n + r + 1):
                assert phi_to_star_coeff_paths(vs, n, r, s) == (
                    phi_to_star_coeff(vs, n, r, s)), (n, r, s)
    with pytest.raises(ValueError):
        phi_to_star_coeff_paths(vs, 0, 1, 1)


def test_reversed_target_reversed_basis_path_route():
    vs = generic_vs()
    for n in range(1, 4):
        for r in range(3):
            for s in range(n + r + 1):
                assert star_to_star_coeff_paths(vs, n, r, s) == (
                    star_to_star_coeff(vs, n, r, s)), (n, r, s)
    with pytest.raises(ValueError):
        star_to_star_coeff_paths(vs, 0, 1, 1)


def test_path_routes_numeric():
    vs = numeric_vs(33)
    for n in range(1, 4):
        for r in range(3):
            for s in range(n + r + 1):
                assert values_close(star_to_phi_coeff_paths(vs, n, r, s),
                                    star_to_phi_coeff(vs, n, r, s))
                assert values_close(phi_to_star_coeff_paths(vs, n, r, s),
                                    phi_to_star_coeff(vs, n, r, s))
                assert values_close(star_to_star_coeff_paths(vs, n, r, s),
                                    star_to_star_coeff(vs, n, r, s))


# ---------------------------------------------------------------------------
# overlap matrix and its bidiagonal inverse


def test_overlap_matrix_is_lower_triangular_with_known_diagonal():
    vs = generic_vs()
    m = star_overlap_matrix(vs, 4)
    for i in range(4):
        for j in range(4):
            if j > i:
                assert m[i][j].is_zero
    assert m[0][0] == 1
    for i in range(1, 4):
        assert m[i][i] == -alpha_bar(i - 1)


def test_basis_change_inverts_overlap_matrix():
    vs = generic_vs()
    dim = 4
    prod = star_overlap_matrix(vs, dim) * star_basis_change(vs, dim)
    assert prod == ScalarMatrix.identity(dim, vs.one(), vs.zero())


def test_basis_change_inverts_overlap_matrix_numeric():
    vs = numeric_vs(44)
    dim = 7
    prod = star_overlap_matrix(vs, dim) * star_basis_change(vs, dim)
    for i in range(dim):
        for j in range(dim):
            assert values_close(prod[i][j], 1 if i == j else 0), (i, j)


def test_basis_change_corner_and_guards():
    vs = generic_vs()
    ch = star_basis_change(vs, 3)
    assert ch[0][0] == 1
    assert ch[1][1] == -vs.one() / alpha_bar(0)
    assert ch[1][0] == vs.rho(0) / alpha_bar(0)
    assert ch[0][1].is_zero
    with pytest.raises(ZeroVerblunsky):
        star_basis_change(_zero_at([0]), 3)


# ---------------------------------------------------------------------------
# which denominator-clearing factors restore polynomiality


def test_cleared_reversed_basis_coefficients_are_polynomial():
    vs = generic_vs()
    for n in range(3):
        for r in range(3):
            for s in range(n + r + 1):
                eta = alpha_bar(s) * vs.alpha_bar(s - 1) * phi_to_star_coeff(
                    vs, n, r, s)
                theta = alpha_bar(s) * vs.alpha_bar(s - 1) * star_to_star_coeff(
                    vs, n, r, s)
                assert is_polynomial(eta), (n, r, s)
                assert is_polynomial(theta), (n, r, s)


def test_cleared_coefficients_leave_the_positive_cone():
    vs = generic_vs()
    # ab_0 * ab_{-1} * (coefficient at (0, 1, 0)) = -rho_0 = -1 - a0 b0
    eta = alpha_bar(0) * vs.alpha_bar(-1) * phi_to_star_coeff(vs, 0, 1, 0)
    assert beta_form(eta) == {(): -1, (((0, "a"), 1), ((0, "b"), 1)): -1}
    # ab_0 * ab_{-1} * (coefficient at (1, 0, 0)) = -1
    theta = alpha_bar(0) * vs.alpha_bar(-1) * star_to_star_coeff(vs, 1, 0, 0)
    assert beta_form(theta) == {(): -1}


def test_weaker_clearing_factor_fails():
    vs = generic_vs()
    # scaling by ab_{s-1} |a_r|^2 alone does not clear the denominators:
    # at (1, 1, 0) a 1/ab_0 pole survives
    n, r, s = 1, 1, 0
    prod = (vs.alpha_bar(s - 1) * alpha(r) * alpha_bar(r)
            * star_to_star_coeff(vs, n, r, s))
    assert not is_polynomial(prod)
    with pytest.raises(ValueError):
        beta_form(prod)

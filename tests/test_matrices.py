"""Transfer-matrix and factored-walk moment evaluation, and the
determinant identities."""

from fractions import Fraction

import pytest

from opuc.algebra import alpha, alpha_bar, values_close
from opuc.core import VerblunskySequence, moments_from_phis
from opuc.matrices import (ScalarMatrix, build_U, cmv_factor,
                           cmv_walk_entry, det_identity_check, determinant,
                           rho_power_product, theta_block, toeplitz_det,
                           toeplitz_matrix, u_power_entry)
from opuc.paths import (LatticePath, moment_gmotzkin, moment_lukasiewicz,
                        path_weight)

from .conftest import generic_vs, numeric_vs


# ---------------------------------------------------------------------------
# the matrix container


def test_matrix_container_basics():
    m = ScalarMatrix([[1, 2], [3, 4]])
    assert m.dim == 2 and m.entry(0, 1) == 2 and m[1][0] == 3
    eye = ScalarMatrix.identity(2, 1, 0)
    assert m * eye == m
    assert (m * m)[0][0] == 7
    with pytest.raises(ValueError):
        ScalarMatrix([[1, 2]])
    with pytest.raises(ValueError):
        m * ScalarMatrix([[1]])


def test_determinant_by_fraction_free_elimination():
    assert determinant(ScalarMatrix([[1, 2], [3, 4]]), 1) == -2
    assert determinant(ScalarMatrix([[2, 0, 1], [1, 1, 0], [0, 3, 1]]), 1) == 5
    # zero pivot forces the row swap branch
    assert determinant(ScalarMatrix([[0, 1], [1, 0]]), 1) == -1
    # singular
    assert determinant(ScalarMatrix([[1, 2], [2, 4]]), 1) == 0


# ---------------------------------------------------------------------------
# one-step transfer matrix


def test_transfer_matrix_small_displays():
    vs = generic_vs()
    u1 = build_U(vs, 1)
    assert u1.rows == [[alpha(0)]]
    u2 = build_U(vs, 2)
    assert u2[0][0] == alpha(0)
    assert u2[0][1] == 1
    assert u2[1][0] == alpha(1) * vs.rho(0)
    assert u2[1][1] == -alpha(1) * alpha_bar(0)


def test_transfer_entries_are_single_step_weights():
    vs = generic_vs()
    u = build_U(vs, 5)
    for i in range(5):
        for j in range(5):
            if j == i + 1:
                assert u[i][j] == 1
            elif j > i + 1:
                assert u[i][j].is_zero
            else:
                step = LatticePath("lukasiewicz", (0, i), ((1, j - i),))
                assert u[i][j] == path_weight(step, vs)


def test_transfer_power_entries():
    vs = generic_vs()
    for r in range(4):
        for s in range(4):
            assert u_power_entry(vs, 0, r, s) == (1 if r == s else 0)
    assert u_power_entry(vs, 1, 0, 0) == alpha(0)
    assert u_power_entry(vs, 3, 0, 0) == moment_lukasiewicz(vs, 3, 0, 0)


def test_transfer_power_agrees_with_unit_width_dp():
    vs = generic_vs()
    for n in range(4):
        for r in range(3):
            for s in range(5):
                assert u_power_entry(vs, n, r, s) == moment_lukasiewicz(
                    vs, n, r, s), (n, r, s)


def test_transfer_truncation_is_sufficient():
    vs = numeric_vs(5)
    for n in range(7):
        for r in range(3):
            dim = r + n + 1
            small = ScalarMatrix.identity(dim, vs.one(), vs.zero())
            large = ScalarMatrix.identity(dim + 3, vs.one(), vs.zero())
            u_small, u_large = build_U(vs, dim), build_U(vs, dim + 3)
            for _ in range(n):
                small, large = small * u_small, large * u_large
            for s in range(dim):
                assert u_power_entry(vs, n, r, s) == small[r][s] \
                    == large[r][s], (n, r, s)


# ---------------------------------------------------------------------------
# factored walk


def test_block_contents():
    vs = generic_vs()
    blk = theta_block(vs, 2)
    assert blk[0][0] == alpha(2)
    assert blk[0][1] == 1
    assert blk[1][0] == vs.rho(2)
    assert blk[1][1] == -alpha_bar(2)


def test_factor_entries_are_parity_step_weights():
    vs = generic_vs()
    for x in (-2, -1, 0, 1, 2):
        fac = cmv_factor(vs, x, 6)
        for i in range(6):
            for j in range(6):
                if abs(i - j) > 1:
                    assert fac[i][j].is_zero
                    continue
                step = (1, j - i)
                parity_ok = ((x + i) % 2 == 0) if j > i else (
                    (x + i) % 2 == 1) if j < i else True
                if not parity_ok:
                    assert fac[i][j].is_zero
                    continue
                if j < i == 0:
                    continue
                p = LatticePath("gmotzkin", (x, i), (step,))
                assert fac[i][j] == path_weight(p, vs), (x, i, j)


def test_factored_walk_entries():
    vs = generic_vs()
    for r in range(4):
        assert cmv_walk_entry(vs, 0, r, r) == 1
    assert cmv_walk_entry(vs, 1, 0, 0) == alpha(0)
    assert cmv_walk_entry(vs, 2, 0, 0) == alpha(0) ** 2 + alpha(1) * vs.rho(0)


def test_factored_walk_agrees_with_parity_dp():
    vs = generic_vs()
    for n in range(4):
        for r in range(3):
            for s in range(5):
                assert cmv_walk_entry(vs, n, r, s) == moment_gmotzkin(
                    vs, n, r, s), (n, r, s)


def test_factored_walk_truncation_is_sufficient():
    vs = numeric_vs(6)
    fresh = numeric_vs(6)
    for n in range(7):
        for r in range(3):
            for s in range(r + n + 1):
                width = 2 * n + r - s
                dim = r + n + 5
                prod = ScalarMatrix.identity(dim, fresh.one(), fresh.zero())
                for x in range(-r, -r + width):
                    prod = prod * cmv_factor(fresh, x, dim)
                assert cmv_walk_entry(vs, n, r, s) == prod[r][s], (n, r, s)


def _row_products(vs, r, dim, factors):
    """Row r of E_rr * F_1 * ... * F_k for k = 0, 1, ..., len(factors).

    Row r of a product depends only on row r of its first factor, so the
    projection E_rr stands in for the identity and keeps the explicit
    symbolic products small.
    """
    rows = [[vs.zero()] * dim for _ in range(dim)]
    rows[r][r] = vs.one()
    prod = ScalarMatrix(rows)
    out = [prod[r]]
    for fac in factors:
        prod = prod * fac
        out.append(prod[r])
    return out


@pytest.mark.parametrize("make_vs", [generic_vs, lambda: numeric_vs(3)],
                         ids=["generic", "numeric"])
def test_walks_equal_explicit_products(make_vs):
    vs = make_vs()
    for r in range(4):
        big = r + 9
        wide_u = _row_products(vs, r, big, [build_U(vs, big)] * 6)
        wide_cmv = _row_products(vs, r, big, [cmv_factor(vs, x, big)
                                              for x in range(-r, 12)])
        for n in range(7):
            dim = r + n + 1
            tight_u = _row_products(vs, r, dim, [build_U(vs, dim)] * n)
            tight_cmv = _row_products(vs, r, dim, [cmv_factor(vs, x, dim)
                                                   for x in range(-r, 2 * n)])
            for s in range(4):
                u = u_power_entry(vs, n, r, s)
                cmv = cmv_walk_entry(vs, n, r, s)
                if s >= dim:
                    assert u == cmv == wide_u[n][s] == 0, (n, r, s)
                    continue
                width = 2 * n + r - s
                assert u == tight_u[n][s] == wide_u[n][s], (n, r, s)
                assert cmv == tight_cmv[width][s] == wide_cmv[width][s], (
                    n, r, s)


# ---------------------------------------------------------------------------
# determinants of the classical moment matrices


def test_moment_matrix_is_hermitian():
    vs = generic_vs()
    t = toeplitz_matrix(vs, 3)
    for i in range(4):
        for j in range(4):
            assert t[i][j] == t[j][i].conjugate()


def test_moment_determinant_closed_product():
    vs = generic_vs()
    assert toeplitz_det(vs, 0) == 1
    assert toeplitz_det(vs, 1) == vs.rho(0)
    assert toeplitz_det(vs, 2) == vs.rho(0) ** 2 * vs.rho(1)
    for n in range(4):
        assert toeplitz_det(vs, n) == rho_power_product(vs, n)


def test_moment_determinant_numeric():
    vs = numeric_vs(9)
    for n in range(6):
        assert values_close(toeplitz_det(vs, n), rho_power_product(vs, n))


def test_rho_power_product_values():
    vs = generic_vs()
    assert rho_power_product(vs, 0) == 1
    assert rho_power_product(vs, 3) == (vs.rho(0) ** 3 * vs.rho(1) ** 2
                                        * vs.rho(2))


def test_shifted_determinant_identity_trivial_orders():
    vs = generic_vs()
    pos, neg = moments_from_phis(vs, 2)
    for m in range(-2, 3):
        lhs, rhs, equal = det_identity_check(vs, m, 0)
        assert equal
        assert lhs == (pos[m] if m >= 0 else neg[-m])


def test_shifted_determinant_identity_reduces_at_zero_shift():
    vs = generic_vs()
    for n in range(3):
        lhs, rhs, equal = det_identity_check(vs, 0, n)
        assert equal
        assert lhs == rho_power_product(vs, n)


def test_shifted_determinant_identity_symbolic():
    vs = generic_vs()
    for m in range(-1, 2):
        for n in range(3):
            lhs, rhs, equal = det_identity_check(vs, m, n)
            assert equal, (m, n)


def test_shifted_determinant_identity_numeric():
    vs = numeric_vs(12)
    for m in range(-2, 3):
        for n in range(4):
            lhs, rhs, equal = det_identity_check(vs, m, n)
            assert equal, (m, n)


def test_rational_sequence_determinants():
    vs = VerblunskySequence.from_table([Fraction(1, 2)] * 6, "symbolic")
    for n in range(5):
        assert toeplitz_det(vs, n) == Fraction(3, 4) ** ((n + 1) * n // 2)

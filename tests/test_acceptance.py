"""Acceptance gate: eleven end-to-end checks over the whole package.

Each test prints exactly one ``[criterion N] PASS/FAIL`` line (visible
under ``pytest -s``) and then asserts, so a red line always comes with a
failing test and vice versa.
"""

import random
import time
from fractions import Fraction

import pytest

from opuc.algebra import (NUMERIC, SYMBOLIC, GaussianRational, alpha,
                          alpha_bar, beta_form, conjugate, is_polynomial,
                          values_close)
from opuc.cli import random_alpha_table
from opuc.core import VerblunskySequence, moment_oracle, phi
from opuc.errors import ZeroVerblunsky
from opuc.families import (FamilySpec, closed_moment_nm, closed_moment_nrs,
                           family_mode, verblunsky_of)
from opuc.linearization import (PHI_BASIS, PHI_STAR_BASIS, phi_to_star_coeff,
                                reconstruct, star_basis_change,
                                star_overlap_matrix, star_to_phi_coeff,
                                star_to_star_coeff)
from opuc.matrices import (ScalarMatrix, cmv_walk_entry, det_identity_check,
                           rho_power_product, toeplitz_det, u_power_entry)
from opuc.paths import (enumerate_paths, moment_gmotzkin, moment_lukasiewicz,
                        moment_negative, moment_schroder, path_weight,
                        positivity_certificate)

from .conftest import catalan


def _report(num, ok, detail):
    print("[criterion %d] %s - %s" % (num, "PASS" if ok else "FAIL", detail))


def test_criterion_01_low_order_symbolic_moments():
    start = time.perf_counter()
    vs = VerblunskySequence.generic()
    rho0, rho1 = vs.rho(0), vs.rho(1)
    displays = [
        alpha(0),
        alpha(0) ** 2 + alpha(1) * rho0,
        alpha(0) ** 3 + 2 * alpha(0) * alpha(1) * rho0
        - alpha(1) ** 2 * alpha_bar(0) * rho0
        + alpha(2) * rho0 * rho1,
    ]
    got = [moment_lukasiewicz(vs, n, 0, 0) for n in (1, 2, 3)]
    elapsed = time.perf_counter() - start
    ok = got == displays and elapsed < 1.0
    _report(1, ok, "mu_1..mu_3 equal their closed displays exactly "
            "(%.3f s)" % elapsed)
    assert got == displays
    assert elapsed < 1.0


def test_criterion_02_numeric_cross_model_agreement():
    start = time.perf_counter()
    rng = random.Random(20260823)
    bad = []
    for k in range(200):
        table = random_alpha_table(rng, 14)
        vs = VerblunskySequence.from_table(table, NUMERIC)
        with_schroder = all(z != 0 for z in table)
        # r, n descending so every per-r cache is built at full size once
        for r in range(6, -1, -1):
            for n in range(6, -1, -1):
                for s in range(7):
                    ref = moment_oracle(vs, n, r, s)
                    vals = [moment_lukasiewicz(vs, n, r, s),
                            moment_gmotzkin(vs, n, r, s),
                            u_power_entry(vs, n, r, s),
                            cmv_walk_entry(vs, n, r, s)]
                    if with_schroder:
                        vals.append(moment_schroder(vs, n, r, s))
                    for v in vals:
                        if not values_close(v, ref):
                            bad.append((k, n, r, s))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60.0
    _report(2, ok, "200 random sequences, indices <= 6, five methods "
            "within 1e-9 of the oracle (%.1f s)" % elapsed)
    assert not bad, "mismatched cells: %s" % bad[:5]
    assert elapsed < 60.0


def test_criterion_03_symbolic_cross_model_agreement():
    start = time.perf_counter()
    vs = VerblunskySequence.generic()
    bad = []
    for r in range(4, -1, -1):
        for n in range(4 - r, -1, -1):
            for s in range(n + r + 2):
                ref = moment_oracle(vs, n, r, s)
                for fn in (moment_lukasiewicz, moment_gmotzkin,
                           moment_schroder, u_power_entry, cmv_walk_entry):
                    if fn(vs, n, r, s) != ref:
                        bad.append((fn.__name__, n, r, s))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    _report(3, ok, "exact agreement of all five methods with the oracle, "
            "n + r <= 4 (%.2f s)" % elapsed)
    assert not bad, "mismatched cells: %s" % bad[:5]
    assert elapsed < 30.0


def test_criterion_04_enumeration_counts_and_totals():
    vs = VerblunskySequence.generic()
    counts_ok = len(enumerate_paths("lukasiewicz", 3, 0, 0)) == 5
    bad = []
    for n in range(9):
        listing = enumerate_paths("lukasiewicz", n, 0, 0)
        if len(listing) != catalan(n):
            counts_ok = False
        total = vs.zero()
        for p in listing:
            total = total + path_weight(p, vs)
        if total != moment_lukasiewicz(vs, n, 0, 0):
            bad.append(n)
    ok = counts_ok and not bad
    _report(4, ok, "5 paths at n = 3, Catalan counts through n = 8, "
            "enumerated totals equal the DP exactly")
    assert counts_ok
    assert not bad, "totals differ at n in %s" % bad


def test_criterion_05_reciprocity():
    vs = VerblunskySequence.generic()
    orientation = ("negative(n,r,s) * rho_product(0,s) "
                   "== conj(moment(n,s,r)) * rho_product(0,r)")
    bad = []
    for n in range(6):
        for r in range(6):
            for s in range(6):
                lhs = moment_negative(vs, n, r, s) * vs.rho_product(0, s)
                rhs = (conjugate(moment_lukasiewicz(vs, n, s, r))
                       * vs.rho_product(0, r))
                if lhs != rhs:
                    bad.append((n, r, s))
    # the quotient form divides exactly in this orientation
    div_ok = all(
        moment_negative(vs, n, r, s) * vs.rho_product(0, s)
        / vs.rho_product(0, r) == conjugate(moment_lukasiewicz(vs, n, s, r))
        for n in range(3) for r in range(3) for s in range(3))
    ok = not bad and div_ok
    _report(5, ok, "indices <= 5 symbolic; orientation: %s" % orientation)
    assert not bad, "mismatched cells: %s" % bad[:5]
    assert div_ok


def test_criterion_06_determinants():
    vs = VerblunskySequence.generic()
    sym_bad = [n for n in range(5)
               if toeplitz_det(vs, n) != rho_power_product(vs, n)]
    rng = random.Random(60)
    num = VerblunskySequence.from_table(random_alpha_table(rng, 10), NUMERIC)
    num_bad = [n for n in range(7)
               if not values_close(toeplitz_det(num, n),
                                   rho_power_product(num, n))]
    shift_bad = []
    for m in range(-2, 3):
        for n in range(4):
            if not det_identity_check(vs, m, n)[2]:
                shift_bad.append((m, n))
    ok = not (sym_bad or num_bad or shift_bad)
    _report(6, ok, "toeplitz_det = prod rho_k^(n-k) (n <= 4 exact, "
            "n <= 6 numeric); shifted-index identity for |m| <= 2, n <= 3")
    assert not sym_bad and not num_bad and not shift_bad, (
        sym_bad, num_bad, shift_bad)


def _family_cases():
    return [
        (FamilySpec("bernstein_szego",
                    GaussianRational(Fraction(2, 5), Fraction(1, 5))), False),
        (FamilySpec("mass_point", Fraction(1, 2)), False),
        (FamilySpec("circular_jacobi", Fraction(3, 2)), False),
        (FamilySpec("rogers_szego", Fraction(1, 3)), False),
        (FamilySpec("single_nontrivial", 1), False),
        (FamilySpec("single_nontrivial", Fraction(1, 2)), False),
        (FamilySpec("geronimus", Fraction(1, 2)), False),
        (FamilySpec("geronimus", 1), False),
        (FamilySpec("geronimus", 0.3 + 0.4j), True),
    ]


def test_criterion_07_family_closed_forms():
    bad = []
    for spec, approx in _family_cases():
        mode = family_mode(spec)
        vs = verblunsky_of(spec, mode)
        for n in range(7):
            for m in range(7):
                a = closed_moment_nm(spec, n, m, mode)
                b = moment_lukasiewicz(vs, n, 0, m)
                if not (values_close(a, b) if approx else a == b):
                    bad.append((spec, "nm", n, m))
        for n in range(6):
            for r in range(6):
                for s in range(6):
                    a = closed_moment_nrs(spec, n, r, s, mode)
                    b = moment_lukasiewicz(vs, n, r, s)
                    if not (values_close(a, b) if approx else a == b):
                        bad.append((spec, "nrs", n, r, s))
    ok = not bad
    _report(7, ok, "six families' closed forms (n,m <= 6; n,r,s <= 5) "
            "against the path DP")
    assert not bad, "mismatches: %s" % bad[:5]


def test_criterion_08_single_mass_limit():
    near = FamilySpec("single_nontrivial", 1 - 1e-6)
    flat = FamilySpec("single_nontrivial", 1)
    vs = verblunsky_of(near)
    bad = []
    for n in range(5):
        for r in range(5):
            for s in range(5):
                target = closed_moment_nrs(flat, n, r, s, SYMBOLIC)
                target = target.evaluate({})
                got = moment_lukasiewicz(vs, n, r, s)
                if not values_close(got, target, tol=1e-4):
                    bad.append((n, r, s))
    ok = not bad
    _report(8, ok, "a = 1 - 1e-6 numeric moments within 1e-4 of the a = 1 "
            "closed form, indices <= 4")
    assert not bad, "cells outside tolerance: %s" % bad[:5]


def test_criterion_09_linearization_roundtrips():
    vs = VerblunskySequence.generic()
    bad = []
    for n in range(4):
        for r in range(4 - n):
            width = n + r + 1
            cases = (
                (phi(vs, r).phi.shift(n), PHI_BASIS, moment_lukasiewicz),
                (phi(vs, r).phi_star.shift(n), PHI_BASIS, star_to_phi_coeff),
                (phi(vs, r).phi.shift(n), PHI_STAR_BASIS, phi_to_star_coeff),
                (phi(vs, r).phi_star.shift(n), PHI_STAR_BASIS,
                 star_to_star_coeff),
            )
            for target, basis, coeff_fn in cases:
                coeffs = [conjugate(coeff_fn(vs, n, r, s))
                          for s in range(width)]
                rebuilt = reconstruct(vs, basis, coeffs)
                if rebuilt != target:
                    bad.append((coeff_fn.__name__, basis, n, r))
    diag_ok = phi_to_star_coeff(vs, 0, 0, 0) == 1 and all(
        phi_to_star_coeff(vs, 0, r, r) == -vs.one() / alpha_bar(r - 1)
        for r in range(1, 7))
    delta_ok = all(
        star_to_star_coeff(vs, 0, r, s)
        == (vs.one() if r == s else vs.zero())
        for r in range(7) for s in range(7))
    dim = 7
    iden = ScalarMatrix.identity(dim, vs.one(), vs.zero())
    overlap = star_overlap_matrix(vs, dim)
    change = star_basis_change(vs, dim)
    tau_ok = overlap * change == iden and change * overlap == iden
    ok = not bad and diag_ok and delta_ok and tau_ok
    _report(9, ok, "four exact round-trips (n + r <= 3), starred-basis "
            "diagonal and delta identities, bidiagonal inverse at "
            "dimension 7")
    assert not bad, "failed round-trips: %s" % bad[:5]
    assert diag_ok and delta_ok and tau_ok


def test_criterion_10_beta_positivity_and_clearing():
    vs = VerblunskySequence.generic()
    grid = [(n, r, s) for n in range(5) for r in range(5 - n)
            for s in range(n + r + 1)]
    non_positive = []
    for n, r, s in grid:
        expansion = positivity_certificate(vs, n, r, s)
        if any(not (isinstance(c, int) and c >= 0)
               for c in expansion.values()):
            non_positive.append((n, r, s))
    non_poly, negatives = [], []
    for n, r, s in grid:
        clear = vs.alpha_bar(s) * vs.alpha_bar(s - 1)
        for tag, coeff_fn in (("phi_to_star", phi_to_star_coeff),
                              ("star_to_star", star_to_star_coeff)):
            val = clear * coeff_fn(vs, n, r, s)
            if not is_polynomial(val):
                non_poly.append((tag, n, r, s))
            elif any(c < 0 for c in beta_form(val).values()):
                negatives.append((tag, n, r, s))
    ok = not non_positive and not non_poly and bool(negatives)
    witness = negatives[0] if negatives else "none found"
    _report(10, ok, "moments are beta-positive for n + r <= 4; "
            "ab_s ab_{s-1} clears both starred-basis families to "
            "polynomials; negative beta coefficient at %s" % (witness,))
    assert not non_positive, non_positive[:5]
    assert not non_poly, non_poly[:5]
    assert negatives, "expected at least one negative beta coefficient"


def test_criterion_11_error_contract():
    spec = FamilySpec("al_salam_carlitz", 0.5)
    vs = verblunsky_of(spec)
    with pytest.raises(ZeroVerblunsky) as info:
        moment_schroder(vs, 2, 0, 0)
    zero_ok = info.value.index == 0
    bad = []
    for n in range(7):
        for r in range(5):
            for s in range(5):
                ref = moment_oracle(vs, n, r, s)
                for fn in (moment_lukasiewicz, moment_gmotzkin,
                           u_power_entry, cmv_walk_entry):
                    if not values_close(fn(vs, n, r, s), ref):
                        bad.append((fn.__name__, n, r, s))
    ok = zero_ok and not bad
    _report(11, ok, "schroder rejects the vanishing alpha_0 with "
            "ZeroVerblunsky(0); remaining methods match the oracle to "
            "1e-9 for n <= 6")
    assert zero_ok
    assert not bad, bad[:5]

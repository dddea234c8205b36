"""Path enumeration, step weights, the DP evaluators, the two
correspondences, and the coefficient-positivity certificate."""

import collections
import hashlib
import random
import struct
import sys
from fractions import Fraction

import pytest

from opuc import paths as paths_module
from opuc.algebra import alpha, alpha_bar, conjugate, values_close
from opuc.core import VerblunskySequence, moment_oracle
from opuc.errors import (EnumerationCapExceeded, PositivityViolation,
                         ZeroVerblunsky)
from opuc.families import FamilySpec, verblunsky_of
from opuc.paths import (DEFAULT_CAP, LEVEL, UP, VERTICAL, LatticePath,
                        contract_schroder, count_paths, enumerate_paths,
                        gmotzkin_to_lukasiewicz, lukasiewicz_to_gmotzkin,
                        moment_gmotzkin, moment_lukasiewicz, moment_negative,
                        moment_schroder, path_weight, positivity_certificate,
                        schroder_grouping, schroder_weight_sum,
                        weighted_paths)

from .conftest import catalan, generic_vs, numeric_vs


# ---------------------------------------------------------------------------
# enumeration


def test_five_paths_for_the_third_moment():
    assert len(enumerate_paths("lukasiewicz", 3, 0, 0)) == 5


def test_zero_width_instances():
    for r in range(4):
        paths = enumerate_paths("lukasiewicz", 0, r, r)
        assert len(paths) == 1 and paths[0].steps == ()
        assert enumerate_paths("lukasiewicz", 0, r, r + 1) == []
        if r:
            assert enumerate_paths("lukasiewicz", 0, r, r - 1) == []


def test_ground_level_counts_are_catalan():
    for n in range(9):
        assert len(enumerate_paths("lukasiewicz", n, 0, 0)) == catalan(n)


def test_enumeration_cap_is_enforced():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_paths("lukasiewicz", 3, 0, 0, cap=4)
    assert len(enumerate_paths("lukasiewicz", 3, 0, 0, cap=5)) == 5


def test_ground_level_counts_are_catalan_and_large_schroder_numbers():
    # OEIS A000108 and A006318
    catalan_numbers = [1, 1, 2, 5, 14, 42, 132, 429]
    large_schroder = [1, 2, 6, 22, 90, 394, 1806, 8558]
    for model, want in (("lukasiewicz", catalan_numbers),
                        ("gmotzkin", catalan_numbers),
                        ("negative", catalan_numbers),
                        ("schroder", large_schroder)):
        assert [count_paths(model, n, 0, 0) for n in range(8)] == want


def test_each_count_is_the_length_of_its_listing():
    for model in ("lukasiewicz", "gmotzkin", "schroder", "negative"):
        for n in range(7):
            for r in range(5):
                for s in range(5):
                    assert (count_paths(model, n, r, s)
                            == len(enumerate_paths(model, n, r, s)))


def _recursive_listing(model, n, r, s):
    """The step tuples of a listing by plain recursion over the model's
    rule: each point yields a path on reaching the end, then tries its
    moves in order."""
    start, end, moves, slack = paths_module._MODELS[model][0](n, r, s)

    def visit(point, first, steps):
        if point == end:
            yield steps
        for step in moves(*point, first):
            nxt = (point[0] + step[0], point[1] + step[1])
            if slack(*nxt) >= 0:
                yield from visit(nxt, False, steps + (step,))

    return list(visit(start, True, ())) if slack(*start) >= 0 else []


def test_listings_follow_the_recursive_order():
    for model in ("lukasiewicz", "gmotzkin", "schroder", "negative"):
        for n in range(7):
            for r in range(4):
                for s in range(4):
                    assert ([p.steps for p in enumerate_paths(model, n, r, s)]
                            == _recursive_listing(model, n, r, s))


def _dyadic_vs(length=12):
    """A numeric sequence of nonzero dyadic entries: exact floats, so a
    product's bits depend only on the order of its factors."""
    rng = random.Random(5)
    table = []
    while len(table) < length:
        z = complex(rng.randrange(-48, 48), rng.randrange(-48, 48)) / 64
        if z:
            table.append(z)
    return VerblunskySequence.from_table(table, "numeric")


def _bits(w):
    w = complex(w)
    return struct.pack("<dd", w.real, w.imag)


_SMALL = [(model, n, r, s) for model in paths_module.MODELS
          for n in range(6) for r in range(3) for s in range(3)]


@pytest.mark.parametrize("make_vs", [
    generic_vs,
    lambda: verblunsky_of(FamilySpec("rogers_szego", Fraction(1, 3))),
    _dyadic_vs, lambda: numeric_vs(3)],
    ids=["generic", "rogers_szego", "dyadic", "float"])
def test_the_weighted_walk_is_the_listing_with_its_path_weights(make_vs):
    vs = make_vs()
    for model, n, r, s in _SMALL:
        pairs = list(weighted_paths(model, n, r, s, vs))
        assert [p for p, _ in pairs] == enumerate_paths(model, n, r, s)
        for p, w in pairs:
            want = path_weight(p, vs)
            assert w == want, (model, n, r, s, p)
            if vs.mode == "numeric":
                assert _bits(w) == _bits(want), (model, n, r, s, p)


def _counting_rules(monkeypatch):
    """Swap each model's step weight rule for one that records the step
    of every call; returns the Counter of (model, x, y, dx, dy)."""
    calls = collections.Counter()
    for model, (rule, weight) in list(paths_module._MODELS.items()):
        def counted(vs, *step, model=model, weight=weight):
            calls[(model,) + step] += 1
            return weight(vs, *step)
        monkeypatch.setitem(paths_module._MODELS, model, (rule, counted))
    return calls


def test_each_step_weight_is_formed_once_and_only_on_listed_paths(
        monkeypatch):
    calls = _counting_rules(monkeypatch)
    vs = generic_vs()
    for model, n, r, s in _SMALL:
        calls.clear()
        on_paths = set()
        for p, _ in weighted_paths(model, n, r, s, vs):
            on_paths |= {(model,) + pt + step
                         for pt, step in zip(p.points(), p.steps)}
        assert set(calls) == on_paths, (model, n, r, s)
        assert max(calls.values(), default=1) == 1, (model, n, r, s)
    # the parity rule has dead ends: the rise from (1, 3) to (2, 4) keeps
    # within the slack of gmotzkin (3, 1, 2), but no path runs on from
    # there, so its weight is never formed
    calls.clear()
    start, end, moves, slack = paths_module._MODELS["gmotzkin"][0](3, 1, 2)
    assert UP in moves(1, 3, False) and slack(2, 4) >= 0
    assert len(list(weighted_paths("gmotzkin", 3, 1, 2, vs))) == 6
    assert ("gmotzkin", 1, 3) + UP not in calls


def test_a_refused_listing_forms_no_weight(monkeypatch):
    calls = _counting_rules(monkeypatch)
    with pytest.raises(EnumerationCapExceeded):
        weighted_paths("lukasiewicz", 6, 0, 0, generic_vs(), cap=131)
    assert not calls
    assert len(list(weighted_paths("lukasiewicz", 6, 0, 0, generic_vs(),
                                   cap=132))) == 132
    assert calls


def test_a_path_longer_than_the_recursion_limit_is_listed():
    n = sys.getrecursionlimit() + 10
    (path,) = enumerate_paths("lukasiewicz", n, 0, n)
    assert path.steps == (UP,) * n
    (path,) = enumerate_paths("negative", n, n, 0)
    assert path.steps == ((-1, 1),) * n


def test_the_cap_is_enforced_before_any_path_is_built(monkeypatch):
    built = []
    monkeypatch.setattr(LatticePath, "__init__",
                        lambda self, *args: built.append(args))
    with pytest.raises(EnumerationCapExceeded,
                       match=r"^more than 1000000 lukasiewicz paths for "
                             r"\(n=16, r=0, s=0\)$"):
        enumerate_paths("lukasiewicz", 16, 0, 0)
    # paths longer than the recursion limit are refused as fast
    with pytest.raises(EnumerationCapExceeded):
        enumerate_paths("schroder", 2000, 3, 1)
    assert built == []


def test_an_unknown_model_is_a_value_error():
    with pytest.raises(ValueError, match="unknown path model 'nosuch'"):
        enumerate_paths("nosuch", 1, 0, 0)
    with pytest.raises(ValueError, match="unknown path model 'nosuch'"):
        path_weight(LatticePath("nosuch", (0, 0), (UP,)), generic_vs())


def test_listings_are_in_increasing_order_of_their_falls():
    # each listing is strictly increasing, so duplicate-free, in the
    # lexicographic order of its paths' sequences of -dy
    for model in ("lukasiewicz", "gmotzkin", "schroder", "negative"):
        for n in range(7):
            for r in range(5):
                for s in range(5):
                    keys = [tuple(-dy for _, dy in p.steps)
                            for p in enumerate_paths(model, n, r, s)]
                    assert all(a < b for a, b in zip(keys, keys[1:])), (
                        model, n, r, s)


def test_endpoints_per_model():
    for p in enumerate_paths("lukasiewicz", 2, 1, 0):
        assert p.start == (0, 1) and p.end == (2, 0)
    for p in enumerate_paths("gmotzkin", 2, 1, 0):
        assert p.start == (-1, 1) and p.end == (4, 0)
    for p in enumerate_paths("schroder", 2, 1, 0):
        assert p.start == (0, 1) and p.end == (2, 0)
    for p in enumerate_paths("negative", 2, 1, 0):
        assert p.start == (0, 0) and p.end == (-2, 1)


def test_schroder_paths_never_open_with_a_drop():
    for p in enumerate_paths("schroder", 3, 2, 0):
        assert p.steps[0] != VERTICAL


def test_gmotzkin_parity_rule():
    for p in enumerate_paths("gmotzkin", 3, 1, 1):
        x, y = p.start
        for dx, dy in p.steps:
            if dy == 1:
                assert (x + y) % 2 == 0
            elif dy == -1:
                assert (x + y) % 2 == 1
            x, y = x + dx, y + dy


def test_path_object_basics():
    p = LatticePath("lukasiewicz", (0, 1), (UP, LEVEL, (1, -2), VERTICAL))
    assert p.render() == "U H D2 V"
    assert p.points() == [(0, 1), (1, 2), (2, 2), (3, 0), (3, -1)]
    assert p.end == (3, -1)
    assert LatticePath("lukasiewicz", (0, 0), ()).render() == "(empty)"


# ---------------------------------------------------------------------------
# step weights


def test_empty_path_weight_is_one():
    vs = generic_vs()
    assert path_weight(LatticePath("lukasiewicz", (0, 2), ()), vs) == 1


def test_double_rise_double_fall_weight():
    # U U D2 from ground level: alpha_2 * rho_0 * rho_1 (boundary bar = -1)
    vs = generic_vs()
    p = LatticePath("lukasiewicz", (0, 0), (UP, UP, (1, -2)))
    assert path_weight(p, vs) == alpha(2) * vs.rho(0) * vs.rho(1)


def test_third_moment_as_a_five_path_sum():
    vs = generic_vs()
    total = vs.zero()
    for p in enumerate_paths("lukasiewicz", 3, 0, 0):
        total = total + path_weight(p, vs)
    rho0, rho1 = vs.rho(0), vs.rho(1)
    assert total == (alpha(0) ** 3 + 2 * alpha(0) * alpha(1) * rho0
                     - alpha(1) ** 2 * alpha_bar(0) * rho0
                     + alpha(2) * rho0 * rho1)


def test_drop_model_merge_identity():
    # weight(rise at b, drop) + weight(flat at b) = -alpha_b * conj(alpha_{b-1})
    vs = generic_vs()
    for b in range(3):
        rise_drop = path_weight(
            LatticePath("schroder", (0, b), (UP, VERTICAL)), vs)
        flat = path_weight(LatticePath("schroder", (0, b), (LEVEL,)), vs)
        assert rise_drop + flat == -alpha(b) * alpha_bar(b - 1)


def test_drop_model_weight_needs_nonzero_coefficients():
    from opuc.core import VerblunskySequence
    vs = VerblunskySequence.from_table([0, 0.5], "numeric")
    with pytest.raises(ZeroVerblunsky) as err:
        path_weight(LatticePath("schroder", (0, 0), (LEVEL,)), vs)
    assert err.value.index == 0


# ---------------------------------------------------------------------------
# DP evaluators against enumeration and each other


def _enumeration_total(model, vs, n, r, s):
    total = vs.zero()
    for p in enumerate_paths(model, n, r, s):
        total = total + path_weight(p, vs)
    return total


def test_dp_equals_enumeration_for_every_model():
    vs = generic_vs()
    evaluators = {
        "lukasiewicz": moment_lukasiewicz,
        "gmotzkin": moment_gmotzkin,
        "schroder": moment_schroder,
        "negative": moment_negative,
    }
    for model, dp in evaluators.items():
        for n in range(4):
            for r in range(3):
                for s in range(4):
                    assert dp(vs, n, r, s) == _enumeration_total(
                        model, vs, n, r, s), (model, n, r, s)


def test_zero_steps_normalization():
    vs = generic_vs()
    for r in range(4):
        for s in range(4):
            want = 1 if r == s else 0
            assert moment_lukasiewicz(vs, 0, r, s) == want
            assert moment_schroder(vs, 0, r, s) == want
            assert moment_negative(vs, 0, r, s) == want
    assert moment_gmotzkin(vs, 0, 2, 2) == 1


def test_third_moment_from_each_model():
    vs = generic_vs()
    expected = moment_oracle(vs, 3, 0, 0)
    assert moment_lukasiewicz(vs, 3, 0, 0) == expected
    assert moment_gmotzkin(vs, 3, 0, 0) == expected
    assert moment_schroder(vs, 3, 0, 0) == expected


def test_second_moment_display():
    vs = generic_vs()
    assert moment_gmotzkin(vs, 2, 0, 0) == alpha(0) ** 2 + alpha(1) * vs.rho(0)


def test_single_step_closed_form():
    # one step falling from r to s <= r: -alpha_r conj(alpha_{s-1}) prod rho
    vs = generic_vs()
    for r in range(4):
        for s in range(r + 1):
            want = -alpha(r) * alpha_bar(s - 1) * vs.rho_product(s, r)
            assert moment_lukasiewicz(vs, 1, r, s) == want


def test_symbolic_cross_model_small_grid():
    vs = generic_vs()
    for n in range(4):
        for r in range(3):
            for s in range(4):
                want = moment_oracle(vs, n, r, s)
                assert moment_lukasiewicz(vs, n, r, s) == want
                assert moment_gmotzkin(vs, n, r, s) == want
                assert moment_schroder(vs, n, r, s) == want


def test_numeric_cross_model_grid():
    vs = numeric_vs(11)
    for n in range(6):
        for r in range(4):
            for s in range(5):
                want = moment_oracle(vs, n, r, s)
                for got in (moment_lukasiewicz(vs, n, r, s),
                            moment_gmotzkin(vs, n, r, s),
                            moment_schroder(vs, n, r, s)):
                    assert values_close(got, want), (n, r, s)


def _gmotzkin_digest():
    # every float as its repr and every exact value as its str, so a
    # change in the last bit or in a term's form changes the digest
    digest = hashlib.sha256()
    cells = [(n, r, s) for n in range(61) for r in range(7) for s in range(9)]
    for seed, radius in ((1, 0.6), (2, 0.9), (3, 0.98)):
        vs = numeric_vs(seed, length=70, radius=radius)
        ascending = [repr(moment_gmotzkin(vs, *cell)) for cell in cells]
        shuffled = list(cells)
        random.Random(seed).shuffle(shuffled)
        vs = numeric_vs(seed, length=70, radius=radius)
        digest.update("\n".join(ascending + [
            repr(moment_gmotzkin(vs, *cell)) for cell in shuffled]).encode())
    exact = [verblunsky_of(FamilySpec(tag, Fraction(value)))
             for tag, value in (("circular_jacobi", "3/2"),
                                ("rogers_szego", "1/3"),
                                ("mass_point", "1/2"),
                                ("geronimus", "1/2"))]
    for vs in exact + [generic_vs()]:
        digest.update("\n".join(
            str(moment_gmotzkin(vs, n, r, s)) for n in range(6)
            for r in range(4) for s in range(6)).encode())
    return digest.hexdigest()


def test_gmotzkin_values_keep_their_bits():
    # the golden CLI file prints %.12g, which cannot see the last bit
    assert _gmotzkin_digest() == (
        "7977171f922ee989444b080b91b778edf9a6c25379fdbf9f733e1ff804fa2646")


def test_drop_model_rejects_zero_coefficient():
    from opuc.core import VerblunskySequence
    vs = VerblunskySequence.from_table([0, 0.5, 0.25], "numeric")
    with pytest.raises(ZeroVerblunsky) as err:
        moment_schroder(vs, 1, 0, 0)
    assert err.value.index == 0
    # the division-free models are unaffected
    assert values_close(moment_lukasiewicz(vs, 1, 0, 0),
                        moment_oracle(vs, 1, 0, 0))


def test_negative_index_examples():
    vs = generic_vs()
    assert moment_negative(vs, 1, 0, 0) == alpha_bar(0)
    assert moment_negative(vs, 2, 0, 0) == conjugate(moment_oracle(vs, 2, 0, 0))
    for n in range(4):
        assert moment_negative(vs, n, 0, 0) == moment_oracle(vs, -n, 0, 0)


def test_reciprocity_between_the_two_directions():
    # negative(n,r,s) * prod_{j<s} rho_j == conj(moment(n,s,r)) * prod_{j<r} rho_j
    vs = generic_vs()
    for n in range(4):
        for r in range(4):
            for s in range(4):
                lhs = moment_negative(vs, n, r, s) * vs.rho_product(0, s)
                rhs = (conjugate(moment_lukasiewicz(vs, n, s, r))
                       * vs.rho_product(0, r))
                assert lhs == rhs, (n, r, s)


def test_moment_symbols_stay_below_the_width_bound():
    vs = generic_vs()
    for n in range(5):
        for r in range(3):
            for s in range(n + r + 1):
                indices = moment_lukasiewicz(vs, n, r, s).symbol_indices()
                if indices:
                    assert max(indices) < n + r, (n, r, s)


def test_triangularity_in_the_last_index():
    vs = generic_vs()
    for n in range(6):
        assert moment_lukasiewicz(vs, n, 0, n) == 1
        for m in range(n + 1, n + 3):
            assert moment_lukasiewicz(vs, n, 0, m).is_zero


def test_dp_rejects_negative_indices():
    vs = generic_vs()
    for fn in (moment_lukasiewicz, moment_gmotzkin, moment_schroder,
               moment_negative):
        with pytest.raises(ValueError):
            fn(vs, -1, 0, 0)


def test_weight_sum_boundary_flags():
    vs = generic_vs()
    # default flags reproduce the standard drop-model moment
    assert schroder_weight_sum(vs, 2, 1, 0) == moment_schroder(vs, 2, 1, 0)
    # a path ending at s either already ends there or drops in from s+1:
    # full(s) = restricted(s) + weight(drop into s) * full(s+1)
    for n in range(1, 4):
        for s in range(4):
            full = schroder_weight_sum(vs, n, 1, s)
            pre = schroder_weight_sum(vs, n, 1, s,
                                      skip_terminal_vertical=True)
            drop = path_weight(
                LatticePath("schroder", (n, s + 1), (VERTICAL,)), vs)
            assert full == pre + drop * schroder_weight_sum(vs, n, 1, s + 1)


# ---------------------------------------------------------------------------
# correspondences


def test_rewrite_to_parity_model_preserves_weights():
    vs = generic_vs()
    for (n, r, s) in [(3, 0, 0), (2, 1, 0), (2, 1, 2), (4, 0, 0), (2, 2, 1)]:
        originals = enumerate_paths("lukasiewicz", n, r, s)
        images = [lukasiewicz_to_gmotzkin(p) for p in originals]
        for p, q in zip(originals, images):
            assert q.start == (-r, r) and q.end == (2 * n - s, s)
            assert path_weight(q, vs) == path_weight(p, vs)
            assert gmotzkin_to_lukasiewicz(q) == p
        # injective and onto the full parity-model path set
        assert len({q.steps for q in images}) == len(images)
        assert ({q.steps for q in images}
                == {q.steps for q in enumerate_paths("gmotzkin", n, r, s)})


def test_rewrite_of_the_empty_path():
    p = LatticePath("lukasiewicz", (0, 2), ())
    q = lukasiewicz_to_gmotzkin(p)
    assert q.start == (-2, 2) and q.steps == ()


def test_parity_rewrite_rejects_ill_formed_lists():
    with pytest.raises(ValueError):
        gmotzkin_to_lukasiewicz(LatticePath("gmotzkin", (0, 1), ((1, -1),)))
    with pytest.raises(ValueError):
        gmotzkin_to_lukasiewicz(LatticePath("gmotzkin", (0, 1), (LEVEL, (1, -1))))


def test_contract_drop_model_path():
    p = LatticePath("schroder", (0, 0), (UP, UP, VERTICAL, VERTICAL, LEVEL))
    q = contract_schroder(p)
    assert q.steps == (UP, (1, -1), LEVEL)
    with pytest.raises(ValueError):
        contract_schroder(LatticePath("schroder", (0, 1), (VERTICAL,)))


def test_grouping_refines_the_unit_width_model():
    vs = generic_vs()
    for (n, r, s) in [(0, 0, 0), (2, 0, 0), (3, 0, 0), (2, 1, 1), (2, 2, 0)]:
        groups = schroder_grouping(n, r, s)
        luka = {p.steps: p for p in enumerate_paths("lukasiewicz", n, r, s)}
        assert set(groups) == set(luka)
        total = 0
        for key, members in groups.items():
            group_sum = vs.zero()
            for member in members:
                group_sum = group_sum + path_weight(member, vs)
            assert group_sum == path_weight(luka[key], vs), (n, r, s, key)
            total += len(members)
        assert total == len(enumerate_paths("schroder", n, r, s))


def test_grouping_of_the_empty_instance():
    groups = schroder_grouping(0, 1, 1)
    assert list(groups) == [()]
    assert len(groups[()]) == 1


# ---------------------------------------------------------------------------
# positivity certificates


def test_certificate_for_the_first_moment():
    cert = positivity_certificate(generic_vs(), 1, 0, 0)
    assert cert == {(((0, "a"), 1),): 1}


def test_certificate_for_the_second_moment():
    cert = positivity_certificate(generic_vs(), 2, 0, 0)
    assert cert == {
        (((0, "a"), 2),): 1,
        (((1, "a"), 1),): 1,
        (((0, "a"), 1), ((0, "b"), 1), ((1, "a"), 1)): 1,
    }


def test_certificate_for_the_third_moment():
    cert = positivity_certificate(generic_vs(), 3, 0, 0)
    assert len(cert) == 9
    assert set(cert.values()) == {1, 2}


def test_certificate_requires_symbolic_mode():
    with pytest.raises(ValueError):
        positivity_certificate(numeric_vs(3), 1, 0, 0)


def test_certificate_violation_is_reported():
    # a sequence with a fixed rational entry produces negative rationals in
    # the doubled-alphabet expansion, which the certificate must reject
    from fractions import Fraction
    from opuc.core import VerblunskySequence
    vs = VerblunskySequence.from_table([Fraction(1, 2)] * 4, "symbolic")
    with pytest.raises(PositivityViolation):
        positivity_certificate(vs, 2, 0, 0)

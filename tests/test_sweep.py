"""The per-sequence tables: `VerblunskySequence.sweep`, and results that do
not depend on the order in which a sequence's tables were grown."""

import operator
from functools import partial

import pytest

from opuc.core import moments_from_phis, phi
from opuc.matrices import cmv_walk_entry, u_power_entry
from opuc.paths import (moment_gmotzkin, moment_lukasiewicz, moment_negative,
                        moment_schroder, schroder_weight_sum)

from .conftest import generic_vs, numeric_vs


def test_sweep_runs_its_step_once_per_new_entry():
    vs = generic_vs()
    calls = []

    def step(seq, table, scale):
        assert seq is vs
        calls.append(len(table))
        return scale * len(table)

    table = vs.sweep("k", 3, step, 10)
    assert table == [0, 10, 20, 30] and calls == [0, 1, 2, 3]
    assert vs.cache["k"] is table
    assert vs.sweep("k", 3, step, 10) is table
    assert vs.sweep("k", 0, step, 10) is table
    assert calls == [0, 1, 2, 3]
    assert vs.sweep("k", 5, step, 10) is table
    assert table == [0, 10, 20, 30, 40, 50]
    assert calls == [0, 1, 2, 3, 4, 5]


def _phi_pair(vs, n, r, s):
    pair = phi(vs, n)
    return pair.phi, pair.phi_star


def _moments(vs, n, r, s):
    return moments_from_phis(vs, n + r)


ROUTES = [moment_lukasiewicz, moment_gmotzkin, moment_schroder,
          moment_negative, u_power_entry, cmv_walk_entry, _phi_pair,
          _moments] + [
    partial(schroder_weight_sum, skip_initial_vertical=skip_initial,
            skip_terminal_vertical=skip_terminal)
    for skip_initial in (True, False) for skip_terminal in (True, False)]


@pytest.mark.parametrize("make, top", [(lambda: numeric_vs(11), 8),
                                       (generic_vs, 4)],
                         ids=["numeric", "generic"])
def test_cache_order_never_changes_a_result(make, top):
    # one long-lived sequence asked every cell, n up and then down, must
    # give exactly what a fresh sequence gives for the same call alone
    cells = [(n, r, s) for n in range(top + 1) for r in range(4)
             for s in range(4)]
    fresh = {(fn, cell): fn(make(), *cell) for fn in ROUTES for cell in cells}
    vs = make()
    for cell in cells + cells[::-1]:
        for fn in ROUTES:
            assert fn(vs, *cell) == fresh[fn, cell], (fn, cell)


def _count_coefficient_reads(vs):
    """Wrap the sequence's three accessors; returns the list of calls."""
    calls = []
    for name in ("alpha", "alpha_bar", "rho"):
        def counted(j, method=getattr(vs, name), name=name):
            calls.append((name, j))
            return method(j)
        setattr(vs, name, counted)
    return calls


def test_growing_the_gmotzkin_table_never_computes_a_cell_twice():
    # n ascending appends anti-diagonals: the table and its stored cells
    # stay, and the ascending run reads exactly the coefficients that one
    # fresh call at the top reads
    top = 12
    vs = numeric_vs(5)
    calls = _count_coefficient_reads(vs)
    kept = {}
    for n in range(top + 1):
        for r in range(4):
            for s in range(4):
                moment_gmotzkin(vs, n, r, s)
            table = vs.cache[("gm_diags", r)]
            if r in kept:
                before, cells = kept[r]
                assert table is before, (n, r)
                assert all(all(a is b for a, b in zip(diag, old))
                           for diag, old in zip(table, cells)), (n, r)
            kept[r] = table, [list(diag) for diag in table]
    fresh = numeric_vs(5)
    fresh_calls = _count_coefficient_reads(fresh)
    for r in range(4):
        for s in range(4):
            moment_gmotzkin(fresh, top, r, s)
        assert vs.cache[("gm_diags", r)] == fresh.cache[("gm_diags", r)], r
    assert sorted(calls) == sorted(fresh_calls)


def test_growing_the_u_walk_never_computes_a_row_twice():
    # n ascending appends rows of U^n: the table and its stored rows stay,
    # and the ascending run reads exactly the coefficients that one fresh
    # call at the top reads
    top = 12
    vs = numeric_vs(5)
    calls = _count_coefficient_reads(vs)
    kept = {}
    for n in range(top + 1):
        for r in range(4):
            for s in range(4):
                u_power_entry(vs, n, r, s)
            table = vs.cache[("u_walk", r)]
            if r in kept:
                before, rows = kept[r]
                assert table is before, (n, r)
                assert all(row is old and all(map(operator.is_, row, cells))
                           for row, (old, cells) in zip(table, rows)), (n, r)
            kept[r] = table, [(row, list(row)) for row in table]
    fresh = numeric_vs(5)
    fresh_calls = _count_coefficient_reads(fresh)
    for r in range(4):
        for s in range(4):
            u_power_entry(fresh, top, r, s)
        assert vs.cache[("u_walk", r)] == fresh.cache[("u_walk", r)], r
    assert sorted(calls) == sorted(fresh_calls)

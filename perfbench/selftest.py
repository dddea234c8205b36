"""Self-test of the benchmark: run it with ``python3 perfbench/selftest.py``
from the root of a checkout.

* The reference agrees with itself: the scaled-integer and the field
  implementation give the same exact moments, the paper's closed forms
  match the field reference, and the path counts give the Catalan numbers.
* A tiny size of every workload runs end to end, untraced and traced, with
  every output accepted and the traced self times adding up to the round.
* Every checker rejects a perturbed output: a numeric value pushed just
  past the 1e-9 tolerance (and accepts one just inside it), and a symbolic
  value with one coefficient changed.  A failing oracle row on F below the
  known fault's onset counts as a new fault.
"""

import copy
import json
import math
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from reference import (K, DyadicReference, Exact,  # noqa: E402
                       FieldReference, closed_nm, count_paths)

SEED = 7
failures = []


def expect(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


# ---------------------------------------------------------------------------
# the reference against itself


def test_reference():
    import random

    table = workloads.dyadic_alphas(random.Random(SEED), 12)
    dyadic = DyadicReference(table)
    field = FieldReference(lambda j: Exact(Fraction(table[j][0], 1 << K),
                                           Fraction(table[j][1], 1 << K)))
    same = all(dyadic.mu_exact(n, r, s) == field.mu(n, r, s)
               for n in range(-4, 5) for r in range(3) for s in range(3))
    expect(same, "scaled-integer and field references agree exactly")
    expect(all(field.mu(0, r, s) == (1 if r == s else 0)
               for r in range(4) for s in range(4)),
           "reference mu(0, r, s) is the Kronecker delta")
    for tag, value in workloads.FAMILIES:
        if value is None:
            value = (Fraction(3, 8), Fraction(-5, 16))
        ref = FieldReference(checks.family_alpha(tag, value))
        v = checks.family_value(value)
        expect(all(ref.mu(n, 0, m) == closed_nm(tag, v, n, m)
                   for n in range(7) for m in range(7)),
               "paper's closed form for %s matches the reference" % tag)
    expect([count_paths("lukasiewicz", n, 0, 0) for n in range(8)]
           == [math.comb(2 * n, n) // (n + 1) for n in range(8)],
           "Lukasiewicz path counts are the Catalan numbers")
    expect(all(count_paths("gmotzkin", n, r, s)
               == count_paths("lukasiewicz", n, r, s)
               for n in range(6) for r in range(3) for s in range(3)),
           "gentle Motzkin paths are equinumerous with Lukasiewicz paths")


# ---------------------------------------------------------------------------
# a tiny size of every workload, end to end


def test_end_to_end():
    for name in workloads.WORKLOADS:
        full = run.run(name, SEED, 1, 0, size="tiny")
        expect(not full["unexpected_problems"] and full["failed"] == 0
               and full["attempted"] >= full["requests_per_round"],
               "%s runs end to end and every output checks" % name)
        expect(sorted(full["metrics"]) == sorted(
            ["setup_s", "run_s", "latency_p50_ms", "latency_p90_ms",
             "peak_rss_mb"]) and all(m["value"] > 0
                                     for m in full["metrics"].values()),
               "%s reports every end-to-end metric, none zero" % name)
        traced = run.run(name, SEED, 1, 1, size="tiny")
        m = traced["metrics"]
        total = m["bench.self_s"]["value"] + sum(
            m[k + ".self_s"]["value"] for k in spans.LAYER_KEYS)
        expect(not traced["unexpected_problems"]
               and abs(total - m["trace.wall_s"]["value"]) < 1e-6,
               "%s traced: self times add up to the round's wall time"
               % name)


# ---------------------------------------------------------------------------
# perturbed outputs


def render(terms):
    """Write parsed terms back in the program's syntax."""
    parts = []
    for re_c, im_c, monomial, t_exp in terms:
        coef = str(re_c) if not im_c else "(%s%+si)" % (re_c, im_c)
        coef = coef.replace("+-", "-")
        factors = ["%s%d^%d" % ("ab" if barred else "a", index, e)
                   for index, barred, e in monomial]
        factors += ["t^%d" % t_exp] if t_exp else []
        parts.append("*".join([coef] + factors))
    return " + ".join(parts) if parts else "0"


def bump(text, amount=1):
    """A symbolic rendering with its first coefficient changed."""
    terms = checks.parse_scalar(text) or [(Fraction(0), Fraction(0), (), 0)]
    re_c, im_c, monomial, t_exp = terms[0]
    terms[0] = (re_c + amount, im_c, monomial, t_exp)
    return render(terms)


def tiny_outputs(name):
    inputs, meta, _ = workloads.build(name, SEED, "tiny")
    report = run.run_client(name, inputs, 0.01, 0)
    return meta, report["outputs"]


def rejects(name, meta, outputs, index):
    problems, _ = checks.CHECKERS[name](meta, outputs)
    return bool(problems[index])


def test_numeric_perturbation():
    name = "numeric-requests"
    meta, outputs = tiny_outputs(name)
    i = next(k for k, req in enumerate(meta["requests"]) if req["n"] > 0)
    req = meta["requests"][i]
    want = DyadicReference(req["alphas"]).mu(req["n"], req["r"], req["s"])
    for factor, should_fail in ((1.2, True), (0.5, False)):
        out = copy.deepcopy(outputs)
        code, text, err = out[i]
        doc = json.loads(text)
        v = want + factor * checks.TOL * (1 + abs(want))
        doc["results"][0]["value"] = repr(v)
        out[i] = [code, json.dumps(doc), err]
        expect(rejects(name, meta, out, i) == should_fail,
               "%s: value at %.1f x tolerance is %s"
               % (name, factor, "rejected" if should_fail else "accepted"))

    name = "numeric-table"
    meta, outputs = tiny_outputs(name)
    i = next(k for k, row in enumerate(meta["rows"]) if row[2] > 0)
    seq, route, n = meta["rows"][i]
    sign = -1 if route in checks.NEGATIVE_ROUTES else 1
    want = DyadicReference(meta["seqs"][seq]).mu(sign * n, 0, 0)
    for factor, should_fail in ((1.2, True), (0.5, False)):
        out = copy.deepcopy(outputs)
        v = want + factor * checks.TOL * (1 + abs(want))
        out[i][0] = [v.real, v.imag]
        expect(rejects(name, meta, out, i) == should_fail,
               "%s: cell at %.1f x tolerance is %s"
               % (name, factor, "rejected" if should_fail else "accepted"))

    # an oracle row on F below the known fault's onset is not excused
    i = next(k for k, row in enumerate(meta["rows"])
             if row[0] == "F" and row[1] == "oracle" and row[2] > 0)
    out = copy.deepcopy(outputs)
    out[i][0] = [out[i][0][0] * (1 + 1e-6), out[i][0][1]]
    _, failed, unexpected, _, _ = run.judge(
        name, meta, {"outputs": out, "rounds": 1, "mismatches": []})
    expect(failed == 1 and len(unexpected) == 1,
           "%s: a failing oracle row on F below n = %d is a new fault"
           % (name, checks.KNOWN_FAULT_FROM_N))


def test_symbolic_perturbation():
    name = "symbolic-generic"
    meta, outputs = tiny_outputs(name)
    for cmd in ("moment", "paths"):
        i = next(k for k, req in enumerate(meta["requests"])
                 if req["cmd"] == cmd and req["n"] >= 2)
        for change, should_fail in ((0, False), (1, True)):
            out = copy.deepcopy(outputs)
            code, text, err = out[i]
            doc = json.loads(text)
            rec = doc["results"][-1]  # the value, or the listing's total
            key = "value" if cmd == "moment" else "weight"
            rec[key] = bump(rec[key], change)
            out[i] = [code, json.dumps(doc), err]
            expect(rejects(name, meta, out, i) == should_fail,
                   "%s %s: %s" % (name, cmd, "one coefficient changed is "
                                  "rejected" if should_fail else
                                  "re-rendered value is accepted"))

    name = "exact-families"
    meta, outputs = tiny_outputs(name)
    for kind in ("moment", "closed", "lin", "det"):
        i = next(k for k, req in enumerate(meta["requests"])
                 if req[1] == kind and req[0] == "rogers_szego")
        for change, should_fail in ((0, False), (Fraction(1, 10 ** 9), True)):
            out = copy.deepcopy(outputs)
            if isinstance(out[i], list):
                out[i][-1] = bump(out[i][-1], change)
            else:
                out[i] = bump(out[i], change)
            expect(rejects(name, meta, out, i) == should_fail,
                   "%s %s: %s" % (name, kind, "one coefficient changed is "
                                  "rejected" if should_fail else
                                  "re-rendered value is accepted"))


def main():
    test_reference()
    test_numeric_perturbation()
    test_symbolic_perturbation()
    test_end_to_end()
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Checks of the program's outputs against the exact reference.

Nothing here imports ``opuc``.  Each ``check_<workload>`` takes the
workload's ``meta`` and round one's outputs and returns, per request, the
list of problems found (empty when the output is right), together with
the number of terms in the symbolic values the program returned.

Numeric values must lie within the program's documented tolerance,
|value - ref| <= 1e-9 * (1 + |ref|).  Symbolic values are parsed from
their rendering and must equal the reference exactly: generic-symbol
results are evaluated at a seeded dyadic point, family results are
constants of Q(i)(t).
"""

import json
import re
from fractions import Fraction

from reference import (K, ONE, ZERO, DyadicReference, Exact, FieldReference,
                       closed_nm, count_paths)

TOL = 1e-9
CROSS_METHODS = ("lukasiewicz", "gmotzkin", "schroder", "matrix_u",
                 "matrix_cmv", "oracle")
NEGATIVE_ROUTES = ("negative", "oracle_neg", "moment_negative")


def close(value, ref):
    return abs(value - ref) <= TOL * (1 + abs(ref))


def delta(r, s):
    return 1 if r == s else 0


# ---------------------------------------------------------------------------
# rendered symbolic values


_SYMBOL = re.compile(r"(ab|a)(\d+)(?:\^(-?\d+))?$")
_T = re.compile(r"t(?:\^(-?\d+))?$")


def _imag(text):
    body = text[:-1]
    if body in ("", "+"):
        return Fraction(1)
    if body == "-":
        return Fraction(-1)
    return Fraction(body)


def _coefficient(tok):
    if tok.startswith("(") and tok.endswith(")"):
        body = tok[1:-1]
        cut = max(body.rfind("+"), body.rfind("-"))
        if cut <= 0:
            raise ValueError("cannot read coefficient %r" % tok)
        return Fraction(body[:cut]), _imag(body[cut:])
    if tok.endswith("i"):
        return Fraction(0), _imag(tok)
    return Fraction(tok), Fraction(0)


def _factor(tok):
    m = _SYMBOL.match(tok)
    if m:
        return ("sym", int(m.group(2)), m.group(1) == "ab",
                int(m.group(3) or 1))
    m = _T.match(tok)
    if m:
        return ("t", int(m.group(1) or 1))
    return None


def parse_scalar(text):
    """Terms (re, im, ((index, barred, exp), ...), t_exp) of a rendering."""
    if text == "0":
        return []
    tokens = text.split(" ")
    if len(tokens) % 2 == 0:
        raise ValueError("cannot read %r" % text[:80])
    terms = []
    for i in range(0, len(tokens), 2):
        sign = 1 if i == 0 or tokens[i - 1] == "+" else -1
        if i and tokens[i - 1] not in "+-":
            raise ValueError("cannot read %r" % text[:80])
        factors = tokens[i].split("*")
        head = factors[0]
        if head.startswith("-") and _factor(head[1:]) is not None:
            re_c, im_c = Fraction(-1), Fraction(0)
            factors[0] = head[1:]
        elif _factor(head) is None:
            re_c, im_c = _coefficient(head)
            factors = factors[1:]
        else:
            re_c, im_c = Fraction(1), Fraction(0)
        monomial, t_exp = [], 0
        for tok in factors:
            f = _factor(tok)
            if f is None:
                raise ValueError("cannot read factor %r" % tok)
            if f[0] == "t":
                t_exp += f[1]
            else:
                monomial.append(f[1:])
        terms.append((sign * re_c, sign * im_c, tuple(monomial), t_exp))
    return terms


def evaluate(terms, point, tsq=None):
    """Exact value of parsed terms at alpha_j = point[j] (numerators over
    2**K); ab_j takes the conjugate.  Integer-coefficient monomials with
    nonnegative exponents, the bulk of every answer, stay in integers."""
    powers = {}

    def power(index, barred, e):
        key = (index, barred, e)
        p = powers.get(key)
        if p is None:
            a, b = point[index]
            if barred:
                b = -b
            pr, pi = 1, 0
            for _ in range(e):
                pr, pi = pr * a - pi * b, pr * b + pi * a
            p = powers[key] = (pr, pi)
        return p

    buckets = {}
    slow = ZERO
    for re_c, im_c, monomial, t_exp in terms:
        if (t_exp or re_c.denominator != 1 or im_c.denominator != 1
                or any(e < 0 for _, _, e in monomial)):
            v = Exact(re_c, im_c)
            for index, barred, e in monomial:
                a, b = point[index]
                x = Exact(Fraction(a, 1 << K), Fraction(b, 1 << K))
                v = v * (x.conj() if barred else x) ** e
            if t_exp:
                v = v * Exact.t(tsq) ** t_exp
            slow = slow + v
            continue
        xr, xi = re_c.numerator, im_c.numerator
        deg = 0
        for index, barred, e in monomial:
            pr, pi = power(index, barred, e)
            xr, xi = xr * pr - xi * pi, xr * pi + xi * pr
            deg += e
        acc = buckets.setdefault(deg, [0, 0])
        acc[0] += xr
        acc[1] += xi
    for deg, (xr, xi) in buckets.items():
        slow = slow + Exact(Fraction(xr, 1 << (K * deg)),
                            Fraction(xi, 1 << (K * deg)))
    return slow


def beta_positive(terms):
    """With ab_j = -b_j every coefficient is a nonnegative integer."""
    for re_c, im_c, monomial, t_exp in terms:
        if t_exp or im_c or re_c.denominator != 1:
            return False
        if any(e < 0 for _, _, e in monomial):
            return False
        bars = sum(e for _, barred, e in monomial if barred)
        if (re_c if bars % 2 == 0 else -re_c) < 0:
            return False
    return True


def parse_complex(text):
    return complex(text.replace("i", "j"))


def _each(requests, outputs, check_one):
    """Problems per request, and the symbolic terms seen.

    check_one(request, output) returns (problems, terms); an output it
    cannot read is a problem of that request, not a crash of the run.
    """
    problems, terms = [], 0
    for req, data in zip(requests, outputs):
        if isinstance(data, dict):
            problems.append(["request raised %s" % data["error"]])
            continue
        try:
            found, n_terms = check_one(req, data)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            found, n_terms = ["unreadable output: %s: %s"
                              % (type(exc).__name__, exc)], 0
        problems.append(found)
        terms += n_terms
    return problems, terms


def _report(data):
    """The CLI's JSON report of a request; raises ValueError on failure."""
    code, text, err = data
    if code != 0:
        raise ValueError("exit code %s: %s" % (code, err.strip()[:200]))
    return json.loads(text)


# ---------------------------------------------------------------------------
# numeric-requests


def check_numeric_requests(meta, outputs):
    def one(req, data):
        doc = _report(data)
        n, r, s = req["n"], req["r"], req["s"]
        want = DyadicReference(req["alphas"]).mu(n, r, s)
        found = []
        by_method = {rec["method"]: rec["value"] for rec in doc["results"]}
        if sorted(by_method) != sorted(CROSS_METHODS):
            found.append("routes %s" % sorted(by_method))
        for method, text in sorted(by_method.items()):
            v = parse_complex(text)
            if not close(v, want):
                found.append("%s = %s, reference %r" % (method, text, want))
            if n == 0 and not close(v, delta(r, s)):
                found.append("mu(0,%d,%d) = %s" % (r, s, text))
        status = [c["status"] for c in doc["checks"]]
        if status != ["pass"]:
            found.append("agreement check %s" % status)
        return found, 0

    return _each(meta["requests"], outputs, one)


# ---------------------------------------------------------------------------
# numeric-table


def check_numeric_table(meta, outputs):
    refs = {k: DyadicReference(v) for k, v in meta["seqs"].items()}
    cells = [(r, s) for r in range(4) for s in range(4)]
    values = {}

    def one(row, data):
        seq, route, n = row
        sign = -1 if route in NEGATIVE_ROUTES else 1
        found = []
        got = values[tuple(row)] = [complex(a, b) for a, b in data]
        for (r, s), v in zip(cells, got):
            want = refs[seq].mu(sign * n, r, s)
            if not close(v, want):
                found.append("mu(%d,%d,%d) = %r, reference %r"
                             % (sign * n, r, s, v, want))
            if n == 0 and not close(v, delta(r, s)):
                found.append("mu(0,%d,%d) = %r" % (r, s, v))
        return found, 0

    problems, _ = _each(meta["rows"], outputs, one)
    # reciprocity: mu(-n,r,s) rho(0,s) = conj(mu(n,s,r)) rho(0,r)
    for i, (seq, route, n) in enumerate(meta["rows"]):
        pos = values.get((seq, "lukasiewicz", n))
        neg = values.get((seq, route, n))
        if route != "negative" or neg is None or pos is None:
            continue
        ref = refs[seq]
        for r, s in cells:
            lhs = neg[4 * r + s] * ref.rho_product(s)
            rhs = pos[4 * s + r].conjugate() * ref.rho_product(r)
            if not close(lhs, rhs):
                problems[i].append("reciprocity at (%d,%d,%d)" % (n, r, s))
    return problems, 0


# ---------------------------------------------------------------------------
# symbolic-generic


_PATH_STEP = {"U": 1, "H": 0, "V": -1}


def _valid_path(model, steps, n, r, s):
    """Does a rendered step list describe a path of the model?"""
    moves = [] if steps == "(empty)" else steps.split(" ")
    if model in ("lukasiewicz", "negative"):
        y, end = (r, s) if model == "lukasiewicz" else (s, r)
        if len(moves) != n:
            return False
        for mv in moves:
            if mv not in ("U", "H") and not re.match(r"D\d+$", mv):
                return False
            y += _PATH_STEP[mv] if mv in _PATH_STEP else -int(mv[1:])
            if y < 0:
                return False
        return y == end
    if model == "gmotzkin":
        x, y = -r, r
        for mv in moves:
            even = (x + y) % 2 == 0
            if mv == "U" and even:
                y += 1
            elif mv == "D1" and not even and y > 0:
                y -= 1
            elif mv != "H":
                return False
            x += 1
        return (x, y) == (2 * n - s, s)
    if model == "schroder":
        x, y = 0, r
        for i, mv in enumerate(moves):
            if mv == "V":
                if i == 0 or y == 0:
                    return False
                y -= 1
            elif mv in ("U", "H"):
                x += 1
                y += _PATH_STEP[mv]
            else:
                return False
        return (x, y) == (n, s)
    return False


def check_symbolic_generic(meta, outputs):
    point = meta["point"]
    ref = FieldReference(lambda j: Exact(Fraction(point[j][0], 1 << K),
                                         Fraction(point[j][1], 1 << K)))

    def one(req, data):
        doc = _report(data)
        n, r, s, route = req["n"], req["r"], req["s"], req["route"]
        found, seen = [], 0
        if req["cmd"] == "moment":
            (rec,) = doc["results"]
            terms = parse_scalar(rec["value"])
            seen += len(terms)
            if evaluate(terms, point) != ref.mu(n, r, s):
                found.append("value differs from the reference")
            if not beta_positive(terms):
                found.append("not beta-positive")
            if n == 0 and rec["value"] != str(delta(r, s)):
                found.append("mu(0,%d,%d) = %s" % (r, s, rec["value"]))
            return found, seen
        rows = [x for x in doc["results"] if x["kind"] == "path"]
        (total,) = [x for x in doc["results"] if x["kind"] == "total"]
        want_count = count_paths(route, n, r, s)
        if total["count"] != want_count or len(rows) != want_count:
            found.append("%d paths listed, %d exist"
                         % (total["count"], want_count))
        if len({x["steps"] for x in rows}) != len(rows):
            found.append("a path is listed twice")
        acc = ZERO
        for x in rows:
            if not _valid_path(route, x["steps"], n, r, s):
                found.append("not a %s path: %s" % (route, x["steps"]))
            terms = parse_scalar(x["weight"])
            seen += len(terms)
            acc = acc + evaluate(terms, point)
        terms = parse_scalar(total["weight"])
        seen += len(terms)
        value = evaluate(terms, point)
        if value != ref.mu(-n if route == "negative" else n, r, s):
            found.append("total differs from the reference")
        if acc != value:
            found.append("weights do not add up to the total")
        return found, seen

    return _each(meta["requests"], outputs, one)


# ---------------------------------------------------------------------------
# exact-families


def family_alpha(tag, value):
    """alpha_j of the paper's exact families, as exact numbers."""
    if tag == "circular_jacobi":
        return lambda j: Exact(-value / (j + value + 1))
    if tag == "mass_point":
        return lambda j: Exact(value / (1 + j * value))
    if tag == "rogers_szego":
        t = Exact.t(value)
        return lambda j: t ** (j + 1) if j % 2 == 0 else -(t ** (j + 1))
    if tag == "bernstein_szego":
        zeta = family_value(value)
        return lambda j: zeta if j == 0 else ZERO
    raise ValueError(tag)


def family_value(value):
    """A family parameter as an exact number (zeta comes as a pair)."""
    return Exact(*value) if isinstance(value, tuple) else value


def _poly_add(acc, poly, c):
    acc = list(acc) + [ZERO] * (len(poly) - len(acc))
    for i, p in enumerate(poly):
        acc[i] = acc[i] + c * p
    return acc


def _reconstructs(ref, name, n, r, coeffs):
    """sum_s conj(c_s) basis_s == z^n target_r, with the reference's phi."""
    target_star = name.startswith("star_to")
    basis_star = "_to_star" in name
    target = [ZERO] * n + (ref.phistar(r) if target_star else ref.phi(r))
    acc = [ZERO] * len(target)
    for s, c in enumerate(coeffs):
        base = ref.phistar(s) if basis_star else ref.phi(s)
        acc = _poly_add(acc, base, c.conj())
    while len(acc) > len(target) and acc[-1] == ZERO:
        acc.pop()
    return acc == target


def check_exact_families(meta, outputs):
    params = meta["params"]
    refs = {tag: FieldReference(family_alpha(tag, params[tag]))
            for tag in params}

    def one(req, data):
        tag, kind, name, n, r, s = req
        ref = refs[tag]
        tsq = params[tag] if tag == "rogers_szego" else None
        texts = data if isinstance(data, list) else [data]
        terms = [parse_scalar(text) for text in texts]
        values = [evaluate(t, {}, tsq) for t in terms]
        found = []
        if kind in ("moment", "closed"):
            (v,) = values
            sign = -1 if name in NEGATIVE_ROUTES else 1
            if v != ref.mu(sign * n, r, s):
                found.append("value differs from the reference")
            if n == 0 and v != delta(r, s):
                found.append("mu(0,%d,%d) = %s" % (r, s, texts[0]))
            if kind == "closed" and r == 0 and v != closed_nm(
                    tag, family_value(params[tag]), n, s):
                found.append("differs from the paper's closed form")
        elif kind == "det":
            (v,) = values
            want = ONE
            for k in range(n):
                want = want * ref.rho(k) ** (n - k)
            if v != want:
                found.append("det T_%d differs from prod rho_k^(n-k)" % n)
        elif not _reconstructs(ref, name, n, r, values):
            found.append("coefficients do not rebuild z^n target")
        return found, sum(len(t) for t in terms)

    return _each(meta["requests"], outputs, one)


CHECKERS = {
    "numeric-requests": check_numeric_requests,
    "numeric-table": check_numeric_table,
    "symbolic-generic": check_symbolic_generic,
    "exact-families": check_exact_families,
}


# the oracle rows on F first miss the tolerance at n = 79 (oracle_neg)
# and n = 82 (oracle); below this a failing row is a new fault
KNOWN_FAULT_FROM_N = 75


def known_fault(workload, request):
    """The numeric-table oracle rows on the fixed sequence F from
    KNOWN_FAULT_FROM_N on: the float triangular solve in
    core.moments_from_phis misses the tolerance there."""
    return (workload == "numeric-table" and request[0] == "F"
            and request[1] in ("oracle", "oracle_neg")
            and request[2] >= KNOWN_FAULT_FROM_N)

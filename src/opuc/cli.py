"""Command-line surface: compute moments, list paths, inspect families,
and run the cross-validation suites.

Exit codes: 0 success, 1 bad input or failed check, 2 a required
Verblunsky coefficient is zero, 3 enumeration cap exceeded.
"""

import argparse
import csv
import functools
import io
import itertools
import json
import random
import sys
import time
from fractions import Fraction

from .algebra import (GaussianRational, NUMERIC, SYMBOLIC, beta_form,
                      conjugate, exact_sum, is_polynomial, render_batch,
                      values_close)
from .core import VerblunskySequence, moment_oracle, phi
from .errors import (EnumerationCapExceeded, PositivityViolation,
                     UnsupportedFamily, ZeroVerblunsky)
from .families import (FAMILY_PARAMS, FamilySpec, closed_moment_nm,
                       closed_moment_nrs, verblunsky_of)
from .linearization import (expand_moment_basis, phi_to_star_coeff,
                            phi_to_star_coeff_paths, reconstruct,
                            star_basis_change, star_overlap_matrix,
                            star_pairing_oracle, star_to_phi_coeff,
                            star_to_phi_coeff_negative,
                            star_to_phi_coeff_paths, star_to_star_coeff,
                            star_to_star_coeff_paths)
from .matrices import (ScalarMatrix, cmv_walk_entry, det_identity_check,
                       rho_power_product, toeplitz_det, u_power_entry)
from .paths import (DEFAULT_CAP, MODELS, moment_gmotzkin, moment_lukasiewicz,
                    moment_negative, moment_schroder, positivity_certificate,
                    weighted_paths)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ZERO_ALPHA = 2
EXIT_CAP = 3

# cost guard for `moment` on the generic symbols: a moment's term count
# grows about threefold per unit of n + max(r, s), and the oracle costs
# most.  At n + max(r, s) = 10 every route answers within about 5 s of
# CPU on a 2-vCPU machine (Python 3.11; the oracle at r = s = 10, 4.7-5.3
# s and 119 MB); one more step takes the oracle to 23 s and 403 MB
GENERIC_MOMENT_LIMIT = 10

# cost guard for `paths` on the generic symbols, in paths listed: a
# listing costs 0.04-0.4 ms of CPU per path on the same machine, so 10**4
# paths take at most about 4 s.  The dearest per path measured: schroder
# at (5, 5, 1), 8804 paths, 2.0-2.8 s and 227 MB as text, 2.1-3.3 s and
# 265 MB as JSON; lukasiewicz at (7, 11, 8) as JSON, 8008 paths, 2.8-3.0 s
# and 223 MB.  Lukasiewicz at n = 10 (16796 paths) would take 1.4 s
GENERIC_PATH_LIMIT = 10 ** 4


class CliError(Exception):
    """Invalid input or unsupported request; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which this interface
    # reserves for zero Verblunsky coefficients
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(EXIT_FAIL)


# ---------------------------------------------------------------------------
# literals and sequence construction


def _number_token(tok):
    """One signed part of a literal -> (Fraction | float, saw_decimal)."""
    if any(c in tok for c in ".eE"):
        return float(tok), True
    return Fraction(tok), False


def parse_complex_literal(text):
    """Parse ``a+bi`` with rational or decimal parts.

    Accepts plain reals (``1/2``, ``-0.3``), pure imaginaries (``2/5i``,
    ``-i``) and sums of both.  Returns (re, im, saw_decimal) with the
    parts kept exact (Fraction) unless written with a decimal point.
    """
    t = text.strip().replace(" ", "")
    if not t:
        raise CliError("empty literal")
    parts, start = [], 0
    for k in range(1, len(t)):
        if t[k] in "+-" and t[k - 1] not in "+-/.eE":
            parts.append(t[start:k])
            start = k
    parts.append(t[start:])
    if len(parts) > 2:
        raise CliError("cannot parse %r as a+bi" % text)
    re_val, im_val, dec = Fraction(0), Fraction(0), False
    seen = set()
    for part in parts:
        try:
            if part.endswith("i"):
                if "im" in seen:
                    raise CliError("two imaginary parts in %r" % text)
                seen.add("im")
                body = part[:-1]
                if body in ("", "+"):
                    im_val = Fraction(1)
                elif body == "-":
                    im_val = Fraction(-1)
                else:
                    im_val, d = _number_token(body)
                    dec = dec or d
            else:
                if "re" in seen:
                    raise CliError("two real parts in %r" % text)
                seen.add("re")
                re_val, d = _number_token(part)
                dec = dec or d
        except (ValueError, ZeroDivisionError):
            raise CliError("cannot parse %r as a+bi" % text)
    return re_val, im_val, dec


def _literal_scalars(texts, mode):
    """(mode, scalars) of literals, each parsed once.

    A given mode wins; otherwise a decimal literal picks numeric and
    exact ones symbolic.  Decimals need numeric mode.
    """
    parsed = []
    for text in texts:
        re_val, im_val, dec = parse_complex_literal(text)
        if dec and mode == SYMBOLIC:
            raise CliError("decimal literal %r requires numeric mode" % text)
        parsed.append((re_val, im_val, dec))
    mode = mode or (NUMERIC if any(dec for *_, dec in parsed) else SYMBOLIC)
    if mode == SYMBOLIC:
        return mode, [GaussianRational(re_val, im_val) if im_val else re_val
                      for re_val, im_val, _ in parsed]
    return mode, [complex(float(re_val), float(im_val)) if im_val
                  else float(re_val) for re_val, im_val, _ in parsed]


def literal_value(text, mode):
    """Literal -> scalar in `mode`, which None leaves to the literal."""
    return _literal_scalars([text], mode)[1][0]


def random_alpha_table(rng, length):
    """Deterministic table of complex entries with modulus <= 0.9."""
    out = []
    while len(out) < length:
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if abs(z) <= 0.9:
            out.append(z)
    return out


def _family_spec(name, param, mode):
    """FamilySpec of a family name and its KEY=VALUE parameter.

    The value is read in `mode`, or, when that is None, exactly unless
    it is written with a decimal point.
    """
    tag = name.replace("-", "_")
    if tag not in FAMILY_PARAMS:
        raise CliError("unknown family %r; known: %s"
                       % (name, ", ".join(sorted(FAMILY_PARAMS))))
    if param is None:
        raise CliError("--family needs --param %s=VALUE"
                       % FAMILY_PARAMS[tag])
    key, _, valtext = param.partition("=")
    if key != FAMILY_PARAMS[tag]:
        raise CliError("family %s takes parameter %r, got %r"
                       % (tag, FAMILY_PARAMS[tag], key))
    try:
        return FamilySpec(tag, literal_value(valtext, mode))
    except ValueError as exc:
        raise CliError(str(exc))


def _build_sequence(args):
    """(vs, spec, mode) from --family/--param or --alphas flags.

    An explicit --mode wins; otherwise exact inputs pick symbolic.
    """
    spec = None
    if args.family is not None:
        spec = _family_spec(args.family, args.param, args.mode)
    literals = []
    if args.alphas is not None:
        if spec is not None:
            raise CliError("--family and --alphas are mutually exclusive")
        literals = [t for t in args.alphas.split(",") if t.strip()]
        if not literals:
            raise CliError("--alphas is empty")
    if spec is not None:
        vs = verblunsky_of(spec, args.mode)
        return vs, spec, vs.mode
    mode, table = _literal_scalars(literals, args.mode)
    if literals:
        return VerblunskySequence.from_table(table, mode), None, mode
    if mode == NUMERIC:
        raise CliError("numeric mode needs --alphas or --family")
    return VerblunskySequence.generic(), None, mode


# ---------------------------------------------------------------------------
# rendering and emission


def _render(value):
    if isinstance(value, complex):
        if value.imag == 0:
            return "%.12g" % value.real
        return "%.12g%+.12gi" % (value.real, value.imag)
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)  # an exact value


# the CSV columns of `moment` and `paths`
_VALUE_HEADER = ("n", "r", "s", "method", "value", "elapsed_ms")


_NESTED = (dict, list, tuple)


def _json_text(value, pad=""):
    """json.dumps(value, indent=2, sort_keys=True), nested at `pad`, for
    a value whose objects have string keys.

    With indent set, json skips its C encoder.  So an object holding no
    container is C-encoded with the newline and padding of the indented
    form as its item separator, and a list of such objects, a listing's
    records, in one call whose record boundaries are then re-padded.
    """
    if not isinstance(value, _NESTED) or not value:
        return json.dumps(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if any(isinstance(v, _NESTED) for v in value.values()):
            body = sep.join("%s: %s" % (json.dumps(k),
                                        _json_text(value[k], inner))
                            for k in sorted(value))
        else:
            body = _encoder(sep).encode(value)[1:-1]
        return "{\n%s%s\n%s}" % (inner, body, pad)
    if all(type(v) is dict and v for v in value) and not any(
            isinstance(x, _NESTED) for v in value for x in v.values()):
        # no scalar's text ends in "}" and no text holds a raw newline,
        # so "},\n{" marks exactly the boundaries between records
        deep = inner + "  "
        body = _encoder(",\n").encode(value)[2:-2].replace(
            ",\n", ",\n" + deep).replace(
            "},\n%s{" % deep, "\n%s},\n%s{\n%s" % (inner, inner, deep))
        return "[\n%s{\n%s%s\n%s}\n%s]" % (inner, deep, body, inner, pad)
    return "[\n%s%s\n%s]" % (inner, sep.join(_json_text(v, inner)
                                             for v in value), pad)


@functools.lru_cache(maxsize=None)
def _encoder(sep):
    # one C encoder per depth of a report: json.dumps builds a new encoder
    # on every call that passes separators
    return json.JSONEncoder(sort_keys=True, separators=(sep, ": "))


def _write(args, mode, results, checks, lines, table=(), extra=()):
    """Write one command's report in the format --format names.

    JSON holds the schema version, the flags given (with `mode` and the
    pairs of `extra`), `results` and `checks`; CSV holds the rows of
    `table`, header first; text is `lines`.  The report goes to --out
    when given, else to standard output.
    """
    if args.format == "json":
        echo = {"subcommand": args.cmd, "mode": mode}
        for key in ("family", "param", "alphas", "n", "r", "s", "method",
                    "model", "suite", "max", "seed", "cap", "format"):
            val = getattr(args, key, None)
            if val is not None:
                echo[key] = val
        echo.update(extra)
        doc = {"schema_version": SCHEMA_VERSION, "config_echo": echo,
               "results": results, "checks": checks}
        text_out = _json_text(doc) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(table)
        text_out = buf.getvalue()
    else:
        text_out = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text_out)
    else:
        sys.stdout.write(text_out)


# ---------------------------------------------------------------------------
# moment


def _routes():
    """Route name -> evaluator (vs, n, r, s) of mu(n, r, s), in report order.

    Built from this module's names on each call, so that rebinding one of
    them (a tracer, a test double) reaches every use of the route.
    """
    return {"lukasiewicz": moment_lukasiewicz, "gmotzkin": moment_gmotzkin,
            "schroder": moment_schroder, "matrix_u": u_power_entry,
            "matrix_cmv": cmv_walk_entry, "oracle": moment_oracle}


def _closed_value(spec, mode, n, r, s):
    if spec is None:
        raise CliError("--method closed requires --family")
    return closed_moment_nrs(spec, n, r, s, mode)


def cmd_moment(args):
    vs, spec, mode = _build_sequence(args)
    n, r, s = args.n, args.r, args.s
    if min(n, r, s) < 0:
        raise CliError("n, r, s must be nonnegative")
    if vs.source == "generic" and n + max(r, s) > GENERIC_MOMENT_LIMIT:
        raise CliError("generic symbolic moments need n + max(r, s) <= %d, "
                       "got %d; use --family or --alphas for larger indices"
                       % (GENERIC_MOMENT_LIMIT, n + max(r, s)))
    routes = _routes()
    methods = tuple(routes) if args.method == "all" else (args.method,)
    values, records, checks, skipped = [], [], [], []
    for method in methods:
        start = time.perf_counter()
        try:
            if method == "closed":
                value = _closed_value(spec, mode, n, r, s)
            else:
                value = routes[method](vs, n, r, s)
        except ZeroVerblunsky as exc:
            if args.method == "all":
                skipped.append((method, exc.index))
                continue
            raise
        elapsed = (time.perf_counter() - start) * 1000.0
        values.append(value)
        records.append({"n": n, "r": r, "s": s, "method": method,
                        "value": _render(value), "elapsed_ms": elapsed,
                        "mode": mode})
    agree = True
    if args.method == "all":
        base = values[0]
        agree = all(values_close(value, base) for value in values)
        _check(checks, "moment", "agreement", agree,
               "; ".join("%s skipped: zero alpha_%d" % pair
                         for pair in skipped))
    lines = ["mu(%d,%d,%d) %-12s = %s  [%.3f ms]"
             % (n, r, s, rec["method"], rec["value"], rec["elapsed_ms"])
             for rec in records]
    lines += ["%-12s skipped: zero alpha_%d" % pair for pair in skipped]
    lines += ["agreement: %s" % chk["status"].upper() for chk in checks]
    table = [_VALUE_HEADER] + [
        (n, r, s, rec["method"], rec["value"], "%.3f" % rec["elapsed_ms"])
        for rec in records]
    _write(args, mode, records, checks, lines, table)
    return EXIT_OK if agree else EXIT_FAIL


# ---------------------------------------------------------------------------
# paths


def cmd_paths(args):
    vs, spec, mode = _build_sequence(args)
    n, r, s = args.n, args.r, args.s
    if min(n, r, s) < 0:
        raise CliError("n, r, s must be nonnegative")
    if args.cap < 0:
        raise CliError("--cap must be nonnegative, got %d" % args.cap)
    guarded = vs.source == "generic" and args.cap > GENERIC_PATH_LIMIT
    start = time.perf_counter()
    try:
        listing = weighted_paths(args.model, n, r, s, vs, cap=(
            GENERIC_PATH_LIMIT if guarded else args.cap))
    except EnumerationCapExceeded as exc:
        if guarded:
            raise EnumerationCapExceeded(
                "%s on the generic symbols; use --family or --alphas for "
                "larger listings" % exc)
        raise
    listing = list(listing)
    weights = [w for _, w in listing]
    # float sums keep the listing order, which fixes their bits
    total = (exact_sum(weights) if mode == SYMBOLIC
             else sum(weights, vs.zero()))
    weights.append(total)
    # an exact listing shares its monomials, so it renders as one batch
    texts = (render_batch(weights) if mode == SYMBOLIC
             else [_render(w) for w in weights])
    rows = [{"kind": "path", "index": idx, "steps": path.render(),
             "weight": text}
            for idx, ((path, _), text) in enumerate(zip(listing, texts))]
    elapsed = (time.perf_counter() - start) * 1000.0
    total_weight = texts[-1]
    lines = ["%3d  %-24s %s" % (row["index"], row["steps"], row["weight"])
             for row in rows]
    lines.append("total over %d paths = %s" % (len(listing), total_weight))
    table = [_VALUE_HEADER] + [
        (n, r, s, "%s[%d]" % (args.model, row["index"]), row["weight"],
         "0.000") for row in rows]
    table.append((n, r, s, "%s_total" % args.model, total_weight,
                  "%.3f" % elapsed))
    rows.append({"kind": "total", "count": len(listing),
                 "weight": total_weight, "elapsed_ms": elapsed})
    _write(args, mode, rows, [], lines, table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# family


def cmd_family(args):
    if args.name is None:
        tags = sorted(FAMILY_PARAMS)
        _write(args, args.mode,
               [{"family": tag, "parameter": FAMILY_PARAMS[tag]}
                for tag in tags], [],
               ["%-18s parameter: %s" % (tag, FAMILY_PARAMS[tag])
                for tag in tags],
               [("family", "parameter")]
               + [(tag, FAMILY_PARAMS[tag]) for tag in tags])
        return EXIT_OK
    if args.count < 0:
        raise CliError("--count must be nonnegative, got %d" % args.count)
    spec = _family_spec(args.name, args.param, args.mode)
    vs = verblunsky_of(spec, args.mode)
    mode = vs.mode
    results = [{"j": j, "alpha": _render(vs.alpha(j))}
               for j in range(args.count)]
    try:
        closed_moment_nm(spec, 1, 0, mode)
        has_closed = True
    except UnsupportedFamily:
        has_closed = False
    info = {"family": spec.tag, "parameter": FAMILY_PARAMS[spec.tag],
            "value": _render(spec.value), "mode": mode,
            "closed_forms": "yes" if has_closed else "no"}
    lines = ["%s(%s = %s)  mode=%s  closed forms: %s"
             % (spec.tag, info["parameter"], info["value"], mode,
                info["closed_forms"])]
    lines += ["  alpha_%d = %s" % (row["j"], row["alpha"])
              for row in results]
    table = [("j", "alpha")] + [(row["j"], row["alpha"]) for row in results]
    _write(args, mode, results, [], lines, table, info)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _check(checks, suite, name, ok, detail=""):
    checks.append({"suite": suite, "name": name,
                   "status": "pass" if ok else "fail", "detail": detail})
    return ok


def _misses(cells, got, want):
    """The cells, in order, at which got(*cell) and want(*cell) differ."""
    return [cell for cell in cells
            if not values_close(got(*cell), want(*cell))]


def _sequences(mode, seed, count, length):
    """The (label, vs) pairs a suite runs on.

    Symbolic mode uses the generic sequence; numeric mode draws `count`
    tables of `length` entries in turn from random.Random(seed).
    """
    if mode == SYMBOLIC:
        return [("generic", VerblunskySequence.generic())]
    rng = random.Random(seed)
    return [("seq%d" % k, VerblunskySequence.from_table(
                random_alpha_table(rng, length), NUMERIC))
            for k in range(count)]


def _suite_cross_model(checks, maxn, mode, seed):
    routes = _routes()
    oracle = routes.pop("oracle")
    for label, vs in _sequences(mode, seed, 3, 2 * maxn + 2):
        bad = []
        for n, r, s in itertools.product(range(maxn + 1), repeat=3):
            ref = oracle(vs, n, r, s)
            for method, route in routes.items():
                try:
                    val = route(vs, n, r, s)
                except ZeroVerblunsky:
                    continue
                if not values_close(val, ref):
                    bad.append((n, r, s, method))
        _check(checks, "cross-model", "agreement[%s]" % label, not bad,
               "mismatches: %s" % bad[:4] if bad else
               "all methods vs oracle, indices <= %d" % maxn)


def _suite_reciprocity(checks, maxn, mode, seed):
    orientation = ("negative(n,r,s) * rho_product(0,s) / rho_product(0,r)"
                   " == conj(moment(n,s,r))")
    [(_, vs)] = _sequences(mode, seed, 1, 2 * maxn + 2)
    bad = _misses(
        itertools.product(range(maxn + 1), repeat=3),
        lambda n, r, s: (moment_negative(vs, n, r, s) * vs.rho_product(0, s)
                         / vs.rho_product(0, r)),
        lambda n, r, s: conjugate(moment_lukasiewicz(vs, n, s, r)))
    _check(checks, "reciprocity", "rho-ratio conjugation", not bad,
           orientation if not bad else "mismatches: %s" % bad[:4])


def _suite_determinants(checks, maxn, mode, seed):
    [(_, vs)] = _sequences(mode, seed, 1, maxn + 4)
    bad = [n for n in range(maxn + 1)
           if not values_close(toeplitz_det(vs, n), rho_power_product(vs, n))]
    _check(checks, "determinants", "toeplitz vs rho powers", not bad,
           "orders 0..%d" % maxn if not bad else "failed orders: %s" % bad)
    # det_identity_check compares its two sides itself
    bad = _misses(itertools.product(range(-2, 3), range(min(maxn, 3) + 1)),
                  lambda m, n: det_identity_check(vs, m, n)[2],
                  lambda m, n: True)
    _check(checks, "determinants", "shifted-index factorization", not bad,
           "m in [-2,2], n <= %d" % min(maxn, 3) if not bad
           else "failed (m, n): %s" % bad)


def _family_grid_specs():
    return [
        FamilySpec("bernstein_szego",
                   GaussianRational(Fraction(2, 5), Fraction(1, 5))),
        FamilySpec("mass_point", Fraction(1, 2)),
        FamilySpec("circular_jacobi", Fraction(3, 2)),
        FamilySpec("rogers_szego", Fraction(1, 3)),
        FamilySpec("single_nontrivial", 1),
        FamilySpec("single_nontrivial", 0.5),
        FamilySpec("geronimus", Fraction(1, 2)),
        FamilySpec("geronimus", 1),
        FamilySpec("geronimus", complex(0.3, 0.4)),
    ]


def _suite_families(checks, maxn):
    for spec in _family_grid_specs():
        vs = verblunsky_of(spec)
        bad = _misses(itertools.product(range(maxn + 1), repeat=2),
                      lambda n, m: closed_moment_nm(spec, n, m),
                      lambda n, m: moment_lukasiewicz(vs, n, 0, m))
        _check(checks, "families", "nm[%r]" % (spec,), not bad,
               "" if not bad else "failed (n, m): %s" % bad[:4])
        bad = _misses(itertools.product(range(min(maxn, 4) + 1), repeat=3),
                      lambda n, r, s: closed_moment_nrs(spec, n, r, s),
                      lambda n, r, s: moment_lukasiewicz(vs, n, r, s))
        _check(checks, "families", "nrs[%r]" % (spec,), not bad,
               "" if not bad else "failed (n, r, s): %s" % bad[:4])


def _suite_linearization(checks, maxn):
    vs = VerblunskySequence.generic()
    top = min(maxn, 3)
    bad = []
    for n in range(top + 1):
        for r in range(top + 1 - n):
            shifted = {"phi": phi(vs, r).phi.shift(n),
                       "phi_star": phi(vs, r).phi_star.shift(n)}
            for key, coeffs in expand_moment_basis(vs, n, r).items():
                target, basis = key
                rebuilt = reconstruct(vs, basis, map(conjugate, coeffs))
                if rebuilt != shifted[target]:
                    name = ("%s/%s" % key).replace("phi_star", "star")
                    bad.append((name, n, r))
    _check(checks, "linearization", "round-trips", not bad,
           "four expansions, n + r <= %d" % top if not bad
           else "failed: %s" % bad[:4])
    dim = min(maxn, 6) + 1
    prod = star_overlap_matrix(vs, dim) * star_basis_change(vs, dim)
    iden = ScalarMatrix.identity(dim, vs.one(), vs.zero())
    _check(checks, "linearization", "star overlap inverse",
           prod == iden, "dimension %d" % dim)
    # name -> (closed form, path route), each (vs, n, r, s) -> coefficient
    companions = {
        "star_to_phi": (star_to_phi_coeff, star_to_phi_coeff_paths),
        "phi_to_star": (phi_to_star_coeff, phi_to_star_coeff_paths),
        "star_to_star": (star_to_star_coeff, star_to_star_coeff_paths),
    }
    bad = _misses([(name, n, r, s)
                   for n, r in itertools.product(range(1, 3), range(3))
                   for s in range(n + r + 1) for name in companions],
                  lambda name, *nrs: companions[name][0](vs, *nrs),
                  lambda name, *nrs: companions[name][1](vs, *nrs))
    _check(checks, "linearization", "path companions", not bad,
           "" if not bad else "failed: %s" % bad[:4])
    bad = _misses(itertools.product(range(1, 3), range(3), range(3)),
                  lambda n, r, s: star_to_phi_coeff_negative(vs, n, r, s),
                  lambda n, r, s: star_pairing_oracle(vs, -n, r, s))
    _check(checks, "linearization", "negative-index pairing", not bad,
           "" if not bad else "failed: %s" % bad[:4])


def _suite_positivity(checks, maxn):
    vs = VerblunskySequence.generic()
    top = min(maxn, 4)
    bad, nonpoly, saw_negative = [], [], False
    for n in range(top + 1):
        for r in range(top + 1 - n):
            for s in range(n + r + 1):
                try:
                    positivity_certificate(vs, n, r, s)
                except PositivityViolation:
                    bad.append((n, r, s))
                for coeff in (phi_to_star_coeff, star_to_star_coeff):
                    val = (coeff(vs, n, r, s)
                           * vs.alpha_bar(s) * vs.alpha_bar(s - 1))
                    if not is_polynomial(val):
                        nonpoly.append((n, r, s))
                    elif any(c < 0 for c in beta_form(val).values()):
                        saw_negative = True
    _check(checks, "positivity", "moment beta-positivity", not bad,
           "n + r <= %d" % top if not bad else "failed: %s" % bad[:4])
    _check(checks, "positivity", "cleared starred-basis polynomiality",
           not nonpoly, "" if not nonpoly else "failed: %s" % nonpoly[:4])
    _check(checks, "positivity", "negative beta coefficient exists",
           saw_negative, "starred-basis families are not beta-positive")


# (name, suite, default --max, seeded): --mode and --seed reach only the
# seeded suites; the others check fixed data and have no numeric mode
_SUITE_TABLE = (
    ("cross-model", _suite_cross_model, 4, True),
    ("reciprocity", _suite_reciprocity, 4, True),
    ("determinants", _suite_determinants, 4, True),
    ("families", _suite_families, 4, False),
    ("linearization", _suite_linearization, 3, False),
    ("positivity", _suite_positivity, 4, False),
)

VERIFY_SUITES = tuple(name for name, *_ in _SUITE_TABLE) + ("all",)


def cmd_verify(args):
    checks = []
    mode = args.mode or SYMBOLIC
    suites = [row for row in _SUITE_TABLE if args.suite in ("all", row[0])]
    # the seeded suites reach the generic moment (max, max, max), which
    # the `moment` cost guard admits up to n + max(r, s) = 2 * max
    guarded = ", ".join(row[0] for row in suites if row[3])
    limit = GENERIC_MOMENT_LIMIT // 2
    if args.max is not None:
        if args.max < 0:
            raise CliError("--max must be nonnegative, got %d" % args.max)
        if mode == SYMBOLIC and guarded and args.max > limit:
            raise CliError("symbolic mode needs --max <= %d for %s, got %d; "
                           "use --mode numeric for larger indices"
                           % (limit, guarded, args.max))
    for name, fn, default_max, seeded in suites:
        maxn = args.max if args.max is not None else default_max
        if seeded:
            fn(checks, maxn, mode, args.seed)
        elif mode == SYMBOLIC:
            fn(checks, maxn)
        elif args.suite != "all":
            numeric = ", ".join(row[0] for row in _SUITE_TABLE if row[3])
            raise CliError("suite %s has no numeric mode; --mode numeric "
                           "runs %s" % (name, numeric))
    ok = all(chk["status"] == "pass" for chk in checks)
    lines = ["%-4s %-14s %-36s %s"
             % (chk["status"].upper(), chk["suite"], chk["name"],
                chk["detail"]) for chk in checks]
    lines.append("verify: %d checks, %s"
                 % (len(checks), "all passed" if ok else "FAILURES"))
    _write(args, mode, [], checks, lines)
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument wiring


def _add_sequence_flags(sub):
    sub.add_argument("--family", help="named coefficient family")
    sub.add_argument("--param", metavar="KEY=VALUE",
                     help="family parameter, e.g. alpha=1/2")
    sub.add_argument("--alphas", metavar="LIST",
                     help="comma-separated coefficient literals")
    sub.add_argument("--mode", choices=(SYMBOLIC, NUMERIC))


def _add_output_flags(sub, formats=("text", "json", "csv"),
                      default="text"):
    sub.add_argument("--format", choices=formats, default=default)
    sub.add_argument("--out", metavar="FILE",
                     help="write output to FILE instead of stdout")


def build_parser():
    parser = _Parser(prog="opuc",
                     description="Moments of orthogonal polynomials on "
                                 "the unit circle, by several routes.")
    subs = parser.add_subparsers(dest="cmd", required=True)

    p = subs.add_parser("moment", help="one generalized moment")
    _add_sequence_flags(p)
    p.add_argument("-n", type=int, default=0)
    p.add_argument("-r", type=int, default=0)
    p.add_argument("-s", type=int, default=0)
    p.add_argument("--method", choices=tuple(_routes()) + ("closed", "all"),
                   default="lukasiewicz")
    _add_output_flags(p)

    p = subs.add_parser("paths", help="list weighted paths")
    _add_sequence_flags(p)
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("-n", type=int, default=0)
    p.add_argument("-r", type=int, default=0)
    p.add_argument("-s", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    _add_output_flags(p)

    p = subs.add_parser("family", help="inspect a coefficient family")
    p.add_argument("--name", help="family tag; omit to list all")
    p.add_argument("--param", metavar="KEY=VALUE")
    p.add_argument("--mode", choices=(SYMBOLIC, NUMERIC))
    p.add_argument("--count", type=int, default=8,
                   help="how many coefficients to print")
    _add_output_flags(p)

    p = subs.add_parser("verify", help="run cross-validation suites")
    p.add_argument("--suite", choices=VERIFY_SUITES, default="all")
    p.add_argument("--max", type=int, default=None,
                   help="index bound; per-suite default if omitted")
    p.add_argument("--mode", choices=(SYMBOLIC, NUMERIC))
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p, formats=("json", "text"), default="json")
    return parser


# building the parser costs about ten times parsing one command line, so
# one process builds it once; it holds no handler, and main looks the
# subcommand up at call time, so rebinding a cmd_* function reaches it
_parser = functools.cache(build_parser)


def _join_alphas(argv):
    # a comma-separated table is never an option, but argparse reads one
    # with a leading minus (``--alphas -1/2,1/4``) as a flag; it also
    # accepts the flag abbreviated
    out = []
    for tok in argv:
        if out and len(out[-1]) > 2 and "--alphas".startswith(out[-1]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    args = _parser().parse_args(_join_alphas(
        sys.argv[1:] if argv is None else argv))
    handler = {"moment": cmd_moment, "paths": cmd_paths,
               "family": cmd_family, "verify": cmd_verify}[args.cmd]
    try:
        return handler(args)
    except CliError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_FAIL
    except ZeroVerblunsky as exc:
        sys.stderr.write("error: zero Verblunsky coefficient at index %d\n"
                         % exc.index)
        return EXIT_ZERO_ALPHA
    except EnumerationCapExceeded as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_CAP
    except (IndexError, OverflowError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs for the four workloads.

``build(name, seed, size)`` returns three things:

* ``spec``: the requests the workload process sends, one round of them.
  This is all the program sees.
* ``meta``: what the checker needs besides the program's outputs (the
  exact inputs behind each request).
* ``first``: how to build the workload's first sequence, for the set-up
  measurement.

Nothing here imports ``opuc``.  Numeric inputs are dyadic: every alpha
is (a + b i) / 2**K with integers a, b, written as decimals that floats
hold exactly, so the program and the exact reference see the same
numbers.  The amount of work in a round does not depend on the seed: the
seed draws values, orders and evaluation points, never sizes.
"""

import itertools
import random
from fractions import Fraction

from reference import K

WORKLOADS = ("numeric-requests", "numeric-table", "symbolic-generic",
             "exact-families")

# a sequence that never depends on --seed; the numeric-table oracle rows
# that fail on it are the known fault, counted the same in every run
FIXED_SEED = 20240710

RADIUS_SQ = 0.81  # |alpha| <= 0.9

SIZES = {
    "full": {
        "requests_n": 24,
        "table_dp": 50, "table_matrix": 12, "table_oracle": 24,
        "table_fixed": 200,
        "generic_dp": 8, "generic_dp_rs": 7, "generic_oracle": 7,
        "generic_oracle_rs": 6, "generic_matrix": 4, "generic_matrix_rs": 4,
        "generic_paths": 6, "generic_schroder_paths": 5, "generic_paths_rs": 5,
        "family_dp": (0, 10, 20, 30, 40), "family_cmv": (0, 6, 12),
        "family_lin": ((1, 1), (2, 2), (3, 1)), "family_det": (2, 4, 6, 8),
    },
    "tiny": {
        "requests_n": 3,
        "table_dp": 6, "table_matrix": 3, "table_oracle": 3,
        "table_fixed": 6,
        "generic_dp": 3, "generic_dp_rs": 2, "generic_oracle": 2,
        "generic_oracle_rs": 1, "generic_matrix": 2, "generic_matrix_rs": 1,
        "generic_paths": 3, "generic_schroder_paths": 2, "generic_paths_rs": 2,
        "family_dp": (0, 3), "family_cmv": (0, 2),
        "family_lin": ((1, 1),), "family_det": (2,),
    },
}

TABLE_ROUTES = ("lukasiewicz", "gmotzkin", "schroder", "negative")
MATRIX_ROUTES = ("matrix_u", "matrix_cmv")
PATH_ROUTES = {"lukasiewicz": "moment_lukasiewicz",
               "gmotzkin": "moment_gmotzkin",
               "schroder": "moment_schroder",
               "negative": "moment_negative"}
RS = 4  # table rows hold every (r, s) with r, s < RS


def dyadic_alphas(rng, count):
    """Numerators (a, b) of nonzero alphas (a + b i) / 2**K, |alpha| <= 0.9."""
    scale = 1 << K
    top = int(0.9 * scale)
    out = []
    while len(out) < count:
        a, b = rng.randint(-top, top), rng.randint(-top, top)
        if a and b and a * a + b * b <= RADIUS_SQ * scale * scale:
            out.append((a, b))
    return out


def literal(a, b):
    """CLI literal of (a + b i) / 2**K, exact as a float."""
    scale = 1 << K
    return "%r%s%ri" % (a / scale, "+" if b > 0 else "-", abs(b) / scale)


def as_floats(table):
    scale = 1 << K
    return [[a / scale, b / scale] for a, b in table]


# ---------------------------------------------------------------------------


def numeric_requests(rng, size):
    """One CLI request per n: a fresh table, every route at once.

    (r, s) is fixed by n so that the seed changes values, not the amount
    of work; over the n range every (r, s) with r, s < 4 turns up.
    """
    ns = list(range(size["requests_n"] + 1))
    rng.shuffle(ns)
    ops, meta = [], []
    for n in ns:
        r, s = n % RS, (n // RS) % RS
        table = dyadic_alphas(rng, n + 6)
        argv = ["moment", "--alphas=" + ",".join(literal(a, b)
                                                 for a, b in table),
                "-n", str(n), "-r", str(r), "-s", str(s),
                "--method", "all", "--format", "json"]
        ops.append(argv)
        meta.append({"alphas": table, "n": n, "r": r, "s": s})
    first = {"table": as_floats(meta[0]["alphas"])}
    return {"argv": ops}, {"requests": meta}, first


def numeric_table(rng, size):
    """Rows of mu(+-n, r, s) on two long-lived sequences, n ascending.

    S is drawn from the seed and carries every route; F is fixed and
    carries the oracle alone, up to the sizes where its float solve is
    known to miss the tolerance.
    """
    seqs = {"S": dyadic_alphas(rng, size["table_dp"] + 8),
            "F": dyadic_alphas(random.Random(FIXED_SEED),
                               size["table_fixed"] + 8)}
    ops = []
    for n in range(max(size["table_dp"], size["table_fixed"]) + 1):
        if n <= size["table_dp"]:
            ops += [["S", route, n] for route in TABLE_ROUTES]
        if n <= size["table_matrix"]:
            ops += [["S", route, n] for route in MATRIX_ROUTES]
        if n <= size["table_oracle"]:
            ops += [["S", "oracle", n], ["S", "oracle_neg", n]]
        if n <= size["table_fixed"]:
            ops += [["F", "oracle", n], ["F", "oracle_neg", n]]
    spec = {"seqs": {k: as_floats(v) for k, v in seqs.items()}, "rows": ops}
    first = {"table": spec["seqs"]["S"]}
    return spec, {"seqs": seqs, "rows": ops}, first


def symbolic_generic(rng, size):
    """CLI moments and path listings on the generic symbols a_j, ab_j.

    The symbols carry no values, so the request list is fixed; the seed
    orders it and draws the dyadic point where the checker evaluates the
    answers.
    """
    reqs = []
    for route in ("lukasiewicz", "gmotzkin", "schroder"):
        reqs += [("moment", route, n, 0, 0)
                 for n in range(size["generic_dp"] + 1)]
        reqs += [("moment", route, n, 1, 2)
                 for n in range(size["generic_dp_rs"] + 1)]
    reqs += [("moment", "oracle", n, 0, 0)
             for n in range(size["generic_oracle"] + 1)]
    reqs += [("moment", "oracle", n, 1, 2)
             for n in range(size["generic_oracle_rs"] + 1)]
    for route in MATRIX_ROUTES:
        reqs += [("moment", route, n, 0, 0)
                 for n in range(size["generic_matrix"] + 1)]
        reqs += [("moment", route, n, 1, 2)
                 for n in range(size["generic_matrix_rs"] + 1)]
    for model in ("lukasiewicz", "gmotzkin", "negative"):
        reqs += [("paths", model, n, 0, 0)
                 for n in range(size["generic_paths"] + 1)]
        reqs += [("paths", model, n, 1, 2)
                 for n in range(size["generic_paths_rs"] + 1)]
    reqs += [("paths", "schroder", n, 0, 0)
             for n in range(size["generic_schroder_paths"] + 1)]
    rng.shuffle(reqs)
    ops, meta = [], []
    for cmd, route, n, r, s in reqs:
        flag = "--method" if cmd == "moment" else "--model"
        ops.append([cmd, flag, route, "-n", str(n), "-r", str(r),
                    "-s", str(s), "--format", "json"])
        meta.append({"cmd": cmd, "route": route, "n": n, "r": r, "s": s})
    point = dyadic_alphas(rng, 2 * size["generic_dp"] + 8)
    return {"argv": ops}, {"requests": meta, "point": point}, \
        {"generic": True}


FAMILIES = (
    ("circular_jacobi", Fraction(3, 2)),
    ("rogers_szego", Fraction(1, 3)),
    ("mass_point", Fraction(1, 2)),
    ("bernstein_szego", None),  # zeta drawn from the seed
)

# families whose alphas are all nonzero: the only ones where the drop
# model and the starred-basis expansions are defined
NONZERO = ("circular_jacobi", "rogers_szego", "mass_point")

LIN_CLOSED = ("star_to_phi_coeff", "phi_to_star_coeff", "star_to_star_coeff")
LIN_PATHS = ("star_to_phi_coeff_paths", "phi_to_star_coeff_paths",
             "star_to_star_coeff_paths")


def exact_families(rng, size):
    """Python-API requests on the paper's exact families.

    Every request builds its sequence afresh, as a one-off caller would.
    (r, s) cycles through every pair with r, s < 4 in a fixed order, so
    the seed changes the Bernstein-Szego zeta and the order of requests,
    not the amount of work.
    """
    (a, b), = dyadic_alphas(rng, 1)
    params = {}
    reqs = []
    for tag, value in FAMILIES:
        if value is None:
            value = (Fraction(a, 1 << K), Fraction(b, 1 << K))
        params[tag] = value
        pairs = itertools.cycle([[r, s] for r in range(RS)
                                 for s in range(RS)])
        routes = [r for r in TABLE_ROUTES
                  if r != "schroder" or tag in NONZERO]
        for n in size["family_dp"]:
            for route in routes:
                reqs.append([tag, "moment", PATH_ROUTES[route], n]
                            + next(pairs))
            reqs.append([tag, "closed", "closed_moment_nrs", n]
                        + next(pairs))
        for n in size["family_cmv"]:
            reqs.append([tag, "moment", "cmv_walk_entry", n] + next(pairs))
        lin = LIN_CLOSED + LIN_PATHS if tag in NONZERO \
            else ("star_to_phi_coeff",)
        for n, r in size["family_lin"]:
            reqs += [[tag, "lin", name, n, r, None] for name in lin]
        reqs += [[tag, "det", "toeplitz_det", n, None, None]
                 for n in size["family_det"]]
    rng.shuffle(reqs)
    wire = {tag: ([[v.numerator, v.denominator] for v in value]
                  if isinstance(value, tuple)
                  else [value.numerator, value.denominator])
            for tag, value in params.items()}
    spec = {"params": wire, "requests": reqs}
    first = {"family": reqs[0][0], "param": wire[reqs[0][0]]}
    return spec, {"params": params, "requests": reqs}, first


BUILDERS = {
    "numeric-requests": numeric_requests,
    "numeric-table": numeric_table,
    "symbolic-generic": symbolic_generic,
    "exact-families": exact_families,
}


def build(name, seed, size="full"):
    """(spec, meta, first) of one round of a workload, drawn from seed."""
    return BUILDERS[name](random.Random(seed), SIZES[size])

"""The workload process: one client that sends a workload's requests to
``opuc`` in a closed loop, the next request only after the previous one
returned.

Run by ``run.py`` with ``src`` on the path; reads the workload's spec as
JSON on stdin and writes on stdout round one's outputs, one JSON line
each, then one JSON report.  With ``--setup`` it
only imports ``opuc.cli``, builds the workload's first sequence and says
so, which is what the set-up time measures.

The process repeats whole rounds of the same requests until the time is
up.  Round one's outputs go back in full for checking, each written out
as soon as it returns so that none stays in this process; every later
round's outputs are compared with round one's by digest, and only the
requests whose output differs go back.
"""

import json
import sys
from time import perf_counter, process_time


def _complex_list(rows):
    return [complex(a, b) for a, b in rows]


def build_first(first):
    """Build the workload's first sequence; imports opuc.cli first."""
    import opuc.cli  # noqa: F401  (the import is part of set-up)
    from opuc.core import VerblunskySequence

    if "table" in first:
        vs = VerblunskySequence.from_table(_complex_list(first["table"]),
                                           "numeric")
    elif "generic" in first:
        vs = VerblunskySequence.generic()
    else:
        vs = _family_sequence(first["family"], first["param"])
    vs.alpha(0)
    return vs


def _family_value(wire):
    from fractions import Fraction

    from opuc.algebra import GaussianRational

    if isinstance(wire[0], list):
        return GaussianRational(Fraction(*wire[0]), Fraction(*wire[1]))
    return Fraction(*wire)


def _family_spec(tag, wire):
    from opuc.families import FamilySpec

    return FamilySpec(tag, _family_value(wire))


def _family_sequence(tag, wire):
    from opuc import families

    return families.verblunsky_of(_family_spec(tag, wire))


# ---------------------------------------------------------------------------
# runners: new_round() builds per-round state, call() is one request,
# dump() turns its raw result into JSON-ready data outside the timing


class CliRunner:
    """Requests through ``opuc.cli.main``, output captured as text."""

    def __init__(self, spec):
        import contextlib
        import io

        import opuc.cli as cli

        self.cli, self.io, self.contextlib = cli, io, contextlib
        self.requests = spec["argv"]

    def new_round(self):
        return None

    def call(self, argv, state):
        out, err = self.io.StringIO(), self.io.StringIO()
        with self.contextlib.redirect_stdout(out), \
                self.contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return [code, out.getvalue(), err.getvalue()]

    def dump(self, raw):
        return raw

    def digest_text(self, data):
        # the reports carry each route's elapsed time, which varies
        code, text, err = data
        try:
            doc = json.loads(text)
        except ValueError:
            return json.dumps(data)
        for rec in doc.get("results", ()):
            rec.pop("elapsed_ms", None)
        return json.dumps([code, doc, err], sort_keys=True)


class TableRunner:
    """numeric-table: rows of 16 cells on long-lived numeric sequences."""

    ROUTES = {
        "lukasiewicz": ("paths", "moment_lukasiewicz", 1),
        "gmotzkin": ("paths", "moment_gmotzkin", 1),
        "schroder": ("paths", "moment_schroder", 1),
        "negative": ("paths", "moment_negative", 1),
        "matrix_u": ("matrices", "u_power_entry", 1),
        "matrix_cmv": ("matrices", "cmv_walk_entry", 1),
        "oracle": ("core", "moment_oracle", 1),
        "oracle_neg": ("core", "moment_oracle", -1),
    }

    def __init__(self, spec):
        from opuc import core, matrices, paths

        self.modules = {"paths": paths, "matrices": matrices, "core": core}
        self.seqs = {k: _complex_list(v) for k, v in spec["seqs"].items()}
        self.requests = spec["rows"]

    def new_round(self):
        from opuc.core import VerblunskySequence

        return {k: VerblunskySequence.from_table(v, "numeric")
                for k, v in self.seqs.items()}

    def call(self, row, state):
        seq, route, n = row
        mod, name, sign = self.ROUTES[route]
        fn = getattr(self.modules[mod], name)
        vs = state[seq]
        return [fn(vs, sign * n, r, s) for r in range(4) for s in range(4)]

    def dump(self, raw):
        return [[v.real, v.imag] for v in raw]

    def digest_text(self, data):
        return json.dumps(data)


class FamilyRunner:
    """exact-families: Python-API requests, a fresh sequence for each."""

    def __init__(self, spec):
        from opuc import families, linearization, matrices, paths

        self.modules = {"moment": (paths, matrices), "lin": (linearization,),
                        "closed": (families,), "det": (matrices,)}
        self.families = families
        self.params = spec["params"]
        self.requests = spec["requests"]

    def new_round(self):
        return None

    def call(self, req, state):
        tag, kind, name, n, r, s = req
        spec = _family_spec(tag, self.params[tag])
        if kind == "closed":
            return self.families.closed_moment_nrs(spec, n, r, s)
        vs = self.families.verblunsky_of(spec)
        fn = next(getattr(m, name) for m in self.modules[kind]
                  if hasattr(m, name))
        if kind == "moment":
            return fn(vs, n, r, s)
        if kind == "det":
            return fn(vs, n)
        return [fn(vs, n, r, j) for j in range(n + r + 1)]

    def dump(self, raw):
        if isinstance(raw, list):
            return [str(v) for v in raw]
        return str(raw)

    def digest_text(self, data):
        return json.dumps(data)


RUNNERS = {
    "numeric-requests": CliRunner,
    "symbolic-generic": CliRunner,
    "numeric-table": TableRunner,
    "exact-families": FamilyRunner,
}


# ---------------------------------------------------------------------------


def _round(runner, requests, latencies, consume):
    """One round; returns the CPU seconds that `consume` took."""
    # latencies are CPU seconds of this single-threaded process, which
    # never waits on I/O: wall time less what the host took away
    state = runner.new_round()
    spent = 0.0
    for i, req in enumerate(requests):
        t0 = process_time()
        try:
            raw = runner.call(req, state)
        except Exception as exc:  # one failed request must not end the run
            raw = _Failure("%s: %s" % (type(exc).__name__, exc))
        t1 = process_time()
        latencies.append(t1 - t0)
        consume(i, raw)
        spent += process_time() - t1
    return spent


class _Failure:
    def __init__(self, text):
        self.text = text


def _dump(runner, raw):
    if isinstance(raw, _Failure):
        return {"error": raw.text}
    return runner.dump(raw)


def run(spec):
    import hashlib
    import resource
    from array import array
    from statistics import median_low

    seconds = spec["seconds"]
    t0 = perf_counter()
    import opuc.cli  # noqa: F401
    import_s = perf_counter() - t0

    runner = RUNNERS[spec["workload"]](spec["inputs"])
    requests = runner.requests
    # kept compact, so the benchmark's own memory does not grow with the
    # number of rounds and blur peak_rss_mb
    latencies = array("d")
    report = {"import_s": import_s, "walls": [], "cpu": [], "rounds": 0,
              "mismatches": []}
    first = []

    def consume(i, raw):
        data = _dump(runner, raw)
        digest = hashlib.sha256(runner.digest_text(data).encode()).digest()
        if not report["rounds"]:
            sys.stdout.write(json.dumps(data) + "\n")
            first.append(digest)
        elif digest != first[i]:
            report["mismatches"].append([report["rounds"], i])

    def rounds(until, traced=None):
        # whole rounds until the next one would end past `until`
        walls = []
        while True:
            lat = []
            t, c = perf_counter(), process_time()
            if traced is not None:
                traced.begin()
            spent = _round(runner, requests, lat, consume)
            if traced is not None:
                wall, bench_self, stats = traced.end()
                report["traced"].append({"wall_s": wall,
                                         "bench_self_s": bench_self,
                                         "stats": stats})
            else:
                wall = perf_counter() - t
                report["walls"].append(wall)
                report["cpu"].append(process_time() - c - spent)
                latencies.extend(lat)
            walls.append(wall)
            report["rounds"] += 1
            if perf_counter() - start + median_low(walls) > until:
                return

    start = perf_counter()
    if spec["trace"]:
        # untraced rounds for the first half give the overhead baseline
        rounds(seconds / 2)
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        report["traced"] = []
        rounds(seconds, tracer)
    else:
        rounds(seconds)
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    report["latencies"] = list(latencies)
    return report


def main(argv):
    if len(argv) == 2 and argv[0] == "--setup":
        build_first(json.loads(argv[1]))
        # CPU seconds of this process since it started, interpreter too
        sys.stdout.write("ready %r\n" % process_time())
        sys.stdout.flush()
        return 0
    spec = json.load(sys.stdin)
    json.dump(run(spec), sys.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

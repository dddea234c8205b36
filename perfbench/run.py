"""Benchmark of ``opuc``: four seeded closed-loop workloads, checked
against an exact reference that shares no code with the program.

    python3 perfbench/run.py --workload numeric-table --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a checkout.  The program runs from ``src/`` in a
workload process of its own (``client.py``), one client, single-threaded.
This process draws the inputs from ``--seed``, measures set-up, checks
every output and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``spans.py``).  A fuller report, with every
problem found, goes to ``perfbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# fresh interpreters per run for set-up time, half of them before the
# workload process and half after; a single import of opuc.cli varies by
# tens of percent, their median far less.  Each reports its own CPU time,
# like every other time here, so a wait for the host's CPU is not counted
SETUP_SAMPLES = 22
CHILD_GRACE_S = 150


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _client(args, **kwargs):
    return subprocess.Popen([sys.executable, os.path.join(HERE, "client.py")]
                            + args, cwd=ROOT, env=_env(), **kwargs)


def measure_setup(first, count):
    """CPU seconds from starting an interpreter to the first sequence
    built, for `count` fresh interpreters."""
    arg = json.dumps(first)
    samples = []
    for _ in range(count):
        proc = _client(["--setup", arg], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE)
        line = proc.stdout.readline().split()
        _, err = proc.communicate(timeout=60)
        if proc.returncode != 0 or line[:1] != [b"ready"]:
            raise BenchError("set-up failed: %s" % err.decode()[-500:])
        samples.append(float(line[1]))
    return samples


def run_client(workload, inputs, seconds, trace):
    spec = {"workload": workload, "inputs": inputs, "seconds": seconds,
            "trace": trace}
    proc = _client([], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                   stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(json.dumps(spec).encode(),
                                    timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process ran past its time")
    if proc.returncode != 0:
        raise BenchError("workload process failed: %s" % err.decode()[-2000:])
    # round one's outputs, one line each, then the report
    lines = out.splitlines()
    report = json.loads(lines.pop())
    report["outputs"] = [json.loads(line) for line in lines]
    return report


def _requests(workload, meta):
    return meta["rows"] if workload == "numeric-table" else meta["requests"]


def judge(workload, meta, report):
    """(attempted, failed, unexpected problems, result_terms, the
    requests that failed by the known fault)."""
    problems, result_terms = checks.CHECKERS[workload](meta, report["outputs"])
    requests = _requests(workload, meta)
    rounds = report["rounds"]
    failed, unexpected = 0, []
    for i, found in enumerate(problems):
        if found:
            failed += rounds
            if not checks.known_fault(workload, requests[i]):
                unexpected.append([requests[i], found[:3]])
    for rnd, i in report["mismatches"]:
        if not problems[i]:
            failed += 1
        unexpected.append([requests[i], ["output of round %d differs from "
                                         "round one" % (rnd + 1)]])
    known = sorted({str(requests[i]) for i, p in enumerate(problems)
                    if p and checks.known_fault(workload, requests[i])})
    return rounds * len(requests), failed, unexpected, result_terms, known


def _quantile(values, k):
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def end_to_end(report, setup_s):
    lat = report["latencies"]
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(report["cpu"]), "s"),
        "latency_p50_ms": (1000 * _quantile(lat, 5), "ms"),
        "latency_p90_ms": (1000 * _quantile(lat, 9), "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def per_layer(report, result_terms):
    traced = sorted(report["traced"], key=lambda r: r["wall_s"])
    mid = traced[(len(traced) - 1) // 2]  # one whole round: sums hold
    out = {}
    for key in spans.LAYER_KEYS:
        calls, self_s, _ = mid["stats"][key]
        out[key + ".calls"] = (calls, "count")
        out[key + ".self_s"] = (self_s, "s")
    out["algebra.mul.term_products"] = (mid["stats"]["algebra.mul"][2],
                                        "count")
    out["matrices.matmul.cells"] = (mid["stats"]["matrices.matmul"][2],
                                    "count")
    out["algebra.result_terms"] = (result_terms, "count")
    out["cli.import_s"] = (report["import_s"], "s")
    out["bench.self_s"] = (mid["bench_self_s"], "s")
    out["trace.wall_s"] = (mid["wall_s"], "s")
    out["trace.overhead_s"] = (mid["wall_s"] - statistics.median(
        report["walls"]), "s")
    return out


def run(workload, seed, seconds, trace, size="full"):
    if not os.path.isfile(os.path.join(ROOT, "src", "opuc", "__init__.py")):
        raise BenchError("no program to measure: %s is missing"
                         % os.path.join(ROOT, "src", "opuc"))
    inputs, meta, first = workloads.build(workload, seed, size)
    # the first interpreter only warms the bytecode cache
    setup_samples = measure_setup(first, 1 + SETUP_SAMPLES // 2)[1:]
    report = run_client(workload, inputs, seconds, trace)
    setup_samples += measure_setup(first, SETUP_SAMPLES // 2)
    if len(report["outputs"]) != len(_requests(workload, meta)):
        raise BenchError("workload process returned %d outputs for %d "
                         "requests" % (len(report["outputs"]),
                                       len(_requests(workload, meta))))
    attempted, failed, unexpected, result_terms, known = judge(
        workload, meta, report)
    if trace:
        metrics = per_layer(report, result_terms)
    else:
        metrics = end_to_end(report, statistics.median(setup_samples))
    full = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "size": size,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "attempted": attempted, "failed": failed,
        "rounds": report["rounds"],
        "requests_per_round": len(_requests(workload, meta)),
        "latency_samples": len(report["latencies"]),
        "round_walls_s": report["walls"],
        "round_cpu_s": report["cpu"],
        "setup_samples_s": setup_samples,
        "known_fault_requests": known,
        "unexpected_problems": unexpected[:50],
    }
    if trace:
        full["traced_rounds"] = report["traced"]
    return full


def _save(full):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    name = "%s-seed%s-trace%d.json" % (full["workload"], full["seed"],
                                       full["trace"])
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(full, fh, indent=1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        full = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    _save(full)
    for name, m in full["metrics"].items():
        print("%-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print("rounds %d x %d requests; %d latency samples; %d failed "
          "(known fault: %d requests)"
          % (full["rounds"], full["requests_per_round"],
             full["latency_samples"], full["failed"],
             len(full["known_fault_requests"])))
    for req, found in full["unexpected_problems"][:5]:
        print("PROBLEM %s: %s" % (req, "; ".join(found)))
    print(json.dumps({
        "correct": not full["unexpected_problems"],
        "attempted": full["attempted"],
        "failed": full["failed"],
        "metrics": full["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

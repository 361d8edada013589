"""Benchmark of invsemi: the verify battery, a CLI query mix and profile packing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload queries --seed 1 --seconds 30 --trace 0

Workloads are ``verify``, ``queries`` and ``packing`` (see README.md).  The
package is imported from ``src/`` of the same checkout and driven through
``invsemi.cli.main(argv)`` in this process, one call after another (a closed
loop with one client).  A run repeats whole rounds of the seeded operations
until ``--seconds`` have passed, then checks every output outside the timed
region.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import mixes
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# String hashing is randomized per process, which adds a per-run difference in
# dict and set layout to the timings; every run re-executes itself with one seed.
HASH_SEED = "0"
SETUP_SAMPLES = 6  # fresh interpreters before the rounds and as many after; the median is reported

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
]
CLI_COMMANDS = ("enum", "classify", "green", "eggbox", "ideals", "kernel", "profile")
PER_LAYER = [
    ("core.compose.calls", "count"),
    ("core.classify.calls", "count"),
    ("semigroup.oracle.builds", "count"),
    ("semigroup.oracle.build.s", "s"),
    ("semigroup.oracle.queries", "count"),
    ("semigroup.oracle.query.s", "s"),
    ("semigroup.enumerate_family.calls", "count"),
    ("semigroup.enumerate_family.elements", "count"),
    ("semigroup.enumerate_family.s", "s"),
    ("semigroup.relations.calls", "count"),
    ("semigroup.relations.s", "s"),
    ("semigroup.witnesses.s", "s"),
    ("semigroup.eggbox.s", "s"),
    ("regularity.is_unit_regular.calls", "count"),
    ("regularity.is_unit_regular.s", "s"),
    ("regularity.bruteforce.s", "s"),
    ("ideals.is_ideal.calls", "count"),
    ("ideals.is_ideal.s", "s"),
    ("ideals.j_classes.s", "s"),
    ("ideals.ideals_all.s", "s"),
    ("ideals.kernel.s", "s"),
    ("ideals.thresholds.s", "s"),
    ("extnat.j_condition.calls", "count"),
    ("extnat.j_condition.s", "s"),
    ("extnat.d_condition.calls", "count"),
    ("extnat.d_condition.s", "s"),
    ("extnat.profile_of.calls", "count"),
    *[(f"verify.check.{label}.s", "s") for label in checks.VERIFY_LABELS],
    *[(f"cli.{cmd}.latency_p50_ms", "ms") for cmd in CLI_COMMANDS],
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
]

# one cheap call per command, so first-call costs fall outside the timed rounds
WARMUP = {
    "verify": [["verify", "--max-n", "1"]],
    "queries": [
        ["classify", "--n", "3", "--y", "0", "--f", "[0 1 2]"],
        ["green", "--n", "3", "--y", "0", "--rel", "D", "--witness", "--f", "[0 1 2]", "--g", "[0 0 0]"],
        ["enum", "--n", "3", "--y", "0"],
        ["eggbox", "--n", "3", "--y", "0", "--format", "json"],
        ["ideals", "--n", "3", "--y", "0"],
        ["kernel", "--n", "3", "--y", "0"],
        ["profile", "[w 1 1]", "[w w 1]", "--format", "json"],
    ],
    "packing": [["profile", "[w 1 1]", "[w w 1]", "--format", "json"]],
}


def percentile(sorted_values: list, p: float):
    """Nearest rank: the smallest value with at least p percent of the samples at or below it."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def measure_setup(env: dict) -> list:
    """Wall times of fresh interpreters importing the CLI module."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import invsemi.cli"], env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL
        )
        times.append(time.perf_counter() - t0)
    return times


def run_op(main, argv: list, tracer: Tracer | None):
    """One CLI call from argv to text; returns (exit code, ns, stdout, stderr).

    Each call starts with the cyclic collector's counters at zero, as a fresh
    ``invsemi`` process would, so when a collection falls inside a call does
    not depend on the calls before it.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = time.perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv) if tracer is None else tracer.call(f"cli.{argv[0]}", main, argv)
        except Exception as e:  # a crash is a wrong answer, reported with the checks
            rc = f"raised {e!r}"
    return rc, time.perf_counter_ns() - t0, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def timed_checks(verify_mod, sink: list):
    """Record the duration of every (check, context) unit of the verify battery."""
    tables = (verify_mod.CTX_CHECKS, verify_mod.GLOBAL_CHECKS)
    saved = [list(t) for t in tables]

    def timed(fn):
        def wrapper(*args):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args)
            finally:
                sink.append(time.perf_counter_ns() - t0)

        return wrapper

    for table in tables:
        table[:] = [(label, timed(fn)) for label, fn in table]
    try:
        yield
    finally:
        for table, old in zip(tables, saved):
            table[:] = old


def measure(workload: str, ops: list, seconds: float, main, tracer: Tracer | None) -> dict:
    """Run whole rounds of the operations until the time is up, timing every call."""
    import invsemi.verify

    first: dict[tuple, tuple] = {}  # argv -> (exit code, stdout, stderr) of the first round
    changed: set[tuple] = set()
    samples: dict[int, list[int]] = {}  # operation's place in the round -> ns, one per round
    round_ns: list[int] = []  # per round, the sum of its calls' times: the loop's own work is left out
    attempted = failed = 0
    units: list[int] = []
    timer = timed_checks(invsemi.verify, units) if workload == "verify" else contextlib.nullcontext()
    start = time.perf_counter()
    with timer:
        while not round_ns or time.perf_counter() - start < seconds:
            busy = 0
            for i, (cls, argv) in enumerate(ops):
                rc, ns, out, err = run_op(main, argv, tracer)
                busy += ns
                key = tuple(argv)
                if first.setdefault(key, (rc, out, err)) != (rc, out, err):
                    changed.add(key)
                if workload == "verify":
                    # the battery's operations are its (check, context) units
                    for j, unit_ns in enumerate(units):
                        samples.setdefault(j, []).append(unit_ns)
                    attempted += len(units)
                    units.clear()
                else:
                    attempted += 1
                    if rc == 0:
                        samples.setdefault(i, []).append(ns)
                    elif cls == "beyond_cap" and rc == 3:
                        failed += 1
            round_ns.append(busy)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "first": first,
        "changed": changed,
        # an operation's latency is its mean over the rounds, so that the
        # percentiles move smoothly when the host's speed drifts during a run
        "per_op_ms": {i: statistics.fmean(v) / 1e6 for i, v in samples.items()},
        "commands": {} if workload == "verify" else {i: argv[0] for i, (_, argv) in enumerate(ops)},
        "round_ns": round_ns,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
    }


def output_errors(workload: str, seed: int, ops: list, res: dict) -> list:
    """Every distinct call's output, checked apart from the package."""
    errors = [f"{' '.join(k)}: output changed between rounds" for k in sorted(res["changed"])]
    classes = {tuple(argv): cls for cls, argv in ops}
    for key, (rc, out, err) in res["first"].items():
        label = " ".join(key)
        if classes[key] == "beyond_cap" and rc == 3 and "budget" in err:
            continue  # the known fault: counted in ``failed``
        if rc != 0:
            errors.append(f"{label}: exit {rc} {err.strip()}")
            continue
        try:
            errors += [f"{label}: {e}" for e in checks.check_output(list(key), out)]
        except Exception as e:  # unparseable output is a wrong answer too
            errors.append(f"{label}: output not understood ({e!r})")
    if workload == "verify":
        errors += same_report_as_before(seed, res["first"])
    return errors


def same_report_as_before(seed: int, first: dict) -> list:
    """The verify report must be byte-identical across runs with the same seed in this checkout."""
    ((_, out, _),) = first.values()
    digest = hashlib.sha256(out.encode()).hexdigest()
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"verify-seed{seed}.sha256"
    if path.exists() and path.read_text().strip() != digest:
        return [f"verify report for seed {seed} differs from an earlier run's"]
    path.write_text(digest + "\n")
    return []


def end_to_end(res: dict, setup_s: float, workload: str) -> dict:
    lat = sorted(res["per_op_ms"].values())
    wall_s = statistics.fmean(res["round_ns"]) / 1e9  # every round makes the same calls
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": res["peak_rss_mb"],
        "queries_per_s": len(lat) / wall_s,
        "latency_p50_ms": percentile(lat, 50),
        "latency_tail_ms": percentile(lat, mixes.TAIL_PERCENTILE[workload]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(res: dict, tracer: Tracer) -> dict:
    """Counts and self times per round; every round makes the same calls, so counts are exact."""
    agg = tracer.aggregate()
    rounds = len(res["round_ns"])

    def per_round(total):
        value = total / rounds
        return int(value) if value.is_integer() else value

    def calls(span):
        return per_round(agg.get(span, {}).get("calls", 0))

    def self_s(span):
        return agg.get(span, {}).get("self_ns", 0) / 1e9 / rounds

    values = {
        "core.compose.calls": per_round(tracer.counts["core.compose.calls"][0]),
        "core.classify.calls": per_round(tracer.counts["core.classify.calls"][0]),
        "extnat.profile_of.calls": per_round(tracer.counts["extnat.profile_of.calls"][0]),
        "semigroup.oracle.builds": calls("semigroup.oracle.build"),
        "semigroup.oracle.build.s": self_s("semigroup.oracle.build"),
        "semigroup.oracle.queries": calls("semigroup.oracle.query"),
        "semigroup.oracle.query.s": self_s("semigroup.oracle.query"),
        "semigroup.enumerate_family.elements": per_round(tracer.elements),
        "trace.wall_s": statistics.fmean(res["round_ns"]) / 1e9,
        "trace.spans": per_round(len(tracer.spans) // 4),
    }
    for name, unit in PER_LAYER:
        if name in values:
            continue
        span, _, kind = name.rpartition(".")
        if name.startswith("cli."):
            cmd = name.split(".")[1]
            lat = sorted(ms for i, ms in res["per_op_ms"].items() if res["commands"].get(i) == cmd)
            values[name] = percentile(lat, 50) if lat else 0
        elif kind == "calls":
            values[name] = calls(span)
        else:
            values[name] = self_s(span)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(mixes.ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # the checks assume the default enumeration cap and an unmutated package
    for var in ("INVSEMI_BUDGET", "INVSEMI_MUTATE"):
        os.environ.pop(var, None)
    if not (SRC / "invsemi" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'invsemi'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time imports from cached bytecode, as an installed package has
    # set-up is sampled on both sides of the rounds, because the host's
    # speed drifts over seconds and one burst of samples would catch one state
    setup_times = [] if args.trace else measure_setup(env)

    from invsemi.cli import main as cli_main

    ops = mixes.ROUNDS[args.workload](args.seed)
    for argv in WARMUP[args.workload]:
        run_op(cli_main, argv, None)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        res = measure(args.workload, ops, args.seconds, cli_main, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    errors = output_errors(args.workload, args.seed, ops, res)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    if tracer is not None:
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        metrics = per_layer(res, tracer)
    else:
        setup_times += measure_setup(env)
        metrics = end_to_end(res, statistics.median(setup_times), args.workload)
    result = {"correct": not errors, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

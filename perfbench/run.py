"""protocheck benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The run is a closed loop with one client in this
single-threaded process.  Times are reported at nominal host speed (see
calibration.py).  See perfbench/README.md for workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_REPEATS = 15

E2E_UNITS = {"verdict_s": "s", "setup_s": "s", "sul_resets": "count",
             "sul_symbols": "count", "test_symbols": "count", "peak_rss_mb": "MB"}
TIME_LAYERS = (
    "learning.learn_s", "learning.oracle_s", "learning.sul_s", "learning.bookkeeping_s",
    "automata.parse_dot_s", "automata.emit_dot_s", "cpm.parse_annotated_dot_s",
    "cpm.emit_annotated_dot_s", "statespace.parse_lts_dot_s", "statespace.emit_lts_dot_s",
    "cpm.annotate_s", "cpm.expand_tau_s", "actorgen.build_ir_s", "actorgen.emit_rebeca_s",
    "statespace.explore_s", "statespace.collapse_s", "statespace.verify_roundtrip_s",
    "ltl.check_s", "ltl.vacuity_s", "ltl.kripke_s",
    "testkit.concretize_s", "testkit.replay_s", "cli.self_s",
)
COUNT_LAYERS = (
    "learning.membership_queries", "learning.equivalence_queries", "learning.rounds",
    "learning.table_rows", "learning.table_columns", "learning.mq_symbols",
    "learning.eq_symbols", "learning.eq_resets", "dot.read_bytes",
    "statespace.explore_calls", "statespace.lts_nodes", "statespace.lts_edges",
    "ltl.buchi_states", "ltl.properties", "ltl.violated", "ltl.witness_states",
    "testkit.test_inputs",
)
LAYER_UNITS = {**{name: "s" for name in TIME_LAYERS},
               **{name: "count" for name in COUNT_LAYERS},
               "dot.read_bytes": "B", "dot.read_bytes_per_s": "B/s",
               "trace.overhead_s": "s", "host.wall_verdict_s": "s", "fail_ratio": "ratio"}


def _import_program():
    """Fresh import of the checkout's program and of the benchmark modules
    that depend on it; returns the workloads module."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("protocheck", "systems", "workloads"):
            del sys.modules[name]
    importlib.import_module("protocheck.cli")
    importlib.import_module("systems")
    return importlib.import_module("workloads")


def _case_studies(workloads, fixtures: Path) -> list[str]:
    """Both shipped case studies, once.  uds must violate no_invalid_key
    with a test CONFIRMED on uds and DIVERGED on uds-patched; emrtd must
    hold everything; every invariant-shaped verdict must match the
    benchmark's own reachability pass, and the temporal property holds."""
    import checks

    problems = []
    for name in ("uds", "emrtd"):
        shutil.copy(fixtures / f"{name}.cpm", f"{name}.cpm")
        Path(f"{name}.json").write_text(json.dumps({
            "sul": name, "cpm": f"{name}.cpm", "out_dir": f"cs-{name}", "seed": 1,
            "learner": {"algorithm": "lstar", "oracle": "exact"}}))
        if workloads.cli(["pipeline", "--config", f"{name}.json"]) != 0:
            problems.append(f"{name}: pipeline failed")
            continue
        verdicts = checks.report_verdicts(Path(f"cs-{name}/report.json").read_text())
        expected = checks.invariant_verdicts(Path(f"cs-{name}/expanded.dot").read_text(),
                                             workloads.LIBRARY_INVARIANTS)
        expected["secure_read_follows_secure_select"] = "HOLDS"
        if name == "uds" and expected["no_invalid_key"] != "VIOLATED":
            problems.append("uds: the planted wrong-key flaw is not reachable")
        if name == "emrtd" and set(expected.values()) != {"HOLDS"}:
            problems.append(f"emrtd: expected every property to hold, got {expected}")
        if verdicts != expected:
            problems.append(f"{name}: verdicts {verdicts}, expected {expected}")
    if not problems:
        tests = ["--tests", "cs-uds/tests.jsonl"]
        if workloads.cli(["replay", *tests, "--sul", "uds"]) != 0:
            problems.append("uds: test not CONFIRMED on uds")
        if workloads.cli(["replay", *tests, "--sul", "uds-patched"]) != 3:
            problems.append("uds: test not DIVERGED on uds-patched")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: smallest inputs, for the benchmark's own test")
    args = parser.parse_args()
    if "PYTHONHASHSEED" not in os.environ:
        # The program's artifacts depend on set iteration order, so the hash
        # seed is part of the input: derive it from --seed and start over.
        os.environ["PYTHONHASHSEED"] = str(args.seed % 2 ** 32)
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                  *sys.argv[1:]])

    if not (SRC / "protocheck" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import calibration

    work = WORK / f"{args.workload}-s{args.seed}-{args.size}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)

    # set-up: import, input generation and file writes, repeated
    setup_times = []
    for _ in range(SETUP_REPEATS):
        with calibration.Timer() as timer:
            workloads = _import_program()
            if args.workload not in workloads.WORKLOADS:
                print(f"error: unknown workload {args.workload!r}; choose from "
                      f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
                return 2
            workload = workloads.WORKLOADS[args.workload](smoke=args.size == "smoke")
            items = workload.generate(args.seed, Path("inputs"))
        setup_times.append(timer.seconds)
    import checks
    import protocheck
    import systems
    import tracer as tracing

    if not Path(protocheck.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {protocheck.__file__}, not the checkout's program",
              file=sys.stderr)
        return 2

    problems = _case_studies(workloads, SRC / "protocheck" / "fixtures")
    tracer = tracing.Tracer()

    def operation(i: int, traced: bool):
        out = Path(f"out{i}")
        shutil.rmtree(out, ignore_errors=True)
        systems.select(items[i].machine)
        systems.COUNTER.resets = systems.COUNTER.symbols = 0
        if traced:
            tracer.reset()
            tracer.install()
            systems.TRACER = tracer
        try:
            with calibration.Timer() as timer:
                exits = workload.run(items[i], out)
        finally:
            if traced:
                systems.TRACER = None
                tracer.uninstall()
                tracer.finish()
        outcome = workload.verify(items[i], out, exits)
        outcome.counts["sul_resets"] = systems.COUNTER.resets
        outcome.counts["sul_symbols"] = systems.COUNTER.symbols
        layers = None
        if traced:
            layers = tracing.layer_metrics(tracer.spans, tracer.counters)
            for name in TIME_LAYERS:
                layers[name] = layers.get(name, 0.0) * timer.speed
            layers["dot.read_bytes_per_s"] /= timer.speed
            for name in COUNT_LAYERS:
                outcome.counts[name] = layers.get(name, 0)
            trace_log.append((list(tracer.spans), dict(tracer.counters)))
        return timer, outcome, checks.digest(out), layers

    trace_log: list = []
    times = {i: {False: [], True: []} for i in range(len(items))}
    wall_times = {i: [] for i in range(len(items))}
    layer_runs = {i: [] for i in range(len(items))}
    reference: dict[int, tuple[str, dict]] = {}
    attempted = failed = 0

    def record(i: int, traced: bool, timed: bool = True):
        nonlocal attempted, failed
        timer, outcome, digest, layers = operation(i, traced)
        attempted += 1
        if i not in reference:
            reference[i] = (digest, outcome.counts)
        elif digest != reference[i][0]:
            outcome.problems.append("artifacts differ from an earlier run of the same input")
        elif any(reference[i][1].get(k, v) != v for k, v in outcome.counts.items()):
            outcome.problems.append("counts differ from an earlier run of the same input")
        else:
            reference[i][1].update(outcome.counts)
        if outcome.problems:
            failed += 1
            problems.extend(f"input {i}: {p}" for p in outcome.problems)
        if timed:
            times[i][traced].append(timer.seconds)
            if not traced:
                wall_times[i].append(timer.wall)
        if layers is not None:
            layer_runs[i].append(layers)

    # untimed warm-up, which also makes every run repeat one input
    record(0, traced=False, timed=False)
    # closed loop over the inputs in turn until time is up and every input
    # has run; the traced run pairs each untraced operation with a traced
    # one, alternating which goes first so that neither gains from the other
    begin, op = time.perf_counter(), 0
    while op < len(items) or time.perf_counter() - begin < args.seconds:
        modes = ((False, True) if op % 2 else (True, False)) if args.trace else (False,)
        for traced in modes:
            record(op % len(items), traced)
        op += 1

    # per input: median over its operations; then the mean over inputs
    across_inputs = statistics.fmean
    if args.trace:
        metrics = {}
        for name in TIME_LAYERS + ("dot.read_bytes_per_s",):
            metrics[name] = across_inputs(
                [statistics.median(r.get(name, 0.0) for r in layer_runs[i]) for i in times])
        for name in COUNT_LAYERS:
            metrics[name] = across_inputs([reference[i][1][name] for i in times])
        metrics["trace.overhead_s"] = across_inputs(
            [statistics.median(times[i][True]) - statistics.median(times[i][False])
             for i in times])
        metrics["host.wall_verdict_s"] = across_inputs(
            [statistics.median(wall_times[i]) for i in times])
        metrics["fail_ratio"] = failed / attempted
        units = LAYER_UNITS
        trace_path = WORK / f"trace-{args.workload}-s{args.seed}.jsonl"
        tracer.write_jsonl(trace_path, trace_log)
        print(f"trace written to {trace_path}")
    else:
        metrics = {
            "verdict_s": across_inputs([statistics.median(times[i][False]) for i in times]),
            "setup_s": statistics.median(setup_times),
            "sul_resets": across_inputs([reference[i][1]["sul_resets"] for i in times]),
            "sul_symbols": across_inputs([reference[i][1]["sul_symbols"] for i in times]),
            "test_symbols": across_inputs([reference[i][1]["test_symbols"] for i in times]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
    digest_of_digests = hashlib.sha256(
        "".join(reference[i][0] for i in sorted(reference)).encode()).hexdigest()[:16]
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(f"{args.workload} seed {args.seed}: {attempted} operations on {len(items)} "
          f"inputs, artifacts digest {digest_of_digests}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    if not problems:  # a failed run keeps its artifacts for inspection
        os.chdir(ROOT)
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())

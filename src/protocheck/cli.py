"""Pipeline command line: every stage is a subcommand with file handoffs.

Each subcommand reads its input files, runs the stage helpers below and
writes its outputs; ``pipeline`` runs the same helpers in memory and writes
every artifact after its last stage: a run failing with 4 or above writes none.

Exit codes: 0 success, 1 round-trip failure, 2 property violations found,
3 replay divergence, 4 a resource ceiling reached, 5 learning failed: the
system answered inconsistently, 64 usage errors (a bad count flag or config
value, caught before anything is written; an unreadable or malformed input
file or record), 70 internal error (a bug; please report it).  Past argument
parsing, every failure prints one line.  All outputs are deterministic given
the same inputs and seeds; reports embed seeds for reproducibility.

``main`` runs each subcommand with the cyclic garbage collector paused and
puts it back as its caller had it on every exit.  Reference counting frees
everything the stages build (the only cycles they leave are the standard
JSON encoder's, a fixed few per document, and tests/test_cli.py checks
that), so the collector's passes over their live data find nothing.  The
system's code runs with the collector as the caller had it: its factory,
learning with its queries, and replay.  Library calls leave it alone.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from functools import cache
from pathlib import Path

from . import __version__
from .automata import MealyMachine, parse_dot, emit_dot
from .cpm import (parse_cpm, annotate, expand_tau, emit_annotated_dot,
                  parse_annotated_dot)
from .actorgen import build_ir, emit_rebeca, apply_timeout_mutation
from .statespace import (explore, collapse, verify_roundtrip, compare_roundtrip,
                         emit_lts_dot, parse_lts_dot, emit_collapsed_dot, StateSpaceError)
from .ltl import (CEILING, CeilingError, check, kripke_from_annotated, property_library,
                  PropertyInstance, parse_property_file, vacuity, instantiate,
                  format_formula, emit_property_file, HOLDS)
from .learning import (FIXTURE_SULS, LearnError, SulInterface, lstar_learn,
                       exact_oracle, random_walk_oracle)
from .testkit import (TestKitError, concretize, replay, read_tests, tests_jsonl,
                      to_record, from_record)

EXIT_OK = 0
EXIT_ROUNDTRIP = 1
EXIT_VIOLATED = 2
EXIT_DIVERGED = 3
EXIT_CEILING = 4
EXIT_LEARN = 5
EXIT_USAGE = 64
EXIT_INTERNAL = 70

# each failure's exit code, found along the exception's MRO; any other is internal
_EXIT_CODES = {CeilingError: EXIT_CEILING, LearnError: EXIT_LEARN, ValueError: EXIT_USAGE,
               OSError: EXIT_USAGE, StateSpaceError: EXIT_USAGE, TestKitError: EXIT_USAGE}

# argparse destinations of the count flags, each at least 1
_COUNT_FLAGS = ("max_nodes", "unroll", "num_tests", "min_len", "max_len")

_POSITIVE = "a positive integer"
_KINDS = {str: "a string", int: "an integer", bool: "a boolean", dict: "an object"}

# each pipeline config key, a dotted one read inside its section, with its
# (default, rule): a type, a tuple of the allowed values or _POSITIVE; other
# keys are ignored.  The flags that share a key take its default from here.
_CONFIG = {
    "sul": (None, str), "model": (None, str), "cpm": (None, str), "properties": (None, str),
    "out_dir": ("pipeline-out", str), "seed": (0, int),
    "state_ceiling": (CEILING, _POSITIVE), "unroll": (1, _POSITIVE),
    "learner": ({}, dict), "learner.algorithm": ("lstar", ("lstar",)),
    "learner.oracle": ("exact", ("exact", "random-walk")),
    "learner.min_len": (20, _POSITIVE), "learner.max_len": (50, _POSITIVE),
    "learner.num_tests": (50, _POSITIVE),
    "mutation": ({}, dict), "mutation.enabled": (False, bool),
}


class _Parser(argparse.ArgumentParser):
    def exit(self, status=0, message=None):
        super().exit(status and EXIT_USAGE, message)  # --help and --version exit 0

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")  # no usage block


@contextmanager
def _collector(on: bool):
    """Run the block with the cyclic garbage collector on or off, then put
    back the state it had."""
    was = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str | Path, text: str):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text, encoding="utf-8")


def _resolve_sul(selector: str):
    """Fixture name ('emrtd', 'uds', 'uds-patched') or 'module:callable'.

    Returns (sul, hidden machine or None); a factory is called with no
    arguments and returns either a bare system or a (system, machine) pair.
    """
    if selector in FIXTURE_SULS:
        return FIXTURE_SULS[selector]()
    if ":" in selector:
        module_name, attr = selector.split(":", 1)
        try:
            factory = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError) as exc:
            raise ValueError(f"cannot load system {selector!r}: {exc}") from None
        if not callable(factory):
            raise ValueError(f"system {selector!r} is not callable")
        try:
            produced = factory()
        except Exception as exc:  # noqa: BLE001 - the plug-in's failure, not ours
            raise ValueError(f"system {selector!r} could not be built: {exc}") from None
        pair = produced if isinstance(produced, tuple) else (produced, None)
        kinds = (SulInterface, (MealyMachine, type(None)))
        if len(pair) != 2 or not all(map(isinstance, pair, kinds)):
            raise ValueError(f"system {selector!r} returned neither a SulInterface nor a "
                             "(SulInterface, MealyMachine) pair")
        return pair
    raise ValueError(f"unknown system-under-learning {selector!r}; use emrtd, uds, "
                     "uds-patched or module:callable")


class _Counted(SulInterface):
    """Counts what reaches the wrapped system as the system sees it: one
    reset and ``len(word)`` symbols per query, one per reset and step."""

    def __init__(self, sul: SulInterface):
        self.sul, self.resets, self.symbols = sul, 0, 0

    def reset(self):
        self.resets += 1
        self.sul.reset()

    def step(self, symbol: str) -> str:
        self.symbols += 1
        return self.sul.step(symbol)

    def query(self, word):
        self.resets += 1
        self.symbols += len(word)
        return self.sul.query(word)

    def cost(self) -> dict[str, int]:
        return {"resets": self.resets, "symbols": self.symbols}


# ---------------------------------------------------------------------------
# Stages, shared by the subcommands and the pipeline
# ---------------------------------------------------------------------------

def _json_text(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _learn(selector: str, oracle: str, min_len: int, max_len: int,
           num_tests: int, seed: int):
    """The learned machine and the learner's statistics, with the resets
    and symbols the system received for membership queries and for the
    equivalence oracle.  The input alphabet is the hidden machine's when
    the factory hands one over, else the system's ``inputs``."""
    sul, hidden = _resolve_sul(selector)
    if hidden is not None:
        alphabet = hidden.inputs
    elif not (alphabet := tuple(getattr(sul, "inputs", ()))):
        raise ValueError(f"system {selector!r} names no input alphabet: give it an "
                         "`inputs` attribute or return (system, machine)")
    elif oracle == "exact":
        raise ValueError("the exact oracle needs the hidden machine: return "
                         "(system, machine) or use the random-walk oracle")
    membership, walks = _Counted(sul), _Counted(sul)
    if oracle == "exact":
        equivalence = lambda hyp: exact_oracle(hidden, hyp)  # noqa: E731
    else:
        # a string seed per round: fresh words every round, and the same
        # words under every PYTHONHASHSEED
        rounds = itertools.count(1)
        equivalence = lambda hyp: random_walk_oracle(  # noqa: E731
            walks, hyp, min_len, max_len, num_tests, f"{seed}/{next(rounds)}")
    result = lstar_learn(membership, alphabet, equivalence)
    return result.machine, {
        "membership_queries": result.membership_queries,
        "equivalence_queries": result.equivalence_queries,
        "rounds": result.rounds,
        "proven": result.proven,
        "cost": {"membership": membership.cost(), "oracle": walks.cost()},
    }


def _actor_model(annotated, cpm, mutated: bool):
    ir = build_ir(annotated, cpm)
    return apply_timeout_mutation(ir) if mutated else ir


def _property_file(cpm) -> str:
    return emit_property_file({name: inst.formula
                               for name, inst in property_library(cpm).items()},
                              header="generic security properties, instantiated")


def _collapsed_dot(model) -> str:
    """The annotated form of a total, deterministic collapse; the outcome
    list of any other."""
    if model.is_deterministic() and model.missing() is None:
        return emit_annotated_dot(model.to_annotated())
    return emit_collapsed_dot(model)


def _load_properties(path: str | None, cpm, text) -> dict[str, PropertyInstance]:
    """Property set: the builtin library instantiated against the map, or a
    property file (still subject to undeclared-to-false instantiation)."""
    if path in (None, "builtin"):
        return property_library(cpm)
    out = {}
    for name, formula in parse_property_file(_read(path)).items():
        instantiated, undeclared = instantiate(formula, cpm.declared_props)
        out[name] = PropertyInstance(name, instantiated, text(formula), undeclared)
    return out


def _check(expanded, cpm, path: str | None, max_nodes: int, unroll: int):
    """Check every property of ``path`` (see ``_load_properties``) on the
    expanded model, printing one verdict line each.  Returns the report
    entries, the one record of each check: its substitutions are those made
    at instantiation, then the checker's.  Each formula object is printed once."""
    kripke = kripke_from_annotated(expanded, declared=cpm.declared_props)
    text = cache(format_formula)
    properties = _load_properties(path, cpm, text)
    entries = []
    for name in sorted(properties):
        inst = properties[name]
        result = check(kripke, inst.formula, max_nodes)
        vac = vacuity(kripke, inst.formula)
        entry = {
            "name": name,
            "formula": text(inst.formula),
            "source": inst.source,
            "verdict": result.verdict,
            "substituted_false": [*inst.substituted_false, *result.substituted_false],
            "warnings": list(result.warnings),
            "vacuity": None if vac is None else asdict(vac),
            "lasso": None,
            "test": None,
        }
        if result.verdict != HOLDS:
            entry["lasso"] = asdict(result.lasso)
            entry["test"] = to_record(
                concretize(result.lasso, kripke, expanded, name, unroll))
        entries.append(entry)
        line = f"{name}: {result.verdict}"
        if vac is not None and not vac.risk_reachable:
            line += f"  [{vac.note}]"
        print(line)
    return entries


def _report(expanded_path: str, cpm_path: str, entries) -> dict:
    return {
        "expanded_model": expanded_path,
        "cpm": cpm_path,
        "properties": entries,
        "violations": sum(entry["verdict"] != HOLDS for entry in entries),
    }


def _emit_tests(entries):
    """The tests of the report entries that carry one, and their file text."""
    tests = [from_record({"property": entry["name"], **entry["test"]})
             for entry in entries if entry.get("test")]
    print(f"{len(tests)} test case(s) written")
    return tests, tests_jsonl(tests)


def _replay(sul, tests) -> tuple[int, str]:
    """Replay every test, printing one verdict line each; returns the number
    of divergences and the text of the replay report."""
    diverged = 0
    results = []
    for test in tests:
        result = replay(test, sul)
        results.append({
            "property": test.property_name,
            "verdict": result.verdict,
            "observed": list(result.observed),
            "first_divergence": result.first_divergence,
        })
        line = f"{test.property_name or '(unnamed)'}: {result.verdict}"
        print(f"{line} ({result.failure})" if result.failure else line)
        if not result.confirmed:
            diverged += 1
    return diverged, _json_text({"replays": results, "diverged": diverged})


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_learn(args) -> int:
    _check_walk_lengths(args.min_len, args.max_len, "--min-len", "--max-len")
    with _collector(args.caller_collects):
        machine, stats = _learn(args.sul, args.oracle, args.min_len, args.max_len,
                                args.num_tests, args.seed)
    _write(args.out, emit_dot(machine))
    stats.update(states=len(machine.states), inputs=len(machine.inputs),
                 algorithm=args.algorithm, oracle=args.oracle, seed=args.seed)
    print(json.dumps(stats, sort_keys=True))
    if args.stats:
        _write(args.stats, _json_text(stats))
    return EXIT_OK


def cmd_annotate(args) -> int:
    machine = parse_dot(_read(args.model), complete_missing=args.complete)
    cpm = parse_cpm(_read(args.cpm))
    annotated = annotate(machine, cpm)
    for line in annotated.diagnostics:
        print(f"note: {line}", file=sys.stderr)
    _write(args.out, emit_annotated_dot(annotated))
    return EXIT_OK


def cmd_expand(args) -> int:
    annotated = parse_annotated_dot(_read(args.annotated))
    cpm = parse_cpm(_read(args.cpm))
    _write(args.out, emit_annotated_dot(expand_tau(annotated, cpm)))
    return EXIT_OK


def cmd_gen_rebeca(args) -> int:
    annotated = parse_annotated_dot(_read(args.annotated))
    cpm = parse_cpm(_read(args.cpm))
    ir = _actor_model(annotated, cpm, args.timeout_mutation is not None)
    _write(args.out, emit_rebeca(ir))
    if args.properties_out:
        _write(args.properties_out, _property_file(cpm))
    return EXIT_OK


def cmd_explore(args) -> int:
    annotated = parse_annotated_dot(_read(args.annotated))
    cpm = parse_cpm(_read(args.cpm))
    lts = explore(_actor_model(annotated, cpm, args.timeout_mutation is not None),
                  args.max_nodes)
    _write(args.out, emit_lts_dot(lts))
    print(f"{len(lts.nodes)} nodes, {len(lts.edges)} edges", file=sys.stderr)
    return EXIT_OK


def cmd_collapse(args) -> int:
    model = collapse(parse_lts_dot(_read(args.lts)))
    _write(args.out, _collapsed_dot(model))
    if not model.is_deterministic():
        print("note: nondeterministic outcomes kept as parallel edges", file=sys.stderr)
    elif (gap := model.missing()) is not None:
        print(f"note: partial model, no outcome for {gap!r}; "
              "written as an outcome list", file=sys.stderr)
    return EXIT_OK


def cmd_verify_roundtrip(args) -> int:
    machine = parse_dot(_read(args.model), complete_missing=args.complete)
    cpm = parse_cpm(_read(args.cpm))
    report = verify_roundtrip(annotate(machine, cpm), cpm, args.max_nodes)
    print(f"round-trip: {report.message} ({report.node_count} nodes explored)")
    return EXIT_OK if report.passed else EXIT_ROUNDTRIP


def cmd_check(args) -> int:
    expanded = parse_annotated_dot(_read(args.expanded))
    cpm = parse_cpm(_read(args.cpm))
    entries = _check(expanded, cpm, args.properties, args.max_nodes, args.unroll)
    report = _report(args.expanded, args.cpm, entries)
    if args.report:
        _write(args.report, _json_text(report))
    if args.jsonl:
        # each entry's verdict record; an empty property set still writes one (empty) line
        _write(args.jsonl, "".join(json.dumps(
            {key: entry[key] for key in ("name", "verdict", "lasso", "substituted_false")},
            sort_keys=True) + "\n" for entry in entries) or "\n")
    return EXIT_OK if report["violations"] == 0 else EXIT_VIOLATED


def cmd_emit_test(args) -> int:
    report = json.loads(_read(args.report))
    entries = report.get("properties", []) if isinstance(report, dict) else None
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("name"), str)
            and isinstance(e.get("test") or {}, dict) for e in entries):
        raise ValueError('report is not an object whose "properties" lists objects with '
                         'a string "name" and an object "test"')
    _write(args.out, _emit_tests(entries)[1])
    return EXIT_OK


def cmd_replay(args) -> int:
    with _collector(args.caller_collects):
        sul, _ = _resolve_sul(args.sul)
        diverged, text = _replay(sul, read_tests(args.tests))
    if args.report:
        _write(args.report, text)
    return EXIT_OK if diverged == 0 else EXIT_DIVERGED


# every file a pipeline run can write into its out_dir
_PIPELINE_FILES = ("model.dot", "annotated.dot", "expanded.dot", "model.rebeca",
                   "model.property", "lts.dot", "collapsed.dot", "report.json",
                   "tests.jsonl", "replay.json", "manifest.json")


def cmd_pipeline(args) -> int:
    config_text = _read(args.config)
    config = _read_config(json.loads(config_text))
    out_dir, seed, ceiling = Path(config["out_dir"]), config["seed"], config["state_ceiling"]

    cpm = parse_cpm(_read(config["cpm"]))
    # every artifact's text by file name, written once no stage is left to fail
    files, stages = {}, {}
    if config["sul"] is not None:
        with _collector(args.caller_collects):
            machine, stages["learn"] = _learn(
                config["sul"], config["learner.oracle"], config["learner.min_len"],
                config["learner.max_len"], config["learner.num_tests"], seed)
    else:
        machine = parse_dot(_read(config["model"]))
        stages["learn"] = {"skipped": True}
    files["model.dot"] = emit_dot(machine)

    annotated = annotate(machine, cpm)
    files["annotated.dot"] = emit_annotated_dot(annotated)
    stages["annotate"] = {"diagnostics": list(annotated.diagnostics)}

    expanded = expand_tau(annotated, cpm)
    files["expanded.dot"] = emit_annotated_dot(expanded)
    stages["expand"] = {"internal_states": len(expanded.tau_states)}

    ir = _actor_model(annotated, cpm, config["mutation.enabled"])
    files["model.rebeca"] = emit_rebeca(ir)
    files["model.property"] = _property_file(cpm)
    stages["gen-rebeca"] = {"mutated": config["mutation.enabled"]}

    lts = explore(ir, ceiling)
    files["lts.dot"] = emit_lts_dot(lts)
    collapsed = collapse(lts)
    files["collapsed.dot"] = _collapsed_dot(collapsed)
    stages["explore"] = {"nodes": len(lts.nodes), "edges": len(lts.edges)}

    roundtrip = compare_roundtrip(annotated, cpm, lts, collapsed)
    stages["verify-roundtrip"] = {"passed": roundtrip.passed, "message": roundtrip.message}
    if roundtrip.passed:
        # violations are a result, not a pipeline failure
        entries = _check(expanded, cpm, config["properties"], ceiling, config["unroll"])
        report = _report(str(out_dir / "expanded.dot"), config["cpm"], entries)
        files["report.json"] = _json_text(report)
        violations = report["violations"]
        stages["check"] = {"violations": violations}

        tests, files["tests.jsonl"] = _emit_tests(entries)
        stages["emit-test"] = {"tests": violations}

        if config["sul"] is not None and violations:
            with _collector(args.caller_collects):
                sul = _Counted(_resolve_sul(config["sul"])[0])
                diverged, files["replay.json"] = _replay(sul, tests)
            stages["replay"] = {"diverged": diverged > 0, "cost": sul.cost()}
        else:
            stages["replay"] = {"skipped": True}

    files["manifest.json"] = _json_text({
        "tool_version": __version__,
        "config_sha256": hashlib.sha256(config_text.encode("utf-8")).hexdigest(),
        "seed": seed,
        "stages": stages,
    })
    # an earlier run's artifact that this run does not write would read as its own
    for name in _PIPELINE_FILES:
        if name not in files:
            (out_dir / name).unlink(missing_ok=True)
    for name, text in files.items():
        _write(out_dir / name, text)
    if not roundtrip.passed:
        print("round-trip FAILED", file=sys.stderr)
        return EXIT_ROUNDTRIP
    return EXIT_OK


def _read_config(config) -> dict:
    """Each ``_CONFIG`` key's value in a pipeline config, or its default; raises
    on the first value that breaks its rule, a lacking key or bad walk lengths."""
    if type(config) is not dict:
        raise ValueError("pipeline config must be a JSON object")
    values = {}
    for key, (default, rule) in _CONFIG.items():
        section, _, name = key.rpartition(".")
        value = (values[section] if section else config).get(name, default)
        if rule is _POSITIVE:
            ok, text = type(value) is int and value >= 1, rule
        elif isinstance(rule, tuple):
            ok, text = value in rule, " or ".join(map(json.dumps, rule))
        else:
            ok, text = type(value) is rule, _KINDS[rule]
        if not (ok or value is None and default is None):
            raise ValueError(f'pipeline config "{key}" must be {text}')
        values[key] = value
    if values["cpm"] is None:
        raise ValueError('pipeline config lacks "cpm"')
    if values["sul"] is None and values["model"] is None:
        raise ValueError('pipeline config lacks "sul" or "model"')
    _check_walk_lengths(values["learner.min_len"], values["learner.max_len"],
                        'pipeline config "learner.min_len"', '"learner.max_len"')
    return values


def _check_walk_lengths(min_len: int, max_len: int, min_name: str, max_name: str):
    """Random walks need min_len <= max_len (both counts); checked before
    anything is written, whichever oracle is chosen."""
    if min_len > max_len:
        raise ValueError(f"{min_name} must not exceed {max_name}")


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept: each parse
    starts from a fresh namespace, so one call's values never reach the
    next."""
    parser = _Parser(prog="protocheck",
                     description="learn, annotate, model-check and test protocol state machines")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(key: str) -> dict:
        """The keywords of a flag that shares a pipeline config key."""
        default, rule = _CONFIG[key]
        kind = {"choices": rule} if isinstance(rule, tuple) else {"type": int}
        return {"default": default, **kind}

    p = sub.add_parser("learn", help="infer a model from a system under learning")
    p.add_argument("--sul", required=True)
    p.add_argument("--out", required=True)
    # accepted for old command lines; lstar is the only value
    p.add_argument("--algorithm", **shared("learner.algorithm"), help=argparse.SUPPRESS)
    p.add_argument("--oracle", **shared("learner.oracle"))
    p.add_argument("--min-len", **shared("learner.min_len"))
    p.add_argument("--max-len", **shared("learner.max_len"))
    p.add_argument("--num-tests", **shared("learner.num_tests"))
    p.add_argument("--seed", **shared("seed"))
    p.add_argument("--stats")

    p = sub.add_parser("annotate", help="label states via a proposition map")
    p.add_argument("--model", required=True)
    p.add_argument("--cpm", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--complete", action="store_true",
                   help="fill missing inputs with no_response self-loops")

    p = sub.add_parser("expand", help="split temporary-proposition transitions")
    p.add_argument("--annotated", required=True)
    p.add_argument("--cpm", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen-rebeca", help="emit the two-actor model source")
    p.add_argument("--annotated", required=True)
    p.add_argument("--cpm", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--properties-out",
                   help="also write the instantiated property file")
    p.add_argument("--timeout-mutation", nargs="?", const="", metavar="P",
                   help="add the timeout fault (a trailing value is ignored)")

    p = sub.add_parser("explore", help="generate the full actor state space")
    p.add_argument("--annotated", required=True)
    p.add_argument("--cpm", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--timeout-mutation", nargs="?", const="", metavar="P",
                   help="add the timeout fault (a trailing value is ignored)")
    p.add_argument("--max-nodes", **shared("state_ceiling"))

    p = sub.add_parser("collapse", help="cut a state space back into a machine")
    p.add_argument("--lts", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify-roundtrip",
                       help="check that explore+collapse reproduces the model")
    p.add_argument("--model", required=True)
    p.add_argument("--cpm", required=True)
    p.add_argument("--complete", action="store_true")
    p.add_argument("--max-nodes", **shared("state_ceiling"))

    p = sub.add_parser("check", help="model-check properties on the expanded model")
    p.add_argument("--expanded", required=True)
    p.add_argument("--cpm", required=True)
    p.add_argument("--properties", default=None,
                   help="property file, or 'builtin' for the generic library")
    p.add_argument("--report")
    p.add_argument("--jsonl", help="also write one JSON object per property")
    p.add_argument("--max-nodes", **shared("state_ceiling"))
    p.add_argument("--unroll", **shared("unroll"))

    p = sub.add_parser("emit-test", help="extract replayable tests from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("replay", help="replay test cases against a system")
    p.add_argument("--tests", required=True)
    p.add_argument("--sul", required=True)
    p.add_argument("--report")

    p = sub.add_parser("pipeline", help="run every stage from a config file")
    p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    # usage problems inside argparse exit through _Parser.exit
    args = build_parser().parse_args(argv)
    # looked up at each call, so a replaced cmd_* function is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        for dest, value in vars(args).items():
            if dest in _COUNT_FLAGS and value < 1:
                raise ValueError(f"--{dest.replace('_', '-')} must be at least 1")
        # the system's factory, learning and replay run with the collector
        # as the caller had it: plug-in code may build reference cycles
        args.caller_collects = gc.isenabled()
        with _collector(False):
            return command(args)
    except Exception as exc:  # noqa: BLE001 - every failure ends here, in one line
        code = next(filter(None, map(_EXIT_CODES.get, type(exc).__mro__)), EXIT_INTERNAL)
        kind = "error" if code != EXIT_INTERNAL else f"internal error: {type(exc).__name__}"
        print(f"protocheck: {kind}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

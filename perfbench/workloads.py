"""The three workloads: inputs from the seed, one operation, its checks.

An operation is one complete user-level run on one input, from the system
or model file to replayed tests, made in-process through
``protocheck.cli.main`` with paths relative to the working directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import checks
import generators as gen

# Invariant-shaped templates of the program's documented generic property
# library, as propositional bodies; the temporal template
# (secure_read_follows_secure_select) is not judged independently.
_P = lambda name: ("p", name)  # noqa: E731
_N = lambda body: ("not", body)  # noqa: E731
LIBRARY_INVARIANTS = {
    "auth_before_access": (
        ("or", _N(("and", _N(_P("AUTH")), _P("PROT"))), _N(_P("ACCESSOK"))),),
    "no_plain_read_of_protected": (("or", _N(_P("PROT")), _N(_P("UREADOK"))),),
    "privilege_gates_critical": (
        ("and", ("or", _N(_P("PRIV")), _P("AUTH")),
         ("or", _N(("and", _N(_P("PRIV")), _P("CRIT"))), _N(_P("ACCESSOK")))),),
    "no_invalid_key": (_N(_P("INVKEYOK")),),
    "secure_read_requires_secure_context": (
        _N(("and", _P("SREADOK"),
            _N(("and", ("and", _P("DF"), _P("AUTH")), _P("EF"))))),),
    "plain_read_only_outside_protected": (
        _N(("and", _P("UREADOK"), ("or", _N(_P("EF")), _P("DF")))),),
}

EXIT_OK, EXIT_VIOLATED = 0, 2
# random-walk oracle: minimum and maximum word length, words per round
WALK = (10, 30, 1000)


@dataclass
class Input:
    """One seed-derived input: the hidden machine and the files the
    program receives, under ``files`` (relative to the working directory)."""

    machine: gen.Machine
    files: Path
    invariants: dict[str, tuple]
    learned: bool = False
    walk_seed: int = 0


@dataclass
class Outcome:
    counts: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def cli(argv) -> int:
    """One subcommand through the program's entry point, output captured."""
    from protocheck.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _outputs(m: gen.Machine) -> tuple[str, ...]:
    return tuple(sorted({out for _, out in m.delta.values()}))


class Workload:
    name = ""

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def generate(self, seed: int, root: Path) -> list[Input]:
        raise NotImplementedError

    def run(self, item: Input, out: Path) -> list[tuple[str, int]]:
        """Run one operation; returns each subcommand's exit code."""
        raise NotImplementedError

    def verify(self, item: Input, out: Path, exits) -> Outcome:
        """Independent checks of one operation's artifacts."""
        result = Outcome()
        reported = checks.report_verdicts((out / "report.json").read_text())
        violated = sum(v != "HOLDS" for v in reported.values())
        for step, got in exits:
            want = EXIT_VIOLATED if step == "check" and violated else EXIT_OK
            if want != got:
                result.problems.append(f"{step} exited {got}, documented {want}")
        if item.learned:
            if not checks.equivalent(item.machine, (out / "model.dot").read_text()):
                result.problems.append("learned model differs from the hidden machine")
        tests = (out / "tests.jsonl").read_text()
        confirmed, count, symbols = checks.replay_tests(item.machine, tests)
        if not confirmed:
            result.problems.append("an emitted test does not replay on the hidden machine")
        if count != violated:
            result.problems.append(f"{count} tests for {len(reported)} verdicts {reported}")
        if count and json.loads((out / "replay.json").read_text())["diverged"] != 0:
            result.problems.append("the program's replay reported a divergence")
        expected = checks.invariant_verdicts((out / "expanded.dot").read_text(),
                                             item.invariants)
        for name, verdict in expected.items():
            if reported.get(name) != verdict:
                result.problems.append(f"{name}: program says {reported.get(name)}, "
                                       f"reachability says {verdict}")
        result.counts["test_symbols"] = symbols
        return result


class LearnBlackbox(Workload):
    """``pipeline`` learning a hidden protocol machine with the random-walk
    oracle, then checking and replaying against it."""

    name = "learn-blackbox"

    def generate(self, seed, root):
        n, count = (13, 2) if self.smoke else (57, 60)
        items = []
        for i in range(count):
            rng = random.Random(f"{self.name}/{seed}/{i}")
            machine = gen.protocol_machine(rng, n, 6, sessions=4)
            files = root / f"in{i}"
            _write(files / "map.cpm", gen.synthetic_cpm(machine, _outputs(machine)))
            items.append(Input(machine, files, LIBRARY_INVARIANTS, learned=True,
                               walk_seed=rng.randrange(2 ** 31)))
        return items

    def run(self, item, out):
        path = out.parent / f"{out.name}.json"
        _write(path, json.dumps({
            "sul": "systems:hidden", "cpm": str(item.files / "map.cpm"),
            "out_dir": str(out), "seed": item.walk_seed,
            "learner": {"algorithm": "lstar", "oracle": "random-walk",
                        "min_len": WALK[0], "max_len": WALK[1], "num_tests": WALK[2]},
        }, indent=2, sort_keys=True) + "\n")
        return [("pipeline", cli(["pipeline", "--config", str(path)]))]


class StagesLarge(Workload):
    """The stage-by-stage walkthrough, one subcommand per stage, on a given
    model; every handoff writes DOT and reads it back."""

    name = "stages-large"

    def generate(self, seed, root):
        n, k, count = (40, 12, 1) if self.smoke else (200, 12, 24)
        items = []
        for i in range(count):
            rng = random.Random(f"{self.name}/{seed}/{i}")
            machine = gen.uniform_machine(rng, n, k)
            files = root / f"in{i}"
            _write(files / "model.dot", gen.emit_dot(machine))
            _write(files / "map.cpm", gen.synthetic_cpm(machine, _outputs(machine)))
            items.append(Input(machine, files, LIBRARY_INVARIANTS))
        return items

    def run(self, item, out):
        model, cpm = str(item.files / "model.dot"), str(item.files / "map.cpm")

        def o(name):
            return str(out / name)

        out.mkdir(parents=True, exist_ok=True)
        return [(step, cli([step] + argv)) for step, argv in (
            ("annotate", ["--model", model, "--cpm", cpm, "--out", o("annotated.dot")]),
            ("expand", ["--annotated", o("annotated.dot"), "--cpm", cpm,
                        "--out", o("expanded.dot")]),
            ("gen-rebeca", ["--annotated", o("annotated.dot"), "--cpm", cpm,
                            "--out", o("model.rebeca"),
                            "--properties-out", o("model.property")]),
            ("explore", ["--annotated", o("annotated.dot"), "--cpm", cpm,
                         "--out", o("lts.dot")]),
            ("collapse", ["--lts", o("lts.dot"), "--out", o("collapsed.dot")]),
            ("verify-roundtrip", ["--model", model, "--cpm", cpm]),
            ("check", ["--expanded", o("expanded.dot"), "--cpm", cpm,
                       "--report", o("report.json")]),
            ("emit-test", ["--report", o("report.json"), "--out", o("tests.jsonl")]),
            ("replay", ["--tests", o("tests.jsonl"), "--sul", "systems:hidden",
                        "--report", o("replay.json")]),
        )]


class PropsHeavy(Workload):
    """``pipeline`` with a large property file on a given model, then
    ``replay`` of the emitted tests."""

    name = "props-heavy"

    def generate(self, seed, root):
        n, k, temporal, conj, count = (
            (30, 8, 12, 1, 1) if self.smoke else (120, 8, 170, 4, 24))
        items = []
        for i in range(count):
            rng = random.Random(f"{self.name}/{seed}/{i}")
            machine = gen.uniform_machine(rng, n, k)
            props = gen.property_file(rng, temporal, conj, 12)
            files = root / f"in{i}"
            _write(files / "model.dot", gen.emit_dot(machine))
            _write(files / "map.cpm", gen.synthetic_cpm(machine, _outputs(machine)))
            _write(files / "props.ltl", props.text)
            items.append(Input(machine, files, props.invariants))
        return items

    def run(self, item, out):
        path = out.parent / f"{out.name}.json"
        _write(path, json.dumps({
            "model": str(item.files / "model.dot"), "cpm": str(item.files / "map.cpm"),
            "properties": str(item.files / "props.ltl"), "out_dir": str(out), "seed": 0,
        }, indent=2, sort_keys=True) + "\n")
        return [
            ("pipeline", cli(["pipeline", "--config", str(path)])),
            ("replay", cli(["replay", "--tests", str(out / "tests.jsonl"),
                            "--sul", "systems:hidden", "--report", str(out / "replay.json")])),
        ]


WORKLOADS = {w.name: w for w in (LearnBlackbox, StagesLarge, PropsHeavy)}

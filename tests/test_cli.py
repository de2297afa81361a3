"""Command-line stages: file handoffs, exit codes, determinism."""

import gc
import inspect
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import protocheck
from protocheck import (ActorGenError, CeilingError, CpmError, LearnError, LtlError,
                        MachineError, MealyMachine, RoundtripReport, StateSpaceError,
                        SulNondeterminismError, TestKitError, annotate, bisimilar,
                        build_uds_machine, cli, emit_annotated_dot, emit_dot, expand_tau,
                        parse_cpm, parse_dot)
from protocheck.cli import main
from protocheck.fixtures import fixture_text
from protocheck.ltl import kripke_from_annotated, parse_ltl
from helpers import OracleBudgetError, shortest_lasso_length, with_transition


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "model.dot").write_text(fixture_text("illustrative.dot"))
    (tmp_path / "map.cpm").write_text(fixture_text("illustrative.cpm"))
    (tmp_path / "emrtd.cpm").write_text(fixture_text("emrtd.cpm"))
    (tmp_path / "uds.cpm").write_text(fixture_text("uds.cpm"))
    return tmp_path


def run(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_stage_chain_on_worked_example(workdir, capsys):
    model = str(workdir / "model.dot")
    cpm = str(workdir / "map.cpm")
    annotated = str(workdir / "annotated.dot")
    expanded = str(workdir / "expanded.dot")
    assert run("annotate", "--model", model, "--cpm", cpm, "--out", annotated) == 0
    assert run("expand", "--annotated", annotated, "--cpm", cpm, "--out", expanded) == 0
    assert run("gen-rebeca", "--annotated", annotated, "--cpm", cpm,
               "--out", str(workdir / "model.rebeca")) == 0
    assert (workdir / "model.rebeca").read_text() == fixture_text("illustrative.rebeca")
    assert run("explore", "--annotated", annotated, "--cpm", cpm,
               "--out", str(workdir / "lts.dot")) == 0
    assert run("collapse", "--lts", str(workdir / "lts.dot"),
               "--out", str(workdir / "collapsed.dot")) == 0
    assert run("verify-roundtrip", "--model", model, "--cpm", cpm) == 0
    report = str(workdir / "report.json")
    assert run("check", "--expanded", expanded, "--cpm", cpm,
               "--report", report) == 0
    data = json.loads((workdir / "report.json").read_text())
    assert data["violations"] == 0


def test_check_uds_exit_code_and_report(workdir, tmp_path):
    # learn the fixture, annotate with the shipped map, check: violation named
    model = str(tmp_path / "uds.dot")
    assert run("learn", "--sul", "uds", "--out", model) == 0
    annotated = str(tmp_path / "uds_a.dot")
    expanded = str(tmp_path / "uds_e.dot")
    cpm = str(workdir / "uds.cpm")
    assert run("annotate", "--model", model, "--cpm", cpm, "--out", annotated) == 0
    assert run("expand", "--annotated", annotated, "--cpm", cpm, "--out", expanded) == 0
    report = str(tmp_path / "report.json")
    assert run("check", "--expanded", expanded, "--cpm", cpm, "--report", report) == 2
    data = json.loads((tmp_path / "report.json").read_text())
    verdicts = {e["name"]: e["verdict"] for e in data["properties"]}
    assert verdicts["no_invalid_key"] == "VIOLATED"
    assert verdicts["auth_before_access"] == "HOLDS"
    # violated entries embed a replayable test
    entry = next(e for e in data["properties"] if e["name"] == "no_invalid_key")
    assert entry["test"]["inputs"][-1] == "SAwWrongKey"

    tests_path = str(tmp_path / "tests.jsonl")
    assert run("emit-test", "--report", report, "--out", tests_path) == 0
    assert run("replay", "--tests", tests_path, "--sul", "uds") == 0
    assert run("replay", "--tests", tests_path, "--sul", "uds-patched") == 3


def test_a_fairness_implication_gets_a_shortest_witness_that_replays(workdir, capsys):
    """The negation of G(F AUTH) -> G(F PROT) has a candidate component
    whose inner edges carry its two marks only together.  On the uds model
    ``check`` gives a lasso of the brute-force shortest length, and the
    test made from it confirms on the system."""
    cpm = parse_cpm(fixture_text("uds.cpm"))
    expanded = expand_tau(annotate(build_uds_machine()[0], cpm), cpm)
    (workdir / "expanded.dot").write_text(emit_annotated_dot(expanded))
    (workdir / "fair.ltl").write_text("fair: G(F AUTH) -> G(F PROT)\n")
    report = str(workdir / "report.json")
    assert run("check", "--expanded", str(workdir / "expanded.dot"), "--cpm",
               str(workdir / "uds.cpm"), "--properties", str(workdir / "fair.ltl"),
               "--report", report) == 2
    (entry,) = json.loads((workdir / "report.json").read_text())["properties"]
    assert entry["verdict"] == "VIOLATED"
    k = kripke_from_annotated(expanded, declared=cpm.declared_props)
    shortest = shortest_lasso_length(k, parse_ltl("G(F AUTH) -> G(F PROT)"))
    assert len(entry["lasso"]["stem"]) + len(entry["lasso"]["loop"]) == shortest
    tests_path = str(workdir / "tests.jsonl")
    assert run("emit-test", "--report", report, "--out", tests_path) == 0
    capsys.readouterr()
    assert run("replay", "--tests", tests_path, "--sul", "uds") == 0
    assert capsys.readouterr().out == "fair: CONFIRMED\n"


def test_check_jsonl_writes_one_verdict_record_per_report_entry(workdir):
    """Each ``--jsonl`` line is its report entry's name, verdict, lasso and
    substitutions, in entry order; an empty property set writes one newline."""
    cpm = parse_cpm(fixture_text("uds.cpm"))
    expanded = expand_tau(annotate(build_uds_machine()[0], cpm), cpm)
    (workdir / "expanded.dot").write_text(emit_annotated_dot(expanded))
    common = ("check", "--expanded", str(workdir / "expanded.dot"),
              "--cpm", str(workdir / "uds.cpm"))
    assert run(*common, "--report", str(workdir / "r.json"),
               "--jsonl", str(workdir / "r.jsonl")) == 2
    entries = json.loads((workdir / "r.json").read_text())["properties"]
    lines = (workdir / "r.jsonl").read_text().splitlines()
    assert lines == [json.dumps({key: entry[key] for key in
                                 ("name", "verdict", "lasso", "substituted_false")},
                                sort_keys=True) for entry in entries]
    by_name = {entry["name"]: entry for entry in map(json.loads, lines)}
    assert by_name["no_invalid_key"]["lasso"]["loop"]
    assert by_name["auth_before_access"]["lasso"] is None
    assert by_name["plain_read_only_outside_protected"]["substituted_false"] == ["DF", "EF"]

    (workdir / "none.ltl").write_text("")
    assert run(*common, "--properties", str(workdir / "none.ltl"),
               "--jsonl", str(workdir / "none.jsonl")) == 0
    assert (workdir / "none.jsonl").read_text() == "\n"


def test_check_of_a_violation_ending_in_a_dead_end_writes_a_one_input_test(tmp_path, capsys):
    """The witness loops on ``b``, which has no transition: staying there
    takes no input, so the test is the one step into ``b``."""
    (tmp_path / "part.dot").write_text(
        'digraph g {\n  __start -> a;\n  a [label="a {}"];\n'
        '  b [label="b {INVKEYOK}"];\n  a -> b [label="x / o"];\n}\n')
    (tmp_path / "m.cpm").write_text("[GAINS]\nINVKEYOK | x | o\n")
    report = tmp_path / "r.json"
    assert run("check", "--expanded", str(tmp_path / "part.dot"),
               "--cpm", str(tmp_path / "m.cpm"), "--report", str(report)) == 2
    assert "error" not in capsys.readouterr().err
    entry = next(e for e in json.loads(report.read_text())["properties"]
                 if e["name"] == "no_invalid_key")
    assert entry["verdict"] == "VIOLATED"
    assert (entry["test"]["inputs"], entry["test"]["expected"]) == (["x"], ["o"])


def test_annotate_with_empty_cpm(workdir, tmp_path):
    empty = tmp_path / "empty.cpm"
    empty.write_text("[GAINS]\n[LOSES]\n[TAUS]\n")
    out = tmp_path / "annotated.dot"
    assert run("annotate", "--model", str(workdir / "model.dot"),
               "--cpm", str(empty), "--out", str(out)) == 0
    text = out.read_text()
    assert 'label="q1 {}"' in text and 'label="q2 {}"' in text


def test_usage_errors_exit_64(workdir):
    assert run("annotate", "--model", str(workdir / "model.dot")) == 64
    assert run("no-such-command") == 64
    assert run("replay", "--tests", "x.jsonl", "--sul", "no-such-fixture") == 64
    assert run("annotate", "--model", "missing.dot", "--cpm", "missing.cpm",
               "--out", "x.dot") == 64


def cli_process(cwd, *argv, flags=(), prelude=""):
    """The command line in a fresh interpreter started with ``flags``, with
    ``helpers`` importable for ``--sul helpers:factory``; the statements of
    ``prelude`` run before ``main``: (exit code, stdout, stderr)."""
    src = str(Path(protocheck.__file__).resolve().parent.parent)
    path = os.pathsep.join((src, str(Path(__file__).resolve().parent)))
    entry = ["-m", "protocheck.cli"] if not prelude else [
        "-c", f"{prelude}\nimport sys\nfrom protocheck.cli import main\n"
        "sys.exit(main(sys.argv[1:]))"]
    proc = subprocess.run([sys.executable, *flags, *entry, *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv,message", [
    (["--min-len", "0"], "--min-len must be at least 1"),
    (["--oracle", "random-walk", "--min-len", "50", "--max-len", "20"],
     "--min-len must not exceed --max-len"),
], ids=["zero", "above-max"])
def test_learn_with_bad_walk_lengths_exits_64_with_one_line(tmp_path, argv, message):
    assert cli_process(tmp_path, "learn", "--sul", "uds", "--out", "m.dot", *argv) == (
        64, "", f"protocheck: error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_pipeline_with_min_len_above_max_len_exits_64_with_one_line(tmp_path):
    (tmp_path / "uds.cpm").write_text(fixture_text("uds.cpm"))
    (tmp_path / "config.json").write_text(json.dumps({
        "sul": "uds", "cpm": "uds.cpm", "out_dir": "out",
        "learner": {"oracle": "random-walk", "min_len": 50, "max_len": 20}}))
    assert cli_process(tmp_path, "pipeline", "--config", "config.json") == (
        64, "", 'protocheck: error: pipeline config "learner.min_len" must not exceed '
        '"learner.max_len"\n')
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,flag", [
    (["check", "--expanded", "expanded.dot", "--cpm", "uds.cpm", "--report", "report.json",
      "--unroll", "0"], "--unroll"),
    (["check", "--expanded", "expanded.dot", "--cpm", "uds.cpm", "--report", "report.json",
      "--max-nodes", "0"], "--max-nodes"),
    (["explore", "--annotated", "annotated.dot", "--cpm", "uds.cpm", "--out", "lts.dot",
      "--max-nodes", "0"], "--max-nodes"),
    (["verify-roundtrip", "--model", "uds.dot", "--cpm", "uds.cpm", "--max-nodes", "-1"],
     "--max-nodes"),
    (["learn", "--sul", "uds", "--oracle", "random-walk", "--num-tests", "0",
      "--out", "m.dot"], "--num-tests"),
], ids=["check-unroll", "check-max-nodes", "explore-max-nodes", "roundtrip-max-nodes",
        "learn-num-tests"])
def test_a_count_below_1_exits_64_with_one_line(workdir, argv, flag):
    """Counts follow the pipeline's rule: each is at least 1, checked before
    any stage runs or any file is written."""
    machine = build_uds_machine()[0]
    cpm = parse_cpm(fixture_text("uds.cpm"))
    annotated = annotate(machine, cpm)
    (workdir / "uds.dot").write_text(emit_dot(machine))
    (workdir / "annotated.dot").write_text(emit_annotated_dot(annotated))
    (workdir / "expanded.dot").write_text(emit_annotated_dot(expand_tau(annotated, cpm)))
    before = set(workdir.iterdir())
    assert cli_process(workdir, *argv) == (
        64, "", f"protocheck: error: {flag} must be at least 1\n")
    assert set(workdir.iterdir()) == before


def test_a_system_failure_during_replay_prints_its_reason(tmp_path):
    (tmp_path / "tests.jsonl").write_text(
        '{"property": "p", "inputs": ["a"], "expected": ["b"]}\n')
    assert cli_process(tmp_path, "replay", "--tests", "tests.jsonl", "--sul",
                       "helpers:link_down_sul", "--report", "replay.json") == (
        3, "p: DIVERGED (system failure at position 0: link down)\n", "")
    assert json.loads((tmp_path / "replay.json").read_text()) == {"diverged": 1, "replays": [
        {"property": "p", "verdict": "DIVERGED", "observed": [], "first_divergence": 0}]}


def test_a_bare_system_that_names_its_inputs_learns_by_random_walks(tmp_path):
    code, out, err = cli_process(tmp_path, "learn", "--sul", "helpers:blackbox_uds_sul",
                                 "--oracle", "random-walk", "--out", "m.dot")
    assert (code, err) == (0, "")
    assert json.loads(out)["proven"] is True
    learned = parse_dot((tmp_path / "m.dot").read_text())
    assert bisimilar(build_uds_machine()[0], learned).equivalent


@pytest.mark.parametrize("argv,message", [
    (["learn", "--sul", "helpers:blackbox_uds_sul", "--oracle", "exact", "--out", "m.dot"],
     "the exact oracle needs the hidden machine: return (system, machine) or use the "
     "random-walk oracle"),
    (["learn", "--sul", "helpers:FreshNonceSul", "--oracle", "random-walk", "--out", "m.dot"],
     "system 'helpers:FreshNonceSul' names no input alphabet: give it an `inputs` "
     "attribute or return (system, machine)"),
    (["pipeline", "--config", "config.json"],
     "the exact oracle needs the hidden machine: return (system, machine) or use the "
     "random-walk oracle"),
], ids=["learn-exact", "learn-no-inputs", "pipeline-exact"])
def test_a_bare_system_learning_what_it_cannot_exits_64_with_one_line(tmp_path, argv,
                                                                      message):
    (tmp_path / "uds.cpm").write_text(fixture_text("uds.cpm"))
    (tmp_path / "config.json").write_text(json.dumps({
        "sul": "helpers:blackbox_uds_sul", "cpm": "uds.cpm", "out_dir": "out"}))
    assert cli_process(tmp_path, *argv) == (64, "", f"protocheck: error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "uds.cpm"]


def test_a_system_that_changes_its_answers_exits_5_with_one_line(tmp_path):
    """Learning failed: the serial number the nonce mapper does not declare
    changes the answer to a word the observation tree holds."""
    code, out, err = cli_process(tmp_path, "learn", "--sul", "helpers:leaky_nonce_sul",
                                 "--oracle", "random-walk", "--out", "m.dot")
    assert (code, out) == (5, "")
    assert err.startswith("protocheck: error: system answered ")
    assert err.count("\n") == 1 and "READ_SERIAL" in err
    assert list(tmp_path.iterdir()) == []


SELECTOR_ERRORS = [
    ("nosuchmod:f", "cannot load system 'nosuchmod:f': No module named 'nosuchmod'"),
    ("helpers:nosuch",
     "cannot load system 'helpers:nosuch': module 'helpers' has no attribute 'nosuch'"),
    ("helpers:NONCE_INPUTS", "system 'helpers:NONCE_INPUTS' is not callable"),
]


@pytest.mark.parametrize("selector,message", SELECTOR_ERRORS,
                         ids=["no-module", "no-attribute", "not-callable"])
def test_a_mistyped_system_selector_exits_64_with_one_line(tmp_path, selector, message):
    assert cli_process(tmp_path, "learn", "--sul", selector, "--oracle", "random-walk",
                       "--out", "m.dot") == (64, "", f"protocheck: error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_replay_with_a_mistyped_system_selector_exits_64_with_one_line(tmp_path):
    selector, message = SELECTOR_ERRORS[1]
    assert cli_process(tmp_path, "replay", "--tests", "tests.jsonl", "--sul", selector,
                       "--report", "replay.json") == (64, "", f"protocheck: error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_repeated_calls_in_one_process_start_from_the_defaults(tmp_path):
    """The parser is built once per process; a flag given to one call does
    not carry over to the next."""
    for seed_flag, name in ((["--seed", "5"], "first"), ([], "second")):
        assert run("learn", "--sul", "uds", "--out", str(tmp_path / f"{name}.dot"),
                   "--stats", str(tmp_path / f"{name}.json"), *seed_flag) == 0
    seeds = [json.loads((tmp_path / f"{name}.json").read_text())["seed"]
             for name in ("first", "second")]
    assert seeds == [5, 0]
    assert cli.build_parser() is cli.build_parser()


def test_dispatch_runs_the_command_function_bound_at_call_time(tmp_path, monkeypatch):
    assert run("emit-test", "--report", "missing.json", "--out", str(tmp_path / "t.jsonl")) == 64
    called = []
    monkeypatch.setattr(cli, "cmd_emit_test", lambda args: called.append(args.report) or 0)
    assert run("emit-test", "--report", "r.json", "--out", str(tmp_path / "t.jsonl")) == 0
    assert called == ["r.json"]


def test_manifest_cost_adds_up_to_what_the_system_received(workdir):
    import helpers

    helpers.SYSTEM_COST.update(resets=0, symbols=0)
    config = workdir / "counted.json"
    config.write_text(json.dumps({
        "sul": "helpers:counted_uds_sul", "cpm": str(workdir / "uds.cpm"),
        "out_dir": str(workdir / "out"), "seed": 4,
        "learner": {"oracle": "random-walk", "min_len": 10, "max_len": 30,
                    "num_tests": 100}}))
    assert run("pipeline", "--config", str(config)) == 0
    stages = json.loads((workdir / "out" / "manifest.json").read_text())["stages"]
    parts = [stages["learn"]["cost"]["membership"], stages["learn"]["cost"]["oracle"],
             stages["replay"]["cost"]]
    assert all(part["resets"] > 0 for part in parts)
    assert stages["learn"]["cost"]["membership"]["resets"] == \
        stages["learn"]["membership_queries"]
    assert {key: sum(part[key] for part in parts) for key in ("resets", "symbols")} == \
        helpers.SYSTEM_COST


def test_learn_writes_stats(workdir, tmp_path):
    stats = tmp_path / "stats.json"
    assert run("learn", "--sul", "emrtd", "--out", str(tmp_path / "m.dot"),
               "--oracle", "random-walk", "--min-len", "40", "--max-len", "50",
               "--num-tests", "150", "--seed", "7", "--stats", str(stats)) == 0
    data = json.loads(stats.read_text())
    assert data["states"] == 6
    assert data["proven"] is True
    assert data["membership_queries"] <= 20_000


def test_random_walk_rounds_draw_fresh_words(tmp_path, monkeypatch):
    words_per_round = []
    walk = cli.random_walk_oracle

    def recording_walk(sul, hypothesis, *args):
        words = []
        words_per_round.append(words)

        class Recorder:
            def query(self, word):
                words.append(word)
                return sul.query(word)

        return walk(Recorder(), hypothesis, *args)

    monkeypatch.setattr(cli, "random_walk_oracle", recording_walk)
    stats = tmp_path / "stats.json"
    assert run("learn", "--sul", "helpers:combination_lock_sul",
               "--out", str(tmp_path / "m.dot"), "--oracle", "random-walk",
               "--min-len", "10", "--max-len", "20", "--num-tests", "50",
               "--seed", "3", "--stats", str(stats)) == 0
    assert json.loads(stats.read_text())["rounds"] >= 2
    first, second = words_per_round[:2]
    shared = min(len(first), len(second))
    assert first[:shared] != second[:shared], "round 2 replayed round 1's words"


def test_pipeline_on_worked_example(workdir):
    config = workdir / "pipeline.json"
    out_dir = workdir / "out"
    config.write_text(json.dumps({
        "model": str(workdir / "model.dot"),
        "cpm": str(workdir / "map.cpm"),
        "out_dir": str(out_dir),
        "seed": 11,
    }))
    assert run("pipeline", "--config", str(config)) == 0
    produced = {p.name for p in out_dir.iterdir()}
    assert {"model.dot", "annotated.dot", "expanded.dot", "model.rebeca",
            "lts.dot", "collapsed.dot", "report.json", "tests.jsonl",
            "manifest.json"} <= produced
    report = json.loads((out_dir / "report.json").read_text())
    assert report["violations"] == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["stages"]["verify-roundtrip"]["passed"] is True
    assert "config_sha256" in manifest and "tool_version" in manifest


def worked_example_config(workdir, **extra) -> str:
    config = workdir / "pipeline.json"
    config.write_text(json.dumps({
        "model": str(workdir / "model.dot"),
        "cpm": str(workdir / "map.cpm"),
        "out_dir": str(workdir / "out"),
        **extra,
    }))
    return str(config)


def test_pipeline_round_trip_failure_exits_1_with_manifest(workdir, monkeypatch):
    build_ir = cli.build_ir

    def corrupted(annotated, cpm):
        return with_transition(build_ir(annotated, cpm), ("q2", "sigma1"), "q1", "omega1")

    monkeypatch.setattr(cli, "build_ir", corrupted)
    assert run("pipeline", "--config", worked_example_config(workdir)) == 1
    manifest = json.loads((workdir / "out" / "manifest.json").read_text())
    assert manifest["stages"]["verify-roundtrip"] == {
        "passed": False, "message": "behavior differs on input word ['sigma1', 'sigma1']"}
    assert not (workdir / "out" / "report.json").exists()


PIPELINE_FILES = {"model.dot", "annotated.dot", "expanded.dot", "model.rebeca",
                  "model.property", "lts.dot", "collapsed.dot", "report.json",
                  "tests.jsonl", "replay.json", "manifest.json"}


@pytest.mark.parametrize("second,gone", [
    ("round-trip-failure", {"report.json", "tests.jsonl", "replay.json"}),
    ("no-violations", {"replay.json"}),
])
def test_a_second_pipeline_run_leaves_none_of_the_first_runs_artifacts(workdir, monkeypatch,
                                                                       second, gone):
    out_dir = workdir / "out"

    def config(sul):
        path = workdir / "pipeline.json"
        path.write_text(json.dumps({"sul": sul, "cpm": str(workdir / f"{sul}.cpm"),
                                    "out_dir": str(out_dir)}))
        return str(path)

    # violations, a test and its replay: every artifact a run can write
    assert run("pipeline", "--config", config("uds")) == 0
    assert {p.name for p in out_dir.iterdir()} == PIPELINE_FILES == set(cli._PIPELINE_FILES)
    (out_dir / "notes.txt").write_text("not the pipeline's\n")
    if second == "round-trip-failure":
        monkeypatch.setattr(cli, "compare_roundtrip",
                            lambda *args: RoundtripReport(False, "broken on purpose", 0))
        assert run("pipeline", "--config", config("uds")) == 1
    else:
        # every property holds on the travel-document chip: nothing to replay
        assert run("pipeline", "--config", config("emrtd")) == 0
    assert {p.name for p in out_dir.iterdir()} == PIPELINE_FILES - gone | {"notes.txt"}
    assert (out_dir / "notes.txt").read_text() == "not the pipeline's\n"


@pytest.mark.parametrize("mutation", [False, True])
def test_pipeline_explores_once(workdir, monkeypatch, mutation):
    from protocheck import statespace

    explore = statespace.explore
    calls = []

    def counting(ir, *rest):
        calls.append(ir.timeout)
        return explore(ir, *rest)

    monkeypatch.setattr(statespace, "explore", counting)
    monkeypatch.setattr(cli, "explore", counting)
    config = worked_example_config(workdir, mutation={"enabled": mutation})
    assert run("pipeline", "--config", config) == 0
    assert calls == [mutation]


def test_a_mutation_probability_is_accepted_and_read_by_nothing(workdir):
    """The timeout branch is a nondeterministic choice: a probability, even
    one outside (0, 1), changes no file but the manifest's config digest."""
    outputs = []
    for probability in (0.1, 5):
        config = worked_example_config(
            workdir, mutation={"enabled": True, "probability": probability})
        assert run("pipeline", "--config", config) == 0
        files = {p.name: p.read_bytes() for p in (workdir / "out").iterdir()}
        manifest = json.loads(files.pop("manifest.json"))
        outputs.append((files, manifest["stages"]))
    assert outputs[0] == outputs[1]
    assert "timeout" in outputs[0][0]["lts.dot"].decode()


def test_explore_with_a_bare_timeout_flag_writes_what_a_trailing_value_writes(workdir):
    annotated = str(workdir / "annotated.dot")
    run("annotate", "--model", str(workdir / "model.dot"),
        "--cpm", str(workdir / "map.cpm"), "--out", annotated)
    written = []
    for flag in (["--timeout-mutation"], ["--timeout-mutation", "0.2"]):
        lts = workdir / "lts.dot"
        assert run("explore", "--annotated", annotated, "--cpm", str(workdir / "map.cpm"),
                   "--out", str(lts), *flag) == 0
        written.append(lts.read_bytes())
    assert written[0] == written[1] and b"timeout" in written[0]


def test_outputs_deterministic_across_runs(workdir):
    config = workdir / "pipeline.json"
    out_dir = workdir / "out"
    config.write_text(json.dumps({
        "model": str(workdir / "model.dot"),
        "cpm": str(workdir / "map.cpm"),
        "out_dir": str(out_dir),
        "seed": 3,
    }))
    assert run("pipeline", "--config", str(config)) == 0
    snapshot = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert run("pipeline", "--config", str(config)) == 0
    again = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert snapshot == again


def test_gen_rebeca_with_mutation(workdir, tmp_path):
    annotated = str(tmp_path / "a.dot")
    run("annotate", "--model", str(workdir / "model.dot"),
        "--cpm", str(workdir / "map.cpm"), "--out", annotated)
    out = tmp_path / "mutated.rebeca"
    assert run("gen-rebeca", "--annotated", annotated,
               "--cpm", str(workdir / "map.cpm"), "--out", str(out),
               "--timeout-mutation", "0.2") == 0
    text = out.read_text()
    assert "msgsrv timeout()" in text and "int to = ?(0,1);" in text


def test_collapse_mutated_lts_keeps_nondeterminism(workdir, tmp_path):
    annotated = str(tmp_path / "a.dot")
    run("annotate", "--model", str(workdir / "model.dot"),
        "--cpm", str(workdir / "map.cpm"), "--out", annotated)
    lts = str(tmp_path / "lts.dot")
    assert run("explore", "--annotated", annotated, "--cpm", str(workdir / "map.cpm"),
               "--out", lts, "--timeout-mutation", "0.2") == 0
    out = tmp_path / "collapsed.dot"
    assert run("collapse", "--lts", lts, "--out", str(out)) == 0
    text = out.read_text()
    assert text.count("q1 -> ") >= 2        # parallel outcomes kept
    assert "timeout" in text


# a state space in which state a never issues input y
PARTIAL_LTS_DOT = """digraph partial {
  __start -> n0;
  n0 [label="q=a; props=P; temps="];
  n1 [label="q=a; props=P; temps="];
  n2 [label="q=b; props=; temps="];
  n3 [label="q=b; props=; temps="];
  n4 [label="q=b; props=; temps="];
  n5 [label="q=a; props=P; temps="];
  n0 -> n1 [label="req"];
  n1 -> n2 [label="x"];
  n2 -> n3 [label="o"];
  n3 -> n4 [label="req"];
  n4 -> n5 [label="x"];
  n4 -> n5 [label="y"];
  n5 -> n0 [label="o"];
}
"""


def test_collapse_writes_a_partial_model_as_an_outcome_list(tmp_path, capsys):
    lts = tmp_path / "lts.dot"
    lts.write_text(PARTIAL_LTS_DOT)
    out = tmp_path / "collapsed.dot"
    assert run("collapse", "--lts", str(lts), "--out", str(out)) == 0
    assert capsys.readouterr().err == (
        "note: partial model, no outcome for ('a', 'y'); written as an outcome list\n")
    edges = [line.strip() for line in out.read_text().splitlines() if "->" in line]
    assert edges == ["__start -> a;", 'a -> b [label="x / o"];',
                     'b -> a [label="x / o"];', 'b -> a [label="y / o"];']


def test_gen_rebeca_emits_companion_property_file(workdir, tmp_path):
    annotated = str(tmp_path / "a.dot")
    run("annotate", "--model", str(workdir / "model.dot"),
        "--cpm", str(workdir / "map.cpm"), "--out", annotated)
    props = tmp_path / "model.property"
    assert run("gen-rebeca", "--annotated", annotated,
               "--cpm", str(workdir / "map.cpm"),
               "--out", str(tmp_path / "model.rebeca"),
               "--properties-out", str(props)) == 0
    from protocheck import parse_property_file
    parsed = parse_property_file(props.read_text())
    assert "no_invalid_key" in parsed


def test_check_with_property_file_matches_builtin(workdir, tmp_path):
    from protocheck.fixtures import fixture_text
    annotated = str(tmp_path / "a.dot")
    expanded = str(tmp_path / "e.dot")
    cpm = str(workdir / "map.cpm")
    run("annotate", "--model", str(workdir / "model.dot"), "--cpm", cpm,
        "--out", annotated)
    run("expand", "--annotated", annotated, "--cpm", cpm, "--out", expanded)
    props = tmp_path / "generic.properties"
    props.write_text(fixture_text("generic.properties"))
    r_builtin = tmp_path / "r1.json"
    r_file = tmp_path / "r2.json"
    assert run("check", "--expanded", expanded, "--cpm", cpm,
               "--report", str(r_builtin)) == 0
    assert run("check", "--expanded", expanded, "--cpm", cpm,
               "--properties", str(props), "--report", str(r_file)) == 0
    b = json.loads(r_builtin.read_text())
    f = json.loads(r_file.read_text())
    assert {e["name"]: e["verdict"] for e in b["properties"]} == \
        {e["name"]: e["verdict"] for e in f["properties"]}


def test_pipeline_learns_mutates_and_replays(workdir):
    config = workdir / "uds_pipeline.json"
    out_dir = workdir / "uds_out"
    config.write_text(json.dumps({
        "sul": "uds",
        "cpm": str(workdir / "uds.cpm"),
        "out_dir": str(out_dir),
        "seed": 13,
        "learner": {"algorithm": "lstar", "oracle": "random-walk",
                    "min_len": 20, "max_len": 50, "num_tests": 50},
        "mutation": {"enabled": True, "probability": 0.2},
    }))
    assert run("pipeline", "--config", str(config)) == 0
    report = json.loads((out_dir / "report.json").read_text())
    verdicts = {e["name"]: e["verdict"] for e in report["properties"]}
    assert verdicts["no_invalid_key"] == "VIOLATED"
    replayed = json.loads((out_dir / "replay.json").read_text())
    assert replayed["diverged"] == 0          # confirmed on the same system
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["stages"]["learn"]["proven"] is True
    assert manifest["stages"]["gen-rebeca"]["mutated"] is True
    # mutated collapse keeps both outcomes
    assert "timeout" in (out_dir / "collapsed.dot").read_text()
    assert "model.property" in {p.name for p in out_dir.iterdir()}


@pytest.mark.parametrize("config,key", [
    ({"model": "model.dot"}, '"cpm"'),
    ({"cpm": "map.cpm"}, '"sul" or "model"'),
    ({"cpm": "map.cpm", "out_dir": "out", "seed": 1}, '"sul" or "model"'),
])
def test_pipeline_config_without_a_required_key_exits_64(workdir, capsys, config, key):
    path = workdir / "pipeline.json"
    path.write_text(json.dumps(config))
    assert run("pipeline", "--config", str(path)) == 64
    assert capsys.readouterr().err == f"protocheck: error: pipeline config lacks {key}\n"
    assert not (workdir / "out").exists()


def test_pipeline_with_a_missing_map_exits_64_before_learning(workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    learned = []
    monkeypatch.setattr(cli, "_learn", lambda *a: learned.append(a))
    (workdir / "pipeline.json").write_text(json.dumps(
        {"sul": "uds", "cpm": "nosuch.cpm", "out_dir": "out"}))
    assert run("pipeline", "--config", "pipeline.json") == 64
    err = capsys.readouterr().err
    assert err.startswith("protocheck: error: ") and "nosuch.cpm" in err
    assert err.count("\n") == 1
    assert learned == []
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("config,message", [
    (5, "pipeline config must be a JSON object"),
    ({"model": "model.dot", "cpm": "map.cpm", "out_dir": "out", "learner": "lstar"},
     'pipeline config "learner" must be an object'),
    ({"model": "model.dot", "cpm": "map.cpm", "out_dir": "out", "mutation": True},
     'pipeline config "mutation" must be an object'),
    ({"model": "model.dot", "cpm": "map.cpm", "out_dir": "out", "state_ceiling": "big"},
     'pipeline config "state_ceiling" must be a positive integer'),
    ({"model": "model.dot", "cpm": "map.cpm", "out_dir": "out", "state_ceiling": 0},
     'pipeline config "state_ceiling" must be a positive integer'),
    ({"model": "model.dot", "cpm": "map.cpm", "out_dir": "out", "unroll": "x"},
     'pipeline config "unroll" must be a positive integer'),
    ({"model": "model.dot", "cpm": "map.cpm", "out_dir": "out", "unroll": True},
     'pipeline config "unroll" must be a positive integer'),
    ({"sul": "uds", "cpm": "map.cpm", "out_dir": "out", "learner": {"min_len": 0}},
     'pipeline config "learner.min_len" must be a positive integer'),
    ({"sul": "uds", "cpm": "map.cpm", "out_dir": "out", "learner": {"max_len": 2.5}},
     'pipeline config "learner.max_len" must be a positive integer'),
    ({"sul": "uds", "cpm": "map.cpm", "out_dir": "out", "learner": {"num_tests": None}},
     'pipeline config "learner.num_tests" must be a positive integer'),
    ({"model": "model.dot", "cpm": "map.cpm", "out_dir": "out", "seed": "1"},
     'pipeline config "seed" must be an integer'),
    ({"model": "model.dot", "cpm": "map.cpm", "out_dir": 5},
     'pipeline config "out_dir" must be a string'),
    ({"sul": "uds", "cpm": "map.cpm", "out_dir": "out", "learner": {"oracle": "exactt"}},
     'pipeline config "learner.oracle" must be "exact" or "random-walk"'),
    ({"sul": "uds", "cpm": "map.cpm", "out_dir": "out", "learner": {"algorithm": "ttt"}},
     'pipeline config "learner.algorithm" must be "lstar"'),
    ({"sul": "uds", "cpm": 5, "out_dir": "out"}, 'pipeline config "cpm" must be a string'),
    ({"sul": 5, "cpm": "map.cpm", "out_dir": "out"}, 'pipeline config "sul" must be a string'),
    ({"model": 5, "cpm": "map.cpm", "out_dir": "out"},
     'pipeline config "model" must be a string'),
    ({"sul": "uds", "cpm": "map.cpm", "out_dir": "out", "properties": 5},
     'pipeline config "properties" must be a string'),
    ({"sul": "uds", "cpm": "map.cpm", "out_dir": "out", "mutation": {"enabled": "false"}},
     'pipeline config "mutation.enabled" must be a boolean'),
], ids=["number", "learner", "mutation", "ceiling-text", "ceiling-zero", "unroll-text",
        "unroll-bool", "min-len", "max-len", "num-tests", "seed", "out-dir", "oracle",
        "algorithm", "cpm", "sul", "model", "properties", "mutation-enabled"])
def test_pipeline_config_of_the_wrong_shape_exits_64(workdir, capsys, monkeypatch,
                                                     config, message):
    monkeypatch.chdir(workdir)
    path = workdir / "pipeline.json"
    path.write_text(json.dumps(config))
    assert run("pipeline", "--config", str(path)) == 64
    assert capsys.readouterr().err == f"protocheck: error: {message}\n"
    assert not (workdir / "out").exists()
    assert not (workdir / "pipeline-out").exists()


def deep_check(workdir, conjuncts: int, in_process: bool):
    """``check`` on the uds model of one property G(!INVKEYOK && ...) that
    nests ``conjuncts`` + 1 operators: (exit code, stdout, stderr)."""
    cpm = parse_cpm(fixture_text("uds.cpm"))
    expanded = expand_tau(annotate(build_uds_machine()[0], cpm), cpm)
    (workdir / "expanded.dot").write_text(emit_annotated_dot(expanded))
    (workdir / "deep.txt").write_text(
        "# one deep property\ndeep: G(" + " && ".join(["!INVKEYOK"] * conjuncts) + ")\n")
    argv = ["check", "--expanded", str(workdir / "expanded.dot"),
            "--cpm", str(workdir / "uds.cpm"), "--properties", str(workdir / "deep.txt")]
    if in_process:
        return run(*argv), None, None
    src = str(Path(protocheck.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "protocheck.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    return proc.returncode, proc.stdout, proc.stderr


def test_a_1000_conjunct_property_exits_64_with_one_line(workdir):
    code, out, err = deep_check(workdir, 1000, in_process=False)
    assert (code, out) == (64, "")
    assert err == ("protocheck: error: line 2: formula nests 1001 operators deep, "
                   "more than 200\n")


@pytest.mark.parametrize("in_process", [True, False])
def test_a_200_deep_property_gets_a_verdict(workdir, capsys, in_process):
    code, out, err = deep_check(workdir, 199, in_process)
    if in_process:
        out, err = capsys.readouterr()
    assert (code, out, err) == (2, "deep: VIOLATED\n", "")


@pytest.mark.parametrize("command,message", [
    ("explore", "state ceiling exceeded (5 nodes)"),
    ("check", "product state ceiling exceeded (5)"),
])
def test_a_reached_ceiling_exits_4_with_one_line(workdir, command, message):
    """A resource ceiling has its own exit code: neither the round-trip
    failure of ``explore`` nor the usage error of ``check``."""
    cpm = parse_cpm(fixture_text("uds.cpm"))
    annotated = annotate(build_uds_machine()[0], cpm)
    (workdir / "annotated.dot").write_text(emit_annotated_dot(annotated))
    (workdir / "expanded.dot").write_text(emit_annotated_dot(expand_tau(annotated, cpm)))
    argv = {"explore": ["--annotated", "annotated.dot", "--out", "lts.dot"],
            "check": ["--expanded", "expanded.dot", "--report", "report.json"]}[command]
    assert cli_process(workdir, command, *argv, "--cpm", "uds.cpm", "--max-nodes", "5") == (
        4, "", f"protocheck: error: {message}\n")
    assert not (workdir / "lts.dot").exists() and not (workdir / "report.json").exists()


def test_a_weak_stem_search_past_the_ceiling_exits_4_with_one_line(workdir):
    """G F p on a ten-state ring where p never holds: the label quotient
    shows a component within the ceiling, and the full product's stem search
    needs 19 states before the ten-state loop closes (see
    ``test_witness.py``), so 18 stops it and 19 gives the verdict."""
    ring = "".join(f"  r{i} [label=\"r{i} {{}}\"];\n  r{i} -> r{(i + 1) % 10} [label=\"a / o\"];\n"
                   for i in range(10))
    (workdir / "ring.dot").write_text(f"digraph annotated {{\n  __start -> r0;\n{ring}}}\n")
    (workdir / "ring.cpm").write_text("[GAINS]\np | a | x\n")
    (workdir / "ring.ltl").write_text("fair: G F p\n")
    argv = ["check", "--expanded", "ring.dot", "--cpm", "ring.cpm", "--properties",
            "ring.ltl", "--report", "report.json", "--max-nodes"]
    assert cli_process(workdir, *argv, "18") == (
        4, "", "protocheck: error: product state ceiling exceeded (18)\n")
    assert not (workdir / "report.json").exists()
    assert cli_process(workdir, *argv, "19") == (2, "fair: VIOLATED\n", "")


# ---------------------------------------------------------------------------
# The failure contract: one exit code per meaning, one line, no traceback
# ---------------------------------------------------------------------------

# package functions replaced before ``main`` runs in a fresh interpreter
BREAK_ROUND_TRIP = ("from protocheck import cli, statespace\n"
                    "cli.compare_roundtrip = lambda *args: "
                    "statespace.RoundtripReport(False, 'broken on purpose', 0)")
BREAK_WITNESS_CHECK = ("import protocheck.ltl as ltl\n"
                       "ltl.evaluate_on_lasso = lambda *args: True")

# a state space whose request node issues an input instead
ILL_FORMED_LTS_DOT = """digraph bad {
  __start -> n0;
  n0 [label="q=s; props=; temps="];
  n1 [label="q=s; props=; temps="];
  n0 -> n1 [label=x];
}
"""


CLASHING_MACHINE = MealyMachine(("q",), ("A.B", "A-B"), ("o",), "q",
                                {("q", "A.B"): ("q", "o"), ("q", "A-B"): ("q", "o")})
CLASH = "input symbols 'A.B' and 'A-B' map to the same identifier 'pp_a_b'"
# an input named like the environment's request message
RESERVED_MACHINE = MealyMachine(("s",), ("req",), ("o",), "s", {("s", "req"): ("s", "o")})
RESERVED = "alphabet symbols collide with reserved message names: ['req']"


@pytest.fixture()
def exit_dir(tmp_path):
    """Inputs for one run per exit code: the uds model at each stage, its
    emitted tests, and one ill-formed input per reproduced escape."""
    machine = build_uds_machine()[0]
    cpm = parse_cpm(fixture_text("uds.cpm"))
    annotated = annotate(machine, cpm)
    files = {
        "uds.cpm": fixture_text("uds.cpm"),
        "uds.dot": emit_dot(machine),
        "annotated.dot": emit_annotated_dot(annotated),
        "expanded.dot": emit_annotated_dot(expand_tau(annotated, cpm)),
        "model.json": json.dumps({"model": "uds.dot", "cpm": "uds.cpm", "out_dir": "out"}),
        "ill-formed-lts.dot": ILL_FORMED_LTS_DOT,
        "no-inputs.jsonl": '{"inputs": [], "expected": []}\n{"expected": []}\n',
        "uneven.jsonl": '{"inputs": ["a"], "expected": []}\n',
        "no-inputs-report.json": json.dumps(
            {"properties": [{"name": "p", "test": {"expected": []}}]}),
        "list-report.json": "[]",
        "nameless-report.json": json.dumps(
            {"properties": [{"test": {"inputs": [], "expected": []}}]}),
        "string-provenance.jsonl": '{"inputs": [], "expected": [], "provenance": "s0"}\n',
        "empty.cpm": "[GAINS]\n[LOSES]\n[TAUS]\n",
        "req.dot": emit_annotated_dot(annotate(RESERVED_MACHINE,
                                               parse_cpm("[GAINS]\n[LOSES]\n[TAUS]\n"))),
        "req-model.dot": emit_dot(RESERVED_MACHINE),
        # two inputs that map to one Rebeca identifier
        "clash.dot": emit_dot(CLASHING_MACHINE),
        "clash-annotated.dot": emit_annotated_dot(
            annotate(CLASHING_MACHINE, parse_cpm("[GAINS]\n[LOSES]\n[TAUS]\n"))),
        "bad.ltl": "p1: G(\n",
        "ceiling.json": json.dumps(
            {"sul": "uds", "cpm": "uds.cpm", "out_dir": "out", "state_ceiling": 3}),
        "leaky.json": json.dumps({"sul": "helpers:leaky_nonce_sul", "cpm": "uds.cpm",
                                  "out_dir": "out", "learner": {"oracle": "random-walk"}}),
        "clash.json": json.dumps({"model": "clash.dot", "cpm": "empty.cpm", "out_dir": "out"}),
        "req.json": json.dumps({"model": "req-model.dot", "cpm": "empty.cpm", "out_dir": "out"}),
        "bad-property.json": json.dumps(
            {"model": "uds.dot", "cpm": "uds.cpm", "out_dir": "out", "properties": "bad.ltl"}),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "records").mkdir()
    assert run("check", "--expanded", str(tmp_path / "expanded.dot"),
               "--cpm", str(tmp_path / "uds.cpm"), "--report", str(tmp_path / "report.json")) == 2
    assert run("emit-test", "--report", str(tmp_path / "report.json"),
               "--out", str(tmp_path / "tests.jsonl")) == 0
    return tmp_path


def error_line(message: str) -> str:
    return re.escape(f"protocheck: error: {message}")


REPORT_SHAPE = ('report is not an object whose "properties" lists objects with a string '
                '"name" and an object "test"')

# (exit code, argv, pattern of the one stderr line or None for none,
#  prelude, interpreter flags)
EXIT_CASES = [
    pytest.param(0, ["explore", "--annotated", "annotated.dot", "--cpm", "uds.cpm",
                     "--out", "lts.dot"], r"\d+ nodes, \d+ edges", "", (), id="0-success"),
    pytest.param(1, ["pipeline", "--config", "model.json"], "round-trip FAILED",
                 BREAK_ROUND_TRIP, (), id="1-round-trip-failure"),
    # violations and divergences are results: their verdicts go to stdout
    pytest.param(2, ["check", "--expanded", "expanded.dot", "--cpm", "uds.cpm"], None, "", (),
                 id="2-violations"),
    pytest.param(3, ["replay", "--tests", "tests.jsonl", "--sul", "uds-patched"], None, "", (),
                 id="3-divergence"),
    pytest.param(4, ["check", "--expanded", "expanded.dot", "--cpm", "uds.cpm",
                     "--max-nodes", "5"], error_line("product state ceiling exceeded (5)"),
                 "", (), id="4-ceiling"),
    pytest.param(5, ["learn", "--sul", "helpers:leaky_nonce_sul", "--oracle", "random-walk",
                     "--out", "m.dot"], error_line("system answered ") + ".*READ_SERIAL.*",
                 "", (), id="5-learning-failed"),
    # a pipeline that fails with 4 or above writes nothing, out_dir included
    pytest.param(4, ["pipeline", "--config", "ceiling.json"],
                 error_line("state ceiling exceeded (3 nodes)"), "", (),
                 id="4-pipeline-ceiling"),
    pytest.param(5, ["pipeline", "--config", "leaky.json"],
                 error_line("system answered ") + ".*READ_SERIAL.*", "", (),
                 id="5-pipeline-learning-failed"),
    pytest.param(64, ["pipeline", "--config", "clash.json"], error_line(CLASH), "", (),
                 id="64-pipeline-identifier-clash"),
    pytest.param(64, ["pipeline", "--config", "bad-property.json"],
                 error_line("line 1: syntax error at position 3: unexpected ''"), "", (),
                 id="64-pipeline-malformed-property-file"),
    pytest.param(64, ["explore", "--annotated", "clash-annotated.dot", "--cpm", "empty.cpm",
                      "--out", "lts.dot"], error_line(CLASH), "", (),
                 id="64-explore-identifier-clash"),
    pytest.param(64, ["collapse", "--lts", "ill-formed-lts.dot", "--out", "c.dot"],
                 error_line("ill-formed transition system: node 0 should only issue requests"),
                 "", (), id="64-ill-formed-lts"),
    pytest.param(64, ["explore", "--annotated", "req.dot", "--cpm", "empty.cpm",
                      "--out", "lts.dot"], error_line(RESERVED), "", (), id="64-reserved-input"),
    # refused by every stage that makes the actor model, not by explore alone
    pytest.param(64, ["gen-rebeca", "--annotated", "req.dot", "--cpm", "empty.cpm",
                      "--out", "model.rebeca"], error_line(RESERVED), "", (),
                 id="64-gen-rebeca-reserved-input"),
    pytest.param(64, ["verify-roundtrip", "--model", "req-model.dot", "--cpm", "empty.cpm"],
                 error_line(RESERVED), "", (), id="64-verify-roundtrip-reserved-input"),
    pytest.param(64, ["pipeline", "--config", "req.json"], error_line(RESERVED), "", (),
                 id="64-pipeline-reserved-input"),
    pytest.param(64, ["replay", "--tests", "no-inputs.jsonl", "--sul", "uds"],
                 error_line('line 2: test record has no list "inputs"'), "", (),
                 id="64-record-without-inputs"),
    pytest.param(64, ["emit-test", "--report", "no-inputs-report.json", "--out", "t.jsonl"],
                 error_line('test record has no list "inputs"'), "", (),
                 id="64-report-test-without-inputs"),
    pytest.param(64, ["emit-test", "--report", "list-report.json", "--out", "t.jsonl"],
                 error_line(REPORT_SHAPE), "", (), id="64-report-a-list"),
    pytest.param(64, ["emit-test", "--report", "nameless-report.json", "--out", "t.jsonl"],
                 error_line(REPORT_SHAPE), "", (), id="64-report-test-without-name"),
    pytest.param(64, ["replay", "--tests", "string-provenance.jsonl", "--sul", "uds"],
                 error_line('line 1: test record "provenance" is not an object'), "", (),
                 id="64-record-provenance-a-string"),
    # argparse's own errors: one line, without the usage block
    pytest.param(64, ["learn", "--bogus"],
                 re.escape("protocheck learn: error: the following arguments are required: "
                           "--sul, --out"), "", (), id="64-usage-missing-arguments"),
    pytest.param(64, ["learn", "--sul", "uds", "--out", "m.dot", "--bogus"],
                 error_line("unrecognized arguments: --bogus"), "", (),
                 id="64-usage-unknown-flag"),
    pytest.param(64, ["replay", "--tests", "uneven.jsonl", "--sul", "uds"],
                 error_line("line 1: inputs and expected outputs must have equal length"),
                 "", (), id="64-record-of-uneven-lengths"),
    pytest.param(64, ["replay", "--tests", "records", "--sul", "uds"],
                 error_line("[Errno ") + r"\d+\] .*'records'", "", (),
                 id="64-tests-a-directory"),
    pytest.param(64, ["learn", "--sul", "protocheck.mapper:MappedSul", "--oracle",
                      "random-walk", "--out", "m.dot"],
                 error_line("system 'protocheck.mapper:MappedSul' could not be built: ")
                 + r".*missing 2 required positional arguments.*", "", (),
                 id="64-factory-needs-arguments"),
    pytest.param(64, ["learn", "--sul", "protocheck.learning:build_uds_machine", "--oracle",
                      "random-walk", "--out", "m.dot"],
                 error_line("system 'protocheck.learning:build_uds_machine' returned neither "
                            "a SulInterface nor a (SulInterface, MealyMachine) pair"),
                 "", (), id="64-factory-returns-no-system"),
    pytest.param(70, ["check", "--expanded", "expanded.dot", "--cpm", "uds.cpm",
                      "--report", "r.json"],
                 re.escape("protocheck: internal error: AssertionError: witness fails to "
                           "falsify ") + ".*",
                 BREAK_WITNESS_CHECK, ("-O",), id="70-internal-error-under-O"),
]


@pytest.mark.parametrize("code,argv,stderr,prelude,flags", EXIT_CASES)
def test_each_exit_code_ends_in_at_most_one_line_and_no_traceback(exit_dir, code, argv,
                                                                  stderr, prelude, flags):
    before = set(exit_dir.iterdir())
    got, _, err = cli_process(exit_dir, *argv, flags=flags, prelude=prelude)
    assert got == code, err
    assert "Traceback" not in err
    if stderr is None:
        assert err == ""
    else:
        assert err.count("\n") == 1 and re.fullmatch(stderr + "\n", err), err
    if code >= cli.EXIT_CEILING:
        assert set(exit_dir.iterdir()) == before


def test_a_witness_the_direct_semantics_accept_is_an_internal_error(exit_dir, monkeypatch,
                                                                   capsys):
    """The witness check raises, not asserts, so it also fires under -O."""
    from protocheck import ltl

    monkeypatch.setattr(ltl, "evaluate_on_lasso", lambda *args: True)
    monkeypatch.chdir(exit_dir)
    capsys.readouterr()
    assert run("check", "--expanded", "expanded.dot", "--cpm", "uds.cpm",
               "--report", "r.json") == 70
    err = capsys.readouterr().err
    assert err.startswith("protocheck: internal error: AssertionError: witness fails to "
                          "falsify ")
    assert err.count("\n") == 1
    assert not (exit_dir / "r.json").exists()


ERROR_CLASSES = [
    (CeilingError("c"), 4), (LearnError("l"), 5), (SulNondeterminismError("s"), 5),
    (LtlError("l"), 64), (MachineError("m"), 64), (CpmError("c"), 64),
    (ActorGenError("a"), 64), (json.JSONDecodeError("j", "", 0), 64),
    (FileNotFoundError("f"), 64), (IsADirectoryError("d"), 64), (StateSpaceError("s"), 64),
    (TestKitError("t"), 64), (OracleBudgetError("o"), 70), (RuntimeError("r"), 70),
    (KeyError("k"), 70), (TypeError("t"), 70), (AttributeError("a"), 70),
    (RecursionError("r"), 70), (AssertionError("a"), 70),
]


def error_class_id(value) -> str:
    return type(value).__name__ if isinstance(value, Exception) else str(value)


@pytest.mark.parametrize("error,code", ERROR_CLASSES, ids=error_class_id)
def test_each_error_class_exits_with_its_one_code(monkeypatch, capsys, error, code):
    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_collapse", failing)
    assert run("collapse", "--lts", "lts.dot", "--out", "c.dot") == code
    err = capsys.readouterr().err
    kind = "error" if code != 70 else f"internal error: {type(error).__name__}"
    assert err == f"protocheck: {kind}: {error}\n"


def test_exit_1_is_reached_only_through_a_failed_round_trip():
    """No error class maps to 1, no two meanings share a code, and the
    round-trip code is returned only where a round trip failed."""
    codes = {name: value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert len(set(codes.values())) == len(codes) == 8
    assert cli.EXIT_ROUNDTRIP not in cli._EXIT_CODES.values()
    uses = [line.strip() for line in inspect.getsource(cli).splitlines()
            if "EXIT_ROUNDTRIP" in line]
    assert uses == ["EXIT_ROUNDTRIP = 1",
                    "return EXIT_OK if report.passed else EXIT_ROUNDTRIP",
                    "return EXIT_ROUNDTRIP"]
    assert "return 1" not in inspect.getsource(cli)


# ---------------------------------------------------------------------------
# The cyclic collector: paused while the program's stages run, as the caller
# had it while the system's code runs and after every exit
# ---------------------------------------------------------------------------

@pytest.fixture(params=[True, False], ids=["caller-collects", "caller-paused"])
def caller_collects(request):
    """Whether the caller of ``main`` has the cyclic collector on."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_a_program_stage_runs_with_the_collector_paused(caller_collects, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_collapse", lambda args: seen.append(gc.isenabled()) or 0)
    assert run("collapse", "--lts", "lts.dot", "--out", "c.dot") == 0
    assert seen == [False]
    assert gc.isenabled() is caller_collects


@pytest.mark.parametrize("argv", [
    ["learn", "--sul", "helpers:collector_recording_sul", "--oracle", "random-walk",
     "--out", "m.dot"],
    ["pipeline", "--config", "recording.json"],
    ["replay", "--tests", "tests.jsonl", "--sul", "helpers:collector_recording_sul"],
], ids=["learn", "pipeline", "replay"])
def test_the_systems_code_runs_with_the_collector_as_the_caller_had_it(
        exit_dir, monkeypatch, caller_collects, argv):
    """A plug-in's factory, reset and step run with the collector on when
    the caller had it on: plug-in code may build reference cycles."""
    import helpers

    (exit_dir / "recording.json").write_text(json.dumps(
        {"sul": "helpers:collector_recording_sul", "cpm": "uds.cpm", "out_dir": "out"}))
    monkeypatch.chdir(exit_dir)
    helpers.COLLECTOR_STATES.clear()
    assert run(*argv) == 0
    assert len(helpers.COLLECTOR_STATES) > 2
    assert set(helpers.COLLECTOR_STATES) == {caller_collects}
    assert gc.isenabled() is caller_collects


@pytest.mark.parametrize("argv,code", [
    (["explore", "--annotated", "annotated.dot", "--cpm", "uds.cpm", "--out", "lts.dot"], 0),
    (["check", "--expanded", "expanded.dot", "--cpm", "uds.cpm"], 2),
    (["--help"], 0), (["collapse", "--lts"], 64),
], ids=["exit-0", "exit-2", "help", "usage-error"])
def test_the_collector_is_as_the_caller_had_it_after_a_run(exit_dir, monkeypatch,
                                                           caller_collects, argv, code):
    """Also after argument parsing exits, which come before the pause."""
    monkeypatch.chdir(exit_dir)
    assert run(*argv) == code
    assert gc.isenabled() is caller_collects


@pytest.mark.parametrize("error,code", ERROR_CLASSES, ids=error_class_id)
def test_the_collector_is_put_back_after_each_error_class(monkeypatch, caller_collects,
                                                         error, code):
    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_collapse", failing)
    assert run("collapse", "--lts", "lts.dot", "--out", "c.dot") == code
    assert gc.isenabled() is caller_collects


def seeded_model(states: int) -> str:
    """A seeded machine of ``states`` states, all reachable along input a."""
    rng = random.Random(states)
    names = [f"q{i}" for i in range(states)]
    transitions = {}
    for i, q in enumerate(names):
        transitions[(q, "a")] = (names[(i + 1) % states], rng.choice(("ok", "err")))
        for a in ("b", "c"):
            transitions[(q, a)] = (rng.choice(names), rng.choice(("ok", "err")))
    return emit_dot(MealyMachine(tuple(names), ("a", "b", "c"), ("ok", "err"), names[0],
                                 transitions))


SEEDED_MAP = """[GAINS]
AUTH | a | ok
PROT | b | ok
[LOSES]
AUTH | b | err
PROT | a | err
[TAUS]
ACCESSOK | c | ok
INVKEYOK | c | err
"""


def garbage_of(*argv) -> list:
    """The objects one run of ``main`` leaves that only the cyclic collector
    frees, found with the collector off throughout."""
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run(*argv)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return gc.garbage[:]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        (gc.enable if was else gc.disable)()


def test_the_stages_leave_no_reference_cycles_that_grow_with_the_model(tmp_path):
    """The pause is safe because reference counting frees what the stages
    build: a run leaves the same few cycles whatever the model's size, none
    of them a protocheck object, and the state-space stages and the check
    leave none."""
    (tmp_path / "map.cpm").write_text(SEEDED_MAP)
    for states in (8, 200):
        (tmp_path / f"m{states}.dot").write_text(seeded_model(states))
        (tmp_path / f"c{states}.json").write_text(json.dumps({
            "model": str(tmp_path / f"m{states}.dot"), "cpm": str(tmp_path / "map.cpm"),
            "out_dir": str(tmp_path / f"out{states}")}))
    # the first call builds the cached parser, whose cycles are left once
    run("pipeline", "--config", str(tmp_path / "c8.json"))
    small, large = (garbage_of("pipeline", "--config", str(tmp_path / f"c{states}.json"))
                    for states in (8, 200))
    assert len(small) == len(large)
    assert not [obj for obj in small + large
                if type(obj).__module__.startswith("protocheck")]
    out = tmp_path / "out200"
    for argv in (
            ["explore", "--annotated", out / "annotated.dot", "--cpm", tmp_path / "map.cpm",
             "--out", tmp_path / "lts.dot"],
            ["collapse", "--lts", out / "lts.dot", "--out", tmp_path / "collapsed.dot"],
            ["check", "--expanded", out / "expanded.dot", "--cpm", tmp_path / "map.cpm"],
            ["verify-roundtrip", "--model", tmp_path / "m200.dot",
             "--cpm", tmp_path / "map.cpm"]):
        assert garbage_of(*map(str, argv)) == [], argv[0]

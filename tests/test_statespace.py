"""Actor state-space exploration, collapse and the round-trip check."""

import dataclasses
import random

import pytest

from protocheck import (ActorGenError, CeilingError, MealyMachine, TIMEOUT_PROP,
                        annotate, apply_timeout_mutation, build_emrtd_machine,
                        build_ir, build_uds_machine, collapse, emit_lts_dot,
                        explore, parse_lts_dot, verify_roundtrip)
from protocheck.cpm import Cpm
from protocheck.statespace import (StateSpaceError, compare_roundtrip,
                                   kripke_from_collapsed)
from helpers import random_machine, random_cpm, with_transition


def two_state_ir(two_state_annotated, two_state_cpm):
    return build_ir(two_state_annotated, two_state_cpm)


# ---------------------------------------------------------------------------
# exploration
# ---------------------------------------------------------------------------

def test_explore_two_state_shape(two_state_annotated, two_state_cpm):
    lts = explore(build_ir(two_state_annotated, two_state_cpm))
    assert len(lts.nodes) <= 12
    ready = [n for n in lts.nodes if n.phase == "ready"]
    assert {n.q for n in ready} == {"q1", "q2"}       # two macro states
    labels = {label for _, label, _ in lts.edges}
    assert labels == {"req", "sigma1", "omega1", "omega2"}
    # the cycle is req -> input -> output -> req ...
    by_idx = {n.index: n for n in lts.nodes}
    for src, label, dst in lts.edges:
        order = {"req": "ready", "sigma1": "out"}
        if label in order:
            assert by_idx[dst].phase == order[label]


def test_explore_single_state_machine_is_one_macro_cycle():
    m = MealyMachine(("s",), ("a",), ("o",), "s", {("s", "a"): ("s", "o")})
    lts = explore(build_ir(annotate(m, Cpm()), Cpm()))
    assert len(lts.nodes) == 3      # request pending, ready, output pending
    assert len(lts.edges) == 3


def test_explore_deterministic(two_state_annotated, two_state_cpm):
    first = explore(build_ir(two_state_annotated, two_state_cpm))
    second = explore(build_ir(two_state_annotated, two_state_cpm))
    assert first == second


def test_explore_node_ceiling(two_state_annotated, two_state_cpm):
    with pytest.raises(CeilingError, match=r"^state ceiling exceeded \(3 nodes\)$"):
        explore(build_ir(two_state_annotated, two_state_cpm), max_nodes=3)


def test_explore_rejects_reserved_message_names():
    # refused where the actor model is made, so the emitter never sees it
    m = MealyMachine(("s",), ("req",), ("o",), "s", {("s", "req"): ("s", "o")})
    with pytest.raises(ActorGenError, match="reserved"):
        explore(build_ir(annotate(m, Cpm()), Cpm()))


@pytest.mark.parametrize("seed", range(8))
def test_explore_node_count_bound(seed):
    rng = random.Random(777 + seed)
    machine = random_machine(rng, max_states=6, max_inputs=4)
    cpm = random_cpm(rng, machine)
    ir = build_ir(annotate(machine, cpm), cpm)
    lts = explore(ir)
    bound = (len(machine.inputs) + 2) * len(machine.states) * 2 ** len(ir.temp_props)
    assert len(lts.nodes) <= bound


def test_explore_mutated_adds_timeout_edges(two_state_annotated, two_state_cpm):
    ir = apply_timeout_mutation(build_ir(two_state_annotated, two_state_cpm))
    lts = explore(ir)
    by_idx = {n.index: n for n in lts.nodes}
    timeout_edges = [(s, d) for s, label, d in lts.edges if label == "timeout"]
    assert timeout_edges
    for _, dst in timeout_edges:
        node = by_idx[dst]
        assert node.q == "q1"                    # back to the initial state
        assert TIMEOUT_PROP in node.temps
    ready = [n for n in lts.nodes if n.phase == "ready"]
    for node in ready:
        for sym in ("sigma1",):
            targets = [d for s, label, d in lts.edges
                       if s == node.index and label == sym]
            assert any(by_idx[t].phase == "timeout" for t in targets)
            assert any(by_idx[t].phase == "out" for t in targets)


# ---------------------------------------------------------------------------
# collapse
# ---------------------------------------------------------------------------

def test_collapse_two_state_identity(two_state_annotated, two_state_cpm):
    lts = explore(build_ir(two_state_annotated, two_state_cpm))
    model = collapse(lts)
    assert model.is_deterministic()
    report = compare_roundtrip(two_state_annotated, two_state_cpm, lts, model)
    assert report.passed and report.message == "PASS"


def test_collapse_single_state_identity():
    m = MealyMachine(("s",), ("a",), ("o",), "s", {("s", "a"): ("s", "o")})
    model = collapse(explore(build_ir(annotate(m, Cpm()), Cpm())))
    assert model.states == ("s",)
    assert model.transitions[("s", "a")] == (("s", "o", frozenset()),)


def test_collapse_mutated_is_nondeterministic(two_state_annotated, two_state_cpm):
    ir = apply_timeout_mutation(build_ir(two_state_annotated, two_state_cpm))
    model = collapse(explore(ir))
    assert not model.is_deterministic()
    for (q, sym), outcomes in model.transitions.items():
        assert len(outcomes) == 2               # normal plus timeout branch
        kinds = {out for _, out, _ in outcomes}
        assert "timeout" in kinds
    with pytest.raises(StateSpaceError, match="nondeterministic"):
        model.to_annotated()


def test_collapse_recovers_temporaries(two_state_annotated, two_state_cpm):
    model = collapse(explore(build_ir(two_state_annotated, two_state_cpm)))
    ((_, out, temps),) = model.transitions[("q2", "sigma1")]
    assert out == "omega2" and temps == frozenset({"omega2set"})
    recovered = model.to_annotated()
    assert len(recovered.tau_states) == 1
    (tau,) = recovered.tau_states
    assert recovered.label(tau) == frozenset({"p"})   # source-state labels


def test_kripke_from_collapsed_matches_expanded_view(two_state_annotated, two_state_cpm):
    from protocheck import expand_tau, kripke_from_annotated
    model = collapse(explore(build_ir(two_state_annotated, two_state_cpm)))
    k = kripke_from_collapsed(model)
    expanded = expand_tau(two_state_annotated, two_state_cpm)
    k_direct = kripke_from_annotated(expanded)
    assert len(k.states) == len(k_direct.states)
    assert sorted(map(sorted, k.labels.values())) == \
        sorted(map(sorted, k_direct.labels.values()))


def collapsed_view_cases():
    from protocheck import parse_cpm
    from protocheck.fixtures import fixture_text

    cases = [pytest.param(build()[0], parse_cpm(fixture_text(f"{name}.cpm")), id=name)
             for build, name in ((build_uds_machine, "uds"), (build_emrtd_machine, "emrtd"))]
    seed = 5200
    while len(cases) < 32:
        rng = random.Random(seed)
        machine = random_machine(rng, max_states=6, max_inputs=4)
        cpm = random_cpm(rng, machine)
        if cpm.taus:
            cases.append(pytest.param(machine, cpm, id=f"seed-{seed}"))
        seed += 1
    return cases


@pytest.mark.parametrize("machine,cpm", collapsed_view_cases())
def test_the_collapsed_view_names_internal_states_as_collapsed_dot_does(machine, cpm):
    """The Kripke view of a collapsed model is the view of the annotated
    machine that ``collapsed.dot`` is written from: the same internal-state
    names, successors, labels and propositions."""
    from protocheck import kripke_from_annotated
    model = collapse(explore(build_ir(annotate(machine, cpm), cpm)))
    declared = cpm.declared_props
    k = kripke_from_collapsed(model, declared)
    k_dot = kripke_from_annotated(model.to_annotated(), declared)
    assert (k.states, k.initial, k.successors, k.labels, k.atomic_props) == \
        (k_dot.states, k_dot.initial, k_dot.successors, k_dot.labels, k_dot.atomic_props)


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

def test_roundtrip_two_state(two_state_annotated, two_state_cpm):
    report = verify_roundtrip(two_state_annotated, two_state_cpm)
    assert report.passed and report.message == "PASS"


def test_roundtrip_case_studies(emrtd_cpm, uds_cpm):
    for build, cpm in ((build_emrtd_machine, emrtd_cpm),
                       (build_uds_machine, uds_cpm)):
        machine, _ = build()
        report = verify_roundtrip(annotate(machine, cpm), cpm)
        assert report.passed, report.message


def test_roundtrip_empty_map(two_state_machine):
    report = verify_roundtrip(annotate(two_state_machine, Cpm()), Cpm())
    assert report.passed


def corrupted_roundtrip(a, cpm, corrupt):
    """Round-trip verdict on the actor model of ``a`` changed by
    ``corrupt``."""
    lts = explore(corrupt(build_ir(a, cpm)))
    return compare_roundtrip(a, cpm, lts, collapse(lts))


def test_roundtrip_names_a_wrong_output(two_state_annotated, two_state_cpm):
    report = corrupted_roundtrip(
        two_state_annotated, two_state_cpm,
        lambda ir: with_transition(ir, ("q2", "sigma1"), "q1", "omega1"))
    assert not report.passed
    assert report.message == "behavior differs on input word ['sigma1', 'sigma1']"


def test_roundtrip_names_a_wrong_proposition_update(two_state_annotated, two_state_cpm):
    report = corrupted_roundtrip(
        two_state_annotated, two_state_cpm,
        lambda ir: dataclasses.replace(ir, updates={**ir.updates, ("q1", "sigma1"): ()}))
    assert not report.passed
    assert report.message == "labels differ after input word ['sigma1']"


def test_roundtrip_names_swapped_temporaries(two_state_annotated, two_state_cpm):
    """The handlers of omega1 and omega2 raise each other's temporaries:
    outputs and state labels still agree with the machine."""
    ir = build_ir(two_state_annotated, two_state_cpm)
    ((case1, temps1),) = ir.output_cases["omega1"]
    ((case2, temps2),) = ir.output_cases["omega2"]
    lts = explore(dataclasses.replace(ir, output_cases={"omega1": ((case1, temps2),),
                                                        "omega2": ((case2, temps1),)}))
    report = compare_roundtrip(two_state_annotated, two_state_cpm, lts, collapse(lts))
    assert not report.passed
    assert report.message == "temporaries differ on input word ['sigma1']"


def test_roundtrip_rejects_a_nondeterministic_state_space(two_state_annotated,
                                                          two_state_cpm):
    lts = explore(build_ir(two_state_annotated, two_state_cpm))
    by_idx = {n.index: n for n in lts.nodes}
    # a second sigma1 edge out of the ready node of q1, into q2's pending node
    ready = next(n.index for n in lts.nodes if n.phase == "ready" and n.q == "q1")
    pending = next(d for s, label, d in lts.edges
                   if label == "sigma1" and by_idx[s].q == "q2")
    forked = dataclasses.replace(lts, edges=lts.edges + ((ready, "sigma1", pending),))
    report = compare_roundtrip(two_state_annotated, two_state_cpm, forked, collapse(forked))
    assert not report.passed
    assert report.message == "collapsed model is nondeterministic"


def timeout_free(model):
    return dataclasses.replace(model, transitions={
        key: tuple(o for o in outcomes if o[1] != "timeout")
        for key, outcomes in model.transitions.items()})


def roundtrip_cases():
    from protocheck import parse_cpm, parse_dot
    from protocheck.fixtures import fixture_text

    cases = [(parse_dot(fixture_text("illustrative.dot")),
              parse_cpm(fixture_text("illustrative.cpm")))]
    for build, name in ((build_emrtd_machine, "emrtd.cpm"), (build_uds_machine, "uds.cpm")):
        cases.append((build()[0], parse_cpm(fixture_text(name))))
    for seed in range(8):
        rng = random.Random(4100 + seed)
        machine = random_machine(rng, max_states=6, max_inputs=4)
        cases.append((machine, random_cpm(rng, machine)))
    return cases


@pytest.mark.parametrize("machine,cpm", roundtrip_cases())
def test_mutated_collapse_without_timeouts_is_the_nominal_collapse(machine, cpm):
    ir = build_ir(annotate(machine, cpm), cpm)
    nominal = collapse(explore(ir))
    mutated = collapse(explore(apply_timeout_mutation(ir)))
    assert not mutated.is_deterministic()
    assert timeout_free(mutated) == nominal


def test_corrupted_branch_detected(two_state_annotated, two_state_cpm):
    ir = build_ir(two_state_annotated, two_state_cpm)
    # flip one transition's target state
    lts = explore(with_transition(ir, ("q1", "sigma1"), "q1", "omega1"))
    report = compare_roundtrip(two_state_annotated, two_state_cpm, lts, collapse(lts))
    assert not report.passed
    # the distinguishing word ships with the failure
    assert report.message == "behavior differs on input word ['sigma1', 'sigma1']"


# ---------------------------------------------------------------------------
# DOT import/export
# ---------------------------------------------------------------------------

def test_lts_dot_round_trip(two_state_annotated, two_state_cpm):
    lts = explore(build_ir(two_state_annotated, two_state_cpm))
    back = parse_lts_dot(emit_lts_dot(lts))
    assert len(back.nodes) == len(lts.nodes)
    first, second = collapse(lts), collapse(back)
    assert first.transitions == second.transitions
    assert first.labels == second.labels


def test_lts_dot_round_trip_case_study(emrtd_cpm):
    machine, _ = build_emrtd_machine()
    a = annotate(machine, emrtd_cpm)
    lts = explore(build_ir(a, emrtd_cpm))
    back = parse_lts_dot(emit_lts_dot(lts))
    report = compare_roundtrip(a, emrtd_cpm, back, collapse(back))
    assert report.passed, report.message


def test_collapse_rejects_misshapen_lts():
    # output delivery jumping straight to another ready node (no reset)
    text = """
    digraph bad {
      __start -> n0;
      n0 [label="q=a; props=; temps="];
      n1 [label="q=a; props=; temps="];
      n2 [label="q=a; props=; temps="];
      n0 -> n1 [label="req"];
      n1 -> n2 [label="x"];
      n2 -> n1 [label="y"];
    }
    """
    with pytest.raises(StateSpaceError, match="ill-formed"):
        collapse(parse_lts_dot(text))


# one macro cycle of a one-state machine: request n0, ready n1, output
# pending n2; each case below breaks it in one place
MACRO_CYCLE = ("n0 -> n1 [label=req]", "n1 -> n2 [label=a]", "n2 -> n0 [label=o]")


@pytest.mark.parametrize("edges,message", [
    ((), "node 0 should only issue requests"),
    (("n0 -> n1 [label=x]",) + MACRO_CYCLE[1:], "node 0 should only issue requests"),
    (MACRO_CYCLE + ("n0 -> n3 [label=req]",),
     "the initial request must reach exactly one node, reaches 2"),
    (MACRO_CYCLE[:2] + ("n2 -> n3 [label=o]", "n3 -> n1 [label=req]", "n3 -> n4 [label=req]"),
     "a reset must reach exactly one node, node 3 reaches 2"),
    (MACRO_CYCLE + ("n1 -> n0 [label=req]",), "request out of a ready node 1"),
    (MACRO_CYCLE + ("n2 -> n0 [label=p]",),
     "pending node 2 must deliver exactly one message, has 2"),
    (MACRO_CYCLE[:2], "pending node 2 must deliver exactly one message, has 0"),
    (MACRO_CYCLE[:2] + ("n2 -> n1 [label=o]",), "node 1 is both ready and req"),
    (MACRO_CYCLE[:2] + ("n2 -> n2 [label=o]",), "node 2 is both out and req"),
], ids=["req_silent", "req_issues_input", "two_initial_readies", "two_reset_readies",
        "ready_requests", "two_outputs", "no_output", "output_skips_reset", "output_loops"])
def test_collapse_names_the_misshapen_node(edges, message):
    body = "".join(f"  n{i} [label=\"q=s; props=; temps=\"];\n" for i in range(5))
    text = "digraph bad {\n  __start -> n0;\n" + body + "".join(f"  {e};\n" for e in edges) + "}\n"
    with pytest.raises(StateSpaceError) as raised:
        collapse(parse_lts_dot(text))
    assert str(raised.value) == f"ill-formed transition system: {message}"


# ---------------------------------------------------------------------------
# internal-state naming
# ---------------------------------------------------------------------------

# a state already named tau0 plus a temporary rule: every internal state
# must take a free name
TAU_CLASH_DOT = """digraph clash {
  __start -> tau0;
  tau0 -> s1 [label="a / x"];
  tau0 -> tau0 [label="b / y"];
  s1 -> tau0 [label="a / x"];
  s1 -> s1 [label="b / y"];
}
"""
TAU_CLASH_CPM = "[GAINS]\nP | a | x\n[LOSES]\n[TAUS]\nT | b | *\n"


def test_internal_states_skip_names_in_use():
    from protocheck import expand_tau, kripke_from_annotated, parse_cpm, parse_dot

    cpm = parse_cpm(TAU_CLASH_CPM)
    a = annotate(parse_dot(TAU_CLASH_DOT), cpm)
    report = verify_roundtrip(a, cpm)
    assert report.passed, report.message
    collapsed = collapse(explore(build_ir(a, cpm)))
    assert set(collapsed.to_annotated().tau_states) == {"tau1", "tau2"}
    from_collapsed = kripke_from_collapsed(collapsed)
    from_expanded = kripke_from_annotated(expand_tau(a, cpm))
    assert len(set(from_collapsed.states)) == len(from_collapsed.states)
    assert len(set(from_collapsed.states)) == len(set(from_expanded.states)) == 4


def test_cli_round_trip_and_collapse_with_state_named_tau0(tmp_path, monkeypatch):
    from protocheck.cli import main

    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.dot").write_text(TAU_CLASH_DOT)
    (tmp_path / "map.cpm").write_text(TAU_CLASH_CPM)
    assert main(["verify-roundtrip", "--model", "model.dot", "--cpm", "map.cpm"]) == 0
    assert main(["annotate", "--model", "model.dot", "--cpm", "map.cpm",
                 "--out", "annotated.dot"]) == 0
    assert main(["explore", "--annotated", "annotated.dot", "--cpm", "map.cpm",
                 "--out", "lts.dot"]) == 0
    assert main(["collapse", "--lts", "lts.dot", "--out", "collapsed.dot"]) == 0

"""Acceptance gate: one test per headline criterion, each printing a verdict
line.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Every expected value here is either fixed by the shipped fixture files, or
recomputed by an independent oracle inside the test (exhaustive enumeration,
breadth-first search, direct semantics).
"""

import random
import time

from protocheck import (TIMEOUT_PROP, annotate,
                        apply_timeout_mutation, bisimilar, build_emrtd_machine,
                        build_ir, build_uds_machine, build_uds_sul, check,
                        collapse, concretize, emit_rebeca, exact_oracle,
                        expand_tau, explore, feedback, kripke_from_annotated,
                        lstar_learn, property_library,
                        random_walk_oracle, replay, vacuity, verify_roundtrip,
                        CONFIRMED, DIVERGED, HOLDS, VIOLATED)
from protocheck.fixtures import fixture_text
from protocheck.ltl import evaluate_on_lasso, lasso_valuations
from helpers import (BOUNDED_HOLDS, bounded_oracle, random_machine, random_cpm,
                     random_kripke, random_formula)


def report(line: str):
    print(f"\n[acceptance] {line}")


ALL_PROPERTIES = (
    "auth_before_access", "no_plain_read_of_protected",
    "privilege_gates_critical", "no_invalid_key",
    "secure_read_requires_secure_context", "plain_read_only_outside_protected",
    "secure_read_follows_secure_select",
)


def test_criterion_1_worked_example_fidelity(two_state_machine, two_state_cpm):
    """Annotate + split + emit on the two-state fixture reproduces the
    published two-actor source structurally, byte-exact against the golden."""
    start = time.time()
    annotated = annotate(two_state_machine, two_state_cpm)
    assert {q: annotated.label(q) for q in two_state_machine.states} == \
        {"q1": frozenset(), "q2": frozenset({"p"})}
    expanded = expand_tau(annotated, two_state_cpm)
    assert len(expanded.tau_states) == 1
    (tau,) = expanded.tau_states
    assert expanded.temps(tau) == frozenset({"omega2set"})
    text = emit_rebeca(build_ir(annotated, two_state_cpm))
    golden = fixture_text("illustrative.rebeca")
    assert text == golden, "emitted source differs from the audited golden"
    for fragment in ("reactiveclass Environment(3)", "reactiveclass System(3)",
                     "boolean omega2set;", "int state;", "boolean p;",
                     "msgsrv req()", "msgsrv omega1(", "msgsrv omega2(",
                     "msgsrv sigma1()", "if(state==0)", "if(state==1)",
                     "main {"):
        assert fragment in text
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(f"criterion 1 PASS: labels, split state, golden source ({elapsed:.2f}s < 1s)")


def test_criterion_2_roundtrip_theorem(two_state_machine, two_state_cpm,
                                       emrtd_cpm, uds_cpm):
    """Explore + collapse reproduces every fixture and 100 random machines."""
    start = time.time()
    cases = [
        (annotate(two_state_machine, two_state_cpm), two_state_cpm),
        (annotate(build_emrtd_machine()[0], emrtd_cpm), emrtd_cpm),
        (annotate(build_uds_machine()[0], uds_cpm), uds_cpm),
    ]
    passed = 0
    for annotated, cpm in cases:
        outcome = verify_roundtrip(annotated, cpm)
        assert outcome.passed, outcome.message
        passed += 1
    rng = random.Random(424242)
    for _ in range(100):
        machine = random_machine(rng, max_states=8, max_inputs=5)
        cpm = random_cpm(rng, machine, max_props=3)
        outcome = verify_roundtrip(annotate(machine, cpm), cpm)
        assert outcome.passed, outcome.message
        passed += 1
    elapsed = time.time() - start
    assert passed == 103
    assert elapsed < 30.0
    report(f"criterion 2 PASS: round-trip 103/103 ({elapsed:.2f}s < 30s)")


def test_criterion_3_travel_document_verdicts(emrtd_cpm):
    """All seven security properties hold on the reconstructed chip model."""
    start = time.time()
    machine, _ = build_emrtd_machine()
    expanded = expand_tau(annotate(machine, emrtd_cpm), emrtd_cpm)
    kripke = kripke_from_annotated(expanded, declared=emrtd_cpm.declared_props)
    library = property_library(emrtd_cpm)
    verdicts = {}
    for name in ALL_PROPERTIES:
        verdicts[name] = check(kripke, library[name].formula).verdict
    assert all(v == HOLDS for v in verdicts.values()), verdicts
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(f"criterion 3 PASS: 7/7 properties HOLD ({elapsed:.2f}s < 5s)")


def test_criterion_4_diagnostic_unit_verdicts(uds_cpm):
    """Authentication and privilege hold, confidentiality holds vacuously
    with the co-occurrence flag, key validity is violated with a witness
    ending in the accepted wrong key; the emitted test replays CONFIRMED."""
    start = time.time()
    machine, _ = build_uds_machine()
    expanded = expand_tau(annotate(machine, uds_cpm), uds_cpm)
    kripke = kripke_from_annotated(expanded, declared=uds_cpm.declared_props)
    library = property_library(uds_cpm)

    assert check(kripke, library["auth_before_access"].formula).verdict == HOLDS
    assert check(kripke, library["privilege_gates_critical"].formula).verdict == HOLDS

    conf = library["no_plain_read_of_protected"]
    assert check(kripke, conf.formula).verdict == HOLDS
    flag = vacuity(kripke, conf.formula)
    assert flag is not None and not flag.risk_reachable
    assert "PROT" in flag.note and "UREADOK" in flag.note and "never co-occur" in flag.note

    key = library["no_invalid_key"]
    outcome = check(kripke, key.formula)
    assert outcome.verdict == VIOLATED
    lasso = outcome.lasso
    stem_vals, loop_vals = lasso_valuations(kripke, lasso)
    assert not evaluate_on_lasso(key.formula, stem_vals, loop_vals)
    # the violating split state is entered on the wrong key with a positive
    # response, from a state that is only reachable after authentication
    violating = [s for s in lasso.states() if "INVKEYOK" in kripke.label(s)]
    assert violating
    tau = violating[0]
    ((src, sym),) = [(q, s) for (q, s), (d, _) in expanded.machine.transitions.items()
                     if d == tau]
    assert sym == "SAwWrongKey"
    assert "AUTH" in expanded.label(src)
    _, out = expanded.machine.transitions[(tau, "__eps")]
    assert out == "67"

    test = concretize(lasso, kripke, expanded, "no_invalid_key")
    assert test.inputs[-1] == "SAwWrongKey" and test.expected[-1] == "67"
    sul, _ = build_uds_sul()
    assert replay(test, sul).verdict == CONFIRMED
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(f"criterion 4 PASS: verdicts, vacuity flag, confirmed witness ({elapsed:.2f}s < 5s)")


def test_criterion_5_checker_against_bounded_oracle():
    """200 seeded random structure/formula pairs: exact agreement between the
    automaton checker and exhaustive lasso enumeration; every violation
    witness falsifies its formula under direct semantics."""
    start = time.time()
    rng = random.Random(501_501)
    agreements = 0
    for _ in range(200):
        kripke = random_kripke(rng, max_states=6)
        formula = random_formula(rng, depth=3, temporal_budget=4)
        outcome = check(kripke, formula)
        if outcome.verdict == VIOLATED:
            stem_vals, loop_vals = lasso_valuations(kripke, outcome.lasso)
            assert not evaluate_on_lasso(formula, stem_vals, loop_vals)
            bounds = (max(6, len(outcome.lasso.stem)),
                      max(6, len(outcome.lasso.loop)))
        else:
            bounds = (6, 6)
        reference = bounded_oracle(kripke, formula, *bounds)
        assert (outcome.verdict == HOLDS) == (reference.verdict == BOUNDED_HOLDS)
        agreements += 1
    elapsed = time.time() - start
    assert agreements == 200
    assert elapsed < 60.0
    report(f"criterion 5 PASS: oracle agreement 200/200 ({elapsed:.2f}s < 60s)")


def test_criterion_6_learning_convergence():
    """Exact-oracle learning recovers both hidden machines; random-walk
    conformance testing at the published parameters converges on at least
    nine of ten fixed seeds with bounded membership effort."""
    start = time.time()
    from protocheck import build_emrtd_sul

    for builder, params in ((build_emrtd_sul, (40, 50, 150)),
                            (build_uds_sul, (20, 50, 50))):
        sul, hidden = builder()
        exact = lstar_learn(sul, hidden.inputs, lambda h: exact_oracle(hidden, h))
        assert bisimilar(hidden, exact.machine).equivalent
        assert exact.membership_queries <= 20_000

        min_len, max_len, num_tests = params
        converged = 0
        for seed in range(10):
            sul, hidden = builder()
            outcome = lstar_learn(
                sul, hidden.inputs,
                lambda h: random_walk_oracle(sul, h, min_len, max_len,
                                             num_tests, seed))
            assert outcome.membership_queries <= 20_000
            if bisimilar(hidden, outcome.machine).equivalent:
                converged += 1
        assert converged >= 9, f"only {converged}/10 seeds converged"
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(f"criterion 6 PASS: exact + >=9/10 random-walk convergence ({elapsed:.2f}s < 60s)")


def test_criterion_7_timeout_mutation(emrtd_cpm):
    """After the timeout mutation every reachable state/input pair has a
    timeout branch back to the initial state with its labels, and all seven
    properties still hold on the mutated state space."""
    start = time.time()
    machine, _ = build_emrtd_machine()
    annotated = annotate(machine, emrtd_cpm)
    ir = apply_timeout_mutation(build_ir(annotated, emrtd_cpm))
    lts = explore(ir)
    by_index = {n.index: n for n in lts.nodes}
    ready_nodes = [n for n in lts.nodes if n.phase == "ready"]
    assert {n.q for n in ready_nodes} == set(machine.states)
    initial_labels = annotated.label(machine.initial)
    for node in ready_nodes:
        for symbol in machine.inputs:
            targets = [d for s, label, d in lts.edges
                       if s == node.index and label == symbol]
            timeout_nodes = [by_index[t] for t in targets
                             if by_index[t].phase == "timeout"]
            assert timeout_nodes, (node.q, symbol)
            for t in timeout_nodes:
                ((label, dst),) = [(l, d) for s, l, d in lts.edges if s == t.index]
                assert label == "timeout"
                landed = by_index[dst]
                assert landed.q == machine.initial
                assert landed.props == initial_labels
                assert TIMEOUT_PROP in landed.temps

    from protocheck.statespace import kripke_from_collapsed
    collapsed = collapse(lts)
    kripke = kripke_from_collapsed(
        collapsed, declared=emrtd_cpm.declared_props | {TIMEOUT_PROP})
    library = property_library(emrtd_cpm)
    for name in ALL_PROPERTIES:
        assert check(kripke, library[name].formula).verdict == HOLDS, name
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(f"criterion 7 PASS: timeout branches + 7/7 verdicts stable ({elapsed:.2f}s < 10s)")


def test_criterion_8_closed_loop(uds_cpm):
    """Patching the diagnostic unit to reject wrong keys makes the replay
    diverge; feeding the divergence back and learning once more yields a
    model on which key validity holds."""
    start = time.time()
    sul, hidden = build_uds_sul()
    learned = lstar_learn(sul, hidden.inputs, lambda h: exact_oracle(hidden, h))
    expanded = expand_tau(annotate(learned.machine, uds_cpm), uds_cpm)
    kripke = kripke_from_annotated(expanded, declared=uds_cpm.declared_props)
    key = property_library(uds_cpm)["no_invalid_key"]
    outcome = check(kripke, key.formula)
    assert outcome.verdict == VIOLATED
    test = concretize(outcome.lasso, kripke, expanded, "no_invalid_key")

    patched_sul, patched_hidden = build_uds_sul(reject_wrong_key=True)
    replayed = replay(test, patched_sul)
    assert replayed.verdict == DIVERGED
    counterexample = feedback(replayed, test)

    refined = lstar_learn(patched_sul, patched_hidden.inputs,
                          lambda h: exact_oracle(patched_hidden, h),
                          initial_counterexamples=[counterexample])
    assert bisimilar(patched_hidden, refined.machine).equivalent
    expanded2 = expand_tau(annotate(refined.machine, uds_cpm), uds_cpm)
    kripke2 = kripke_from_annotated(expanded2, declared=uds_cpm.declared_props)
    assert check(kripke2, key.formula).verdict == HOLDS
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(f"criterion 8 PASS: diverge, feed back, refined model holds ({elapsed:.2f}s < 30s)")

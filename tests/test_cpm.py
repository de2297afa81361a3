"""Proposition maps: parsing, matching, annotation fixpoint, splitting."""

import random
from collections import deque

import pytest

from protocheck import (EPSILON, TAU, MealyMachine, annotate, build_ir,
                        emit_annotated_dot, expand_tau,
                        parse_annotated_dot, parse_cpm, matches)
from protocheck.automata import MachineError
from protocheck.cpm import Condition, Cpm, CpmError
from helpers import random_machine, random_cpm


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_gain_row():
    cpm = parse_cpm("[GAINS]\nAUTH | BAC | 9000\n")
    assert cpm.gains == (Condition(frozenset({"AUTH"}), ("BAC",), ("9000",)),)


def test_parse_tau_row_with_multiple_props():
    cpm = parse_cpm("[TAUS]\nINVKEYOK, WRONGKEYOK | WS* | 9000\n")
    (cond,) = cpm.taus
    assert cond.props == frozenset({"INVKEYOK", "WRONGKEYOK"})
    assert cond.input_patterns == ("WS*",)
    assert cond.output_patterns == ("9000",)


def test_parse_lose_row_with_multiple_inputs():
    cpm = parse_cpm("[LOSES]\nAUTH | SA, SAwKey, SAwWrongKey | 7f\n")
    (cond,) = cpm.loses
    assert cond.props == frozenset({"AUTH"})
    assert cond.input_patterns == ("SA", "SAwKey", "SAwWrongKey")


def test_parse_comments_and_blank_lines():
    cpm = parse_cpm("# header\n[GAINS]\n\nA | x | y  # trailing\n")
    assert len(cpm.gains) == 1


@pytest.mark.parametrize("text,message", [
    ("[GAINS]\nA | x\n", "expected 3 cells"),
    ("[GAINS]\nA | x | y | z\n", "expected 3 cells"),
    ("[GAINS]\nA |  | y\n", "empty cell"),
    ("A | x | y\n", "before any section"),
    ("[GAINS]\n9bad | x | y\n", "invalid proposition"),
    ("[GAINS]\nA | x | y\n[TAUS]\nA | x | y\n", "collide"),
])
def test_parse_errors(text, message):
    with pytest.raises(CpmError, match=message):
        parse_cpm(text)


# ---------------------------------------------------------------------------
# glob matching
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("patterns,symbol,expected", [
    (("EF*",), "EF_DG2", True),
    (("*",), "anything at all", True),
    (("6*",), "9000", False),
    (("*BIN",), "RD_BIN", True),
    (("*BIN",), "RD_BINX", False),
    (("DF",), "DF", True),
    (("DF",), "DF_LDS1", False),      # full-symbol matching, no implicit prefix
    (("ef*",), "EF_DG2", False),      # case sensitive
    (("A*C",), "ABBBC", True),
    (("A*C",), "AC", True),
    (("*",), "a\nb", True),           # the wildcard spans newlines
    (("a*b",), "a\nb", True),
    (("R.D",), "RxD", False),         # regex metacharacters are literal
    (("R.D",), "R.D", True),
])
def test_matches(patterns, symbol, expected):
    assert matches(patterns, symbol) is expected


# ---------------------------------------------------------------------------
# annotation
# ---------------------------------------------------------------------------

def test_annotate_two_state_example(two_state_machine, two_state_cpm):
    a = annotate(two_state_machine, two_state_cpm)
    assert a.label("q1") == frozenset()
    assert a.label("q2") == frozenset({"p"})


def test_annotate_empty_cpm(two_state_machine):
    a = annotate(two_state_machine, Cpm())
    assert all(a.label(q) == frozenset() for q in two_state_machine.states)


def chain3():
    states = ("c1", "c2", "c3")
    transitions = {
        ("c1", "go"): ("c2", "grant"),
        ("c2", "go"): ("c3", "ok"),
        ("c3", "go"): ("c3", "ok"),
    }
    return MealyMachine(states, ("go",), ("grant", "ok"), "c1", transitions)


def test_annotate_inheritance_chain():
    cpm = Cpm(gains=(Condition(frozenset({"P"}), ("go",), ("grant",)),))
    a = annotate(chain3(), cpm)
    assert a.label("c2") == frozenset({"P"})
    assert a.label("c3") == frozenset({"P"})   # inherited through the fixpoint
    assert a.label("c1") == frozenset()


def test_gain_wins_over_lose_on_same_transition():
    # the same transition both grants and would block P: the grant seeds the
    # target, the lose rule only stops inheritance
    cpm = Cpm(gains=(Condition(frozenset({"P"}), ("go",), ("grant",)),),
              loses=(Condition(frozenset({"P"}), ("go",), ("grant",)),))
    a = annotate(chain3(), cpm)
    assert a.label("c2") == frozenset({"P"})
    assert a.label("c3") == frozenset({"P"})   # (go, ok) does not block


def oracle_labels(machine, cpm):
    """Independent labeling: a state carries p iff some propagation path from
    a seeding transition reaches it (reachability over the per-proposition
    propagation graph; shares no code with the fixpoint)."""
    props = set()
    for c in cpm.gains:
        props |= c.props
    labels = {q: set() for q in machine.states}
    for p in props:
        seeds = set()
        for (q, sym), (dst, out) in machine.transitions.items():
            if any(p in c.props and c.matches_pair(sym, out) for c in cpm.gains):
                seeds.add(dst)
        frontier = deque(seeds)
        reached = set(seeds)
        while frontier:
            q = frontier.popleft()
            for sym in machine.inputs:
                dst, out = machine.transitions[(q, sym)]
                blocked = any(p in c.props and c.matches_pair(sym, out)
                              for c in cpm.loses)
                if not blocked and dst not in reached:
                    reached.add(dst)
                    frontier.append(dst)
        for q in reached:
            labels[q].add(p)
    return {q: frozenset(v) for q, v in labels.items()}


@pytest.mark.parametrize("seed", range(40))
def test_annotate_agrees_with_path_oracle(seed):
    rng = random.Random(9000 + seed)
    machine = random_machine(rng, max_states=6, max_inputs=4)
    cpm = random_cpm(rng, machine)
    a = annotate(machine, cpm)
    expected = oracle_labels(machine, cpm)
    assert {q: a.label(q) for q in machine.states} == expected


@pytest.mark.parametrize("seed", range(12))
def test_annotate_independent_of_declaration_order(seed):
    rng = random.Random(400 + seed)
    machine = random_machine(rng, max_states=6, max_inputs=4)
    cpm = random_cpm(rng, machine)
    a = annotate(machine, cpm)
    # permute state and input declaration order; transition content unchanged
    states = list(machine.states)
    inputs = list(machine.inputs)
    rng.shuffle(states)
    rng.shuffle(inputs)
    shuffled = MealyMachine(tuple(states), tuple(inputs), machine.outputs,
                            machine.initial, dict(machine.transitions))
    b = annotate(shuffled, cpm)
    assert {q: a.label(q) for q in machine.states} == \
           {q: b.label(q) for q in machine.states}


def test_annotate_unused_condition_diagnostic(two_state_machine):
    cpm = parse_cpm("[GAINS]\np | sigma1 | omega1\nZ | nosuch | omega1\n")
    a = annotate(two_state_machine, cpm)
    assert any("unused" in d and "Z" in d for d in a.diagnostics)


# ---------------------------------------------------------------------------
# transition splitting
# ---------------------------------------------------------------------------

def test_expand_tau_two_state(two_state_annotated, two_state_cpm):
    expanded = expand_tau(two_state_annotated, two_state_cpm)
    assert len(expanded.tau_states) == 1
    (tau,) = expanded.tau_states
    assert expanded.label(tau) == frozenset({"p"})        # inherited from q2
    assert expanded.temps(tau) == frozenset({"omega2set"})
    # split structure: q2 --sigma1/tau--> tau --eps/omega2--> q1
    assert expanded.machine.transitions[("q2", "sigma1")] == (tau, TAU)
    assert expanded.machine.transitions[(tau, EPSILON)] == ("q1", "omega2")


def test_expand_tau_empty_rules_is_identity(two_state_annotated):
    expanded = expand_tau(two_state_annotated, Cpm())
    assert expanded.machine == two_state_annotated.machine
    assert expanded.tau_states == frozenset()


def test_expand_tau_union_of_matching_rules():
    machine = chain3()
    cpm = Cpm(taus=(Condition(frozenset({"A"}), ("go",), ("grant",)),
                    Condition(frozenset({"B"}), ("*",), ("grant",))))
    expanded = expand_tau(annotate(machine, Cpm()), cpm)
    assert len(expanded.tau_states) == 1
    (tau,) = expanded.tau_states
    assert expanded.temps(tau) == frozenset({"A", "B"})
    # both temporaries are raised in the same internal step: the direct
    # bounded semantics agrees that they always co-occur and both fire once
    from protocheck.ltl import VIOLATED, kripke_from_annotated, parse_ltl
    from helpers import BOUNDED_HOLDS, bounded_oracle
    k = kripke_from_annotated(expanded, declared=frozenset({"A", "B"}))
    assert bounded_oracle(k, parse_ltl("G(A -> B)"), 6, 4).verdict == BOUNDED_HOLDS
    assert bounded_oracle(k, parse_ltl("G(B -> A)"), 6, 4).verdict == BOUNDED_HOLDS
    assert bounded_oracle(k, parse_ltl("G(!A)"), 6, 4).verdict == VIOLATED
    assert bounded_oracle(k, parse_ltl("F A"), 6, 4).verdict == BOUNDED_HOLDS


def test_expand_tau_structural_invariants(emrtd_cpm):
    from protocheck import build_emrtd_machine
    machine, _ = build_emrtd_machine()
    expanded = expand_tau(annotate(machine, emrtd_cpm), emrtd_cpm)
    m = expanded.machine
    for tau in expanded.tau_states:
        incoming = [(q, s) for (q, s), (d, o) in m.transitions.items() if d == tau]
        outgoing = [(q, s) for (q, s), _ in m.transitions.items() if q == tau]
        assert len(incoming) == 1 and m.transitions[incoming[0]][1] == TAU
        assert outgoing == [(tau, EPSILON)]
        assert expanded.temps(tau)
    for q in m.states:
        if q not in expanded.tau_states:
            assert not expanded.temps(q)


def test_expand_splits_each_transition_through_one_internal_state(emrtd_cpm):
    """``(q, sym) -> (tauN, tau)`` then ``(tauN, eps) -> (dst, out)`` gives
    back every original transition, and every original state keeps its
    labels."""
    from protocheck import build_emrtd_machine
    machine, _ = build_emrtd_machine()
    a = annotate(machine, emrtd_cpm)
    expanded = expand_tau(a, emrtd_cpm)
    m = expanded.machine
    assert expanded.tau_states
    for (q, sym), (dst, out) in machine.transitions.items():
        first = m.transitions[(q, sym)]
        if first[0] in expanded.tau_states:
            assert first[1] == TAU
            assert m.transitions[(first[0], EPSILON)] == (dst, out)
        else:
            assert first == (dst, out)
    assert {key for key in m.transitions if key[0] not in expanded.tau_states} == \
        set(machine.transitions)
    assert all(expanded.label(q) == a.label(q) for q in machine.states)


def test_expand_tau_twice_rejected(two_state_annotated, two_state_cpm):
    once = expand_tau(two_state_annotated, two_state_cpm)
    with pytest.raises(CpmError, match="expand once"):
        expand_tau(once, two_state_cpm)


# ---------------------------------------------------------------------------
# annotated DOT
# ---------------------------------------------------------------------------

def test_emit_annotated_labels(two_state_annotated):
    text = emit_annotated_dot(two_state_annotated)
    assert 'label="q2 {p}"' in text
    assert 'label="q1 {}"' in text


def test_emit_annotated_golden_expanded(two_state_annotated, two_state_cpm):
    # frozen rendering of the split worked example, audited by hand
    text = emit_annotated_dot(expand_tau(two_state_annotated, two_state_cpm))
    assert text == """digraph annotated {
  __start [shape=none, label=""];
  __start -> q1;
  q1 [shape=circle, label="q1 {}"];
  q2 [shape=circle, label="q2 {p}"];
  tau0 [shape=diamond, label="tau0 {p | omega2set}"];
  q1 -> q2 [label="sigma1 / omega1"];
  q2 -> tau0 [label="sigma1 / __tau"];
  tau0 -> q1 [label="__eps / omega2"];
}
"""


@pytest.mark.parametrize("text,message", [
    ('digraph g { __start -> a; a -> a [label="x / o"]; a -> a [label="x / p"]; }',
     "line 1: nondeterminism at state 'a' on input 'x'"),
    ('digraph g { a [label="a {}"]; a -> a [label="x / o"]; }',
     "no initial state: add a '__start -> q' edge or an initial=true attribute"),
], ids=["nondeterminism", "no-initial"])
def test_annotated_dot_errors(text, message):
    with pytest.raises(MachineError) as caught:
        parse_annotated_dot(text)
    assert str(caught.value) == message


def test_annotated_dot_round_trip(two_state_annotated, two_state_cpm):
    expanded = expand_tau(two_state_annotated, two_state_cpm)
    back = parse_annotated_dot(emit_annotated_dot(expanded))
    assert back.labels == expanded.labels
    assert back.tau_states == expanded.tau_states
    assert back.temp_labels == expanded.temp_labels
    assert back.machine.transitions == expanded.machine.transitions


# ---------------------------------------------------------------------------
# rules decided per (input, output) pair, against a per-transition reference
# ---------------------------------------------------------------------------

RULE_POOL = {
    "gains": [Condition(frozenset({"A"}), ("*",), ("o*",)),
              Condition(frozenset({"B"}), ("i*",), ("*",)),
              Condition(frozenset({"A", "C"}), ("i1",), ("ok",)),
              Condition(frozenset({"D"}), ("nothing",), ("*",))],   # matches nothing
    "loses": [Condition(frozenset({"A"}), ("i1",), ("*",)),
              Condition(frozenset({"B", "C"}), ("x*", "i1"), ("err", "o1"))],
    "taus": [Condition(frozenset({"T"}), ("i1",), ("*",)),
             Condition(frozenset({"U"}), ("i*",), ("o*",)),
             Condition(frozenset({"T", "V"}), ("*",), ("err",))],
}


def overlapping_cpm(rng: random.Random) -> Cpm:
    """A random selection of overlapping rows: '*' and 'i*' globs, input i1
    in gain, lose and tau rows, and a gain row that matches nothing."""
    return Cpm(*(tuple(c for c in rows if rng.random() < 0.8) + (rows[-1],)
                 for rows in RULE_POOL.values()))


def overlapping_machine(rng: random.Random) -> MealyMachine:
    states = tuple(f"s{i}" for i in range(rng.randint(4, 12)))
    inputs, outputs = ("i0", "i1", "x0", "x1"), ("o0", "o1", "ok", "err")
    transitions = {(q, a): (rng.choice(states), rng.choice(outputs))
                   for q in states for a in inputs}
    return MealyMachine(states, inputs, outputs, states[0], transitions,
                        require_complete=True)


def reference_temps(cpm, sym, out):
    return frozenset().union(*[c.props for c in cpm.taus if c.matches_pair(sym, out)])


def reference_annotate(m, cpm):
    """Labels and diagnostics with every rule matched on every transition."""
    transitions = [(q, sym, *m.transitions[(q, sym)]) for q in m.states for sym in m.inputs]
    grants = {(q, sym): {p for c in cpm.gains if c.matches_pair(sym, out) for p in c.props}
              for q, sym, _, out in transitions}
    blocked = {(q, sym): {p for c in cpm.loses if c.matches_pair(sym, out) for p in c.props}
               for q, sym, _, out in transitions}
    labels = {q: set() for q in m.states}
    for q, sym, dst, _ in transitions:
        labels[dst] |= grants[(q, sym)]
    changed = True
    while changed:
        changed = False
        for q, sym, dst, _ in transitions:
            new = labels[q] - blocked[(q, sym)] - labels[dst]
            labels[dst] |= new
            changed = changed or bool(new)
    diagnostics = [
        f"unused {kind} condition {sorted(c.props)}: matched no transition"
        for kind, rows in (("gains", cpm.gains), ("loses", cpm.loses), ("taus", cpm.taus))
        for c in rows
        if not any(c.matches_pair(sym, out) for _, sym, _, out in transitions)]
    for dst in m.states:
        incoming = [(q, sym) for q, sym, d, _ in transitions if d == dst]
        for p in sorted(labels[dst]):
            supplying = [t for t in incoming
                         if p in grants[t] or p in labels[t[0]] - blocked[t]]
            if incoming and supplying and len(supplying) != len(incoming):
                diagnostics.append(
                    f"state {dst!r}: incoming transitions disagree on {p!r} "
                    f"({len(supplying)}/{len(incoming)} supply it; union applied)")
    return {q: frozenset(v) for q, v in labels.items()}, tuple(diagnostics)


@pytest.mark.parametrize("seed", range(25))
def test_rules_decided_per_pair_match_the_per_transition_reference(seed):
    rng = random.Random(7100 + seed)
    m, cpm = overlapping_machine(rng), overlapping_cpm(rng)
    a = annotate(m, cpm)
    labels, diagnostics = reference_annotate(m, cpm)
    assert a.labels == labels
    assert a.diagnostics == diagnostics
    assert any(d.startswith("unused gains condition ['D']") for d in a.diagnostics)

    expanded = expand_tau(a, cpm)
    transitions = expanded.machine.transitions
    split = {(q, sym): dst for (q, sym), (dst, out) in transitions.items()
             if dst in expanded.tau_states and out == TAU}
    for (q, sym), (dst, out) in m.transitions.items():
        temps = reference_temps(cpm, sym, out)
        assert cpm.raised_temps(sym, out) == temps
        if temps:
            internal = split[(q, sym)]
            assert expanded.temp_labels[internal] == temps
            assert transitions[(internal, EPSILON)] == (dst, out)
        else:
            assert expanded.machine.transitions[(q, sym)] == (dst, out)
    assert len(split) == sum(1 for (_, sym), (_, out) in m.transitions.items()
                             if reference_temps(cpm, sym, out))

    ir = build_ir(a, cpm)
    for out, cases in ir.output_cases.items():
        for case, temps in cases:
            assert temps == reference_temps(cpm, m.inputs[case], out)

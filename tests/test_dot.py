"""The three DOT formats on their one reader: errors and round trips."""

import random

import pytest

from protocheck import (MachineError, MealyMachine, annotate, build_ir,
                        emit_annotated_dot, emit_dot, emit_lts_dot, expand_tau,
                        explore, parse_annotated_dot, parse_dot, parse_lts_dot)
from protocheck.cli import main
from protocheck.cpm import Condition, Cpm
from protocheck.statespace import Lts, LtsNode

INPUTS = ("a/b", 'we"ird', "back\\slash", "plain")
OUTPUTS = ("o/1", 'o"2', "o\\3", "ok")


def hostile_machine(seed: int, n: int = 60) -> MealyMachine:
    """Connected machine whose states, inputs and outputs need quoting."""
    rng = random.Random(seed)
    states = tuple(f's{i}/"q\\' for i in range(n))
    transitions = {}
    for i, q in enumerate(states):
        for j, sym in enumerate(INPUTS):
            # the first input walks a cycle through every state
            dst = states[(i + 1) % n] if j == 0 else rng.choice(states)
            transitions[(q, sym)] = (dst, rng.choice(OUTPUTS))
    outputs = tuple(dict.fromkeys(out for _, out in transitions.values()))
    return MealyMachine(states, INPUTS, outputs, states[0], transitions)


HOSTILE_CPM = Cpm(
    gains=(Condition(frozenset({"A"}), ("a/b",), ("o/*",)),
           Condition(frozenset({"B"}), ('we"ird',), ("*",))),
    loses=(Condition(frozenset({"A"}), ("back\\slash",), ("*",)),),
    taus=(Condition(frozenset({"T"}), ("plain",), ('o"2',)),),
)


@pytest.mark.parametrize("seed", range(3))
def test_mealy_dot_round_trip_on_hostile_symbols(seed):
    m = hostile_machine(seed)
    assert parse_dot(emit_dot(m)) == m


@pytest.mark.parametrize("seed", range(3))
def test_annotated_dot_round_trip_on_hostile_symbols(seed):
    expanded = expand_tau(annotate(hostile_machine(seed), HOSTILE_CPM), HOSTILE_CPM)
    assert expanded.tau_states
    back = parse_annotated_dot(emit_annotated_dot(expanded))
    assert back.machine.states == expanded.machine.states
    assert back.machine.initial == expanded.machine.initial
    assert back.machine.transitions == expanded.machine.transitions
    assert back.labels == expanded.labels
    assert back.tau_states == expanded.tau_states
    assert back.temp_labels == expanded.temp_labels


@pytest.mark.parametrize("seed", range(3))
def test_lts_dot_round_trip_on_hostile_symbols(seed):
    lts = explore(build_ir(annotate(hostile_machine(seed), HOSTILE_CPM), HOSTILE_CPM))
    back = parse_lts_dot(emit_lts_dot(lts))
    assert back.initial == lts.initial
    assert back.edges == lts.edges
    assert [(n.index, n.q, n.props, n.temps) for n in back.nodes] == \
        [(n.index, n.q, n.props, n.temps) for n in lts.nodes]


def test_annotated_dot_errors_carry_line_numbers():
    with pytest.raises(MachineError, match="^line 4: cannot parse statement"):
        parse_annotated_dot('digraph g {\n__start -> a;\na [label="a {}"];\n???\n}')
    with pytest.raises(MachineError, match="^line 3: unlabeled edge"):
        parse_annotated_dot('digraph g {\n__start -> a;\na -> a;\n}')


def test_lts_dot_errors_carry_line_numbers():
    with pytest.raises(MachineError, match="^line 3: cannot parse statement"):
        parse_lts_dot('digraph g {\n__start -> n0;\nn0 -> ;\n}')
    with pytest.raises(MachineError, match="^line 5: unlabeled edge"):
        parse_lts_dot('digraph g {\n__start -> n0;\n'
                      'n0 [label="q=a; props=; temps="];\n\nn0 -> n0;\n}')


def test_statements_split_on_separators_outside_quotes_only():
    # one line holding several statements, quoted names and labels holding
    # ';' and braces, and comments between them
    text = ('digraph g { __start -> "x;{y"; // comment\n'
            '"x;{y" -> "x;{y" [label="a;{ / b}"]; # note\n}')
    m = parse_dot(text)
    assert m.states == ("x;{y",)
    assert m.transitions == {("x;{y", "a;{"): ("x;{y", "b}")}


def test_lts_start_at_undeclared_node_names_it(tmp_path, capsys):
    text = 'digraph g { __start -> n9; n0 [label="q=a; props=; temps="]; }'
    with pytest.raises(MachineError, match="^line 1: initial node 'n9' is not declared"):
        parse_lts_dot(text)
    (tmp_path / "lts.dot").write_text(text)
    code = main(["collapse", "--lts", str(tmp_path / "lts.dot"),
                 "--out", str(tmp_path / "out.dot")])
    assert code == 64
    assert "'n9'" in capsys.readouterr().err


def test_lts_state_names_keep_semicolons_and_backslashes():
    names = ("a;b", "a\\", "a\\;b", "plain")
    nodes = tuple(LtsNode(i, q, frozenset({"P"}), frozenset({"T"}), phase="")
                  for i, q in enumerate(names))
    lts = Lts(nodes, tuple((i, "x", (i + 1) % len(names)) for i in range(len(names))), 0)
    text = emit_lts_dot(lts)
    assert 'label="q=plain; props=P; temps=T"' in text
    back = parse_lts_dot(text)
    assert [(n.q, n.props, n.temps) for n in back.nodes] == \
        [(n.q, n.props, n.temps) for n in nodes]


def test_mealy_dot_round_trip_with_newline_in_a_symbol():
    m = MealyMachine(("a", "b"), ("x\ny", "z"), ("o\np", "ok"), "a",
                     {("a", "x\ny"): ("b", "o\np"), ("a", "z"): ("a", "ok"),
                      ("b", "x\ny"): ("a", "ok"), ("b", "z"): ("b", "o\np")})
    assert parse_dot(emit_dot(m)) == m

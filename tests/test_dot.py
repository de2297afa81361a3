"""The three DOT formats on their one reader: errors and round trips."""

import hashlib
import random
import re

import pytest

from protocheck import (MachineError, MealyMachine, annotate,
                        apply_timeout_mutation, build_ir, collapse, emit_annotated_dot,
                        emit_dot, emit_lts_dot, emit_rebeca, expand_tau, explore,
                        parse_annotated_dot, parse_dot, parse_lts_dot)
from protocheck.automata import read_dot
from protocheck.cli import main
from protocheck.cpm import Condition, Cpm
from protocheck.statespace import Lts, LtsNode, emit_collapsed_dot

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


def annotated_dot_errors(newline: str):
    """The annotated reader's errors name their line, whatever the line ends."""
    with pytest.raises(MachineError, match="^line 4: cannot parse statement"):
        parse_annotated_dot('digraph g {\n__start -> a;\na [label="a {}"];\n???\n}'
                            .replace("\n", newline))
    with pytest.raises(MachineError, match="^line 3: edge 'a' -> 'a' has no label"):
        parse_annotated_dot('digraph g {\n__start -> a;\na -> a;\n}'.replace("\n", newline))


def test_annotated_dot_errors_carry_line_numbers():
    annotated_dot_errors("\n")


def test_annotated_dot_errors_carry_line_numbers_with_crlf():
    annotated_dot_errors("\r\n")


REPEATED_EDGE = 'digraph g {\n__start -> q;\nq [label="q {}"];\nq -> q [label="x / o"];\n%s\n}'


def test_both_machine_readers_keep_a_repeated_identical_edge_once():
    text = REPEATED_EDGE % 'q -> q [label="x / o"];'
    expected = {("q", "x"): ("q", "o")}
    assert parse_dot(text).transitions == expected
    assert parse_annotated_dot(text).machine.transitions == expected


def test_both_machine_readers_refuse_a_differing_repeated_edge_alike():
    text = REPEATED_EDGE % 'q -> q [label="x / p"];'
    messages = set()
    for reader in (parse_dot, parse_annotated_dot):
        with pytest.raises(MachineError) as caught:
            reader(text)
        messages.add(str(caught.value))
    assert messages == {"line 5: nondeterminism at state 'q' on input 'x'"}


def lts_dot_errors(newline: str):
    """The transition-system reader's errors name their line, whatever the
    line ends."""
    with pytest.raises(MachineError, match="^line 3: cannot parse statement"):
        parse_lts_dot('digraph g {\n__start -> n0;\nn0 -> ;\n}'.replace("\n", newline))
    with pytest.raises(MachineError, match="^line 5: edge 'n0' -> 'n0' has no label$"):
        parse_lts_dot('digraph g {\n__start -> n0;\n'
                      'n0 [label="q=a; props=; temps="];\n\nn0 -> n0;\n}'.replace("\n", newline))
    with pytest.raises(MachineError) as caught:
        parse_lts_dot('digraph g {\nn0 -> n0 [label="x"];\n}'.replace("\n", newline))
    assert str(caught.value) == (
        "no initial state: add a '__start -> q' edge or an initial=true attribute")


def test_lts_dot_errors_carry_line_numbers():
    lts_dot_errors("\n")


def test_lts_dot_errors_carry_line_numbers_with_crlf():
    lts_dot_errors("\r\n")


SPLITTING_DOCS = [
    # one line holding several statements, quoted names and labels holding
    # ';' and braces, and comments between them
    ('digraph g { __start -> "x;{y"; // comment\n'
     '"x;{y" -> "x;{y" [label="a;{ / b}"]; # note\n}'),
    # a header on its own line, and a label holding ']' and a newline
    ('strict digraph g\n{\n"x;{y" [initial=true]\n'
     '"x;{y" -> "x;{y" [label="a;{\n / b}"]}'),
    # comments run to the end of their line: '//' after a statement, '#' at
    # the start of one, each hiding a ';' and what follows it
    ('digraph g { __start -> "x;{y"; // note; b\n'
     '"x;{y" -> "x;{y" [label="a;{ / b}"] // trailing\n'
     '# note; c\n}'),
]


@pytest.mark.parametrize("text", SPLITTING_DOCS,
                         ids=["one_line", "header_and_multiline_label", "comments_end_at_the_newline"])
def test_statements_split_on_separators_outside_quotes_only(text):
    m = parse_dot(text)
    assert m.states == ("x;{y",)
    assert m.transitions == {("x;{y", "a;{"): ("x;{y", "b}")}


PINNED_DOC = (
    '# generated by hand\n'
    '// second comment line\n'
    'strict digraph "g" {\n'
    '  node [shape=circle]; edge [color=gray]\n'
    '  rankdir=LR\n'
    '  __start -> "s 0";\n'
    '  "s 0" [label="s 0 {P}", initial=true]; a -> b [label="x;] / y"]; b\n'
    '  b -> "s 0" [label="multi\nline / z"];\n'
    '  "q\\"1" [shape=box, label="q\\"1 {}"]; // trailing\n'
    '  "q\\"1" -> a [label="{a / b}"]\n'
    '}\n')


def test_read_dot_output_is_pinned():
    graph = read_dot(PINNED_DOC)
    assert graph.nodes == [("s 0", "s 0 {P}", 7), ("b", "", 7), ('q"1', 'q\\"1 {}', 10)]
    assert graph.edges == [("a", "b", "x;] / y", 7), ("b", "s 0", "multi\nline / z", 8),
                           ('q"1', "a", "{a / b}", 11)]
    assert graph.initials == [("s 0", 6), ("s 0", 7)]
    assert list(graph.mentioned) == ["s 0", "a", "b", 'q"1']
    # the label's newline counts: the error sits on line 12
    with pytest.raises(MachineError, match=r"^line 12: cannot parse statement '\?\?\?'$"):
        read_dot(PINNED_DOC[:-2] + "  ???\n}\n")


def test_read_dot_counts_a_crlf_line_end_once():
    # with '\r\n' line ends, in the label too, the error sits on line 12 as well
    with pytest.raises(MachineError, match=r"^line 12: cannot parse statement '\?\?\?'$"):
        read_dot((PINNED_DOC[:-2] + "  ???\n}\n").replace("\n", "\r\n"))


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
    # without a 'q=' field the state is the node id, unescaped once
    (node,) = parse_lts_dot('digraph g { __start -> "a\\\\b"; '
                            '"a\\\\b" [label="props=P; temps=T"]; }').nodes
    assert (node.q, node.props, node.temps) == ("a\\b", frozenset({"P"}), frozenset({"T"}))


def test_lts_proposition_lists_are_read_without_blanks():
    """A list written with a blank after each comma reads as the annotated
    reader reads it: the names themselves, as the collapsed view then
    writes them."""
    text = ('digraph g { __start -> n0; n0 [label="q=s0; props=A, B; temps=T, U"]; '
            'n1 [label="q=s0; props=A, B; temps=T, U"]; n2 [label="q=s0; props=; temps="]; '
            'n0 -> n1 [label="req"]; n1 -> n2 [label="x"]; n2 -> n0 [label="o"]; }')
    lts = parse_lts_dot(text)
    assert {(n.props, n.temps) for n in lts.nodes[:2]} == {(frozenset("AB"), frozenset("TU"))}
    assert emit_collapsed_dot(collapse(lts)) == (
        'digraph collapsed {\n  __start [shape=none, label=""];\n  __start -> s0;\n'
        '  s0 [label="s0 {A,B}"];\n  s0 -> s0 [label="x / o [T,U]"];\n}\n')


def test_mealy_dot_round_trip_with_newline_in_a_symbol():
    m = MealyMachine(("a", "b"), ("x\ny", "z"), ("o\np", "ok"), "a",
                     {("a", "x\ny"): ("b", "o\np"), ("a", "z"): ("a", "ok"),
                      ("b", "x\ny"): ("a", "ok"), ("b", "z"): ("b", "o\np")})
    assert parse_dot(emit_dot(m)) == m


KEYWORD_LIKE = ("q0", "graph1", "strict_x", "subgraph_a", "digraph2", "node_1", "edge_1",
                "graph", "Node")


def keyword_named_machine() -> MealyMachine:
    """Every state is named like a DOT keyword, or is one."""
    states = KEYWORD_LIKE
    transitions = {(q, sym): (states[(i + j + 1) % len(states)], out)
                   for i, q in enumerate(states)
                   for j, (sym, out) in enumerate((("a", "x"), ("b", "y")))}
    return MealyMachine(states, ("a", "b"), ("x", "y"), states[0], transitions)


def test_states_named_like_dot_keywords_round_trip_in_every_format():
    m = keyword_named_machine()
    assert parse_dot(emit_dot(m)) == m

    cpm = Cpm(gains=(Condition(frozenset({"P"}), ("a",), ("*",)),),
              taus=(Condition(frozenset({"T"}), ("b",), ("*",)),))
    expanded = expand_tau(annotate(m, cpm), cpm)
    back = parse_annotated_dot(emit_annotated_dot(expanded))
    assert back.machine.states == expanded.machine.states
    assert back.machine.transitions == expanded.machine.transitions
    assert (back.labels, back.temp_labels) == (expanded.labels, expanded.temp_labels)

    # the transition-system format numbers its nodes; name them as well
    small = MealyMachine(("q0", "graph1"), ("a",), ("x",), "q0",
                         {("q0", "a"): ("graph1", "x"), ("graph1", "a"): ("q0", "x")})
    lts = explore(build_ir(annotate(small, Cpm()), Cpm()))
    assert len(lts.nodes) <= len(KEYWORD_LIKE)
    text = re.sub(r"\bn(\d+)\b", lambda mm: KEYWORD_LIKE[int(mm.group(1))], emit_lts_dot(lts))
    back = parse_lts_dot(text)
    assert back.initial == lts.initial
    assert back.edges == lts.edges
    assert [(n.q, n.props, n.temps) for n in back.nodes] == \
        [(n.q, n.props, n.temps) for n in lts.nodes]


KEYWORD_STATEMENTS = ('Strict DiGraph g {\n  graph [rankdir=LR]; node[shape=box]; edge [x=1]\n'
                      '  rankdir = LR\n  subgraph s { graph1 -> edge_1 }\n  rankdir_1\n}')


def test_dot_keywords_are_skipped_as_whole_tokens_only():
    graph = read_dot(KEYWORD_STATEMENTS)
    assert graph.edges == [("graph1", "edge_1", None, 4)]
    assert graph.nodes == [("rankdir_1", "", 5)]


def annotate_exit(text: str, flags: list[str], tmp_path) -> int:
    """``annotate`` on ``text`` as a model, with an empty proposition map."""
    (tmp_path / "model.dot").write_text(text)
    (tmp_path / "map.cpm").write_text("")
    return main(["annotate", *flags, "--model", str(tmp_path / "model.dot"),
                 "--cpm", str(tmp_path / "map.cpm"), "--out", str(tmp_path / "out.dot")])


KEYWORD_EDGE = 'digraph g {\n__start -> Node;\nNode -> Node [label="a / b"];\n}\n'


def test_an_edge_from_an_unquoted_keyword_is_refused(tmp_path, capsys):
    message = 'line 3: cannot parse statement \'Node -> Node [label="a / b"]\''
    for reader in (read_dot, parse_dot, parse_annotated_dot, parse_lts_dot):
        with pytest.raises(MachineError) as caught:
            reader(KEYWORD_EDGE)
        assert str(caught.value) == message
    assert annotate_exit(KEYWORD_EDGE, [], tmp_path) == 64
    assert capsys.readouterr().err == f"protocheck: error: {message}\n"
    assert not (tmp_path / "out.dot").exists()
    # quoted, the keyword names a state; a '->' in a quoted string is no edge
    quoted = KEYWORD_EDGE.replace("Node", '"Node"')
    assert parse_dot(quoted).transitions == {("Node", "a"): ("Node", "b")}
    assert read_dot('digraph g { node [label="a -> b"]; edge [x="->"] }').edges == []


@pytest.mark.parametrize("source", ["Node", "node", "EDGE", "digraph"])
def test_a_keyword_edge_is_refused_with_or_without_blanks(source):
    """'->' ends a keyword as a blank does, so a keyword edge written
    without blanks is refused too; a '-' that starts no '->' continues
    the name."""
    for arrow in ("->", " -> "):
        statement = f'{source}{arrow}q [label="a / b"]'
        with pytest.raises(MachineError) as caught:
            read_dot(f"digraph g {{\n__start -> q;\n{statement};\n}}\n")
        assert str(caught.value) == f"line 3: cannot parse statement {statement!r}"
    graph = read_dot(f'digraph g {{\n__start -> q;\n{source}-1->q [label="a / b"];\n}}\n')
    assert graph.edges == [(f"{source}-1", "q", "a / b", 3)]


@pytest.mark.parametrize("statement", [
    'rankdir = LR -> q [label="a / b"]', "rankdir = LR TB", "rankdir =", "rankdir = LR x=1"])
def test_only_a_rankdir_setting_of_one_value_is_skipped(statement):
    """A statement that starts as a rankdir setting and goes on is refused,
    not dropped; one value, plain or quoted, in any case and with or
    without blanks, is skipped."""
    with pytest.raises(MachineError) as caught:
        read_dot(f'digraph g {{\n__start -> q;\n{statement};\nq -> q [label="a / b"];\n}}\n')
    assert str(caught.value) == f"line 3: cannot parse statement {statement!r}"
    graph = read_dot('digraph g {\n__start -> q;\nrankdir=LR; RankDir = "TB"\n'
                     'rankdir = lr ;q -> q [label="a / b"];\n}\n')
    assert graph.edges == [("q", "q", "a / b", 4)]


INTO_START = ('digraph g {\n__start -> q0;\nq0;\nq0 -> q0 [label="b / b"];\n'
              'q0 -> __start [label="a / b"];\n}\n')


@pytest.mark.parametrize("flags", [[], ["--complete"]], ids=["strict", "complete"])
def test_an_edge_into_the_initial_state_marker_is_refused(flags, tmp_path, capsys):
    message = "line 5: edge 'q0' -> '__start' ends at the reserved initial-state marker"
    for reader in (read_dot, parse_dot, parse_annotated_dot, parse_lts_dot):
        with pytest.raises(MachineError) as caught:
            reader(INTO_START)
        assert str(caught.value) == message
    assert annotate_exit(INTO_START, flags, tmp_path) == 64
    assert capsys.readouterr().err == f"protocheck: error: {message}\n"
    assert not (tmp_path / "out.dot").exists()
    # from the marker to itself is no initial state either
    with pytest.raises(MachineError, match="^line 2: edge '__start' -> '__start' ends at"):
        read_dot("digraph g {\n__start -> __start;\n}")


CONFLICTING_START = ('digraph g {{\n__start -> q0;\nq0 [label="{q0}"{mark0}];\n'
                     'q1 [label="{q1}"{mark1}];\n'
                     'q0 -> q1 [label="a / b"];\nq1 -> q0 [label="a / b"];\n}}\n')
ANNOTATED_NODES = {"q0": "q0 {}", "q1": "q1 {}"}
LTS_NODES = {"q0": "q=q0; props=; temps=", "q1": "q=q1; props=; temps="}


@pytest.mark.parametrize("reader,labels,initial,argv", [
    (parse_annotated_dot, ANNOTATED_NODES, lambda a: a.machine.initial,
     ["expand", "--annotated", "{dot}", "--cpm", "{cpm}"]),
    (parse_lts_dot, LTS_NODES, lambda lts: lts.nodes[lts.initial].q,
     ["collapse", "--lts", "{dot}"]),
])
def test_conflicting_initial_markers_are_rejected(reader, labels, initial, argv,
                                                  tmp_path, capsys):
    text = CONFLICTING_START.format(**labels, mark0="", mark1=", initial=true")
    with pytest.raises(MachineError, match=r"^line 4: multiple initial states \('q0', 'q1'\)$"):
        reader(text)
    (tmp_path / "in.dot").write_text(text)
    (tmp_path / "map.cpm").write_text("")
    paths = {"dot": str(tmp_path / "in.dot"), "cpm": str(tmp_path / "map.cpm")}
    code = main([arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "out.dot")])
    assert code == 64
    assert "line 4: multiple initial states ('q0', 'q1')" in capsys.readouterr().err
    # a start edge and initial=true on the same node agree
    agreeing = CONFLICTING_START.format(**labels, mark0=", initial=true", mark1="")
    assert initial(reader(agreeing)) == "q0"


# Every emitter's bytes, pinned by sha256 on seeded machines whose symbols
# hold quotes, backslashes, '/', ';' and a newline and whose states are
# named like DOT keywords: an emitter may change how it builds its text,
# not the text.
PIN_STATES = ("graph", "Node", "strict_x", 's;1', "s\n2", 's/"q\\3', "q4", "edge")
PIN_INPUTS = ("a/b", 'we"ird', "back\\slash", "x;y", "n\nl", "plain")
PIN_OUTPUTS = ("o/1", 'o"2', "o\\3", "o;4", "o\n5", "ok")
PIN_CPM = Cpm(
    gains=(Condition(frozenset({"A"}), ("a/b",), ("o/*",)),
           Condition(frozenset({"B"}), ('we"ird', "x;y"), ("*",)),
           Condition(frozenset({"C"}), ("n\nl",), ("o;4", "ok"))),
    loses=(Condition(frozenset({"A"}), ("back\\slash",), ("*",)),
           Condition(frozenset({"B"}), ("plain",), ("o\n5",))),
    taus=(Condition(frozenset({"T"}), ("plain",), ('o"2', "ok")),
          Condition(frozenset({"U"}), ("x;y",), ("o;4",))),
)


def pinned_machine(seed: int) -> MealyMachine:
    rng = random.Random(seed)
    n = len(PIN_STATES)
    transitions = {}
    for i, q in enumerate(PIN_STATES):
        for j, sym in enumerate(PIN_INPUTS):
            # the first input walks a cycle through every state
            dst = PIN_STATES[(i + 1) % n] if j == 0 else rng.choice(PIN_STATES)
            transitions[(q, sym)] = (dst, rng.choice(PIN_OUTPUTS))
    outputs = tuple(dict.fromkeys(out for _, out in transitions.values()))
    return MealyMachine(PIN_STATES, PIN_INPUTS, outputs, PIN_STATES[0], transitions)


def emitted_documents(seed: int) -> dict[str, str]:
    m = pinned_machine(seed)
    annotated = annotate(m, PIN_CPM)
    ir = build_ir(annotated, PIN_CPM)
    mutated_ir = apply_timeout_mutation(ir)
    mutated = explore(mutated_ir)
    collapsed = collapse(mutated)
    assert not collapsed.is_deterministic()
    return {
        "emit_dot": emit_dot(m),
        "emit_annotated_dot": emit_annotated_dot(annotated),
        "emit_annotated_dot_expanded": emit_annotated_dot(expand_tau(annotated, PIN_CPM)),
        "emit_lts_dot": emit_lts_dot(explore(ir)),
        "emit_lts_dot_mutated": emit_lts_dot(mutated),
        "emit_collapsed_dot": emit_collapsed_dot(collapsed),
        "emit_rebeca": emit_rebeca(ir),
        "emit_rebeca_mutated": emit_rebeca(mutated_ir),
    }


EMITTED_SHA256 = {
    0: {"emit_dot": "77261be4ae40874bca8bdd245cdfc095e41ec25406cbd499e656cd72ea382a14",
        "emit_annotated_dot": "44d0a386393cbd13a301a13f161a2fa4bf320d81c0f618059ee32413fa46ecae",
        "emit_annotated_dot_expanded":
            "c869d09b6e6a8e349cb1971d1324d4465d5bf92d0aaeef480619c87b8e4b82df",
        "emit_lts_dot": "a50ff7966d1ef2a4f89dec4b16a2098bf70044eb3e0ae44fec0bf597c23275b7",
        "emit_lts_dot_mutated": "2c72f1f939ad9ec8aab1ba3f789b9c45ae152b6a1083fa58e62b7cd068196497",
        "emit_collapsed_dot": "4ae25c5cad0fb1c0f86a3379df539e5fb006c77b74ed1b1262cb3889e130cdbd",
        "emit_rebeca": "e343337eabe0cf12d908e0ea36fcb47610ee342b1e684fb75c972ab61cd267f7",
        "emit_rebeca_mutated": "6c5d9fc33474e26db16d3a95433d80196ff7fa02c0a6375461e069dd2ce14699"},
    1: {"emit_dot": "2f08f5ff6aa1702782087200710182d1107c3be4d334907d8183b6bc3e4c07b1",
        "emit_annotated_dot": "3981d6783aecfc1325dc020bf7c06eff3689424aa38d2ef78357bf96a73933da",
        "emit_annotated_dot_expanded":
            "96bc020718110ebcf62f7903ec745a2cf2b231fc9eb1a8ddf2db55ca7b121a51",
        "emit_lts_dot": "078ac9fe8004cae90e047ad784cb15c0d7eefb0e5deda13e5c3c043b1fed9abf",
        "emit_lts_dot_mutated": "850805a5dcdee31fc6de3cf782435b50cf45df0954b9f73353892944fe75e614",
        "emit_collapsed_dot": "f11543b0a6000ed9943e1042c0448e4b53fbd92bacb1c3cee8f430a1a26f7415",
        "emit_rebeca": "4037a51c2394d3e08d12c9c74cfbcd2ca4c5644e41649857568d3adc79c915e7",
        "emit_rebeca_mutated": "c533ebfabb7d905638a54cba90229e7fdb6eddd9891b4baa4c7d7c21ecf97bad"},
}


@pytest.mark.parametrize("seed", range(2))
def test_emitted_bytes_are_pinned(seed):
    digests = {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
               for name, text in emitted_documents(seed).items()}
    assert digests == EMITTED_SHA256[seed]


# The readers' whole behaviour on a fixed corpus, pinned by one sha256:
# read_dot's graph, and each reader's result or its exact message.  The
# corpus is every emitted document and the hand-written ones above, each
# also with '\r\n' line ends and tab indentation, and seeded one-character
# corruptions of the seed-0 DOT documents.  A reader may change how it reads,
# not what it reads.
CORRUPTING = ';"\\->[]{}#/=\n'


def keyword_documents() -> list[str]:
    m = keyword_named_machine()
    cpm = Cpm(gains=(Condition(frozenset({"P"}), ("a",), ("*",)),),
              taus=(Condition(frozenset({"T"}), ("b",), ("*",)),))
    annotated = annotate(m, cpm)
    return [emit_dot(m), emit_annotated_dot(expand_tau(annotated, cpm)),
            emit_lts_dot(explore(build_ir(annotated, cpm))), KEYWORD_STATEMENTS, KEYWORD_EDGE]


def corruptions(docs: list[str], count: int, rng: random.Random) -> list[str]:
    """``count`` documents, each one of ``docs`` with one character of
    CORRUPTING deleted, inserted or doubled."""
    out = []
    while len(out) < count:
        doc, char = rng.choice(docs), rng.choice(CORRUPTING)
        op = rng.choice(("delete", "insert", "double"))
        if op == "insert":
            i = rng.randrange(len(doc) + 1)
            out.append(doc[:i] + char + doc[i:])
            continue
        places = [i for i, c in enumerate(doc) if c == char]
        if places:
            i = rng.choice(places)
            out.append(doc[:i] + ("" if op == "delete" else char * 2) + doc[i + 1:])
    return out


def reader_corpus() -> list[str]:
    seed0 = emitted_documents(0)
    docs = [*seed0.values(), *emitted_documents(1).values(), PINNED_DOC, *SPLITTING_DOCS,
            *keyword_documents()]
    docs += [doc.replace("\n", "\r\n") for doc in docs] + \
        [re.sub(r"(?m)^ +", "\t", doc) for doc in docs]
    dot = [text for name, text in seed0.items() if "rebeca" not in name]
    return docs + corruptions(dot, 300, random.Random(0))


def graph_summary(text: str):
    graph = read_dot(text)
    return graph.nodes, graph.edges, graph.initials, list(graph.mentioned)


def machine_summary(m: MealyMachine):
    return m.states, m.inputs, m.outputs, m.initial, list(m.transitions.items())


def annotated_summary(text: str):
    a = parse_annotated_dot(text)
    return (machine_summary(a.machine), [(q, sorted(p)) for q, p in a.labels.items()],
            sorted(a.tau_states), [(q, sorted(t)) for q, t in a.temp_labels.items()])


def lts_summary(text: str):
    lts = parse_lts_dot(text)
    return ([(n.index, n.q, sorted(n.props), sorted(n.temps), n.phase, n.pending)
             for n in lts.nodes], lts.edges, lts.initial)


# the sets in a result are sorted: the digest holds under every hash seed
READERS = (graph_summary, lambda text: machine_summary(parse_dot(text)),
           annotated_summary, lts_summary)


def read_outcome(reader, text: str):
    try:
        return reader(text)
    except MachineError as exc:
        return str(exc)


READER_CORPUS_SHA256 = "82e19d5f3db01ec67c22fa70ef304e6ce3cb742a270b8ae6021f57f617a5288e"


def test_reader_corpus_is_pinned():
    outcomes = [[read_outcome(reader, text) for reader in READERS]
                for text in reader_corpus()]
    digest = hashlib.sha256(repr(outcomes).encode("utf-8")).hexdigest()
    assert digest == READER_CORPUS_SHA256

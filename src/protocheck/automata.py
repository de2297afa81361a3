"""Deterministic Mealy machines: representation, DOT serialization, equivalence.

A machine is a finite-state transducer (states, inputs, outputs, transition
map, initial state) where every (state, input) pair has exactly one
(next state, output) entry.  Machines are treated as immutable after
construction; all operations here are pure functions.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import cache

# Input symbol reserved for the empty input on internal (tau) states.
EPSILON = "__eps"
# Output symbol reserved for the first half of a split internal transition.
TAU = "__tau"
# Pseudo-node marking the initial state in DOT files.
START_NODE = "__start"
# Output of the self-loops that complete a partial machine.
NO_RESPONSE = "no_response"

Word = tuple[str, ...]


class MachineError(ValueError):
    """Raised for structurally invalid machines or unparsable DOT input."""


@dataclass(frozen=True)
class MealyMachine:
    """Deterministic, input-complete Mealy machine.

    ``transitions`` maps (state, input) to (next state, output) and houses
    both the transition and the output function.  ``states``, ``inputs`` and
    ``outputs`` are ordered: their order fixes serialization and code
    generation order everywhere downstream.
    """

    states: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    initial: str
    transitions: dict[tuple[str, str], tuple[str, str]]
    require_complete: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        state_set, input_set, output_set = set(self.states), set(self.inputs), set(self.outputs)
        if len(state_set) != len(self.states):
            raise MachineError("duplicate state identifiers")
        if len(input_set) != len(self.inputs):
            raise MachineError("duplicate input symbols")
        if self.initial not in state_set:
            raise MachineError(f"initial state {self.initial!r} not among states")
        transitions = self.transitions
        for (src, sym), (dst, out) in transitions.items():
            if src not in state_set:
                raise MachineError(f"transition from unknown state {src!r}")
            if dst not in state_set:
                raise MachineError(f"transition into unknown state {dst!r}")
            if sym not in input_set and sym != EPSILON:
                raise MachineError(f"transition on unknown input {sym!r}")
            if out not in output_set:
                raise MachineError(f"transition with unknown output {out!r}")
        if EPSILON in self.inputs:
            raise MachineError(f"{EPSILON!r} is reserved and may not appear in the input alphabet")
        if START_NODE in state_set:
            raise MachineError(f"{START_NODE!r} is reserved as the initial-state marker "
                               "and may not name a state")
        if self.require_complete:
            missing = [
                (q, a) for q in self.states for a in self.inputs if (q, a) not in transitions
            ]
            if missing:
                q, a = missing[0]
                raise MachineError(
                    f"machine is not input-complete: no transition for state {q!r} "
                    f"on input {a!r} ({len(missing)} missing in total)"
                )

    def run(self, word: Word) -> Word:
        """Output word produced by feeding ``word`` from the initial state."""
        state = self.initial
        outputs = []
        for symbol in word:
            state, out = self.transitions[(state, symbol)]
            outputs.append(out)
        return tuple(outputs)

    def successors(self, state: str):
        for sym in self.inputs:
            entry = self.transitions.get((state, sym))
            if entry is not None:
                yield sym, entry[0], entry[1]


def complete(m: MealyMachine) -> MealyMachine:
    """Fill missing (state, input) pairs with self-loops emitting ``NO_RESPONSE``.

    This is the downgrade path for hand-edited fixtures; learned models are
    total already.
    """
    transitions = dict(m.transitions)
    added = False
    for q in m.states:
        for a in m.inputs:
            if (q, a) not in transitions:
                transitions[(q, a)] = (q, NO_RESPONSE)
                added = True
    outputs = m.outputs
    if added and NO_RESPONSE not in outputs:
        outputs = outputs + (NO_RESPONSE,)
    return MealyMachine(m.states, m.inputs, outputs, m.initial, transitions)


def reachable(m: MealyMachine) -> MealyMachine:
    """Restriction of ``m`` to the states reachable from its initial state."""
    seen = {m.initial}
    frontier = deque([m.initial])
    while frontier:
        q = frontier.popleft()
        for _, dst, _ in m.successors(q):
            if dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    states = tuple(q for q in m.states if q in seen)
    transitions = {
        (q, a): v for (q, a), v in m.transitions.items() if q in seen
    }
    used_outputs = {out for (_, out) in transitions.values()}
    outputs = tuple(o for o in m.outputs if o in used_outputs)
    return MealyMachine(states, m.inputs, outputs, m.initial, transitions,
                        require_complete=m.require_complete)


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    witness: Word | None = None
    left_outputs: Word | None = None
    right_outputs: Word | None = None

    def __bool__(self):
        return self.equivalent


def bisimilar(a: MealyMachine, b: MealyMachine) -> EquivalenceResult:
    """Check output-trace equivalence of two deterministic machines.

    For deterministic input-complete Mealy machines bisimilarity coincides
    with trace equivalence, so a breadth-first product search suffices; it
    returns a shortest distinguishing input word when the machines differ.
    Each pair keeps the pair and input it was reached by, and the word is
    read back from them once, when the outputs differ.
    """
    if set(a.inputs) != set(b.inputs):
        only_a = sorted(set(a.inputs) - set(b.inputs))
        only_b = sorted(set(b.inputs) - set(a.inputs))
        raise MachineError(
            f"input alphabets differ (left-only: {only_a}, right-only: {only_b})")
    start = (a.initial, b.initial)
    parent = {start: None}
    frontier = deque([start])
    while frontier:
        qa, qb = here = frontier.popleft()
        for sym in a.inputs:
            na, oa = a.transitions[(qa, sym)]
            nb, ob = b.transitions[(qb, sym)]
            if oa != ob:
                word = [sym]
                while parent[here] is not None:
                    here, step = parent[here]
                    word.append(step)
                word = tuple(reversed(word))
                return EquivalenceResult(False, word, a.run(word), b.run(word))
            pair = (na, nb)
            if pair not in parent:
                parent[pair] = (here, sym)
                frontier.append(pair)
    return EquivalenceResult(True)


# ---------------------------------------------------------------------------
# DOT serialization
# ---------------------------------------------------------------------------
#
# Symbols are opaque tokens, so they are escaped on emit (backslash, quote,
# and the label separator '/') and unescaped on parse; this keeps symbols
# like '10_01' or ones containing '/' stable across round-trips.  One reader
# (read_dot) turns a document into nodes and edges for all three formats:
# Mealy machines here, annotated machines and transition systems elsewhere;
# one codec (_split_label, _split_fields) splits their labels.

# DOT keywords, matched as whole tokens: a statement that starts with one is
# a header or a default attribute list, and a state so named is quoted.  A
# '-' continues the token unless it starts '->'.
_KEYWORD = r"(?i:digraph|graph|strict|subgraph|node|edge)(?![A-Za-z0-9_.+]|-(?!>))"
_PLAIN_ID = re.compile(rf"^(?!{_KEYWORD})[A-Za-z_][A-Za-z0-9_]*$|^[0-9]+$")
_ESCAPED = re.compile(r"\\(.)", re.S)
_LABEL_SPLIT = re.compile(r"((?:\\.|[^\\/])*)/(.*)", re.S)
_FIELD_RE = re.compile(r"(?:\\.|[^\\;])+", re.S)


def _escape(symbol: str) -> str:
    return symbol.replace("\\", "\\\\").replace('"', '\\"').replace("/", "\\/")


def _unescape(text: str) -> str:
    return _ESCAPED.sub(r"\1", text) if "\\" in text else text


def _quote(symbol: str) -> str:
    escaped = _escape(symbol)
    if _PLAIN_ID.match(symbol) and symbol == escaped:
        return symbol
    return f'"{escaped}"'


def _split_label(label: str, lineno: int) -> tuple[str, str]:
    """Split an edge label 'input / output' on the first unescaped '/'; a
    label without a backslash has nothing to unescape."""
    if "\\" not in label:
        sym, sep, out = label.partition("/")
        if sep:
            return sym.strip(), out.strip()
    elif m := _LABEL_SPLIT.match(label):
        return _unescape(m.group(1).strip()), _unescape(m.group(2).strip())
    raise MachineError(f"line {lineno}: edge label {label!r} lacks 'input / output' separator")


def _split_fields(label: str) -> list[str]:
    """The 'k=v; ...' fields of a label, split on every unescaped ';'."""
    return label.split(";") if "\\" not in label else _FIELD_RE.findall(label)


# Every optional group is written as a branch, (?:X|) for (?:X)? and (?:|X)
# for (?:X)??, and a repeated group (?:aX)* as (?:aX(?:aX)*|), which enters
# the repeat only after its first character: re runs a branch, and rejects
# one on its first character, far more cheaply than it runs a repeat.
_INNER = r'[^"\\]*(?:\\.[^"\\]*(?:\\.[^"\\]*)*|)'      # inside a quoted string
_TOKEN = rf'(?:"{_INNER}"|[A-Za-z0-9_.+-]+)'
_SP = r"[^\S\n]*"                       # blanks inside a statement
_BODY = rf'[^"\n;{{}}]*(?:"{_INNER}"[^"\n;{{}}]*(?:"{_INNER}"[^"\n;{{}}]*)*|)'
# An attribute list; a final label="..." is read off directly, any other
# attributes stay raw text.
_ATTRS = rf'(?:\[(?:(?:|({_BODY}),){_SP}label{_SP}={_SP}"({_INNER})"{_SP}|({_BODY}))\]|)'
# One match is one statement and the separators after it: a node or an edge
# (groups 1-5: name, target of an edge, the attributes before a final label,
# that label, the raw attributes without one), a comment (no group), or
# anything else (6), which is a header or an error; only a match at the
# start may hold separators alone.  A statement runs up to ';', a newline, a
# brace or '//' outside quoted strings; a comment starts with '//' or '#' and
# runs to the newline.  The keyword lookahead runs only on a keyword's first
# letter.  re.S: a quoted string may hold a newline.
_DOT_RE = re.compile(
    rf"(?:{_SP}(?!(?=[dDgGsSnNeE]){_KEYWORD})({_TOKEN}){_SP}(?:->{_SP}({_TOKEN}){_SP}|)"
    rf"{_ATTRS}{_SP}(?=[\n;{{}}]|//|\Z)"
    rf"|{_SP}(?://|#)[^\n]*"
    rf'|((?:[^"\n;{{}}/]+|/(?!/)|"{_INNER}"?)+)|)[\s;{{}}]*', re.S)
# statements that carry no machine content: a header or a default attribute
# list (a keyword statement; one holding '->' outside quoted strings is an
# edge from an unquoted keyword, and an error), a rankdir setting of one
# value, or blanks
_SKIP = re.compile(rf'\s*(?:{_KEYWORD}(?:[^"-]|-(?!>)|"{_INNER}(?:"|\Z))*\Z'
                   rf"|(?i:rankdir)\s*=\s*{_TOKEN}\s*\Z)|\s*$")
_ATTR_RE = re.compile(rf"(\w+)\s*=\s*({_TOKEN})")


def _attr(attrs: str | None, key: str) -> str | None:
    """The last value of ``key`` in raw attribute text, quotes stripped and
    escapes intact: they are resolved once, where the value is used.  Text
    that does not hold ``key`` is not searched."""
    value = dict(_ATTR_RE.findall(attrs)).get(key) if attrs and key in attrs else None
    return value[1:-1] if value and value[0] == '"' else value


@dataclass
class DotGraph:
    """Nodes and edges of a DOT document, each with its line number.

    ``nodes`` holds the node statements as (name, raw label, line) and
    ``edges`` the edges as (source, target, raw label or None, line), both in
    document order.  ``initials`` holds every initial-state marker as
    (name, line): an edge from ``__start`` or an ``initial=true`` attribute;
    they all name the same node.  ``mentioned`` lists every node name in
    order of first mention.
    """

    nodes: list[tuple[str, str, int]] = field(default_factory=list)
    edges: list[tuple[str, str, str | None, int]] = field(default_factory=list)
    initials: list[tuple[str, int]] = field(default_factory=list)
    mentioned: dict[str, None] = field(default_factory=dict)


def read_dot(text: str) -> DotGraph:
    """Sort the statements of a DOT document into nodes, edges and initial
    markers in one pass.  Comments ('//' outside quoted strings, '#' at the
    start of a statement, each to the end of its line) and headers are
    dropped; any other statement that is neither a node nor an edge is an
    error carrying its line number, and so are an edge into ``__start`` and
    initial markers naming different nodes."""
    graph = DotGraph()
    nodes, edges, initials, mentioned = graph.nodes, graph.edges, graph.initials, graph.mentioned
    line = 1
    for m in _DOT_RE.finditer(text):
        name, dst, others, label, attrs, other = m.groups()
        if name:
            if name[0] == '"':
                name = _unescape(name[1:-1])
            if dst:
                if dst[0] == '"':
                    dst = _unescape(dst[1:-1])
                if dst == START_NODE:
                    raise MachineError(f"line {line}: edge {name!r} -> {dst!r} ends at the "
                                       "reserved initial-state marker")
                if name == START_NODE:
                    initials.append((dst, line))
                else:
                    mentioned[name] = None
                    edges.append((name, dst, _attr(attrs, "label") if label is None else label,
                                  line))
                mentioned[dst] = None
            elif name != START_NODE:
                if label is None:
                    label, others = _attr(attrs, "label") or "", attrs
                mentioned[name] = None
                nodes.append((name, label, line))
                if others and (_attr(others, "initial") or "").lower() == "true":
                    initials.append((name, line))
        elif other and not _SKIP.match(other):
            raise MachineError(f"line {line}: cannot parse statement {other.strip()!r}")
        line += m.group().count("\n")
    for name, line in initials:
        if name != initials[0][0]:
            raise MachineError(f"line {line}: multiple initial states ({initials[0][0]!r}, {name!r})")
    return graph


def dot_document(name: str, initial: str, body: list[str]) -> str:
    """The frame of every emitted document: header, the ``__start`` marker
    pointing at ``initial`` (an already quoted node id), body, closing brace."""
    return "\n".join([f"digraph {name} {{", f'  {START_NODE} [shape=none, label=""];',
                      f"  {START_NODE} -> {initial};", *body, "}"]) + "\n"


def dot_edge(src: str, dst: str, label: str) -> str:
    """An edge statement between two node ids, both already quoted."""
    return f'  {src} -> {dst} [label="{label}"];'


def io_label(symbol: str, output: str) -> str:
    return f"{_escape(symbol)} / {_escape(output)}"


def prop_list(props) -> str:
    """A proposition set as the formats write it: sorted, comma-separated."""
    return ",".join(sorted(props))


def prop_names(cell: str) -> frozenset[str]:
    """A comma-separated proposition list as the readers take it: each
    name stripped of blanks, empty ones dropped."""
    return frozenset(p.strip() for p in cell.split(",") if p.strip())


def transition_edges(m: MealyMachine, quote) -> list[str]:
    """One edge per transition: states in order, each state's inputs in
    alphabet order, then the empty input that leaves an internal state.
    ``quote`` is the document's cached :func:`_quote`; each label is escaped
    once per document."""
    label = cache(io_label)
    edges = []
    for q in m.states:
        src = quote(q)
        for sym in m.inputs + (EPSILON,):
            entry = m.transitions.get((q, sym))
            if entry is not None:
                dst, out = entry
                edges.append(dot_edge(src, quote(dst), label(sym, out)))
    return edges


# the two rules every reader of the DOT formats shares, worded once
NO_INITIAL_STATE = "no initial state: add a '__start -> q' edge or an initial=true attribute"


def unlabeled_edge(src: str, dst: str, lineno: int) -> MachineError:
    return MachineError(f"line {lineno}: edge {src!r} -> {dst!r} has no label")


def transition_table(graph: DotGraph):
    """The transition map, its inputs and outputs in order of first use, and
    the initial state of a machine document.  A repeated identical edge is
    kept once; differing edges on one state and input are nondeterminism."""
    transitions: dict[tuple[str, str], tuple[str, str]] = {}
    # each distinct label is split once per document; in the order of first
    # use, the labels' symbols are the machine's
    pairs: dict[str, tuple[str, str]] = {}
    for src, dst, label, lineno in graph.edges:
        if label is None:
            raise unlabeled_edge(src, dst, lineno)
        sym, out = pairs.get(label) or pairs.setdefault(label, _split_label(label, lineno))
        entry = (dst, out)
        if transitions.setdefault((src, sym), entry) != entry:
            raise MachineError(f"line {lineno}: nondeterminism at state {src!r} on input {sym!r}")
    if not graph.initials:
        raise MachineError(NO_INITIAL_STATE)
    inputs = tuple(dict.fromkeys(sym for sym, _ in pairs.values()))
    outputs = tuple(dict.fromkeys(out for _, out in pairs.values()))
    return transitions, inputs, outputs, graph.initials[0][0]


def parse_dot(text: str, complete_missing: bool = False) -> MealyMachine:
    """Parse a GraphViz DOT document into a validated Mealy machine.

    Edges must be labeled ``input / output``.  The initial state is marked
    either by an edge from the pseudo-node ``__start`` or by a node attribute
    ``initial=true``.  Alphabets are inferred from the symbols seen.
    """
    graph = read_dot(text)
    transitions, inputs, outputs, initial = transition_table(graph)
    machine = MealyMachine(tuple(graph.mentioned), inputs, outputs, initial,
                           transitions, require_complete=not complete_missing)
    if complete_missing:
        machine = complete(machine)
    return machine


def emit_dot(m: MealyMachine) -> str:
    """Canonical DOT text for ``m``; ``parse_dot`` round-trips it exactly."""
    quote = cache(_quote)
    body = [f"  {quote(q)};" for q in m.states]
    return dot_document("mealy", quote(m.initial), body + transition_edges(m, quote))

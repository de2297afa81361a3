"""Context-based proposition maps and state annotation.

A proposition map declares, per (input, output) pattern pair, which
propositions a transition's target state gains, which propositions the
transition refuses to carry over, and which temporary propositions hold for
exactly the internal step following the transition.  Applying a map to a
Mealy machine yields an annotated machine whose states carry proposition
sets, i.e. a Kripke-structure view layered over the transducer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import NamedTuple

from .automata import (EPSILON, TAU, MealyMachine, _escape, _quote, dot_document,
                       prop_list, prop_names, read_dot, transition_edges, transition_table)

_PROP_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


class CpmError(ValueError):
    """Raised for malformed proposition-map files."""


@dataclass(frozen=True)
class Condition:
    """One rule row: propositions plus input/output glob pattern sets."""

    props: frozenset[str]
    input_patterns: tuple[str, ...]
    output_patterns: tuple[str, ...]

    def matches_pair(self, symbol: str, output: str) -> bool:
        return matches(self.input_patterns, symbol) and matches(self.output_patterns, output)


class PairRules(NamedTuple):
    """What a map does to every transition labeled with one (input, output)
    pair: the propositions its target gains, those it does not carry over,
    the temporaries it raises, and the rules that match it as (kind, index)."""

    gained: frozenset[str]
    blocked: frozenset[str]
    raised: frozenset[str]
    fired: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Cpm:
    gains: tuple[Condition, ...] = ()
    loses: tuple[Condition, ...] = ()
    taus: tuple[Condition, ...] = ()
    _decided: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def state_props(self) -> tuple[str, ...]:
        names = set()
        for c in self.gains + self.loses:
            names |= c.props
        return tuple(sorted(names))

    @property
    def temp_props(self) -> tuple[str, ...]:
        names = set()
        for c in self.taus:
            names |= c.props
        return tuple(sorted(names))

    @property
    def declared_props(self) -> frozenset[str]:
        return frozenset(self.state_props) | frozenset(self.temp_props)

    def rules(self, symbol: str, output: str) -> PairRules:
        """The rules for a transition labeled ``symbol / output``, decided on
        first use and kept: each set is the union over every matching rule."""
        found = self._decided.get((symbol, output))
        if found is None:
            fired, unions = [], []
            for kind in ("gains", "loses", "taus"):
                matched = [(i, c.props) for i, c in enumerate(getattr(self, kind))
                           if c.matches_pair(symbol, output)]
                fired += [(kind, i) for i, _ in matched]
                unions.append(frozenset().union(*[props for _, props in matched]))
            found = self._decided[(symbol, output)] = PairRules(*unions, tuple(fired))
        return found

    def raised_temps(self, symbol: str, output: str) -> frozenset[str]:
        """Temporary propositions a transition raises."""
        return self.rules(symbol, output).raised


def matches(patterns, symbol: str) -> bool:
    """True iff any glob pattern matches the whole symbol.

    ``*`` is the only wildcard and matches any (possibly empty) character
    run; matching is case-sensitive over the full symbol.
    """
    for pattern in patterns:
        if _glob_matcher(pattern)(symbol):
            return True
    return False


@lru_cache(maxsize=4096)
def _glob_matcher(pattern: str):
    """The compiled whole-symbol matcher of one glob, built once."""
    regex = ".*".join(re.escape(part) for part in pattern.split("*"))
    return re.compile(regex, re.S).fullmatch


_SECTIONS = {"[GAINS]": "gains", "[LOSES]": "loses", "[TAUS]": "taus"}


def parse_cpm(text: str) -> Cpm:
    """Parse the line-oriented proposition-map format.

    Section headers are ``[GAINS]``, ``[LOSES]``, ``[TAUS]``; each row is
    ``props | input-patterns | output-patterns`` with comma-separated cells;
    ``#`` starts a comment.
    """
    rows: dict[str, list[Condition]] = {"gains": [], "loses": [], "taus": []}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        upper = line.upper()
        if upper in _SECTIONS:
            section = _SECTIONS[upper]
            continue
        if section is None:
            raise CpmError(f"line {lineno}: row before any section header")
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) != 3:
            raise CpmError(f"line {lineno}: expected 3 cells separated by '|', got {len(cells)}")
        parts = []
        for cell in cells:
            entries = tuple(e.strip() for e in cell.split(",") if e.strip())
            if not entries:
                raise CpmError(f"line {lineno}: empty cell")
            parts.append(entries)
        props, in_pats, out_pats = parts
        for p in props:
            if not _PROP_RE.match(p):
                raise CpmError(f"line {lineno}: invalid proposition name {p!r}")
        rows[section].append(Condition(frozenset(props), in_pats, out_pats))

    cpm = Cpm(tuple(rows["gains"]), tuple(rows["loses"]), tuple(rows["taus"]))
    overlap = set(cpm.state_props) & set(cpm.temp_props)
    if overlap:
        raise CpmError(
            "temporary propositions collide with state propositions: "
            + ", ".join(sorted(overlap))
        )
    return cpm


@dataclass(frozen=True)
class AnnotatedMachine:
    """Mealy machine whose states carry proposition sets.

    ``tau_states`` marks internal states produced by transition splitting;
    each of those has exactly one incoming transition (ending in the
    reserved tau output) and one outgoing transition on the reserved empty
    input.  ``temp_labels`` holds their temporary propositions.
    """

    machine: MealyMachine
    labels: dict[str, frozenset[str]]
    tau_states: frozenset[str] = frozenset()
    temp_labels: dict[str, frozenset[str]] = field(default_factory=dict)
    diagnostics: tuple[str, ...] = ()

    def label(self, state: str) -> frozenset[str]:
        return self.labels.get(state, frozenset())

    def temps(self, state: str) -> frozenset[str]:
        return self.temp_labels.get(state, frozenset())


def annotate(m: MealyMachine, cpm: Cpm) -> AnnotatedMachine:
    """Label every state of ``m`` per the proposition map.

    The rules are decided once per (input, output) pair (:meth:`Cpm.rules`).
    Two phases: seed target states of transitions matched by gain rows;
    propagate to a fixpoint, where a transition carries p unless a lose rule
    for p matches it.  Gains win over lose-blocking on the same transition:
    the seed is applied regardless.
    The initial state starts unlabeled and only acquires labels through
    incoming transitions.
    """
    transitions = [
        (q, dst, cpm.rules(sym, out))
        for q in m.states for sym in m.inputs
        for dst, out in [m.transitions[(q, sym)]]
    ]

    labels: dict[str, set[str]] = {q: set() for q in m.states}
    for _, dst, rules in transitions:
        labels[dst] |= rules.gained

    # monotone fixpoint: every pass but the last adds a label, so it takes
    # at most |Q| * |P| + 1 passes (checked)
    for _ in range(len(m.states) * len({p for c in cpm.gains for p in c.props}) + 1):
        changed = False
        for q, dst, rules in transitions:
            new = labels[q] - rules.blocked - labels[dst]
            if new:
                labels[dst] |= new
                changed = True
        if not changed:
            break
    else:
        raise CpmError("annotation fixpoint failed to converge")

    fired = set().union(*{rules.fired for _, _, rules in transitions})
    diagnostics = [
        f"unused {kind} condition {sorted(c.props)}: matched no transition"
        for kind in ("gains", "loses", "taus")
        for i, c in enumerate(getattr(cpm, kind)) if (kind, i) not in fired
    ]
    # union semantics: flag states whose incoming transitions disagree on a
    # proposition (some grant or carry it, others do not)
    incoming: dict[str, list[tuple[str, PairRules]]] = {q: [] for q in m.states}
    for q, dst, rules in transitions:
        incoming[dst].append((q, rules))
    for dst in m.states:
        if not incoming[dst]:
            continue
        for p in sorted(labels[dst]):
            supplying = [
                q for q, rules in incoming[dst]
                if p in rules.gained or (p in labels[q] and p not in rules.blocked)
            ]
            if supplying and len(supplying) != len(incoming[dst]):
                diagnostics.append(
                    f"state {dst!r}: incoming transitions disagree on {p!r} "
                    f"({len(supplying)}/{len(incoming[dst])} supply it; union applied)"
                )

    return AnnotatedMachine(
        machine=m,
        labels={q: frozenset(v) for q, v in labels.items()},
        diagnostics=tuple(diagnostics),
    )


def split_tau(states: list[str], outcomes):
    """Route every outcome (source, input, target, output, temporaries) that
    raises temporaries through a fresh internal state appended to
    ``states``; yields each outcome with its internal state, or None.

    Internal states take the first free ``tauN`` names: names already in
    ``states`` are skipped.
    """
    taken = set(states)
    counter = 0
    for q, sym, dst, out, temps in outcomes:
        internal = None
        if temps:
            while f"tau{counter}" in taken:
                counter += 1
            internal = f"tau{counter}"
            counter += 1
            states.append(internal)
        yield q, sym, dst, out, temps, internal


def split_machine(states, inputs, outputs, initial, labels, outcomes,
                  diagnostics=()) -> AnnotatedMachine:
    """Annotated machine over deterministic ``outcomes``, each split by
    :func:`split_tau` where it raises temporaries: ``input/tau`` into the
    internal state, which keeps the source state's labels, then
    ``epsilon/output`` out of it."""
    states, outputs, labels = list(states), list(outputs), dict(labels)
    transitions: dict[tuple[str, str], tuple[str, str]] = {}
    temp_labels: dict[str, frozenset[str]] = {}
    for q, sym, dst, out, temps, internal in split_tau(states, outcomes):
        if internal is None:
            transitions[(q, sym)] = (dst, out)
            continue
        labels[internal] = labels.get(q, frozenset())
        temp_labels[internal] = temps
        transitions[(q, sym)] = (internal, TAU)
        transitions[(internal, EPSILON)] = (dst, out)
    if temp_labels and TAU not in outputs:
        outputs.append(TAU)
    machine = MealyMachine(tuple(states), inputs, tuple(outputs), initial,
                           transitions, require_complete=False)
    return AnnotatedMachine(machine, labels, frozenset(temp_labels), temp_labels,
                            diagnostics)


def expand_tau(a: AnnotatedMachine, cpm: Cpm) -> AnnotatedMachine:
    """Split every transition matched by a temporary rule through a fresh
    internal state.

    The internal state keeps the source state's labels, carries the union of
    temporary propositions of all matching rules, and is bridged by
    ``input/tau`` then ``epsilon/output`` transitions.  Nothing propagates
    into or out of temporary labels.
    """
    if a.tau_states:
        raise CpmError("machine already contains internal states; expand once only")
    m = a.machine
    outcomes = (
        (q, sym, dst, out, cpm.raised_temps(sym, out))
        for q in m.states for sym in m.inputs if (q, sym) in m.transitions
        for dst, out in [m.transitions[(q, sym)]]
    )
    return split_machine(m.states, m.inputs, m.outputs, m.initial, a.labels,
                         outcomes, a.diagnostics)


# ---------------------------------------------------------------------------
# DOT rendering of annotated machines
# ---------------------------------------------------------------------------
#
# Node labels carry 'state {P1,P2}', internal states 'state {P1 | T1}' and a
# diamond shape; parse_annotated_dot reverses the encoding.

def emit_annotated_dot(a: AnnotatedMachine) -> str:
    m = a.machine
    quote = cache(_quote)
    names = cache(lambda props: _escape(prop_list(props)))
    body = []
    for q in m.states:
        if q in a.tau_states:
            shape, props = "diamond", f"{names(a.label(q))} | {names(a.temps(q))}"
        else:
            shape, props = "circle", names(a.label(q))
        body.append(f'  {quote(q)} [shape={shape}, label="{_escape(q)} {{{props}}}"];')
    return dot_document("annotated", quote(m.initial), body + transition_edges(m, quote))


_NODE_LABEL_RE = re.compile(r"^(?P<id>.*?)\s*\{(?P<props>[^|{}]*)(?:\|(?P<temps>[^{}]*)|)\}$")


def parse_annotated_dot(text: str) -> AnnotatedMachine:
    """Parse an annotated machine; its states are the node statements."""
    graph = read_dot(text)
    labels: dict[str, frozenset[str]] = {}
    temp_labels: dict[str, frozenset[str]] = {}
    names = cache(prop_names)
    for name, label, _ in graph.nodes:
        lm = _NODE_LABEL_RE.match(label)
        if lm:
            labels[name] = names(lm.group("props"))
            if lm.group("temps") is not None:
                temp_labels[name] = names(lm.group("temps"))
    transitions, inputs, outputs, initial = transition_table(graph)
    inputs = tuple(sym for sym in inputs if sym != EPSILON)
    machine = MealyMachine(tuple(name for name, _, _ in graph.nodes), inputs, outputs,
                           initial, transitions, require_complete=False)
    return AnnotatedMachine(machine, labels, frozenset(temp_labels), temp_labels)

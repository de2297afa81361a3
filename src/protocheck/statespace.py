"""State-space interpretation of the two-actor model.

Explores the actor semantics message by message into a labeled transition
system, collapses that system back into an (annotated) machine by cutting at
request boundaries, and verifies the round trip: collapse(explore(build(a)))
must be trace-equivalent to ``a`` with identical state labels, and raise
the temporaries the map gives each step.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

from .automata import (NO_INITIAL_STATE, MachineError, _escape, _quote, _split_fields,
                       _unescape, dot_document, dot_edge, io_label, prop_list, prop_names,
                       read_dot, unlabeled_edge)
from .cpm import AnnotatedMachine, Cpm, split_machine, split_tau
from .actorgen import REQ_LABEL, TIMEOUT_LABEL, TIMEOUT_PROP, ActorModelIR, build_ir
from .ltl import CEILING, CeilingError, KripkeStructure, kripke_view


class StateSpaceError(RuntimeError):
    """Raised on ill-formed transition systems."""


class LtsNode(NamedTuple):
    index: int
    q: str
    props: frozenset[str]
    temps: frozenset[str]
    phase: str                      # "req" | "ready" | "out" | "timeout"
    pending: tuple | None = None    # ("out", output, case) for out nodes


@dataclass(frozen=True)
class Lts:
    """A transition system over numbered nodes: ``nodes[i].index == i``."""

    nodes: tuple[LtsNode, ...]
    edges: tuple[tuple[int, str, int], ...]
    initial: int


def explore(ir: ActorModelIR, max_nodes: int = CEILING) -> Lts:
    """Exhaustive breadth-first expansion of the actor semantics.

    One macro step is request (temporaries reset), a nondeterministic input
    choice, the system branch effects, then the output handler effects; each
    delivered message is one edge.  With the timeout mutation every input
    additionally branches to a reset-and-timeout path.
    """
    m = ir.machine
    temps_for = {
        (case, out): temps
        for out, cases in ir.output_cases.items()
        for case, temps in cases
    }

    nodes: list[LtsNode] = []
    index_of: dict[tuple, int] = {}
    edges: list[tuple[int, str, int]] = []

    def intern(q, props, temps, phase, pending=None) -> int:
        key = (q, props, temps, phase, pending)
        found = index_of.get(key)
        if found is not None:
            return found
        idx = len(nodes)
        if idx >= max_nodes:
            raise CeilingError(f"state ceiling exceeded ({max_nodes} nodes)")
        index_of[key] = idx
        nodes.append(LtsNode(idx, q, props, temps, phase, pending))
        return idx

    initial = intern(m.initial, ir.initial_props, frozenset(), "req")
    # nodes are expanded in the order they are found, which is breadth-first
    for node in nodes:
        idx = node.index
        if node.phase == "req":
            edges.append((idx, REQ_LABEL, intern(node.q, node.props, frozenset(), "ready")))
        elif node.phase == "ready":
            for case, sym in enumerate(m.inputs):
                target, out, props = ir.step(node.q, node.props, sym)
                edges.append((idx, sym, intern(target, props, frozenset(), "out",
                                               ("out", out, case))))
                if ir.timeout:
                    edges.append((idx, sym, intern(m.initial, ir.initial_props, frozenset(),
                                                   "timeout")))
        elif node.phase == "out":
            _, out, case = node.pending
            edges.append((idx, out, intern(node.q, node.props, temps_for[(case, out)], "req")))
        else:
            edges.append((idx, TIMEOUT_LABEL, intern(node.q, node.props,
                                                     frozenset([TIMEOUT_PROP]), "req")))

    bound = (len(m.inputs) + 2) * len(m.states) * 2 ** len(ir.temp_props)
    if len(nodes) > bound:
        raise AssertionError(f"node count {len(nodes)} exceeds bound {bound}")
    return Lts(tuple(nodes), tuple(edges), initial)


# ---------------------------------------------------------------------------
# Collapse
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollapsedModel:
    """Machine recovered from an LTS by cutting at request boundaries.

    ``transitions`` maps (state, input) to the set of observed outcomes;
    deterministic models have exactly one outcome each, the timeout mutation
    yields two.  ``temps`` inside an outcome are the temporaries raised
    between that input and the following reset.
    """

    states: tuple[str, ...]
    inputs: tuple[str, ...]
    initial: str
    transitions: dict[tuple[str, str], tuple[tuple[str, str, frozenset[str]], ...]]
    labels: dict[str, frozenset[str]]

    def is_deterministic(self) -> bool:
        return all(len(v) == 1 for v in self.transitions.values())

    def outcomes(self):
        """Every outcome as (state, input, target, output, temporaries), in
        states x inputs order, then each pair's outcomes in order."""
        for q in self.states:
            for sym in self.inputs:
                for outcome in self.transitions.get((q, sym), ()):
                    yield (q, sym, *outcome)

    def missing(self) -> tuple[str, str] | None:
        """The first (state, input) pair without an outcome, if any."""
        return next(((q, sym) for q in self.states for sym in self.inputs
                     if (q, sym) not in self.transitions), None)

    def to_annotated(self) -> AnnotatedMachine:
        """Deterministic collapse as an annotated machine, temporaries
        rendered as internal split states (source-label inheritance)."""
        if not self.is_deterministic():
            raise StateSpaceError("model is nondeterministic; no single machine view")
        _require_total(self)
        outcomes = list(self.outcomes())
        outputs = tuple(dict.fromkeys(out for _, _, _, out, _ in outcomes))
        labels = {q: self.labels.get(q, frozenset()) for q in self.states}
        return split_machine(self.states, self.inputs, outputs, self.initial, labels,
                             outcomes)


def _require_total(cm: CollapsedModel):
    gap = cm.missing()
    if gap is not None:
        raise StateSpaceError(f"collapsed model is partial: no outcome for {gap!r}")


def collapse(lts: Lts) -> CollapsedModel:
    """Cut the transition system at request boundaries in one breadth-first
    pass over the nodes observed right after a completed reset, which become
    machine states: every request -> input -> output micro path becomes one
    (input/output) transition.  The message shape is checked along the way;
    anything that does not fit the template raises."""
    out_edges: list[list[tuple[str, int]]] = [[] for _ in lts.nodes]
    for src, label, dst in lts.edges:
        out_edges[src].append((label, dst))
    phases: dict[int, str] = {}
    ready_nodes: list[int] = []
    transitions: dict[int, dict[str, set]] = {}     # ready node -> input -> outcomes

    def assign(idx: int, phase: str):
        if phases.setdefault(idx, phase) != phase:
            raise StateSpaceError(
                f"ill-formed transition system: node {idx} is both {phases[idx]} and {phase}")

    def reset(idx: int) -> int:
        """The ready node that request node ``idx`` leads to."""
        assign(idx, "req")
        succ = out_edges[idx]
        if len(succ) != 1 or succ[0][0] != REQ_LABEL:
            if not succ or any(label != REQ_LABEL for label, _ in succ):
                raise StateSpaceError(
                    f"ill-formed transition system: node {idx} should only issue requests")
            raise StateSpaceError(
                "ill-formed transition system: the initial request must reach exactly "
                f"one node, reaches {len(succ)}" if idx == lts.initial else
                "ill-formed transition system: a reset must reach exactly one node, "
                f"node {idx} reaches {len(succ)}")
        ready = succ[0][1]
        if ready not in phases:
            ready_nodes.append(ready)
        assign(ready, "ready")
        return ready

    initial_ready = reset(lts.initial)
    for ready in ready_nodes:
        by_input = transitions[ready] = {}
        for sym, pending in out_edges[ready]:
            if sym == REQ_LABEL:
                raise StateSpaceError(
                    f"ill-formed transition system: request out of a ready node {ready}")
            succ = out_edges[pending]
            assign(pending, "timeout" if any(l == TIMEOUT_LABEL for l, _ in succ) else "out")
            if len(succ) != 1:
                raise StateSpaceError(
                    f"ill-formed transition system: pending node {pending} must deliver "
                    f"exactly one message, has {len(succ)}")
            ((out, post),) = succ
            by_input.setdefault(sym, set()).add(
                (reset(post), out, lts.nodes[post].temps))

    # name macro states after the underlying machine state when unique
    ready_nodes.sort()
    qs = [lts.nodes[idx].q for idx in ready_nodes]
    q_counts = Counter(qs)
    names = {idx: q if q_counts[q] == 1 else f"{q}__{idx}" for idx, q in zip(ready_nodes, qs)}
    ordered = {
        (names[ready], sym): _sorted_outcomes(
            [(names[dst], out, temps) for dst, out, temps in outcomes])
        for ready in ready_nodes for sym, outcomes in transitions[ready].items()
    }
    return CollapsedModel(tuple(names.values()), tuple(dict.fromkeys(sym for _, sym in ordered)),
                          names[initial_ready], ordered,
                          {names[idx]: lts.nodes[idx].props for idx in ready_nodes})


def _sorted_outcomes(outcomes: list) -> tuple:
    """Outcomes ordered by target, output and sorted temporaries."""
    if len(outcomes) == 1:
        return tuple(outcomes)
    return tuple(sorted(outcomes, key=lambda o: (o[0], o[1], sorted(o[2]))))


def kripke_from_collapsed(cm: CollapsedModel,
                          declared: frozenset[str] | None = None) -> KripkeStructure:
    """Kripke view of a collapsed model, nondeterministic outcomes included.

    Outcomes that raised temporaries become internal states labeled with the
    source state's propositions plus those temporaries, mirroring the
    expanded-machine view.  They are named in :meth:`CollapsedModel.outcomes`
    order, as in :meth:`~CollapsedModel.to_annotated`.
    """
    states = list(cm.states)
    labels: dict[str, frozenset[str]] = {q: cm.labels.get(q, frozenset()) for q in cm.states}
    steps = []
    for q, _, target, _, temps, internal in split_tau(states, cm.outcomes()):
        if internal is None:
            steps.append((q, target))
        else:
            labels[internal] = labels[q] | temps
            steps += [(q, internal), (internal, target)]
    return kripke_view(states, cm.initial, steps, labels, declared)


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundtripReport:
    passed: bool
    message: str
    node_count: int


def verify_roundtrip(a: AnnotatedMachine, cpm: Cpm,
                     max_nodes: int = CEILING) -> RoundtripReport:
    """Build the actor model, explore it, collapse the state space back and
    compare with the original: trace equivalence, identical labels and the
    temporaries the map raises."""
    lts = explore(build_ir(a, cpm), max_nodes)
    return compare_roundtrip(a, cpm, lts, collapse(lts))


def compare_roundtrip(a: AnnotatedMachine, cpm: Cpm, lts: Lts,
                      collapsed: CollapsedModel) -> RoundtripReport:
    """Round-trip verdict for ``collapsed``, the collapse of ``lts``, which
    is the state space of the actor model of ``a`` under ``cpm``, mutated or
    not: outcomes that deliver the reserved timeout message are the
    mutation's and are left out.  One breadth-first walk over pairs of
    states compares, step by step, the output, the target's labels and the
    temporaries the map gives the step's input and output."""
    def fail(message: str) -> RoundtripReport:
        return RoundtripReport(False, message, len(lts.nodes))

    nominal = {}
    for key, outcomes in collapsed.transitions.items():
        kept = [o for o in outcomes if o[1] != TIMEOUT_LABEL]
        if len(kept) != 1:
            return fail("collapsed model is nondeterministic")
        nominal[key] = kept[0]
    _require_total(collapsed)
    m = a.machine
    if set(m.inputs) != set(collapsed.inputs):
        raise MachineError("input alphabets differ")
    if a.label(m.initial) != collapsed.labels.get(collapsed.initial, frozenset()):
        return fail("labels differ after input word []")
    # breadth-first, so the first mismatch is found on a shortest word
    start = (m.initial, collapsed.initial)
    parent = {start: None}      # each pair seen: the pair and input it was first reached by
    frontier = [start]

    def word(pair, sym: str) -> list[str]:
        """The input word of the walk to ``pair``, then ``sym``."""
        path = [sym]
        while parent[pair] is not None:
            pair, sym = parent[pair]
            path.append(sym)
        return path[::-1]

    for pair in frontier:
        qa, qc = pair
        for sym in m.inputs:
            na, out = m.transitions[(qa, sym)]
            nc, got, temps = nominal[(qc, sym)]
            if got != out:
                return fail(f"behavior differs on input word {word(pair, sym)}")
            if a.label(na) != collapsed.labels.get(nc, frozenset()):
                return fail(f"labels differ after input word {word(pair, sym)}")
            if temps != cpm.raised_temps(sym, out):
                return fail(f"temporaries differ on input word {word(pair, sym)}")
            if (na, nc) not in parent:
                parent[na, nc] = pair, sym
                frontier.append((na, nc))
    return RoundtripReport(True, "PASS", len(lts.nodes))


def emit_collapsed_dot(cm: CollapsedModel) -> str:
    """DOT text for a collapsed model, tolerating nondeterministic outcomes
    (one edge per outcome; temporaries appended to the edge label)."""
    quote, names, io = cache(_quote), cache(prop_list), cache(io_label)
    body = [f'  {quote(q)} [label="{_escape(q)} {{{names(cm.labels.get(q, frozenset()))}}}"];'
            for q in cm.states]
    for (q, sym), outcomes in sorted(cm.transitions.items()):
        for target, out, temps in outcomes:
            label = io(sym, out)
            if temps:
                label += f" [{names(temps)}]"
            body.append(dot_edge(quote(q), quote(target), label))
    return dot_document("collapsed", quote(cm.initial), body)


# ---------------------------------------------------------------------------
# LTS DOT serialization
# ---------------------------------------------------------------------------

def emit_lts_dot(lts: Lts) -> str:
    # the fields are separated by ';', which the state name escapes
    state = cache(lambda q: _escape(q).replace(";", "\\;"))
    names, label = cache(prop_list), cache(_escape)
    body = [f'  n{node.index} [label="q={state(node.q)}; props={names(node.props)}; '
            f'temps={names(node.temps)}"];' for node in lts.nodes]
    body += [f'  n{src} -> n{dst} [label="{label(sym)}"];' for src, sym, dst in lts.edges]
    return dot_document("statespace", f"n{lts.initial}", body)


def parse_lts_dot(text: str) -> Lts:
    """Parse a transition system exported by :func:`emit_lts_dot` or by an
    external tool using the same conventions; phases are re-derived from the
    message shape when the result is collapsed."""
    graph = read_dot(text)
    names = cache(prop_names)

    @cache
    def fields(label: str) -> tuple[str | None, frozenset[str], frozenset[str]]:
        """The state (None without a 'q=' field), propositions and
        temporaries of a node label; nodes of one state share labels."""
        # the fields are separated by ';', which the state name escapes
        found = dict([part.strip().split("=", 1) for part in _split_fields(label) if "=" in part])
        # read_dot has already unescaped the node id; the q= value is raw
        q = _unescape(found["q"]) if "q" in found else None
        return q, names(found.get("props", "")), names(found.get("temps", ""))

    # one pass: the nodes in order of their statements, then the nodes that
    # only edges name, which have no propositions
    indices: dict[str, int] = {}
    nodes: list[LtsNode] = []
    for name, label, _ in graph.nodes:
        q, props, temps = fields(label)
        i = indices.setdefault(name, len(nodes))
        node = LtsNode(i, name if q is None else q, props, temps, "")
        if i < len(nodes):
            nodes[i] = node     # a repeated node statement: the last one counts
        else:
            nodes.append(node)
    unlabeled = frozenset()

    def add(name: str):
        indices[name] = len(nodes)
        nodes.append(LtsNode(len(nodes), name, unlabeled, unlabeled, ""))

    edges = []
    unescape = cache(_unescape)
    for src, dst, label, lineno in graph.edges:
        if label is None:
            raise unlabeled_edge(src, dst, lineno)
        if src not in indices:
            add(src)
        if dst not in indices:
            add(dst)
        edges.append((indices[src], unescape(label), indices[dst]))
    if not graph.initials:
        raise MachineError(NO_INITIAL_STATE)
    initial, line = graph.initials[-1]
    if initial not in indices:
        raise MachineError(f"line {line}: initial node {initial!r} is not declared")
    return Lts(tuple(nodes), tuple(edges), indices[initial])

"""State-space interpretation of the two-actor model.

Explores the actor semantics message by message into a labeled transition
system, collapses that system back into an (annotated) machine by cutting at
request boundaries, and verifies the round trip: collapse(explore(build(a)))
must be trace-equivalent to ``a`` with identical state labels.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache

from .automata import (MachineError, _escape, _quote, _split_fields, _unescape, bisimilar,
                       EquivalenceResult, dot_document, dot_edge, io_label, read_dot)
from .cpm import (AnnotatedMachine, Cpm, annotated_equal, split_machine, split_tau,
                  strip_tau)
from .actorgen import ActorModelIR, TIMEOUT_PROP, build_ir
from .ltl import KripkeStructure, kripke_view

REQ_LABEL = "req"
TIMEOUT_LABEL = "timeout"


class StateSpaceError(RuntimeError):
    """Raised on exploration ceilings and ill-formed transition systems."""


@dataclass(frozen=True)
class LtsNode:
    index: int
    q: str
    props: frozenset[str]
    temps: frozenset[str]
    phase: str                      # "req" | "ready" | "out" | "timeout"
    pending: tuple | None = None    # ("out", output, case) for out nodes


@dataclass(frozen=True)
class Lts:
    nodes: tuple[LtsNode, ...]
    edges: tuple[tuple[int, str, int], ...]
    initial: int


def explore(ir: ActorModelIR, max_nodes: int = 10 ** 6) -> Lts:
    """Exhaustive breadth-first expansion of the actor semantics.

    One macro step is request (temporaries reset), a nondeterministic input
    choice, the system branch effects, then the output handler effects; each
    delivered message is one edge.  With the timeout mutation every input
    additionally branches to a reset-and-timeout path.
    """
    m = ir.machine
    reserved = {REQ_LABEL, TIMEOUT_LABEL}
    clash = (set(m.inputs) | set(m.outputs)) & reserved
    if clash:
        raise StateSpaceError(f"alphabet symbols collide with reserved message names: {sorted(clash)}")

    temps_for = {
        (case, out): temps
        for out, cases in ir.output_cases.items()
        for case, temps in cases
    }
    branch_by_state = {
        (sym, b.state): b for sym, branches in ir.handlers.items() for b in branches
    }
    mutated = ir.mutation is not None and ir.mutation.timeout_enabled

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
            raise StateSpaceError(f"state ceiling exceeded ({max_nodes} nodes)")
        index_of[key] = idx
        nodes.append(LtsNode(idx, q, props, temps, phase, pending))
        return idx

    initial = intern(m.initial, ir.initial_props, frozenset(), "req")
    frontier = deque([initial])
    expanded = set()
    while frontier:
        idx = frontier.popleft()
        if idx in expanded:
            continue
        expanded.add(idx)
        node = nodes[idx]
        targets = []
        if node.phase == "req":
            dst = intern(node.q, node.props, frozenset(), "ready")
            targets.append((REQ_LABEL, dst))
        elif node.phase == "ready":
            for case, sym in enumerate(m.inputs):
                branch = branch_by_state[(sym, node.q)]
                props = set(node.props)
                for p, value in branch.prop_updates:
                    (props.add if value else props.discard)(p)
                dst = intern(branch.target, frozenset(props), frozenset(),
                             "out", ("out", branch.output, case))
                targets.append((sym, dst))
                if mutated:
                    t = intern(m.initial, ir.initial_props, frozenset(), "timeout")
                    targets.append((sym, t))
        elif node.phase == "out":
            _, out, case = node.pending
            temps = temps_for[(case, out)]
            dst = intern(node.q, node.props, temps, "req")
            targets.append((out, dst))
        elif node.phase == "timeout":
            dst = intern(node.q, node.props, frozenset([TIMEOUT_PROP]), "req")
            targets.append((TIMEOUT_LABEL, dst))
        for label, dst in targets:
            edges.append((idx, label, dst))
            if dst not in expanded:
                frontier.append(dst)

    n_temps = len(ir.temp_props)
    bound = (len(m.inputs) + 2) * len(m.states) * (2 ** n_temps)
    if len(nodes) > bound:
        raise StateSpaceError(f"node count {len(nodes)} exceeds bound {bound}")
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

    def to_annotated(self) -> AnnotatedMachine:
        """Deterministic collapse as an annotated machine, temporaries
        rendered as internal split states (source-label inheritance)."""
        if not self.is_deterministic():
            raise StateSpaceError("model is nondeterministic; no single machine view")
        outcomes = []
        for q in self.states:
            for sym in self.inputs:
                if (q, sym) not in self.transitions:
                    raise StateSpaceError(
                        f"collapsed model is partial: no outcome for ({q!r}, {sym!r})")
                (target, out, temps), = self.transitions[(q, sym)]
                outcomes.append((q, sym, target, out, temps))
        outputs = tuple(dict.fromkeys(out for _, _, _, out, _ in outcomes))
        labels = {q: self.labels.get(q, frozenset()) for q in self.states}
        return split_machine(self.states, self.inputs, outputs, self.initial, labels,
                             outcomes)


def _infer_phases(lts: Lts, out_edges) -> dict[int, str]:
    """Classify nodes by walking the request/input/output message shape from
    the initial node; raises on anything that does not fit the template."""
    phases: dict[int, str] = {}

    def assign(idx: int, phase: str):
        if phases.get(idx, phase) != phase:
            raise StateSpaceError(
                f"ill-formed transition system: node {idx} is both "
                f"{phases[idx]} and {phase}")
        phases[idx] = phase

    assign(lts.initial, "req")
    frontier = deque([lts.initial])
    seen = {lts.initial}
    while frontier:
        idx = frontier.popleft()
        phase = phases[idx]
        succ = out_edges[idx]
        if phase == "req":
            if not succ or any(label != REQ_LABEL for label, _ in succ):
                raise StateSpaceError(
                    f"ill-formed transition system: node {idx} should only issue requests")
            for _, dst in succ:
                assign(dst, "ready")
        elif phase == "ready":
            for label, dst in succ:
                if label in (REQ_LABEL,):
                    raise StateSpaceError(
                        f"ill-formed transition system: request out of a ready node {idx}")
                kind = "timeout" if any(l == TIMEOUT_LABEL for l, _ in out_edges[dst]) else "out"
                assign(dst, kind)
        elif phase in ("out", "timeout"):
            if len(succ) != 1:
                raise StateSpaceError(
                    f"ill-formed transition system: pending node {idx} must deliver exactly "
                    f"one message, has {len(succ)}")
            for _, dst in succ:
                assign(dst, "req")
        for _, dst in succ:
            if dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return phases


def collapse(lts: Lts) -> CollapsedModel:
    """Cut the transition system at request boundaries: nodes observed right
    after a completed reset become machine states and every request ->
    input -> output micro path becomes one (input/output) transition."""
    out_edges: dict[int, list[tuple[str, int]]] = {n.index: [] for n in lts.nodes}
    for src, label, dst in lts.edges:
        out_edges[src].append((label, dst))
    phases = _infer_phases(lts, out_edges)
    by_index = {n.index: n for n in lts.nodes}

    ready_nodes = [idx for idx in sorted(phases) if phases[idx] == "ready"]
    # name macro states after the underlying machine state when unique
    q_counts: dict[str, int] = {}
    for idx in ready_nodes:
        q_counts[by_index[idx].q] = q_counts.get(by_index[idx].q, 0) + 1
    names: dict[int, str] = {}
    for idx in ready_nodes:
        q = by_index[idx].q
        names[idx] = q if q_counts[q] == 1 else f"{q}__{idx}"

    initial_targets = [dst for _, dst in out_edges[lts.initial]]
    if len(initial_targets) != 1:
        raise StateSpaceError(
            "ill-formed transition system: the initial request must reach "
            f"exactly one node, reaches {len(initial_targets)}")
    (initial_ready,) = initial_targets

    transitions: dict[tuple[str, str], set] = {}
    inputs: list[str] = []
    for ready in ready_nodes:
        for sym, pending in out_edges[ready]:
            if sym not in inputs:
                inputs.append(sym)
            ((out_label, post),) = out_edges[pending]   # arity enforced above
            if phases[post] != "req":
                raise StateSpaceError("ill-formed transition system: output skips the reset")
            req_targets = out_edges[post]
            if len(req_targets) != 1:
                raise StateSpaceError(
                    "ill-formed transition system: a reset must reach exactly "
                    f"one node, node {post} reaches {len(req_targets)}")
            ((_, next_ready),) = req_targets
            temps = by_index[post].temps
            transitions.setdefault((names[ready], sym), set()).add(
                (names[next_ready], out_label, temps))

    states = tuple(names[idx] for idx in ready_nodes)
    labels = {names[idx]: by_index[idx].props for idx in ready_nodes}
    ordered = {
        key: tuple(sorted(vals, key=lambda o: (o[0], o[1], sorted(o[2]))))
        for key, vals in transitions.items()
    }
    return CollapsedModel(states, tuple(inputs), names[initial_ready], ordered, labels)


def kripke_from_collapsed(cm: CollapsedModel,
                          declared: frozenset[str] | None = None) -> KripkeStructure:
    """Kripke view of a collapsed model, nondeterministic outcomes included.

    Outcomes that raised temporaries become internal states labeled with the
    source state's propositions plus those temporaries, mirroring the
    expanded-machine view.
    """
    states = list(cm.states)
    labels: dict[str, frozenset[str]] = {q: cm.labels.get(q, frozenset()) for q in cm.states}
    outcomes = ((q, sym, *outcome)
                for (q, sym), choices in sorted(cm.transitions.items())
                for outcome in choices)
    steps = []
    for q, _, target, _, temps, internal in split_tau(states, outcomes):
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
    bisimulation: EquivalenceResult | None = None
    label_check: EquivalenceResult | None = None


def verify_roundtrip(a: AnnotatedMachine, cpm: Cpm,
                     max_nodes: int = 10 ** 6) -> RoundtripReport:
    """Build the actor model, explore it, collapse the state space back and
    compare with the original: trace equivalence plus identical labels."""
    lts = explore(build_ir(a, cpm), max_nodes)
    return compare_roundtrip(a, lts, collapse(lts))


def compare_roundtrip(a: AnnotatedMachine, lts: Lts,
                      collapsed: CollapsedModel) -> RoundtripReport:
    """Round-trip verdict for ``collapsed``, the collapse of ``lts``, which
    is the state space of the unmutated actor model of ``a``."""
    if not collapsed.is_deterministic():
        return RoundtripReport(False, "collapsed model is nondeterministic",
                               len(lts.nodes))
    recovered = strip_tau(collapsed.to_annotated())
    bisim = bisimilar(a.machine, recovered.machine)
    if not bisim.equivalent:
        return RoundtripReport(
            False,
            f"behavior differs on input word {list(bisim.witness)}",
            len(lts.nodes), bisim)
    labels = annotated_equal(a, recovered)
    if not labels.equivalent:
        return RoundtripReport(
            False,
            f"labels differ after input word {list(labels.witness)}",
            len(lts.nodes), bisim, labels)
    return RoundtripReport(True, "PASS", len(lts.nodes), bisim, labels)


def emit_collapsed_dot(cm: CollapsedModel, name: str = "collapsed") -> str:
    """DOT text for a collapsed model, tolerating nondeterministic outcomes
    (one edge per outcome; temporaries appended to the edge label)."""
    body = []
    for q in cm.states:
        props = ",".join(sorted(cm.labels.get(q, frozenset())))
        body.append(f'  {_quote(q)} [label="{_escape(q)} {{{props}}}"];')
    for (q, sym), outcomes in sorted(cm.transitions.items()):
        for target, out, temps in outcomes:
            label = io_label(sym, out)
            if temps:
                label += " [" + ",".join(sorted(temps)) + "]"
            body.append(dot_edge(q, target, label))
    return dot_document(name, _quote(cm.initial), body)


# ---------------------------------------------------------------------------
# LTS DOT serialization
# ---------------------------------------------------------------------------

def emit_lts_dot(lts: Lts, name: str = "statespace") -> str:
    body = []
    for node in lts.nodes:
        q = _escape(node.q).replace(";", "\\;")
        label = (f"q={q}; props={','.join(sorted(node.props))}; "
                 f"temps={','.join(sorted(node.temps))}")
        body.append(f'  n{node.index} [label="{label}"];')
    for src, label, dst in lts.edges:
        body.append(f'  n{src} -> n{dst} [label="{_escape(label)}"];')
    return dot_document(name, f"n{lts.initial}", body)


def parse_lts_dot(text: str) -> Lts:
    """Parse a transition system exported by :func:`emit_lts_dot` or by an
    external tool using the same conventions; phases are re-derived from the
    message shape when the result is collapsed."""
    graph = read_dot(text)
    raw_nodes: dict[str, tuple[str, frozenset[str], frozenset[str]]] = {}
    names = cache(lambda text: frozenset(p for p in text.split(",") if p))
    for name, label, _ in graph.nodes:
        # the fields are separated by ';', which the state name escapes
        fields = dict([part.strip().split("=", 1) for part in _split_fields(label) if "=" in part])
        raw_nodes[name] = (_unescape(fields.get("q", name)), names(fields.get("props", "")),
                           names(fields.get("temps", "")))
    raw_edges: list[tuple[str, str, str]] = []
    for src, dst, label, lineno in graph.edges:
        if label is None:
            raise MachineError(f"line {lineno}: unlabeled edge")
        raw_edges.append((src, _unescape(label), dst))
        for name in (src, dst):
            raw_nodes.setdefault(name, (name, frozenset(), frozenset()))
    if not graph.initials:
        raise MachineError("no initial node marker")
    indices = {name: i for i, name in enumerate(raw_nodes)}
    nodes = tuple(
        LtsNode(i, *raw_nodes[name], phase="", pending=None)
        for name, i in indices.items()
    )
    edges = tuple((indices[s], label, indices[d]) for s, label, d in raw_edges)
    initial, line = graph.initials[-1]
    if initial not in indices:
        raise MachineError(f"line {line}: initial node {initial!r} is not declared")
    return Lts(nodes, edges, indices[initial])

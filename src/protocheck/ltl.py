"""Linear temporal logic: parsing, automaton translation, model checking.

The checker follows the automata-theoretic recipe: negate the formula,
translate it to a transition-based generalized Buchi automaton whose states
are sets of owed formulas and whose edges carry the acceptance marks, and
search the product with the Kripke structure for an accepting cycle.  Each
automaton's states are given once their candidate component: one whose
inner edges together carry every mark, where alone an accepting cycle can
lie.  One search answers both questions the checker asks: a loop over the
lasso length finds the shortest lasso, running the breadth-first stem
search beside a search from each state where the stem enters a candidate
component for the shortest cycle through it that carries every mark.  It
runs first on the product with the structure's label quotient, where
finding none proves most holding properties, then on the structure's own
product for the witness.  Properties instantiated from one template share
a shape: each shape is translated and classified once per structure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import count
from typing import NamedTuple

from .cpm import AnnotatedMachine, Cpm

CEILING = 10 ** 6  # the default of every resource ceiling


class CeilingError(RuntimeError):
    """Raised when a search reaches its resource ceiling: the state space,
    the product or the automaton expansion."""


class LtlError(ValueError):
    """Raised for syntax errors and checker misuse."""


# ---------------------------------------------------------------------------
# Formula AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Formula:
    def __post_init__(self):
        # children are built first and already carry their hash, so this
        # reads one level of the tree however deep the formula is
        self.__dict__["_hash"] = self._field_hash()

    def __reduce__(self):
        # rebuild through the constructor: a stored hash is only valid
        # under the hash seed of the process that computed it
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def __str__(self):
        return format_formula(self)


def _hash_once(cls):
    """Keep the generated field hash as ``_field_hash`` and answer
    ``hash()`` from the value stored when the node was built: otherwise
    every dict or set operation re-hashes the node's whole subtree.
    Equality walks both trees without recursion."""
    cls._field_hash = cls.__hash__
    cls.__hash__ = _stored_hash
    cls.__eq__ = _equal
    return cls


def _stored_hash(self: Formula) -> int:
    return self._hash


def _equal(self: Formula, other) -> bool:
    """Structural equality, node pair by node pair on an explicit stack; a
    differing stored hash tells two nodes apart without a walk."""
    if not isinstance(other, Formula):
        return NotImplemented
    pairs = [(self, other)]
    while pairs:
        a, b = pairs.pop()
        if a is b:
            continue
        if a.__class__ is not b.__class__ or a._hash != b._hash:
            return False
        if isinstance(a, Binary):
            pairs += ((a.left, b.left), (a.right, b.right))
        elif isinstance(a, Unary):
            pairs.append((a.child, b.child))
        elif a.__dict__ != b.__dict__:
            return False
    return True


@_hash_once
@dataclass(frozen=True)
class Prop(Formula):
    name: str


@_hash_once
@dataclass(frozen=True)
class Const(Formula):
    value: bool


@_hash_once
@dataclass(frozen=True)
class Unary(Formula):
    child: Formula


@_hash_once
@dataclass(frozen=True)
class Binary(Formula):
    left: Formula
    right: Formula


# The operators add no fields: equality (which compares classes), repr (which
# names the class), the stored hash and pickling all come from their shape.

class Not(Unary):
    pass


class Always(Unary):
    pass


class Eventually(Unary):
    pass


class Next(Unary):
    pass


class And(Binary):
    pass


class Or(Binary):
    pass


class Implies(Binary):
    pass


class Until(Binary):
    pass


class Release(Binary):
    """Dual of Until; internal only, so negation normal form is closed."""


TRUE = Const(True)
FALSE = Const(False)

# how each operator is printed; the parser reads every one but R
_SYMBOL = {Not: "!", Always: "G ", Eventually: "F ", Next: "X ", And: " && ",
           Or: " || ", Implies: " -> ", Until: " U ", Release: " R "}


def format_formula(f: Formula) -> str:
    """The text ``parse_ltl`` reads back as ``f``: every binary operand in
    parentheses.  One pass over an explicit stack of nodes and the text
    still to write after them."""
    out = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            out.append(g)
        elif isinstance(g, Prop):
            out.append(g.name)
        elif isinstance(g, Const):
            out.append("true" if g.value else "false")
        elif isinstance(g, Unary):
            out.append(_SYMBOL[type(g)])
            stack += _operand(g.child)
        elif isinstance(g, Binary):
            stack += (*_operand(g.right), _SYMBOL[type(g)], *_operand(g.left))
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)


def _operand(g: Formula) -> tuple:
    """What ``format_formula`` pushes to print g as an operand, last first:
    a binary one goes in parentheses."""
    return (")", g, "(") if isinstance(g, Binary) else (g,)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
#
# Grammar:  G F X U ! && || -> ( ) true false IDENT
# Precedence, tightest first: unary (!, G, F, X), U, &&, ||, ->.

# One match per token, blanks before it skipped; an operator letter or
# constant is its own kind unless a name goes on.  The text ends in an eof
# match; a character that starts no token is a bad one.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<and>&&)|(?P<or>\|\|)|(?P<implies>->)|(?P<not>!)|(?P<lpar>\()|(?P<rpar>\))"
    r"|(?:(?P<G>G)|(?P<F>F)|(?P<X>X)|(?P<U>U)|(?P<true>true)|(?P<false>false))"
    r"(?![A-Za-z0-9_])|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<eof>\Z)|(?P<bad>.))", re.S)

# token kind -> (precedence, groups to the right, operator)
_BINARY = {"implies": (1, True, Implies), "or": (2, False, Or),
           "and": (3, False, And), "U": (4, True, Until)}
_PREFIX = {"not": Not, "G": Always, "F": Eventually, "X": Next}
_CONSTANT = {"true": TRUE, "false": FALSE}


def parse_ltl(text: str) -> Formula:
    """Operator-precedence parse over explicit stacks, so no nesting depth
    meets the interpreter's recursion limit."""
    return _parse(text, {})[0]


def _parse(text: str, props: dict[str, Prop]) -> tuple[Formula, int]:
    """``parse_ltl``'s formula and how many operators deep it nests, read
    off the operand stack.  ``props`` holds the propositions already built,
    by name, and gains the new ones: a name is one object wherever it
    occurs.  The first character that starts no token is reported before
    any error of the parse, as if the text were tokenized whole first."""
    operands: list[Formula] = []
    depths: list[int] = []          # per operand, the operators it nests
    pending: list = []              # operators not applied yet; None is "("
    tokens = _TOKEN_RE.finditer(text)

    def apply(floor: int):
        """Apply the pending operators above the innermost "(" that bind at
        least as tightly as ``floor``."""
        while pending and pending[-1] is not None and pending[-1][0] >= floor:
            op = pending.pop()[1]
            if issubclass(op, Unary):
                operands.append(op(operands.pop()))
                depths[-1] += 1
            else:
                right = operands.pop()
                operands.append(op(operands.pop(), right))
                deeper = depths.pop()
                depths[-1] = max(depths[-1], deeper) + 1

    def error(m, words: str) -> LtlError:
        bad = m if m.lastgroup == "bad" else next(
            (later for later in tokens if later.lastgroup == "bad"), None)
        if bad is not None:
            pos = bad.start("bad")
            return LtlError(f"syntax error at position {pos}: "
                            f"unexpected {text[pos:pos + 10]!r}")
        kind = m.lastgroup
        return LtlError(f"syntax error at position {m.start(kind)}: {words} {m[kind]!r}")

    operand_next = True
    for m in tokens:
        kind = m.lastgroup
        if operand_next:
            if kind in _PREFIX:
                pending.append((5, _PREFIX[kind]))      # tighter than any binary
            elif kind == "lpar":
                pending.append(None)
            elif kind == "ident" or kind in _CONSTANT:
                if kind in _CONSTANT:
                    operands.append(_CONSTANT[kind])
                else:
                    name = m["ident"]
                    operands.append(props.get(name) or props.setdefault(name, Prop(name)))
                depths.append(0)
                operand_next = False
            else:
                raise error(m, "unexpected")
        elif kind in _BINARY:
            precedence, right, op = _BINARY[kind]
            apply(precedence + 1 if right else precedence)
            pending.append((precedence, op))
            operand_next = True
        else:
            apply(0)
            if kind == "rpar" and pending:
                pending.pop()
            elif kind == "eof" and not pending:
                return operands.pop(), depths.pop()
            else:
                raise error(m, "expected rpar, got" if pending else "unexpected")


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def substitute(f: Formula, assignment: dict[str, bool]) -> Formula:
    """Replace named propositions by boolean constants."""
    def step(g: Formula, value) -> Formula:
        if isinstance(g, Prop):
            if g.name in assignment:
                return TRUE if assignment[g.name] else FALSE
            return g
        if isinstance(g, Const):
            return g
        if isinstance(g, Unary):
            return type(g)(value(g.child))
        return type(g)(value(g.left), value(g.right))

    return _fold(f, step)


def instantiate(f: Formula, declared: frozenset[str]) -> tuple[Formula, tuple[str, ...]]:
    """Resolve every proposition outside ``declared`` to constant false;
    returns the resolved formula and the sorted names it replaced."""
    undeclared = tuple(sorted(propositions(f) - declared))
    if not undeclared:
        return f, ()
    return substitute(f, dict.fromkeys(undeclared, False)), undeclared


def _nodes(f: Formula) -> list[Formula]:
    """Every node of ``f``, breadth-first from the root, without recursion."""
    nodes = [f]
    for g in nodes:
        if isinstance(g, Unary):
            nodes.append(g.child)
        elif isinstance(g, Binary):
            nodes += (g.left, g.right)
    return nodes


def _fold(f: Formula, step):
    """One pass over the nodes of ``f`` without recursion, children before
    parents: ``step(g, value)`` gives the value of node g, and ``value(h)``
    returns the one already given for its child h.  Every node is a
    proposition, a constant, or of one of the two operator shapes."""
    done: dict[int, object] = {}
    value = lambda h: done[id(h)]  # noqa: E731
    for g in reversed(_nodes(f)):
        if not isinstance(g, (Prop, Const, Unary, Binary)):
            raise TypeError(f"not a formula: {g!r}")
        done[id(g)] = step(g, value)
    return done[id(f)]


def propositions(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in _nodes(f) if isinstance(g, Prop))


# the operator each one turns into when a negation is pushed through it
_DUAL = {And: Or, Or: And, Until: Release, Release: Until}


def to_nnf(f: Formula) -> Formula:
    """Negation normal form: negations pushed onto propositions, F and ->
    eliminated (F phi = true U phi, G phi = false R phi)."""
    def step(g: Formula, value) -> tuple[Formula, Formula]:
        """The normal forms of g and of !g."""
        if isinstance(g, Prop):
            return g, Not(g)
        if isinstance(g, Const):
            return g, Const(not g.value)
        if isinstance(g, Unary):
            pos, neg = value(g.child)
            if isinstance(g, Not):
                return neg, pos
            if isinstance(g, Eventually):
                return Until(TRUE, pos), Release(FALSE, neg)
            if isinstance(g, Always):
                return Release(FALSE, pos), Until(TRUE, neg)
            return type(g)(pos), type(g)(neg)
        (left, not_left), (right, not_right) = value(g.left), value(g.right)
        if isinstance(g, Implies):
            return Or(not_left, right), And(left, not_right)
        return type(g)(left, right), _DUAL[type(g)](not_left, not_right)

    return _fold(f, step)[0]


# ---------------------------------------------------------------------------
# Buchi translation: obligation sets, acceptance marks on edges
# ---------------------------------------------------------------------------

class Cover(NamedTuple):
    """One edge out of an automaton state: the letter holds every
    proposition of ``required`` and none of ``forbidden``, the run goes on
    to state ``target``, and the edge carries the acceptance ``marks``
    (bit j for the j-th Until)."""

    required: frozenset[str]
    forbidden: frozenset[str]
    target: int
    marks: int


@dataclass(frozen=True)
class BuchiAutomaton:
    """Transition-based generalized Buchi automaton over proposition
    valuations (Couvreur, FM 1999; Gastin and Oddoux, CAV 2001).

    State i owes the formulas ``states[i]`` from now on; state 0, which owes
    the translated formula, is initial.  A run over a valuation word
    v0 v1 ... takes at step i a cover of its state that v_i satisfies, out
    of ``covers[i]``.  It is accepting when, for each j below
    ``mark_count``, infinitely many of the covers it takes carry mark j.
    """

    states: tuple[tuple[Formula, ...], ...]
    covers: tuple[tuple[Cover, ...], ...]
    mark_count: int


def ltl_to_buchi(f: Formula, ceiling: int = CEILING) -> BuchiAutomaton:
    """One state per obligation set, in order of discovery, each expanded
    once into its covers.  A cover carries mark j when it does not take the
    j-th Until or takes its right operand.  Every branch the expansion
    opens counts against ``ceiling``.

    Obligation sets are bitmasks over the subformulas of ``f``, numbered in
    ``_nodes`` order after false, so a branch owing false dies before it
    splits; the automaton depends on nothing but ``f``."""
    closure = list(dict.fromkeys([FALSE] + _nodes(f)))
    bit = {g: 1 << i for i, g in enumerate(closure)}
    mark = {u: 1 << j for j, u in enumerate(g for g in closure if isinstance(g, Until))}
    sets_marks: dict[int, int] = {}
    for u, m in mark.items():
        sets_marks[bit[u.right]] = sets_marks.get(bit[u.right], 0) | m
    # per formula: the taken formulas it conflicts with; on its first
    # branch, the formulas owed now and next, and the right operand of a
    # Release owed next, which both branches of the Release owe anyway; the
    # formulas its second branch owes now (None if it does not split); the
    # marks it sets; the mark its first branch clears unless ``right`` is taken
    rules = []
    literals = 0
    for g in closure:
        conflict = now = later = implies = clears = right = 0
        other = None
        if g == FALSE:
            conflict = bit[g]
        elif isinstance(g, Prop) or isinstance(g, Not) and isinstance(g.child, Prop):
            conflict = bit.get(g.child if isinstance(g, Not) else Not(g), 0)
            literals |= bit[g]
        elif isinstance(g, And):
            now = bit[g.left] | bit[g.right]
        elif isinstance(g, Or):
            now, other = bit[g.left], bit[g.right]
        elif isinstance(g, Next):
            later = bit[g.child]
            implies = bit[g.child.right] if isinstance(g.child, Release) else 0
        elif isinstance(g, Until):
            now, later, other = bit[g.left], bit[g], bit[g.right]
            clears, right = mark[g], bit[g.right]
        elif isinstance(g, Release):
            now, later, other = bit[g.right], bit[g], bit[g.left] | bit[g.right]
            implies = bit[g.right]
        elif g != TRUE:
            raise TypeError(f"formula not in negation normal form: {g!r}")
        rules.append((conflict, now, later, implies, other, sets_marks.get(bit[g], 0),
                      clears, right))
    full = (1 << len(mark)) - 1

    owed = [bit[f]]
    state_of = {bit[f]: 0}
    covers = []
    opened = 0

    def cover(lits: int, target: int, marks: int) -> Cover:
        chosen = [closure[i] for i in _bits(lits)]
        return Cover(frozenset(g.name for g in chosen if isinstance(g, Prop)),
                     frozenset(g.child.name for g in chosen if isinstance(g, Not)),
                     target, marks)

    for obligations in owed:
        found: dict[tuple[int, int, int], None] = {}
        branches = [(obligations, 0, 0, 0, full)]
        while branches:
            todo, taken, later, implied, marks = branches.pop()
            while todo:
                low = todo & -todo
                taken |= low
                conflict, now, after, implies, other, sets, clears, right = \
                    rules[low.bit_length() - 1]
                if taken & conflict:
                    break
                marks |= sets
                if other is not None:
                    opened += 1
                    if opened > ceiling:
                        raise CeilingError(f"automaton state ceiling exceeded ({ceiling})")
                    branches.append(((todo | other) & ~taken, taken, later, implied, marks))
                    if not taken & right:
                        marks &= ~clears
                todo = (todo | now) & ~taken
                later |= after
                implied |= implies
            else:
                later &= ~implied
                target = state_of.setdefault(later, len(owed))
                if target == len(owed):
                    owed.append(later)
                found[taken & literals, target, marks] = None
        covers.append(tuple(cover(*key) for key in found))
    return BuchiAutomaton(
        states=tuple(tuple(closure[i] for i in _bits(m)) for m in owed),
        covers=tuple(covers),
        mark_count=len(mark),
    )


def _classify(auto: BuchiAutomaton):
    """Each state's strongly connected component, numbered by its first
    state, and each state's candidate component: its own component if the
    inner edges of that one together carry every mark, else None.  Every
    accepting cycle lies in a candidate component, and in one whose inner
    edges each carry every mark (as in a weak automaton: Bloem, Ravi &
    Somenzi, CAV 1999) every cycle is accepting.

    The components come from Tarjan's search from state 0, from which every
    state was discovered, on an explicit stack."""
    covers, full = auto.covers, (1 << auto.mark_count) - 1
    component: list = [None] * len(covers)
    order, low, live = {0: 0}, [0] * len(covers), [0]
    stack = [(0, iter([c.target for c in covers[0]]))]
    while stack:
        b, targets = stack[-1]
        for t in targets:
            if t not in order:
                order[t] = low[t] = len(order)
                live.append(t)
                stack.append((t, iter([c.target for c in covers[t]])))
                break
            if component[t] is None:
                low[b] = min(low[b], order[t])
        else:
            stack.pop()
            if stack:
                low[stack[-1][0]] = min(low[stack[-1][0]], low[b])
            if low[b] == order[b]:
                at = live.index(b)
                for t in live[at:]:
                    component[t] = b
                del live[at:]
    union: dict[int, int] = {}      # per component with inner edges: the marks they carry
    for b, row in enumerate(covers):
        for c in row:
            if component[c.target] == component[b]:
                union[component[b]] = union.get(component[b], 0) | c.marks
    return tuple(component), tuple(c if union.get(c) == full else None for c in component)


def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Kripke structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KripkeIndex:
    """States numbered 0..n-1 in declaration order, with successor tuples
    and one label id per state; distinct labels are numbered in order of
    first occurrence.

    ``quotient`` is the label quotient: one node per label id, with an edge
    from label a to label b when some reachable state labelled a has a
    successor labelled b.  Every path of the structure reads the labels of
    a path of the quotient, so a property that holds on the quotient holds
    on the structure.  A label has successors there exactly when some
    reachable state carries it."""

    number: dict[str, int]
    successors: tuple[tuple[int, ...], ...]
    label_of: tuple[int, ...]
    labels: tuple[frozenset[str], ...]
    initial: tuple[int, ...]
    quotient: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class KripkeStructure:
    states: tuple[str, ...]
    initial: tuple[str, ...]
    successors: dict[str, tuple[str, ...]]
    labels: dict[str, frozenset[str]]
    atomic_props: frozenset[str] = frozenset()

    def __post_init__(self):
        known = set(self.states)
        for q in self.states:
            if not self.successors.get(q):
                raise LtlError(f"transition relation not left-total at {q!r}")
            for t in self.successors[q]:
                if t not in known:
                    raise LtlError(f"successor {t!r} of {q!r} not among states")
        for q in self.initial:
            if q not in known:
                raise LtlError(f"initial state {q!r} not among states")

    def label(self, state: str) -> frozenset[str]:
        return self.labels.get(state, frozenset())

    def reads(self, label: frozenset[str]) -> frozenset[str]:
        """``label`` as formulas read it: undeclared propositions are false."""
        return label & self.atomic_props

    @cached_property
    def index(self) -> KripkeIndex:
        """The structure over integers, built once and freed with it."""
        number = {q: i for i, q in enumerate(self.states)}
        successors = tuple(tuple(number[t] for t in self.successors[q]) for q in self.states)
        label_ids: dict[frozenset[str], int] = {}
        label_of = tuple(label_ids.setdefault(self.label(q), len(label_ids))
                         for q in self.states)
        initial = tuple(number[q] for q in self.initial)
        # breadth-first over the reachable states, each adding its edges
        quotient: list[dict[int, None]] = [{} for _ in label_ids]
        frontier = list(dict.fromkeys(initial))
        seen = set(frontier)
        for s in frontier:
            edges = quotient[label_of[s]]
            for t in successors[s]:
                edges[label_of[t]] = None
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        return KripkeIndex(number=number, successors=successors, label_of=label_of,
                           labels=tuple(label_ids), initial=initial,
                           quotient=tuple(map(tuple, quotient)))

    @cached_property
    def shapes(self) -> dict:
        """``check``'s translations, freed with the structure: by (ceiling,
        shape key), the negation automaton of the shape's first formula, that
        formula's propositions in order of first occurrence, the product
        table column of each label projection onto them seen so far, and
        each automaton state's component and candidate component (see
        ``_classify``)."""
        return {}

    @cached_property
    def searches(self) -> dict:
        """``check``'s search results, freed with the structure: by (ceiling,
        shape key, the letter each label id reads), the witness or None."""
        return {}

    @cached_property
    def loop_bounds(self) -> tuple[int, ...]:
        """By state number, the girth bounds of the structure (see
        ``_girth_bounds``), shared by every property."""
        return _girth_bounds(self.index.successors)

    @cached_property
    def graphs(self) -> tuple[_Graph, _Graph]:
        """The label quotient and the structure as ``check`` searches
        their products, in that order: each quotient node is its own label
        id, and its start nodes are the initial states' label ids."""
        index = self.index
        quotient = _Graph(index.quotient, tuple(range(len(index.labels))),
                          tuple(index.label_of[s] for s in index.initial),
                          _girth_bounds(index.quotient))
        return quotient, _Graph(index.successors, index.label_of, index.initial,
                                self.loop_bounds)


class _Graph(NamedTuple):
    """A graph whose product ``_Product.shortest_lasso`` searches: by node,
    its successors and its label id; the start nodes; and by node, a bound
    no cycle of any product through the node undercuts."""

    successors: tuple[tuple[int, ...], ...]
    label_of: tuple[int, ...]
    start: tuple[int, ...]
    bounds: tuple[int, ...]


def _girth_bounds(successors) -> tuple[int, ...]:
    """By node, the length of the shortest closed walk through it if that
    is at most 3, else 4.  A product cycle's states project onto such a
    walk, so none through the node is shorter."""
    into: list[set[int]] = [set() for _ in successors]
    for s, out in enumerate(successors):
        for t in out:
            into[t].add(s)
    return tuple(1 if s in out else 2 if not into[s].isdisjoint(out) else
                 3 if any(not into[s].isdisjoint(successors[t]) for t in out) else 4
                 for s, out in enumerate(successors))


def kripke_from_annotated(a: AnnotatedMachine,
                          declared: frozenset[str] | None = None) -> KripkeStructure:
    """Kripke view of an annotated machine: the transition relation is the
    transition map with symbols erased, labels are state propositions plus
    temporary ones on internal states.  Deadlocked states get a self-loop to
    keep the relation left-total."""
    m = a.machine
    steps = [(q, dst) for (q, _sym), (dst, _out) in m.transitions.items()]
    labels = {q: a.label(q) | a.temps(q) for q in m.states}
    return kripke_view(m.states, m.initial, steps, labels, declared)


def kripke_view(states, initial: str, steps, labels: dict[str, frozenset[str]],
                declared: frozenset[str] | None = None) -> KripkeStructure:
    """Kripke structure whose relation holds each (source, target) step
    once, in order of first occurrence; deadlocked states get a self-loop.
    The atomic propositions default to the ones the labels use."""
    successors: dict[str, list[str]] = {q: [] for q in states}
    for q, dst in steps:
        if dst not in successors[q]:
            successors[q].append(dst)
    for q in states:
        if not successors[q]:
            successors[q].append(q)
    used = frozenset().union(*labels.values()) if labels else frozenset()
    return KripkeStructure(
        states=tuple(states),
        initial=(initial,),
        successors={q: tuple(v) for q, v in successors.items()},
        labels=labels,
        atomic_props=declared if declared is not None else used,
    )


# ---------------------------------------------------------------------------
# Lassos and direct semantics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lasso:
    """Ultimately periodic witness: finite stem, then a repeated loop."""

    stem: tuple[str, ...]
    loop: tuple[str, ...]

    def __post_init__(self):
        if not self.loop:
            raise LtlError("lasso loop must be non-empty")

    def states(self) -> tuple[str, ...]:
        return self.stem + self.loop


def evaluate_on_lasso(f: Formula, stem_vals, loop_vals) -> bool:
    """Direct LTL semantics on the word stem . loop^omega.

    Temporal operators are solved as fixpoints over the finite position
    graph (stem positions chained, loop positions cyclic): least fixpoints
    for U/F, and R/G as their duals.  Takes the original formula, sugar
    included.
    """
    if not loop_vals:
        raise LtlError("loop must be non-empty")
    return _truth(f, list(stem_vals) + list(loop_vals), len(stem_vals))[0]


def _truth(f: Formula, vals, k: int) -> list[bool]:
    """Truth of ``f`` at every position of the word vals[:k] . vals[k:]^omega."""
    n = len(vals)
    after = [i + 1 if i + 1 < n else k for i in range(n)]

    def step(g: Formula, value) -> list[bool]:
        if isinstance(g, Prop):
            return [g.name in vals[i] for i in range(n)]
        if isinstance(g, Const):
            return [g.value] * n
        if isinstance(g, Not):
            return [not v for v in value(g.child)]
        if isinstance(g, And):
            return [a and b for a, b in zip(value(g.left), value(g.right))]
        if isinstance(g, Or):
            return [a or b for a, b in zip(value(g.left), value(g.right))]
        if isinstance(g, Implies):
            return [(not a) or b for a, b in zip(value(g.left), value(g.right))]
        if isinstance(g, Next):
            child = value(g.child)
            return [child[after[i]] for i in range(n)]
        if isinstance(g, Eventually):
            return until([True] * n, value(g.child))
        if isinstance(g, Until):
            return until(value(g.left), value(g.right))
        # by duality: G a = !F !a and a R b = !(!a U !b)
        if isinstance(g, Always):
            return [not v for v in until([True] * n, [not v for v in value(g.child)])]
        return [not v for v in until([not v for v in value(g.left)],
                                     [not v for v in value(g.right)])]

    def until(hold: list[bool], target: list[bool]) -> list[bool]:
        """The least fixpoint of res[i] = target[i] or (hold[i] and res[i + 1])."""
        res = [False] * n
        changed = True
        while changed:
            changed = False
            for i in range(n - 1, -1, -1):
                v = target[i] or (hold[i] and res[after[i]])
                if v != res[i]:
                    res[i] = v
                    changed = True
        return res

    return _fold(f, step)


def lasso_valuations(k: KripkeStructure, lasso: Lasso):
    """The labels along the lasso as the checker reads them: undeclared
    propositions are false."""
    return ([k.reads(k.label(s)) for s in lasso.stem],
            [k.reads(k.label(s)) for s in lasso.loop])


# ---------------------------------------------------------------------------
# Model checking
# ---------------------------------------------------------------------------

HOLDS = "HOLDS"
VIOLATED = "VIOLATED"


@dataclass(frozen=True)
class CheckResult:
    verdict: str
    lasso: Lasso | None = None
    substituted_false: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


def _shape(f: Formula, declared: frozenset[str]):
    """One walk over ``f``: its shape key, its declared propositions in
    order of first occurrence, and the sorted names of its undeclared ones.
    The key lists in ``_nodes`` order (which, with each node's arity, fixes
    the tree) each operator's class, each constant itself (not its value:
    True == 1), each declared proposition's number and FALSE for each
    undeclared one."""
    number: dict[str, int] = {}
    undeclared: set[str] = set()
    key = []
    for g in _nodes(f):
        if isinstance(g, Prop):
            if g.name in declared:
                key.append(number.setdefault(g.name, len(number)))
            else:
                undeclared.add(g.name)
                key.append(FALSE)
        else:
            key.append(g if isinstance(g, Const) else g.__class__)
    return tuple(key), tuple(number), tuple(sorted(undeclared))


def _column(auto: BuchiAutomaton, letter: frozenset, component) -> tuple:
    """For each automaton state, the (target, marks) pairs of its covers
    admitting letter, their distinct targets, and the pairs whose target
    lies in the state's own ``component``: a cycle takes no other."""
    rows = [tuple(dict.fromkeys((c.target, c.marks) for c in covers
                                if c.required <= letter and not c.forbidden & letter))
            for covers in auto.covers]
    inner = [tuple(pair for pair in row if component[pair[0]] == component[b])
             for b, row in enumerate(rows)]
    return tuple((row, tuple(dict.fromkeys(b2 for b2, _ in row)),
                  row if len(stay) == len(row) else stay)   # one tuple where they agree
                 for row, stay in zip(rows, inner))


def check(k: KripkeStructure, f: Formula,
          max_product_states: int = CEILING) -> CheckResult:
    """HOLDS, or VIOLATED with a lasso witness over Kripke states.

    Propositions absent from the structure's declared set are resolved to
    constant false by ``instantiate``, with a warning.  One product of the
    negation automaton is searched on two graphs (see
    ``KripkeStructure.graphs``): a pass over its product with the label
    quotient that finds no lasso proves the property, and one that reaches
    the ceiling proves nothing.  Else the shortest lasso of the structure's
    own product (see ``_Product.shortest_lasso``) is the witness, or there
    is none, and every witness is replayed through direct semantics before
    being returned.
    ``max_product_states`` bounds the automaton's expansion as well as each
    search: the states one search has found, the stem search's and each
    cycle search's on their own.  Formulas of one shape (see ``_shape``)
    share one translation per structure: it is the automaton of each, up to
    a one-to-one renaming of propositions.  Their product is fixed by the
    letter each label reads, so formulas of one shape whose letters agree on
    every label share one search.
    """
    key, names, substituted = _shape(f, k.atomic_props)
    shape = k.shapes.get((max_product_states, key))
    if shape is None:
        resolved = instantiate(f, k.atomic_props)[0]
        automaton = ltl_to_buchi(to_nnf(Not(resolved)), max_product_states)
        shape = k.shapes[max_product_states, key] = (
            automaton, names, {}, *_classify(automaton))
    automaton, first, columns, component, candidate = shape
    letters = tuple(sum(1 << i for i, p in enumerate(names) if p in v)  # bit i: names[i]
                    for v in k.index.labels)
    searched = (max_product_states, key, letters)
    if searched not in k.searches:
        for letter in letters:
            if letter not in columns:
                columns[letter] = _column(automaton, frozenset(first[i] for i in _bits(letter)),
                                          component)
        product = _Product(automaton, max_product_states, [columns[v] for v in letters])
        quotient, structure = k.graphs
        try:
            refuted = product.shortest_lasso(quotient, candidate) is not None
        except CeilingError:    # proves nothing: the structure's product may be within it
            refuted = True
        found = product.shortest_lasso(structure, candidate) if refuted else None
        k.searches[searched] = found and Lasso(*(tuple(k.states[s] for s in path)
                                                 for path in found))
    witness = k.searches[searched]
    warnings = ("undeclared propositions resolved to false: " + ", ".join(substituted),)
    warnings = warnings if substituted else ()
    if witness is None:
        return CheckResult(HOLDS, None, substituted, warnings)
    _validate_lasso(k, witness)
    if evaluate_on_lasso(f, *lasso_valuations(k, witness)):
        raise AssertionError(f"witness fails to falsify {format_formula(f)}: {witness}")
    return CheckResult(VIOLATED, witness, substituted, warnings)


def _validate_lasso(k: KripkeStructure, lasso: Lasso):
    """Structural witness contract: consecutive states are connected, the
    stem enters the loop, and the loop closes back on its head."""
    sequence = lasso.states() + (lasso.loop[0],)
    if sequence[0] not in k.initial:
        raise AssertionError(f"witness starts outside the initial states: {lasso}")
    for a, b in zip(sequence, sequence[1:]):
        if b not in k.successors[a]:
            raise AssertionError(f"witness step {a!r} -> {b!r} is not a transition")


class _Product:
    """Product of a transition-based generalized Buchi automaton with a
    graph whose nodes carry label ids (see ``_Graph``): the label quotient
    or the Kripke structure, searched by the same pass.

    The product state (s, b) is the integer ``s * width + b``, s a graph
    node.  An edge out of (s, b) reads the label of s: the covers of each
    automaton state are decided once per distinct label, and
    ``table[label id][b]`` holds the (target, marks) pairs of the covers of
    b that admit it, their distinct targets, and the pairs that stay in b's
    automaton component.  The searches start in (s0, 0) for each start node
    s0, and take the pairs of a row in order, each to every successor of s.
    """

    def __init__(self, auto: BuchiAutomaton, ceiling: int, table: list):
        self.width, self.ceiling, self.table = len(auto.states), ceiling, table
        self.mark_count, self.full = auto.mark_count, (1 << auto.mark_count) - 1

    def shortest_lasso(self, graph: _Graph, candidate: tuple[int | None, ...]):
        """The shortest lasso of the product with ``graph``, as the graph
        nodes of its stem and of its loop, or None: the least, over
        reachable product states e whose automaton state has a
        ``candidate`` component (see ``_classify``), of e's breadth-first
        depth d plus the length of the shortest cycle through e whose edges
        carry every mark; ties go to the state discovered first.

        One loop over the lasso length T = 1, 2, ... runs the stem search
        and the entries' cycle searches side by side.  No cycle through
        e = (s, b) is shorter than ``graph.bounds[s]``, so e's search starts
        at T = d + bounds[s] and is taken to radius T - d at each later T.
        The first T at which a search closes is the least total, and the
        first entry in discovery order that closes at it wins.  At each T
        the searches of the layers found so far go first; only when none
        closes does the stem search reveal layer T - 1, whose entries can
        close at T through a self-loop alone.  Those entries are the deepest
        found so far, so they join the running searches at the end."""
        width, bounds = self.width, graph.bounds
        parent = dict.fromkeys(s * width for s in graph.start)
        layers, running, waiting = self._layers(graph, parent), [], {}
        for total in count(1):
            if total in waiting:
                running = sorted(running + self._start(graph, waiting.pop(total), total))
            found = _advance(running)
            if found is None:
                layer = next(layers, ())
                for i, p in enumerate(layer):
                    if candidate[p % width] is not None:
                        waiting.setdefault(total - 1 + bounds[p // width], []).append(
                            (total - 1, i, p))
                if total in waiting:
                    fresh = self._start(graph, waiting.pop(total), total)
                    found = _advance(fresh)
                    running += fresh
            if found is not None:
                return ([p // width for p in _path(parent, found[0])[:-1]],
                        [p // width for p in found[1]])
            if not (layer or running or waiting):
                return None

    def _start(self, graph: _Graph, entries, total: int) -> list:
        """The cycle searches of ``entries``, each (depth, position in its
        layer, product state), started at lasso length ``total``."""
        return [(d, i, p, self.cycle(graph, p, total - d)) for d, i, p in entries]

    def _layers(self, graph: _Graph, parent: dict):
        """The breadth-first layers of the product, each a list in discovery
        order, from the start states, which ``parent`` holds; it maps each
        state found to the one it was found from."""
        width, table, ceiling = self.width, self.table, self.ceiling
        successors, label_of = graph.successors, graph.label_of
        layer = list(parent)
        while layer:
            yield layer
            deeper = []
            for p in layer:
                s, b = divmod(p, width)
                for b2 in table[label_of[s]][b][1]:
                    for t in successors[s]:
                        q = t * width + b2
                        if q not in parent:
                            parent[q] = p
                            deeper.append(q)
                if len(parent) > ceiling:
                    raise CeilingError(f"product state ceiling exceeded ({ceiling})")
            layer = deeper

    def cycle(self, graph: _Graph, entry: int, radius: int = 1):
        """The search for the shortest cycle from product state ``entry``
        back to it whose edges carry every mark, resumable: from ``radius``
        on it yields once per radius, None while no cycle that long closes,
        then the cycle, as the product states it visits from entry on; it
        ends when no cycle is left.  One breadth-first search, layer by
        layer, over (product state, marks covered so far) pairs, each
        packed into the integer ``state << mark_count | marks``.  It takes
        only the edges that stay in the automaton component they leave: no
        other edge leads back."""
        width, table, ceiling = self.width, self.table, self.ceiling
        successors, label_of = graph.successors, graph.label_of
        shift, full = self.mark_count, self.full
        goal = entry << shift | full
        s, b = divmod(entry, width)
        parent = dict.fromkeys((t * width + b2) << shift | m
                               for b2, m in table[label_of[s]][b][2] for t in successors[s])
        layer, depth = list(parent), 1
        while goal not in parent:
            if not layer:
                return
            if depth >= radius:
                yield None
            deeper = []
            for node in layer:
                s, b = divmod(node >> shift, width)
                for b2, m in table[label_of[s]][b][2]:
                    marks = node & full | m
                    for t in successors[s]:
                        q = (t * width + b2) << shift | marks
                        if q not in parent:
                            parent[q] = node
                            deeper.append(q)
                if len(parent) > ceiling:
                    raise CeilingError(f"product state ceiling exceeded ({ceiling})")
                if goal in parent:
                    break
            layer, depth = deeper, depth + 1
        yield [entry] + [node >> shift for node in _path(parent, goal)[:-1]]


def _advance(searches: list) -> tuple[int, list[int]] | None:
    """Takes each search (see ``_Product._start``), in order, one radius
    further: the entry and cycle of the first that closes, or None.
    Searches that end are dropped."""
    for search in searches[:]:
        loop = next(search[3], False)
        if loop:
            return search[2], loop
        if loop is False:
            searches.remove(search)
    return None


def _path(parent: dict, node) -> list:
    """The breadth-first path from a source (whose parent is None) to node."""
    path = []
    while node is not None:
        path.append(node)
        node = parent[node]
    return path[::-1]


# ---------------------------------------------------------------------------
# Property library
# ---------------------------------------------------------------------------

# Generic security properties over the shared proposition vocabulary; a
# proposition map instantiates them by making every proposition it does not
# declare constant false.
PROPERTY_TEMPLATES: dict[str, str] = {
    "auth_before_access": "G(!(!AUTH && PROT) || !ACCESSOK)",
    "no_plain_read_of_protected": "G(PROT -> !UREADOK)",
    "privilege_gates_critical": "G((PRIV -> AUTH) && ((!PRIV && CRIT) -> !ACCESSOK))",
    "no_invalid_key": "G(!INVKEYOK)",
    "secure_read_requires_secure_context": "G(!(SREADOK && !(DF && AUTH && EF)))",
    "plain_read_only_outside_protected": "G(!(UREADOK && (!EF || DF)))",
    "secure_read_follows_secure_select": "((!SREADOK) U SSELEFOK) || G(!SREADOK)",
}


@dataclass(frozen=True)
class PropertyInstance:
    name: str
    formula: Formula
    source: str
    substituted_false: tuple[str, ...]


def property_library(cpm: Cpm) -> dict[str, PropertyInstance]:
    """Instantiate every generic property against a proposition map: any
    proposition not declared anywhere in the map becomes constant false."""
    out = {}
    for name, text in PROPERTY_TEMPLATES.items():
        instantiated, undeclared = instantiate(parse_ltl(text), cpm.declared_props)
        out[name] = PropertyInstance(name, instantiated, text, undeclared)
    return out


def emit_property_file(formulas: dict[str, Formula],
                       header: str | None = None) -> str:
    """Render properties in the ``name: formula`` file format."""
    lines = [] if header is None else [f"# {header}"]
    for name in sorted(formulas):
        lines.append(f"{name}: {format_formula(formulas[name])}")
    return "\n".join(lines) + "\n"


# deepest formula a property file may hold: the formula passes and equality
# walk without recursion, but the repr and pickling that dataclasses generate
# recurse once per level
MAX_FORMULA_DEPTH = 200
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def parse_property_file(text: str) -> dict[str, Formula]:
    """Lines of ``name: formula``; ``#`` starts a comment.  A formula may
    nest at most ``MAX_FORMULA_DEPTH`` operators."""
    out: dict[str, Formula] = {}
    props: dict[str, Prop] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise LtlError(f"line {lineno}: expected 'name: formula'")
        name, formula_text = line.split(":", 1)
        name = name.strip()
        if not _NAME_RE.fullmatch(name):
            raise LtlError(f"line {lineno}: invalid property name {name!r}")
        if name in out:
            raise LtlError(f"line {lineno}: duplicate property {name!r}")
        try:
            out[name], depth = _parse(formula_text, props)
            if depth > MAX_FORMULA_DEPTH:
                raise LtlError(f"formula nests {depth} operators deep, "
                               f"more than {MAX_FORMULA_DEPTH}")
        except LtlError as exc:
            raise LtlError(f"line {lineno}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# Vacuity analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VacuityInfo:
    """For G(antecedent -> consequent) shapes: does the antecedent ever fire,
    and is the property ever at risk (antecedent true, consequent false) in a
    reachable state?"""

    antecedent: str
    antecedent_reachable: bool
    risk_reachable: bool
    note: str


def _implication_shape(f: Formula):
    """Extract (antecedent, consequent) from G(a -> c) or G(!a || c)."""
    if not isinstance(f, Always):
        return None
    body = f.child
    if isinstance(body, Implies):
        return body.left, body.right
    if isinstance(body, Or):
        if isinstance(body.left, Not):
            return body.left.child, body.right
        if isinstance(body.right, Not):
            return body.right.child, body.left
    return None


def _is_propositional(f: Formula) -> bool:
    return not any(isinstance(g, (Always, Eventually, Next, Until, Release))
                   for g in _nodes(f))


def vacuity(k: KripkeStructure, f: Formula) -> VacuityInfo | None:
    """Vacuity report for always-implication properties; None otherwise."""
    shape = _implication_shape(f)
    if shape is None:
        return None
    antecedent, consequent = shape
    if not (_is_propositional(antecedent) and _is_propositional(consequent)):
        return None
    # one position per reachable label, the quotient nodes with successors:
    # a propositional formula reads no other
    index = k.index
    labels = [k.reads(v) for v, out in zip(index.labels, index.quotient) if out]
    fires = _truth(antecedent, labels, 0)
    ante = any(fires)
    risk = any(a and not c for a, c in zip(fires, _truth(consequent, labels, 0)))
    negated = consequent.child if isinstance(consequent, Not) else Not(consequent)
    if not ante:
        note = f"vacuous: antecedent {format_formula(antecedent)} never true in any reachable state"
    elif not risk:
        note = (f"vacuous: {format_formula(antecedent)} and {format_formula(negated)} "
                "never co-occur in any reachable state")
    else:
        note = "antecedent and negated consequent co-occur"
    return VacuityInfo(format_formula(antecedent), ante, risk, note)

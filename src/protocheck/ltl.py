"""Linear temporal logic: parsing, automaton translation, model checking.

The checker follows the automata-theoretic recipe: negate the formula,
translate to a Buchi automaton via the expand-node tableau, build the product
with the Kripke structure and search for an accepting cycle with a nested
depth-first search.  A separate bounded oracle decides formulas by direct
semantics on exhaustively enumerated lasso words; it shares no code with the
Buchi path and serves as an independent cross-check.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

from .cpm import AnnotatedMachine, Cpm


class LtlError(ValueError):
    """Raised for syntax errors and checker misuse."""


class OracleBudgetError(RuntimeError):
    """Raised when bounded enumeration would exceed its guard."""


# ---------------------------------------------------------------------------
# Formula AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Formula:
    def __str__(self):
        return format_formula(self)


@dataclass(frozen=True)
class Prop(Formula):
    name: str


@dataclass(frozen=True)
class Const(Formula):
    value: bool


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Always(Formula):
    child: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    child: Formula


@dataclass(frozen=True)
class Next(Formula):
    child: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    """Dual of Until; internal only, so negation normal form is closed."""

    left: Formula
    right: Formula


TRUE = Const(True)
FALSE = Const(False)


def format_formula(f: Formula) -> str:
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Const):
        return "true" if f.value else "false"
    if isinstance(f, Not):
        return f"!{_atomish(f.child)}"
    if isinstance(f, And):
        return f"{_atomish(f.left)} && {_atomish(f.right)}"
    if isinstance(f, Or):
        return f"{_atomish(f.left)} || {_atomish(f.right)}"
    if isinstance(f, Implies):
        return f"{_atomish(f.left)} -> {_atomish(f.right)}"
    if isinstance(f, Always):
        return f"G {_atomish(f.child)}"
    if isinstance(f, Eventually):
        return f"F {_atomish(f.child)}"
    if isinstance(f, Next):
        return f"X {_atomish(f.child)}"
    if isinstance(f, Until):
        return f"{_atomish(f.left)} U {_atomish(f.right)}"
    if isinstance(f, Release):
        return f"{_atomish(f.left)} R {_atomish(f.right)}"
    raise TypeError(f"not a formula: {f!r}")


def _atomish(f: Formula) -> str:
    if isinstance(f, (Prop, Const, Not, Always, Eventually, Next)):
        return format_formula(f)
    return f"({format_formula(f)})"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
#
# Grammar:  G F X U ! && || -> ( ) true false IDENT
# Precedence, tightest first: unary (!, G, F, X), U, &&, ||, ->.

_TOKEN_RE = re.compile(
    r"(?:(?P<and>&&)|(?P<or>\|\|)|(?P<implies>->)|(?P<not>!)"
    r"|(?P<lpar>\()|(?P<rpar>\))|(?P<ident>[A-Za-z][A-Za-z0-9_]*))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise LtlError(f"syntax error at position {pos}: unexpected {text[pos:pos + 10]!r}")
        kind = m.lastgroup
        value = m.group(kind)
        if kind == "ident" and value in ("true", "false", "G", "F", "X", "U"):
            kind = value
        tokens.append((kind, value, pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def take(self, kind=None):
        token = self.tokens[self.index]
        if kind is not None and token[0] != kind:
            raise LtlError(f"syntax error at position {token[2]}: expected {kind}, got {token[1]!r}")
        self.index += 1
        return token

    def parse(self) -> Formula:
        f = self.implication()
        token = self.peek()
        if token[0] != "eof":
            raise LtlError(f"syntax error at position {token[2]}: unexpected {token[1]!r}")
        return f

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "implies":
            self.take()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek()[0] == "or":
            self.take()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.until()
        while self.peek()[0] == "and":
            self.take()
            f = And(f, self.until())
        return f

    def until(self) -> Formula:
        left = self.unary()
        if self.peek()[0] == "U":
            self.take()
            return Until(left, self.until())
        return left

    def unary(self) -> Formula:
        kind = self.peek()[0]
        if kind == "not":
            self.take()
            return Not(self.unary())
        if kind == "G":
            self.take()
            return Always(self.unary())
        if kind == "F":
            self.take()
            return Eventually(self.unary())
        if kind == "X":
            self.take()
            return Next(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "lpar":
            self.take()
            f = self.implication()
            self.take("rpar")
            return f
        if kind == "true":
            self.take()
            return TRUE
        if kind == "false":
            self.take()
            return FALSE
        if kind == "ident":
            self.take()
            return Prop(value)
        raise LtlError(f"syntax error at position {pos}: unexpected {value!r}")


def parse_ltl(text: str) -> Formula:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def substitute(f: Formula, assignment: dict[str, bool]) -> Formula:
    """Replace named propositions by boolean constants."""
    if isinstance(f, Prop):
        if f.name in assignment:
            return TRUE if assignment[f.name] else FALSE
        return f
    if isinstance(f, Const):
        return f
    if isinstance(f, Not):
        return Not(substitute(f.child, assignment))
    if isinstance(f, (Always, Eventually, Next)):
        return type(f)(substitute(f.child, assignment))
    if isinstance(f, (And, Or, Implies, Until, Release)):
        return type(f)(substitute(f.left, assignment), substitute(f.right, assignment))
    raise TypeError(f"not a formula: {f!r}")


def instantiate(f: Formula, declared: frozenset[str]) -> tuple[Formula, tuple[str, ...]]:
    """Resolve every proposition outside ``declared`` to constant false;
    returns the resolved formula and the sorted names it replaced."""
    undeclared = tuple(sorted(propositions(f) - declared))
    if not undeclared:
        return f, ()
    return substitute(f, dict.fromkeys(undeclared, False)), undeclared


def propositions(f: Formula) -> frozenset[str]:
    if isinstance(f, Prop):
        return frozenset([f.name])
    if isinstance(f, Const):
        return frozenset()
    if isinstance(f, (Not, Always, Eventually, Next)):
        return propositions(f.child)
    return propositions(f.left) | propositions(f.right)


def to_nnf(f: Formula) -> Formula:
    """Negation normal form: negations pushed onto propositions, F and ->
    eliminated (F phi = true U phi, G phi = false R phi)."""
    if isinstance(f, (Prop, Const)):
        return f
    if isinstance(f, And):
        return And(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Or):
        return Or(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Implies):
        return Or(to_nnf(Not(f.left)), to_nnf(f.right))
    if isinstance(f, Next):
        return Next(to_nnf(f.child))
    if isinstance(f, Eventually):
        return Until(TRUE, to_nnf(f.child))
    if isinstance(f, Always):
        return Release(FALSE, to_nnf(f.child))
    if isinstance(f, Until):
        return Until(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Release):
        return Release(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Not):
        g = f.child
        if isinstance(g, Prop):
            return f
        if isinstance(g, Const):
            return Const(not g.value)
        if isinstance(g, Not):
            return to_nnf(g.child)
        if isinstance(g, And):
            return Or(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
        if isinstance(g, Or):
            return And(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
        if isinstance(g, Implies):
            return And(to_nnf(g.left), to_nnf(Not(g.right)))
        if isinstance(g, Next):
            return Next(to_nnf(Not(g.child)))
        if isinstance(g, Eventually):
            return Release(FALSE, to_nnf(Not(g.child)))
        if isinstance(g, Always):
            return Until(TRUE, to_nnf(Not(g.child)))
        if isinstance(g, Until):
            return Release(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
        if isinstance(g, Release):
            return Until(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Buchi translation: expand-node tableau, counter degeneralization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuchiAutomaton:
    """Degeneralized Buchi automaton over proposition valuations.

    States read letters: a run b0 b1 ... over a valuation word v0 v1 ...
    requires b0 initial, v_i to satisfy the literal constraints of b_i, and
    b_{i+1} to be a listed successor of b_i.  ``transitions`` re-exposes the
    constraints edge-wise as (required, forbidden, successor) triples.
    """

    states: tuple[int, ...]
    initial: frozenset[int]
    required: dict[int, frozenset[str]]
    forbidden: dict[int, frozenset[str]]
    successors: dict[int, tuple[int, ...]]
    accepting: frozenset[int]

    @property
    def transitions(self) -> dict[int, tuple[tuple[frozenset[str], frozenset[str], int], ...]]:
        return {
            b: tuple((self.required[d], self.forbidden[d], d) for d in dsts)
            for b, dsts in self.successors.items()
        }

    def admits(self, state: int, valuation: frozenset[str]) -> bool:
        return (self.required[state] <= valuation
                and not (self.forbidden[state] & valuation))


class _Node:
    __slots__ = ("incoming", "new", "old", "next")

    def __init__(self, incoming, new, old, next_):
        self.incoming = incoming
        self.new = new
        self.old = old
        self.next = next_


def _expand(node: _Node, finished: list[_Node]):
    if not node.new:
        for other in finished:
            if other.old == node.old and other.next == node.next:
                other.incoming |= node.incoming
                return
        finished.append(node)
        successor = _Node({id(node)}, set(node.next), set(), set())
        _expand(successor, finished)
        return
    f = node.new.pop()
    if isinstance(f, Const):
        if not f.value:
            return
        node.old.add(f)
        _expand(node, finished)
    elif isinstance(f, (Prop, Not)):
        negation = f.child if isinstance(f, Not) else Not(f)
        if negation in node.old:
            return
        node.old.add(f)
        _expand(node, finished)
    elif isinstance(f, And):
        node.old.add(f)
        node.new |= {f.left, f.right} - node.old
        _expand(node, finished)
    elif isinstance(f, Next):
        node.old.add(f)
        node.next.add(f.child)
        _expand(node, finished)
    elif isinstance(f, (Or, Until, Release)):
        node.old.add(f)
        if isinstance(f, Or):
            new1, next1, new2 = {f.left}, set(), {f.right}
        elif isinstance(f, Until):
            new1, next1, new2 = {f.left}, {f}, {f.right}
        else:
            new1, next1, new2 = {f.right}, {f}, {f.left, f.right}
        left = _Node(set(node.incoming), node.new | (new1 - node.old),
                     set(node.old), node.next | next1)
        right = _Node(set(node.incoming), node.new | (new2 - node.old),
                      set(node.old), set(node.next))
        _expand(left, finished)
        _expand(right, finished)
    else:
        raise TypeError(f"formula not in negation normal form: {f!r}")


_INIT = "init"


def ltl_to_buchi(f: Formula) -> BuchiAutomaton:
    """Generalized Buchi automaton from the tableau, degeneralized with the
    usual round-robin counter over the per-Until acceptance sets."""
    root = _Node({_INIT}, {f}, set(), set())
    finished: list[_Node] = []
    _expand(root, finished)

    node_ids = {id(node): i for i, node in enumerate(finished)}
    untils = sorted({g for node in finished for g in node.old if isinstance(g, Until)},
                    key=str)
    acceptance_sets = [
        frozenset(node_ids[id(node)] for node in finished
                  if u.right in node.old or u not in node.old)
        for u in untils
    ] or [frozenset(node_ids[id(node)] for node in finished)]
    k = len(acceptance_sets)

    required = {}
    forbidden = {}
    for node in finished:
        n = node_ids[id(node)]
        required[n] = frozenset(g.name for g in node.old if isinstance(g, Prop))
        forbidden[n] = frozenset(g.child.name for g in node.old
                                 if isinstance(g, Not) and isinstance(g.child, Prop))

    edges: dict[int, list[int]] = {node_ids[id(node)]: [] for node in finished}
    initial_nodes = []
    for node in finished:
        n = node_ids[id(node)]
        for src in node.incoming:
            if src == _INIT:
                initial_nodes.append(n)
            else:
                edges[node_ids[src]].append(n)

    def enc(n: int, i: int) -> int:
        return n * k + i

    states = tuple(enc(n, i) for n in sorted(node_ids.values()) for i in range(k))
    successors: dict[int, tuple[int, ...]] = {}
    req = {}
    forb = {}
    for n in node_ids.values():
        for i in range(k):
            j = (i + 1) % k if n in acceptance_sets[i] else i
            successors[enc(n, i)] = tuple(enc(m, j) for m in sorted(edges[n]))
            req[enc(n, i)] = required[n]
            forb[enc(n, i)] = forbidden[n]
    return BuchiAutomaton(
        states=states,
        initial=frozenset(enc(n, 0) for n in initial_nodes),
        required=req,
        forbidden=forb,
        successors=successors,
        accepting=frozenset(enc(n, 0) for n in acceptance_sets[0]),
    )


# ---------------------------------------------------------------------------
# Kripke structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KripkeStructure:
    states: tuple[str, ...]
    initial: tuple[str, ...]
    successors: dict[str, tuple[str, ...]]
    labels: dict[str, frozenset[str]]
    atomic_props: frozenset[str] = frozenset()

    def __post_init__(self):
        for q in self.states:
            if not self.successors.get(q):
                raise LtlError(f"transition relation not left-total at {q!r}")
        for q in self.initial:
            if q not in self.states:
                raise LtlError(f"initial state {q!r} not among states")

    def label(self, state: str) -> frozenset[str]:
        return self.labels.get(state, frozenset())

    def reachable_states(self) -> list[str]:
        seen = list(self.initial)
        seen_set = set(seen)
        frontier = deque(seen)
        while frontier:
            q = frontier.popleft()
            for succ in self.successors[q]:
                if succ not in seen_set:
                    seen_set.add(succ)
                    seen.append(succ)
                    frontier.append(succ)
        return seen


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
    for U/F, greatest for R/G.  Takes the original formula, sugar included.
    """
    if not loop_vals:
        raise LtlError("loop must be non-empty")
    vals = list(stem_vals) + list(loop_vals)
    n = len(vals)
    k = len(stem_vals)

    def nxt(i: int) -> int:
        return i + 1 if i + 1 < n else k

    cache: dict[Formula, list[bool]] = {}

    def arr(g: Formula) -> list[bool]:
        if g in cache:
            return cache[g]
        if isinstance(g, Prop):
            res = [g.name in vals[i] for i in range(n)]
        elif isinstance(g, Const):
            res = [g.value] * n
        elif isinstance(g, Not):
            res = [not v for v in arr(g.child)]
        elif isinstance(g, And):
            left, right = arr(g.left), arr(g.right)
            res = [left[i] and right[i] for i in range(n)]
        elif isinstance(g, Or):
            left, right = arr(g.left), arr(g.right)
            res = [left[i] or right[i] for i in range(n)]
        elif isinstance(g, Implies):
            left, right = arr(g.left), arr(g.right)
            res = [(not left[i]) or right[i] for i in range(n)]
        elif isinstance(g, Next):
            child = arr(g.child)
            res = [child[nxt(i)] for i in range(n)]
        elif isinstance(g, (Eventually, Until)):
            hold = [True] * n if isinstance(g, Eventually) else arr(g.left)
            target = arr(g.child) if isinstance(g, Eventually) else arr(g.right)
            res = [False] * n
            changed = True
            while changed:
                changed = False
                for i in range(n - 1, -1, -1):
                    v = target[i] or (hold[i] and res[nxt(i)])
                    if v != res[i]:
                        res[i] = v
                        changed = True
        elif isinstance(g, (Always, Release)):
            hold = [False] * n if isinstance(g, Always) else arr(g.left)
            target = arr(g.child) if isinstance(g, Always) else arr(g.right)
            res = [True] * n
            changed = True
            while changed:
                changed = False
                for i in range(n - 1, -1, -1):
                    v = target[i] and (hold[i] or res[nxt(i)])
                    if v != res[i]:
                        res[i] = v
                        changed = True
        else:
            raise TypeError(f"not a formula: {g!r}")
        cache[g] = res
        return res

    return arr(f)[0]


def lasso_valuations(k: KripkeStructure, lasso: Lasso):
    return ([k.label(s) for s in lasso.stem], [k.label(s) for s in lasso.loop])


# ---------------------------------------------------------------------------
# Model checking
# ---------------------------------------------------------------------------

HOLDS = "HOLDS"
VIOLATED = "VIOLATED"
BOUNDED_HOLDS = "BOUNDED-HOLDS"


@dataclass(frozen=True)
class CheckResult:
    verdict: str
    lasso: Lasso | None = None
    substituted_false: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


def _resolve_undeclared(f: Formula, declared: frozenset[str]):
    resolved, undeclared = instantiate(f, declared)
    warnings = ("undeclared propositions resolved to false: " + ", ".join(undeclared),)
    return resolved, undeclared, warnings if undeclared else ()


def check(k: KripkeStructure, f: Formula,
          max_product_states: int = 10 ** 6) -> CheckResult:
    """HOLDS, or VIOLATED with a lasso witness over Kripke states.

    Propositions absent from the structure's declared set are resolved to
    constant false with a warning.  Emptiness of the product with the
    negation automaton is decided by nested depth-first search, and every
    witness is replayed through direct semantics before being returned.
    """
    resolved, substituted, warnings = _resolve_undeclared(f, k.atomic_props)
    auto = ltl_to_buchi(to_nnf(Not(resolved)))

    start = [
        (s, b)
        for s in k.initial
        for b in sorted(auto.initial)
        if auto.admits(b, k.label(s))
    ]
    witness = _ndfs(k, auto, start, max_product_states)
    if witness is None:
        return CheckResult(HOLDS, None, substituted, warnings)
    _validate_lasso(k, witness)
    stem_vals, loop_vals = lasso_valuations(k, witness)
    if evaluate_on_lasso(f, stem_vals, loop_vals):
        raise LtlError(
            f"internal error: witness fails to falsify {format_formula(f)}: {witness}")
    return CheckResult(VIOLATED, witness, substituted, warnings)


def _validate_lasso(k: KripkeStructure, lasso: Lasso):
    """Structural witness contract: consecutive states are connected, the
    stem enters the loop, and the loop closes back on its head."""
    sequence = lasso.states() + (lasso.loop[0],)
    if lasso.stem and lasso.stem[0] not in k.initial:
        raise LtlError(f"internal error: witness starts outside the initial states: {lasso}")
    if not lasso.stem and lasso.loop[0] not in k.initial:
        raise LtlError(f"internal error: witness starts outside the initial states: {lasso}")
    for a, b in zip(sequence, sequence[1:]):
        if b not in k.successors[a]:
            raise LtlError(f"internal error: witness step {a!r} -> {b!r} is not a transition")


def _product_successors(k: KripkeStructure, auto: BuchiAutomaton, state):
    s, b = state
    for s2 in k.successors[s]:
        val = k.label(s2)
        for b2 in auto.successors[b]:
            if auto.admits(b2, val):
                yield (s2, b2)


def _ndfs(k: KripkeStructure, auto: BuchiAutomaton, start, ceiling: int) -> Lasso | None:
    """Nested depth-first search for an accepting cycle; returns the
    projected lasso.  Outer search is post-order; the inner (red) search
    runs from each accepting state and closes a cycle when it reaches any
    state on the current outer path."""
    blue: set = set()
    red: set = set()

    for root in start:
        if root in blue:
            continue
        blue.add(root)
        path = [root]
        pos_in_path = {root: 0}
        stack = [(root, iter(_product_successors(k, auto, root)))]
        while stack:
            if len(blue) > ceiling:
                raise LtlError(f"product state ceiling exceeded ({ceiling})")
            state, it = stack[-1]
            advanced = False
            for succ in it:
                if succ not in blue:
                    blue.add(succ)
                    stack.append((succ, iter(_product_successors(k, auto, succ))))
                    pos_in_path[succ] = len(path)
                    path.append(succ)
                    advanced = True
                    break
            if advanced:
                continue
            stack.pop()
            if state[1] in auto.accepting:
                loop = _red_search(k, auto, state, pos_in_path, path, red)
                if loop is not None:
                    stem = tuple(s for s, _ in path[:pos_in_path[state]])
                    return Lasso(stem, tuple(s for s, _ in loop))
            del pos_in_path[state]
            path.pop()
    return None


def _red_search(k, auto, seed, pos_in_path, path, red):
    """Cycle through ``seed``: returns the product-state loop or None."""
    parents = {seed: None}
    stack = [seed]
    while stack:
        u = stack.pop()
        for v in _product_successors(k, auto, u):
            if v in pos_in_path:
                chain = []
                cur = u
                while cur is not None:
                    chain.append(cur)
                    cur = parents.get(cur)
                chain.reverse()  # [seed, ..., u]
                i, j = pos_in_path[v], pos_in_path[seed]
                return chain + path[i:j]
            if v not in red:
                red.add(v)
                parents[v] = u
                stack.append(v)
    return None


# ---------------------------------------------------------------------------
# Bounded oracle: exhaustive lasso enumeration with direct semantics
# ---------------------------------------------------------------------------

def bounded_oracle(k: KripkeStructure, f: Formula, stem_max: int, loop_max: int,
                   max_lassos: int = 500_000) -> CheckResult:
    """Exhaustively enumerate every lasso within the given bounds and decide
    the formula by direct semantics on the induced words.

    Returns VIOLATED with the first falsifying lasso, else BOUNDED-HOLDS.
    Distinct state lassos inducing the same valuation word are evaluated
    once.  Raises :class:`OracleBudgetError` past ``max_lassos``.
    """
    resolved, substituted, warnings = _resolve_undeclared(f, k.atomic_props)
    seen_words: set = set()
    budget = [0]

    def consider(stem: tuple[str, ...], loop: tuple[str, ...]):
        stem_vals = tuple(k.label(s) for s in stem)
        loop_vals = tuple(k.label(s) for s in loop)
        key = (stem_vals, loop_vals)
        if key in seen_words:
            return None
        seen_words.add(key)
        budget[0] += 1
        if budget[0] > max_lassos:
            raise OracleBudgetError(f"lasso budget exceeded ({max_lassos})")
        if not evaluate_on_lasso(resolved, list(stem_vals), list(loop_vals)):
            return Lasso(stem, loop)
        return None

    max_len = stem_max + loop_max
    for init in k.initial:
        path = [init]

        def dfs():
            last = path[-1]
            # every decomposition of the current path into stem+loop where
            # the last state loops back to the loop head
            for i in range(len(path)):
                head = path[i]
                if i <= stem_max and len(path) - i <= loop_max and head in k.successors[last]:
                    witness = consider(tuple(path[:i]), tuple(path[i:]))
                    if witness is not None:
                        return witness
            if len(path) < max_len:
                for succ in k.successors[last]:
                    path.append(succ)
                    witness = dfs()
                    if witness is not None:
                        return witness
                    path.pop()
            return None

        witness = dfs()
        if witness is not None:
            return CheckResult(VIOLATED, witness, substituted, warnings)
    return CheckResult(BOUNDED_HOLDS, None, substituted, warnings)


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


def parse_property_file(text: str) -> dict[str, Formula]:
    """Lines of ``name: formula``; ``#`` starts a comment."""
    out: dict[str, Formula] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise LtlError(f"line {lineno}: expected 'name: formula'")
        name, formula_text = line.split(":", 1)
        name = name.strip()
        if not name or not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", name):
            raise LtlError(f"line {lineno}: invalid property name {name!r}")
        if name in out:
            raise LtlError(f"line {lineno}: duplicate property {name!r}")
        out[name] = parse_ltl(formula_text)
    return out


# ---------------------------------------------------------------------------
# Verdict reports
# ---------------------------------------------------------------------------

def verdict_text(name: str, result: CheckResult) -> str:
    """One human-readable line per checked property."""
    line = f"{name}: {result.verdict}"
    if result.substituted_false:
        line += f" (assumed false: {', '.join(result.substituted_false)})"
    if result.lasso is not None:
        loop = " -> ".join(result.lasso.loop)
        stem = " -> ".join(result.lasso.stem) or "(start)"
        line += f"; witness stem {stem}, loop {loop}"
    return line


def verdict_jsonl(results: dict[str, CheckResult]) -> str:
    """Machine-readable report: one JSON object per property and line."""
    import json

    lines = []
    for name in sorted(results):
        result = results[name]
        lines.append(json.dumps({
            "name": name,
            "verdict": result.verdict,
            "lasso": None if result.lasso is None else {
                "stem": list(result.lasso.stem),
                "loop": list(result.lasso.loop),
            },
            "substituted_false": list(result.substituted_false),
        }, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


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


def _eval_propositional(f: Formula, valuation: frozenset[str]) -> bool:
    if isinstance(f, Prop):
        return f.name in valuation
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return not _eval_propositional(f.child, valuation)
    if isinstance(f, And):
        return _eval_propositional(f.left, valuation) and _eval_propositional(f.right, valuation)
    if isinstance(f, Or):
        return _eval_propositional(f.left, valuation) or _eval_propositional(f.right, valuation)
    if isinstance(f, Implies):
        return (not _eval_propositional(f.left, valuation)) or _eval_propositional(f.right, valuation)
    raise LtlError(f"not propositional: {format_formula(f)}")


def _is_propositional(f: Formula) -> bool:
    if isinstance(f, (Prop, Const)):
        return True
    if isinstance(f, Not):
        return _is_propositional(f.child)
    if isinstance(f, (And, Or, Implies)):
        return _is_propositional(f.left) and _is_propositional(f.right)
    return False


def vacuity(k: KripkeStructure, f: Formula) -> VacuityInfo | None:
    """Vacuity report for always-implication properties; None otherwise."""
    shape = _implication_shape(f)
    if shape is None:
        return None
    antecedent, consequent = shape
    if not (_is_propositional(antecedent) and _is_propositional(consequent)):
        return None
    reachable = k.reachable_states()
    ante = [s for s in reachable if _eval_propositional(antecedent, k.label(s))]
    risk = [s for s in ante if not _eval_propositional(consequent, k.label(s))]
    negated = consequent.child if isinstance(consequent, Not) else Not(consequent)
    if not ante:
        note = f"vacuous: antecedent {format_formula(antecedent)} never true in any reachable state"
    elif not risk:
        note = (f"vacuous: {format_formula(antecedent)} and {format_formula(negated)} "
                "never co-occur in any reachable state")
    else:
        note = "antecedent and negated consequent co-occur"
    return VacuityInfo(format_formula(antecedent), bool(ante), bool(risk), note)

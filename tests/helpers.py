"""Seeded random generators shared by the property and acceptance tests,
the bounded oracle that cross-checks the checker, and the brute-force
shortest lasso its witnesses are measured against."""

from __future__ import annotations

import dataclasses
import gc
import random
from collections import deque

from protocheck import (Mapper, MappedSul, MachineSul, MealyMachine, SulInterface,
                        build_uds_machine, reachable)
from protocheck.cpm import Condition, Cpm
from protocheck.ltl import (VIOLATED, And, CheckResult, Eventually, Always, Formula,
                            Implies, KripkeStructure, Lasso, Next, Not, Or, Prop, Until,
                            evaluate_on_lasso, instantiate, ltl_to_buchi, to_nnf)

PROPS = ("p", "q", "r")


def random_machine(rng: random.Random, max_states=8, max_inputs=5,
                   max_outputs=4, symbol_pool=None) -> MealyMachine:
    n = rng.randint(1, max_states)
    k = rng.randint(1, max_inputs)
    if symbol_pool is None:
        states = tuple(f"q{i}" for i in range(n))
        inputs = tuple(f"i{j}" for j in range(k))
        out_pool = [f"o{j}" for j in range(rng.randint(1, max_outputs))]
    else:
        pool = list(symbol_pool)
        states = tuple(rng.sample(pool, n))
        rest = [s for s in pool if s not in states] or pool
        inputs = tuple(rng.sample(rest, min(k, len(rest))))
        out_pool = rng.sample(pool, min(max_outputs, len(pool)))
    transitions = {}
    outputs = []
    for q in states:
        for a in inputs:
            out = rng.choice(out_pool)
            transitions[(q, a)] = (rng.choice(states), out)
            if out not in outputs:
                outputs.append(out)
    machine = MealyMachine(states, inputs, tuple(outputs), states[0], transitions)
    return reachable(machine)


def with_transition(ir, key, target: str, output: str):
    """The actor model ``ir`` whose machine takes ``key``, a (state, input)
    pair, to ``target`` with ``output``; its proposition updates are kept."""
    m = ir.machine
    return dataclasses.replace(ir, machine=dataclasses.replace(
        m, transitions={**m.transitions, key: (target, output)}))


def learning_target(seed: int, states=12, inputs=("a", "b", "c"),
                    outputs=("o0", "o1")) -> MealyMachine:
    """Seeded machine with few outputs for its states, so that the first
    hypotheses are coarse and learning it takes several counterexamples."""
    rng = random.Random(seed)
    names = tuple(f"q{i}" for i in range(states))
    transitions = {(q, a): (rng.choice(names), rng.choice(outputs))
                   for q in names for a in inputs}
    return reachable(MealyMachine(names, inputs, outputs, names[0], transitions))


def combination_lock(length=4) -> MealyMachine:
    """Answers "open" only to the length-th "a" in a row; "b" starts over.
    The first table's rows all look alike, so the first hypothesis has one
    state and learning needs a second round."""
    names = tuple(f"l{i}" for i in range(length))
    transitions = {}
    for i, q in enumerate(names):
        last = i == length - 1
        transitions[(q, "a")] = (names[0] if last else names[i + 1],
                                 "open" if last else "shut")
        transitions[(q, "b")] = (names[0], "shut")
    return MealyMachine(names, ("a", "b"), ("shut", "open"), names[0], transitions)


def combination_lock_sul():
    """``module:factory`` form of the combination lock, for the CLI."""
    machine = combination_lock()
    return MachineSul(machine), machine


# resets and symbols that reached every system ``counted_uds_sul`` built
SYSTEM_COST = {"resets": 0, "symbols": 0}


class _CountedMachine(MachineSul):
    def reset(self):
        SYSTEM_COST["resets"] += 1
        super().reset()

    def step(self, symbol: str) -> str:
        SYSTEM_COST["symbols"] += 1
        return super().step(symbol)


def counted_uds_sul():
    """``module:factory`` form of the diagnostic unit that counts, at the
    system, every reset and symbol it receives."""
    machine, _ = build_uds_machine()
    return _CountedMachine(machine), machine


def blackbox_uds_sul():
    """``module:factory`` form of the diagnostic unit as a bare black box: a
    system that names its input alphabet and hands over no machine."""
    machine, _ = build_uds_machine()
    sul = MachineSul(machine)
    sul.inputs = machine.inputs
    return sul


# gc.isenabled() at each call of ``collector_recording_sul`` and at each
# reset and step of the systems it built
COLLECTOR_STATES: list[bool] = []


class _CollectorRecordingMachine(MachineSul):
    def reset(self):
        COLLECTOR_STATES.append(gc.isenabled())
        super().reset()

    def step(self, symbol: str) -> str:
        COLLECTOR_STATES.append(gc.isenabled())
        return super().step(symbol)


def collector_recording_sul():
    """``module:factory`` form of the diagnostic unit that records whether
    the cyclic collector runs while its code does."""
    COLLECTOR_STATES.append(gc.isenabled())
    machine, _ = build_uds_machine()
    return _CollectorRecordingMachine(machine), machine


class _LinkDownSul(SulInterface):
    def reset(self):
        pass

    def step(self, symbol: str) -> str:
        raise RuntimeError("link down")


def link_down_sul():
    """``module:factory`` form of a system whose every step fails."""
    return _LinkDownSul()


def canonicalize_nonce_mapper() -> Mapper:
    """Folds challenge nonces into one canonical symbol."""
    return Mapper(output_classes=((("CHAL_*",), "NONCE"),))


class FreshNonceSul(SulInterface):
    """Raw system that answers a challenge request with a fresh nonce every
    time and echoes a fixed status otherwise; with ``leak``, a serial read
    answers with a fresh number too, which no mapper class declares."""

    def __init__(self, leak: bool = False):
        self.counter = 0
        self.leak = leak

    def reset(self):
        pass

    def step(self, symbol: str) -> str:
        if symbol == "GET_CHALLENGE":
            self.counter += 1
            return f"CHAL_{self.counter:04x}"
        if symbol == "READ_SERIAL" and self.leak:
            self.counter += 1
            return f"SERIAL_{self.counter:04x}"
        return "9000"


NONCE_INPUTS = ("GET_CHALLENGE", "READ_SERIAL")


def nonce_sul(leak: bool = False) -> MappedSul:
    """The fresh-nonce system behind the nonce mapper, as a bare black box
    that names its input alphabet."""
    sul = MappedSul(FreshNonceSul(leak), canonicalize_nonce_mapper())
    sul.inputs = NONCE_INPUTS
    return sul


def leaky_nonce_sul() -> MappedSul:
    """``module:factory`` form of the nonce system whose serial reads vary."""
    return nonce_sul(leak=True)


def random_cpm(rng: random.Random, machine: MealyMachine,
               max_props=3, max_temps=2) -> Cpm:
    props = ["A", "B", "C"][: rng.randint(1, max_props)]
    temps = ["T1", "T2"][: rng.randint(0, max_temps)]

    def pattern():
        roll = rng.random()
        if roll < 0.3:
            return "*"
        symbol = rng.choice(machine.inputs + machine.outputs)
        if roll < 0.65 or len(symbol) < 2:
            return symbol
        return symbol[:1] + "*"

    def conditions(names, count):
        made = []
        for _ in range(rng.randint(0, count)):
            chosen = rng.sample(names, rng.randint(1, len(names)))
            made.append(Condition(frozenset(chosen), (pattern(),), (pattern(),)))
        return tuple(made)

    gains = conditions(props, 3)
    loses = conditions(props, 2)
    taus = conditions(temps, 2) if temps else ()
    return Cpm(gains, loses, taus)


def random_kripke(rng: random.Random, max_states=6, max_degree=2) -> KripkeStructure:
    n = rng.randint(1, max_states)
    states = tuple(f"k{i}" for i in range(n))
    successors = {
        s: tuple(rng.choice(states) for _ in range(rng.randint(1, max_degree)))
        for s in states
    }
    labels = {s: frozenset(p for p in PROPS if rng.random() < 0.4) for s in states}
    return KripkeStructure(states, (states[0],), successors, labels, frozenset(PROPS))


def random_formula(rng: random.Random, depth=3, temporal_budget=4):
    budget = [temporal_budget]

    def go(d):
        kinds = ["prop", "not", "and", "or", "implies"]
        if budget[0] > 0:
            kinds += ["G", "F", "X", "U"] * 2
        if d <= 0:
            kinds = ["prop"]
        kind = rng.choice(kinds)
        if kind == "prop":
            return Prop(rng.choice(PROPS))
        if kind in ("G", "F", "X", "U"):
            budget[0] -= 1
        if kind == "not":
            return Not(go(d - 1))
        if kind == "and":
            return And(go(d - 1), go(d - 1))
        if kind == "or":
            return Or(go(d - 1), go(d - 1))
        if kind == "implies":
            return Implies(go(d - 1), go(d - 1))
        if kind == "G":
            return Always(go(d - 1))
        if kind == "F":
            return Eventually(go(d - 1))
        if kind == "X":
            return Next(go(d - 1))
        return Until(go(d - 1), go(d - 1))

    return go(depth)


# ---------------------------------------------------------------------------
# Bounded oracle: exhaustive lasso enumeration with direct semantics
# ---------------------------------------------------------------------------

BOUNDED_HOLDS = "BOUNDED-HOLDS"


class OracleBudgetError(RuntimeError):
    """Raised when bounded enumeration would exceed its guard."""


def bounded_oracle(k: KripkeStructure, f: Formula, stem_max: int, loop_max: int,
                   max_lassos: int = 500_000) -> CheckResult:
    """Exhaustively enumerate every lasso within the given bounds and decide
    the formula by direct semantics on the induced words; it shares no code
    with the checker's automaton path.

    Returns VIOLATED with the first falsifying lasso, else BOUNDED-HOLDS.
    Distinct state lassos inducing the same valuation word are evaluated
    once.  Raises :class:`OracleBudgetError` past ``max_lassos``.
    """
    resolved, substituted = instantiate(f, k.atomic_props)
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
            return CheckResult(VIOLATED, witness, substituted)
    return CheckResult(BOUNDED_HOLDS, None, substituted)


# ---------------------------------------------------------------------------
# Brute-force shortest lasso over every product state
# ---------------------------------------------------------------------------

def brute_product(k: KripkeStructure, f: Formula):
    """The product of ``k`` with the negation automaton of ``f``, by brute
    force: the automaton, the edges ((state, automaton state), marks) out of
    a product state, and the marks every accepting cycle carries."""
    automaton = ltl_to_buchi(to_nnf(Not(instantiate(f, k.atomic_props)[0])))

    def edges(state):
        s, b = state
        letter = k.reads(k.label(s))
        return [((t, c.target), c.marks) for c in automaton.covers[b]
                if c.required <= letter and not c.forbidden & letter
                for t in k.successors[s]]

    return automaton, edges, (1 << automaton.mark_count) - 1


def brute_cycle(edges, e, full) -> int | None:
    """The length of the shortest cycle through product state e whose edges
    carry every mark, or None if there is none."""
    layer, seen, length = set(edges(e)), set(), 1
    while layer and (e, full) not in layer:
        seen |= layer
        layer = {(r, m | m2) for q, m in layer for r, m2 in edges(q)} - seen
        length += 1
    return length if layer else None


def shortest_lasso_length(k: KripkeStructure, f: Formula) -> int | None:
    """By brute force over every product state of ``k`` with the negation
    automaton of ``f``: the least, over reachable product states e, of e's
    breadth-first distance from a start state plus the length of the
    shortest cycle through e whose edges carry every mark; None if no
    reachable state lies on such a cycle."""
    _, edges, full = brute_product(k, f)
    distance = {(s, 0): 0 for s in k.initial}
    queue = deque(distance)
    while queue:
        p = queue.popleft()
        for q, _ in edges(p):
            if q not in distance:
                distance[q] = distance[p] + 1
                queue.append(q)
    lengths = [d + length for e, d in distance.items()
               if (length := brute_cycle(edges, e, full)) is not None]
    return min(lengths, default=None)

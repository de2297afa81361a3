"""Seeded input generators for the benchmark.

Everything here is plain Python with no import of the program under test:
machines are :class:`Machine` values, proposition maps and property files
are text.  Every generator takes a ``random.Random`` built
from the workload seed, so one seed always yields the same files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Propositions the shipped generic property library reads.  The synthetic
# proposition map declares all of them so that every library property is
# instantiated without constant-false substitution and some of them fire.
LIBRARY_PROPS = ("ACCESSOK", "AUTH", "CRIT", "DF", "EF", "INVKEYOK", "PRIV",
                 "PROT", "SREADOK", "SSELEFOK", "UACCESSOK", "UREADOK")
ERROR_OUTPUT = "ERR"
STATUS_CODES = tuple(f"R{j}" for j in range(6))


@dataclass(frozen=True)
class Machine:
    """Deterministic, input-complete Mealy machine; ``delta`` maps
    (state, input) to (next state, output)."""

    states: tuple[str, ...]
    inputs: tuple[str, ...]
    initial: str
    delta: dict[tuple[str, str], tuple[str, str]]

    def run(self, word) -> tuple[str, ...]:
        state, outputs = self.initial, []
        for symbol in word:
            state, out = self.delta[(state, symbol)]
            outputs.append(out)
        return tuple(outputs)


def _spanning_targets(rng: random.Random, n: int, k: int) -> dict[tuple[int, int], int]:
    """One incoming edge per non-initial state from an earlier state, so
    every state is reachable from state 0 (breadth-first numbering)."""
    fixed: dict[tuple[int, int], int] = {}
    for q in range(1, n):
        while True:
            src, sym = rng.randrange(q), rng.randrange(k)
            if (src, sym) not in fixed:
                fixed[(src, sym)] = q
                break
    return fixed


def protocol_machine(rng: random.Random, n: int, k: int, sessions: int) -> Machine:
    """Connected protocol-shaped machine with ``sessions`` independent
    sessions behind an idle state.

    In the idle state q0, input j < ``sessions`` opens session j; the other
    inputs answer the one generic error output.  Inside a session each
    state accepts exactly one input, answered with one of six status codes;
    every other input answers the generic error.  Every move
    stays inside the session, so only a reset leaves it.  The skewed
    outputs make many states look alike on short words, which costs the
    learner several counterexample rounds; the learner's cost is a sum
    over the sessions, so it varies less between machines than the cost of
    one unstructured machine would.
    """
    states = tuple(f"q{i}" for i in range(n))
    inputs = tuple(f"i{j}" for j in range(k))
    oks = STATUS_CODES
    size = (n - 1) // sessions
    delta = {(states[0], a): (states[0], ERROR_OUTPUT) for a in inputs}
    for j in range(sessions):
        first = 1 + j * size
        last = n if j == sessions - 1 else first + size
        delta[(states[0], inputs[j])] = (states[first], oks[j % len(oks)])
        fixed = _spanning_targets(rng, last - first, k)
        for q in range(first, last):
            accepted = rng.randrange(k)
            for a in range(k):
                target = first + fixed.get((q - first, a), rng.randrange(last - first))
                out = rng.choice(oks) if a == accepted else ERROR_OUTPUT
                delta[(states[q], inputs[a])] = (states[target], out)
    return Machine(states, inputs, states[0], delta)


def uniform_machine(rng: random.Random, n: int, k: int) -> Machine:
    """Connected machine with uniformly drawn targets and four outputs."""
    states = tuple(f"q{i}" for i in range(n))
    inputs = tuple(f"i{j}" for j in range(k))
    outs = tuple(f"o{j}" for j in range(4))
    fixed = _spanning_targets(rng, n, k)
    delta = {}
    for q in range(n):
        for a in range(k):
            target = fixed.get((q, a), rng.randrange(n))
            delta[(states[q], inputs[a])] = (states[target], rng.choice(outs))
    return Machine(states, inputs, states[0], delta)


def emit_dot(m: Machine) -> str:
    """Model file in the documented DOT format (plain identifiers only)."""
    lines = ["digraph model {", '  __start [shape=none, label=""];',
             f"  __start -> {m.initial};"]
    lines += [f"  {q};" for q in m.states]
    for q in m.states:
        for a in m.inputs:
            dst, out = m.delta[(q, a)]
            lines.append(f'  {q} -> {dst} [label="{a} / {out}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def synthetic_cpm(m: Machine, outputs: tuple[str, ...]) -> str:
    """Proposition map over the machine's own symbols that declares every
    library proposition.  Rules are assigned round-robin to the inputs and
    outputs, so the same map shape works for any alphabet size."""
    ins = m.inputs

    def i(n):
        return ins[n % len(ins)]

    def o(n):
        return outputs[n % len(outputs)]

    return "\n".join([
        "# synthetic proposition map",
        "[GAINS]",
        f"AUTH | {i(0)} | {o(0)}",
        f"DF, PROT | {i(1)} | *",
        f"EF | {i(2)} | {o(1)}",
        f"PRIV | {i(3)} | {o(0)}",
        f"CRIT | {i(4)} | {o(2)}",
        "[LOSES]",
        f"AUTH, PRIV | {i(5)}, {i(6)} | *",
        f"DF, PROT, EF | {i(7)} | *",
        f"CRIT | {i(8)}, {i(0)} | *",
        "[TAUS]",
        f"ACCESSOK, UACCESSOK | {i(9)} | {o(0)}",
        f"INVKEYOK | {i(10)} | *",
        f"UREADOK | {i(11)} | {o(1)}",
        f"SREADOK | {i(2)} | {o(2)}",
        f"SSELEFOK | {i(6)} | {o(0)}",
        "",
    ])


# ---------------------------------------------------------------------------
# Property files
# ---------------------------------------------------------------------------
#
# Propositional bodies are nested tuples: ("p", name), ("not", x),
# ("and", x, y), ("or", x, y).  The benchmark renders them as text for the
# program and evaluates them itself for the invariant verdicts.

def render(body) -> str:
    kind = body[0]
    if kind == "p":
        return body[1]
    if kind == "not":
        return f"!{render(body[1])}"
    op = " && " if kind == "and" else " || "
    return f"({render(body[1])}{op}{render(body[2])})"


def evaluate(body, valuation: frozenset[str]) -> bool:
    kind = body[0]
    if kind == "p":
        return body[1] in valuation
    if kind == "not":
        return not evaluate(body[1], valuation)
    if kind == "and":
        return evaluate(body[1], valuation) and evaluate(body[2], valuation)
    return evaluate(body[1], valuation) or evaluate(body[2], valuation)


def _literal(rng: random.Random):
    p = ("p", rng.choice(LIBRARY_PROPS))
    return ("not", p) if rng.random() < 0.5 else p


def _invariant_body(rng: random.Random):
    """Two- or three-literal clause: often true, occasionally violated."""
    body = ("or", _literal(rng), _literal(rng))
    if rng.random() < 0.5:
        body = ("or", body, _literal(rng))
    return body


@dataclass(frozen=True)
class PropertySet:
    text: str
    # name -> list of propositional bodies b_1..b_n of an invariant-shaped
    # property G(b_1) && ... && G(b_n); temporal properties are absent
    invariants: dict[str, tuple]


def property_file(rng: random.Random, temporal: int, conjunctions: int,
                  conjuncts: int) -> PropertySet:
    """``temporal`` response/precedence/next/until properties plus
    ``conjunctions`` conjunctions of ``conjuncts`` invariants each."""

    def p():
        return rng.choice(LIBRARY_PROPS)

    patterns = (
        lambda: f"G({p()} -> F {p()})",
        lambda: f"(!{p()} U {p()}) || G(!{p()})",
        lambda: f"G({p()} -> X !{p()})",
        lambda: f"G({p()} -> ({p()} U {p()}))",
        lambda: f"G(!{p()}) || F({p()} && X {p()})",
        lambda: f"G(F {p()}) -> G(F {p()})",
    )
    lines = ["# synthetic property file"]
    invariants = {}
    for n in range(temporal):
        lines.append(f"t{n:03d}: {patterns[n % len(patterns)]()}")
    for n in range(conjunctions):
        bodies = tuple(_invariant_body(rng) for _ in range(conjuncts))
        invariants[f"inv{n:02d}"] = bodies
        lines.append(f"inv{n:02d}: " + " && ".join(f"G{render(b)}" for b in bodies))
    return PropertySet("\n".join(lines) + "\n", invariants)

"""Hidden systems behind the program's ``module:factory`` plug-in path.

The program learns and replays against ``systems:hidden``.  The factory
protocol passes no arguments, so the benchmark selects the machine for the
next operation with :func:`select` and reads the cost the system saw from
:data:`COUNTER`.  Resets and symbols are counted at this boundary, which
covers membership queries, equivalence-oracle walks and test replays alike.
"""

from __future__ import annotations

from time import perf_counter_ns

from protocheck.automata import MealyMachine
from protocheck.learning import SulInterface

from generators import Machine
from tracer import SUL_SPAN


class Counter:
    def __init__(self):
        self.resets = 0
        self.symbols = 0


COUNTER = Counter()
# Set by the traced run: a tracer whose ``leaf`` records each query.
TRACER = None
_selected: tuple[Machine, MealyMachine] | None = None


def select(machine: Machine):
    """Make ``machine`` the system the next ``systems:hidden`` call builds."""
    global _selected
    outputs = tuple(sorted({out for _, out in machine.delta.values()}))
    _selected = (machine, MealyMachine(machine.states, machine.inputs, outputs,
                                       machine.initial, dict(machine.delta)))


class HiddenSystem(SulInterface):
    """Black box over a benchmark machine; the program sees only
    reset/step/query and the input alphabet."""

    def __init__(self, machine: Machine):
        self.delta = machine.delta
        self.initial = machine.initial
        self.state = machine.initial

    def reset(self):
        COUNTER.resets += 1
        self.state = self.initial

    def step(self, symbol: str) -> str:
        COUNTER.symbols += 1
        self.state, out = self.delta[(self.state, symbol)]
        return out

    def query(self, word):
        start = perf_counter_ns() if TRACER is not None else 0
        COUNTER.resets += 1
        COUNTER.symbols += len(word)
        delta, state, outputs = self.delta, self.initial, []
        for symbol in word:
            state, out = delta[(state, symbol)]
            outputs.append(out)
        self.state = state
        if TRACER is not None:
            TRACER.leaf(SUL_SPAN, start, perf_counter_ns(), len(word))
        return tuple(outputs)


def hidden():
    """Factory named in the benchmark's configs: (system, machine)."""
    if _selected is None:
        raise RuntimeError("no hidden machine selected")
    machine, mealy = _selected
    return HiddenSystem(machine), mealy

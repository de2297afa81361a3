"""Turning model-checking witnesses into replayable tests.

A violation lasso over the Kripke view maps back to the input word that
drives the machine along it (internal split states contribute their
originating input once, empty-input bridges contribute nothing).  Replaying
the word against a live system either confirms the violation or yields a
divergence, which feeds back into the learner as a counterexample.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .automata import EPSILON, TAU, Word
from .cpm import AnnotatedMachine
from .ltl import KripkeStructure, Lasso
from .learning import SulInterface


class TestKitError(RuntimeError):
    """Raised for irreproducible witnesses and contract misuse."""

    __test__ = False  # not a pytest collectable despite the name


@dataclass(frozen=True)
class TestCase:
    __test__ = False  # not a pytest collectable despite the name

    inputs: Word
    expected: Word
    property_name: str
    stem: tuple[str, ...]
    loop: tuple[str, ...]
    unroll: int = 1

    def __post_init__(self):
        if len(self.inputs) != len(self.expected):
            raise TestKitError("inputs and expected outputs must have equal length")


def concretize(lasso: Lasso, k: KripkeStructure, a: AnnotatedMachine,
               property_name: str = "", unroll: int = 1) -> TestCase:
    """Input/output word driving the machine along the witness path, with
    the loop repeated ``unroll`` times."""
    if unroll < 1:
        raise TestKitError("unroll must be at least 1")
    known = k.index.number
    for state in lasso.states():
        if state not in known:
            raise TestKitError(f"witness state {state!r} is not a state of the structure")
    m = a.machine
    path = list(lasso.stem) + list(lasso.loop) * unroll
    inputs: list[str] = []
    expected: list[str] = []
    for x, y in zip(path, path[1:]):
        if x in a.tau_states:
            # the bridge out of an internal state: its input was taken on the way in
            if m.transitions.get((x, EPSILON), (None,))[0] != y:
                raise TestKitError(f"no transition reproduces witness step {x!r} -> {y!r}")
            continue
        for sym in m.inputs:
            dst, out = m.transitions.get((x, sym), (None, None))
            if dst == y:
                inputs.append(sym)
                if out == TAU:  # into an internal state: the output is its bridge's
                    out = m.transitions.get((y, EPSILON), (y, out))[1]
                expected.append(out)
                break
        else:
            # the Kripke view's self-loop on a dead end: staying there takes no input
            if x != y or any((x, sym) in m.transitions for sym in (*m.inputs, EPSILON)):
                raise TestKitError(f"no transition reproduces witness step {x!r} -> {y!r}")
    return TestCase(tuple(inputs), tuple(expected), property_name,
                    lasso.stem, lasso.loop, unroll)


CONFIRMED = "CONFIRMED"
DIVERGED = "DIVERGED"


@dataclass(frozen=True)
class ReplayResult:
    verdict: str
    observed: Word
    first_divergence: int | None = None
    failure: str | None = None

    @property
    def confirmed(self) -> bool:
        return self.verdict == CONFIRMED


def replay(test: TestCase, sul: SulInterface) -> ReplayResult:
    """Drive the system with the test word: CONFIRMED when every output
    matches the expectation, DIVERGED with the full observed word otherwise."""
    sul.reset()
    observed: list[str] = []
    for position, symbol in enumerate(test.inputs):
        try:
            observed.append(sul.step(symbol))
        except Exception as exc:  # noqa: BLE001 - surfaced with position
            return ReplayResult(DIVERGED, tuple(observed), position,
                                f"system failure at position {position}: {exc}")
    divergence = next(
        (i for i, (got, want) in enumerate(zip(observed, test.expected)) if got != want),
        None,
    )
    if divergence is None:
        return ReplayResult(CONFIRMED, tuple(observed))
    return ReplayResult(DIVERGED, tuple(observed), divergence)


def feedback(result: ReplayResult, test: TestCase) -> Word:
    """Package a divergence as an equivalence counterexample: the input
    prefix up to and including the first diverging position."""
    if result.confirmed:
        raise TestKitError("feedback requires a diverged replay")
    position = result.first_divergence
    if position is None:
        position = len(result.observed)
    return test.inputs[:position + 1]


# ---------------------------------------------------------------------------
# Test-case files (JSON lines)
# ---------------------------------------------------------------------------

def to_record(test: TestCase) -> dict:
    """The JSON object of one test case, as written to test-case files and
    embedded in check reports."""
    return {
        "property": test.property_name,
        "inputs": list(test.inputs),
        "expected": list(test.expected),
        "provenance": {
            "stem": list(test.stem),
            "loop": list(test.loop),
            "unroll": test.unroll,
        },
    }


def from_record(data: dict) -> TestCase:
    for key in ("inputs", "expected"):
        if not isinstance(data, dict) or not isinstance(data.get(key), list):
            raise TestKitError(f'test record has no list "{key}"')
    prov = data.get("provenance", {})
    if not isinstance(prov, dict):
        raise TestKitError('test record "provenance" is not an object')
    return TestCase(
        inputs=tuple(data["inputs"]),
        expected=tuple(data["expected"]),
        property_name=data.get("property", ""),
        stem=tuple(prov.get("stem", ())),
        loop=tuple(prov.get("loop", ())),
        unroll=prov.get("unroll", 1),
    )


def tests_jsonl(tests) -> str:
    """The text of a test-case file: one record per line."""
    return "".join(json.dumps(to_record(test), sort_keys=True) + "\n" for test in tests)


def read_tests(path) -> list[TestCase]:
    out = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if line.strip():
                try:
                    out.append(from_record(json.loads(line)))
                except (ValueError, TestKitError) as exc:
                    raise TestKitError(f"line {lineno}: {exc}") from None
    return out

"""Abstraction mapper between a raw system and the learner.

A total abstract-to-concrete input translation plus a partial inverse for
declared classes of nondeterministic concrete outputs (nonces, counters),
and a demo system that answers with fresh nonces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cpm import matches
from .learning import SulInterface, SulNondeterminismError


@dataclass(frozen=True)
class Mapper:
    """Total abstract-to-concrete input translation plus a partial inverse
    for the declared class of nondeterministic concrete outputs; everything
    else passes through unchanged."""

    input_map: dict[str, str] = field(default_factory=dict)
    # (glob patterns over concrete outputs, canonical abstract symbol)
    output_classes: tuple[tuple[tuple[str, ...], str], ...] = ()

    def concrete_input(self, symbol: str) -> str:
        return self.input_map.get(symbol, symbol)

    def abstract_output(self, concrete: str) -> str:
        for patterns, canonical in self.output_classes:
            if matches(patterns, concrete):
                return canonical
        return concrete


class MappedSul(SulInterface):
    """Mapper-wrapped system; deterministic as long as every varying
    concrete output falls into a declared class.  Undeclared variation is
    reported with the offending input and both observed values."""

    def __init__(self, raw: SulInterface, mapper: Mapper):
        self.raw = raw
        self.mapper = mapper
        self.history: tuple[str, ...] = ()
        self.observed: dict[tuple[str, ...], str] = {}

    def reset(self):
        self.raw.reset()
        self.history = ()

    def step(self, symbol: str) -> str:
        concrete = self.raw.step(self.mapper.concrete_input(symbol))
        abstract = self.mapper.abstract_output(concrete)
        self.history += (symbol,)
        known = self.observed.get(self.history)
        if known is not None and known != abstract:
            raise SulNondeterminismError(
                f"output after {list(self.history)} changed from {known!r} to "
                f"{abstract!r} (concrete {concrete!r}); declare it as a "
                "nondeterministic output class")
        self.observed[self.history] = abstract
        return abstract


def canonicalize_nonce_mapper() -> Mapper:
    """Demo mapper folding challenge nonces into one canonical symbol."""
    return Mapper(output_classes=((("CHAL_*",), "NONCE"),))


class FreshNonceSul(SulInterface):
    """Raw demo system that answers a challenge request with a fresh nonce
    every time and echoes a fixed status otherwise."""

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

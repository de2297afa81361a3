"""Abstraction mapper between a raw system and the learner.

A total abstract-to-concrete input translation plus a partial inverse for
declared classes of nondeterministic concrete outputs (nonces, counters).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cpm import matches
from .learning import SulInterface


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
    """Mapper-wrapped system that only translates: each input is mapped to
    its concrete form and each output abstracted.  A varying concrete
    output outside every declared class changes the answer to a word the
    learner already holds, which its observation tree reports."""

    def __init__(self, raw: SulInterface, mapper: Mapper):
        self.raw = raw
        self.mapper = mapper

    def reset(self):
        self.raw.reset()

    def step(self, symbol: str) -> str:
        return self.mapper.abstract_output(self.raw.step(self.mapper.concrete_input(symbol)))

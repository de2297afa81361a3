"""Active learning of Mealy machines from black-box systems.

Observation-table learning (close, hypothesize, refine each counterexample
by the one distinguishing suffix a binary search finds in it, after Rivest
and Schapire) against a system-under-learning interface, with an exact
oracle for simulation and a random-walk conformance oracle for the
black-box setting.  Includes the abstraction mapper that canonicalizes
nondeterministic concrete outputs (nonces, counters) and two simulated
systems reconstructed for the case studies: a travel-document chip
speaking smartcard selects/reads behind a basic authentication step, and
an automotive diagnostic unit with sessions and a two-step security access
that wrongly accepts bad keys once unlocked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .automata import MealyMachine, Word, bisimilar
from .cpm import matches


class LearnError(RuntimeError):
    """Raised on interface misuse or stalled refinement."""


class SulNondeterminismError(LearnError):
    """Raised when identical queries produce different answers."""


# ---------------------------------------------------------------------------
# System-under-learning interface
# ---------------------------------------------------------------------------

class SulInterface:
    """Behavioral contract: reset() returns the system to its initial state,
    step(symbol) feeds one input and returns one output.  query() is the
    derived whole-word form."""

    def reset(self):
        raise NotImplementedError

    def step(self, symbol: str) -> str:
        raise NotImplementedError

    def query(self, word: Word) -> Word:
        self.reset()
        return tuple(self.step(symbol) for symbol in word)


class MachineSul(SulInterface):
    """Simulates a hidden machine behind the interface."""

    def __init__(self, machine: MealyMachine):
        self.machine = machine
        self.state = machine.initial

    def reset(self):
        self.state = self.machine.initial

    def step(self, symbol: str) -> str:
        self.state, output = self.machine.transitions[(self.state, symbol)]
        return output


class _CachingSul(SulInterface):
    """Query cache that also stores every prefix of each answered word, so
    the learner never pays twice for a word covered by a longer one."""

    def __init__(self, sul: SulInterface):
        self.sul = sul
        self.cache: dict[Word, Word] = {(): ()}
        self.queries = 0

    def query(self, word: Word) -> Word:
        hit = self.cache.get(word)
        if hit is not None:
            return hit
        outputs = self.sul.query(word)
        if len(outputs) != len(word):
            raise LearnError(f"system returned {len(outputs)} outputs for {len(word)} inputs")
        self.queries += 1
        for i in range(1, len(word) + 1):
            prefix = word[:i]
            known = self.cache.get(prefix)
            if known is not None and known != outputs[:i]:
                raise SulNondeterminismError(
                    f"system answered {known} then {outputs[:i]} for {prefix}")
            self.cache[prefix] = outputs[:i]
        return outputs


# ---------------------------------------------------------------------------
# Observation table
# ---------------------------------------------------------------------------

@dataclass
class ObservationTable:
    """Prefix rows (short S plus extensions S*A) against suffix columns E;
    a row holds, in column order, the output word each suffix provokes
    after its prefix.

    Rows are only added by closing and columns only by counterexample
    processing, so the short rows stay pairwise distinct: each is the
    access sequence of its own hypothesis state.  A row only grows at its
    end, so filling the table asks only for the cells of new rows and new
    columns, in row-then-column order."""

    alphabet: tuple[str, ...]
    prefixes: list[Word] = field(default_factory=list)
    suffixes: list[Word] = field(default_factory=list)
    rows: dict[Word, list[Word]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.prefixes:
            self.prefixes = [()]
        if not self.suffixes:
            self.suffixes = [(a,) for a in self.alphabet]

    def all_rows(self):
        short = set(self.prefixes)
        return self.prefixes + [s + (a,) for s in self.prefixes for a in self.alphabet
                                if s + (a,) not in short]

    def _fill_row(self, prefix: Word, sul: _CachingSul):
        """Append the cells of the columns ``prefix``'s row lacks."""
        row = self.rows.setdefault(prefix, [])
        for suffix in self.suffixes[len(row):]:
            row.append(sul.query(prefix + suffix)[len(prefix):])

    def fill(self, sul: _CachingSul):
        for prefix in self.all_rows():
            self._fill_row(prefix, sul)

    def close(self, sul: _CachingSul) -> MealyMachine:
        """Fill the table, promote unclosed rows until none is left, and
        return the hypothesis.

        One pass over the extension rows in (short row, input) order checks
        each against an index of the short rows' signatures.  A row found
        unclosed becomes a short row on the spot: its signature joins the
        index and its own extensions are filled and appended to the pass,
        so a row is looked at once however many rows are promoted."""
        self.fill(sul)
        index = {tuple(self.rows[s]): i for i, s in enumerate(self.prefixes)}
        successors = []
        for s in self.prefixes:  # grows while it is walked
            for a in self.alphabet:
                extended = s + (a,)
                signature = tuple(self.rows[extended])
                target = index.get(signature)
                if target is None:
                    target = index[signature] = len(self.prefixes)
                    self.prefixes.append(extended)
                    for b in self.alphabet:
                        self._fill_row(extended + (b,), sul)
                successors.append(target)
        return self.hypothesis(successors)

    def hypothesis(self, successors: list[int]) -> MealyMachine:
        """One state per short row, named ``s<i>`` after its index in
        ``prefixes``; ``successors`` holds the index of the short row each
        extension row matches, in (short row, input) order."""
        names = tuple(f"s{i}" for i in range(len(self.prefixes)))
        columns = [self.suffixes.index((a,)) for a in self.alphabet]
        targets = iter(successors)
        transitions = {}
        outputs: list[str] = []
        for name, s in zip(names, self.prefixes):
            row = self.rows[s]
            for a, column in zip(self.alphabet, columns):
                output = row[column][0]
                transitions[(name, a)] = (names[next(targets)], output)
                if output not in outputs:
                    outputs.append(output)
        return MealyMachine(names, self.alphabet, tuple(outputs), "s0", transitions)


def _refine(table: ObservationTable, sul: _CachingSul,
            hypothesis: MealyMachine, word: Word) -> MealyMachine:
    """Rivest-Schapire counterexample processing, in the Mealy form of
    Shahbaz and Groz.  While the hypothesis answers ``word`` wrongly, split
    it at ``i``: feed the system the access sequence of the state the
    hypothesis reaches after ``word[:i]``, then ``word[i:]``, and compare
    its outputs on ``word[i:]`` with the hypothesis's.  At ``i = 0`` they
    differ (that is ``word`` itself); at ``len(word)`` nothing is compared.
    A binary search finds an ``i`` where they differ with ``i + 1`` where
    they agree, and ``word[i + 1:]`` becomes one new column.  It splits the
    access sequence of ``word[:i]`` extended by ``word[i]`` from every short
    row, so closing the table adds a state."""
    while sul.query(word) != (predicted := hypothesis.run(word)):
        access = dict(zip(hypothesis.states, table.prefixes))
        states = [hypothesis.initial]
        for symbol in word:
            states.append(hypothesis.step(states[-1], symbol)[0])
        wrong, right = 0, len(word)
        while right - wrong > 1:
            mid = (wrong + right) // 2
            u = access[states[mid]]
            if sul.query(u + word[mid:])[len(u):] == predicted[mid:]:
                right = mid
            else:
                wrong = mid
        table.suffixes.append(word[right:])
        hypothesis = table.close(sul)
    return hypothesis


# ---------------------------------------------------------------------------
# Learner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LearnResult:
    machine: MealyMachine
    rounds: int
    membership_queries: int
    equivalence_queries: int
    proven: bool
    table_size: tuple[int, int]


def lstar_learn(sul: SulInterface, alphabet, equivalence,
                max_rounds: int = 100,
                initial_counterexamples=()) -> LearnResult:
    """Observation-table learning loop.

    ``equivalence`` maps a hypothesis to a counterexample word or None; a
    None answer accepts the hypothesis.  Each counterexample adds the one
    suffix a binary search finds in it as a new column and is reused until
    the hypothesis answers it correctly; a counterexample the hypothesis
    already answers correctly is an error.  ``initial_counterexamples``
    (e.g. diverging words fed back from test replays) are processed the
    same way against the first hypothesis, which may already answer some
    of them correctly.  One round is one equivalence query.  Returns the
    last hypothesis the oracle was asked about, flagged unproven when the
    round budget runs out.
    """
    if max_rounds < 1:
        raise LearnError(f"max_rounds must be at least 1, got {max_rounds}")
    cached = _CachingSul(sul)
    table = ObservationTable(tuple(alphabet))
    hypothesis = table.close(cached)
    for word in initial_counterexamples:
        hypothesis = _refine(table, cached, hypothesis, tuple(word))
    for round_no in range(1, max_rounds + 1):
        counterexample = equivalence(hypothesis)
        if counterexample is None or round_no == max_rounds:
            break
        refined = _refine(table, cached, hypothesis, tuple(counterexample))
        if refined is hypothesis:
            raise LearnError(
                f"counterexample {counterexample} produced no table growth")
        hypothesis = refined
    return LearnResult(hypothesis, round_no, cached.queries, round_no,
                       counterexample is None,
                       (len(table.prefixes), len(table.suffixes)))


def exact_oracle(hidden: MealyMachine, hypothesis: MealyMachine) -> Word | None:
    """Simulation-mode ground truth: equivalence check against the hidden
    machine, returning its distinguishing word as the counterexample."""
    result = bisimilar(hidden, hypothesis)
    return None if result.equivalent else result.witness


def random_walk_oracle(sul: SulInterface, hypothesis: MealyMachine,
                       min_len: int, max_len: int, num_tests: int,
                       seed: int | str) -> Word | None:
    """Conformance testing by seeded random walks.

    Draws ``num_tests`` uniform random words with lengths uniform in
    [min_len, max_len]; the first word on which the system and the
    hypothesis disagree is returned, trimmed to the first divergence.
    The same seed draws the same words, so a caller that asks several
    rounds passes a different seed each round.
    """
    if not (1 <= min_len <= max_len):
        raise LearnError("walk lengths must satisfy 1 <= min <= max")
    rng = random.Random(seed)
    alphabet = hypothesis.inputs
    for _ in range(num_tests):
        length = rng.randint(min_len, max_len)
        word = tuple(rng.choice(alphabet) for _ in range(length))
        actual = sul.query(word)
        predicted = hypothesis.run(word)
        for i, (a, p) in enumerate(zip(actual, predicted)):
            if a != p:
                return word[:i + 1]
    return None


# ---------------------------------------------------------------------------
# Abstraction mapper
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Case-study fixture: travel-document chip
# ---------------------------------------------------------------------------
#
# Six states: 0 nothing selected, 1 application selected (no authentication),
# 2 authenticated, 3 master-level file selected (plain-readable), 4 secure
# context with a data group selected, 5 secure context lost.  Transition
# provenance: LISTING rows are fixed by generated-code excerpts of the
# original system, TABLE rows are forced by the shipped proposition map and
# the expected verdicts, SYNTH rows complete the machine consistently.

_EMRTD_EF_TARGETS = ("CM", "CS_SOD", "ATR", "DIR") + tuple(f"DG{i}" for i in range(1, 17))

EMRTD_INPUTS = (
    ("EF_CA_CVCA",)
    + ("DF",)
    + tuple(f"EF_{t}" for t in _EMRTD_EF_TARGETS)      # indices 2..21
    + ("RD_BIN", "UPD_BIN", "SRD_BIN", "SUPD_BIN", "WSRD_BIN", "OSRD_BIN")
    + ("BAC",)                                          # index 28
    + ("SSEL_EF_CM", "SSEL_EF_DG2", "SSEL_EF_DG3")
    + ("SSEL_EF_DG1",)                                  # index 32
    + ("WSSEL_EF_DG1", "OSSEL_EF_DG1")
)

# files that exist at master level / inside the application
_MF_LEVEL = {"EF_CA_CVCA", "EF_CS_SOD", "EF_ATR", "EF_DIR"}
_APP_LEVEL = {"EF_CA_CVCA", "EF_CM", "EF_CS_SOD"} | {f"EF_DG{i}" for i in range(1, 17)}
_LOCKED = {"EF_DG2", "EF_DG3"}  # biometric groups: never selectable here


def build_emrtd_machine() -> tuple[MealyMachine, dict[tuple[str, str], str]]:
    states = tuple(str(i) for i in range(6))
    t: dict[tuple[str, str], tuple[str, str]] = {}
    tag: dict[tuple[str, str], str] = {}

    def put(state: int, symbol: str, target: int, output: str, provenance: str):
        t[(str(state), symbol)] = (str(target), output)
        tag[(str(state), symbol)] = provenance

    for q in range(6):
        put(q, "DF", 1, "9000", "LISTING")
    for q, (target, output) in enumerate([(0, "6985"), (2, "9000"), (2, "9000"),
                                          (3, "6985"), (4, "9000"), (4, "9000")]):
        put(q, "BAC", target, output, "LISTING")
    for q, (target, output) in enumerate([(0, "6986"), (1, "6986"), (1, "6986"),
                                          (3, "9000"), (5, "6982"), (5, "6982")]):
        put(q, "RD_BIN", target, output, "LISTING")
    for q, (target, output) in enumerate([(0, "6988"), (1, "6988"), (4, "9000"),
                                          (3, "6988"), (4, "9000"), (5, "6988")]):
        put(q, "SSEL_EF_DG1", target, output, "LISTING")

    for symbol in EMRTD_INPUTS:
        if not symbol.startswith("EF_"):
            continue
        mf, app, locked = symbol in _MF_LEVEL, symbol in _APP_LEVEL, symbol in _LOCKED
        prov = "TABLE" if locked else "SYNTH"
        # master level: states 0 and 3
        for q in (0, 3):
            if mf:
                put(q, symbol, 3, "9000", prov)
            else:
                put(q, symbol, q, "6a82", prov)
        # inside the application, not authenticated: plain select of an
        # existing, unlocked file succeeds (selection is free; reading is not)
        for q in (1, 5):
            if locked or not app:
                put(q, symbol, q, "6982" if locked else "6a82", prov)
            else:
                put(q, symbol, q, "9000", prov)
        # authenticated: a plain command violates secure messaging and ends
        # the session (matches the lose rule on plain commands with errors)
        put(2, symbol, 1, "6982", prov)
        put(4, symbol, 5, "6982", prov)

    for q, (target, output) in enumerate([(0, "6986"), (1, "6986"), (1, "6986"),
                                          (3, "6985"), (5, "6982"), (5, "6982")]):
        put(q, "UPD_BIN", target, output, "SYNTH")
    for q, (target, output) in enumerate([(0, "6982"), (1, "6988"), (1, "6986"),
                                          (3, "6982"), (4, "9000"), (5, "6988")]):
        put(q, "SRD_BIN", target, output, "SYNTH")
    for q, (target, output) in enumerate([(0, "6982"), (1, "6988"), (1, "6986"),
                                          (3, "6982"), (5, "6985"), (5, "6988")]):
        put(q, "SUPD_BIN", target, output, "SYNTH")
    for symbol in ("WSRD_BIN", "OSRD_BIN"):
        for q, (target, output) in enumerate([(0, "6982"), (1, "6988"), (1, "6988"),
                                              (3, "6982"), (5, "6988"), (5, "6988")]):
            put(q, symbol, target, output, "TABLE")
    for symbol in ("SSEL_EF_CM",):
        for q, (target, output) in enumerate([(0, "6988"), (1, "6988"), (4, "9000"),
                                              (3, "6988"), (4, "9000"), (5, "6988")]):
            put(q, symbol, target, output, "SYNTH")
    for symbol in ("SSEL_EF_DG2", "SSEL_EF_DG3", "WSSEL_EF_DG1", "OSSEL_EF_DG1"):
        for q in range(6):
            put(q, symbol, q, "6988", "TABLE")

    outputs = []
    for (_, out) in t.values():
        if out not in outputs:
            outputs.append(out)
    machine = MealyMachine(states, EMRTD_INPUTS, tuple(outputs), "0", t)
    return machine, tag


def build_emrtd_sul() -> tuple[SulInterface, MealyMachine]:
    machine, _ = build_emrtd_machine()
    return MachineSul(machine), machine


# ---------------------------------------------------------------------------
# Case-study fixture: automotive diagnostic unit
# ---------------------------------------------------------------------------
#
# Seven states: s0 default session, s1 extended session, s2 programming
# session, s3/s6 seed requested in extended/programming, s4/s5 unlocked in
# extended/programming.  The planted flaw: the unlocked extended state s4
# acknowledges a wrong key with the positive security-access response.

UDS_INPUTS = (
    "Default", "Programming", "Extended", "SA", "SAWithKey", "SAwWrongKey",
    "TesterPresent", "ReadF100", "ReadF150", "ReadF180",
    "RequestDownload", "TransferData", "TransferExit", "CheckASWBit",
)


def build_uds_machine(reject_wrong_key: bool = False
                      ) -> tuple[MealyMachine, dict[tuple[str, str], str]]:
    states = tuple(f"s{i}" for i in range(7))
    t: dict[tuple[str, str], tuple[str, str]] = {}
    tag: dict[tuple[str, str], str] = {}

    def put(state: int, symbol: str, target: int, output: str, provenance: str):
        t[(f"s{state}", symbol)] = (f"s{target}", output)
        tag[(f"s{state}", symbol)] = provenance

    def rows(symbol, entries, provenance):
        for q, (target, output) in enumerate(entries):
            put(q, symbol, target, output, provenance)

    # session control: refused while unlocked so the security level is
    # never silently dropped (the shipped map has no rule that would clear
    # the authentication proposition on a successful session change)
    rows("Default", [(0, "5001"), (0, "5001"), (0, "5001"), (0, "5001"),
                     (4, "7f"), (5, "7f"), (0, "5001")], "TABLE")
    rows("Programming", [(2, "5002"), (2, "5002"), (2, "5002"), (2, "5002"),
                         (4, "7f"), (5, "7f"), (2, "5002")], "TABLE")
    rows("Extended", [(1, "5003"), (1, "5003"), (1, "5003"), (1, "5003"),
                      (4, "7f"), (5, "7f"), (1, "5003")], "TABLE")
    rows("SA", [(0, "7f"), (3, "67"), (6, "67"), (3, "67"),
                (4, "67"), (5, "67"), (6, "67")], "SYNTH")
    rows("SAWithKey", [(0, "7f"), (1, "7f"), (2, "7f"), (4, "67"),
                       (4, "7f"), (5, "7f"), (5, "67")], "TABLE")
    wrong_in_s4 = (4, "7f") if reject_wrong_key else (4, "67")
    rows("SAwWrongKey", [(0, "7f"), (1, "7f"), (2, "7f"), (1, "7f"),
                         wrong_in_s4, (5, "7f"), (2, "7f")], "TABLE")
    rows("TesterPresent", [(q, "7e") for q in range(7)], "SYNTH")
    rows("ReadF100", [(q, "62") for q in range(7)], "SYNTH")
    rows("ReadF150", [(0, "7f"), (1, "62"), (2, "7f"), (3, "62"),
                      (4, "62"), (5, "7f"), (6, "7f")], "SYNTH")
    rows("ReadF180", [(0, "7f"), (1, "7f"), (2, "7f"), (3, "7f"),
                      (4, "62"), (5, "62"), (6, "7f")], "SYNTH")
    rows("RequestDownload", [(0, "7f"), (1, "7f"), (2, "7f"), (3, "7f"),
                             (4, "7f"), (5, "74"), (6, "7f")], "TABLE")
    rows("TransferData", [(q, "7f") for q in range(7)], "SYNTH")
    rows("TransferExit", [(q, "7f") for q in range(7)], "SYNTH")
    rows("CheckASWBit", [(0, "7f"), (1, "7f"), (2, "7f"), (3, "7f"),
                         (4, "71"), (5, "71"), (6, "7f")], "TABLE")

    outputs = []
    for (_, out) in t.values():
        if out not in outputs:
            outputs.append(out)
    machine = MealyMachine(states, UDS_INPUTS, tuple(outputs), "s0", t)
    return machine, tag


def build_uds_sul(reject_wrong_key: bool = False) -> tuple[SulInterface, MealyMachine]:
    machine, _ = build_uds_machine(reject_wrong_key)
    return MachineSul(machine), machine


FIXTURE_SULS = {
    "emrtd": build_emrtd_sul,
    "uds": build_uds_sul,
}

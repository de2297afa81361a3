"""Active learning of Mealy machines from black-box systems.

L# (learning by apartness) on one observation tree that holds every
answered word, with Rivest-Schapire counterexample processing on the tree,
against a system-under-learning interface; an exact oracle for simulation
and a random-walk conformance oracle for the black-box setting.  Includes
two simulated systems reconstructed for the case studies: a travel-document
chip speaking smartcard selects/reads behind a basic authentication step,
and an automotive diagnostic unit with sessions and a two-step security
access that wrongly accepts bad keys once unlocked.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .automata import MealyMachine, Word, bisimilar


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


# ---------------------------------------------------------------------------
# Observation tree
# ---------------------------------------------------------------------------

class ObservationTree:
    """Every word the system answered, as a tree: node 0 is the empty word
    and ``edges[n][a]`` is node ``n``'s (child, output) pair on input ``a``.
    It asks the system only what it cannot answer itself and checks every
    answer against what it holds: the one nondeterminism check."""

    def __init__(self, sul: SulInterface):
        self.sul = sul
        self.edges: list[dict[str, tuple[int, str]]] = [{}]
        self.parents: list[tuple[int, str]] = [(0, "")]
        self.queries = 0

    def access(self, node: int, root: int = 0) -> Word:
        """The word from ``root``, an ancestor of ``node``, down to it."""
        word = []
        while node != root:
            node, symbol = self.parents[node]
            word.append(symbol)
        return tuple(reversed(word))

    def query(self, word: Word, node: int = 0) -> Word:
        """The outputs ``word`` provokes after ``node``."""
        outputs, start = [], node
        for symbol in word:
            step = self.edges[node].get(symbol)
            if step is None:
                return self._ask(self.access(start), tuple(word))
            node, output = step
            outputs.append(output)
        return tuple(outputs)

    def _ask(self, prefix: Word, word: Word) -> Word:
        full = prefix + word
        answer = tuple(self.sul.query(full))
        if len(answer) != len(full):
            raise LearnError(f"system returned {len(answer)} outputs for {len(full)} inputs")
        self.queries += 1
        edges, node = self.edges, 0
        for i, (symbol, output) in enumerate(zip(full, answer)):
            step = edges[node].get(symbol)
            if step is None:
                step = edges[node][symbol] = (len(edges), output)
                edges.append({})
                self.parents.append((node, symbol))
            elif step[1] != output:
                raise SulNondeterminismError(
                    f"system answered {list(answer)} to {list(full)}, but "
                    f"{step[1]!r} earlier to its prefix {list(full[:i + 1])}")
            node = step[0]
        return answer[len(prefix):]

    def apart(self, p: int, q: int) -> Word | None:
        """The shortest word both nodes know whose last outputs differ: the
        path from ``p`` down to the first child that differs."""
        pairs, root = [(p, q)], p
        for p, q in pairs:  # grows while it is walked: breadth first
            known = self.edges[q]
            for symbol, (child, output) in self.edges[p].items():
                if (step := known.get(symbol)) is not None:
                    if step[1] != output:
                        return self.access(child, root)
                    pairs.append((child, step[0]))
        return None


# ---------------------------------------------------------------------------
# L# (Vaandrager, Garhewal, Rot and Wissmann, TACAS 2022) on the tree
# ---------------------------------------------------------------------------

class _Split(NamedTuple):
    """Splitting-tree node: the basis states below it answer ``witness``
    differently; one child, a split or a basis node, per answer."""

    witness: Word
    children: dict


class _LSharp:
    """The basis holds pairwise apart tree nodes, one per hypothesis state;
    the frontier holds their one-input extensions outside the basis.  A
    frontier node is sifted down the splitting tree, asking the system only
    for answers the tree lacks, and is identified with the basis state at
    its leaf unless the tree shows the two apart.  A frontier node apart
    from every basis state is promoted: its answer opens a new leaf, or its
    apartness witness splits the leaf it reached, and only that leaf's
    frontier nodes are sifted again.  The root asks the first input, so
    each extension query also asks the first sifting question.

    ``transitions`` is the hypothesis, kept across rounds: a promotion
    points its parent's transition at the new state, and identifying a
    frontier node points its parent's at that basis state.  A split leaf's
    frontier nodes keep their old transitions only until ``_settle`` sifts
    them again, before ``refine`` returns."""

    def __init__(self, tree: ObservationTree, alphabet: tuple[str, ...]):
        self.tree, self.alphabet = tree, alphabet
        self.root = _Split(alphabet[:1], {})
        self.basis: list[int] = []
        self.home: dict[int, int] = {}          # frontier node -> basis node
        self.members: dict[int, list[int]] = {}  # basis node -> frontier nodes
        self.place: dict[int, tuple[_Split, Word]] = {}
        self.todo: deque[tuple[int, _Split]] = deque()
        # (basis node, input) -> (basis node, output)
        self.transitions: dict[tuple[int, str], tuple[int, str]] = {}
        self._leaf(self.root, tree.query(self.root.witness), 0)
        self._settle()

    def _leaf(self, split: _Split, answer: Word, node: int):
        """Promote ``node`` to a basis state below ``split``; queue its
        extensions."""
        split.children[answer] = node
        self.place[node] = (split, answer)
        self.basis.append(node)
        self.members[node] = []
        if node:
            self._point(node, node)
        for symbol in self.alphabet:
            self.tree.query((symbol,) + self.root.witness, node)
            self.todo.append((self.tree.edges[node][symbol][0], self.root))

    def _split(self, leaf: int, node: int, witness: Word):
        """Put a split on ``witness``, which tells ``node`` from ``leaf``,
        in ``leaf``'s place, and sift ``leaf``'s frontier nodes again."""
        parent, answer = self.place[leaf]
        split = parent.children[answer] = _Split(witness, {})
        answer = self.tree.query(witness, leaf)
        split.children[answer] = leaf
        self.place[leaf] = (split, answer)
        for member in self.members[leaf]:
            del self.home[member]
            self.todo.append((member, split))
        self.members[leaf] = []
        self._leaf(split, self.tree.query(witness, node), node)

    def _settle(self):
        tree, todo = self.tree, self.todo
        while todo:
            node, split = todo.popleft()
            while True:
                answer = tree.query(split.witness, node)
                below = split.children.get(answer)
                if not isinstance(below, _Split):
                    break
                split = below
            if below is None:
                self._leaf(split, answer, node)
            elif (witness := tree.apart(node, below)) is not None:
                self._split(below, node, witness)
            else:
                self.home[node] = below
                self.members[below].append(node)
                self._point(node, below)

    def _point(self, node: int, target: int):
        """The hypothesis transition that reads ``node``'s last input from
        its parent, a basis state, now leads to ``target``."""
        parent, symbol = self.tree.parents[node]
        self.transitions[(parent, symbol)] = (target, self.tree.edges[parent][symbol][1])

    def refine(self, word: Word) -> bool:
        """Rivest-Schapire counterexample processing on the tree; returns
        whether the hypothesis answered ``word`` wrongly.

        While it does, with ``d`` its first wrong output: feeding the access
        word of the state the hypothesis reaches after ``word[:i]``, then
        ``word[i:d + 1]``, gives wrong outputs at ``i = 0`` and right ones at
        ``i = d``.  A binary search finds a wrong ``i`` next to a right
        ``i + 1``; then the frontier node the ``i``-th state reaches on
        ``word[i]`` is apart from the state it was identified with."""
        tree, transitions = self.tree, self.transitions
        refined = False
        while True:
            states, predicted = [0], []
            for symbol in word:
                state, output = transitions[(states[-1], symbol)]
                states.append(state)
                predicted.append(output)
            actual = tree.query(word)
            d = next((i for i, (a, p) in enumerate(zip(actual, predicted)) if a != p), None)
            if d is None:
                return refined
            wrong, right = 0, d
            while right - wrong > 1:
                mid = (wrong + right) // 2
                if tree.query(word[mid:d + 1], states[mid]) == tuple(predicted[mid:d + 1]):
                    right = mid
                else:
                    wrong = mid
            node = tree.edges[states[wrong]][word[wrong]][0]
            leaf = self.home.pop(node)
            self.members[leaf].remove(node)
            self._split(leaf, node, tree.apart(node, leaf))
            self._settle()
            refined = True


class Hypothesis(NamedTuple):
    """What the equivalence oracle is asked about: the learner's live
    hypothesis, its states the basis nodes of the observation tree, node 0
    initial.  It reads like a machine (``inputs``, ``initial``,
    ``transitions``, ``run``) and changes when the learner refines it."""

    inputs: tuple[str, ...]
    transitions: dict[tuple[int, str], tuple[int, str]]
    initial: int = 0

    run = MealyMachine.run  # reads only initial and transitions

    def machine(self) -> MealyMachine:
        """The hypothesis as a machine, its states named ``s<i>`` in
        breadth-first order over the input alphabet."""
        order, names, transitions, outputs = [self.initial], {self.initial: "s0"}, {}, {}
        for node in order:  # grows while it is walked
            for symbol in self.inputs:
                target, output = self.transitions[(node, symbol)]
                if target not in names:
                    names[target] = f"s{len(order)}"
                    order.append(target)
                transitions[(names[node], symbol)] = (names[target], output)
                outputs[output] = None
        return MealyMachine(tuple(names.values()), self.inputs, tuple(outputs),
                            "s0", transitions)


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
    table_size: tuple[int, int]  # (basis states, frontier nodes)


def lstar_learn(sul: SulInterface, alphabet, equivalence,
                max_rounds: int = 1000,
                initial_counterexamples=()) -> LearnResult:
    """The learning entry point, which runs L# on an observation tree (the
    name is kept from the observation-table learner it replaced).

    ``equivalence`` maps a hypothesis, a ``Hypothesis`` view over the
    learner's states, to a counterexample word or None; a None answer
    accepts the hypothesis.  Each counterexample is processed
    until the hypothesis answers it correctly.  A counterexample the tree
    already answers as the hypothesis does is asked once more, past the
    tree: a changed answer raises ``SulNondeterminismError``, an unchanged
    one ``LearnError``.
    ``initial_counterexamples`` (e.g. diverging words fed back from test
    replays) are processed the same way before the first round, and may
    already be answered correctly.  One round is one equivalence query;
    each refuted hypothesis adds at least one state, so a system of ``n``
    states takes at most ``n`` rounds.  Returns the last hypothesis the
    oracle was asked about as a named machine, flagged unproven when the
    round budget runs out.
    """
    if max_rounds < 1:
        raise LearnError(f"max_rounds must be at least 1, got {max_rounds}")
    tree = ObservationTree(sul)
    learner = _LSharp(tree, tuple(alphabet))
    hypothesis = Hypothesis(learner.alphabet, learner.transitions)
    for word in initial_counterexamples:
        learner.refine(tuple(word))
    for round_no in range(1, max_rounds + 1):
        counterexample = equivalence(hypothesis)
        if counterexample is None or round_no == max_rounds:
            break
        if not learner.refine(tuple(counterexample)):
            tree._ask((), tuple(counterexample))
            raise LearnError(
                f"counterexample {counterexample} produced no table growth")
    return LearnResult(hypothesis.machine(), round_no, tree.queries, round_no,
                       counterexample is None,
                       (len(learner.basis), len(learner.home)))


def exact_oracle(hidden: MealyMachine, hypothesis: MealyMachine | Hypothesis) -> Word | None:
    """Simulation-mode ground truth: equivalence check against the hidden
    machine, returning its distinguishing word as the counterexample."""
    result = bisimilar(hidden, hypothesis)
    return None if result.equivalent else result.witness


def random_walk_oracle(sul: SulInterface, hypothesis: MealyMachine | Hypothesis,
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
    alphabet, transitions = hypothesis.inputs, hypothesis.transitions
    for _ in range(num_tests):
        word = tuple(rng.choices(alphabet, k=rng.randint(min_len, max_len)))
        state = hypothesis.initial
        for i, (symbol, actual) in enumerate(zip(word, sul.query(word))):
            state, output = transitions[(state, symbol)]
            if output != actual:
                return word[:i + 1]
    return None


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

    outputs = tuple(dict.fromkeys(out for _, out in t.values()))
    machine = MealyMachine(states, EMRTD_INPUTS, outputs, "0", t)
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

    outputs = tuple(dict.fromkeys(out for _, out in t.values()))
    machine = MealyMachine(states, UDS_INPUTS, outputs, "s0", t)
    return machine, tag


def build_uds_sul(reject_wrong_key: bool = False) -> tuple[SulInterface, MealyMachine]:
    machine, _ = build_uds_machine(reject_wrong_key)
    return MachineSul(machine), machine


FIXTURE_SULS = {
    "emrtd": build_emrtd_sul,
    "uds": build_uds_sul,
    "uds-patched": lambda: build_uds_sul(reject_wrong_key=True),
}

"""Active learning: L# on the observation tree, oracles, mapper, and the two
fixtures."""

import hashlib
import random

import pytest

from protocheck import (MachineSul, MealyMachine, annotate, bisimilar,
                        build_emrtd_machine, build_emrtd_sul,
                        build_uds_machine, build_uds_sul, emit_dot,
                        exact_oracle, lstar_learn, random_walk_oracle,
                        MappedSul, SulInterface, SulNondeterminismError)
from protocheck.learning import (EMRTD_INPUTS, UDS_INPUTS, Hypothesis, LearnError,
                                 ObservationTree, _LSharp)
from helpers import (NONCE_INPUTS, FreshNonceSul, canonicalize_nonce_mapper,
                     combination_lock, learning_target, nonce_sul)


# ---------------------------------------------------------------------------
# L# on the observation tree
# ---------------------------------------------------------------------------

def test_learn_single_state_machine_in_one_round():
    m = MealyMachine(("only",), ("a", "b"), ("x",), "only",
                     {("only", "a"): ("only", "x"), ("only", "b"): ("only", "x")})
    result = lstar_learn(MachineSul(m), m.inputs, lambda h: exact_oracle(m, h))
    assert result.rounds == 1
    assert result.table_size[0] == 1          # the root is the one basis state
    assert bisimilar(m, result.machine).equivalent


@pytest.mark.parametrize("fixture", [build_emrtd_sul, build_uds_sul])
def test_learn_fixture_with_exact_oracle(fixture):
    sul, hidden = fixture()
    result = lstar_learn(sul, hidden.inputs, lambda h: exact_oracle(hidden, h))
    assert result.proven
    assert bisimilar(hidden, result.machine).equivalent
    assert len(result.machine.states) <= len(hidden.states)
    assert result.membership_queries <= 20_000


def test_learned_uds_accepts_wrong_key_when_unlocked(uds_cpm):
    sul, hidden = build_uds_sul()
    result = lstar_learn(sul, hidden.inputs, lambda h: exact_oracle(hidden, h))
    m = result.machine
    state = m.initial
    for symbol in ("Extended", "SA", "SAWithKey"):
        state, out = m.transitions[(state, symbol)]
    # the unlocked state acknowledges a wrong key with the positive response
    _, out = m.transitions[(state, "SAwWrongKey")]
    assert out == "67"
    labels = annotate(m, uds_cpm)
    assert "AUTH" in labels.label(state)


def test_counterexample_must_grow_table():
    m = MealyMachine(("only",), ("a",), ("x",), "only",
                     {("only", "a"): ("only", "x")})
    recording = _RecordingSul(m)
    asked = []

    def stubborn_oracle(hypothesis):
        asked.append(len(recording.words))
        return ("a",)      # never informative: machine already answers x

    with pytest.raises(LearnError, match="no table growth"):
        lstar_learn(recording, m.inputs, stubborn_oracle)
    # asked once more past the tree, which answered it alike, then refused
    assert recording.words[asked[0]:] == [["a"]]


@pytest.mark.parametrize("oracle", ["exact", "random-walk"])
def test_counterexamples_add_no_duplicate_short_rows(oracle):
    # every short row is a state of the result, even after several
    # counterexamples
    for seed in (0, 1, 3, 4):
        hidden = learning_target(seed)
        sul = MachineSul(hidden)
        if oracle == "exact":
            equivalence = lambda h: exact_oracle(hidden, h)  # noqa: E731
        else:
            equivalence = lambda h: random_walk_oracle(  # noqa: E731
                sul, h, 5, 20, 200, seed)
        result = lstar_learn(sul, hidden.inputs, equivalence)
        assert result.rounds >= 3, "needs at least two counterexamples"
        assert result.proven
        assert result.table_size[0] == len(result.machine.states)
        assert bisimilar(hidden, result.machine).equivalent


@pytest.mark.parametrize("oracle", ["exact", "random-walk"])
def test_learned_machine_is_exact_and_asks_fewer_words_than_the_table(oracle):
    # on these 24-state machines the observation-table learner sent
    # 547-725 words; L# stays below 450 with either oracle
    for seed in (0, 1, 3, 4, 5, 6):
        hidden = learning_target(seed, states=24, inputs=("a", "b", "c", "d"))
        sul = MachineSul(hidden)
        if oracle == "exact":
            equivalence = lambda h: exact_oracle(hidden, h)  # noqa: E731
        else:
            equivalence = lambda h: random_walk_oracle(  # noqa: E731
                sul, h, 5, 20, 200, seed)
        result = lstar_learn(sul, hidden.inputs, equivalence)
        assert result.proven
        assert bisimilar(hidden, result.machine).equivalent
        assert result.membership_queries < 450
        assert result.table_size == (len(hidden.states),
                                     len(hidden.states) * 3 + 1)


def _rebuilt(learner):
    """The hypothesis built afresh from the tree and the frontier's
    identifications, breadth first and named as the returned machine is."""
    order, names, transitions, outputs = [0], {0: "s0"}, {}, {}
    for node in order:
        for symbol in learner.alphabet:
            child, output = learner.tree.edges[node][symbol]
            target = learner.home.get(child, child)
            if target not in names:
                names[target] = f"s{len(order)}"
                order.append(target)
            transitions[(names[node], symbol)] = (names[target], output)
            outputs[output] = None
    return MealyMachine(tuple(names.values()), learner.alphabet, tuple(outputs),
                        "s0", transitions)


@pytest.mark.parametrize("oracle", ["exact", "random-walk"])
@pytest.mark.parametrize("seed", [0, 1, 3, 4])
def test_the_kept_hypothesis_is_the_one_built_afresh_after_every_refinement(seed, oracle):
    hidden = learning_target(seed, states=24, inputs=("a", "b", "c", "d"))
    sul = MachineSul(hidden)
    learner = _LSharp(ObservationTree(sul), hidden.inputs)
    view = Hypothesis(learner.alphabet, learner.transitions)
    refinements = 0
    while True:
        basis = set(learner.basis)
        assert learner.transitions.keys() == {(b, a) for b in basis for a in hidden.inputs}
        assert {target for target, _ in learner.transitions.values()} <= basis
        reached, frontier = {view.initial}, [view.initial]
        for state in frontier:  # grows while it is walked
            for symbol in view.inputs:
                target = view.transitions[(state, symbol)][0]
                if target not in reached:
                    reached.add(target)
                    frontier.append(target)
        assert len(reached) == len(learner.basis)
        rebuilt = _rebuilt(learner)
        assert bisimilar(rebuilt, view).equivalent
        assert view.machine() == rebuilt
        if oracle == "exact":
            counterexample = exact_oracle(hidden, view)
        else:
            counterexample = random_walk_oracle(sul, view, 5, 20, 200,
                                                f"{seed}/{refinements}")
        if counterexample is None:
            break
        assert learner.refine(tuple(counterexample))
        refinements += 1
    assert refinements >= 2
    assert bisimilar(hidden, view).equivalent


def test_default_round_budget_covers_one_round_per_state():
    # each refuted hypothesis adds at least one state; this machine takes
    # more than 100 rounds with the exact oracle
    hidden = learning_target(7, states=150)
    result = lstar_learn(MachineSul(hidden), hidden.inputs,
                         lambda h: exact_oracle(hidden, h))
    assert result.rounds > 100
    assert result.proven and bisimilar(hidden, result.machine).equivalent


def test_round_budget_returns_last_hypothesis_unproven():
    hidden = combination_lock()
    full = lstar_learn(MachineSul(hidden), hidden.inputs,
                       lambda h: exact_oracle(hidden, h))
    assert full.rounds == 2 and full.proven

    result = lstar_learn(MachineSul(hidden), hidden.inputs,
                         lambda h: exact_oracle(hidden, h), max_rounds=1)
    assert not result.proven
    assert result.rounds == 1
    assert result.equivalence_queries == 1
    # the hypothesis the oracle refuted, not a refined one nobody checked
    assert len(result.machine.states) == result.table_size[0] == 1
    assert not bisimilar(hidden, result.machine).equivalent


def test_round_budget_below_one_is_rejected():
    sul, hidden = build_uds_sul()
    with pytest.raises(LearnError, match="max_rounds must be at least 1"):
        lstar_learn(sul, hidden.inputs, lambda h: exact_oracle(hidden, h),
                    max_rounds=0)


class _RecordingSul(SulInterface):
    """A machine behind the interface that logs every word it is sent."""

    def __init__(self, machine):
        self.machine = MachineSul(machine)
        self.words = []

    def reset(self):
        self.machine.reset()
        self.words.append([])

    def step(self, symbol):
        self.words[-1].append(symbol)
        return self.machine.step(symbol)


_LEARNING_TARGETS = {
    "seed2": lambda: learning_target(2),
    "seed3": lambda: learning_target(3),
    "seed1-64": lambda: learning_target(1, states=64, inputs=("a", "b", "c", "d")),
}

# (sha256 of every word the system received, one per line, symbols
# space-separated; sha256 of emit_dot of the learned machine)
_QUERY_LOG_DIGESTS = {
    ("seed1-64", "exact"): (
        "2e484203f8d6bdc536f3b37ddcb711de9a7a4f7850f3270c395db9ac39e440a4",
        "afc9bd8762f9ed2c5797f0978e6e97603de69444eb6de27bee2506a764667bc5"),
    ("seed1-64", "random-walk"): (
        "3de04cd42a3397a8a1791315dfd7d265c244870a48a522c966ed7463d4bf872d",
        "afc9bd8762f9ed2c5797f0978e6e97603de69444eb6de27bee2506a764667bc5"),
    ("seed2", "exact"): (
        "ce40f387fbe61ceb69901af9572de3938a616e1896825364c99401b541da14a0",
        "88be939be156a5d8b991201c29ded4a1537c0332829a84ad08bb6e427c32547e"),
    ("seed2", "random-walk"): (
        "102e95193c9280d719f777b438c493b6c6e49ff74355bbc152d47bdbd9d61ba6",
        "88be939be156a5d8b991201c29ded4a1537c0332829a84ad08bb6e427c32547e"),
    ("seed3", "exact"): (
        "b700e689aa6741a77f3130c8ff4ac72ac2d6f1086fb1abbafcb05aaab99d3698",
        "b646b68273950c85bf918a5acc9a3128409dcd3df8aa16f55ad8e47d160d5b28"),
    ("seed3", "random-walk"): (
        "6d4db9b19dabd95ea7c22496d9059119878b17654fdfdc8b7121ef177340735f",
        "b646b68273950c85bf918a5acc9a3128409dcd3df8aa16f55ad8e47d160d5b28"),
}


@pytest.mark.parametrize("oracle", ["exact", "random-walk"])
@pytest.mark.parametrize("target", sorted(_LEARNING_TARGETS))
def test_multi_round_learning_sends_the_same_words(target, oracle):
    # the words the system sees, and their order, are part of the
    # byte-identity contract: they decide what the tree holds, the query counts
    # and the random-walk oracle's draws
    hidden = _LEARNING_TARGETS[target]()
    sul = _RecordingSul(hidden)
    rounds = []

    def walk(hypothesis):
        rounds.append(hypothesis)
        return random_walk_oracle(sul, hypothesis, 5, 40, 300,
                                  f"{target}/{len(rounds)}")

    equivalence = (walk if oracle == "random-walk"
                   else lambda h: exact_oracle(hidden, h))
    result = lstar_learn(sul, hidden.inputs, equivalence)
    assert result.rounds >= 3, "needs at least two counterexamples"
    assert result.proven
    assert bisimilar(hidden, result.machine).equivalent
    log = "\n".join(" ".join(word) for word in sul.words)
    digests = (hashlib.sha256(log.encode()).hexdigest(),
               hashlib.sha256(emit_dot(result.machine).encode()).hexdigest())
    assert digests == _QUERY_LOG_DIGESTS[(target, oracle)]


def test_flaky_sul_detected():
    class Flaky:
        def __init__(self):
            self.count = 0

        def reset(self):
            pass

        def step(self, symbol):
            self.count += 1
            return "x" if self.count < 3 else "y"

        def query(self, word):
            self.reset()
            return tuple(self.step(s) for s in word)

    with pytest.raises(SulNondeterminismError):
        lstar_learn(Flaky(), ("a",), lambda h: None)


def test_tree_answers_what_it_holds_without_the_system():
    sul, hidden = build_uds_sul()
    recording = _RecordingSul(hidden)
    tree = ObservationTree(recording)
    rng = random.Random(9)
    words = [tuple(rng.choice(hidden.inputs) for _ in range(rng.randint(1, 6)))
             for _ in range(300)]
    for w in words:
        assert tree.query(w) == sul.query(w)
    asked = len(recording.words)
    assert asked == tree.queries < len(words)
    # every answered word and each of its prefixes, from any node on its path
    for w in words:
        for cut in range(len(w) + 1):
            node = 0
            for symbol in w[:cut]:
                node = tree.edges[node][symbol][0]
            assert tree.access(node) == w[:cut]
            assert tree.query(w[cut:], node) == hidden.run(w)[cut:]
    assert len(recording.words) == asked


def test_tree_names_the_word_a_nondeterministic_system_changed():
    class Drifting(SulInterface):
        """Answers "x" to the first two inputs after it is built, "y" after."""

        def __init__(self):
            self.steps = 0

        def reset(self):
            pass

        def step(self, symbol):
            self.steps += 1
            return "x" if self.steps < 3 else "y"

    tree = ObservationTree(Drifting())
    assert tree.query(("a", "b")) == ("x", "x")
    assert tree.query(("a",)) == ("x",)
    with pytest.raises(SulNondeterminismError, match=r"\['a', 'c'\].*'x'.*\['a'\]"):
        tree.query(("a", "c"))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def test_random_walk_oracle_passes_on_equivalent_hypothesis():
    sul, hidden = build_uds_sul()
    assert random_walk_oracle(sul, hidden, 20, 50, 50, seed=1) is None


def test_random_walk_oracle_finds_missing_flaw_within_retries():
    sul, hidden = build_uds_sul()
    _, patched = build_uds_sul(reject_wrong_key=True)
    # hypothesis missing the wrong-key acceptance: some seeded retry finds it
    found_at = None
    for seed in range(10):
        cex = random_walk_oracle(sul, patched, 20, 50, 50, seed=seed)
        if cex is not None:
            found_at = seed
            assert sul.query(cex) != patched.run(cex)
            assert cex[-1] == "SAwWrongKey"
            break
    assert found_at is not None


def test_random_walk_oracle_zero_tests_vacuous():
    sul, hidden = build_uds_sul()
    _, patched = build_uds_sul(reject_wrong_key=True)
    assert random_walk_oracle(sul, patched, 20, 50, 0, seed=0) is None


def test_random_walk_oracle_validates_lengths():
    sul, hidden = build_uds_sul()
    with pytest.raises(LearnError):
        random_walk_oracle(sul, hidden, 0, 5, 10, seed=0)
    with pytest.raises(LearnError):
        random_walk_oracle(sul, hidden, 6, 5, 10, seed=0)


def test_random_walk_learning_converges_at_published_parameters():
    sul, hidden = build_uds_sul()
    result = lstar_learn(
        sul, hidden.inputs,
        lambda h: random_walk_oracle(sul, h, 20, 50, 50, seed=5))
    assert bisimilar(hidden, result.machine).equivalent


# ---------------------------------------------------------------------------
# abstraction mapper
# ---------------------------------------------------------------------------

def test_nonce_mapper_canonicalizes():
    wrapped = MappedSul(FreshNonceSul(), canonicalize_nonce_mapper())
    word = ("GET_CHALLENGE", "READ_SERIAL", "GET_CHALLENGE")
    first = wrapped.query(word)
    assert first == ("NONCE", "9000", "NONCE")
    for _ in range(100):
        assert wrapped.query(word) == first


def test_mapper_passthrough():
    mapper = canonicalize_nonce_mapper()
    assert mapper.abstract_output("9000") == "9000"
    assert mapper.abstract_output("CHAL_1a2b") == "NONCE"
    assert mapper.abstract_output("CHAL_9f00") == "NONCE"


def test_fresh_nonces_learn_through_the_mapper_and_a_leak_is_named():
    """The mapper only translates.  The undeclared serial number makes a
    counterexample the tree answers as the hypothesis does; asked once
    more, it changes, and the tree names it."""
    expected = MealyMachine(("s0",), NONCE_INPUTS, ("NONCE", "9000"), "s0",
                            {("s0", "GET_CHALLENGE"): ("s0", "NONCE"),
                             ("s0", "READ_SERIAL"): ("s0", "9000")})

    def learn(sul):
        return lstar_learn(sul, NONCE_INPUTS,
                           lambda h: random_walk_oracle(sul, h, 1, 6, 50, seed=2))

    result = learn(nonce_sul())
    assert result.proven and bisimilar(expected, result.machine).equivalent
    with pytest.raises(SulNondeterminismError, match="READ_SERIAL"):
        learn(nonce_sul(leak=True))


def test_mapper_translates_inputs():
    from protocheck import Mapper

    class Recorder:
        def __init__(self):
            self.seen = []

        def reset(self):
            pass

        def step(self, symbol):
            self.seen.append(symbol)
            return "ok"

    raw = Recorder()
    wrapped = MappedSul(raw, Mapper(input_map={"LOGIN": "00A4_0C00"}))
    wrapped.query(("LOGIN",))
    assert raw.seen == ["00A4_0C00"]


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def test_emrtd_fixture_published_queries():
    sul, hidden = build_emrtd_sul()
    assert sul.query(("DF", "BAC", "SSEL_EF_DG1")) == ("9000", "9000", "9000")
    assert sul.query(("RD_BIN",)) == ("6986",)
    assert sul.query(("BAC",)) == ("6985",)
    assert len(hidden.states) == 6
    assert len(hidden.inputs) >= 12


def test_emrtd_fixture_case_indices_match_published_listing():
    assert EMRTD_INPUTS.index("EF_CA_CVCA") == 0
    assert EMRTD_INPUTS.index("DF") == 1
    assert EMRTD_INPUTS.index("RD_BIN") == 22
    assert EMRTD_INPUTS.index("BAC") == 28
    assert EMRTD_INPUTS.index("SSEL_EF_DG1") == 32


def test_emrtd_secure_read_needs_secure_select():
    sul, _ = build_emrtd_sul()
    # plain flow: select application, authenticate, secure-select, secure-read
    assert sul.query(("DF", "BAC", "SSEL_EF_DG1", "SRD_BIN"))[-1] == "9000"
    # without the secure select the read fails
    assert sul.query(("DF", "BAC", "SRD_BIN"))[-1] != "9000"
    # wrong/old key secured operations never succeed
    assert sul.query(("DF", "BAC", "SSEL_EF_DG1", "WSRD_BIN"))[-1] != "9000"
    assert sul.query(("DF", "BAC", "SSEL_EF_DG1", "OSRD_BIN"))[-1] != "9000"


def test_uds_fixture_published_queries():
    sul, hidden = build_uds_sul()
    assert sul.query(("Extended", "SA", "SAWithKey")) == ("5003", "67", "67")
    assert sul.query(("CheckASWBit",)) == ("7f",)
    assert len(hidden.states) == 7


def test_uds_fixture_reaches_auth(uds_cpm):
    _, hidden = build_uds_sul()
    a = annotate(hidden, uds_cpm)
    state = hidden.initial
    for symbol in ("Extended", "SA", "SAWithKey"):
        state, _ = hidden.transitions[(state, symbol)]
    assert "AUTH" in a.label(state)


def test_fixture_provenance_covers_every_transition():
    for build, inputs in ((build_emrtd_machine, EMRTD_INPUTS),
                          (build_uds_machine, UDS_INPUTS)):
        machine, tags = build()
        assert set(tags) == {(q, s) for q in machine.states for s in inputs}
        assert set(tags.values()) <= {"LISTING", "TABLE", "SYNTH"}
    machine, tags = build_emrtd_machine()
    listing_rows = [k for k, v in tags.items() if v == "LISTING"]
    # the four published handler ladders cover all six states each
    assert len(listing_rows) == 4 * 6


def test_patched_uds_rejects_wrong_key():
    sul, hidden = build_uds_sul(reject_wrong_key=True)
    assert sul.query(("Extended", "SA", "SAWithKey", "SAwWrongKey")) == \
        ("5003", "67", "67", "7f")

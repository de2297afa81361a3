"""Mealy machine core: DOT parsing/serialization, equivalence, reachability."""

import itertools
import random
from collections import deque

import pytest

from protocheck import (EquivalenceResult, MachineError, MealyMachine, bisimilar, complete,
                        emit_dot, parse_dot, reachable)
from helpers import random_machine

TWO_STATE_DOT = """
digraph g {
  __start -> q1;
  q1 -> q2 [label="sigma1 / omega1"];
  q2 -> q1 [label="sigma1 / omega2"];
}
"""


def flip_output(m: MealyMachine, state, sym, new_out) -> MealyMachine:
    transitions = dict(m.transitions)
    dst, _ = transitions[(state, sym)]
    transitions[(state, sym)] = (dst, new_out)
    outputs = m.outputs if new_out in m.outputs else m.outputs + (new_out,)
    return MealyMachine(m.states, m.inputs, outputs, m.initial, transitions)


def brute_force_distinguish(a, b, depth):
    """Shortest differing input word by exhaustive enumeration, or None."""
    for n in range(1, depth + 1):
        for word in itertools.product(a.inputs, repeat=n):
            if a.run(word) != b.run(word):
                return word
    return None


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_two_state_example():
    m = parse_dot(TWO_STATE_DOT)
    assert m.states == ("q1", "q2")
    assert m.inputs == ("sigma1",)
    assert set(m.outputs) == {"omega1", "omega2"}
    assert m.initial == "q1"
    assert m.transitions[("q1", "sigma1")] == ("q2", "omega1")
    assert m.transitions[("q2", "sigma1")] == ("q1", "omega2")


def test_parse_single_state_self_loop():
    m = parse_dot('digraph g { __start -> s; s -> s [label="a / a"]; }')
    assert m.states == ("s",)
    assert m.inputs == ("a",) and m.outputs == ("a",)


def test_parse_initial_attribute_convention():
    m = parse_dot('digraph g { q [initial=true]; q -> q [label="a / b"]; }')
    assert m.initial == "q"


def test_parse_nondeterminism_rejected():
    text = """
    digraph g {
      __start -> q1;
      q1 -> q1 [label="a / x"];
      q1 -> q2 [label="a / x"];
      q2 -> q2 [label="a / x"];
    }
    """
    with pytest.raises(MachineError, match="nondeterminism.*'q1'.*'a'"):
        parse_dot(text)


def test_parse_missing_initial_rejected():
    with pytest.raises(MachineError, match="initial"):
        parse_dot('digraph g { a -> a [label="x / y"]; }')


def test_parse_syntax_error_carries_line_number():
    with pytest.raises(MachineError, match="line 3"):
        parse_dot('digraph g {\n__start -> a;\n???\n}')


def test_parse_incomplete_is_error_by_default():
    text = """
    digraph g {
      __start -> a;
      a -> b [label="x / y"];
      b -> a [label="x / y"];
      a -> a [label="z / y"];
    }
    """
    with pytest.raises(MachineError, match="not input-complete"):
        parse_dot(text)
    m = parse_dot(text, complete_missing=True)
    assert m.transitions[("b", "z")] == ("b", "no_response")
    assert "no_response" in m.outputs


def machine_with(states=("a",), inputs=("x",), outputs=("o",), initial="a",
                 transitions=()):
    return MealyMachine(states, inputs, outputs, initial, dict(transitions),
                        require_complete=False)


@pytest.mark.parametrize("build,message", [
    (lambda: machine_with(states=("a", "a")), "duplicate state identifiers"),
    (lambda: machine_with(inputs=("x", "x")), "duplicate input symbols"),
    (lambda: machine_with(initial="b"), "initial state 'b' not among states"),
    (lambda: machine_with(transitions=[(("b", "x"), ("a", "o"))]),
     "transition from unknown state 'b'"),
    (lambda: machine_with(transitions=[(("a", "x"), ("b", "o"))]),
     "transition into unknown state 'b'"),
    (lambda: machine_with(transitions=[(("a", "y"), ("a", "o"))]),
     "transition on unknown input 'y'"),
    (lambda: machine_with(transitions=[(("a", "x"), ("a", "p"))]),
     "transition with unknown output 'p'"),
    (lambda: parse_dot("digraph g { __start -> a; a -> a; }"),
     "line 1: edge 'a' -> 'a' has no label"),
    (lambda: parse_dot('digraph g { __start -> a; a -> a [label="x"]; }'),
     "line 1: edge label 'x' lacks 'input / output' separator"),
    (lambda: parse_dot('digraph g { a -> a [label="x / o"]; }'),
     "no initial state: add a '__start -> q' edge or an initial=true attribute"),
], ids=["duplicate-states", "duplicate-inputs", "unknown-initial", "from-unknown",
        "into-unknown", "unknown-input", "unknown-output", "unlabeled-edge", "no-separator",
        "no-initial"])
def test_invalid_machines_and_documents_are_rejected(build, message):
    with pytest.raises(MachineError) as caught:
        build()
    assert str(caught.value) == message


def test_reserved_epsilon_rejected():
    with pytest.raises(MachineError, match="reserved"):
        MealyMachine(("a",), ("__eps",), ("o",), "a", {("a", "__eps"): ("a", "o")})


def test_reserved_initial_state_marker_rejected_as_a_state():
    with pytest.raises(MachineError) as caught:
        MealyMachine(("a", "__start"), ("x",), ("o",), "a",
                     {("a", "x"): ("__start", "o"), ("__start", "x"): ("a", "o")})
    assert str(caught.value) == (
        "'__start' is reserved as the initial-state marker and may not name a state")


# ---------------------------------------------------------------------------
# emission and round trips
# ---------------------------------------------------------------------------

def test_round_trip_two_state():
    m = parse_dot(TWO_STATE_DOT)
    back = parse_dot(emit_dot(m))
    assert (back.states, back.initial, back.transitions) == \
        (m.states, m.initial, m.transitions)


def test_round_trip_empty_alphabet_single_state():
    m = MealyMachine(("only",), (), (), "only", {})
    text = emit_dot(m)
    back = parse_dot(text)
    assert back.states == ("only",) and back.initial == "only"
    assert back.inputs == () and back.transitions == {}


@pytest.mark.parametrize("seed", range(12))
def test_round_trip_random_machines_with_hostile_symbols(seed):
    rng = random.Random(seed)
    pool = ["a/b", 'we"ird', "back\\slash", "10_01", "SEL EF", "x", "6a82",
            "a->b", "s{1}", "plain"]
    m = random_machine(rng, max_states=5, max_inputs=3, symbol_pool=pool)
    back = parse_dot(emit_dot(m))
    assert (back.states, back.initial, back.transitions) == \
        (m.states, m.initial, m.transitions)
    assert set(back.inputs) == set(m.inputs)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def test_bisimilar_reflexive():
    m = parse_dot(TWO_STATE_DOT)
    assert bisimilar(m, m).equivalent


def test_bisimilar_flipped_output_witness():
    m = parse_dot(TWO_STATE_DOT)
    other = flip_output(m, "q2", "sigma1", "omega1")
    # expected witness frozen from exhaustive enumeration to depth 2
    assert brute_force_distinguish(m, other, 2) == ("sigma1", "sigma1")
    verdict = bisimilar(m, other)
    assert not verdict.equivalent
    assert verdict.witness == ("sigma1", "sigma1")
    assert m.run(verdict.witness) != other.run(verdict.witness)


def test_bisimilar_four_state_unrolling():
    m = parse_dot(TWO_STATE_DOT)
    unrolled = MealyMachine(
        ("a1", "a2", "a3", "a4"), ("sigma1",), ("omega1", "omega2"), "a1",
        {("a1", "sigma1"): ("a2", "omega1"), ("a2", "sigma1"): ("a3", "omega2"),
         ("a3", "sigma1"): ("a4", "omega1"), ("a4", "sigma1"): ("a1", "omega2")})
    assert brute_force_distinguish(m, unrolled, 8) is None
    assert bisimilar(m, unrolled).equivalent


def _random_machine_over(rng, inputs, max_states=5):
    n = rng.randint(1, max_states)
    states = tuple(f"m{i}" for i in range(n))
    out_pool = ["o0", "o1"]
    transitions = {
        (q, a): (rng.choice(states), rng.choice(out_pool))
        for q in states for a in inputs
    }
    return MealyMachine(states, inputs, tuple(out_pool), states[0], transitions)


@pytest.mark.parametrize("seed", range(10))
def test_bisimilar_symmetric_and_witness_executable(seed):
    rng = random.Random(1000 + seed)
    inputs = ("x", "y")
    a = _random_machine_over(rng, inputs)
    b = _random_machine_over(rng, inputs)
    left, right = bisimilar(a, b), bisimilar(b, a)
    assert left.equivalent == right.equivalent
    if not left.equivalent:
        assert a.run(left.witness) != b.run(left.witness)
        assert left.left_outputs != left.right_outputs


def _renamed(machine, prefix):
    mapping = {q: f"{prefix}{i}" for i, q in enumerate(machine.states)}
    return MealyMachine(
        tuple(mapping[q] for q in machine.states), machine.inputs,
        machine.outputs, mapping[machine.initial],
        {(mapping[q], s): (mapping[d], o)
         for (q, s), (d, o) in machine.transitions.items()})


def test_bisimilar_transitive_on_random_triples():
    rng = random.Random(77)
    inputs = ("x", "y")
    for _ in range(8):
        a = _random_machine_over(rng, inputs)
        b = _renamed(a, "r")        # a ~ b by construction
        c = _random_machine_over(rng, inputs)
        assert bisimilar(a, b).equivalent
        assert bisimilar(b, c).equivalent == bisimilar(a, c).equivalent


def _bisimilar_by_prefix(a, b):
    """The equivalence search as it was before parent pointers: each queued
    pair carries its whole input word."""
    start = (a.initial, b.initial)
    seen = {start}
    frontier = deque([(start, ())])
    while frontier:
        (qa, qb), prefix = frontier.popleft()
        for sym in a.inputs:
            na, oa = a.transitions[(qa, sym)]
            nb, ob = b.transitions[(qb, sym)]
            word = prefix + (sym,)
            if oa != ob:
                return EquivalenceResult(False, word, a.run(word), b.run(word))
            if (na, nb) not in seen:
                seen.add((na, nb))
                frontier.append(((na, nb), word))
    return EquivalenceResult(True)


def test_bisimilar_matches_the_search_that_carries_whole_words():
    """On seeded pairs, differing and equivalent, of up to 12 states over
    up to four inputs, and on each machine against itself with one output
    flipped, ``bisimilar`` returns the very result of the search that
    queues each pair with its word: the same witness and outputs."""
    rng = random.Random(4242)
    differ = 0
    for _ in range(300):
        inputs = tuple("wxyz"[:rng.randint(1, 4)])
        a = _random_machine_over(rng, inputs, 12)
        q, sym = rng.choice(sorted(a.transitions))
        pairs = [(a, _random_machine_over(rng, inputs, 12)), (a, _renamed(a, "r")),
                 (a, flip_output(a, q, sym, "o2"))]
        for left, right in pairs:
            result = bisimilar(left, right)
            assert result == _bisimilar_by_prefix(left, right)
            differ += not result.equivalent
    assert differ > 400, differ


def test_alphabet_mismatch_reported():
    a = parse_dot(TWO_STATE_DOT)
    b = MealyMachine(("x",), ("sigma1", "extra"), ("omega1",), "x",
                     {("x", "sigma1"): ("x", "omega1"), ("x", "extra"): ("x", "omega1")})
    with pytest.raises(MachineError, match="alphabets differ"):
        bisimilar(a, b)


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------

def _chain_with_orphans():
    states = ("a", "b", "dead1", "dead2")
    transitions = {
        ("a", "x"): ("b", "o"), ("b", "x"): ("a", "o"),
        ("dead1", "x"): ("dead2", "o"), ("dead2", "x"): ("dead2", "o"),
    }
    return MealyMachine(states, ("x",), ("o",), "a", transitions)


def test_reachable_removes_unreachable_states():
    m = _chain_with_orphans()
    r = reachable(m)
    assert r.states == ("a", "b")
    # BFS oracle: dead2 was reachable only through dead1, so both disappear
    assert "dead1" not in r.states and "dead2" not in r.states


def test_reachable_identity_on_connected():
    m = parse_dot(TWO_STATE_DOT)
    assert reachable(m) == m


def test_reachable_idempotent_and_preserves_behavior():
    rng = random.Random(5)
    for _ in range(10):
        m = random_machine(rng)
        r = reachable(m)
        assert reachable(r) == r
        assert bisimilar(m, r).equivalent


def test_complete_adds_no_response_self_loops():
    m = MealyMachine(("a", "b"), ("x", "y"), ("o",), "a",
                     {("a", "x"): ("b", "o"), ("b", "x"): ("a", "o"),
                      ("a", "y"): ("a", "o")},
                     require_complete=False)
    filled = complete(m)
    assert filled.transitions[("b", "y")] == ("b", "no_response")

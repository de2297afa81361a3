"""Witness concretization, replay, and the learner feedback loop."""

import pytest

from protocheck import (MachineSul, MealyMachine, TestCase, annotate,
                        bisimilar, build_uds_sul, check, concretize,
                        exact_oracle, expand_tau, feedback,
                        kripke_from_annotated, lstar_learn, parse_cpm,
                        property_library, read_tests, replay,
                        CONFIRMED, DIVERGED, EPSILON, TAU)
from protocheck.cpm import AnnotatedMachine, Cpm
from protocheck.fixtures import fixture_text
from protocheck.ltl import Lasso
from protocheck import testkit
from protocheck.testkit import TestKitError


@pytest.fixture(scope="module")
def uds_violation():
    uds_cpm = parse_cpm(fixture_text("uds.cpm"))
    sul, hidden = build_uds_sul()
    expanded = expand_tau(annotate(hidden, uds_cpm), uds_cpm)
    k = kripke_from_annotated(expanded, declared=uds_cpm.declared_props)
    formula = property_library(uds_cpm)["no_invalid_key"].formula
    result = check(k, formula)
    assert result.verdict == "VIOLATED"
    return uds_cpm, sul, hidden, expanded, k, result


def test_concretize_ends_with_wrong_key(uds_violation):
    _, _, _, expanded, k, result = uds_violation
    test = concretize(result.lasso, k, expanded, "no_invalid_key")
    assert test.inputs[-1] == "SAwWrongKey"
    assert test.expected[-1] == "67"
    assert len(test.inputs) == len(test.expected)
    assert "SAWithKey" in test.inputs    # only reachable after key acceptance


def test_concretize_loop_only_lasso():
    m = MealyMachine(("z",), ("tick",), ("tock",), "z",
                     {("z", "tick"): ("z", "tock")})
    a = annotate(m, Cpm())
    k = kripke_from_annotated(a)
    test = concretize(Lasso((), ("z", "z")), k, a, "spin")
    assert test.inputs == ("tick",)
    assert test.expected == ("tock",)


def test_concretize_keeps_a_tau_output_that_no_bridge_follows():
    """A hand-written model may output tau into an ordinary state: with no
    empty-input bridge out of it, the tau output is the expected one."""
    m = MealyMachine(("q", "r"), ("a",), (TAU, "o"), "q",
                     {("q", "a"): ("r", TAU), ("r", "a"): ("r", "o")},
                     require_complete=False)
    a = AnnotatedMachine(m, {})
    test = concretize(Lasso(("q",), ("r",)), kripke_from_annotated(a), a, unroll=2)
    assert test.inputs == ("a", "a") and test.expected == (TAU, "o")


def dead_end_machine() -> AnnotatedMachine:
    """``b`` has no transition: the Kripke view gives it a self-loop."""
    m = MealyMachine(("a", "b"), ("x",), ("o",), "a", {("a", "x"): ("b", "o")},
                     require_complete=False)
    return AnnotatedMachine(m, {"b": frozenset({"INVKEYOK"})})


def test_concretize_stays_on_a_dead_end_without_input():
    a = dead_end_machine()
    test = concretize(Lasso(("a", "b"), ("b",)), kripke_from_annotated(a), a, unroll=3)
    assert test.inputs == ("x",) and test.expected == ("o",)


def test_concretize_unroll_repeats_loop(uds_violation):
    _, _, _, expanded, k, result = uds_violation
    once = concretize(result.lasso, k, expanded, "p", unroll=1)
    twice = concretize(result.lasso, k, expanded, "p", unroll=2)
    loop_inputs = twice.inputs[len(once.inputs) - len(result.lasso.loop) + 1:]
    assert len(twice.inputs) > len(once.inputs)
    # the loop segment appears twice in the longer word
    segment = once.inputs[len(result.lasso.stem) - 1:]
    del loop_inputs, segment  # length relation is the contract here
    assert twice.unroll == 2


def test_concretize_rejects_foreign_states(uds_violation):
    _, _, _, expanded, k, _ = uds_violation
    with pytest.raises(TestKitError, match="not a state"):
        concretize(Lasso(("nowhere",), ("nowhere",)), k, expanded, "p")


@pytest.mark.parametrize("lasso,step", [
    (Lasso(("a",), ("a",)), "'a' -> 'a'"),
    (Lasso(("a", "t"), ("a",)), "'t' -> 'a'"),
], ids=["ordinary-state", "internal-state"])
def test_concretize_rejects_a_step_no_transition_reproduces(lasso, step):
    """From ``a`` only ``x`` leads on, into the internal state ``t``, whose
    bridge goes to ``b``: neither ``a -> a`` nor ``t -> a`` is a step."""
    m = MealyMachine(("a", "t", "b"), ("x",), (TAU, "o"), "a",
                     {("a", "x"): ("t", TAU), ("t", EPSILON): ("b", "o"),
                      ("b", "x"): ("b", "o")}, require_complete=False)
    a = AnnotatedMachine(m, {}, frozenset({"t"}))
    with pytest.raises(TestKitError) as caught:
        concretize(lasso, kripke_from_annotated(a), a, "p")
    assert str(caught.value) == f"no transition reproduces witness step {step}"


def test_replay_confirms_on_same_system(uds_violation):
    _, sul, _, expanded, k, result = uds_violation
    test = concretize(result.lasso, k, expanded, "no_invalid_key")
    outcome = replay(test, sul)
    assert outcome.verdict == CONFIRMED
    assert outcome.observed == test.expected


def test_replay_diverges_on_patched_system(uds_violation):
    _, _, _, expanded, k, result = uds_violation
    test = concretize(result.lasso, k, expanded, "no_invalid_key")
    patched_sul, _ = build_uds_sul(reject_wrong_key=True)
    outcome = replay(test, patched_sul)
    assert outcome.verdict == DIVERGED
    assert outcome.first_divergence == len(test.inputs) - 1 or \
        test.inputs[outcome.first_divergence] == "SAwWrongKey"
    assert outcome.observed[outcome.first_divergence] == "7f"


def test_replay_empty_test_vacuously_confirmed():
    sul, _ = build_uds_sul()
    outcome = replay(TestCase((), (), "empty", (), ()), sul)
    assert outcome.verdict == CONFIRMED


def test_replay_reports_system_failure_position():
    class Exploding:
        def reset(self):
            pass

        def step(self, symbol):
            raise RuntimeError("bus gone")

    outcome = replay(TestCase(("a",), ("x",), "t", (), ()), Exploding())
    assert outcome.verdict == DIVERGED
    assert outcome.failure and "position 0" in outcome.failure


def test_feedback_requires_divergence(uds_violation):
    _, sul, _, expanded, k, result = uds_violation
    test = concretize(result.lasso, k, expanded, "no_invalid_key")
    confirmed = replay(test, sul)
    with pytest.raises(TestKitError, match="diverged"):
        feedback(confirmed, test)


def test_feedback_prefix_at_first_divergence():
    from protocheck.testkit import ReplayResult
    test = TestCase(("a", "b", "c"), ("1", "2", "3"), "t", (), ())
    diverged = ReplayResult(DIVERGED, ("1", "9", "3"), 1)
    assert feedback(diverged, test) == ("a", "b")
    at_zero = ReplayResult(DIVERGED, ("9", "2", "3"), 0)
    assert feedback(at_zero, test) == ("a",)


def test_soundness_replay_against_model_itself(uds_violation):
    # every concretized witness must be confirmed by the machine it came from
    _, _, hidden, expanded, k, result = uds_violation
    test = concretize(result.lasso, k, expanded, "no_invalid_key")
    outcome = replay(test, MachineSul(hidden))
    assert outcome.verdict == CONFIRMED


def test_closed_loop_refines_to_holding_model(uds_violation):
    uds_cpm, _, _, expanded, k, result = uds_violation
    test = concretize(result.lasso, k, expanded, "no_invalid_key")
    patched_sul, patched_hidden = build_uds_sul(reject_wrong_key=True)
    outcome = replay(test, patched_sul)
    assert outcome.verdict == DIVERGED
    word = feedback(outcome, test)
    relearned = lstar_learn(patched_sul, patched_hidden.inputs,
                            lambda h: exact_oracle(patched_hidden, h),
                            initial_counterexamples=[word])
    assert bisimilar(patched_hidden, relearned.machine).equivalent
    refreshed = expand_tau(annotate(relearned.machine, uds_cpm), uds_cpm)
    k2 = kripke_from_annotated(refreshed, declared=uds_cpm.declared_props)
    formula = property_library(uds_cpm)["no_invalid_key"].formula
    assert check(k2, formula).verdict == "HOLDS"


def test_replay_divergence_relearns_without_duplicate_rows(uds_violation):
    _, _, _, expanded, k, result = uds_violation
    test = concretize(result.lasso, k, expanded, "no_invalid_key")
    patched_sul, patched_hidden = build_uds_sul(reject_wrong_key=True)
    word = feedback(replay(test, patched_sul), test)
    relearned = lstar_learn(patched_sul, patched_hidden.inputs,
                            lambda h: exact_oracle(patched_hidden, h),
                            initial_counterexamples=[word])
    assert relearned.table_size[0] == 7 == len(relearned.machine.states)
    assert bisimilar(patched_hidden, relearned.machine).equivalent


def test_testcase_files_round_trip(tmp_path, uds_violation):
    _, _, _, expanded, k, result = uds_violation
    test = concretize(result.lasso, k, expanded, "no_invalid_key")
    path = tmp_path / "cases.jsonl"
    path.write_text(testkit.tests_jsonl([test]), encoding="utf-8")
    (back,) = read_tests(path)
    assert back == test

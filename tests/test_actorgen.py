"""Actor-model construction and source emission."""

import random

import pytest

from protocheck import (TIMEOUT_PROP,
                        annotate, apply_timeout_mutation, build_emrtd_machine,
                        build_ir, emit_rebeca, expand_tau)
from protocheck.actorgen import (QUEUE_CAPACITY, ActorGenError, input_msgsrv_name,
                                 output_msgsrv_name)
from protocheck.automata import MealyMachine
from protocheck.cpm import AnnotatedMachine, Condition, Cpm, parse_cpm
from protocheck.fixtures import fixture_text
from helpers import random_machine, random_cpm


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_two_state_ir_shape(two_state_annotated, two_state_cpm):
    ir = build_ir(two_state_annotated, two_state_cpm)
    assert ir.temp_props == ("omega2set",)
    assert ir.state_props == ("p",)
    assert ir.updates == {("q1", "sigma1"): (("p", True),),
                          ("q2", "sigma1"): (("p", False),)}
    assert ir.step("q1", frozenset(), "sigma1") == ("q2", "omega1", frozenset({"p"}))
    assert ir.step("q2", frozenset({"p"}), "sigma1") == ("q1", "omega2", frozenset())
    assert set(ir.output_cases) == {"omega1", "omega2"}
    assert ir.output_cases["omega2"] == ((0, frozenset({"omega2set"})),)
    assert QUEUE_CAPACITY == 3 and not ir.timeout


def test_ir_without_map_moves_state_only(two_state_machine):
    ir = build_ir(annotate(two_state_machine, Cpm()), Cpm())
    assert ir.state_props == () and ir.temp_props == ()
    assert set(ir.updates) == set(two_state_machine.transitions)
    assert set(ir.updates.values()) == {()}


def test_emrtd_ir_reproduces_published_fragment(emrtd_cpm):
    machine, _ = build_emrtd_machine()
    ir = build_ir(annotate(machine, emrtd_cpm), emrtd_cpm)
    assert ir.updates[("1", "BAC")] == (("AUTH", True),)
    assert ir.machine.transitions[("1", "BAC")] == ("2", "9000")
    assert ir.machine.inputs.index("BAC") == 28
    assert ir.machine.inputs.index("RD_BIN") == 22
    assert ir.machine.inputs.index("SSEL_EF_DG1") == 32


def one_state(inputs, transitions) -> AnnotatedMachine:
    machine = MealyMachine(("q",), inputs, ("o",), "q", transitions, require_complete=False)
    return AnnotatedMachine(machine, {})


@pytest.mark.parametrize("build,message", [
    (lambda: build_ir(one_state(("x", "y"), {("q", "x"): ("q", "o")}), Cpm()),
     "machine is not input-complete: missing [('q', 'y')]"),
    (lambda: build_ir(one_state(
        ("A.B", "A-B"), {("q", "A.B"): ("q", "o"), ("q", "A-B"): ("q", "o")}), Cpm()),
     "input symbols 'A.B' and 'A-B' map to the same identifier 'pp_a_b'"),
], ids=["incomplete", "identifier-collision"])
def test_actor_model_errors(build, message):
    with pytest.raises(ActorGenError) as caught:
        build()
    assert str(caught.value) == message


def test_ir_rejects_expanded_machine(two_state_annotated, two_state_cpm):
    with pytest.raises(ActorGenError, match="unexpanded"):
        build_ir(expand_tau(two_state_annotated, two_state_cpm), two_state_cpm)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_emit_matches_golden(two_state_annotated, two_state_cpm):
    ir = build_ir(two_state_annotated, two_state_cpm)
    assert emit_rebeca(ir) == fixture_text("illustrative.rebeca")


def test_emit_is_deterministic(two_state_annotated, two_state_cpm):
    a = emit_rebeca(build_ir(two_state_annotated, two_state_cpm))
    b = emit_rebeca(build_ir(two_state_annotated, two_state_cpm))
    assert a == b


def test_emit_single_input_degenerate_choice(two_state_annotated, two_state_cpm):
    text = emit_rebeca(build_ir(two_state_annotated, two_state_cpm))
    assert "int data = 0;" in text
    assert "?(" not in text


def test_emit_emrtd_fragments(emrtd_cpm):
    machine, _ = build_emrtd_machine()
    text = emit_rebeca(build_ir(annotate(machine, emrtd_cpm), emrtd_cpm))
    # temporary resets in the request handler
    assert "ureadok=false;" in text
    assert "sreadok=false;" in text
    # per-input case ladder in the shared positive-status handler
    assert "case 22: readok=true;ureadok=true;break;" in text
    assert "case 28: break;" in text
    assert "case 1: break;" in text
    assert "msgsrv pp_bac()" in text
    assert "msgsrv pp_rd_bin()" in text
    assert "msgsrv pp_ssel_ef_dg1()" in text
    assert "msgsrv req_9000(int data)" in text
    assert "int data = ?(0,1," in text
    assert "auth=true;" in text


def test_identifier_mapping():
    assert input_msgsrv_name("sigma1") == "sigma1"
    assert input_msgsrv_name("BAC") == "pp_bac"
    assert input_msgsrv_name("SSEL_EF_DG1") == "pp_ssel_ef_dg1"
    assert output_msgsrv_name("omega1") == "omega1"
    assert output_msgsrv_name("9000") == "req_9000"
    assert output_msgsrv_name("6a82") == "req_6a82"
    assert output_msgsrv_name("7f") == "req_7f"


def test_initial_propositions_emit_constructor():
    # a gain on a transition back into the initial state labels it, and the
    # generated system actor must start with that valuation
    from protocheck import MealyMachine
    m = MealyMachine(("h0", "h1"), ("x",), ("go",), "h0",
                     {("h0", "x"): ("h1", "go"), ("h1", "x"): ("h0", "go")})
    cpm = Cpm(gains=(Condition(frozenset({"LOOPED"}), ("x",), ("go",)),))
    a = annotate(m, cpm)
    assert a.label("h0") == frozenset({"LOOPED"})
    text = emit_rebeca(build_ir(a, cpm))
    assert "System() {" in text
    assert "looped=true;" in text


def test_no_constructor_when_initial_unlabeled(two_state_annotated, two_state_cpm):
    text = emit_rebeca(build_ir(two_state_annotated, two_state_cpm))
    assert "System() {" not in text


# ---------------------------------------------------------------------------
# timeout mutation
# ---------------------------------------------------------------------------

def test_mutation_adds_timeout_machinery(two_state_annotated, two_state_cpm):
    ir = apply_timeout_mutation(build_ir(two_state_annotated, two_state_cpm))
    assert TIMEOUT_PROP in ir.temp_props
    assert ir.timeout
    text = emit_rebeca(ir)
    assert "int to = ?(0,1);" in text
    assert "environment.timeout();" in text
    assert "msgsrv timeout() {" in text
    assert "timeout=false;" in text      # reset with the other temporaries
    assert "timeout=true;" in text


def test_an_output_named_like_the_timeout_message_is_rejected():
    m = MealyMachine(("s",), ("a",), ("timeout",), "s", {("s", "a"): ("s", "timeout")})
    with pytest.raises(ActorGenError) as caught:
        build_ir(annotate(m, Cpm()), Cpm())
    assert str(caught.value) == ("alphabet symbols collide with reserved message "
                                 "names: ['timeout']")


def test_mutation_name_collision_rejected(two_state_machine):
    cpm = parse_cpm("[TAUS]\nTIMEOUT | * | omega1\n")
    ir = build_ir(annotate(two_state_machine, cpm), cpm)
    with pytest.raises(ActorGenError, match="TIMEOUT"):
        apply_timeout_mutation(ir)


def test_mutation_refuses_a_temporary_named_like_its_variable(two_state_machine):
    """The timeout variable and a lower-case ``timeout`` temporary share one
    identifier: the mutation, not the emitter, refuses the map."""
    cpm = parse_cpm("[TAUS]\ntimeout | * | omega1\n")
    ir = build_ir(annotate(two_state_machine, cpm), cpm)
    with pytest.raises(ActorGenError) as caught:
        apply_timeout_mutation(ir)
    assert str(caught.value) == ("proposition symbols 'TIMEOUT' and 'timeout' map to the "
                                 "same identifier 'timeout'")


# ---------------------------------------------------------------------------
# co-simulation: the actor state mirrors the annotation exactly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_simulated_propositions_track_labels(seed):
    rng = random.Random(3000 + seed)
    machine = random_machine(rng, max_states=6, max_inputs=4)
    cpm = random_cpm(rng, machine)
    a = annotate(machine, cpm)
    ir = build_ir(a, cpm)
    sim_state, props = machine.initial, ir.initial_props
    assert props == a.label(machine.initial)
    state = machine.initial
    for _ in range(60):
        sym = rng.choice(machine.inputs)
        sim_state, out, props = ir.step(sim_state, props, sym)
        state, expected_out = machine.transitions[(state, sym)]
        assert out == expected_out
        assert sim_state == state
        assert props == a.label(state)

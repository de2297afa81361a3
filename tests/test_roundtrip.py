"""Round-trip verdicts on seeded actor models that each carry one defect.

Every case builds the actor model of a seeded machine under a seeded map,
breaks it in one place (the IR or its state space), explores and collapses
it, and pins the exact verdict of ``compare_roundtrip``: its message, or the
exception it raises.
"""

import dataclasses
import random

import pytest

from protocheck import MachineError, annotate, build_ir, collapse, explore
from protocheck.statespace import StateSpaceError, compare_roundtrip
from helpers import random_cpm, random_machine, with_transition


def seeded_model(seed):
    """(annotated machine, map, actor model, generator for the defect)."""
    rng = random.Random(seed)
    machine = random_machine(rng, max_states=6, max_inputs=4)
    cpm = random_cpm(rng, machine)
    a = annotate(machine, cpm)
    return a, cpm, build_ir(a, cpm), rng


def change_branch(a, ir, rng, field):
    """The transition of one state on one input gets another output, target
    or update of one state proposition."""
    m = ir.machine
    sym = rng.choice(m.inputs)
    key = (m.states[rng.randrange(len(m.states))], sym)
    target, output = m.transitions[key]
    if field == "output":
        case = m.inputs.index(sym)
        # only outputs whose handler has a case for this input can be sent
        return with_transition(ir, key, target, rng.choice([
            out for out, cases in sorted(ir.output_cases.items())
            if out != output and any(c == case for c, _ in cases)]))
    if field == "target":
        return with_transition(ir, key, rng.choice([q for q in m.states if q != target]),
                               output)
    p = rng.choice(ir.state_props or ("A",))
    kept = tuple(u for u in ir.updates[key] if u[0] != p)
    return dataclasses.replace(
        ir, updates={**ir.updates, key: kept + ((p, p not in a.label(target)),)})


def flip_temporary(ir, rng):
    """One output case raises one temporary more or one fewer."""
    out = rng.choice(sorted(ir.output_cases))
    cases = list(ir.output_cases[out])
    i = rng.randrange(len(cases))
    case, temps = cases[i]
    cases[i] = (case, temps ^ {rng.choice(ir.temp_props or ("T1",))})
    return dataclasses.replace(ir, output_cases={**ir.output_cases, out: tuple(cases)})


def wrong_initial_props(ir, rng):
    flipped = ir.initial_props ^ {rng.choice(ir.state_props or ("A",))}
    return dataclasses.replace(ir, initial_props=flipped)


def ready_nodes(lts):
    return [n.index for n in lts.nodes if n.phase == "ready"]


def fork_edge(lts, rng):
    """A second edge on one input out of one ready node, into a pending
    node that delivers another outcome."""
    succ = {src: (label, dst) for src, label, dst in lts.edges
            if lts.nodes[src].phase == "out"}
    ready = rng.choice(ready_nodes(lts))
    sym, pending = rng.choice([(label, dst) for src, label, dst in lts.edges if src == ready])
    other = rng.choice([p for p, outcome in sorted(succ.items()) if outcome != succ[pending]])
    return dataclasses.replace(lts, edges=lts.edges + ((ready, sym, other),))


def drop_one_input(lts, rng):
    """One ready node loses its edge on one input."""
    ready = rng.choice(ready_nodes(lts))
    edge = rng.choice([e for e in lts.edges if e[0] == ready])
    return dataclasses.replace(lts, edges=tuple(e for e in lts.edges if e != edge))


def drop_input_everywhere(lts, rng):
    """No ready node issues one input any more."""
    sym = rng.choice(sorted({label for src, label, _ in lts.edges
                             if lts.nodes[src].phase == "ready"}))
    return dataclasses.replace(lts, edges=tuple(
        e for e in lts.edges if not (lts.nodes[e[0]].phase == "ready" and e[1] == sym)))


def defective_roundtrip(kind, seed):
    """The round-trip message for the seeded model with one defect of
    ``kind``."""
    a, cpm, ir, rng = seeded_model(seed)
    if kind in ("output", "target", "prop_updates"):
        ir = change_branch(a, ir, rng, kind)
    elif kind == "temporaries":
        ir = flip_temporary(ir, rng)
    elif kind == "initial_props":
        ir = wrong_initial_props(ir, rng)
    lts = explore(ir)
    if kind == "fork":
        lts = fork_edge(lts, rng)
    elif kind == "partial":
        lts = drop_one_input(lts, rng)
    elif kind == "alphabet":
        lts = drop_input_everywhere(lts, rng)
    return compare_roundtrip(a, cpm, lts, collapse(lts)).message


PINNED = [
    ("output", 1, "behavior differs on input word ['i0']"),
    ("output", 3, "behavior differs on input word ['i1']"),
    ("output", 10, "behavior differs on input word ['i0', 'i0']"),
    ("output", 12, "behavior differs on input word ['i0', 'i1', 'i2']"),
    ("target", 1, "behavior differs on input word ['i0', 'i0']"),
    ("target", 5, "behavior differs on input word ['i1', 'i0']"),
    ("target", 7, "behavior differs on input word ['i1', 'i0', 'i0', 'i1']"),
    ("target", 9, "behavior differs on input word ['i2', 'i0']"),
    ("prop_updates", 1, "labels differ after input word ['i0']"),
    ("prop_updates", 6, "labels differ after input word ['i0']"),
    ("prop_updates", 9, "labels differ after input word ['i2']"),
    ("prop_updates", 10, "labels differ after input word ['i0', 'i0']"),
    ("temporaries", 0, "temporaries differ on input word ['i2']"),
    ("temporaries", 5, "temporaries differ on input word ['i1', 'i0']"),
    ("temporaries", 9, "temporaries differ on input word ['i0', 'i0']"),
    ("temporaries", 12, "temporaries differ on input word ['i0', 'i1', 'i2']"),
    ("initial_props", 0, "labels differ after input word []"),
    ("initial_props", 7, "labels differ after input word []"),
    ("fork", 0, "collapsed model is nondeterministic"),
    ("fork", 3, "collapsed model is nondeterministic"),
]


@pytest.mark.parametrize("kind,seed,message", PINNED,
                         ids=[f"{kind}-{seed}" for kind, seed, _ in PINNED])
def test_one_defect_gets_its_verdict(kind, seed, message):
    assert defective_roundtrip(kind, seed) == message


RAISED = [
    ("partial", 0, StateSpaceError, "collapsed model is partial: no outcome for ('q3', 'i2')"),
    ("partial", 3, StateSpaceError, "collapsed model is partial: no outcome for ('q1', 'i0')"),
    ("partial", 13, StateSpaceError, "collapsed model is partial: no outcome for ('q1', 'i1')"),
    ("partial", 1, MachineError, "input alphabets differ"),
    ("alphabet", 2, MachineError, "input alphabets differ"),
    ("alphabet", 5, MachineError, "input alphabets differ"),
]


@pytest.mark.parametrize("kind,seed,error,message", RAISED,
                         ids=[f"{kind}-{seed}" for kind, seed, _, _ in RAISED])
def test_a_broken_state_space_raises(kind, seed, error, message):
    with pytest.raises(error) as raised:
        defective_roundtrip(kind, seed)
    assert str(raised.value) == message


def test_the_seeded_models_pass_unbroken():
    for seed in {seed for _, seed, _ in PINNED} | {seed for _, seed, _, _ in RAISED}:
        a, cpm, ir, _ = seeded_model(seed)
        lts = explore(ir)
        assert compare_roundtrip(a, cpm, lts, collapse(lts)).message == "PASS"

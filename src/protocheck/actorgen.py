"""Two-actor model construction and Rebeca source emission.

An annotated machine becomes a pair of actors: a system actor owning the
state variable plus one boolean per state proposition, and an environment
actor that nondeterministically picks inputs, collects outputs, and owns one
boolean per temporary proposition.  The environment's request handler resets
all temporaries and fires the next input; each output handler sets the
temporaries matched by the proposition map for the provoking input (passed
as a case index) and calls request again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import partial

from .automata import MealyMachine
from .cpm import AnnotatedMachine, Cpm

TIMEOUT_PROP = "TIMEOUT"
QUEUE_CAPACITY = 3
# the environment's own messages, which label state-space edges as the
# machine's inputs and outputs do
REQ_LABEL = "req"
TIMEOUT_LABEL = "timeout"


class ActorGenError(ValueError):
    """Raised for machines or maps the template cannot express."""


@dataclass(frozen=True)
class ActorModelIR:
    machine: MealyMachine
    state_props: tuple[str, ...]
    temp_props: tuple[str, ...]
    # (state, input) -> the (proposition, value) pairs that transition sets,
    # keyed like machine.transitions, which gives its target and output
    updates: dict[tuple[str, str], tuple[tuple[str, bool], ...]]
    # output symbol -> (case index, temp props set there), occurring cases only
    output_cases: dict[str, tuple[tuple[int, frozenset[str]], ...]]
    initial_props: frozenset[str]
    # the timeout fault: every input may instead reset the system and time out
    timeout: bool = False
    # each symbol's Rebeca identifier by kind, decided when the IR is made:
    # two symbols of one kind, or a variable and a message, never share one
    in_names: dict[str, str] = field(init=False, repr=False, compare=False)
    out_names: dict[str, str] = field(init=False, repr=False, compare=False)
    prop_vars: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.machine
        clash = (set(m.inputs) | set(m.outputs)) & {REQ_LABEL, TIMEOUT_LABEL}
        if clash:
            raise ActorGenError(
                f"alphabet symbols collide with reserved message names: {sorted(clash)}")
        in_names = _name_table(m.inputs, input_msgsrv_name, "input")
        out_names = _name_table(self.output_cases, output_msgsrv_name, "output")
        prop_vars = _name_table(self.state_props + self.temp_props, prop_var_name,
                                "proposition")
        messages = {*in_names.values(), *out_names.values()}
        for var in [*prop_vars.values(), "state"]:
            if var in messages:
                raise ActorGenError(f"identifier collision on {var!r}")
        # set once, past the frozen __setattr__, as cached_property does
        vars(self).update(in_names=in_names, out_names=out_names, prop_vars=prop_vars)

    def step(self, state: str, props: frozenset[str],
             symbol: str) -> tuple[str, str, frozenset[str]]:
        """The system actor's handler for ``symbol`` at ``state``, as the
        emitted source encodes it: the target, the output and the
        propositions after the transition's updates."""
        target, output = self.machine.transitions[(state, symbol)]
        updates = self.updates[(state, symbol)]
        if updates:
            props = set(props)
            for p, value in updates:
                (props.add if value else props.discard)(p)
            props = frozenset(props)
        return target, output, props


def build_ir(a: AnnotatedMachine, cpm: Cpm) -> ActorModelIR:
    """Instantiate the template from an unexpanded annotated machine.

    Temporary-proposition information is drawn from the map's temporary
    rules, so the machine must be the plain annotated one (internal states
    are a view for checking, not an input here).
    """
    if a.tau_states:
        raise ActorGenError("build the actor model from the unexpanded machine")
    m = a.machine
    missing = [(q, s) for q in m.states for s in m.inputs if (q, s) not in m.transitions]
    if missing:
        raise ActorGenError(f"machine is not input-complete: missing {missing[:3]}")

    state_props = tuple(sorted(cpm.state_props))
    temp_props = tuple(sorted(cpm.temp_props))

    # one pass in state order, then input order: the output handlers'
    # cases are kept in the order they are first met
    updates: dict[tuple[str, str], tuple[tuple[str, bool], ...]] = {}
    output_cases: dict[str, list[tuple[int, frozenset[str]]]] = {}
    seen_pairs = set()
    for q in m.states:
        src_labels = a.label(q)
        for case, sym in enumerate(m.inputs):
            dst, out = m.transitions[(q, sym)]
            dst_labels = a.label(dst)
            updates[(q, sym)] = tuple((p, p in dst_labels) for p in state_props
                                      if (p in dst_labels) != (p in src_labels))
            if (case, out) not in seen_pairs:
                seen_pairs.add((case, out))
                output_cases.setdefault(out, []).append((case, cpm.raised_temps(sym, out)))

    return ActorModelIR(
        machine=m,
        state_props=state_props,
        temp_props=temp_props,
        updates=updates,
        output_cases={out: tuple(sorted(v)) for out, v in output_cases.items()},
        initial_props=a.label(m.initial),
    )


def apply_timeout_mutation(ir: ActorModelIR) -> ActorModelIR:
    """Give every input handler a nondeterministic alternative that resets
    the system to its initial state (propositions included) and calls a new
    environment timeout handler, which raises the reserved timeout temporary.
    The choice carries no probability: it is Rebeca's ``?(0,1)``.  A map
    whose propositions already take the timeout variable is refused."""
    return replace(
        ir,
        temp_props=tuple(sorted(ir.temp_props + (TIMEOUT_PROP,))),
        timeout=True,
    )


# ---------------------------------------------------------------------------
# Identifier mapping
# ---------------------------------------------------------------------------
#
# Symbols that are already lower-case identifiers pass through; anything
# else is lower-cased and sanitized behind a fixed prefix (protocol-port
# style for inputs, request style for outputs).  Proposition variables are
# the lower-cased proposition names.

_LOWER_ID = re.compile(r"^[a-z][a-z0-9_]*$")
_RESERVED = {"state", "data", "to", "req", "timeout", "self", "main",
             "system", "environment", "switch", "case", "if", "else",
             "boolean", "int", "true", "false", "msgsrv", "statevars",
             "knownrebecs", "reactiveclass", "break", "default"}


def _sanitize(symbol: str) -> str:
    # always used behind a pp_/req_ prefix, so a digit start is fine
    return re.sub(r"[^A-Za-z0-9_]", "_", symbol).lower() or "sym"


def _msgsrv_name(prefix: str, symbol: str) -> str:
    if _LOWER_ID.match(symbol) and symbol not in _RESERVED:
        return symbol
    return prefix + _sanitize(symbol)


input_msgsrv_name = partial(_msgsrv_name, "pp_")
output_msgsrv_name = partial(_msgsrv_name, "req_")


def prop_var_name(prop: str) -> str:
    return prop.lower()


def _name_table(symbols, namer, kind: str) -> dict[str, str]:
    used: dict[str, str] = {}
    for sym in symbols:
        name = namer(sym)
        if name in used:
            raise ActorGenError(
                f"{kind} symbols {used[name]!r} and {sym!r} map to the same "
                f"identifier {name!r}")
        used[name] = sym
    return {sym: name for name, sym in used.items()}


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

_IND = "   "


def emit_rebeca(ir: ActorModelIR) -> str:
    """Deterministic Rebeca source for the two-actor model.

    Formatting is fixed (alphabet order, sorted proposition names, stable
    indentation) so equal IRs yield byte-identical text.
    """
    m = ir.machine
    in_names, out_names, prop_vars = ir.in_names, ir.out_names, ir.prop_vars
    state_index = {q: i for i, q in enumerate(m.states)}
    temp_vars = [prop_vars[p] for p in ir.temp_props]

    lines: list[str] = []
    emit = lines.append

    emit(f"reactiveclass Environment({QUEUE_CAPACITY}) {{")
    emit(f"{_IND}statevars {{")
    for var in temp_vars:
        emit(f"{_IND}{_IND}boolean {var};")
    emit(f"{_IND}}}")
    emit(f"{_IND}knownrebecs {{")
    emit(f"{_IND}{_IND}System system;")
    emit(f"{_IND}}}")
    emit(f"{_IND}Environment() {{")
    emit(f"{_IND}{_IND}self.req();")
    emit(f"{_IND}}}")

    emit(f"{_IND}msgsrv req() {{")
    for var in temp_vars:
        emit(f"{_IND}{_IND}{var}=false;")
    if len(m.inputs) == 1:
        emit(f"{_IND}{_IND}int data = 0;")
    else:
        choice = ",".join(str(i) for i in range(len(m.inputs)))
        emit(f"{_IND}{_IND}int data = ?({choice});")
    emit(f"{_IND}{_IND}switch(data) {{")
    for i, sym in enumerate(m.inputs):
        emit(f"{_IND}{_IND}{_IND}case {i}: system.{in_names[sym]}(); break;")
    emit(f"{_IND}{_IND}}}")
    emit(f"{_IND}}}")

    for out in sorted(ir.output_cases, key=lambda o: out_names[o]):
        cases = ir.output_cases[out]
        emit(f"{_IND}msgsrv {out_names[out]}(int data) {{")
        temp_sets = {temps for _, temps in cases}
        if temp_sets == {frozenset()}:
            pass
        elif len(temp_sets) == 1:
            for p in sorted(next(iter(temp_sets))):
                emit(f"{_IND}{_IND}{prop_vars[p]}=true;")
        else:
            emit(f"{_IND}{_IND}switch(data) {{")
            for case, temps in cases:
                setters = "".join(f"{prop_vars[p]}=true;" for p in sorted(temps))
                body = f"{setters}break;" if setters else "break;"
                emit(f"{_IND}{_IND}{_IND}case {case}: {body}")
            emit(f"{_IND}{_IND}}}")
        emit(f"{_IND}{_IND}self.req();")
        emit(f"{_IND}}}")

    if ir.timeout:
        emit(f"{_IND}msgsrv timeout() {{")
        emit(f"{_IND}{_IND}{prop_vars[TIMEOUT_PROP]}=true;")
        emit(f"{_IND}{_IND}self.req();")
        emit(f"{_IND}}}")

    emit("}")

    emit(f"reactiveclass System({QUEUE_CAPACITY}) {{")
    emit(f"{_IND}statevars {{")
    emit(f"{_IND}{_IND}int state;")
    for p in ir.state_props:
        emit(f"{_IND}{_IND}boolean {prop_vars[p]};")
    emit(f"{_IND}}}")
    emit(f"{_IND}knownrebecs {{")
    emit(f"{_IND}{_IND}Environment environment;")
    emit(f"{_IND}}}")
    if ir.initial_props:
        emit(f"{_IND}System() {{")
        for p in sorted(ir.initial_props):
            emit(f"{_IND}{_IND}{prop_vars[p]}=true;")
        emit(f"{_IND}}}")

    last = len(m.states) - 1
    for case, sym in enumerate(m.inputs):
        emit(f"{_IND}msgsrv {in_names[sym]}() {{")
        if ir.timeout:
            emit(f"{_IND}{_IND}int to = ?(0,1);")
            emit(f"{_IND}{_IND}if(to==1) {{")
            emit(f"{_IND}{_IND}{_IND}state={state_index[m.initial]};")
            for p in ir.state_props:
                value = "true" if p in ir.initial_props else "false"
                emit(f"{_IND}{_IND}{_IND}{prop_vars[p]}={value};")
            emit(f"{_IND}{_IND}{_IND}environment.timeout();")
            emit(f"{_IND}{_IND}}} else")
        # one guard arm per state
        for i, q in enumerate(m.states):
            target, out = m.transitions[(q, sym)]
            emit(f"{_IND}{_IND}if(state=={i}) {{")
            emit(f"{_IND}{_IND}{_IND}state={state_index[target]};")
            for p, value in ir.updates[(q, sym)]:
                emit(f"{_IND}{_IND}{_IND}{prop_vars[p]}={'true' if value else 'false'};")
            emit(f"{_IND}{_IND}{_IND}environment.{out_names[out]}({case});")
            emit(f"{_IND}{_IND}}} else" if i < last else f"{_IND}{_IND}}}")
        emit(f"{_IND}}}")

    emit("}")
    emit("main {")
    emit(f"{_IND}Environment environment(system):();")
    emit(f"{_IND}System system(environment):();")
    emit("}")
    return "\n".join(lines) + "\n"


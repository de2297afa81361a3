"""Checker witnesses: the product ceiling, generalized acceptance, length,
and the label quotient that proves holding properties before the search.

Every witness is a lasso over Kripke states that ``check`` has already
replayed through direct semantics; these tests pin what it looks like.
"""

import hashlib
import importlib.util
import random
import re
import sys
from collections import Counter, deque
from pathlib import Path

import pytest

from protocheck import annotate, build_uds_machine, expand_tau, parse_cpm, parse_dot
from protocheck.ltl import (HOLDS, PROPERTY_TEMPLATES, VIOLATED, CeilingError,
                            KripkeStructure, Lasso, Not, _classify, _path, _Product, check,
                            instantiate, kripke_from_annotated, ltl_to_buchi, parse_ltl,
                            property_library, to_nnf)
from helpers import BOUNDED_HOLDS, bounded_oracle, random_formula

GENERATORS = Path(__file__).resolve().parents[1] / "perfbench" / "generators.py"
WITNESS_DIGEST = "6d2a5ea3ec2bfa1642a348f5865c6a90fe305201d101b29ed4ab3ad978ac004d"


def _ring(n: int, labels=None) -> KripkeStructure:
    states = tuple(f"r{i}" for i in range(n))
    return KripkeStructure(
        states=states, initial=(states[0],),
        successors={q: (states[(i + 1) % n],) for i, q in enumerate(states)},
        labels=labels or {}, atomic_props=frozenset({"p"}))


@pytest.mark.parametrize("text", ["G F p", "G !p"])
def test_product_ceiling_raises(text):
    """Ten ring states with pairwise distinct labels, so the label quotient
    is the ring itself: each search needs more than five product states,
    whether or not the property holds."""
    k = _ring(10, {f"r{i}": frozenset({f"r{i}"}) for i in range(10)})
    expected = check(k, parse_ltl(text))
    assert expected.verdict == (VIOLATED if text == "G F p" else HOLDS)
    with pytest.raises(CeilingError, match=r"^product state ceiling exceeded \(5\)$"):
        check(k, parse_ltl(text), max_product_states=5)


def test_quotient_proves_within_the_ceiling_the_product_exceeds():
    """On the unlabelled ring the quotient is one node with a self-loop:
    it proves G !p within five states.  For G F p it finds a component, so
    the search falls through to the ring's own product, which needs more."""
    k = _ring(10)
    assert check(k, parse_ltl("G !p"), max_product_states=5).verdict == HOLDS
    with pytest.raises(CeilingError, match=r"^product state ceiling exceeded \(5\)$"):
        check(k, parse_ltl("G F p"), max_product_states=5)


def test_automaton_ceiling_raises_one_line(uds_cpm):
    """200 nested Untils: each Release of the negation splits every cover,
    so the expansion opens more than 10,000 branches in its first state."""
    expanded = expand_tau(annotate(build_uds_machine()[0], uds_cpm), uds_cpm)
    k = kripke_from_annotated(expanded, declared=uds_cpm.declared_props)
    f = parse_ltl("AUTH U (" * 200 + "PROT" + ")" * 200)
    with pytest.raises(CeilingError) as caught:
        check(k, f, max_product_states=10_000)
    assert str(caught.value) == "automaton state ceiling exceeded (10000)"


def test_loop_meets_every_acceptance_set():
    """The negation G F a && G F b has two acceptance marks.  From the
    start, the a-only self-loop at x is reachable as well as the cycle
    x -> y -> x; only the latter is a witness, and with the marks on edges
    it needs no second pass through x."""
    formula = parse_ltl("!(G F a && G F b)")
    assert ltl_to_buchi(to_nnf(Not(formula))).mark_count == 2
    k = KripkeStructure(
        states=("i", "x", "y"), initial=("i",),
        successors={"i": ("x",), "x": ("x", "y"), "y": ("x",)},
        labels={"x": frozenset({"a"}), "y": frozenset({"b"})},
        atomic_props=frozenset({"a", "b"}))
    result = check(k, formula)
    assert result.verdict == VIOLATED
    assert result.lasso.stem == ("i",)
    assert result.lasso.loop == ("x", "y")


def _library_witnesses(machine, cpm):
    expanded = expand_tau(annotate(machine, cpm), cpm)
    k = kripke_from_annotated(expanded, declared=cpm.declared_props)
    results = {name: check(k, p.formula) for name, p in property_library(cpm).items()}
    return {name: r.lasso for name, r in results.items() if r.verdict == VIOLATED}


def test_uds_library_witnesses_are_short(uds_cpm):
    witnesses = _library_witnesses(build_uds_machine()[0], uds_cpm)
    assert sorted(witnesses) == ["no_invalid_key", "plain_read_only_outside_protected"]
    for lasso in witnesses.values():
        assert len(lasso.stem) <= 7 and len(lasso.loop) <= 2, lasso


def _benchmark_generators():
    spec = importlib.util.spec_from_file_location("_bench_generators", GENERATORS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_library_witnesses_stay_short_on_a_500_state_machine():
    """The benchmark's uniform 500-state, 10-input machine under its
    synthetic map, where the first depth-first lasso was 195 to 462
    states long."""
    gen = _benchmark_generators()
    m = gen.uniform_machine(random.Random(7), 500, 10)
    outputs = tuple(sorted({out for _, out in m.delta.values()}))
    witnesses = _library_witnesses(parse_dot(gen.emit_dot(m)),
                                   parse_cpm(gen.synthetic_cpm(m, outputs)))
    assert len(witnesses) == 4
    for lasso in witnesses.values():
        assert len(lasso.stem) + len(lasso.loop) <= 60, lasso


def _few_labels(rng: random.Random) -> KripkeStructure:
    """12 to 20 states over two propositions, one or two successors each:
    at most four labels, so the quotient merges many states."""
    n = rng.randint(12, 20)
    states = tuple(f"s{i}" for i in range(n))
    return KripkeStructure(
        states=states, initial=(states[0],),
        successors={q: tuple(rng.sample(states, rng.randint(1, 2))) for q in states},
        labels={q: frozenset(p for p in "ab" if rng.random() < 0.5) for q in states},
        atomic_props=frozenset("ab"))


def _over_two(text: str, rng: random.Random, two: str = "ab") -> str:
    """The formula with each of its propositions renamed to one of ``two``."""
    names = {}
    return re.sub(r"[A-Z][A-Z0-9_]+", lambda m: names.setdefault(m[0], rng.choice(two)),
                  text)


def _patterns() -> list[str]:
    """The library templates and the benchmark's six temporal patterns, six
    times each, over the benchmark's propositions."""
    gen = _benchmark_generators()
    return list(PROPERTY_TEMPLATES.values()) + [
        line.split(":", 1)[1] for line in
        gen.property_file(random.Random(5), 36, 0, 0).text.splitlines()[1:]]


def test_quotient_changes_no_verdict_and_no_witness():
    """Library and benchmark patterns on structures with few labels, where
    the quotient often shows a counterexample the structure does not have.
    ``check`` gives the verdict of the structure's own product searched
    alone by Couvreur's search, and agrees with the bounded oracle; both
    branches run.  For a strong automaton the lasso is the one built from
    that search's component; for a weak one it is no longer."""
    rng = random.Random(1313)
    patterns = _patterns()
    proved = refuted = 0
    for _ in range(30):
        k = _few_labels(rng)
        for text in patterns:
            f = parse_ltl(_over_two(text, rng))
            result = check(k, f)
            automaton = ltl_to_buchi(to_nnf(Not(f)))
            product = _Product(k, automaton, 10 ** 6)
            component = product.accepting_component()
            assert result.verdict == (HOLDS if component is None else VIOLATED)
            expected = None if component is None else product.lasso(component)
            if _classify(automaton)[1] is None or expected is None:
                assert result.lasso == expected
            else:
                assert len(result.lasso.states()) <= len(expected.states())
            if product.holds_on_quotient():
                proved += 1
            elif component is None:
                refuted += 1
            bounds = (4, 4) if component is None else (
                max(4, len(result.lasso.stem)), max(4, len(result.lasso.loop)))
            oracle = bounded_oracle(k, f, *bounds)
            assert (oracle.verdict == BOUNDED_HOLDS) == result.holds, (text, f)
    assert proved > 300 and refuted > 50, (proved, refuted)


def _tangled(rng: random.Random) -> KripkeStructure:
    """4 to 24 states over p and q, one to three of them initial, one to
    three successors each and self-loops on about a third: r is not
    declared, so formulas over it take the warning path."""
    n = rng.randint(4, 24)
    states = tuple(f"w{i}" for i in range(n))
    successors = {}
    for q in states:
        targets = rng.sample(states, rng.randint(1, min(3, n)))
        if q not in targets and rng.random() < 0.3:
            targets.append(q)
        successors[q] = tuple(targets)
    return KripkeStructure(
        states=states, initial=tuple(rng.sample(states, rng.randint(1, 3))),
        successors=successors,
        labels={q: frozenset(p for p in "pq" if rng.random() < 0.5) for q in states},
        atomic_props=frozenset("pq"))


# multi-mark negations and their renamings, next to the random formulas
_MARKED = ["G F p && G F q", "!(G F p && G F q)", "!(G F q && G F p)", "G F p -> G F q",
           "!(G F p && G F q && G F r)", "F G p || F G !q", "G(p -> F q)", "G(q -> F p)"]


def test_witness_layer_digest():
    """The repr of every ``CheckResult`` over 40 seeded structures, each
    formula checked once on one shared structure and once on a fresh one,
    pinned by one sha256: the search's visiting order fixes each witness."""
    rng = random.Random(31337)
    digest = hashlib.sha256()
    violated = 0
    for _ in range(40):
        k = _tangled(rng)
        formulas = [parse_ltl(text) for text in _MARKED]
        formulas += [random_formula(rng) for _ in range(12)]
        for f in formulas:
            shared = check(k, f)
            fresh = check(KripkeStructure(k.states, k.initial, k.successors, k.labels,
                                          k.atomic_props), f)
            assert shared == fresh
            violated += shared.verdict == VIOLATED
            digest.update(repr(shared).encode() + b"\n")
    assert violated > 200, violated
    assert digest.hexdigest() == WITNESS_DIGEST


def _brute_product(k: KripkeStructure, f):
    """The product of ``k`` with the negation automaton of ``f``, by brute
    force: the automaton, the edges ((state, automaton state), marks) out of
    a product state, and the marks every accepting cycle carries."""
    automaton = ltl_to_buchi(to_nnf(Not(instantiate(f, k.atomic_props)[0])))

    def edges(state):
        s, b = state
        letter = k.reads(k.label(s))
        return [((t, c.target), c.marks) for c in automaton.covers[b]
                if c.required <= letter and not c.forbidden & letter
                for t in k.successors[s]]

    return automaton, edges, (1 << automaton.mark_count) - 1


def _brute_cycle(edges, e, full) -> int | None:
    """The length of the shortest cycle through product state e whose edges
    carry every mark, or None if there is none."""
    layer, seen, length = set(edges(e)), set(), 1
    while layer and (e, full) not in layer:
        seen |= layer
        layer = {(r, m | m2) for q, m in layer for r, m2 in edges(q)} - seen
        length += 1
    return length if layer else None


def _shortest_lasso_length(k: KripkeStructure, f) -> int | None:
    """By brute force over every product state of ``k`` with the negation
    automaton of ``f``: the least, over reachable product states e, of e's
    breadth-first distance from a start state plus the length of the
    shortest cycle through e whose edges carry every mark; None if no
    reachable state lies on such a cycle."""
    _, edges, full = _brute_product(k, f)
    distance = {(s, 0): 0 for s in k.initial}
    queue = deque(distance)
    while queue:
        p = queue.popleft()
        for q, _ in edges(p):
            if q not in distance:
                distance[q] = distance[p] + 1
                queue.append(q)
    lengths = [d + length for e, d in distance.items()
               if (length := _brute_cycle(edges, e, full)) is not None]
    return min(lengths, default=None)


def test_weak_witnesses_are_shortest_lassos():
    """On 40 seeded structures, under the library and benchmark patterns,
    every witness of a weak automaton is as long (stem plus loop) as the
    shortest lasso that brute force finds over every product state, and
    every other witness is no shorter than it."""
    rng = random.Random(2718)
    patterns = _patterns()
    weak = strong = 0
    for _ in range(40):
        k = _tangled(rng)
        for text in patterns:
            f = parse_ltl(_over_two(text, rng, "pq"))
            result = check(k, f)
            shortest = _shortest_lasso_length(k, f)
            assert result.holds == (shortest is None), (text, f)
            if result.holds:
                continue
            length = len(result.lasso.states())
            if _classify(ltl_to_buchi(to_nnf(Not(f))))[1] is not None:
                assert length == shortest, (f, result.lasso, shortest)
                weak += 1
            else:
                assert length >= shortest, (f, result.lasso, shortest)
                strong += 1
    assert weak > 500 and strong > 20, (weak, strong)


def test_invariants_and_safety_patterns_are_weak_and_a_fairness_implication_is_strong():
    """The library templates, the benchmark's invariant conjunctions and all
    its temporal patterns but ``G(F a) -> G(F b)`` translate to weak
    negation automata; G F p -> G F q, whose negation needs two marks on one
    component, to a strong one.  G p negates to F !p: the start state
    loops on every letter without the mark, and the state owing nothing,
    entered on !p, is the one accepting component."""
    gen = _benchmark_generators()
    weak = list(PROPERTY_TEMPLATES.values()) + ["G(p -> X !q)"]
    weak += [line.split(":", 1)[1] for line in
             gen.property_file(random.Random(5), 0, 4, 12).text.splitlines()[1:]]
    weak += _patterns()[len(PROPERTY_TEMPLATES):][:5]
    for text in weak:
        assert _classify(ltl_to_buchi(to_nnf(Not(parse_ltl(text)))))[1] is not None, text
    for text in ("G F p -> G F q", _patterns()[len(PROPERTY_TEMPLATES) + 5]):
        assert _classify(ltl_to_buchi(to_nnf(Not(parse_ltl(text)))))[1] is None, text
    automaton = ltl_to_buchi(to_nnf(Not(parse_ltl("G p"))))
    assert [c.target for c in automaton.covers[0]] == [0, 1]
    assert _classify(automaton) == ((0, 1), (None, 1))


def _sequential_shortest_lasso(product: _Product, accepting) -> Lasso | None:
    """The weak pass as it was before the cycle searches ran beside the stem
    search, kept as the reference: one breadth-first pass, layer by layer,
    asks each accepting-component state for a cycle shorter than the best
    lasso so far leaves room for, each time with a fresh bounded search,
    and stops at the depth where no state can improve on it."""
    width, table = product.width, product.table
    successors, label_of = product.index.successors, product.index.label_of
    parent = dict.fromkeys(product.start)
    layer, depth, best, found = list(parent), 0, float("inf"), None
    while layer:
        for p in layer:
            if depth + 1 >= best:
                break
            if accepting[p % width] is not None and (
                    loop := _bounded_cycle(product, p, best - depth - 1)):
                best, found = depth + len(loop), (p, loop)
        depth += 1
        if depth + 1 >= best:
            break
        deeper = []
        for p in layer:
            s, b = divmod(p, width)
            for b2 in table[label_of[s]][b][1]:
                for t in successors[s]:
                    q = t * width + b2
                    if q not in parent:
                        parent[q] = p
                        deeper.append(q)
        layer = deeper
    return None if found is None else product._lasso(_path(parent, found[0]), found[1])


def _bounded_cycle(product: _Product, entry: int, limit: float) -> list[int] | None:
    """The reference pass's cycle search: the shortest cycle through
    ``entry`` whose edges carry every mark, or None if none is at most
    ``limit`` long."""
    width, table = product.width, product.table
    successors, label_of = product.index.successors, product.index.label_of
    shift, full = product.mark_count, product.full
    goal = entry << shift | full
    s, b = divmod(entry, width)
    parent = dict.fromkeys((t * width + b2) << shift | m
                           for b2, m in table[label_of[s]][b][2] for t in successors[s])
    layer, depth = list(parent), 1
    while goal not in parent:
        if depth >= limit or not layer:
            return None
        deeper = []
        for node in layer:
            s, b = divmod(node >> shift, width)
            for b2, m in table[label_of[s]][b][2]:
                marks = node & full | m
                for t in successors[s]:
                    q = (t * width + b2) << shift | marks
                    if q not in parent:
                        parent[q] = node
                        deeper.append(q)
            if goal in parent:
                break
        layer, depth = deeper, depth + 1
    return [entry] + [node >> shift for node in _path(parent, goal)[:-1]]


def test_weak_pass_returns_the_lasso_of_the_sequential_pass():
    """On 40 seeded structures, under the library and benchmark patterns,
    the weak pass returns the very lasso of the sequential reference pass,
    not only one as long, and so does ``check`` where the property fails."""
    rng = random.Random(1618)
    patterns = _patterns()
    compared = none = 0
    for _ in range(40):
        k = _tangled(rng)
        for text in patterns:
            f = parse_ltl(_over_two(text, rng, "pq"))
            automaton = ltl_to_buchi(to_nnf(Not(f)))
            accepting = _classify(automaton)[1]
            if accepting is None:
                continue
            product = _Product(k, automaton, 10 ** 6)
            expected = _sequential_shortest_lasso(product, accepting)
            assert product.shortest_lasso(accepting, k.loop_bounds) == expected, f
            assert check(k, f).lasso == expected, f
            compared += 1
            none += expected is None
    assert compared > 1500 and 500 < none < compared - 500, (compared, none)


def test_the_entry_found_first_wins_a_tie():
    """The negation of G F (p && X p) stays in a component that reads p at
    most once in a row.  From i, s1 and then s2 enter it at depth 1, and
    each lies on a product cycle of length 2: s1 -> u -> s1 over !p, and
    s2 -> t -> s2 (s2's p self-loop cannot be taken twice), so both lassos
    are 3 long.  s2's self-loop gives it bound 1 and starts its search a
    step before s1's, whose bound is 2; s1, found first, still wins."""
    k = KripkeStructure(
        states=("i", "s1", "s2", "u", "t"), initial=("i",),
        successors={"i": ("s1", "s2"), "s1": ("u",), "u": ("s1",), "s2": ("s2", "t"),
                    "t": ("s2",)},
        labels={"s2": frozenset({"p"})}, atomic_props=frozenset({"p"}))
    f = parse_ltl("G F (p && X p)")
    assert k.loop_bounds == (4, 2, 1, 2, 2)
    assert _shortest_lasso_length(k, f) == 3
    result = check(k, f)
    assert result.lasso == Lasso(stem=("i",), loop=("s1", "u"))
    swapped = KripkeStructure(k.states, k.initial, {**k.successors, "i": ("s2", "s1")},
                              k.labels, k.atomic_props)
    assert check(swapped, f).lasso == Lasso(stem=("i",), loop=("s2", "t"))


def _closed_walk(k: KripkeStructure, state: str) -> int | None:
    """The length of the shortest closed walk through ``state``, or None
    if it lies on no cycle."""
    layer, seen, length = set(k.successors[state]), set(), 1
    while layer and state not in layer:
        seen |= layer
        layer = {t for q in layer for t in k.successors[q]} - seen
        length += 1
    return length if layer else None


def test_loop_bounds_never_exceed_a_product_cycle():
    """On 30 seeded structures each state's bound is the length of its
    shortest closed walk, or 4 if there is none as short, and under the
    library and benchmark patterns with weak negations no product cycle
    through an accepting-component state over it is shorter.  The states
    include ones with self-loops, ones whose shortest closed walk is 2 or 3
    long, and ones on no cycle."""
    rng = random.Random(5772)
    patterns = _patterns()
    walks = Counter()
    cycles = 0
    for _ in range(30):
        k = _tangled(rng)
        bounds = k.loop_bounds
        assert len(bounds) == len(k.states)
        for q, bound in zip(k.states, bounds):
            walk = _closed_walk(k, q)
            assert bound == min(walk or 4, 4), (q, walk, bound)
            walks[walk if walk is None or walk < 4 else 4] += 1
        for text in patterns:
            f = parse_ltl(_over_two(text, rng, "pq"))
            automaton, edges, full = _brute_product(k, f)
            accepting = _classify(automaton)[1]
            if accepting is None:
                continue
            for q, bound in zip(k.states, bounds):
                for b in range(len(automaton.states)):
                    if accepting[b] is not None:
                        length = _brute_cycle(edges, (q, b), full)
                        assert length is None or length >= bound, (f, q, b)
                        cycles += length is not None
    assert min(walks[1], walks[2], walks[3], walks[None]) > 40 and cycles > 5000, (walks, cycles)


def test_a_weak_stem_search_past_the_ceiling_raises():
    """G F p on the unlabelled ten-state ring: the quotient is one node
    with a self-loop and shows a component within two product states.  The
    shortest lasso enters the accepting component at r1 and loops through
    all ten states, so the stem search finds the 19 product states of the
    first ten layers before the cycle search closes: a ceiling of 19 lets it
    through, one of 18 stops the stem search."""
    k = _ring(10)
    result = check(k, parse_ltl("G F p"), max_product_states=19)
    assert result.lasso == Lasso(stem=("r0",), loop=tuple(f"r{(i + 1) % 10}" for i in range(10)))
    with pytest.raises(CeilingError, match=r"^product state ceiling exceeded \(18\)$"):
        check(_ring(10), parse_ltl("G F p"), max_product_states=18)

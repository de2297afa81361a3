"""Checker witnesses: the product ceiling, generalized acceptance, length,
and the label quotient whose pass proves holding properties before the
structure's own.

Every witness is a lasso over Kripke states that ``check`` has already
replayed through direct semantics; these tests pin what it looks like.
"""

import hashlib
import importlib.util
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from protocheck import annotate, build_uds_machine, expand_tau, parse_cpm, parse_dot
from protocheck.ltl import (HOLDS, PROPERTY_TEMPLATES, VIOLATED, CeilingError,
                            KripkeStructure, Lasso, Not, _classify, _column, _path, _Product,
                            check, kripke_from_annotated, ltl_to_buchi, parse_ltl,
                            property_library, to_nnf)
from helpers import (BOUNDED_HOLDS, bounded_oracle, brute_cycle, brute_product, random_formula,
                     shortest_lasso_length)

GENERATORS = Path(__file__).resolve().parents[1] / "perfbench" / "generators.py"
WITNESS_DIGEST = "1a34a72765bfb631304d4d2f73a265a6654318cbbb61b0a7b7b0d6d9921d6aef"


def _ring(n: int, labels=None) -> KripkeStructure:
    states = tuple(f"r{i}" for i in range(n))
    return KripkeStructure(
        states=states, initial=(states[0],),
        successors={q: (states[(i + 1) % n],) for i, q in enumerate(states)},
        labels=labels or {}, atomic_props=frozenset({"p"}))


@pytest.mark.parametrize("text,ceiling", [
    pytest.param("G F p", 5, id="G F p"), pytest.param("G !p", 5, id="G !p"),
    pytest.param("!(G F !p && G F (!p && X !p))", 15, id="two marks")])
def test_product_ceiling_raises(text, ceiling):
    """Ten ring states with pairwise distinct labels, so the label quotient
    is the ring itself: each search needs more product states than the
    ceiling, whether or not the property holds.  The last negation carries
    two acceptance marks, and its translation alone opens 15 branches."""
    k = _ring(10, {f"r{i}": frozenset({f"r{i}"}) for i in range(10)})
    expected = check(k, parse_ltl(text))
    assert expected.verdict == (HOLDS if text == "G !p" else VIOLATED)
    with pytest.raises(CeilingError, match=rf"^product state ceiling exceeded \({ceiling}\)$"):
        check(k, parse_ltl(text), max_product_states=ceiling)


def test_quotient_proves_within_the_ceiling_the_product_exceeds():
    """On the unlabelled ring the quotient is one node with a self-loop:
    it proves G !p within five states.  For G F p it finds a component, so
    the search falls through to the ring's own product, which needs more."""
    k = _ring(10)
    assert check(k, parse_ltl("G !p"), max_product_states=5).verdict == HOLDS
    with pytest.raises(CeilingError, match=r"^product state ceiling exceeded \(5\)$"):
        check(k, parse_ltl("G F p"), max_product_states=5)


def test_a_quotient_pass_past_the_ceiling_falls_through_to_the_structure():
    """r0 leads to w, labelled p with a self-loop, and down an unlabelled
    chain x0 ... x5 to ten states l0 ... l9, each with its own proposition
    and a self-loop.  On the quotient the unlabelled node reaches all
    eleven labelled ones at once, so its pass for G !p reaches a ceiling of
    5 and proves nothing; the structure's own pass finds the lasso through
    w within five product states, and a ceiling of 4 stops it."""
    chain = tuple(f"x{i}" for i in range(6))
    leaves = tuple(f"l{i}" for i in range(10))
    successors = {"r0": ("w", "x0"), "w": ("w",), chain[-1]: leaves,
                  **{x: (y,) for x, y in zip(chain, chain[1:])}, **{q: (q,) for q in leaves}}
    labels = {"w": frozenset({"p"}), **{q: frozenset({f"q{i}"}) for i, q in enumerate(leaves)}}
    k = KripkeStructure(("r0", "w") + chain + leaves, ("r0",), successors, labels,
                        frozenset({"p"} | {f"q{i}" for i in range(10)}))
    result = check(k, parse_ltl("G !p"), max_product_states=5)
    assert result.verdict == VIOLATED
    assert result.lasso == Lasso(stem=("r0", "w"), loop=("w",))
    with pytest.raises(CeilingError, match=r"^product state ceiling exceeded \(4\)$"):
        check(k, parse_ltl("G !p"), max_product_states=4)


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
    ``check`` gives the verdict brute force finds on the structure's own
    product and agrees with the bounded oracle, and its witness is the
    shortest lasso of that product searched without the quotient pass;
    both branches run."""
    rng = random.Random(1313)
    patterns = _patterns()
    proved = refuted = 0
    for _ in range(30):
        k = _few_labels(rng)
        for text in patterns:
            f = parse_ltl(_over_two(text, rng))
            result = check(k, f)
            shortest = shortest_lasso_length(k, f)
            assert result.holds == (shortest is None), (text, f)
            automaton = ltl_to_buchi(to_nnf(Not(f)))
            candidate = _classify(automaton)[1]
            product = _product(k, automaton)
            quotient, structure = k.graphs
            assert result.lasso == _named(k, product.shortest_lasso(structure, candidate))
            if product.shortest_lasso(quotient, candidate) is None:
                proved += 1
            elif shortest is None:
                refuted += 1
            bounds = (4, 4) if shortest is None else (
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


def _inner_marks(automaton) -> dict[int, set[int]]:
    """By component of ``automaton`` (see ``_classify``), the marks of each
    edge inside it."""
    component = _classify(automaton)[0]
    inner: dict[int, set[int]] = {}
    for b, covers in enumerate(automaton.covers):
        for c in covers:
            if component[c.target] == component[b]:
                inner.setdefault(component[b], set()).add(c.marks)
    return inner


def _misses_a_mark_in_a_candidate(automaton) -> bool:
    """Whether an edge inside a candidate component of ``automaton`` misses
    a mark: a cycle through it alone is not accepting."""
    full = (1 << automaton.mark_count) - 1
    inner = _inner_marks(automaton)
    return any(inner[c] != {full} for c in set(_classify(automaton)[1]) - {None})


def test_every_witness_is_a_shortest_lasso():
    """On 40 seeded structures, under the library and benchmark patterns,
    every witness is as long (stem plus loop) as the shortest lasso that
    brute force finds over every product state, also where a candidate
    component holds cycles that miss a mark."""
    rng = random.Random(2718)
    patterns = _patterns()
    partial = 0
    for _ in range(40):
        k = _tangled(rng)
        for text in patterns:
            f = parse_ltl(_over_two(text, rng, "pq"))
            result = check(k, f)
            shortest = shortest_lasso_length(k, f)
            assert result.holds == (shortest is None), (text, f)
            if not result.holds:
                assert len(result.lasso.states()) == shortest, (f, result.lasso, shortest)
                partial += _misses_a_mark_in_a_candidate(ltl_to_buchi(to_nnf(Not(f))))
    assert partial > 70, partial


def test_a_candidate_component_is_one_whose_inner_edges_carry_every_mark():
    """G p negates to F !p: the start state loops on every letter without
    the mark, and the state owing nothing, entered on !p, is the one
    candidate component.  The negation of G F p -> G F q owes G F p and
    G !q in its last component, whose inner edges together carry both
    marks, though the one that reads !p carries one.  For the library
    templates, the benchmark's invariant conjunctions and its other
    temporal patterns every inner edge of a candidate component carries
    every mark, so each of their cycles there is accepting."""
    automaton = ltl_to_buchi(to_nnf(Not(parse_ltl("G p"))))
    assert [c.target for c in automaton.covers[0]] == [0, 1]
    assert _classify(automaton) == ((0, 1), (None, 1))
    fairness = ltl_to_buchi(to_nnf(Not(parse_ltl("G F p -> G F q"))))
    assert _classify(fairness)[1] == (None, None, 2)
    assert _misses_a_mark_in_a_candidate(fairness)
    gen = _benchmark_generators()
    texts = list(PROPERTY_TEMPLATES.values()) + ["G(p -> X !q)"]
    texts += [line.split(":", 1)[1] for line in
              gen.property_file(random.Random(5), 0, 4, 12).text.splitlines()[1:]]
    texts += _patterns()[len(PROPERTY_TEMPLATES):][:5]
    for text in texts:
        automaton = ltl_to_buchi(to_nnf(Not(parse_ltl(text))))
        component, candidate = _classify(automaton)
        full, inner = (1 << automaton.mark_count) - 1, _inner_marks(automaton)
        assert candidate == tuple(c if inner.get(c) == {full} else None for c in component), text


def _product(k: KripkeStructure, automaton) -> _Product:
    """The product ``check`` searches for ``automaton`` on ``k``, its table
    built from the labels themselves rather than their letters."""
    component = _classify(automaton)[0]
    return _Product(automaton, 10 ** 6, [_column(automaton, v, component)
                                         for v in k.index.labels])


def _named(k: KripkeStructure, found) -> Lasso | None:
    """The lasso over state names of a pass's stem and loop nodes."""
    return found and Lasso(*(tuple(k.states[s] for s in path) for path in found))


def _sequential_shortest_lasso(product: _Product, graph, candidate):
    """The pass as it was before the cycle searches ran beside the stem
    search, kept as the reference: one breadth-first pass, layer by layer,
    asks each candidate-component state for a cycle shorter than the best
    lasso so far leaves room for, each time with a fresh bounded search,
    and stops at the depth where no state can improve on it."""
    width, table = product.width, product.table
    successors, label_of = graph.successors, graph.label_of
    parent = dict.fromkeys(s * width for s in graph.start)
    layer, depth, best, found = list(parent), 0, float("inf"), None
    while layer:
        for p in layer:
            if depth + 1 >= best:
                break
            if candidate[p % width] is not None and (
                    loop := _bounded_cycle(product, graph, p, best - depth - 1)):
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
    return None if found is None else ([p // width for p in _path(parent, found[0])[:-1]],
                                       [p // width for p in found[1]])


def _bounded_cycle(product: _Product, graph, entry: int, limit: float) -> list[int] | None:
    """The reference pass's cycle search: the shortest cycle through
    ``entry`` whose edges carry every mark, or None if none is at most
    ``limit`` long."""
    width, table = product.width, product.table
    successors, label_of = graph.successors, graph.label_of
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
    the pass returns the very lasso of the sequential reference pass, not
    only one as long, and so does ``check`` where the property fails."""
    rng = random.Random(1618)
    patterns = _patterns()
    compared = none = 0
    for _ in range(40):
        k = _tangled(rng)
        for text in patterns:
            f = parse_ltl(_over_two(text, rng, "pq"))
            automaton = ltl_to_buchi(to_nnf(Not(f)))
            candidate = _classify(automaton)[1]
            product = _product(k, automaton)
            quotient, structure = k.graphs
            expected = _sequential_shortest_lasso(product, structure, candidate)
            assert product.shortest_lasso(structure, candidate) == expected, f
            assert check(k, f).lasso == _named(k, expected), f
            assert product.shortest_lasso(quotient, candidate) == \
                _sequential_shortest_lasso(product, quotient, candidate), f
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
    assert shortest_lasso_length(k, f) == 3
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
    library and benchmark patterns no product cycle through a
    candidate-component state over it that carries every mark is shorter.  The states
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
            automaton, edges, full = brute_product(k, f)
            candidate = _classify(automaton)[1]
            for q, bound in zip(k.states, bounds):
                for b in range(len(automaton.states)):
                    if candidate[b] is not None:
                        length = brute_cycle(edges, (q, b), full)
                        assert length is None or length >= bound, (f, q, b)
                        cycles += length is not None
    assert min(walks[1], walks[2], walks[3], walks[None]) > 40 and cycles > 5000, (walks, cycles)


def test_a_stem_search_past_the_ceiling_raises():
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

"""Temporal logic: parser, normal form, automata, checking, oracle, library."""

import hashlib
import importlib.util
import itertools
import random
import sys
from collections import deque
from pathlib import Path

import pytest

from protocheck import (annotate, expand_tau, build_uds_machine,
                        build_emrtd_machine)
from protocheck import ltl
from protocheck.ltl import (CEILING, And, CeilingError, Always, Const, Cover, Eventually,
                            FALSE, HOLDS, Implies, KripkeStructure,
                            LtlError, Next, Not, Or, Prop, Release, TRUE,
                            Unary, Until, VIOLATED, check,
                            evaluate_on_lasso, format_formula,
                            kripke_from_annotated, lasso_valuations,
                            ltl_to_buchi, parse_ltl, parse_property_file,
                            propositions, property_library, to_nnf, vacuity,
                            PROPERTY_TEMPLATES, _shape, instantiate)
from helpers import (BOUNDED_HOLDS, PROPS, OracleBudgetError, bounded_oracle,
                     random_formula, random_kripke)
from protocheck.fixtures import fixture_text

GENERATORS = Path(__file__).resolve().parents[1] / "perfbench" / "generators.py"
FORMULA_DIGEST = "84dc2592efaba6d795dc5562769df4f91a1bc9cd0f73ab9b139b5d1c2d7636ad"


def _benchmark_generators():
    spec = importlib.util.spec_from_file_location("_bench_generators", GENERATORS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def test_parse_auth_property_shape():
    f = parse_ltl("G(!( !AUTH && PROT ) || !ACCESSOK)")
    assert f == Always(Or(Not(And(Not(Prop("AUTH")), Prop("PROT"))),
                          Not(Prop("ACCESSOK"))))


def test_parse_constants():
    assert parse_ltl("true") == TRUE
    assert parse_ltl("false") == FALSE


def test_parse_until_property_shape():
    f = parse_ltl("((!SREADOK) U SSELEFOK) || G(!SREADOK)")
    assert f == Or(Until(Not(Prop("SREADOK")), Prop("SSELEFOK")),
                   Always(Not(Prop("SREADOK"))))


def test_parse_precedence():
    # unary > U > && > || > ->
    assert parse_ltl("a U b || c") == Or(Until(Prop("a"), Prop("b")), Prop("c"))
    assert parse_ltl("!a U b") == Until(Not(Prop("a")), Prop("b"))
    assert parse_ltl("a && b U c") == And(Prop("a"), Until(Prop("b"), Prop("c")))
    assert parse_ltl("a -> b -> c") == Implies(Prop("a"), Implies(Prop("b"), Prop("c")))
    assert parse_ltl("G a -> b") == Implies(Always(Prop("a")), Prop("b"))


def test_deep_formula_hash_is_computed_when_built():
    """Each node stores its hash when it is built, from its children's
    stored hashes, so hashing a 2,000-deep conjunction reads one level."""
    f = parse_ltl(" && ".join(f"p{i}" for i in range(2000)))
    assert f in {f: None}
    assert hash(f) == hash((f.left, f.right))


@pytest.mark.parametrize("text", ["G (", "p &&", "(p", "p 5q", "U p", "p !q"])
def test_parse_errors_carry_position(text):
    with pytest.raises(LtlError, match="position"):
        parse_ltl(text)


def test_format_round_trip():
    for text in PROPERTY_TEMPLATES.values():
        f = parse_ltl(text)
        assert parse_ltl(format_formula(f)) == f


A, B, C, D, E = (Prop(name) for name in "abcde")

# every pair of binary operators (precedence, tightest first: U && || ->;
# U and -> group to the right), prefix chains and parentheses
PARSED = {
    "a -> b -> c": Implies(A, Implies(B, C)),
    "a -> b || c": Implies(A, Or(B, C)),
    "a -> b && c": Implies(A, And(B, C)),
    "a -> b U c": Implies(A, Until(B, C)),
    "a || b -> c": Implies(Or(A, B), C),
    "a || b || c": Or(Or(A, B), C),
    "a || b && c": Or(A, And(B, C)),
    "a || b U c": Or(A, Until(B, C)),
    "a && b -> c": Implies(And(A, B), C),
    "a && b || c": Or(And(A, B), C),
    "a && b && c": And(And(A, B), C),
    "a && b U c": And(A, Until(B, C)),
    "a U b -> c": Implies(Until(A, B), C),
    "a U b || c": Or(Until(A, B), C),
    "a U b && c": And(Until(A, B), C),
    "a U b U c": Until(A, Until(B, C)),
    "a U b && c || d -> e": Implies(Or(And(Until(A, B), C), D), E),
    "a -> b || c && d U e": Implies(A, Or(B, And(C, Until(D, E)))),
    "a && b -> c && d -> e": Implies(And(A, B), Implies(And(C, D), E)),
    "!G F X a": Not(Always(Eventually(Next(A)))),
    "!!a": Not(Not(A)),
    "G !a U b": Until(Always(Not(A)), B),
    "X a && F b": And(Next(A), Eventually(B)),
    "! false || G true": Or(Not(FALSE), Always(TRUE)),
    "F(a U b)": Eventually(Until(A, B)),
    "(a -> b) -> c": Implies(Implies(A, B), C),
    "(a U b) U c": Until(Until(A, B), C),
    "a && (b || c)": And(A, Or(B, C)),
    "((a))": A,
    "G(!(a && b) || c)": Always(Or(Not(And(A, B)), C)),
    "R": Prop("R"),
    "Gx && Fy": And(Prop("Gx"), Prop("Fy")),
}

PARSE_ERRORS = {
    "": "syntax error at position 0: unexpected ''",
    "   ": "syntax error at position 3: unexpected ''",
    "(": "syntax error at position 1: unexpected ''",
    "(a": "syntax error at position 2: expected rpar, got ''",
    "(a || b": "syntax error at position 7: expected rpar, got ''",
    "a && (b || c": "syntax error at position 12: expected rpar, got ''",
    "a)": "syntax error at position 1: unexpected ')'",
    "(a))": "syntax error at position 3: unexpected ')'",
    "()": "syntax error at position 1: unexpected ')'",
    "G (a -> )": "syntax error at position 8: unexpected ')'",
    "a b": "syntax error at position 2: unexpected 'b'",
    "true false": "syntax error at position 5: unexpected 'false'",
    "a &&": "syntax error at position 4: unexpected ''",
    "&& a": "syntax error at position 0: unexpected '&&'",
    "a ->  -> b": "syntax error at position 6: unexpected '->'",
    "G": "syntax error at position 1: unexpected ''",
    "!(": "syntax error at position 2: unexpected ''",
    "a U": "syntax error at position 3: unexpected ''",
    "U a": "syntax error at position 0: unexpected 'U'",
    "a R b": "syntax error at position 2: unexpected 'R'",
    "p !q": "syntax error at position 2: unexpected '!'",
    "p 5q": "syntax error at position 2: unexpected '5q'",
    "a & b": "syntax error at position 2: unexpected '& b'",
    "a - > b": "syntax error at position 2: unexpected '- > b'",
}


@pytest.mark.parametrize("text", PARSED)
def test_parse_table(text):
    f = parse_ltl(text)
    assert f == PARSED[text] and repr(f) == repr(PARSED[text])


@pytest.mark.parametrize("text", PARSE_ERRORS)
def test_parse_error_table(text):
    with pytest.raises(LtlError) as caught:
        parse_ltl(text)
    assert str(caught.value) == PARSE_ERRORS[text]


def test_parse_nesting_is_not_limited_by_recursion():
    """The parser keeps its own stacks: 5,000 levels of each kind of nesting."""
    assert parse_ltl("(" * 5000 + "a" + ")" * 5000) == A
    for text in ("!" * 5000 + "a", "X " * 5000 + "a", " -> ".join("a" * 5001)):
        f = parse_ltl(text)
        for _ in range(5000):
            f = f.right if isinstance(f, Implies) else f.child
        assert f == A


def test_property_file_bounds_formula_depth():
    def conjunction(n):
        return "G(" + " && ".join(["!a"] * n) + ")"

    parsed = parse_property_file(f"ok: {conjunction(199)}\n")
    assert parsed["ok"] == parse_ltl(conjunction(199))
    with pytest.raises(LtlError) as caught:
        parse_property_file(f"ok: {conjunction(199)}\n# next\ndeep: {conjunction(200)}\n")
    assert str(caught.value) == "line 3: formula nests 201 operators deep, more than 200"


def test_library_check_of_a_1000_conjunct_formula_gets_a_verdict():
    """Outside property files depth is not bounded: normal form, printing
    and direct semantics (run on every witness) walk the formula without
    recursion."""
    f = parse_ltl(" && ".join(["p"] * 1000))
    k_p = KripkeStructure(("a",), ("a",), {"a": ("a",)}, {"a": val("p")}, frozenset({"p"}))
    k_not_p = KripkeStructure(("a",), ("a",), {"a": ("a",)}, {"a": val()}, frozenset({"p"}))
    assert check(k_p, f).verdict == HOLDS
    result = check(k_not_p, f)
    assert result.verdict == VIOLATED
    assert not evaluate_on_lasso(f, *lasso_valuations(k_not_p, result.lasso))
    assert format_formula(f) == "(" * 998 + "p && p" + ") && p" * 998


def test_equal_deep_halves_of_a_disjunction_get_a_verdict():
    """The automaton's closure holds each deep half once: telling the two
    equal but distinct 600-deep subtrees apart takes no recursion."""
    conjunction = " && ".join(["p"] * 600)
    f = parse_ltl(f"({conjunction}) || ({conjunction})")
    assert f.left == f.right and f.left is not f.right
    assert f.left != parse_ltl(conjunction + " && q")
    k_p = KripkeStructure(("a",), ("a",), {"a": ("a",)}, {"a": val("p")}, frozenset({"p"}))
    k_not_p = KripkeStructure(("a",), ("a",), {"a": ("a",)}, {"a": val()}, frozenset({"p"}))
    assert check(k_p, f).verdict == HOLDS
    assert check(k_not_p, f).verdict == VIOLATED


def _buchi_form(f) -> str:
    auto = ltl_to_buchi(f)
    return repr((auto.states, auto.mark_count,
                 [[(sorted(c.required), sorted(c.forbidden), c.target, c.marks) for c in covers]
                  for covers in auto.covers]))


def test_formula_layer_digest():
    """Printing, repr, negation normal form and the automaton of the library
    templates, 200 random formulas and one benchmark-style property file,
    pinned by one sha256."""
    rng = random.Random(9)
    formulas = [parse_ltl(text) for text in PROPERTY_TEMPLATES.values()]
    formulas += [random_formula(rng) for _ in range(200)]
    formulas += parse_property_file(
        _benchmark_generators().property_file(random.Random(11), 170, 4, 12).text).values()
    digest = hashlib.sha256()
    for f in formulas:
        negated = to_nnf(Not(f))
        for part in (format_formula(f), repr(f), repr(negated), _buchi_form(negated)):
            digest.update(part.encode() + b"\n")
    assert digest.hexdigest() == FORMULA_DIGEST


# ---------------------------------------------------------------------------
# negation normal form
# ---------------------------------------------------------------------------

def test_nnf_not_always_becomes_until():
    assert to_nnf(Not(Always(Prop("p")))) == Until(TRUE, Not(Prop("p")))


def test_nnf_not_until_becomes_release():
    f = to_nnf(Not(Until(Prop("p"), Prop("q"))))
    assert f == Release(Not(Prop("p")), Not(Prop("q")))


def test_nnf_double_negation():
    assert to_nnf(Not(Not(Prop("p")))) == Prop("p")


def test_nnf_eliminates_sugar():
    f = to_nnf(Implies(Prop("a"), Eventually(Prop("b"))))
    assert f == Or(Not(Prop("a")), Until(TRUE, Prop("b")))


# ---------------------------------------------------------------------------
# automaton construction
# ---------------------------------------------------------------------------

def test_buchi_always_p_is_canonical_single_state():
    auto = ltl_to_buchi(to_nnf(parse_ltl("G p")))
    assert auto.states == ((Release(FALSE, Prop("p")),),)
    assert auto.covers == ((Cover(frozenset({"p"}), frozenset(), 0, 0),),)
    assert auto.mark_count == 0


def test_buchi_eventually_p_accepts_exactly_eventual_p():
    # language check through the product: p reachable vs not
    k_yes = KripkeStructure(("a", "b"), ("a",), {"a": ("b",), "b": ("b",)},
                            {"a": frozenset(), "b": frozenset({"p"})},
                            frozenset({"p"}))
    k_no = KripkeStructure(("a",), ("a",), {"a": ("a",)},
                           {"a": frozenset()}, frozenset({"p"}))
    f = parse_ltl("F p")
    assert check(k_yes, f).verdict == HOLDS
    assert check(k_no, f).verdict == VIOLATED
    assert len(ltl_to_buchi(to_nnf(f)).states) <= 3


# ---------------------------------------------------------------------------
# direct semantics on lasso words
# ---------------------------------------------------------------------------

def val(*names):
    return frozenset(names)


def test_lasso_semantics_next():
    # word: {} {p} ({p})^w   hand-computed expectations
    assert evaluate_on_lasso(parse_ltl("X p"), [val()], [val("p")])
    assert not evaluate_on_lasso(parse_ltl("p"), [val()], [val("p")])


def test_lasso_semantics_until():
    # q holds at position 2; p holds up to there
    stem = [val("p"), val("p")]
    loop = [val("q")]
    assert evaluate_on_lasso(parse_ltl("p U q"), stem, loop)
    # p gap before q arrives
    assert not evaluate_on_lasso(parse_ltl("p U q"), [val("p"), val()], [val("q")])


def test_lasso_semantics_globally_on_loop():
    assert evaluate_on_lasso(parse_ltl("G p"), [], [val("p"), val("p")])
    assert not evaluate_on_lasso(parse_ltl("G p"), [val("p")], [val("p"), val()])


def test_lasso_semantics_release():
    # false R p is G p
    f = Release(FALSE, Prop("p"))
    assert evaluate_on_lasso(f, [], [val("p")])
    assert not evaluate_on_lasso(f, [], [val("p"), val()])


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

def test_check_true_always_holds():
    k = random_kripke(random.Random(1))
    assert check(k, TRUE).verdict == HOLDS


def test_check_returns_valid_falsifying_lasso():
    k = KripkeStructure(("a", "b"), ("a",), {"a": ("b",), "b": ("a",)},
                        {"a": frozenset({"p"}), "b": frozenset()},
                        frozenset({"p"}))
    result = check(k, parse_ltl("G p"))
    assert result.verdict == VIOLATED
    stem_vals, loop_vals = lasso_valuations(k, result.lasso)
    assert not evaluate_on_lasso(parse_ltl("G p"), stem_vals, loop_vals)
    # the loop genuinely cycles
    last, first = result.lasso.loop[-1], result.lasso.loop[0]
    assert first in k.successors[last]


def test_check_undeclared_resolved_false_with_warning():
    k = KripkeStructure(("a",), ("a",), {"a": ("a",)}, {"a": frozenset()},
                        frozenset())
    result = check(k, parse_ltl("G(!GHOST)"))
    assert result.verdict == HOLDS
    assert result.substituted_false == ("GHOST",)
    assert any("GHOST" in w for w in result.warnings)


def test_undeclared_label_propositions_are_false_in_the_witness_replay():
    """p labels the only state but is not declared: the automaton reads it
    as false, and so does the replay of the witness."""
    k = KripkeStructure(("a",), ("a",), {"a": ("a",)}, {"a": frozenset({"p"})}, frozenset())
    result = check(k, parse_ltl("G p"))
    assert result.verdict == VIOLATED
    assert (result.lasso.stem, result.lasso.loop) == ((), ("a",))
    assert result.warnings == ("undeclared propositions resolved to false: p",)
    assert lasso_valuations(k, result.lasso) == ([], [frozenset()])


def test_check_emrtd_auth_property_holds(emrtd_cpm):
    machine, _ = build_emrtd_machine()
    expanded = expand_tau(annotate(machine, emrtd_cpm), emrtd_cpm)
    k = kripke_from_annotated(expanded, declared=emrtd_cpm.declared_props)
    f = property_library(emrtd_cpm)["auth_before_access"].formula
    assert check(k, f).verdict == HOLDS


def shortest_invkeyok_state(k):
    """BFS oracle: nearest reachable state labeled INVKEYOK."""
    frontier = deque([(s, (s,)) for s in k.initial])
    seen = set(k.initial)
    while frontier:
        state, path = frontier.popleft()
        if "INVKEYOK" in k.label(state):
            return path
        for succ in k.successors[state]:
            if succ not in seen:
                seen.add(succ)
                frontier.append((succ, path + (succ,)))
    return None


def test_check_uds_key_validity_violated(uds_cpm):
    machine, _ = build_uds_machine()
    expanded = expand_tau(annotate(machine, uds_cpm), uds_cpm)
    k = kripke_from_annotated(expanded, declared=uds_cpm.declared_props)
    f = property_library(uds_cpm)["no_invalid_key"].formula
    result = check(k, f)
    assert result.verdict == VIOLATED
    # witness visits an INVKEYOK split state, as the BFS oracle proves exists
    oracle_path = shortest_invkeyok_state(k)
    assert oracle_path is not None
    witness_states = result.lasso.states()
    bad = [s for s in witness_states if "INVKEYOK" in k.label(s)]
    assert bad
    # the split state is entered by the wrong-key input from an unlocked state
    tau = bad[0]
    ((src, sym),) = [(q, s) for (q, s), (d, _) in expanded.machine.transitions.items()
                     if d == tau]
    assert sym == "SAwWrongKey"
    assert "AUTH" in expanded.label(src)
    _, out = expanded.machine.transitions[(tau, "__eps")]
    assert out == "67"


def test_check_agrees_with_bounded_oracle_on_random_pairs():
    rng = random.Random(24601)
    for _ in range(80):
        k = random_kripke(rng)
        f = random_formula(rng)
        result = check(k, f)
        if result.verdict == VIOLATED:
            bounds = (max(6, len(result.lasso.stem)), max(6, len(result.lasso.loop)))
        else:
            bounds = (6, 6)
        oracle = bounded_oracle(k, f, *bounds)
        assert (result.verdict == HOLDS) == (oracle.verdict == BOUNDED_HOLDS), \
            format_formula(f)


def test_check_duality_on_single_path_structures():
    # on lasso-shaped structures the unique trace decides every formula
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 5)
        states = tuple(f"s{i}" for i in range(n))
        successors = {states[i]: (states[i + 1],) for i in range(n - 1)}
        successors[states[-1]] = (states[rng.randrange(n)],)
        labels = {s: frozenset(p for p in ("p", "q") if rng.random() < 0.5)
                  for s in states}
        k = KripkeStructure(states, (states[0],), successors, labels,
                            frozenset(("p", "q")))
        f = random_formula(rng, depth=2, temporal_budget=3)
        forward, negated = check(k, f), check(k, Not(f))
        assert forward.holds != negated.holds


# ---------------------------------------------------------------------------
# one translation per property shape and structure
# ---------------------------------------------------------------------------

def _rename(f, mapping):
    """f with each proposition p renamed to mapping[p]."""
    def step(g, value):
        if isinstance(g, Prop):
            return Prop(mapping[g.name])
        if isinstance(g, Const):
            return g
        if isinstance(g, Unary):
            return type(g)(value(g.child))
        return type(g)(value(g.left), value(g.right))

    return ltl._fold(f, step)


def _renamings(f):
    """f with its propositions p, q, r permuted in every way."""
    return [_rename(f, dict(zip(PROPS, order))) for order in itertools.permutations(PROPS)]


def test_memo_automaton_renamed_back_is_the_instance_automaton():
    """Field for field, the automaton the structure keeps for a shape (the
    one of its first formula), renamed to an instance's propositions by
    their numbers, is the one translated from the instance, undeclared
    propositions resolved to false first (r is undeclared)."""
    rng = random.Random(17)
    formulas = [parse_ltl(text) for text in PROPERTY_TEMPLATES.values()]
    declared = frozenset("pq").union(*map(propositions, formulas))
    k = KripkeStructure(("a",), ("a",), {"a": ("a",)}, {"a": val("p")}, declared)
    formulas += [g for _ in range(60) for g in _renamings(random_formula(rng))]
    for f in formulas:
        check(k, f)
        key, names, _ = _shape(f, k.atomic_props)
        automaton, first, *_ = k.shapes[CEILING, key]
        back = dict(zip(first, names))
        expected = ltl_to_buchi(to_nnf(Not(instantiate(f, k.atomic_props)[0])))
        assert tuple(tuple(_rename(g, back) for g in state)
                     for state in automaton.states) == expected.states
        assert tuple(tuple(c._replace(required=frozenset(back[p] for p in c.required),
                                      forbidden=frozenset(back[p] for p in c.forbidden))
                           for c in covers)
                     for covers in automaton.covers) == expected.covers
        assert automaton.mark_count == expected.mark_count
    assert len(k.shapes) < len(formulas) / 2


def test_check_on_one_shared_structure_is_check_on_a_fresh_one(monkeypatch):
    """Renamings of one formula share one translation per structure, and the
    results equal those of a fresh structure per property; the library
    templates have seven shapes, so they are translated seven times."""
    rng = random.Random(4242)
    translated = []
    monkeypatch.setattr(ltl, "ltl_to_buchi",
                        lambda *args: translated.append(1) or ltl_to_buchi(*args))
    for _ in range(25):
        k = random_kripke(rng)
        formulas = _renamings(random_formula(rng)) + [random_formula(rng) for _ in range(3)]
        shared = [check(k, f) for f in formulas]
        fresh = [check(KripkeStructure(k.states, k.initial, k.successors, k.labels,
                                       k.atomic_props), f) for f in formulas]
        assert shared == fresh
        assert len(k.shapes) == len({_shape(f, k.atomic_props)[0] for f in formulas})
    translated.clear()
    k = random_kripke(rng)
    for text in PROPERTY_TEMPLATES.values():
        check(k, parse_ltl(text))
    assert len(translated) == len(k.shapes) == 7


@pytest.mark.parametrize("left,right", [
    ("a && true", "a && b"), ("true", "b"), ("(!a U a)", "(!a U b)"), ("a U a", "a U b"),
])
def test_shapes_tell_constants_and_repeated_propositions_apart(left, right):
    """A constant is kept as itself, never its value (True == 1), and a
    proposition's number records where it first occurs.  On one structure,
    where left holds and right does not, right gets its own automaton."""
    declared = frozenset("ab")
    assert _shape(parse_ltl(left), declared)[0] != _shape(parse_ltl(right), declared)[0]
    k = KripkeStructure(("s",), ("s",), {"s": ("s",)}, {"s": val("a")}, declared)
    assert [check(k, parse_ltl(text)).verdict for text in (left, right)] == [HOLDS, VIOLATED]


def test_a_shape_is_translated_again_under_another_ceiling():
    """The ceiling bounds the automaton's expansion, so a translation made
    under a larger one is not reused under a smaller one."""
    k = random_kripke(random.Random(3))
    f = parse_ltl("p U (q U r)")
    check(k, f)
    with pytest.raises(CeilingError, match=r"^automaton state ceiling exceeded \(2\)$"):
        check(k, f, max_product_states=2)


def _counting(monkeypatch):
    """Count the products ``check`` builds and the witnesses it replays."""
    counts = {"products": 0, "replays": 0}

    class Product(ltl._Product):
        def __init__(self, *args):
            counts["products"] += 1
            super().__init__(*args)

    def replay(*args):
        counts["replays"] += 1
        return evaluate_on_lasso(*args)

    monkeypatch.setattr(ltl, "_Product", Product)
    monkeypatch.setattr(ltl, "evaluate_on_lasso", replay)
    return counts


def _pair(a, b) -> KripkeStructure:
    """Two states, a initial, each the other's successor."""
    return KripkeStructure(("a", "b"), ("a",), {"a": ("b",), "b": ("a",)},
                           {"a": val(*a), "b": val(*b)}, frozenset("pqr"))


def test_formulas_whose_letters_agree_on_every_label_share_one_search(monkeypatch):
    """p and q hold at a and not at b, so G p and G q, of one shape, read
    the same letters: one product is searched, and each witness is still
    replayed against its own formula."""
    counts = _counting(monkeypatch)
    k = _pair("pq", "")
    results = [check(k, parse_ltl(text)) for text in ("G p", "G q", "G p", "G(p && q)")]
    assert [r.verdict for r in results] == [VIOLATED] * 4
    assert results[0] == results[1] == results[2]
    assert counts == {"products": 2, "replays": 4}
    assert len(k.searches) == 2


def test_the_same_shape_reading_other_letters_gets_its_own_search(monkeypatch):
    """p holds at both states and q only at a: G p and G q share a shape
    but not a product."""
    counts = _counting(monkeypatch)
    k = _pair("pq", "p")
    assert [check(k, parse_ltl(text)).verdict for text in ("G p", "G q")] == [HOLDS, VIOLATED]
    assert counts == {"products": 2, "replays": 1}
    assert len(k.shapes) == 1 and len(k.searches) == 2


def test_a_product_is_searched_again_under_a_smaller_ceiling(monkeypatch):
    """A search under a smaller ceiling is not answered from one made under
    a larger one, and a search that reaches its ceiling stores nothing."""
    counts = _counting(monkeypatch)
    states = tuple(f"r{i}" for i in range(10))
    k = KripkeStructure(states, (states[0],),
                        {q: (states[(i + 1) % 10],) for i, q in enumerate(states)},
                        {q: val(q) for q in states}, frozenset(states))
    f = parse_ltl("G F r3")
    assert check(k, f).verdict == HOLDS
    for _ in range(2):
        with pytest.raises(CeilingError, match=r"^product state ceiling exceeded \(5\)$"):
            check(k, f, max_product_states=5)
    assert counts["products"] == 3 and len(k.searches) == 1


def test_undeclared_propositions_share_the_shape_of_false():
    key, names, undeclared = _shape(parse_ltl("G(a -> F ghost)"), frozenset("a"))
    assert (names, undeclared) == (("a",), ("ghost",))
    assert key == _shape(parse_ltl("G(b -> F false)"), frozenset("b"))[0]


# ---------------------------------------------------------------------------
# bounded oracle specifics
# ---------------------------------------------------------------------------

def test_bounded_oracle_trivial_cases():
    all_p = KripkeStructure(("a", "b"), ("a",), {"a": ("b",), "b": ("a",)},
                            {"a": frozenset({"p"}), "b": frozenset({"p"})},
                            frozenset({"p"}))
    assert bounded_oracle(all_p, parse_ltl("G p"), 4, 4).verdict == BOUNDED_HOLDS
    p_free = KripkeStructure(("a",), ("a",), {"a": ("a",)},
                             {"a": frozenset()}, frozenset({"p"}))
    assert bounded_oracle(p_free, parse_ltl("F p"), 4, 4).verdict == VIOLATED


def test_bounded_oracle_budget_guard():
    rng = random.Random(8)
    k = random_kripke(rng, max_states=6, max_degree=2)
    with pytest.raises(OracleBudgetError):
        bounded_oracle(k, parse_ltl("G(p U q)"), 10, 10, max_lassos=3)


# ---------------------------------------------------------------------------
# Kripke views
# ---------------------------------------------------------------------------

def test_kripke_from_expanded_two_state(two_state_annotated, two_state_cpm):
    expanded = expand_tau(two_state_annotated, two_state_cpm)
    k = kripke_from_annotated(expanded)
    assert len(k.states) == 3
    (tau,) = expanded.tau_states
    assert k.label(tau) == frozenset({"p", "omega2set"})
    assert k.initial == ("q1",)


def test_kripke_plain_unlabeled(two_state_machine):
    from protocheck.cpm import Cpm
    k = kripke_from_annotated(annotate(two_state_machine, Cpm()))
    assert k.label("q1") == frozenset()
    assert set(k.successors["q1"]) == {"q2"}


def test_kripke_deadlock_gets_self_loop():
    from protocheck import MealyMachine
    from protocheck.cpm import AnnotatedMachine
    m = MealyMachine(("lonely",), ("a",), ("o",), "lonely", {},
                     require_complete=False)
    k = kripke_from_annotated(AnnotatedMachine(m, {}))
    assert k.successors["lonely"] == ("lonely",)


def test_kripke_rejects_successor_outside_states():
    with pytest.raises(LtlError, match="successor 'b' of 'a' not among states"):
        KripkeStructure(states=("a",), initial=("a",), successors={"a": ("b",)},
                        labels={})


@pytest.mark.parametrize("build,message", [
    (lambda: KripkeStructure(("a", "b"), ("a",), {"a": ("b",)}, {}),
     "transition relation not left-total at 'b'"),
    (lambda: KripkeStructure(("a",), ("b",), {"a": ("a",)}, {}),
     "initial state 'b' not among states"),
    (lambda: parse_property_file("a: G p\n1bad: G p\n"),
     "line 2: invalid property name '1bad'"),
], ids=["not-left-total", "unknown-initial", "property-name"])
def test_invalid_structures_and_property_files_are_rejected(build, message):
    with pytest.raises(LtlError) as caught:
        build()
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# property library and files
# ---------------------------------------------------------------------------

def test_property_library_empty_map_goes_vacuous():
    from protocheck.cpm import Cpm
    lib = property_library(Cpm())
    f = lib["no_invalid_key"].formula
    assert "INVKEYOK" in lib["no_invalid_key"].substituted_false
    k = random_kripke(random.Random(3))
    assert check(k, f).verdict == HOLDS   # G(!false) is universally true


def test_property_library_emrtd_keeps_declared_hypothetical(emrtd_cpm):
    lib = property_library(emrtd_cpm)
    inst = lib["privilege_gates_critical"]
    # the privileged proposition is declared (hypothetically) so it survives
    assert "PRIV" not in inst.substituted_false
    assert "PRIV" in propositions(inst.formula)


def test_property_library_uds_confidentiality_vacuous(uds_cpm):
    machine, _ = build_uds_machine()
    expanded = expand_tau(annotate(machine, uds_cpm), uds_cpm)
    k = kripke_from_annotated(expanded, declared=uds_cpm.declared_props)
    inst = property_library(uds_cpm)["no_plain_read_of_protected"]
    assert check(k, inst.formula).verdict == HOLDS
    report = vacuity(k, inst.formula)
    assert report is not None
    assert not report.risk_reachable
    assert "PROT" in report.note and "UREADOK" in report.note
    assert "never co-occur" in report.note
    # cross-checked by the independent oracle (bounds kept exhaustive-feasible
    # for the fixture's branching factor)
    assert bounded_oracle(k, inst.formula, 4, 2).verdict == BOUNDED_HOLDS


def test_parse_property_file_matches_builtin():
    parsed = parse_property_file(fixture_text("generic.properties"))
    assert set(parsed) == set(PROPERTY_TEMPLATES)
    for name, text in PROPERTY_TEMPLATES.items():
        assert parsed[name] == parse_ltl(text)


def test_parse_property_file_errors():
    with pytest.raises(LtlError, match="name: formula"):
        parse_property_file("just some text\n")
    with pytest.raises(LtlError, match="duplicate"):
        parse_property_file("a: G p\na: F p\n")
    with pytest.raises(LtlError, match=r"^line 2: syntax error at position 8: unexpected ''$"):
        parse_property_file("a: G p\nb: G (p &&\n")


def test_vacuity_reads_undeclared_propositions_as_check_does():
    """``p`` is undeclared, so ``check`` reads it as false and the property
    holds; vacuity must not see the raw label's ``p`` and report a risk."""
    k = KripkeStructure(("a", "b"), ("a",), {"a": ("b",), "b": ("b",)},
                        {"a": frozenset({"p", "q"}), "b": frozenset({"q"})},
                        frozenset({"q"}))
    f = parse_ltl("G(p -> !q)")
    assert check(k, f).verdict == HOLDS
    report = vacuity(k, f)
    assert not report.antecedent_reachable and not report.risk_reachable


def test_vacuity_antecedent_never_true(uds_cpm):
    machine, _ = build_uds_machine()
    expanded = expand_tau(annotate(machine, uds_cpm), uds_cpm)
    k = kripke_from_annotated(expanded, declared=uds_cpm.declared_props)
    inst = property_library(uds_cpm)["auth_before_access"]
    report = vacuity(k, inst.formula)
    assert report is not None and not report.antecedent_reachable


def test_dual_route_verdicts_agree(emrtd_cpm, uds_cpm):
    from protocheck import build_ir, explore, collapse
    from protocheck.statespace import kripke_from_collapsed
    for build, cpm in ((build_emrtd_machine, emrtd_cpm), (build_uds_machine, uds_cpm)):
        machine, _ = build()
        a = annotate(machine, cpm)
        k1 = kripke_from_annotated(expand_tau(a, cpm), declared=cpm.declared_props)
        k2 = kripke_from_collapsed(collapse(explore(build_ir(a, cpm))),
                                   declared=cpm.declared_props)
        for name, inst in property_library(cpm).items():
            assert check(k1, inst.formula).verdict == check(k2, inst.formula).verdict, name


def test_property_file_emit_parse_round_trip(emrtd_cpm):
    from protocheck.ltl import emit_property_file

    instantiated = {name: inst.formula
                    for name, inst in property_library(emrtd_cpm).items()}
    text = emit_property_file(instantiated, header="note")
    assert text.startswith("# note")
    assert parse_property_file(text) == instantiated

import pytest
from hypothesis import given, strategies as st

from infkit.syntax import (
    And, Atom, CaptureError, Const, Eq, Exists, Forall, Not, Or, Signature,
    Var, constants_of, is_sentence, move_neg_inside, replace_const,
    subformulas, substitute, valid_ident, validate_formula,
)

v0, v1, w = Var("v0"), Var("v1"), Var("w")
c, d = Const("c"), Const("d")
R = lambda t: Atom("R", (t,))
SIG = Signature(relations=(("R", 1), ("Q", 2)), constants=("c", "d"))


# --- identifiers and construction gates ------------------------------------

def test_valid_ident():
    assert valid_ident("v0") and valid_ident("_x") and valid_ident("A9_b")
    for bad in ("", "0v", "a-b", "a b", "a.b", 3, None):
        assert not valid_ident(bad)


def test_bad_constructions_rejected():
    with pytest.raises(ValueError):
        Atom("R", ("notaterm",))
    with pytest.raises(ValueError):
        Eq(c, "d")
    with pytest.raises(ValueError):
        Not("x")
    with pytest.raises(ValueError):
        And((R(c), "y"))
    with pytest.raises(ValueError):
        Forall((), R(c))
    with pytest.raises(ValueError):
        Forall(("v0", "v0"), R(v0))
    with pytest.raises(ValueError):
        Exists(("v0",), "body")


def test_equality_is_structural_with_sorted_juncts():
    assert And((R(c), R(d))) == And((R(d), R(c)))
    assert Or((R(c), R(d))) == Or((R(d), R(c)))
    assert hash(And((R(c), R(d)))) == hash(And((R(d), R(c))))
    assert And(()) != Or(())
    assert Forall(("v0",), R(v0)) != Forall(("v1",), R(v1))  # no alpha
    assert len({R(c), Atom("R", (Const("c"),))}) == 1


def test_canonical_form_deterministic():
    f = Or((Not(R(c)), Exists(("v0",), And((R(v0), Eq(v0, c))))))
    g = Or((Exists(("v0",), And((Eq(v0, c), R(v0)))), Not(R(c))))
    assert f.key() == g.key() and isinstance(f.key(), str)
    assert hash(f) == hash(g) == hash(f.key())


def test_free_vars_and_sentences():
    f = Forall(("v0",), Or((R(v0), Eq(v0, v1))))
    assert f.free_vars() == {"v1"}
    assert not is_sentence(f)
    assert is_sentence(Forall(("v0", "v1"), Or((R(v0), Eq(v0, v1)))))
    assert is_sentence(And(())) and is_sentence(Or(()))


# --- signatures and validation ----------------------------------------------

def test_signature_gates():
    with pytest.raises(ValueError):
        Signature(relations=(("R", 1), ("R", 2)), constants=())
    with pytest.raises(ValueError):
        Signature(relations=(("R", -1),), constants=())
    with pytest.raises(ValueError):
        Signature(relations=(), constants=("c", "c"))
    assert SIG.arity("Q") == 2 and SIG.has_relation("R")
    ext = SIG.with_constants(("e",))
    assert set(ext.constants) == {"c", "d", "e"}


def test_validate_formula():
    validate_formula(R(c), SIG)
    with pytest.raises(ValueError):
        validate_formula(Atom("S", (c,)), SIG)          # unknown relation
    with pytest.raises(ValueError):
        validate_formula(Atom("R", (c, d)), SIG)        # arity
    with pytest.raises(ValueError):
        validate_formula(Eq(Const("nope"), c), SIG)     # unknown constant


# --- substitution -----------------------------------------------------------

def test_substitute_basic():
    f = Or((R(v0), Exists(("v1",), Eq(v0, v1))))
    g = substitute(f, {"v0": c})
    assert g == Or((R(c), Exists(("v1",), Eq(c, v1))))
    # bound occurrences are untouched
    h = Forall(("v0",), R(v0))
    assert substitute(h, {"v0": c}) == h


def test_substitute_capture_rejected():
    f = Exists(("v1",), Eq(v0, v1))
    with pytest.raises(CaptureError):
        substitute(f, {"v0": v1})


def test_replace_const_and_constants_of():
    f = Or((Eq(d, c), Eq(d, d)))
    assert constants_of(f) == {"c", "d"}
    assert replace_const(f, "d", c) == Or((Eq(c, c), Eq(c, c)))
    assert replace_const(f, "d", w) == Or((Eq(w, c), Eq(w, w)))


def test_subformulas_counts():
    f = Not(And((R(c), Or(()))))
    assert subformulas(f) == {f, And((R(c), Or(()))), R(c), Or(())}


# --- negation moves -----------------------------------------------------------

def test_move_neg_inside_one_step():
    # the move sends f to the pushed-in form of its negation
    assert move_neg_inside(And((R(c), R(d)))) == Or((Not(R(c)), Not(R(d))))
    assert move_neg_inside(Or(())) == And(())
    assert move_neg_inside(Not(R(c))) == R(c)
    assert move_neg_inside(Forall(("v0",), R(v0))) == \
        Exists(("v0",), Not(R(v0)))
    assert move_neg_inside(R(c)) == Not(R(c))


# --- property checks ---------------------------------------------------------

names = st.sampled_from(["v0", "v1", "w"])
consts = st.sampled_from(["c", "d"])


terms = st.one_of(names.map(Var), consts.map(Const))


@st.composite
def formulas(draw, depth=3):
    if depth == 0:
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return Atom("R", (draw(terms),))
        if kind == 1:
            return Atom("Q", (draw(terms), draw(terms)))
        return Eq(draw(terms), draw(terms))
    sub = formulas(depth=depth - 1)
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return Not(draw(sub))
    if kind == 1:
        return And(tuple(draw(st.lists(sub, max_size=3))))
    if kind == 2:
        return Or(tuple(draw(st.lists(sub, max_size=3))))
    if kind == 3:
        return Forall((draw(names),), draw(sub))
    return Exists((draw(names),), draw(sub))


@given(formulas())
def test_identity_substitution_is_identity(f):
    assert substitute(f, {}) == f
    assert substitute(f, {v: Var(v) for v in f.free_vars()}) == f

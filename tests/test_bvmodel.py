import itertools

import pytest

from infkit.boolalg import powerset_algebra
from infkit.bvmodel import (
    BValuedModel, ShapeError, UnboundVariable, bounded_boolean_sat,
    check_full, check_full_everywhere, check_mixing, check_model,
    eval_formula, mixes_over, term_value,
)
from infkit.modelgen import (
    split_signature, split_constant_theory, four_element_model,
)
from infkit.syntax import (
    And, Atom, Const, Eq, Exists, Forall, Not, Or, Signature, Var,
)
from inputs import (
    model_pool, three_element_nonmixing_model, unattained_sup_formula,
)
from test_acceptance import check_subst_inequality
from test_reference_paths import check_mixing_by_antichains

d, c0, c1 = Const("d"), Const("c0"), Const("c1")


# --- the four-element reference model ----------------------------------------

def test_reference_model_is_valid(m4):
    assert check_model(m4)["ok"]


def test_reference_values(m4):
    one = m4.algebra.one
    assert eval_formula(m4, Or((Eq(d, c0), Eq(d, c1)))) == one
    assert eval_formula(m4, Not(Eq(c0, c1))) == one
    x = eval_formula(m4, Not(Eq(d, c0)))
    y = eval_formula(m4, Not(Eq(d, c1)))
    atoms = set(m4.algebra.atoms())
    assert x in atoms and y in atoms
    assert m4.algebra.comp(x) == y


def test_quantifier_values_are_inf_and_sup(m4):
    alg = m4.algebra
    body = Eq(Var("v0"), d)
    ex = eval_formula(m4, Exists(("v0",), body))
    fa = eval_formula(m4, Forall(("v0",), body))
    vals = [eval_formula(m4, body, {"v0": m}) for m in m4.domain]
    assert ex == alg.sup(vals)
    assert fa == alg.inf(vals)


def test_empty_connectives(m4):
    assert eval_formula(m4, And(())) == m4.algebra.one
    assert eval_formula(m4, Or(())) == m4.algebra.zero


def test_unbound_variable_raises(m4):
    with pytest.raises(UnboundVariable):
        eval_formula(m4, Eq(Var("v0"), d))
    assert term_value(m4, Var("v0"), {"v0": "m00"}) == "m00"


def test_check_model_flags_broken_equality(m4):
    # violating symmetry on one pair must be reported
    eq = dict(m4.eq)
    eq[("m00", "m01")] = m4.algebra.one
    eq[("m01", "m00")] = m4.algebra.zero
    broken = BValuedModel(m4.signature, m4.algebra, m4.domain, eq,
                          m4.relations, m4.constants)
    rep = check_model(broken)
    assert not rep["ok"] and rep["violations"]


# --- substitution inequality ---------------------------------------------------

def test_subst_inequality_on_reference(m4):
    f = Or((Eq(Var("v0"), c0), Eq(Var("v0"), c1)))
    for tau in m4.domain:
        for sig in m4.domain:
            rep = check_subst_inequality(m4, f, (tau,), (sig,))
            assert rep["ok"], (tau, sig, rep)


def test_subst_inequality_shape_gate(m4):
    with pytest.raises(ShapeError):
        check_subst_inequality(m4, Eq(Var("v0"), d), ("m00", "m01"), ("m00",))


# --- mixing and fullness ---------------------------------------------------------

def test_reference_model_mixes(m4):
    assert check_mixing(m4)["mixing"]
    assert check_mixing_by_antichains(m4)["mixing"]


def test_three_element_model_does_not_mix():
    m3 = three_element_nonmixing_model()
    rep = check_mixing(m3)
    assert not rep["mixing"]
    antichain = [m3.algebra.masks[label] for label in rep["antichain"]]
    assert mixes_over(m3, antichain, rep["targets"]) is None
    assert not check_mixing_by_antichains(m3)["mixing"]


def test_unattained_sup():
    m3 = three_element_nonmixing_model()
    f = unattained_sup_formula()
    rep = check_full(m3, f)
    assert not rep["full"]
    assert rep["value"] == m3.algebra.one
    m4 = four_element_model()
    assert check_full(m4, f)["full"]


def test_check_full_everywhere_reports_by_assignment():
    m3 = three_element_nonmixing_model()
    wrapped = And((unattained_sup_formula(),))
    rep = check_full_everywhere(m3, wrapped)
    assert not rep["ok"] and rep["failures"]


def test_check_full_requires_existential(m4):
    with pytest.raises(ShapeError):
        check_full(m4, Eq(d, d))


# --- bounded satisfiability ------------------------------------------------------

def test_weak_witness_for_reference_theory():
    sig = split_signature()
    theory = split_constant_theory()
    res = bounded_boolean_sat(sig, theory, max_atoms=2, max_domain=4,
                              mode="weak")
    assert res["found"]
    w = res["model"]
    assert check_model(w)["ok"]
    for f in theory:
        assert eval_formula(w, f) != w.algebra.zero


def test_strong_mode_exhausts_reference_theory():
    res = bounded_boolean_sat(split_signature(), split_constant_theory(),
                              max_atoms=2, max_domain=4, mode="strong")
    assert res["exhausted"] and not res.get("found")


def test_contradiction_needs_two_atoms():
    sig = Signature(relations=(("R", 1),), constants=("c",))
    pair = [Atom("R", (Const("c"),)), Not(Atom("R", (Const("c"),)))]
    narrow = bounded_boolean_sat(sig, pair, max_atoms=1, max_domain=2,
                                 mode="weak")
    assert narrow["exhausted"]
    wide = bounded_boolean_sat(sig, pair, max_atoms=2, max_domain=2,
                               mode="weak")
    assert wide["found"]
    assert not bounded_boolean_sat(sig, pair, max_atoms=2, max_domain=2,
                                   mode="strong").get("found")


def test_strong_witness_on_satisfiable_sentence():
    sig = Signature(relations=(("R", 1),), constants=("c",))
    res = bounded_boolean_sat(sig, [Atom("R", (Const("c"),))],
                              max_atoms=1, max_domain=1, mode="strong")
    assert res["found"]
    assert eval_formula(res["model"], Atom("R", (Const("c"),))) == \
        res["model"].algebra.one


def test_pool_models_are_valid():
    for m in model_pool():
        assert check_model(m)["ok"]

import itertools
import time

import pytest

from infkit import bvmodel
from infkit.boolalg import powerset_algebra
from infkit.bvmodel import (
    BValuedModel, ShapeError, UnboundVariable, assemble_model,
    bounded_boolean_sat, check_full, check_full_everywhere, check_mixing,
    check_model, eval_formula, term_value,
)
from infkit.syntax import (
    And, Atom, Const, Eq, Exists, Forall, Not, Or, Signature, Var,
)
from inputs import (
    four_element_model, model_pool, split_constant_theory, split_signature,
    three_element_nonmixing_model, unattained_sup_formula,
)
from test_acceptance import check_subst_inequality
from test_reference_paths import check_mixing_by_antichains, mixes_over

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
    antichain = [m3.algebra.element(label) for label in rep["antichain"]]
    assert mixes_over(m3, antichain, rep["targets"]) is None
    assert not check_mixing_by_antichains(m3)["mixing"]


def test_one_atom_is_ordered_without_a_key(monkeypatch, m4):
    """A condition algebra below a root with one maximal member has one atom
    but may label it with every condition: ordering it computes no key."""
    calls = []
    key = bvmodel._canonical_key
    monkeypatch.setattr(bvmodel, "_canonical_key",
                        lambda x: calls.append(x) or key(x))
    model = assemble_model(m4.signature, ("t",), ("m0", "m1"),
                           (((0, 1), ()),),
                           {"d": "m0", "c0": "m0", "c1": "m1"})
    assert check_mixing(model) == {"mixing": True}
    assert calls == []
    assert check_mixing(m4)["mixing"] and calls


def test_mixing_one_class_per_atom_tries_each_target_once():
    """Every element mixes every target map, so the loop over all 4^10 maps
    took 4.4 s (Python 3.11, 2 CPUs); the walk settles each atom once."""
    model = assemble_model(Signature((), ()),
                           tuple(f"a{i}" for i in range(10)),
                           ("m0", "m1", "m2", "m3"),
                           (((0, 0, 0, 0), ()),) * 10, {})
    start = time.perf_counter()
    assert check_mixing(model) == {"mixing": True}
    assert time.perf_counter() - start < 0.5


def test_check_model_skips_pairs_that_fine_classes_keep_apart():
    """With every class a singleton, [old = new] is zero off the diagonal:
    the loop over all 40^4 tuple pairs took 4.4 s (Python 3.11, 2 CPUs)."""
    n = 40
    table = frozenset((i, j) for i in range(n) for j in range(n)
                      if (i + 2 * j) % 3 == 0)
    model = assemble_model(Signature((("R", 2),), ()), ("a0", "a1"),
                           tuple(f"m{i:02d}" for i in range(n)),
                           ((tuple(range(n)), (table,)),) * 2, {})
    start = time.perf_counter()
    assert check_model(model) == {"ok": True, "violations": []}
    assert time.perf_counter() - start < 1


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

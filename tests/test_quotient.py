import itertools

import pytest

from infkit.boolalg import powerset_algebra
from infkit.bvmodel import check_full_everywhere, eval_formula
from infkit.quotient import los_check, quotient
from infkit.syntax import Const, Eq, Exists, Forall, Not, Or, Var
from inputs import (
    formula_pool, four_element_model, model_pool, split_constant_theory,
    three_element_nonmixing_model, ultrafilters, unattained_sup_formula,
)


def test_quotient_partitions_domain(m4):
    for uf in ultrafilters(m4.algebra):
        q = quotient(m4, uf)
        flat = [m for cl in q.classes for m in cl]
        assert sorted(flat) == sorted(m4.domain)
        assert len(q.reps) == len(q.classes)
        for rep, cl in zip(q.reps, q.classes):
            assert rep in cl
        for name in m4.signature.constants:
            assert q.constants[name] in q.reps


def test_quotient_classes_follow_equality_filter(m4):
    for uf in ultrafilters(m4.algebra):
        q = quotient(m4, uf)
        for m, n in itertools.product(m4.domain, repeat=2):
            same = any(m in cl and n in cl for cl in q.classes)
            assert same == bool(m4.eq_value(m, n) & uf)


def test_atomic_tarski_matches_filter_membership(m4):
    d, c0 = Const("d"), Const("c0")
    for uf in ultrafilters(m4.algebra):
        two = quotient(m4, uf).to_two_valued_model()
        for f in (Eq(d, c0), Eq(d, d), Not(Eq(d, c0))):
            holds = eval_formula(two, f) == two.algebra.one
            assert holds == bool(eval_formula(m4, f) & uf)


def test_los_on_reference_model(m4):
    pool = list(split_constant_theory()) + [
        Exists(("v0",), Not(Eq(Var("v0"), Const("d")))),
        Forall(("v0",), Or((Eq(Var("v0"), Const("c0")),
                            Eq(Var("v0"), Const("c1")),
                            Eq(Var("v0"), Const("d"))))),
        Eq(Const("c0"), Const("d")),
    ]
    for uf in ultrafilters(m4.algebra):
        rep = los_check(m4, quotient(m4, uf), uf, pool)
        assert rep["ok"], rep
        assert rep["checked"] > 0
        assert not rep["violations"]


def test_los_skips_formulas_without_fullness():
    m3 = three_element_nonmixing_model()
    f = unattained_sup_formula()
    assert not check_full_everywhere(m3, f)["ok"]
    for uf in ultrafilters(m3.algebra):
        rep = los_check(m3, quotient(m3, uf), uf, [f])
        assert rep["ok"]
        assert rep["checked"] == 0
        assert any(entry["formula"] == f.key() for entry in rep["skipped"])


def test_los_suite_over_generated_pool():
    pool = formula_pool()
    for m in model_pool()[:6]:
        for uf in ultrafilters(m.algebra):
            rep = los_check(m, quotient(m, uf), uf, pool)
            assert rep["ok"], rep

import itertools

import pytest

from infkit.boolalg import powerset_algebra
from infkit.bvmodel import check_mixing, check_model, eval_formula
from infkit.mansfield import (
    algebra_model, condition_algebra, mansfield_build, sb_pool,
    verify_claim1, verify_claim2,
)
from infkit.consprop import check_cp
from infkit.syntax import Atom, Const, Eq, Not, Or, Signature
from test_reference_paths import (
    reference_cp_from_algebra, reference_roundtrip_check,
)


def test_build_refuses_non_consistency_property():
    sig = Signature(relations=(("R", 1),), constants=("k",))
    rk = Atom("R", (Const("k"),))
    from infkit.consprop import ConsistencyProperty
    bad = ConsistencyProperty(
        signature=sig, fresh_constants=("c",), pool=(rk, Not(rk)),
        family=(frozenset(), frozenset({rk, Not(rk)})))
    with pytest.raises(ValueError):
        mansfield_build(bad)


def test_condition_algebra_two_blocks(eq4):
    ca = condition_algebra(eq4)
    assert len(ca.conditions) == 112
    # two maximal members, so the restricted completion has two atoms
    assert len(ca.algebra.atoms()) == 2
    assert len(ca.algebra.elements) == 4


def test_build_on_equality_family(eq4):
    built = mansfield_build(eq4)
    assert built["root_ok"]
    assert built["model_report"]["ok"]
    model = built["model"]
    assert set(model.domain) == {"c0", "c1", "c2", "c3"}
    one = model.algebra.one
    # neither identification holds everywhere, each holds on its own atom
    v01 = eval_formula(model, Eq(Const("c0"), Const("c1")))
    v23 = eval_formula(model, Eq(Const("c2"), Const("c3")))
    atoms = set(model.algebra.atoms())
    assert v01 in atoms and v23 in atoms and v01 != v23
    assert eval_formula(model, Or((Eq(Const("c0"), Const("c1")),
                                   Eq(Const("c2"), Const("c3"))))) == one


def test_root_sentences_valid_at_nonempty_root(eq4):
    root = eq4.encode({Eq(Const("c2"), Const("c3"))})
    built = mansfield_build(eq4, root)
    assert built["root_ok"]
    assert all(v == built["model"].algebra.one
               for v in built["root_values"].values())


def test_claims_on_corpus_families(good_families):
    for name, cp in good_families.items():
        built = mansfield_build(cp)
        assert verify_claim1(cp, built)["ok"], name
        assert verify_claim2(cp, built)["ok"], name


def test_meet_identity_on_pool_pairs(eq4):
    ca = condition_algebra(eq4)
    alg = ca.algebra
    for f, g in itertools.combinations(eq4.pool, 2):
        # L(f) meet L(g) is the join of Reg(N_q) over the q holding both
        fg = eq4.encode({f, g})
        both = alg.sup(ca.embedding[q] for q in ca.conditions
                       if q & fg == fg)
        assert alg.meet(ca.l_value(f), ca.l_value(g)) == both, \
            (f.key(), g.key())


def test_equality_family_model_does_not_mix(eq4):
    built = mansfield_build(eq4)
    rep = check_mixing(built["model"])
    assert not rep["mixing"]
    assert len(rep["antichain"]) == 2


# --- the membership model of a finite algebra ----------------------------------

def test_algebra_model_basics():
    alg = powerset_algebra(("a0", "a1"))
    model, names = algebra_model(alg)
    assert check_model(model)["ok"]
    assert not model.constants  # element names enter as fresh constants
    pool = sb_pool(alg, names)
    assert all(not f.free_vars() for f in pool)
    from infkit.consprop import cp_from_model
    named = cp_from_model(model, pool).model
    for e in alg.elements:
        got = eval_formula(named, Atom("inG", (Const(names[e]),)))
        assert got == e


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dense_embedding_report(n):
    alg = powerset_algebra(tuple(f"a{i}" for i in range(n)))
    cp, pi, rep = reference_cp_from_algebra(alg)
    assert rep["ok"], rep
    assert not rep["order_failures"]
    assert not rep["incompatibility_failures"]
    assert not rep["surjectivity_failures"]
    assert check_cp(cp)["ok"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_roundtrip_algebra_recovered(n):
    alg = powerset_algebra(tuple(f"a{i}" for i in range(n)))
    rep = reference_roundtrip_check(alg)
    assert rep["ok"], rep
    assert rep["atoms"] == n
    if rep["materialized"]:
        assert rep["ro_size"] == 2 ** n

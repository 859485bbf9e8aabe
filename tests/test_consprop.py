
import pytest

from infkit.boolalg import powerset_algebra
from infkit.bvmodel import BValuedModel, eval_formula
from infkit.consprop import (
    ConsistencyProperty, build_af, check_cp, cp_from_model, default_pool,
    dense_sets, enumerate_members, forcing_poset_conditions, generic_filter,
    maximal_members, occurrence_variants, verify_realizes,
)
from infkit.iojson import load_json, parse_algebra
from infkit.mansfield import cp_from_algebra
from infkit.syntax import (
    Atom, Const, Eq, Exists, Forall, Not, Or, Signature, Var,
)
from inputs import (
    convert_to_explicit, down_sets, forcing_poset, four_element_model,
    split_constant_theory,
)
from test_acceptance import check_kappa_omega_iff

SIG0 = Signature(relations=(), constants=())


# --- pools ---------------------------------------------------------------------

def test_default_pool_contains_closure_and_equalities():
    sig = Signature(relations=(("R", 1),), constants=("k",))
    seed = Not(Exists(("v0",), Atom("R", (Var("v0"),))))
    pool = default_pool(sig, ("c",), [seed])
    assert seed in pool
    assert Exists(("v0",), Atom("R", (Var("v0"),))) in pool  # subformula
    assert Atom("R", (Const("c"),)) in pool       # instantiation
    assert Atom("R", (Const("k"),)) in pool
    # the negation move of the seed
    assert Forall(("v0",), Not(Atom("R", (Var("v0"),)))) in pool
    assert Eq(Const("c"), Const("k")) in pool     # equality closure
    assert Eq(Const("k"), Const("c")) in pool
    assert Eq(Const("c"), Const("c")) in pool
    assert all(not f.free_vars() for f in pool)


def test_occurrence_variants_cover_nonempty_subsets():
    f = Or((Eq(Const("d"), Const("c0")), Eq(Const("d"), Const("c1"))))
    variants = occurrence_variants(f, "d", "c0")
    # two occurrences of d: first only, second only, both
    assert len(variants) == 3
    assert Or((Eq(Const("c0"), Const("c0")),
               Eq(Const("c0"), Const("c1")))) in variants
    assert f not in variants


# --- explicit family checks -------------------------------------------------------

def test_eq4_family_is_consistency_property(eq4):
    rep = check_cp(eq4)
    assert rep["ok"] and not rep["violations"]
    assert len(eq4.family) == 112


def test_eq4_maximal_members_are_the_two_blocks(eq4):
    maxes = maximal_members(eq4)
    assert len(maxes) == 2
    assert all(m.bit_count() == 6 for m in maxes)
    keys = {eq4.key(m) for m in maxes}
    assert any("(= k:c0 k:c1)" in k for k in keys)
    assert any("(= k:c2 k:c3)" in k for k in keys)


def test_forcing_poset_conditions_are_family_members(eq4):
    poset = forcing_poset(forcing_poset_conditions(maximal_members(eq4), 0))
    assert set(poset.elements) <= set(eq4.family)
    # stronger condition = superset
    downs = down_sets(poset)
    got = {(p, q) for p in poset.elements for q in poset.elements
           if p != q and p in downs[q]}
    assert got == {(p, q) for p in poset.elements for q in poset.elements
                   if p != q and eq4.decode(q) < eq4.decode(p)}


def test_dense_sets_listed_per_trigger(eq4):
    # all four constants are fresh and the pool is purely atomic: no roster
    assert dense_sets(eq4) == []
    sig = Signature(relations=(("R", 1),), constants=("k",))
    rk = Atom("R", (Const("k"),))
    rc = Atom("R", (Const("c"),))
    ex = Exists(("v0",), Atom("R", (Var("v0"),)))
    cp = ConsistencyProperty(
        signature=sig, fresh_constants=("c",),
        pool=(Or((rk, rc)), ex, rk, rc, Eq(Const("c"), Const("k"))),
        family=(frozenset(), frozenset({rk}), frozenset({rc}),
                frozenset({Eq(Const("c"), Const("k"))})))
    kinds = {entry["kind"] for entry in dense_sets(cp)}
    assert kinds == {"disjunction", "existential", "constant"}


def test_generic_filter_at_empty_root(eq4):
    gf = generic_filter(eq4)
    assert gf.root == 0
    assert gf.minimum in eq4.family


def test_generic_filter_respects_root(eq4):
    root = eq4.encode({Eq(Const("c2"), Const("c3"))})
    gf = generic_filter(eq4, root)
    assert gf.minimum & root == root
    tm = build_af(eq4, gf.minimum)
    rep = verify_realizes(eq4, tm, gf.minimum)
    assert rep["ok"], rep
    merged = [sorted(cl) for cl in tm.classes if len(cl) > 1]
    assert merged == [["c2", "c3"]]


def test_generic_filter_rejects_non_condition(eq4):
    # the two identifications lie in different blocks: no member holds both
    bad = eq4.encode({Eq(Const("c0"), Const("c1")),
                      Eq(Const("c2"), Const("c3"))})
    with pytest.raises(ValueError):
        generic_filter(eq4, bad)


def test_build_af_realizes_union_classes(eq4):
    gf = generic_filter(eq4)
    tm = build_af(eq4, gf.minimum)
    assert verify_realizes(eq4, tm, gf.minimum)["ok"]
    assert sorted(len(cl) for cl in tm.classes) == [1, 1, 2]
    two = type(tm.to_two_valued_model())
    assert two is BValuedModel


# --- violation reporting -----------------------------------------------------------

def test_con_violation_is_hard():
    sig = Signature(relations=(("R", 1),), constants=("k",))
    rk = Atom("R", (Const("k"),))
    cp = ConsistencyProperty(
        signature=sig, fresh_constants=("c",), pool=(rk, Not(rk)),
        family=(frozenset(), frozenset({rk, Not(rk)})))
    rep = check_cp(cp)
    assert not rep["ok"]
    con = [v for v in rep["violations"] if v["clause"] == "Con"]
    assert con and all(v["kind"] == "violation" for v in con)


def test_ind4_violation_when_disjuncts_in_pool():
    sig = Signature(relations=(("R", 1), ("S", 1)), constants=())
    cc = Const("c")
    dis = Or((Atom("R", (cc,)), Atom("S", (cc,))))
    ceq = Eq(cc, cc)
    cp = ConsistencyProperty(
        signature=sig, fresh_constants=("c",),
        pool=(dis, Atom("R", (cc,)), Atom("S", (cc,)), ceq),
        family=(frozenset(), frozenset({ceq}), frozenset({dis}),
                frozenset({dis, ceq})))
    rep = check_cp(cp)
    assert not rep["ok"]
    assert {v["clause"] for v in rep["violations"]} == {"Ind.4"}
    assert all(v["kind"] == "violation" for v in rep["violations"])


def test_ind5_violation_when_instance_in_pool():
    sig = Signature(relations=(("R", 1),), constants=())
    ex = Exists(("v0",), Atom("R", (Var("v0"),)))
    cp = ConsistencyProperty(
        signature=sig, fresh_constants=("c",),
        pool=(ex, Atom("R", (Const("c"),))), family=(frozenset({ex}),))
    rep = check_cp(cp)
    clauses = {v["clause"]: v["kind"] for v in rep["violations"]}
    assert clauses.get("Ind.5") == "violation"


def test_pool_gap_reported_as_pool_incomplete():
    # the existential's instances are all outside the pool
    sig = Signature(relations=(("R", 1),), constants=())
    ex = Exists(("v0",), Atom("R", (Var("v0"),)))
    cp = ConsistencyProperty(signature=sig, fresh_constants=("c",),
                             pool=(ex,), family=(frozenset({ex}),))
    rep = check_cp(cp)
    assert not rep["ok"]
    ind5 = [v for v in rep["violations"] if v["clause"] == "Ind.5"]
    assert ind5 and ind5[0]["kind"] == "PoolIncomplete"
    assert ind5[0]["missing"] == [Atom("R", (Const("c"),)).key()]


def test_smax_explicit_vs_oracle(eq2, max_family):
    assert check_cp(eq2, smax=True)["smax"]["ok"]
    rep = check_cp(max_family, smax=True)["smax"]
    assert not rep["ok"]
    assert {v["kind"] for v in rep["violations"]} == {"PoolIncomplete"}


# --- oracle-backed families ----------------------------------------------------

def two_point_model():
    alg = powerset_algebra(("t",))
    return BValuedModel(
        signature=Signature(relations=(("R", 1),), constants=()),
        algebra=alg, domain=("x", "y"), eq={},
        relations={"R": {("x",): alg.one, ("y",): alg.zero}}, constants={})


def two_point_pool():
    vx, vy = Const("x"), Const("y")
    pool = []
    for t in (Atom("R", (vx,)), Atom("R", (vy,)), Eq(vx, vx), Eq(vx, vy),
              Eq(vy, vx), Eq(vy, vy)):
        pool += [t, Not(t)]
    return pool


def test_oracle_family_membership_is_positivity(m4):
    theory = split_constant_theory()
    pool = list(theory) + [Eq(Const("d"), Const("c0")),
                           Eq(Const("d"), Const("c1")),
                           Eq(Const("c0"), Const("c1"))]
    cp = cp_from_model(m4, pool)
    assert cp.family is None
    assert cp.is_member(cp.encode(()))
    disj, neq01, neqd0, neqd1 = theory
    assert cp.is_member(cp.encode({disj, neqd0}))
    # the two inequalities meet to zero on the reference model
    assert not cp.is_member(cp.encode({neqd0, neqd1}))
    for s in enumerate_members(cp):
        vals = [eval_formula(cp.model, f) for f in cp.decode(s)]
        assert m4.algebra.inf(vals) != m4.algebra.zero


def test_oracle_family_passes_checks_and_smax():
    cp = cp_from_model(two_point_model(), two_point_pool())
    assert len(enumerate_members(cp)) == 64
    assert check_cp(cp, smax=True)["ok"]


def test_convert_to_explicit_preserves_membership():
    cp = cp_from_model(two_point_model(), two_point_pool())
    exp = convert_to_explicit(cp)
    assert exp.family is not None
    assert set(exp.family) == set(enumerate_members(cp))
    assert check_cp(exp)["ok"]


def test_kappa_omega_biconditional():
    cp = cp_from_model(two_point_model(), two_point_pool())
    gf = generic_filter(cp)
    rep = check_kappa_omega_iff(cp, gf)
    assert rep["ok"]
    assert rep["checked"] == 12


def test_conditions_as_family_is_consistency_property(good_families):
    cond = good_families["conditions_family"]
    assert check_cp(cond)["ok"]
    eq4 = good_families["eq4_family"]
    assert set(map(cond.decode, cond.family)) == set(map(eq4.decode,
                                                         eq4.family))


def test_check_cp_asks_a_positivity_family_no_oracle_question(corpus_dir):
    """Each candidate is one AND of the member's meet with the candidate's
    value, so check_cp on the b16 positivity family calls the membership
    oracle not once (the per-candidate check called it 364,160 times)."""
    cp, _ = cp_from_algebra(
        parse_algebra(load_json(str(corpus_dir / "b16.json"))))
    calls = []
    oracle = cp.oracle
    object.__setattr__(cp, "oracle", lambda m: calls.append(m) or oracle(m))
    report = check_cp(cp)
    assert report == {"ok": True, "family_size": 13328, "violations": []}
    assert calls == []

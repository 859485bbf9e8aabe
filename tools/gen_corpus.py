"""Regenerate src/infkit/corpus/*.json.

Every file is produced by the iojson emitters, so the shipped bytes are the
canonical serialization by construction. Every expectation written into
manifest.json is computed and asserted here first; the script fails loudly
rather than freeze a value it did not check.
"""
from __future__ import annotations

import itertools
from pathlib import Path

from infkit.boolalg import (
    FinPoset, check_tables, enumerate_ultrafilters, powerset_algebra,
    ro_completion, two_valued_algebra,
)
from infkit.bvmodel import BValuedModel, bounded_boolean_sat, check_model
from infkit.calculus import Proof, Sequent, Step, check_proof, soundness_sample
from infkit.consprop import (
    ConsistencyProperty, check_cp, check_smax, convert_to_explicit,
    cp_from_model, forcing_poset_conditions, maximal_members,
)
from infkit.iojson import (
    as_table_algebra, dumps, emit_algebra, emit_cp, emit_formula, emit_model,
    emit_poset, emit_pool, emit_proof, emit_signature, emit_theory,
    emit_ultrafilter,
)
from infkit.modelgen import split_signature, split_constant_theory, four_element_model
from infkit.syntax import (
    And, Atom, Const, Eq, Exists, Forall, Not, Or, Signature, Var,
)

CORPUS = Path(__file__).resolve().parents[1] / "src" / "infkit" / "corpus"
SOUND_SAMPLES = 25

entries: list[dict] = []


def cp_text(cp: ConsistencyProperty) -> str:
    """The file text of an explicit family."""
    parts: list[str] = []
    emit_cp(cp, parts.append)
    return "".join(parts)


def ship(name: str, kind: str, payload: dict | str,
         expect: dict | None = None, **extra) -> None:
    text = payload if isinstance(payload, str) else dumps(payload)
    (CORPUS / name).write_text(text, encoding="utf-8")
    entry = {"file": name, "kind": kind, **extra}
    if expect:
        entry["expect"] = expect
    entries.append(entry)


def fkey(f):
    return f.key()


def main() -> None:
    CORPUS.mkdir(parents=True, exist_ok=True)
    for old in CORPUS.glob("*.json"):
        old.unlink()

    # --- models -----------------------------------------------------------
    M = four_element_model()
    assert check_model(M)["ok"]
    ship("four_element_model.json", "model", emit_model(M), {"valid": True})

    alg2 = two_valued_algebra()
    M2 = BValuedModel(
        signature=Signature(relations=(("R", 1),), constants=()),
        algebra=alg2, domain=("x", "y"), eq={},
        relations={"R": {("x",): alg2.one, ("y",): alg2.zero}},
        constants={})
    assert check_model(M2)["ok"]
    ship("two_point_model.json", "model", emit_model(M2), {"valid": True})

    # --- split-constant theory: Boolean witness exists, crisp search exhausts
    sigA = split_signature()
    T = split_constant_theory()
    bounds = {"max_atoms": 2, "max_domain": 3}
    assert bounded_boolean_sat(sigA, list(T), mode="weak", **bounds).get("found")
    assert not bounded_boolean_sat(sigA, list(T), mode="strong", **bounds).get("found")
    ship("split_constant_theory.json", "theory", emit_theory((sigA, tuple(T))),
         {"weak_witness": bounds, "strong_exhausted": bounds})

    # --- sentence pools ----------------------------------------------------
    los_pool = tuple(T) + (
        Exists(("v0",), Not(Eq(Var("v0"), Const("d")))),
        Forall(("v0",), Or((Eq(Var("v0"), Const("c0")),
                            Eq(Var("v0"), Const("c1")),
                            Eq(Var("v0"), Const("d"))))),
        Eq(Const("c0"), Const("d")),
    )
    ship("los_pool.json", "pool", emit_pool(los_pool))

    vx, vy = Const("x"), Const("y")
    pool12: list = []
    for t in (Atom("R", (vx,)), Atom("R", (vy,)), Eq(vx, vx), Eq(vx, vy),
              Eq(vy, vx), Eq(vy, vy)):
        pool12 += [t, Not(t)]
    ship("max_pool.json", "pool", emit_pool(tuple(pool12)))

    # --- algebras: powersets on 1..4 atoms ---------------------------------
    for n in (1, 2, 3, 4):
        alg = powerset_algebra(tuple(f"a{i}" for i in range(n)))
        table = emit_algebra(as_table_algebra(alg))
        assert not any(check_tables(table["elements"], table["meet"],
                                    table["join"], table["comp"]))
        assert len(alg.atoms()) == n
        ship(f"b{2 ** n}.json", "algebra", emit_algebra(alg),
             {"laws": True, "atoms": n})

    # --- ultrafilters of the four-element algebra --------------------------
    b4 = powerset_algebra(("a0", "a1"))
    for uf in enumerate_ultrafilters(b4):
        (name,) = b4.labels[b4.inf(uf)]
        ship(f"uf_{name}.json", "ultrafilter", emit_ultrafilter(b4, uf),
             algebra="b4.json")

    # --- posets with known regular-open completions ------------------------
    def ship_poset(name: str, poset: FinPoset) -> None:
        alg, _ = ro_completion(poset)
        size = len(alg.elements)
        assert size == 2 ** len(poset.minimals())
        ship(name, "poset", emit_poset(poset), {"ro_size": size})

    for n in (1, 2, 3, 4):
        ship_poset(f"antichain_{n}.json",
                   FinPoset([f"p{i}" for i in range(n)], []))
    ship_poset("chain_2.json", FinPoset(["lo", "hi"], [("lo", "hi")]))
    ship_poset("vee_3.json",
               FinPoset(["l", "r", "top"], [("l", "top"), ("r", "top")]))

    # --- explicit families -------------------------------------------------
    def subsets(fs):
        xs = sorted(fs, key=fkey)
        for k in range(len(xs) + 1):
            for combo in itertools.combinations(xs, k):
                yield frozenset(combo)

    sig0 = Signature(relations=(), constants=())
    c = [Const(f"c{i}") for i in range(4)]
    diag = [Eq(t, t) for t in c]
    block1 = frozenset(diag + [Eq(c[0], c[1]), Eq(c[1], c[0])])
    block2 = frozenset(diag + [Eq(c[2], c[3]), Eq(c[3], c[2])])
    fam = sorted(set(subsets(block1)) | set(subsets(block2)),
                 key=lambda m: tuple(sorted(f.key() for f in m)))
    pool8 = tuple(sorted(block1 | block2, key=fkey))
    EQ4 = ConsistencyProperty(signature=sig0,
                              fresh_constants=("c0", "c1", "c2", "c3"),
                              pool=pool8, family=tuple(fam))
    assert len(EQ4.family) == 112 and check_cp(EQ4)["ok"]
    ship("eq4_family.json", "cp", cp_text(EQ4),
         {"check_cp": True, "members": 112})

    # two-constant variant: closed under adding any pool sentence
    eqs2 = [Eq(c[0], c[0]), Eq(c[1], c[1]), Eq(c[0], c[1]), Eq(c[1], c[0])]
    fam16 = sorted(subsets(frozenset(eqs2)),
                   key=lambda m: tuple(sorted(f.key() for f in m)))
    EQ2 = ConsistencyProperty(signature=sig0, fresh_constants=("c0", "c1"),
                              pool=tuple(sorted(eqs2, key=fkey)),
                              family=tuple(fam16))
    assert len(EQ2.family) == 16
    assert check_cp(EQ2)["ok"] and check_smax(EQ2)["ok"]
    ship("eq2_family.json", "cp", cp_text(EQ2),
         {"check_cp": True, "members": 16, "smax": True})

    # conditions of the forcing order over EQ4, recast as a family
    conds = forcing_poset_conditions(maximal_members(EQ4), 0)
    COND = ConsistencyProperty(signature=sig0,
                               fresh_constants=("c0", "c1", "c2", "c3"),
                               pool=pool8, family=tuple(conds),
                               sentences=EQ4.sentences)
    assert check_cp(COND)["ok"]
    ship("conditions_family.json", "cp", cp_text(COND),
         {"check_cp": True, "members": len(conds)})

    # value-positivity family of the two-point crisp model, made explicit.
    # The pool lacks double negations, so the single-extension check cannot
    # decide every candidate; it reports pool gaps rather than violations.
    S2 = convert_to_explicit(cp_from_model(M2, pool12))
    assert len(S2.family) == 64
    assert check_cp(S2)["ok"]
    smax_rep = check_smax(S2)
    assert not smax_rep["ok"]
    assert {v["kind"] for v in smax_rep["violations"]} == {"PoolIncomplete"}
    ship("max_family.json", "cp", cp_text(S2),
         {"check_cp": True, "members": 64})

    # family that omits every disjunct of a member disjunction
    sigRS = Signature(relations=(("R", 1), ("S", 1)), constants=())
    cc = Const("c")
    dis = Or((Atom("R", (cc,)), Atom("S", (cc,))))
    ceq = Eq(cc, cc)
    IND4 = ConsistencyProperty(
        signature=sigRS, fresh_constants=("c",),
        pool=(dis, Atom("R", (cc,)), Atom("S", (cc,)), ceq),
        family=(frozenset(), frozenset({ceq}), frozenset({dis}),
                frozenset({dis, ceq})))
    rep = check_cp(IND4)
    assert not rep["ok"]
    assert {v["clause"] for v in rep["violations"]} == {"Ind.4"}
    assert all(v["kind"] == "violation" for v in rep["violations"])
    ship("ind4_family.json", "cp", cp_text(IND4), {"check_cp": False})

    # member containing a sentence together with its negation
    sigR = Signature(relations=(("R", 1),), constants=("k",))
    Rk = Atom("R", (Const("k"),))
    CON = ConsistencyProperty(
        signature=sigR, fresh_constants=("c",),
        pool=(Rk, Not(Rk)), family=(frozenset(), frozenset({Rk, Not(Rk)})))
    repc = check_cp(CON)
    assert not repc["ok"]
    assert any(v["clause"] == "Con" and v["kind"] == "violation"
               for v in repc["violations"])
    ship("con_family.json", "cp", cp_text(CON), {"check_cp": False})

    # --- proofs -------------------------------------------------------------
    Rc = Atom("R", (Const("c"),))
    Rv = Atom("R", (Var("v0"),))
    Rw = Atom("R", (Var("w0"),))
    Ru = Atom("R", (Var("u0"),))
    Sc = Atom("S", (Const("c"),))
    fa = Forall(("v0",), Rv)
    fw = Forall(("w0",), Rw)
    tC, uD = Const("c"), Const("d")

    def ship_proof(name: str, proof: Proof, *, sound: bool = False,
                   reject_step: int | None = None,
                   countermodel: int | None = None) -> None:
        rep = check_proof(proof)
        expect: dict = {"accepted": rep["accepted"]}
        if reject_step is None:
            assert rep["accepted"], (name, rep)
        else:
            assert not rep["accepted"] and rep["step"] == reject_step, (name, rep)
            expect["reject_step"] = reject_step
        if sound:
            ss = soundness_sample(proof.goal, samples=SOUND_SAMPLES, seed=0)
            assert ss["ok"], (name, ss)
            expect["sound_samples"] = SOUND_SAMPLES
        if countermodel is not None:
            ss = soundness_sample(proof.goal, samples=countermodel, seed=0)
            assert not ss["ok"], (name, "no countermodel found")
            expect["countermodel"] = countermodel
        ship(name, "proof", emit_proof(proof), expect)

    ship_proof("proof_axiom.json",
               Proof((Step(Sequent({Rc}, {Rc}), "axiom"),)), sound=True)
    ship_proof("proof_quant_left.json", Proof((
        Step(Sequent({Rc}, {Rc}), "axiom"),
        Step(Sequent({fa}, {Rc}), "quant_left", (0,),
             {"formula": fa, "terms": (Const("c"),)}),
    )), sound=True)
    ship_proof("proof_quant_right.json", Proof((
        Step(Sequent({Ru}, {Ru}), "axiom"),
        Step(Sequent({fa}, {Ru}), "quant_left", (0,),
             {"formula": fa, "terms": (Var("u0"),)}),
        Step(Sequent({fa}, {fw}), "quant_right", (1,),
             {"formula": fw, "fresh": ("u0",)}),
    )), sound=True)
    # generalizing over a variable still free in the context is rejected
    ship_proof("proof_bad_eigenvariable.json", Proof((
        Step(Sequent({Rv}, {Rv}), "axiom"),
        Step(Sequent({Rv}, {fa}), "quant_right", (0,),
             {"formula": fa, "fresh": ("v0",)}),
    )), reject_step=1)
    conj = And((Rc, Sc))
    ship_proof("proof_conj_both.json", Proof((
        Step(Sequent({Rc, Sc}, {Rc}), "axiom"),
        Step(Sequent({Rc, Sc}, {Sc}), "axiom"),
        Step(Sequent({Rc, Sc}, {conj}), "conj_right", (0, 1),
             {"formula": conj}),
        Step(Sequent({conj}, {conj}), "conj_left", (2,), {"formula": conj}),
    )))
    top = And(())
    ship_proof("proof_empty_conj.json",
               Proof((Step(Sequent(frozenset(), {top}), "conj_right", (),
                           {"formula": top}),)), sound=True)
    ship_proof("proof_neg_right.json", Proof((
        Step(Sequent({Rc}, {Rc}), "axiom"),
        Step(Sequent(frozenset(), {Rc, Not(Rc)}), "neg_right", (0,),
             {"formula": Rc}),
    )), sound=True)
    ship_proof("proof_cut.json", Proof((
        Step(Sequent({Rc}, {Rc}), "axiom"),
        Step(Sequent({Rc}, {Rc}), "axiom"),
        Step(Sequent({Rc}, {Rc}), "cut", (0, 1), {"formula": Rc}),
    )))
    ship_proof("proof_eq_swap.json",
               Proof((Step(Sequent({Eq(uD, tC)}, {Eq(tC, uD)}), "eq1"),)),
               sound=True)
    ship_proof("proof_eq_subst.json", Proof((Step(
        Sequent({Eq(uD, tC), Rc}, {Atom("R", (uD,))}), "eq2", (),
        {"template": Rv, "vars": ("v0",), "from_terms": (tC,),
         "to_terms": (uD,)}),)), sound=True)
    ship_proof("proof_substitution.json", Proof((
        Step(Sequent({Rv}, {Rv}), "axiom"),
        Step(Sequent({Rc}, {Rc}), "substitution", (0,),
             {"map": {"v0": Const("c")}}),
    )))
    ship_proof("proof_weakening.json", Proof((
        Step(Sequent({Rc}, {Rc}), "axiom"),
        Step(Sequent({Rc, Sc}, {Rc, Eq(tC, tC)}), "weakening", (0,)),
    )))
    # Bare goal with no derivation: the checker must refuse it, and the
    # semantic sampler must exhibit a countermodel inside the budget.
    ship_proof("proof_unprovable_goal.json",
               Proof((Step(Sequent(frozenset(), {Rc}), "axiom"),)),
               reject_step=0, countermodel=100)

    # --- round-trip breadth -------------------------------------------------
    sample = Forall(("v0",), Or((
        Not(Exists(("w0",), And((Atom("R", (Var("w0"), Var("v0"))),
                                 Eq(Var("w0"), Const("c")))))),
        Eq(Var("v0"), Var("v0")),
    )))
    ship("formula_sample.json", "formula", emit_formula(sample))
    ship("signature_sample.json", "signature", emit_signature(
        Signature(relations=(("R", 2), ("S", 1)), constants=("c", "d"))))

    (CORPUS / "manifest.json").write_text(dumps({"entries": entries}),
                                          encoding="utf-8")
    print(f"wrote {len(entries) + 1} files to {CORPUS}")


if __name__ == "__main__":
    main()

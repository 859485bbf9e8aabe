import time

import pytest

from infkit import bvmodel, calculus
from infkit.calculus import (
    Proof, Sequent, Step, check_proof, in_calculus_fragment,
    soundness_sample,
)
from infkit.cli import main
from infkit.syntax import (
    And, Atom, Const, Eq, Exists, Forall, Not, Or, Var,
)

Rc = Atom("R", (Const("c"),))
Sc = Atom("S", (Const("c"),))
Rv = Atom("R", (Var("v0"),))
fa = Forall(("v0",), Rv)


def accepted(proof):
    rep = check_proof(proof)
    assert rep["accepted"], rep
    return rep


def rejected(proof, at=None):
    rep = check_proof(proof)
    assert not rep["accepted"], rep
    if at is not None:
        assert rep["step"] == at
    return rep


# --- the fragment gate --------------------------------------------------------

def test_fragment_membership():
    assert in_calculus_fragment(Not(And((Rc, fa))))
    assert not in_calculus_fragment(Or((Rc, Sc)))
    assert not in_calculus_fragment(Exists(("v0",), Rv))
    assert not in_calculus_fragment(Not(Or((Rc,))))


def test_sequent_rejects_formulas_outside_fragment():
    with pytest.raises(ValueError):
        Sequent({Or((Rc, Sc))}, set())
    with pytest.raises(ValueError):
        Sequent(set(), {Exists(("v0",), Rv)})


# --- per-rule accept/reject ------------------------------------------------------

def test_axiom():
    accepted(Proof((Step(Sequent({Rc}, {Rc}), "axiom"),)))
    rejected(Proof((Step(Sequent({Rc}, {Sc}), "axiom"),)), at=0)


def test_premise_indices_must_be_earlier_steps():
    rejected(Proof((Step(Sequent({Rc}, {Rc}), "axiom", (0,)),)), at=0)
    rejected(Proof((
        Step(Sequent({Rc}, {Rc}), "axiom"),
        Step(Sequent({Rc}, {Rc}), "cut", (0, 5), {"formula": Rc}),
    )), at=1)


def test_unknown_rule_rejected():
    rep = rejected(Proof((Step(Sequent({Rc}, {Rc}), "modus_ponens"),)), at=0)
    assert "unknown rule" in rep["reason"]


def test_quant_left():
    base = Step(Sequent({Rc}, {Rc}), "axiom")
    accepted(Proof((base, Step(Sequent({fa}, {Rc}), "quant_left", (0,),
                               {"formula": fa, "terms": (Const("c"),)}))))
    # instance does not match the premise antecedent
    rejected(Proof((base, Step(Sequent({fa}, {Rc}), "quant_left", (0,),
                               {"formula": fa, "terms": (Const("d"),)}))),
             at=1)


def test_quant_right_eigenvariable():
    Ru = Atom("R", (Var("u0"),))
    fw = Forall(("w0",), Atom("R", (Var("w0"),)))
    good = Proof((
        Step(Sequent({Ru}, {Ru}), "axiom"),
        Step(Sequent({fa}, {Ru}), "quant_left", (0,),
             {"formula": fa, "terms": (Var("u0"),)}),
        Step(Sequent({fa}, {fw}), "quant_right", (1,),
             {"formula": fw, "fresh": ("u0",)}),
    ))
    accepted(good)
    # the eigenvariable still occurs free on the left
    bad = Proof((
        Step(Sequent({Rv}, {Rv}), "axiom"),
        Step(Sequent({Rv}, {fa}), "quant_right", (0,),
             {"formula": fa, "fresh": ("v0",)}),
    ))
    rep = rejected(bad, at=1)
    assert "eigenvariable" in rep["reason"]


def test_conj_rules():
    conj = And((Rc, Sc))
    both = Proof((
        Step(Sequent({Rc, Sc}, {Rc}), "axiom"),
        Step(Sequent({Rc, Sc}, {Sc}), "axiom"),
        Step(Sequent({Rc, Sc}, {conj}), "conj_right", (0, 1),
             {"formula": conj}),
        Step(Sequent({conj}, {conj}), "conj_left", (2,), {"formula": conj}),
    ))
    accepted(both)
    # a premise is missing
    rejected(Proof((
        Step(Sequent({Rc, Sc}, {Rc}), "axiom"),
        Step(Sequent({Rc, Sc}, {conj}), "conj_right", (0,),
             {"formula": conj}),
    )), at=1)


def test_empty_conjunction_needs_no_premises():
    accepted(Proof((Step(Sequent(frozenset(), {And(())}), "conj_right", (),
                         {"formula": And(())}),)))


def test_neg_rules():
    accepted(Proof((
        Step(Sequent({Rc}, {Rc}), "axiom"),
        Step(Sequent(frozenset(), {Rc, Not(Rc)}), "neg_right", (0,),
             {"formula": Rc}),
    )))
    accepted(Proof((
        Step(Sequent({Rc}, {Rc}), "axiom"),
        Step(Sequent({Rc, Not(Rc)}, frozenset()), "neg_left", (0,),
             {"formula": Rc}),
    )))


def test_cut():
    ax = Step(Sequent({Rc}, {Rc}), "axiom")
    accepted(Proof((ax, ax, Step(Sequent({Rc}, {Rc}), "cut", (0, 1),
                                 {"formula": Rc}))))
    rejected(Proof((ax, ax, Step(Sequent({Rc}, {Rc}), "cut", (0, 1),
                                 {"formula": Sc}))), at=2)


def test_eq_rules():
    t, u = Const("c"), Const("d")
    accepted(Proof((Step(Sequent({Eq(u, t)}, {Eq(t, u)}), "eq1"),)))
    rejected(Proof((Step(Sequent({Eq(u, t)}, {Eq(u, t)}), "eq1"),)), at=0)
    accepted(Proof((Step(
        Sequent({Eq(u, t), Rc}, {Atom("R", (u,))}), "eq2", (),
        {"template": Rv, "vars": ("v0",), "from_terms": (t,),
         "to_terms": (u,)}),)))
    # reflexivity is not an axiom scheme of this calculus
    rejected(Proof((Step(Sequent(frozenset(), {Eq(t, t)}), "eq1"),)), at=0)


def test_substitution_and_weakening():
    accepted(Proof((
        Step(Sequent({Rv}, {Rv}), "axiom"),
        Step(Sequent({Rc}, {Rc}), "substitution", (0,),
             {"map": {"v0": Const("c")}}),
    )))
    accepted(Proof((
        Step(Sequent({Rc}, {Rc}), "axiom"),
        Step(Sequent({Rc, Sc}, {Rc, Eq(Const("c"), Const("c"))}),
             "weakening", (0,)),
    )))
    # weakening cannot drop formulas
    rejected(Proof((
        Step(Sequent({Rc, Sc}, {Rc}), "axiom"),
        Step(Sequent({Rc}, {Rc}), "weakening", (0,)),
    )), at=1)


def test_empty_proof_rejected():
    rep = check_proof(Proof(()))
    assert not rep["accepted"]
    assert rep["reason"] == "empty proof"


# --- soundness sampling -------------------------------------------------------

def test_soundness_on_accepted_goal():
    goal = Sequent({fa}, {Rc})
    rep = soundness_sample(goal, samples=100, seed=0)
    assert rep["ok"], rep
    assert rep["samples"] == 100


def test_countermodel_for_unprovable_goal():
    rep = soundness_sample(Sequent(frozenset(), {Rc}), samples=100, seed=1)
    assert not rep["ok"]
    assert rep["violations"][0]["sample"] <= 100


def test_corpus_proofs_assemble_no_model(corpus_dir, monkeypatch, capsys):
    """No sample of an accepted corpus proof is a countermodel, so none is
    made a model: each quotient is decided on its own data."""
    built = []

    def counting(*args):
        built.append(args)
        return bvmodel.assemble_model(*args)

    monkeypatch.setattr(calculus, "assemble_model", counting)
    init = bvmodel.BValuedModel.__post_init__
    monkeypatch.setattr(bvmodel.BValuedModel, "__post_init__",
                        lambda model: built.append(model) or init(model))
    proofs = sorted(corpus_dir.glob("proof_*.json"))
    assert len(proofs) == 13
    exits = [main(["check-proof", str(path), "--soundness-samples", "2000",
                   "--max-atoms", "3", "--max-domain", "4"])
             for path in proofs]
    capsys.readouterr()
    assert sorted(exits) == [0] * 11 + [1] * 2
    assert built == []


def test_only_the_countermodel_is_assembled(monkeypatch):
    built = []
    init = bvmodel.BValuedModel.__post_init__
    monkeypatch.setattr(bvmodel.BValuedModel, "__post_init__",
                        lambda model: built.append(model) or init(model))
    rep = soundness_sample(Sequent(frozenset(), {Rc}), samples=100, seed=1)
    assert rep["violations"] and built == [rep["violations"][0]["model"]]


@pytest.mark.parametrize("max_domain", ["13", "40"])
def test_large_domains_are_drawn_without_listing_partitions(
        corpus_dir, capsys, max_domain):
    """Bell(13) is 27,644,437 and Bell(40) about 1.6e35: the partition of
    each drawn domain is unranked from its index, not picked from a list."""
    start = time.perf_counter()
    assert main(["check-proof", str(corpus_dir / "proof_axiom.json"),
                 "--soundness-samples", "20", "--max-atoms", "1",
                 "--max-domain", max_domain]) == 0
    assert time.perf_counter() - start < 2
    assert '"ok": true' in capsys.readouterr().out

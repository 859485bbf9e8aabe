"""Acceptance suite: one test per headline guarantee of the package.

Each test drives a whole workflow at full breadth (every shipped artifact,
every root, every small structure), so a red line here means a broken
guarantee rather than a broken helper. Unit-level coverage lives in the
sibling modules; expected counts below were computed once with the
bruteforce oracles and frozen.
"""

import itertools
import json
import random

import pytest

from infkit.boolalg import regular_open_sets_bruteforce, ro_completion
from infkit.bvmodel import (ShapeError, bounded_boolean_sat,
                            check_full_everywhere, check_mixing, check_model,
                            eval_formula)
from infkit.calculus import RULES, Proof, Step, check_proof, soundness_sample
from infkit.consprop import (build_af, check_cp, generic_filter,
                             verify_realizes)
from infkit.iojson import (dumps, emit_algebra, emit_formula,
                           emit_model, emit_pool, emit_poset, emit_proof,
                           emit_signature, emit_theory, emit_ultrafilter,
                           load_json, parse_algebra, parse_cp, parse_formula,
                           parse_model, parse_pool, parse_poset, parse_proof,
                           parse_signature, parse_theory, parse_ultrafilter)
from infkit.mansfield import mansfield_build, verify_claim1, verify_claim2
from infkit.quotient import los_check, quotient
from infkit.syntax import Const, Eq, Formula, Not, Or
from inputs import (
    all_labeled_posets, cp_text, down_sets, formula_pool, model_pool,
    split_constant_theory, split_signature, three_element_nonmixing_model,
    ultrafilters,
)
from test_reference_paths import (check_algebra, check_mixing_by_antichains,
                                  is_dense_subset, reference_cp_from_algebra,
                                  reference_roundtrip_check)


def _load(corpus_dir, name, parser):
    return parser(load_json(str(corpus_dir / name)))


def test_reference_model_values_and_bounded_search(m4):
    alg = m4.algebra
    d, c0, c1 = Const("d"), Const("c0"), Const("c1")
    assert eval_formula(m4, Or((Eq(d, c0), Eq(d, c1)))) == alg.one
    assert eval_formula(m4, Not(Eq(c0, c1))) == alg.one
    left = eval_formula(m4, Not(Eq(d, c0)))
    right = eval_formula(m4, Not(Eq(d, c1)))
    assert {left, right} == set(alg.atoms())
    assert alg.comp(left) == right

    sig, theory = split_signature(), split_constant_theory()
    weak = bounded_boolean_sat(sig, theory, max_atoms=2, max_domain=4,
                               mode="weak")
    assert weak["found"]
    witness = weak["model"]
    assert check_model(witness)["ok"]
    assert all(eval_formula(witness, f) != witness.algebra.zero
               for f in theory)
    strong = bounded_boolean_sat(sig, theory, max_atoms=2, max_domain=4,
                                 mode="strong")
    assert strong.get("exhausted") and not strong.get("found")


def test_ro_completion_matches_bruteforce_on_all_small_posets(corpus_dir):
    counts = []
    for n in range(1, 6):
        posets = all_labeled_posets(n)
        counts.append(len(posets))
        for poset in posets:
            alg, emb = ro_completion(poset)
            assert check_algebra(alg)["ok"]
            assert set(map(alg.label, alg.elements)) \
                == regular_open_sets_bruteforce(poset)
            downs = down_sets(poset)
            for p, q in itertools.product(poset.elements, repeat=2):
                if p in downs[q]:
                    assert alg.leq(emb[p], emb[q])
                compatible = bool(downs[p] & downs[q])
                assert compatible == (alg.meet(emb[p], emb[q]) != alg.zero)
            assert is_dense_subset(alg, set(emb.values()))
    assert counts == [1, 3, 19, 219, 4231]

    for n in range(1, 5):
        anti = _load(corpus_dir, f"antichain_{n}.json", parse_poset)
        assert len(ro_completion(anti)[0].elements) == 2 ** n
    chain = _load(corpus_dir, "chain_2.json", parse_poset)
    assert len(ro_completion(chain)[0].elements) == 2


def test_quotient_biconditional_holds_everywhere():
    pool = formula_pool()
    total = 0
    for model in model_pool():
        for ultra in ultrafilters(model.algebra):
            rep = los_check(model, quotient(model, ultra), ultra, pool)
            assert rep["ok"], rep["violations"][:1]
            total += rep["checked"]
    # pins the sweep breadth: models x ultrafilters x full formulas x tuples
    assert total == 1967


def check_subst_inequality(model, f, taus, sigmas) -> dict:
    """inf_i [tau_i = sigma_i] meet [f(tau)] <= [f(sigma)], the formula-level
    substitution inequality, with the free variables in sorted order."""
    alg = model.algebra
    vs = tuple(sorted(f.free_vars()))
    if len(vs) != len(taus) or len(vs) != len(sigmas):
        raise ShapeError("tuple lengths do not match the variable list")
    agree = alg.inf(model.eq_value(a, b) for a, b in zip(taus, sigmas))
    lhs = alg.meet(agree, eval_formula(model, f, dict(zip(vs, taus))))
    rhs = eval_formula(model, f, dict(zip(vs, sigmas)))
    return {"ok": alg.leq(lhs, rhs), "lhs": lhs, "rhs": rhs}


def test_substitution_inequality_on_sampled_cases():
    rng = random.Random(0)
    models = model_pool()
    candidates = [f for f in formula_pool() if f.free_vars()]
    for _ in range(600):
        model = rng.choice(models)
        f = rng.choice(candidates)
        fv = sorted(f.free_vars())
        taus = tuple(rng.choice(model.domain) for _ in fv)
        sigmas = tuple(rng.choice(model.domain) for _ in fv)
        rep = check_subst_inequality(model, f, taus, sigmas)
        assert rep["ok"], (f.key(), taus, sigmas, rep)


def test_mixing_implies_fullness_and_methods_agree(m4, corpus_dir):
    los_pool = _load(corpus_dir, "los_pool.json", parse_pool)
    cases = [(m, formula_pool()) for m in model_pool()]
    cases.append((m4, los_pool))
    cases.append((three_element_nonmixing_model(), los_pool))
    mixing_models = 0
    for model, pool in cases:
        refined = check_mixing(model)
        assert refined["mixing"] == check_mixing_by_antichains(model)["mixing"]
        if refined["mixing"]:
            mixing_models += 1
            for f in pool:
                rep = check_full_everywhere(model, f)
                assert rep["ok"], (f.key(), rep["failures"][:1])
    assert mixing_models == 16
    assert not check_mixing(three_element_nonmixing_model())["mixing"]


def check_kappa_omega_iff(cp, gf=None) -> dict:
    """On a maximal family: for every pool sentence, the term structure of
    the generic filter (by default at the empty root) satisfies it exactly
    when it lies in sigma."""
    if gf is None:
        gf = generic_filter(cp)
    model = build_af(cp, gf.minimum).to_two_valued_model()
    one = model.algebra.one
    failures = []
    for f in cp.pool:
        sat = eval_formula(model, f) == one
        member = bool(gf.minimum >> cp.bit[f] & 1)
        if sat != member:
            failures.append({"sentence": f.key(), "satisfied": sat,
                             "in_sigma": member})
    return {"ok": not failures, "checked": len(cp.pool),
            "failures": failures}


def test_generic_filter_pipeline_realizes_every_root(good_families,
                                                     max_family):
    roots = 0
    for name, cp in good_families.items():
        assert check_cp(cp)["ok"], name
        for root in cp.family:
            gf = generic_filter(cp, root)
            assert gf.minimum & root == root
            rep = verify_realizes(cp, build_af(cp, gf.minimum), gf.minimum)
            assert rep["ok"], (name, rep["failures"][:1])
            roots += 1
    assert roots == 304
    ko = check_kappa_omega_iff(max_family)
    assert ko["ok"] and ko["checked"] == 12


def test_condition_model_and_claims_at_every_root(good_families, corpus_dir):
    for name, cp in good_families.items():
        for root in cp.family:
            built = mansfield_build(cp, root)
            assert built["root_ok"], (name, cp.key(root))
            assert check_model(built["model"])["ok"]
            assert verify_claim1(cp, built)["ok"]
            assert verify_claim2(cp, built)["ok"]
    for bad in ("ind4_family.json", "con_family.json"):
        with pytest.raises(ValueError):
            mansfield_build(_load(corpus_dir, bad, parse_cp))


def test_forcing_poset_recovers_each_algebra(corpus_dir):
    members_by_size = {2: 16, 4: 80, 8: 528, 16: 13328}
    for size, members in members_by_size.items():
        alg = _load(corpus_dir, f"b{size}.json", parse_algebra)
        cp, pi, report = reference_cp_from_algebra(alg)
        assert report["ok"], (size, report)
        assert report["members"] == members
        assert not report["order_failures"]
        assert not report["incompatibility_failures"]
        assert not report["surjectivity_failures"]
        assert check_cp(cp)["ok"], size
        rt = reference_roundtrip_check(alg)
        assert rt["ok"], (size, rt)
        assert rt["algebra_size"] == size
        assert rt["atoms"] == size.bit_length() - 1
        if rt["materialized"]:
            assert rt["ro_size"] == size


def _perturbed(value):
    """One deterministic replacement for a rule parameter value."""
    if isinstance(value, Formula):
        return Not(value)
    if isinstance(value, dict):
        if not value:
            return {"zm0": Const("zmc")}
        key = sorted(value)[0]
        return {**value, key: Const("zmc")}
    if isinstance(value, (list, tuple)):
        if not value:
            return (Const("zmc"),)
        head = ("zm0" if isinstance(value[0], str) else Const("zmc"),)
        return head + tuple(value[1:])
    raise AssertionError(f"unexpected parameter type: {value!r}")


def _mutants(proof):
    """Every single-parameter mutation: one step's rule, one premise entry,
    or one rule parameter changed; sequents stay fixed."""
    for i, step in enumerate(proof.steps):
        seq, rule0, params = step.sequent, step.rule, step.params
        for rule in RULES:
            if rule != rule0:
                yield i, Step(seq, rule, step.premises, params)
        prem = tuple(step.premises)
        for k in range(len(prem)):
            bumped = prem[:k] + (prem[k] + 1,) + prem[k + 1:]
            yield i, Step(seq, rule0, bumped, params)
            if prem[k] != 0:
                zeroed = prem[:k] + (0,) + prem[k + 1:]
                yield i, Step(seq, rule0, zeroed, params)
        if prem:
            yield i, Step(seq, rule0, prem[:-1], params)
        if i > 0:
            yield i, Step(seq, rule0, prem + (0,), params)
        for key in sorted(params or {}):
            mutated = {**params, key: _perturbed(params[key])}
            yield i, Step(seq, rule0, step.premises, mutated)


def test_calculus_accepts_corpus_rejects_mutants_and_is_sound(corpus_dir,
                                                              manifest):
    entries = [e for e in manifest["entries"] if e["kind"] == "proof"]
    assert len(entries) == 13
    accepted_goals = []
    mutants = rejected = 0
    for entry in entries:
        proof = _load(corpus_dir, entry["file"], parse_proof)
        rep = check_proof(proof)
        assert rep["accepted"] == entry["expect"]["accepted"], entry["file"]
        if not rep["accepted"]:
            continue
        accepted_goals.append(proof.goal)
        goal_key = proof.goal.key()
        for i, step in _mutants(proof):
            mutants += 1
            steps = proof.steps[:i] + (step,) + proof.steps[i + 1:]
            mrep = check_proof(Proof(steps))
            if mrep["accepted"]:
                assert Proof(steps).goal.key() == goal_key
            else:
                rejected += 1
    assert len(accepted_goals) == 11
    assert mutants >= 250 and rejected > 0

    for goal in accepted_goals:
        ss = soundness_sample(goal, samples=200, seed=0)
        assert ss["ok"], ss["violations"][:1]

    # a bare unproved goal: refused by the checker, refuted by sampling
    unprovable = _load(corpus_dir, "proof_unprovable_goal.json", parse_proof)
    assert not check_proof(unprovable)["accepted"]
    ss = soundness_sample(unprovable.goal, samples=100, seed=0)
    assert not ss["ok"] and ss["violations"]


def test_every_corpus_file_round_trips_byte_identically(corpus_dir, manifest):
    parsers = {
        "formula": parse_formula, "signature": parse_signature,
        "algebra": parse_algebra, "poset": parse_poset, "model": parse_model,
        "theory": parse_theory, "pool": parse_pool, "cp": parse_cp,
        "proof": parse_proof,
    }
    emitters = {
        "formula": emit_formula, "signature": emit_signature,
        "algebra": emit_algebra, "poset": emit_poset, "model": emit_model,
        "theory": emit_theory, "pool": emit_pool, "proof": emit_proof,
    }
    checked = 0
    for entry in manifest["entries"]:
        kind, rel = entry["kind"], entry["file"]
        raw = (corpus_dir / rel).read_text()
        if kind == "ultrafilter":
            alg = _load(corpus_dir, entry["algebra"], parse_algebra)
            value = parse_ultrafilter(json.loads(raw), alg)
            assert dumps(emit_ultrafilter(alg, value)) == raw, rel
        else:
            value = parsers[kind](json.loads(raw))
            text = cp_text(value) if kind == "cp" \
                else dumps(emitters[kind](value))
            assert text == raw, rel
        checked += 1
    raw = (corpus_dir / "manifest.json").read_text()
    assert dumps(json.loads(raw)) == raw
    assert checked == len(manifest["entries"]) == 38

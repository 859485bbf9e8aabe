"""The mask-based bounded search against the candidate-by-candidate search it
replaced, kept here as the oracle."""
import hashlib
import itertools
import json
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from infkit import bvmodel
from infkit.bvmodel import (
    CapExceeded, _partitions, _subsets_lex, assemble_model,
    bounded_boolean_sat, eval_formula, structure_count,
)
from infkit.cli import main
from infkit.iojson import dumps, emit_model
from infkit.modelgen import (
    random_structures, split_constant_theory, split_signature,
)
from infkit.syntax import (
    And, Atom, Const, Eq, Exists, Forall, Not, Or, Signature, Var,
)
from inputs import model_pool


# --- the oracle ---------------------------------------------------------------

def _structures(signature, n_dom):
    out = []
    for rgs in _partitions(n_dom):
        n_classes = max(rgs) + 1
        spaces = [_subsets_lex(list(itertools.product(range(n_classes),
                                                      repeat=arity)))
                  for _, arity in signature.relations]
        for rel_choice in itertools.product(*spaces) if spaces else [()]:
            out.append((rgs, tuple(rel_choice)))
    return out


def _witnesses(model, sentences, mode):
    alg = model.algebra
    for s in sentences:
        v = eval_formula(model, s)
        if mode == "strong" and v != alg.one:
            return False
        if mode == "weak" and v == alg.zero:
            return False
    return True


def _candidates(signature, n_dom, n_atoms):
    """Every candidate model of the search at one domain size and atom
    count, in search order."""
    domain = tuple(f"m{i}" for i in range(n_dom))
    atom_names = tuple(f"a{i}" for i in range(n_atoms))
    for combo in itertools.combinations_with_replacement(
            _structures(signature, n_dom), n_atoms):
        for cvals in itertools.product(domain,
                                       repeat=len(signature.constants)):
            consts = dict(zip(signature.constants, cvals))
            yield combo, consts, assemble_model(signature, atom_names,
                                                domain, combo, consts)


def oracle_sat(signature, sentences, max_atoms, max_domain, mode):
    """Assemble and evaluate every candidate in search order."""
    for n_dom in range(1, max_domain + 1):
        for n_atoms in range(1, max_atoms + 1):
            for _, _, model in _candidates(signature, n_dom, n_atoms):
                if _witnesses(model, sentences, mode):
                    return {"found": True, "model": model,
                            "atoms": n_atoms, "domain_size": n_dom}
    return {"exhausted": True, "max_atoms": max_atoms,
            "max_domain": max_domain, "mode": mode}


def report_bytes(result):
    if result.get("found"):
        result = dict(result, model=emit_model(result["model"]))
    return dumps(result)


def candidate_count(signature, max_atoms, max_domain):
    total = 0
    for n_dom in range(1, max_domain + 1):
        s = sum(math.prod(2 ** (max(rgs) + 1) ** arity
                          for _, arity in signature.relations)
                for rgs in _partitions(n_dom))
        for k in range(1, max_atoms + 1):
            total += (math.comb(s + k - 1, k)
                      * n_dom ** len(signature.constants))
    return total


# --- the mask search gives the oracle's report --------------------------------

def random_formula(rng, sig, depth, variables=("v0", "v1")):
    """A seeded random formula over the signature, at most `depth` deep."""
    terms = [Var(v) for v in variables]
    terms += [Const(c) for c in sig.constants]

    def atom():
        choices = []
        for rel, arity in sig.relations:
            choices.append((rel, arity))
        if not choices or rng.random() < 0.3:
            return Eq(rng.choice(terms), rng.choice(terms))
        rel, arity = rng.choice(choices)
        return Atom(rel, tuple(rng.choice(terms) for _ in range(arity)))

    def build(d):
        if d <= 0:
            return atom()
        pick = rng.randrange(6)
        if pick == 0:
            return atom()
        if pick == 1:
            return Not(build(d - 1))
        if pick == 2:
            width = rng.randrange(3)
            return And(tuple(build(d - 1) for _ in range(width)))
        if pick == 3:
            width = rng.randrange(3)
            return Or(tuple(build(d - 1) for _ in range(width)))
        v = rng.choice(variables)
        body = build(d - 1)
        return Forall((v,), body) if pick == 4 else Exists((v,), body)

    return build(depth)


TWO_ELEMENTS = Exists(("v0", "v1"), Not(Eq(Var("v0"), Var("v1"))))


@st.composite
def theories(draw):
    arities = draw(st.lists(st.integers(1, 2), max_size=2))
    n_consts = draw(st.integers(0, 2))
    sig = Signature(
        relations=tuple((f"R{i}", a) for i, a in enumerate(arities)),
        constants=tuple(f"c{i}" for i in range(n_consts)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    sentences = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("random", "negation", "two elements")))
        if kind == "negation" and sentences:
            # with the sentence before it, a weak witness needs two atoms
            sentences.append(Not(sentences[-1]))
        elif kind == "two elements":
            sentences.append(TWO_ELEMENTS)
        else:
            f = random_formula(rng, sig, rng.randrange(3))
            free = tuple(sorted(f.free_vars()))
            if free:
                f = Forall(free, f) if rng.random() < 0.5 else Exists(free, f)
            sentences.append(f)
    max_atoms = draw(st.integers(1, 3))
    max_domain = draw(st.integers(1, 3))
    # keep the oracle's exhaustive runs short
    while max_domain > 1 and candidate_count(sig, max_atoms, max_domain) > 1000:
        max_domain -= 1
    return sig, sentences, max_atoms, max_domain


@settings(max_examples=60, deadline=None)
@given(theories())
def test_mask_search_matches_oracle(theory):
    sig, sentences, max_atoms, max_domain = theory
    for mode in ("weak", "strong"):
        got = bounded_boolean_sat(sig, sentences, max_atoms=max_atoms,
                                  max_domain=max_domain, mode=mode)
        want = oracle_sat(sig, sentences, max_atoms, max_domain, mode)
        assert report_bytes(got) == report_bytes(want)


def test_mask_search_matches_oracle_on_reference_theory():
    sig, theory = split_signature(), split_constant_theory()
    for mode in ("weak", "strong"):
        got = bounded_boolean_sat(sig, theory, max_atoms=2, max_domain=3,
                                  mode=mode)
        want = oracle_sat(sig, theory, 2, 3, mode)
        assert report_bytes(got) == report_bytes(want)


# --- weak mode searches covers ------------------------------------------------

def test_weak_mode_is_bounded_by_the_structure_cap(capsys, tmp_path):
    """No model makes R(c) and not R(c) true at one atom, so no cover
    exists; weak mode lists the structures of each domain size once, like
    strong mode, instead of trying every pair of them."""
    c = {"const": "c"}
    rc = {"atom": {"rel": "R", "args": [c]}}
    theory = {"signature": {"relations": [{"name": "R", "arity": 1},
                                          {"name": "Q", "arity": 2}],
                            "constants": ["c"]},
              "sentences": [{"and": [rc, {"not": rc}]},
                            {"atom": {"rel": "Q", "args": [c, c]}}]}
    path = tmp_path / "theory.json"
    path.write_text(dumps(theory))
    argv = ["sat", "--theory", str(path), "--mode", "weak"]
    start = time.perf_counter()
    assert main(argv + ["--max-domain", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["exhausted"]
    assert main(argv + ["--max-domain", "4"]) == 2
    assert "domain size 4 has 1073604" in capsys.readouterr().err
    # about 2 s here; trying every pair of structures took over a minute
    assert time.perf_counter() - start < 20


def test_weak_mode_tries_no_more_atoms_than_distinct_masks(capsys,
                                                           tmp_path):
    """No structure makes c = c false, so every structure has the empty
    mask; a k-atom cover needs k distinct masks, so weak mode tries no
    second atom, whatever --max-atoms says (the k loop once ran to it)."""
    c = {"const": "c"}
    theory = {"signature": {"relations": [], "constants": ["c"]},
              "sentences": [{"not": {"eq": [c, c]}}]}
    path = tmp_path / "theory.json"
    path.write_text(dumps(theory))
    start = time.perf_counter()
    assert main(["sat", "--theory", str(path), "--mode", "weak",
                 "--max-domain", "3", "--max-atoms", "100000000"]) == 1
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out == (
        '{\n  "exhausted": true,\n  "found": false,\n'
        '  "max_atoms": 100000000,\n  "max_domain": 3,\n'
        '  "mode": "weak"\n}\n')


# --- strong mode needs one atom -----------------------------------------------

def test_strong_witness_structures_are_one_atom_witnesses():
    """Every two-atom strong witness is made of structures that are each a
    one-atom strong witness with the same constants, so the search finds a
    one-atom witness first at the same domain size."""
    c = Const("c")
    sig = Signature(relations=(("R", 1),), constants=("c", "d"))
    theory = [Or((Atom("R", (c,)), Not(Atom("R", (Const("d"),))))),
              Exists(("v0",), Atom("R", (c,)))]
    one_atom = {(combo[0], tuple(consts.items()))
                for combo, consts, model in _candidates(sig, 2, 1)
                if _witnesses(model, theory, "strong")}
    pairs = [(combo, consts)
             for combo, consts, model in _candidates(sig, 2, 2)
             if _witnesses(model, theory, "strong")]
    assert one_atom and pairs
    for combo, consts in pairs:
        for s in combo:
            assert (s, tuple(consts.items())) in one_atom
    res = bounded_boolean_sat(sig, theory, max_atoms=3, max_domain=2,
                              mode="strong")
    assert res["atoms"] == 1
    assert report_bytes(res) == report_bytes(
        oracle_sat(sig, theory, 3, 2, "strong"))


def test_strong_mode_skips_sizes_with_no_witness_quotient_like_oracle():
    """The first theory's first strong witness quotient has 2 classes, and
    the second theory has none, so the sizes before are passed without
    listing their structures."""
    sig = Signature(relations=(("R", 1),), constants=("c",))
    c = Const("c")
    exists_not_r = Exists(("v0",), Not(Atom("R", (Var("v0"),))))
    for theory in ([TWO_ELEMENTS, Atom("R", (c,)), exists_not_r],
                   [TWO_ELEMENTS, Forall(("v0",), Eq(Var("v0"), c))]):
        for max_domain in (1, 2, 3):
            got = bounded_boolean_sat(sig, theory, max_atoms=2,
                                      max_domain=max_domain, mode="strong")
            assert report_bytes(got) == report_bytes(
                oracle_sat(sig, theory, 2, max_domain, "strong"))


@pytest.mark.parametrize("mode", ["weak", "strong"])
def test_corpus_theory_matches_oracle_up_to_five_elements(mode):
    """The weak witness has 2 atoms and 3 elements; no strong witness
    exists, so strong mode skips every size (one atom is enough for the
    oracle, which would otherwise try every pair of structures)."""
    sig, theory = split_signature(), split_constant_theory()
    atoms = 3 if mode == "weak" else 1
    for max_domain in range(1, 6):
        got = bounded_boolean_sat(sig, theory, max_atoms=atoms,
                                  max_domain=max_domain, mode=mode)
        assert report_bytes(got) == report_bytes(
            oracle_sat(sig, theory, atoms, max_domain, mode))


def test_strong_mode_lists_no_partition_without_a_witness_quotient(
        monkeypatch):
    """The corpus theory has no strong witness, and each size shows it on
    its quotients alone: 2,025 of them up to 9 classes, against 21,147
    structures times 729 constant choices at size 9 alone."""
    listed = []
    partitions = bvmodel._partitions
    monkeypatch.setattr(bvmodel, "_partitions",
                        lambda n: listed.append(n) or partitions(n))
    start = time.perf_counter()
    res = bounded_boolean_sat(split_signature(), split_constant_theory(),
                              max_atoms=3, max_domain=9, mode="strong")
    assert time.perf_counter() - start < 2
    assert res["exhausted"] and listed == []


def test_strong_exhaustion_assembles_no_model(monkeypatch):
    """Each distinct quotient is decided on its own data, so a search that
    finds no witness builds no model."""
    built = []

    def counting(*args):
        built.append(args)
        return assemble_model(*args)

    monkeypatch.setattr(bvmodel, "assemble_model", counting)
    init = bvmodel.BValuedModel.__post_init__
    monkeypatch.setattr(bvmodel.BValuedModel, "__post_init__",
                        lambda model: built.append(model) or init(model))
    res = bvmodel.bounded_boolean_sat(split_signature(),
                                      split_constant_theory(), max_atoms=3,
                                      max_domain=3, mode="strong")
    assert res["exhausted"]
    assert built == []


# --- one model builder --------------------------------------------------------

# sha256 of the models below, emitted by the builders that assembled their
# tables by hand before they shared `assemble_model`.
SEEDED_MODELS_SHA256 = \
    "7038c6cf47d3bbb228aca2fa0ef218b156e5763e319037dee45cf7bebb81d553"


def test_generated_models_keep_their_bytes():
    sigs = (Signature(relations=(), constants=("c",)),
            Signature(relations=(("R", 1),), constants=("c", "d")),
            Signature(relations=(("P", 2), ("R", 1)), constants=()))
    h = hashlib.sha256()
    rng = random.Random(2024)
    for _ in range(500):
        for sig in sigs:
            model = assemble_model(sig, *random_structures(rng, sig, 3, 3))
            h.update(dumps(emit_model(model)).encode())
    for model in model_pool():
        h.update(dumps(emit_model(model)).encode())
    assert h.hexdigest() == SEEDED_MODELS_SHA256


def test_structure_count_is_the_length_of_the_listing():
    for arities in ([], [1], [2], [1, 1], [1, 2]):
        for n_dom in range(1, 4):
            listed = sum(math.prod(2 ** (max(rgs) + 1) ** a for a in arities)
                         for rgs in _partitions(n_dom))
            assert structure_count(n_dom, arities) == listed
    assert structure_count(4, [2]) == 68_722
    assert structure_count(4, [1, 2]) == 1_073_604
    assert structure_count(3, [3]) == 134_218_498


def test_structure_cap_applies_only_to_domain_sizes_reached():
    # 134,218,498 structures at domain size 3, 258 at size 2
    sig = Signature(relations=(("T", 3),), constants=())
    x = Var("v0")
    found = bounded_boolean_sat(sig, [Exists(("v0",), Atom("T", (x, x, x)))],
                                max_atoms=1, max_domain=3, mode="strong")
    assert found["found"] and found["domain_size"] == 1
    never = Exists(("v0",), Not(Eq(x, x)))
    assert bounded_boolean_sat(sig, [never], max_domain=2)["exhausted"]
    with pytest.raises(CapExceeded, match="domain size 3 has "
                                                   "134218498 "):
        bounded_boolean_sat(sig, [never], max_domain=3)

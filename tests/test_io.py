import json

import pytest
from hypothesis import given, strategies as st

from infkit.boolalg import powerset_algebra
from infkit.bvmodel import CapExceeded, check_model
from infkit.cli import main
from infkit.consprop import cp_from_model, default_pool
from infkit.iojson import (
    TABLE_CAP, ParseError, as_table_algebra, dumps, emit_algebra, emit_cp,
    emit_element, emit_formula, emit_model, emit_poset, emit_pool,
    emit_proof, emit_signature, emit_theory, emit_ultrafilter, load_json,
    parse_algebra, parse_cp, parse_element, parse_formula, parse_model,
    parse_poset, parse_pool, parse_proof, parse_signature, parse_theory,
    parse_ultrafilter, save_json,
)
from infkit.mansfield import mansfield_build
from infkit.syntax import And, Atom, Const, Eq, Exists, Forall, Not, Or, Var
from inputs import convert_to_explicit, cp_text, split_constant_theory


def rt_formula(f):
    return parse_formula(emit_formula(f))


# --- canonical emission --------------------------------------------------------

def test_dumps_is_canonical():
    s = dumps({"b": 1, "a": [2, 1]})
    assert s == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'


def test_formula_roundtrip_values():
    f = Forall(("v0",), Or((Not(Atom("R", (Var("v0"), Const("c")))),
                            Eq(Var("v0"), Var("v0")))))
    assert rt_formula(f) == f
    blob = dumps(emit_formula(f))
    assert dumps(emit_formula(parse_formula(json.loads(blob)))) == blob


def test_junct_children_emitted_sorted():
    a, b = Atom("R", (Const("c"),)), Atom("S", (Const("c"),))
    assert emit_formula(And((b, a))) == emit_formula(And((a, b)))


def test_parse_errors_carry_paths():
    with pytest.raises(ParseError) as e:
        parse_formula({"and": "x"})
    assert str(e.value).startswith("$")
    with pytest.raises(ParseError) as e:
        parse_signature({"relations": [{"name": "R", "arity": -1}],
                         "constants": []})
    assert str(e.value).startswith("$") and "arity" in str(e.value)
    with pytest.raises(ParseError):
        parse_formula({"atom": {"rel": "R", "args": []}, "extra": 1})
    with pytest.raises(ParseError):
        parse_formula({"unknownkind": {}})


def test_validation_errors_cite_the_signature(corpus_dir):
    theory = load_json(str(corpus_dir / "split_constant_theory.json"))
    theory["sentences"].append({"atom": {"rel": "S",
                                         "args": [{"const": "d"}]}})
    with pytest.raises(ParseError) as e:
        parse_theory(theory)
    msg = str(e.value)
    assert "$.sentences[4]" in msg and "signature" in msg
    # no signature declares a relation of arity 0, so the parser refuses it
    theory["sentences"][4] = {"atom": {"rel": "S", "args": []}}
    with pytest.raises(ParseError) as e:
        parse_theory(theory)
    assert str(e.value).startswith("$.sentences[4].atom.args: ")

    model = load_json(str(corpus_dir / "four_element_model.json"))
    model["relations"] = {"S": [{"args": ["m00"], "value": ["a0"]}]}
    with pytest.raises(ParseError) as e:
        parse_model(model)
    assert "undeclared relation" in str(e.value)


def test_an_undeclared_model_constant_is_refused(corpus_dir):
    model = load_json(str(corpus_dir / "four_element_model.json"))
    model["constants"]["zz"] = "m00"
    with pytest.raises(ParseError) as e:
        parse_model(model)
    assert str(e.value) == "$: undeclared constant 'zz'"


# --- algebras and elements -------------------------------------------------------

def test_powerset_algebra_roundtrip():
    alg = powerset_algebra(("a1", "a0"))
    obj = emit_algebra(alg)
    assert obj["type"] == "powerset" and obj["atoms"] == ["a0", "a1"]
    back = parse_algebra(obj)
    assert set(back.elements) == set(alg.elements)


def test_element_aliases():
    alg = powerset_algebra(("a0", "a1"))
    assert parse_element(alg, "0") == alg.zero
    assert parse_element(alg, "1") == alg.one
    assert parse_element(alg, ["a0"]) == 0b01
    assert parse_element(alg, ["a1"]) == 0b10
    with pytest.raises(ParseError):
        parse_element(alg, ["nope"])
    assert emit_element(alg, 0b11) == ["a0", "a1"]
    with pytest.raises(ValueError):
        emit_element(alg, 0b100)


def test_table_conversion_is_deterministic_and_lawful():
    alg = powerset_algebra(("a0", "a1", "a2"))
    t1, t2 = as_table_algebra(alg), as_table_algebra(alg)
    assert list(map(t1.label, t1.elements)) == list(map(t2.label,
                                                        t2.elements))
    assert t1.label(alg.zero) == "b0"
    assert t1.label(alg.one) == f"b{len(alg.elements) - 1}"
    from test_reference_paths import check_algebra
    assert check_algebra(t1)["ok"]
    assert dumps(emit_algebra(t1)) == dumps(emit_algebra(t2))


def test_table_conversion_stops_at_the_table_cap():
    assert len(as_table_algebra(powerset_algebra(
        [f"a{i}" for i in range(11)])).elements) == TABLE_CAP == 2048
    with pytest.raises(CapExceeded, match="the algebra has 4096 elements, "
                                          "over the table cap of 2048"):
        as_table_algebra(powerset_algebra([f"a{i}" for i in range(12)]))


def test_ro_algebra_over_string_poset_roundtrips():
    from infkit.boolalg import FinPoset, ro_completion
    poset = FinPoset(["l", "r", "top"], [("l", "top"), ("r", "top")])
    alg, _ = ro_completion(poset)
    obj = emit_algebra(alg)
    assert obj["type"] == "ro"
    back = parse_algebra(obj)
    assert len(back.elements) == len(alg.elements)


# --- models ----------------------------------------------------------------------

def test_model_sparse_defaults(m4):
    obj = emit_model(m4)
    # diagonal eq entries and zero off-diagonal entries are dropped
    for row in obj["eq"]:
        m, n = row["pair"]
        assert m != n and row["value"] != []
    back = parse_model(obj)
    assert check_model(back)["ok"]
    assert back.eq_value("m00", "m00") == back.algebra.one
    for m in m4.domain:
        for n in m4.domain:
            assert back.eq_value(m, n) == m4.eq_value(m, n)


def test_model_with_ro_algebra_is_emitted_through_tables(eq4):
    built = mansfield_build(eq4)
    obj = emit_model(built["model"])
    assert obj["algebra"]["type"] == "table"
    back = parse_model(obj)
    assert check_model(back)["ok"]
    blob = dumps(obj)
    assert dumps(emit_model(back)) == blob


def test_ultrafilter_requires_atom_generator():
    alg = powerset_algebra(("a0", "a1"))
    uf = parse_ultrafilter({"generator": ["a0"]}, alg)
    assert uf == alg.element(frozenset({"a0"}))
    assert emit_ultrafilter(alg, uf) == {"generator": ["a0"]}
    for generator in ("0", "1"):
        with pytest.raises(ParseError, match="must be an atom"):
            parse_ultrafilter({"generator": generator}, alg)


# --- theories, pools, families ----------------------------------------------------

def test_theory_requires_sentences(corpus_dir):
    obj = load_json(str(corpus_dir / "split_constant_theory.json"))
    sig, sentences = parse_theory(obj)
    assert len(sentences) == 4
    obj["sentences"].append({"eq": {"left": {"var": "v0"},
                                    "right": {"var": "v0"}}})
    with pytest.raises(ParseError):
        parse_theory(obj)


def test_pool_roundtrip(corpus_dir):
    raw = (corpus_dir / "max_pool.json").read_text()
    pool = parse_pool(json.loads(raw))
    assert dumps(emit_pool(pool)) == raw


def test_cp_default_pool_is_computed():
    sig = {"relations": [], "constants": []}
    fam = [[], [{"eq": [{"const": "c0"}, {"const": "c0"}]}]]
    cp = parse_cp({"signature": sig, "fresh_constants": ["c0"],
                   "family": fam})
    assert cp.pool  # default pool fills in when absent
    assert Eq(Const("c0"), Const("c0")) in cp.pool


def test_cp_parses_each_distinct_sentence_once(capsys, tmp_path):
    sig = {"relations": [{"name": "R", "arity": 1}], "constants": ["k"]}
    good = {"atom": {"rel": "R", "args": [{"const": "k"}]}}
    bad = {"atom": {"rel": "S", "args": [{"const": "k"}]}}    # undeclared
    cp = parse_cp({"signature": sig, "fresh_constants": [],
                   "family": [[good], [good, {"not": good}], [good]]})
    first, second, third = (cp.decode(m) for m in cp.family)
    (a,), (b,) = first, third
    assert a is b and a in second
    # an invalid sentence fails at its first occurrence, every time
    fam = [[bad], [good], [], [good, bad]]
    path = tmp_path / "cp.json"
    path.write_text(json.dumps({"signature": sig, "fresh_constants": [],
                                "family": fam}))
    assert main(["check-cp", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: $.family[0][0]: undeclared relation")


def test_cp_emit_writes_a_positivity_family_as_its_explicit_form(m4):
    """A positivity family is written as the explicit family of its
    members; one over the member cap writes nothing."""
    cp = cp_from_model(m4, split_constant_theory())
    assert cp.family is None
    assert cp_text(cp) == cp_text(convert_to_explicit(cp))
    over = cp_from_model(m4, default_pool(m4.signature, m4.domain, []))
    parts = []
    with pytest.raises(CapExceeded, match="member cap"):
        emit_cp(over, parts.append)
    assert parts == []


def test_proof_roundtrip_and_rejects(corpus_dir):
    raw = (corpus_dir / "proof_quant_right.json").read_text()
    proof = parse_proof(json.loads(raw))
    assert dumps(emit_proof(proof)) == raw
    with pytest.raises(ParseError):
        parse_proof({"steps": []})
    with pytest.raises(ParseError):
        parse_proof({"steps": [{"sequent": {"ante": [], "succ": []},
                                "rule": {"name": "frobnicate"}}]})
    with pytest.raises(ParseError):  # parameter not in the rule's schema
        parse_proof({"steps": [{"sequent": {"ante": [], "succ": []},
                                "rule": {"name": "axiom", "formula": {}}}]})


def test_load_json_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_json(str(tmp_path / "absent.json"))
    p = tmp_path / "x.json"
    save_json(str(p), {"k": 1})
    assert load_json(str(p)) == {"k": 1}


# --- byte identity across the corpus ----------------------------------------------

def test_corpus_files_roundtrip_byte_identical(corpus_dir, manifest):
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
            alg = parse_algebra(load_json(str(corpus_dir / entry["algebra"])))
            value = parse_ultrafilter(json.loads(raw), alg)
            assert dumps(emit_ultrafilter(alg, value)) == raw, rel
        else:
            value = parsers[kind](json.loads(raw))
            text = cp_text(value) if kind == "cp" \
                else dumps(emitters[kind](value))
            assert text == raw, rel
        checked += 1
    assert checked == len(manifest["entries"]) >= 30


# --- property: random formulas survive the wire ------------------------------------

names = st.sampled_from(["v0", "v1", "w9"])
consts = st.sampled_from(["c", "d0"])
terms = st.one_of(names.map(Var), consts.map(Const))


@st.composite
def wire_formulas(draw, depth=3):
    if depth == 0:
        if draw(st.booleans()):
            return Atom("R", tuple(draw(st.lists(terms, min_size=1,
                                                 max_size=2))))
        return Eq(draw(terms), draw(terms))
    sub = wire_formulas(depth=depth - 1)
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return Not(draw(sub))
    if kind == 1:
        return And(tuple(draw(st.lists(sub, max_size=3))))
    if kind == 2:
        return Or(tuple(draw(st.lists(sub, max_size=3))))
    binder = Forall if kind == 3 else Exists
    vs = draw(st.lists(names, min_size=1, max_size=2, unique=True))
    return binder(tuple(vs), draw(sub))


@given(wire_formulas())
def test_random_formula_roundtrip(f):
    assert rt_formula(f) == f
    assert dumps(emit_formula(rt_formula(f))) == dumps(emit_formula(f))

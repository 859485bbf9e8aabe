import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import infkit
import infkit.quotient as quotient_module
from infkit import cli
from infkit.boolalg import FinBooleanAlgebra
from infkit.bvmodel import TwoValuedStructure
from infkit.calculus import SAMPLE_CAP
from infkit.cli import main
from infkit.consprop import ConsistencyProperty
from infkit.iojson import dumps
from infkit.quotient import quotient
from infkit.syntax import Atom, Const, Eq, Not, Signature
from conftest import load_family
from inputs import UNDECODABLE, cp_text, manifest_commands, star_family, \
    str2_order_family, two_member_family
from test_golden import _table_powerset


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def corpus(name, corpus_dir):
    return str(corpus_dir / name)


@pytest.fixture()
def formula_file(tmp_path):
    p = tmp_path / "f.json"
    p.write_text(dumps({"or": [
        {"eq": [{"const": "d"}, {"const": "c0"}]},
        {"eq": [{"const": "d"}, {"const": "c1"}]},
    ]}))
    return str(p)


def test_eval_value(capsys, corpus_dir, formula_file):
    code, out, err = run(capsys, "eval",
                         "--model", corpus("four_element_model.json",
                                           corpus_dir),
                         "--formula", formula_file)
    assert code == 0
    assert json.loads(out)["value"] == ["a0", "a1"]


def test_eval_free_variable_is_input_error(capsys, corpus_dir, tmp_path):
    p = tmp_path / "free.json"
    p.write_text(dumps({"eq": [{"var": "v0"}, {"const": "d"}]}))
    code, out, err = run(capsys, "eval",
                         "--model", corpus("four_element_model.json",
                                           corpus_dir),
                         "--formula", str(p))
    assert code == 2
    code, out, err = run(capsys, "eval",
                         "--model", corpus("four_element_model.json",
                                           corpus_dir),
                         "--formula", str(p), "--assign", "v0=m01")
    assert code == 0
    assert json.loads(out)["value"] == ["a0", "a1"]


@pytest.mark.parametrize("assign, message", [
    ("v0", "bad --assign entry 'v0'; expected var=member"),
    ("v0=zz", "--assign names 'zz', not a domain member"),
    ("v0=m00,v0=m01", "--assign names variable 'v0' twice"),
])
def test_eval_bad_assignments_are_input_errors(capsys, corpus_dir, tmp_path,
                                               assign, message):
    p = tmp_path / "free.json"
    p.write_text(dumps({"eq": [{"var": "v0"}, {"const": "d"}]}))
    code, out, err = run(capsys, "eval",
                         "--model", corpus("four_element_model.json",
                                           corpus_dir),
                         "--formula", str(p), "--assign", assign)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_check_model_ok(capsys, corpus_dir):
    code, out, _ = run(capsys, "check-model",
                       corpus("four_element_model.json", corpus_dir))
    assert code == 0
    assert json.loads(out)["ok"]


def test_sat_weak_found_strong_exhausted(capsys, corpus_dir):
    theory = corpus("split_constant_theory.json", corpus_dir)
    code, out, _ = run(capsys, "sat", "--theory", theory, "--mode", "weak",
                       "--max-atoms", "2", "--max-domain", "3")
    assert code == 0 and json.loads(out)["found"]
    code, out, _ = run(capsys, "sat", "--theory", theory, "--mode", "strong",
                       "--max-atoms", "2", "--max-domain", "3")
    assert code == 1 and not json.loads(out)["found"]


def test_quotient_and_los(capsys, corpus_dir):
    code, out, _ = run(capsys, "quotient",
                       "--model", corpus("four_element_model.json",
                                         corpus_dir),
                       "--ultrafilter", corpus("uf_a0.json", corpus_dir),
                       "--los-pool", corpus("los_pool.json", corpus_dir))
    assert code == 0
    rep = json.loads(out)
    assert rep["los"]["ok"] and rep["classes"]


def test_only_an_emitted_model_is_built_from_a_two_valued_structure(
        capsys, corpus_dir, tmp_path, monkeypatch):
    """The Los check and realization are decided on the structure's own
    classes; only `generic --emit-model` builds its one-atom model."""
    calls = []
    build = TwoValuedStructure.to_two_valued_model
    monkeypatch.setattr(TwoValuedStructure, "to_two_valued_model",
                        lambda self: calls.append(1) or build(self))
    generic = ("generic", "--cp", corpus("eq4_family.json", corpus_dir),
               "--root", "5")
    for argv in (("quotient", "--model",
                  corpus("four_element_model.json", corpus_dir),
                  "--ultrafilter", corpus("uf_a0.json", corpus_dir),
                  "--los-pool", corpus("los_pool.json", corpus_dir)),
                 generic):
        assert run(capsys, *argv)[0] == 0
    assert calls == []
    assert run(capsys, *generic, "--emit-model",
               str(tmp_path / "model.json"))[0] == 0
    assert calls == [1]


def test_quotient_with_a_los_pool_builds_the_quotient_once(
        capsys, corpus_dir, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return quotient(*args)
    monkeypatch.setattr(quotient_module, "quotient", counting)
    assert run(capsys, "quotient",
               "--model", corpus("four_element_model.json", corpus_dir),
               "--ultrafilter", corpus("uf_a0.json", corpus_dir),
               "--los-pool", corpus("los_pool.json", corpus_dir))[0] == 0
    assert calls == [1]


def test_check_cp_pass_and_fail(capsys, corpus_dir):
    code, out, _ = run(capsys, "check-cp",
                       corpus("eq2_family.json", corpus_dir), "--smax")
    assert code == 0 and json.loads(out)["ok"]
    code, out, _ = run(capsys, "check-cp",
                       corpus("ind4_family.json", corpus_dir))
    assert code == 1
    rep = json.loads(out)
    assert not rep["ok"]
    assert {v["kind"] for v in rep["violations"]} == {"violation"}


def test_generic_realizes_and_emits_model(capsys, corpus_dir, tmp_path):
    emitted = tmp_path / "term_model.json"
    code, out, _ = run(capsys, "generic",
                       "--cp", corpus("eq4_family.json", corpus_dir),
                       "--root", "0", "--emit-model", str(emitted))
    assert code == 0
    rep = json.loads(out)
    assert rep["realizes"]["ok"]
    code, out, _ = run(capsys, "check-model", str(emitted))
    assert code == 0


@pytest.mark.parametrize("command", ["generic", "mansfield"])
def test_an_unwritable_model_file_is_an_input_error(capsys, corpus_dir,
                                                    tmp_path, command):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, command,
                         "--cp", corpus("eq4_family.json", corpus_dir),
                         "--root", "5", "--emit-model", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: $: cannot write {target}: ")
    assert len(err.splitlines()) == 1


def test_generic_accepts_a_minimum_without_a_dense_guard(capsys, corpus_dir,
                                                         tmp_path):
    """eq2 with the pool grown by not(c0=c0), not(c1=c1) and their
    disjunction: the disjunction is in no member, so its dense set is dense
    below every root and met by no minimum, which holds no guard for it."""
    family = json.loads(Path(corpus("eq2_family.json", corpus_dir))
                        .read_text())
    negs = [{"not": {"eq": [{"const": c}, {"const": c}]}}
            for c in ("c0", "c1")]
    family["pool"] += [*negs, {"or": negs}]
    path = tmp_path / "eq2_negated.json"
    path.write_text(dumps(family))
    assert run(capsys, "check-cp", str(path))[0] == 0
    for root in range(len(family["family"])):
        code, out, err = run(capsys, "generic", "--cp", str(path),
                             "--root", str(root))
        assert (code, err) == (0, ""), root
        assert json.loads(out)["ok"]


def test_generic_root_out_of_range(capsys, corpus_dir):
    code, out, err = run(capsys, "generic",
                         "--cp", corpus("eq4_family.json", corpus_dir),
                         "--root", "400")
    assert code == 2


def test_mansfield_report(capsys, corpus_dir):
    code, out, _ = run(capsys, "mansfield",
                       "--cp", corpus("eq4_family.json", corpus_dir),
                       "--root", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] and rep["claim1"]["ok"] and rep["claim2"]["ok"]
    assert rep["conditions"] == 112 and rep["algebra_size"] == 4
    assert not rep["mixing"]["mixing"]


def test_mansfield_rejects_bad_family(capsys, corpus_dir, tmp_path):
    """A family that is not a consistency property, and one that is but
    names no constant: the condition model's domain would be empty."""
    no_constants = _write_json(tmp_path / "no_constants.json", {
        "family": [[]], "fresh_constants": [], "pool": [],
        "signature": {"constants": [], "relations": []}})
    for path, message in [
            (corpus("con_family.json", corpus_dir),
             "error: not a consistency property: the family is not a "
             "consistency property; first violation: "),
            (no_constants, "error: the condition model's domain is the "
             "family's constants, and the family names none\n")]:
        code, out, err = run(capsys, "mansfield", "--cp", path, "--root", "0")
        assert (code, out) == (2, "") and err.startswith(message), err
    assert run(capsys, "check-cp", no_constants, "--smax")[0] == 0


def test_cp_from_algebra_and_roundtrip(capsys, corpus_dir):
    code, out, _ = run(capsys, "cp-from-algebra",
                       corpus("b4.json", corpus_dir))
    assert code == 0 and json.loads(out)["ok"]
    code, out, _ = run(capsys, "roundtrip", corpus("b4.json", corpus_dir))
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] and rep["algebra_size"] == 4


def test_ro_command_brute_matches(capsys, corpus_dir):
    code, out, _ = run(capsys, "ro", corpus("vee_3.json", corpus_dir))
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] and rep["size"] == 4 and rep["brute_match"]


def test_check_proof_accept_reject(capsys, corpus_dir):
    code, out, _ = run(capsys, "check-proof",
                       corpus("proof_cut.json", corpus_dir),
                       "--soundness-samples", "50")
    assert code == 0
    rep = json.loads(out)
    assert rep["accepted"] and rep["soundness"]["ok"]
    code, out, _ = run(capsys, "check-proof",
                       corpus("proof_bad_eigenvariable.json", corpus_dir))
    assert code == 1
    assert not json.loads(out)["accepted"]


def test_corpus_command_green(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] and rep["failed"] == []
    assert rep["total"] >= 30


def test_corpus_empty_manifest_warns(capsys, tmp_path):
    p = tmp_path / "manifest.json"
    p.write_text(dumps({"entries": []}))
    code, out, err = run(capsys, "corpus", str(p))
    assert code == 0
    assert json.loads(out)["warnings"]


@pytest.mark.parametrize("bad", sorted(UNDECODABLE))
def test_an_undecodable_corpus_entry_is_unreadable(capsys, tmp_path, bad):
    (tmp_path / "bad.json").write_bytes(UNDECODABLE[bad])
    p = tmp_path / "manifest.json"
    p.write_text(dumps({"entries": [{"file": "bad.json", "kind": "model"}]}))
    code, out, _ = run(capsys, "corpus", str(p))
    assert code == 1
    [entry] = json.loads(out)["entries"]
    assert [(c["name"], c["ok"]) for c in entry["checks"]] == \
        [("readable", False)]


def test_missing_file_is_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "check-model",
                         str(tmp_path / "absent.json"))
    assert code == 2 and err


def test_malformed_json_is_input_error(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, out, err = run(capsys, "check-model", str(p))
    assert code == 2 and err


def run_subprocess(*argv, hash_seed="0"):
    """The infkit command in a fresh interpreter, so that a traceback or a
    string-hash dependence shows as it would to a user."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(Path(infkit.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "infkit.cli", *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("argv", [
    ("sat", "--theory", "split_constant_theory.json", "--mode", "weak",
     "--max-atoms", "0"),
    ("check-proof", "proof_axiom.json", "--soundness-samples", "5",
     "--max-domain", "0"),
    ("check-proof", "proof_cut.json", "--soundness-samples", "-5"),
    ("ro", "vee_3.json", "--brute-max", "-3"),
])
def test_search_bounds_below_one_are_input_errors(corpus_dir, argv):
    argv = tuple(corpus(a, corpus_dir) if a.endswith(".json") else a
                 for a in argv)
    proc = run_subprocess(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--max-atoms", "--max-domain"])
def test_sample_bounds_over_the_cap_are_input_errors(corpus_dir, flag):
    """100,000,000 atoms per sample ran past 20 s, and a 1,000-element
    domain took 245 MB; both flags stop at SAMPLE_CAP, and the cap itself
    is accepted."""
    proof = corpus("proof_axiom.json", corpus_dir)
    start = time.perf_counter()
    proc = run_subprocess("check-proof", proof, "--soundness-samples", "5",
                          flag, "100000000")
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: {flag} 100000000 is over the sample cap "
                           f"of {SAMPLE_CAP}; lower {flag}\n")
    proc = run_subprocess("check-proof", proof, "--soundness-samples", "5",
                          "--max-atoms", str(SAMPLE_CAP), "--max-domain",
                          str(SAMPLE_CAP))
    assert proc.returncode == 0 and '"ok": true' in proc.stdout


def test_mansfield_report_ignores_the_hash_seed(corpus_dir):
    argv = ("mansfield", "--cp", corpus("eq4_family.json", corpus_dir),
            "--root", "80")
    outs = {run_subprocess(*argv, hash_seed=seed).stdout
            for seed in ("0", "8", "31")}
    assert len(outs) == 1
    assert json.loads(outs.pop())["mixing"]["mixing"] is False


def _write_json(path, obj):
    return _write_text(path, dumps(obj))


def _write_text(path, text):
    path.write_text(text)
    return str(path)


_CHAIN3 = ["bot", "mid", "top"]
_TABLES = {
    "trivial": {"type": "table", "elements": ["z"], "meet": [["z"]],
                "join": [["z"]], "comp": ["z"]},
    "chain3": {"type": "table", "elements": _CHAIN3,
               "meet": [[_CHAIN3[min(i, j)] for j in range(3)]
                        for i in range(3)],
               "join": [[_CHAIN3[max(i, j)] for j in range(3)]
                        for i in range(3)],
               "comp": ["top", "mid", "bot"]},
}


@pytest.mark.parametrize("command, table, message", [
    ("cp-from-algebra", "trivial", "nontrivial fails"),
    ("cp-from-algebra", "chain3", "complement_meet fails at mid"),
    ("roundtrip", "chain3", "complement_meet fails at mid"),
])
def test_non_boolean_algebras_are_input_errors(tmp_path, command, table,
                                               message):
    path = _write_json(tmp_path / f"{table}.json", _TABLES[table])
    proc = run_subprocess(command, path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.rstrip("\n").endswith(message)
    assert len(proc.stderr.splitlines()) == 1


def test_a_late_law_violation_is_refused_quickly(tmp_path, capsys):
    """The 256- and 512-element powerset tables with the complements of
    their last two elements swapped break no law before x98. Only comp is
    wrong, so no lattice law can fail first, and the first wrong complement
    is named without scanning every pair of elements before it."""
    for n_atoms in (8, 9):
        table = _table_powerset(n_atoms, 0)
        comp = table["comp"]
        comp[-1], comp[-2] = comp[-2], comp[-1]
        path = _write_json(tmp_path / f"late_{n_atoms}.json", table)
        start = time.perf_counter()
        code = main(["roundtrip", path])
        assert time.perf_counter() - start < 2
        assert (code, *capsys.readouterr()) == (
            2, "", "error: $: not a Boolean algebra: complement_meet fails "
                   "at x98\n")


def test_sat_structure_cap_is_an_input_error(tmp_path):
    # no model has an element unequal to itself, so the search reaches
    # domain size 4, where one unary and one binary relation give
    # 1,073,604 per-atom structures
    theory = {"signature": {"relations": [{"name": "P", "arity": 1},
                                          {"name": "R", "arity": 2}],
                            "constants": []},
              "sentences": [{"exists": {"vars": ["v0"], "body": {"not": {
                  "eq": [{"var": "v0"}, {"var": "v0"}]}}}}]}
    path = _write_json(tmp_path / "theory.json", theory)
    start = time.perf_counter()
    proc = run_subprocess("sat", "--theory", path, "--mode", "strong",
                          "--max-domain", "4")
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: domain size 4 has 1073604 per-atom "
                           "structures, over the cap of 100000; lower "
                           "--max-domain\n")


@pytest.mark.parametrize("command", [
    ("eval", "--model", "{model}", "--formula", "{formula}"),
    ("check-model", "{model}"),
    ("quotient", "--model", "{model}", "--ultrafilter", "{uf}"),
], ids=lambda argv: argv[0])
def test_models_over_non_boolean_tables_are_input_errors(tmp_path,
                                                         corpus_dir,
                                                         command):
    model = _write_json(tmp_path / "model.json", {
        "signature": {"relations": [], "constants": []},
        "algebra": _TABLES["chain3"], "domain": ["m0"]})
    formula = _write_json(tmp_path / "f.json",
                          {"eq": [{"var": "v0"}, {"var": "v0"}]})
    uf = _write_json(tmp_path / "uf.json", {"generator": "mid"})
    argv = [a.format(model=model, formula=formula, uf=uf) for a in command]
    proc = run_subprocess(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: $.algebra: not a Boolean algebra: "
                           "complement_meet fails at mid\n")


@pytest.mark.parametrize("root", ["0", "1"])
def test_generic_reports_an_ill_defined_term_structure(corpus_dir, root):
    proc = run_subprocess("generic", "--cp",
                          corpus("con_family.json", corpus_dir),
                          "--root", root)
    assert "Traceback" not in proc.stderr and proc.stderr == ""
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["ok"] is False
    assert "both asserts and denies" in report["reason"]


def test_generic_names_the_first_conflict_at_every_hash_seed(tmp_path):
    """A member that denies both c0=c1 and c2=c3 while asserting them: the
    reported conflict is the first in key order, whatever the string-hash
    seed."""
    c = [Const(f"c{i}") for i in range(4)]
    member = {Eq(a, a) for a in c} | {Eq(c[0], c[1]), Eq(c[2], c[3])}
    member |= {Not(Eq(c[0], c[1])), Not(Eq(c[2], c[3]))}
    cp = ConsistencyProperty(Signature((), ()), ("c0", "c1", "c2", "c3"),
                             tuple(member), family=(frozenset(member),))
    path = _write_text(tmp_path / "cp.json", cp_text(cp))
    procs = [run_subprocess("generic", "--cp", path, "--root", "0",
                            hash_seed=seed) for seed in ("0", "6")]
    assert procs[0].stdout == procs[1].stdout
    assert json.loads(procs[0].stdout) == {
        "ok": False, "reason": "sigma denies c0=c1 but their classes coincide"}


def _without_pool(corpus_dir, tmp_path):
    cp = json.loads((corpus_dir / "eq4_family.json").read_text())
    del cp["pool"]
    return _write_json(tmp_path / "no_pool.json", cp)


@pytest.mark.parametrize("cap, value, argv, message", [
    ("MEMBER_CAP", 100, ("cp-from-algebra", "{corpus}/b8.json"),
     "oracle family exceeds the member cap (100); shrink the pool"),
    ("POOL_CAP", 5, ("check-cp", "{no_pool}"),
     "pool closure exceeds the pool cap (5 formulas)"),
    ("MEMBER_CAP", 10, ("mansfield", "--cp", "{corpus}/eq4_family.json",
                        "--root", "0"),
     "the forcing poset exceeds the condition cap (10 conditions)"),
])
def test_cap_overruns_are_input_errors(capsys, monkeypatch, corpus_dir,
                                       tmp_path, cap, value, argv, message):
    from infkit import consprop
    monkeypatch.setattr(consprop, cap, value)
    no_pool = _without_pool(corpus_dir, tmp_path)
    code, out, err = run(capsys, *(a.format(corpus=corpus_dir,
                                            no_pool=no_pool) for a in argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_every_input_error_of_check_cp_writes_no_report(
        capsys, monkeypatch, corpus_dir, tmp_path):
    """check-cp writes its report while it walks the family, so every input
    error must come before the first byte: each exit-2 path, with and
    without --smax, writes nothing on stdout and one error line, or a
    usage message for a malformed command line."""
    from infkit import consprop
    monkeypatch.setattr(consprop, "POOL_CAP", 5)
    eq4 = json.loads((corpus_dir / "eq4_family.json").read_text())
    c0 = {"const": "c0"}
    variants = {
        "not JSON": "{",
        "not an object": [],
        "no family": {k: v for k, v in eq4.items() if k != "family"},
        "free variable": dict(eq4, pool=eq4["pool"] + [
            {"eq": [{"var": "v0"}, c0]}]),
        "undeclared constant": dict(eq4, pool=eq4["pool"] + [
            {"eq": [{"const": "zz"}, c0]}]),
        "undeclared relation": dict(eq4, family=eq4["family"] + [
            [{"atom": {"rel": "R", "args": [c0]}}]]),
        "fresh constant declared": dict(eq4, signature=dict(
            eq4["signature"], constants=["c0"])),
    }
    paths = [str(tmp_path / "missing.json"), _without_pool(corpus_dir,
                                                           tmp_path)]
    paths += [_write_text(tmp_path / f"{i}.json", v if isinstance(v, str)
                          else dumps(v))
              for i, v in enumerate(variants.values())]
    for path in paths:
        for smax in ((), ("--smax",)):
            code, out, err = run(capsys, "check-cp", path, *smax)
            assert (code, out, err[:7], err.count("\n")) \
                == (2, "", "error: ", 1), (path, err)
    for argv in (["check-cp"], ["check-cp", paths[1], "--bogus"]):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        out = capsys.readouterr()
        assert (stop.value.code, out.out, out.err[:7]) == (2, "", "usage: ")


def _quantified(free: str, bound: str) -> dict:
    return {"forall": {"vars": [bound], "body": {"atom": {
        "rel": "Q", "args": [{"var": free}, {"var": bound}]}}}}


def _twice_captured_proof(path) -> str:
    """An axiom and a substitution that both of its antecedents capture."""
    sequent = {"ante": [_quantified("v0", "w"), _quantified("v1", "u")],
               "succ": [_quantified("v0", "w")]}
    return _write_json(path, {"steps": [
        {"rule": {"name": "axiom"}, "sequent": sequent},
        {"rule": {"name": "substitution", "premises": [0],
                  "map": {"v0": {"var": "w"}, "v1": {"var": "u"}}},
         "sequent": sequent}]})


def _two_arity_clashes_proof(path) -> str:
    """An axiom whose goal uses R and Q each at two arities."""
    atoms = [{"atom": {"rel": rel, "args": [{"const": "c"}] * n}}
             for rel in "RQ" for n in (1, 2)]
    return _write_json(path, {"steps": [{"rule": {"name": "axiom"},
                                         "sequent": {"ante": atoms,
                                                     "succ": atoms[:1]}}]})


def test_a_goal_with_a_relation_at_two_arities_is_an_input_error(
        capsys, tmp_path):
    """The sampler infers the goal's signature, which a relation at two
    arities does not have. The first clash in key order is named; the
    error once left main as a traceback naming the first clash in the
    iteration order of a set of formulas."""
    proof = _two_arity_clashes_proof(tmp_path / "clash.json")
    assert run(capsys, "check-proof", proof, "--soundness-samples", "3") \
        == (2, "", "error: the goal has no signature: relation Q used at "
                   "two arities\n")


def test_only_an_arity_clash_of_the_sampler_is_an_input_error(
        capsys, monkeypatch, corpus_dir):
    """Another ValueError of the sampler is a fault of the program, not of
    the goal: it leaves check-proof as it is raised."""
    from infkit import calculus

    def broken(*args, **kwargs):
        raise ValueError("domain must be nonempty")

    monkeypatch.setattr(calculus, "soundness_sample", broken)
    with pytest.raises(ValueError, match="domain must be nonempty"):
        main(["check-proof", corpus("proof_cut.json", corpus_dir),
              "--soundness-samples", "3"])
    assert capsys.readouterr().out == ""


def test_no_output_follows_the_string_hash_seed(corpus_dir, manifest,
                                                tmp_path):
    """Python salts the string hash of each process, so the iteration order
    of a set of formulas changes from run to run. Every manifest command,
    check-cp on the family whose Str.2 findings came in such an order
    (four reports under seeds 0-6), and the other sets whose order reached
    output (the formulas a substitution captures, the relations of a goal
    at two arities), or could (the pool closure, a quotient's classes and
    its Los check), print the same bytes and exit codes under three seeds
    in fresh processes."""
    family = _write_text(tmp_path / "str2.json", cp_text(str2_order_family()))
    m4 = corpus("four_element_model.json", corpus_dir)
    audited = [
        ["check-cp", family], ["check-cp", family, "--smax"],
        ["check-proof", _twice_captured_proof(tmp_path / "capture.json")],
        ["check-proof", _two_arity_clashes_proof(tmp_path / "clash.json"),
         "--soundness-samples", "3"],
        ["check-cp", _without_pool(corpus_dir, tmp_path), "--smax"],
        ["quotient", "--model", m4, "--ultrafilter",
         corpus("uf_a1.json", corpus_dir), "--los-pool",
         corpus("los_pool.json", corpus_dir)],
    ]
    for argv in manifest_commands(corpus_dir, manifest) + audited:
        outcomes = {(proc.returncode, proc.stdout, proc.stderr)
                    for proc in (run_subprocess(*argv, hash_seed=seed)
                                 for seed in ("0", "3", "6"))}
        assert len(outcomes) == 1, argv


OVER_THE_MEMBER_CAP = \
    "error: oracle family exceeds the member cap (300000); shrink the pool\n"


@pytest.mark.parametrize("atoms", [5, 6])
@pytest.mark.parametrize("argv", [("roundtrip",), ("cp-from-algebra",),
                                  ("cp-from-algebra", "--emit")], ids=" ".join)
def test_an_algebra_over_the_member_cap_is_refused_from_its_count(
        capsys, tmp_path, atoms, argv):
    """The families of the 32- and 64-element powersets pass the member cap;
    listing 300,000 members before refusing took 0.2-0.4 s in-process
    (Python 3.11, 2 CPUs). They are counted instead, and nothing is
    written but the error line."""
    path = tmp_path / f"b{2 ** atoms}.json"
    path.write_text(dumps({"type": "powerset",
                           "atoms": [f"a{i}" for i in range(atoms)]}))
    start = time.perf_counter()
    got = run(capsys, argv[0], str(path), *argv[1:])
    assert time.perf_counter() - start < 0.1
    assert got == (2, "", OVER_THE_MEMBER_CAP)


def test_a_model_pool_over_the_member_cap_is_refused_from_its_count(
        capsys, tmp_path, corpus_dir, m4):
    """Every equality over the four-element model's constants and domain
    elements: a family over the member cap writes no byte."""
    from infkit.consprop import default_pool
    from infkit.iojson import emit_pool
    pool = tmp_path / "equalities.json"
    pool.write_text(dumps(emit_pool(default_pool(m4.signature,
                                                 tuple(m4.domain), ()))))
    start = time.perf_counter()
    got = run(capsys, "cp-from-model",
              "--model", corpus("four_element_model.json", corpus_dir),
              "--pool", str(pool))
    assert time.perf_counter() - start < 0.1
    assert got == (2, "", OVER_THE_MEMBER_CAP)


@pytest.mark.parametrize("name", ["eq2_family", "max_family", "ind4_family"])
def test_check_cp_smax_walks_the_family_once(capsys, monkeypatch, corpus_dir,
                                             name):
    """`check-cp --smax` prints the clause report with the maximality
    report under "smax", from one walk of the family."""
    from infkit import consprop
    cp = load_family(corpus_dir, name)
    want = consprop.check_cp(cp, smax=True)
    assert want["ok"] == (not want["violations"] and want["smax"]["ok"])
    calls = []
    reaches = consprop._reaches
    monkeypatch.setattr(consprop, "_reaches",
                        lambda cp: calls.append(cp) or reaches(cp))
    code, out, _ = run(capsys, "check-cp", corpus(f"{name}.json", corpus_dir),
                       "--smax")
    assert (code, out) == (0 if want["ok"] else 1, dumps(want))
    assert len(calls) == 1


def test_an_emitted_algebra_over_the_table_cap_is_an_input_error(
        capsys, tmp_path):
    """The star family on 12 constants has a 4,096-element condition
    algebra: its table would hold 16.8 million names per operation, and the
    2,048-element one took 2-3.6 s, about 620 MB and a 137 MB file (Python
    3.11, 2 CPUs). Over the cap the command stops before any table or label
    is built, and writes no report and no file."""
    family = tmp_path / "star_12.json"
    family.write_text(cp_text(star_family(12)))
    emitted = tmp_path / "emitted.json"
    start = time.perf_counter()
    got = run(capsys, "mansfield", "--cp", str(family), "--root", "0",
              "--emit-model", str(emitted))
    assert time.perf_counter() - start < 2
    assert got == (2, "", "error: the algebra has 4096 elements, over the "
                          "table cap of 2048\n")
    assert not emitted.exists()


def test_labels_are_computed_only_where_they_are_read(capsys, monkeypatch,
                                                      tmp_path):
    """mansfield on 4,096 conditions below one atom that mixes, and ro of a
    16-element antichain at the default --brute-max, print no label: they
    decode no condition and read no label. The counters do count where a
    label is printed or compared."""
    decodes, labels = [], []
    decode, label = ConsistencyProperty.decode, FinBooleanAlgebra.label
    monkeypatch.setattr(ConsistencyProperty, "decode",
                        lambda cp, m: decodes.append(m) or decode(cp, m))
    monkeypatch.setattr(FinBooleanAlgebra, "label",
                        lambda alg, x: labels.append(x) or label(alg, x))
    family = tmp_path / "two_member_12.json"
    family.write_text(cp_text(two_member_family(12)))
    code, out, _ = run(capsys, "mansfield", "--cp", str(family), "--root",
                       "0")
    assert (code, json.loads(out)["mixing"]) == (0, {"mixing": True})
    assert json.loads(out)["conditions"] == 4096 and decodes == []
    poset = tmp_path / "antichain_16.json"
    poset.write_text(dumps({"elements": [f"p{i}" for i in range(16)],
                            "leq": []}))
    code, out, _ = run(capsys, "ro", str(poset))
    assert (code, json.loads(out)["size"], labels) == (0, 65536, [])
    assert run(capsys, "ro", str(poset), "--brute-max", "16")[0] == 0
    assert len(labels) == 65536
    family.write_text(cp_text(star_family(3)))
    assert run(capsys, "mansfield", "--cp", str(family), "--root", "0",
               "--emit-model", str(tmp_path / "emitted.json"))[0] == 0
    assert decodes


_X_POOL = {"formulas": [{"eq": [{"const": "d"}, {"const": "d"}]},
                        {"eq": [{"const": "x"}, {"const": "d"}]}]}
_Z_POOL = {"formulas": [{"atom": {"rel": "Z", "args": [{"const": "d"}]}}]}
_FREE_POOL = {"formulas": [{"eq": [{"var": "v0"}, {"const": "c0"}]}]}
_EQ_POOL = {"formulas": [{"eq": [{"const": "d"}, {"const": "d"}]}]}


@pytest.mark.parametrize("command, pool, message", [
    (("cp-from-model", "--model", "{m4}", "--pool", "{pool}"), _X_POOL,
     "$.formulas[1]: undeclared constant 'x'"),
    (("cp-from-model", "--model", "{m4}", "--pool", "{pool}"), _Z_POOL,
     "$.formulas[0]: undeclared relation 'Z'"),
    (("cp-from-model", "--model", "{m4}", "--pool", "{pool}"), _FREE_POOL,
     "$.formulas[0]: expected a sentence, found free variables ['v0']"),
    (("cp-from-model", "--model", "{m4_m10}", "--pool", "{pool}"), _EQ_POOL,
     "constants already declared: ['m10']"),
    (("mansfield", "--cp", "{eq4}", "--root", "0", "--pool", "{pool}"),
     {"formulas": [{"eq": [{"const": "c0"}, {"const": "x"}]}]},
     "$.formulas[0]: undeclared constant 'x'"),
    (("mansfield", "--cp", "{eq4}", "--root", "0", "--pool", "{pool}"),
     _FREE_POOL, "$.formulas[0]: expected a sentence, found free variables"),
    (("quotient", "--model", "{m4}", "--ultrafilter", "{uf}", "--los-pool",
      "{pool}"), _X_POOL, "$.formulas[1]: undeclared constant 'x'"),
], ids=["cp-from-model-constant", "cp-from-model-relation",
        "cp-from-model-free-variable", "cp-from-model-constant-clash",
        "mansfield-constant", "mansfield-free-variable", "quotient-constant"])
def test_pools_are_checked_against_their_signature(tmp_path, corpus_dir,
                                                   command, pool, message):
    m4 = json.loads((corpus_dir / "four_element_model.json").read_text())
    m4["signature"]["constants"].append("m10")
    m4["constants"]["m10"] = "m10"
    paths = {"m4": corpus("four_element_model.json", corpus_dir),
             "m4_m10": _write_json(tmp_path / "m4_m10.json", m4),
             "eq4": corpus("eq4_family.json", corpus_dir),
             "uf": corpus("uf_a0.json", corpus_dir),
             "pool": _write_json(tmp_path / "pool.json", pool)}
    proc = run_subprocess(*(a.format(**paths) for a in command))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert message in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def _m4_without_eq_row(corpus_dir):
    model = json.loads((corpus_dir / "four_element_model.json").read_text())
    model["eq"] = [row for row in model["eq"]
                   if row["pair"] != ["m11", "m10"]]
    return model


def _two_point_identified(corpus_dir):
    model = json.loads((corpus_dir / "two_point_model.json").read_text())
    model["eq"] = [{"pair": ["x", "y"], "value": ["t"]},
                   {"pair": ["y", "x"], "value": ["t"]}]
    return model


@pytest.mark.parametrize("model, uf, message", [
    (_m4_without_eq_row, {"generator": ["a0"]},
     "symmetry fails at (m10, m11)"),
    (_two_point_identified, {"generator": ["t"]},
     "relation R not class-independent at ('y',)"),
], ids=["asymmetric-eq", "class-dependent-relation"])
def test_quotient_of_an_invalid_model_is_an_input_error(
        tmp_path, corpus_dir, model, uf, message):
    proc = run_subprocess(
        "quotient", "--model",
        _write_json(tmp_path / "model.json", model(corpus_dir)),
        "--ultrafilter", _write_json(tmp_path / "uf.json", uf))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ")
    assert message in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_an_undeclared_model_constant_is_an_input_error(capsys, corpus_dir,
                                                       tmp_path):
    model = json.loads(Path(corpus("four_element_model.json", corpus_dir))
                       .read_text())
    model["constants"]["zz"] = "m00"
    path = _write_json(tmp_path / "model.json", model)
    for argv in (("check-model", path),
                 ("quotient", "--model", path, "--ultrafilter",
                  corpus("uf_a0.json", corpus_dir))):
        assert run(capsys, *argv) == (
            2, "", "error: $: undeclared constant 'zz'\n"), argv


def test_generic_does_not_list_the_subsets_of_its_condition(capsys,
                                                            tmp_path):
    """One condition of 30 atomic sentences, so 2^30 filter members."""
    sig = Signature(relations=(("P", 1),),
                    constants=tuple(f"c{i}" for i in range(30)))
    pool = tuple(Atom("P", (Const(c),)) for c in sig.constants)
    cp = ConsistencyProperty(sig, (), pool, family=(frozenset(pool),))
    path = _write_text(tmp_path / "cp.json", cp_text(cp))
    code, out, err = run(capsys, "generic", "--cp", path, "--root", "0")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["ok"] and len(report["sigma"]) == 30


def test_ro_of_the_empty_poset_is_an_input_error(tmp_path):
    path = _write_json(tmp_path / "empty.json", {"elements": [], "leq": []})
    proc = run_subprocess("ro", path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: regular-open completion of the empty "
                           "poset\n")


def test_zero_ary_atoms_are_refused_at_parse(tmp_path, corpus_dir):
    proof = json.loads((corpus_dir / "proof_axiom.json").read_text())
    step = proof["steps"][0]["sequent"]
    step["ante"][0]["atom"]["args"] = []
    path = _write_json(tmp_path / "proof.json", proof)
    proc = run_subprocess("check-proof", path, "--soundness-samples", "3")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: $.steps[0].sequent.ante[0].atom."
                                  "args: ")
    assert len(proc.stderr.splitlines()) == 1


def test_mansfield_builds_no_forcing_poset(capsys, monkeypatch, corpus_dir,
                                           tmp_path):
    """The condition algebra is read off the maximal members: mansfield
    neither builds a FinPoset nor calls ro_completion."""
    from infkit import boolalg
    calls = []

    def counting(name, real):
        return lambda *args: calls.append(name) or real(*args)

    monkeypatch.setattr(boolalg, "ro_completion",
                        counting("ro_completion", boolalg.ro_completion))
    monkeypatch.setattr(boolalg.FinPoset, "__init__", counting(
        "FinPoset", boolalg.FinPoset.__init__))
    for family, root, *extra in (
            ("eq4_family.json", "0"), ("eq4_family.json", "80"),
            ("conditions_family.json", "0", "--emit-model",
             str(tmp_path / "model.json")),
            ("max_family.json", "3", "--pool",
             corpus("max_pool.json", corpus_dir))):
        code, out, err = run(capsys, "mansfield", "--cp",
                             corpus(family, corpus_dir), "--root", root,
                             *extra)
        assert (code, err) == (0, ""), family
        assert json.loads(out)["conditions"] > 1
    assert calls == []


# --- process entry -----------------------------------------------------------

def test_a_closed_stdout_exits_without_a_traceback(corpus_dir, tmp_path):
    """A reader that stops after 10 bytes: the emitted b8 family, and
    check-cp's reports on the emitted b8 and b16 families, the latter
    written while its 13,328 members are walked, end with exit 1 and no
    traceback."""
    b8 = corpus("b8.json", corpus_dir)
    argvs = [("cp-from-algebra", b8, "--emit")]
    for size in (8, 16):
        family = tmp_path / f"b{size}_family.json"
        family.write_text(run_subprocess(
            "cp-from-algebra", corpus(f"b{size}.json", corpus_dir),
            "--emit").stdout)
        argvs.append(("check-cp", str(family)))
    env = dict(os.environ, PYTHONPATH=str(Path(infkit.__file__).parents[1]))
    for argv in argvs:
        proc = subprocess.Popen([sys.executable, "-m", "infkit.cli", *argv],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert (proc.wait(), "Traceback" in err) == (1, False), (argv, err)


def test_run_freezes_once_before_main(monkeypatch):
    events = []
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: events.append("main") or 3)
    assert cli.run() == 3
    assert events == ["freeze", "main"]


def test_main_never_freezes(capsys, monkeypatch):
    """In-process callers keep a normal collector: `main` leaves the
    permanent generation alone, also through the corpus runner."""
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    code, out, err = run(capsys, "corpus")
    assert (code, err) == (0, "")
    assert calls == []


def test_module_entry_freezes_the_import_heap(corpus_dir):
    """`python -m infkit.cli` takes the `run` path: by exit, atexit handlers
    still run and the permanent generation holds the import-time heap."""
    probe = ("import atexit, gc, runpy, sys\n"
             "atexit.register(lambda: print('frozen', gc.get_freeze_count(),"
             " file=sys.stderr))\n"
             "sys.argv = ['infkit', *sys.argv[1:]]\n"
             "runpy.run_module('infkit.cli', run_name='__main__')\n")
    env = dict(os.environ, PYTHONPATH=str(Path(infkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", probe, "check-model",
         corpus("four_element_model.json", corpus_dir)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and '"ok": true' in proc.stdout
    label, count = proc.stderr.split()
    assert label == "frozen" and int(count) > 0


def test_installed_script_is_the_run_entry():
    tomllib = pytest.importorskip("tomllib")
    root = Path(infkit.__file__).parents[2]
    project = tomllib.loads((root / "pyproject.toml").read_text())
    assert project["project"]["scripts"] == {"infkit": "infkit.cli:run"}

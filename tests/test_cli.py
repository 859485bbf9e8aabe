import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import infkit
from infkit.calculus import SAMPLE_CAP
from infkit.cli import main
from infkit.consprop import ConsistencyProperty
from infkit.iojson import dumps
from infkit.syntax import Atom, Const, Eq, Not, Signature
from inputs import cp_text
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


def test_mansfield_rejects_bad_family(capsys, corpus_dir):
    code, out, err = run(capsys, "mansfield",
                         "--cp", corpus("con_family.json", corpus_dir),
                         "--root", "0")
    assert code == 2
    assert "consistency property" in err


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
    neither builds a FinPoset nor calls forcing_poset or ro_completion."""
    from infkit import boolalg, consprop, mansfield
    calls = []

    def counting(name, real):
        return lambda *args: calls.append(name) or real(*args)

    for module, name in ((mansfield, "forcing_poset"),
                         (mansfield, "ro_completion"),
                         (consprop, "forcing_poset"),
                         (boolalg, "ro_completion")):
        monkeypatch.setattr(module, name,
                            counting(name, getattr(module, name)))
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

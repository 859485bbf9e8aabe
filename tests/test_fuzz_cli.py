"""The exit-code contract under seeded mutations of corpus files: every
command that reads a file exits 0, 1 or 2 on a mutated input, exit 2 prints
exactly one `error:` line and no report, and no exception escapes `main()`.

A mutation drops a key, swaps in a subtree of one of the command's inputs,
changes a value's type, or duplicates or deletes a list element."""
import contextlib
import copy
import io
import itertools
import json
import random

import pytest

from infkit.cli import main
from infkit.iojson import dumps

from inputs import UNDECODABLE
from test_cli import run_subprocess

# one command per shape; each {name} is a corpus file, and each mutant
# mutates one of them. Bounds and samples are small to keep each run short.
SHAPES = {
    "eval": ("eval", "--model", "{four_element_model}", "--formula",
             "{formula_sample}"),
    "check-model": ("check-model", "{two_point_model}"),
    "sat": ("sat", "--theory", "{split_constant_theory}", "--mode", "weak",
            "--max-atoms", "2", "--max-domain", "2"),
    "quotient": ("quotient", "--model", "{four_element_model}",
                 "--ultrafilter", "{uf_a0}", "--los-pool", "{los_pool}"),
    "check-cp": ("check-cp", "{eq2_family}", "--smax"),
    "generic": ("generic", "--cp", "{eq4_family}", "--root", "0"),
    "cp-from-model": ("cp-from-model", "--model", "{two_point_model}",
                      "--pool", "{los_pool}"),
    "mansfield": ("mansfield", "--cp", "{eq2_family}", "--root", "0"),
    "cp-from-algebra": ("cp-from-algebra", "{b4}", "--emit"),
    "roundtrip": ("roundtrip", "{b4}"),
    "ro": ("ro", "{vee_3}"),
    "check-proof": ("check-proof", "{proof_quant_left}",
                    "--soundness-samples", "20"),
    "corpus": ("corpus", "{manifest}"),
}
MUTANTS_PER_SHAPE = 40
MUTATIONS = ("drop a key", "swap in a subtree", "change a type",
             "duplicate a list element", "delete a list element")
OTHER_TYPES = (None, True, 0, -1, 2.5, "", "m0", [], [[]], {}, {"x": 1})


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(rng: random.Random, doc, donors: list):
    """A mutated deep copy of doc and a description of the mutation."""
    doc = copy.deepcopy(doc)
    kind = rng.choice(MUTATIONS)
    paths = list(_paths(doc))
    if kind == "drop a key":
        paths = [p for p in paths if p and isinstance(p[-1], str)]
    elif kind in ("duplicate a list element", "delete a list element"):
        paths = [p for p in paths if p and isinstance(p[-1], int)]
    path = rng.choice(paths)
    if kind in ("drop a key", "delete a list element"):
        del _at(doc, path[:-1])[path[-1]]
    elif kind == "duplicate a list element":
        parent = _at(doc, path[:-1])
        parent.insert(path[-1], copy.deepcopy(parent[path[-1]]))
    else:
        if kind == "swap in a subtree":
            donor = rng.choice(donors)
            new = copy.deepcopy(_at(donor, rng.choice(list(_paths(donor)))))
        else:
            old = type(_at(doc, path))
            new = rng.choice([v for v in OTHER_TYPES if type(v) is not old])
        if not path:
            return new, f"{kind} at $"
        _at(doc, path[:-1])[path[-1]] = new
    return doc, f"{kind} at {list(path)}"


def _mutants(shape: str, corpus_dir, tmp_path, seed: int):
    """(argv, description) for each mutant of the shape, files written under
    tmp_path; the manifest names the corpus files by absolute path."""
    rng = random.Random(f"{shape}:{seed}")
    argv = SHAPES[shape]
    names = [a[1:-1] for a in argv if a.startswith("{")]
    docs = {}
    for name in names:
        if name == "manifest":
            entries = json.loads((corpus_dir / "manifest.json").read_text())
            docs[name] = {"entries": [
                dict(e, file=str(corpus_dir / e["file"]))
                for e in entries["entries"]
                if e["file"] in ("two_point_model.json", "uf_a0.json",
                                 "proof_axiom.json", "vee_3.json")]}
        else:
            docs[name] = json.loads((corpus_dir / f"{name}.json").read_text())
    donors = list(docs.values())
    for i in range(MUTANTS_PER_SHAPE):
        target = rng.choice(names)
        doc, how = mutate(rng, docs[target], donors)
        paths = {}
        for name in names:
            path = tmp_path / f"{i}_{name}.json"
            path.write_text(dumps(doc if name == target else docs[name]))
            paths[name] = str(path)
        yield [a.format(**paths) for a in argv], f"{target}: {how}"


def _run_in_process(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _contract_break(code, out, err) -> str | None:
    if code not in (0, 1, 2):
        return f"exit {code}"
    if code == 2 and (out or len(err.splitlines()) != 1
                      or not err.startswith("error: ")):
        return f"exit 2 with stdout {out[:60]!r}, stderr {err[:200]!r}"
    return None


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_mutated_inputs_keep_the_exit_code_contract(shape, corpus_dir,
                                                    tmp_path):
    breaks = []
    for argv, how in _mutants(shape, corpus_dir, tmp_path, seed=0):
        try:
            broken = _contract_break(*_run_in_process(argv))
        except Exception as exc:  # an escape is what this test looks for
            broken = f"{type(exc).__name__}: {exc}"
        if broken:
            breaks.append(f"{how}: {broken}")
    assert not breaks, breaks


@pytest.mark.parametrize("shape", ["quotient", "check-proof"])
def test_mutated_inputs_in_a_fresh_interpreter(shape, corpus_dir, tmp_path):
    for argv, how in itertools.islice(
            _mutants(shape, corpus_dir, tmp_path, seed=1), 3):
        proc = run_subprocess(*argv)
        assert "Traceback" not in proc.stderr, how
        assert not _contract_break(proc.returncode, proc.stdout,
                                   proc.stderr), how


@pytest.mark.parametrize("bad", sorted(UNDECODABLE))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_undecodable_input_is_an_input_error(shape, bad, corpus_dir,
                                             tmp_path):
    """Each command's first file as bytes no JSON reader decodes."""
    names = [a[1:-1] for a in SHAPES[shape] if a.startswith("{")]
    paths = {name: str(corpus_dir / f"{name}.json") for name in names}
    paths[names[0]] = str(tmp_path / "bad.json")
    (tmp_path / "bad.json").write_bytes(UNDECODABLE[bad])
    code, out, err = _run_in_process([a.format(**paths)
                                      for a in SHAPES[shape]])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err

"""The record classes keep the semantics of frozen dataclasses: value types
compare and hash as their field tuples within one class, identity types
compare as objects, reprs read `Name(field=value, ...)` over the fields shown,
and no attribute can be assigned or deleted. Importing the CLI loads neither
`dataclasses` nor `inspect`; a valid command loads neither argparse nor the
kernel modules it does not run, and a traced run still sees its layers."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from infkit.boolalg import FinBooleanAlgebra
from infkit.bvmodel import BValuedModel, TwoValuedStructure
from infkit.calculus import Proof, Sequent, Step
from infkit.consprop import ConsistencyProperty, GenericFilter
from infkit.mansfield import ConditionAlgebra
from infkit.syntax import (
    And, Atom, Const, Eq, Exists, Forall, Not, Or, Signature, Var,
)

SRC = Path(__file__).resolve().parent.parent / "src"
CORPUS = SRC / "infkit" / "corpus"

SIG = Signature((("R", 1),), ("c",))
ATOM = Atom("R", (Const("c"),))
SEQ = Sequent(frozenset(), frozenset({ATOM}))
ALGEBRA = FinBooleanAlgebra("table", (0, 1), ("zero", "one"))

# Each value type's fields, in order, each with a factory that builds an
# instance from a variant number: equal numbers give equal records.
VALUES = {
    Var: (("name",), lambda k: Var(f"x{k}")),
    Const: (("name",), lambda k: Const(f"c{k}")),
    Signature: (("relations", "constants"),
                lambda k: Signature((("R", 1 + k),), ("c",))),
    Sequent: (("ante", "succ"),
              lambda k: Sequent(frozenset({ATOM} if k else ()), {ATOM})),
    Step: (("sequent", "rule", "premises", "params"),
           lambda k: Step(SEQ, "axiom", (k,))),
    Proof: (("steps",), lambda k: Proof((Step(SEQ, "axiom", (k,)),))),
    TwoValuedStructure: (
        ("signature", "classes", "reps", "relations", "constants"),
        lambda k: TwoValuedStructure(SIG, (frozenset({"d"}),), ("d",),
                                     {"R": frozenset({("d",)} if k else ())},
                                     {"c": "d"})),
    GenericFilter: (("root", "minimum", "dense_report"),
                    lambda k: GenericFilter(root=0, minimum=k)),
    ConditionAlgebra: (
        ("root", "conditions", "minimal", "algebra", "embedding",
         "l_values"),
        lambda k: ConditionAlgebra(k, (0,), (0,), ALGEBRA, {0: 1}, {})),
}


def _model():
    return BValuedModel(SIG, ALGEBRA, ("d",), constants={"c": "d"})


def _family():
    return ConsistencyProperty(SIG, ("e",), (ATOM,), family=({ATOM},))


# The identity types, with the fields their repr shows.
IDENTITIES = {
    BValuedModel: (("signature", "algebra", "domain", "eq", "relations",
                    "constants"), _model),
    FinBooleanAlgebra: (("kind", "elements", "names", "points", "meta",
                         "one"),
                        lambda: FinBooleanAlgebra("table", (0, 1), "zo")),
    ConsistencyProperty: (("signature", "fresh_constants", "pool", "family",
                           "model", "sentences"), _family),
}

# Each formula node with its fields.
FORMULAS = ((ATOM, ("rel", "args")),
            (Eq(Var("x"), Const("c")), ("left", "right")),
            (Not(ATOM), ("body",)),
            (And((ATOM,)), ("children",)), (Or((ATOM,)), ("children",)),
            (Forall(("x",), ATOM), ("vars", "body")),
            (Exists(("x",), ATOM), ("vars", "body")))


def _shown(x, fields) -> str:
    return f"{type(x).__name__}(" + ", ".join(
        f"{f}={getattr(x, f)!r}" for f in fields) + ")"


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_value_records_are_their_field_tuples(cls):
    fields, make = VALUES[cls]
    x, y, z = make(0), make(0), make(1)
    assert type(x) is cls and x is not y
    assert x == y and not x != y and x != z and not x == z
    assert repr(x) == _shown(x, fields)
    values = tuple(getattr(x, f) for f in fields)
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) == expected


def test_equality_needs_the_same_class_and_reprs_keep_their_text():
    assert Var("x") != Const("x") and Const("x") != Var("x")
    assert Var("x") != ("x",) and Var("x").__eq__(Const("x")) is NotImplemented
    assert repr(Var("x")) == "Var(name='x')"
    assert repr(SIG) == "Signature(relations=(('R', 1),), constants=('c',))"
    assert repr(GenericFilter(0, 3)) == \
        "GenericFilter(root=0, minimum=3, dense_report=())"
    assert repr(ATOM) == "<Atom (r R k:c)>"


def test_step_is_unhashable_exactly_when_its_params_are_a_dict():
    assert hash(Step(SEQ, "axiom")) == hash((SEQ, "axiom", (), None))
    with pytest.raises(TypeError):
        hash(Step(SEQ, "cut", (0, 1), {"cut": ATOM}))


@pytest.mark.parametrize("cls", IDENTITIES, ids=lambda c: c.__name__)
def test_identity_records_compare_as_objects(cls):
    fields, make = IDENTITIES[cls]
    x, y = make(), make()
    assert x == x and x != y and hash(x) == object.__hash__(x)
    assert repr(x) == _shown(x, fields)


def test_formula_nodes_compare_and_hash_by_canonical_form():
    assert And((ATOM, Not(ATOM))) == And((Not(ATOM), ATOM))
    assert hash(Forall(("x",), ATOM)) == hash("(a x (r R k:c))")
    assert Forall(("x",), ATOM) != Exists(("x",), ATOM)


def _instances():
    for fields, make in VALUES.values():
        yield make(0), fields
    for fields, make in IDENTITIES.values():
        yield make(), fields
    yield from FORMULAS


@pytest.mark.parametrize("record, fields", list(_instances()),
                         ids=lambda x: type(x).__name__)
def test_records_are_frozen(record, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_resources():
    code = ("import sys, infkit.cli; print(sorted({'dataclasses', 'inspect',"
            " 'importlib.resources'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


_WATCHED = {"argparse", "gettext", "locale", "infkit.calculus",
            "infkit.mansfield", "infkit.quotient", "infkit.consprop",
            "infkit.modelgen"}


def _modules_loaded_by(*argv):
    """Which watched modules a fresh `python -m infkit.cli` run loads, and
    its exit code."""
    code = ("import runpy, sys\n"
            "sys.argv = ['infkit', *sys.argv[1:]]\n"
            "try:\n"
            "    runpy.run_module('infkit.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    sys.stdout.flush()\n"
            f"    print(exc.code, sorted({frozenset(_WATCHED)!r} & "
            "set(sys.modules)), file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                         capture_output=True, text=True, cwd=CORPUS)
    code, modules = out.stderr.splitlines()[-1].split(" ", 1)
    return int(code), modules


def test_a_valid_command_loads_only_the_modules_it_runs(tmp_path):
    """A plain command line is read without argparse, and each command
    imports its own kernel modules; help and usage errors still load
    argparse."""
    formula = tmp_path / "f.json"
    formula.write_text('{"eq": [{"const": "d"}, {"const": "c0"}]}')
    assert _modules_loaded_by("check-cp", "eq4_family.json") \
        == (0, "['infkit.consprop']")
    assert _modules_loaded_by(
        "eval", "--model", "four_element_model.json", "--formula",
        str(formula)) == (0, "[]")
    assert _modules_loaded_by("check-proof", "proof_cut.json") \
        == (0, "['infkit.calculus']")
    assert _modules_loaded_by("--help") \
        == (0, "['argparse', 'gettext', 'locale']")
    assert _modules_loaded_by("check-cp") \
        == (2, "['argparse', 'gettext', 'locale']")


@pytest.mark.parametrize("argv, layers", [
    (("check-cp", "eq4_family.json"), ("consprop.check_cp", "iojson.parse")),
    (("check-proof", "proof_cut.json", "--soundness-samples", "5"),
     ("calculus.check_proof", "calculus.soundness_sample", "iojson.parse")),
    (("cp-from-algebra", "b4.json", "--emit"),
     ("mansfield.cp_from_algebra", "consprop.cp_from_model",
      "consprop.members_by_level", "iojson.emit", "bvmodel.models",
      "boolalg.ops")),
    (("mansfield", "--cp", "eq4_family.json", "--root", "0"),
     ("iojson.read_cp", "mansfield.mansfield_build", "consprop.check_cp",
      "consprop.maximal_members", "consprop.membership", "bvmodel.models",
      "boolalg.ops", "mansfield.verify_claims")),
])
def test_a_traced_run_sees_the_layers_of_the_command(tmp_path, argv, layers):
    """perfbench's tracer wraps every module before `main` runs, so the
    functions a command imports when it runs are the wrapped ones. The
    tracer is only run, never changed."""
    tracer = SRC.parent / "perfbench" / "tracer.py"
    summary = tmp_path / "summary.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(tracer), str(summary), "--",
                           *argv], env=env, capture_output=True, text=True,
                          cwd=CORPUS)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(summary.read_text())["layers"]
    for layer in ("cli.main", *layers):
        assert seen.get(layer, {}).get("calls", 0) >= 1, layer

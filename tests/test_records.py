"""The record classes keep the semantics of frozen dataclasses: value types
compare and hash as their field tuples within one class, identity types
compare as objects, reprs read `Name(field=value, ...)` over the fields shown,
and no attribute can be assigned or deleted. Importing the CLI loads neither
`dataclasses` nor `inspect`."""
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

"""Quotients of Boolean-valued models by ultrafilters, and the finite-scale
quotient theorem check (Los): for an ultrafilter U, the Tarski quotient
satisfies a formula at classes exactly when the formula's Boolean value lies
in U. On a finite algebra U is principal at an atom and carried as that
atom, so a value lies in U iff it meets the atom.
"""
from __future__ import annotations

import itertools

from .boolalg import ImproperFilter
from .bvmodel import (
    BValuedModel, TwoValuedStructure, check_full_everywhere, eval_formula,
    quotient_truth,
)
from .syntax import Formula


def quotient(model: BValuedModel, atom: int) -> TwoValuedStructure:
    """Quotient of the model by the ultrafilter at the atom: elements are
    identified when their equality value meets the atom; a relation holds on
    classes when some representative tuple's value does. Verifies that the
    identification is an equivalence and that relation membership is
    class-independent."""
    def same(m: str, n: str) -> bool:
        return bool(model.eq[m, n] & atom)

    # equivalence sanity (guaranteed by the validity axioms)
    for m in model.domain:
        if not same(m, m):
            raise ImproperFilter(f"reflexivity fails at {m} under the filter")
        for n in model.domain:
            if same(m, n) != same(n, m):
                raise ImproperFilter(f"symmetry fails at ({m}, {n})")
            for p in model.domain:
                if same(m, n) and same(n, p) and not same(m, p):
                    raise ImproperFilter(f"transitivity fails at ({m},{n},{p})")

    classes = sorted({frozenset(n for n in model.domain if same(m, n))
                      for m in model.domain}, key=min)
    reps = tuple(min(c) for c in classes)
    rep = {m: r for cls, r in zip(classes, reps) for m in cls}

    relations = {}
    for rel, arity in model.signature.relations:
        holds = set()
        for args in itertools.product(model.domain, repeat=arity):
            if model.relations[rel][args] & atom:
                holds.add(tuple(rep[a] for a in args))
        # class independence (follows from the substitution axiom; a
        # disagreement means the source model is invalid)
        for args in itertools.product(model.domain, repeat=arity):
            reptup = tuple(rep[a] for a in args)
            if reptup in holds and not model.relations[rel][args] & atom:
                raise ValueError(
                    f"relation {rel} not class-independent at {args}; "
                    f"the source model violates the substitution axiom")
        relations[rel] = frozenset(holds)
    constants = {c: rep[m] for c, m in model.constants.items()}
    return TwoValuedStructure(model.signature, tuple(classes), reps,
                              relations, constants)


def los_check(model: BValuedModel, q: TwoValuedStructure, atom: int,
              pool: list[Formula]) -> dict:
    """Check the quotient-theorem biconditional on every pool formula and
    every assignment tuple: truth at the classes in q, the model's quotient
    at the atom as `quotient` built it, decided by `quotient_truth`, iff the
    Boolean value meets the atom. Formulas whose existential subformulas
    are not everywhere full are filtered out (precondition) and reported."""
    n, tables, named = q.truth_args()
    index = {m: k for k, cls in enumerate(q.classes) for m in cls}
    truth = quotient_truth(model.signature)
    skipped = []
    violations = []
    checked = 0
    for f in pool:
        fullness = check_full_everywhere(model, f)
        if not fullness["ok"]:
            skipped.append({"formula": f.key(),
                            "failures": fullness["failures"]})
            continue
        fv = sorted(f.free_vars())
        for tup in itertools.product(model.domain, repeat=len(fv)):
            env = dict(zip(fv, tup))
            left = truth(f, n, tables, named,
                         {v: index[m] for v, m in env.items()})
            right = bool(eval_formula(model, f, env) & atom)
            checked += 1
            if left != right:
                violations.append({"formula": f.key(), "assignment": list(tup),
                                   "quotient": left, "value_in_filter": right})
    return {"ok": not violations, "checked": checked,
            "violations": violations, "skipped": skipped}

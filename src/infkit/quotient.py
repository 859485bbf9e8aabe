"""Quotients of Boolean-valued models by filters, and the finite-scale
quotient theorem check (Los): for an ultrafilter U, the Tarski quotient
satisfies a formula at classes exactly when the formula's Boolean value lies
in U.
"""
from __future__ import annotations

import itertools

from .boolalg import ImproperFilter, is_filter, is_ultrafilter
from .bvmodel import (
    BValuedModel, TwoValuedStructure, check_full_everywhere, eval_formula,
)
from .syntax import Formula


def quotient(model: BValuedModel,
             filter_members: frozenset) -> TwoValuedStructure:
    """Quotient of the model by a proper filter: elements are identified when
    their equality value lies in the filter; a relation holds on classes when
    some representative tuple's value lies in the filter. Verifies that the
    identification is an equivalence and that relation membership is
    class-independent."""
    alg = model.algebra
    if not is_filter(alg, filter_members):
        raise ImproperFilter("argument is not a proper filter of the algebra")

    def same(m: str, n: str) -> bool:
        return model.eq_value(m, n) in filter_members

    # equivalence sanity (guaranteed by the validity axioms + filter closure)
    for m in model.domain:
        if not same(m, m):
            raise ImproperFilter(f"reflexivity fails at {m} under the filter")
        for n in model.domain:
            if same(m, n) != same(n, m):
                raise ImproperFilter(f"symmetry fails at ({m}, {n})")
            for p in model.domain:
                if same(m, n) and same(n, p) and not same(m, p):
                    raise ImproperFilter(f"transitivity fails at ({m},{n},{p})")

    classes: list[frozenset] = []
    seen: set[str] = set()
    for m in model.domain:
        if m in seen:
            continue
        cls = frozenset(n for n in model.domain if same(m, n))
        seen |= cls
        classes.append(cls)
    classes.sort(key=lambda c: min(c))
    reps = tuple(min(c) for c in classes)
    rep_of = {m: rep for cls, rep in zip(classes, reps) for m in cls}

    relations = {}
    for rel, arity in model.signature.relations:
        holds = set()
        for args in itertools.product(model.domain, repeat=arity):
            if model.rel_value(rel, args) in filter_members:
                holds.add(tuple(rep_of[a] for a in args))
        # class independence (follows from the substitution axiom plus filter
        # closure; a disagreement means the source model is invalid)
        for args in itertools.product(model.domain, repeat=arity):
            reptup = tuple(rep_of[a] for a in args)
            if reptup in holds and \
                    model.rel_value(rel, args) not in filter_members:
                raise ValueError(
                    f"relation {rel} not class-independent at {args}; "
                    f"the source model violates the substitution axiom")
        relations[rel] = frozenset(holds)
    constants = {c: rep_of[m] for c, m in model.constants.items()}
    return TwoValuedStructure(model.signature, tuple(classes), reps,
                              relations, constants)


def los_check(model: BValuedModel, ultra: frozenset,
              pool: list[Formula]) -> dict:
    """Check the quotient-theorem biconditional on every pool formula and
    every assignment tuple: quotient satisfaction at classes iff the Boolean
    value lies in the ultrafilter. Formulas whose existential subformulas are
    not everywhere full are filtered out (precondition) and reported."""
    alg = model.algebra
    if not is_ultrafilter(alg, ultra):
        raise ImproperFilter("quotient theorem check needs an ultrafilter")
    q = quotient(model, ultra)
    two = q.to_two_valued_model()
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
            left = eval_formula(
                two, f, {v: q.rep_of(m) for v, m in env.items()}
            ) == two.algebra.one
            right = eval_formula(model, f, env) in ultra
            checked += 1
            if left != right:
                violations.append({"formula": f.key(), "assignment": list(tup),
                                   "quotient": left, "value_in_filter": right})
    return {"ok": not violations, "checked": checked,
            "violations": violations, "skipped": skipped}

"""Model construction from a consistency property over the regular-open
algebra of its forcing poset, the two inequalities that drive it, and the
reverse direction: the positivity family of a finite Boolean algebra with its
dense embedding and the roundtrip isomorphism.

The built model's domain is the constant set itself; every atomic sentence
(equality included) gets the join of the regular-open neighborhoods of the
conditions containing it.
"""
from __future__ import annotations

import functools
import itertools

from .boolalg import FinBooleanAlgebra, TrivialAlgebra, _by_size
from .bvmodel import BValuedModel, check_model, eval_formula
from .consprop import (
    ConsistencyProperty, cp_from_model, check_cp, forcing_poset_conditions,
    maximal_members, member_count, _bits, _entries,
)
from .record import Value
from .syntax import (
    Atom, Const, Eq, Exists, Forall, Formula, Not, Or, Signature, Var,
)


class ConditionAlgebra(Value):
    """RO completion of the forcing poset restricted below a root, read off
    its minimal conditions; the root, the conditions and the minimal
    conditions are ints over the family's sentences."""

    def __init__(self, root: int, conditions: tuple[int, ...],
                 minimal: tuple[int, ...],   # the atoms, in bit order
                 algebra: FinBooleanAlgebra,
                 embedding: dict,      # condition -> regular-open element
                 l_values: dict) -> None:   # sentence -> its L-value
        self.__dict__.update(root=root, conditions=conditions,
                             minimal=minimal, algebra=algebra,
                             embedding=embedding, l_values=l_values)

    def l_value(self, f: Formula) -> int:
        """Join of Reg(N_t) over the conditions t containing the sentence."""
        return self.l_values.get(f, self.algebra.zero)


def condition_algebra(cp: ConsistencyProperty,
                      root: int = 0) -> ConditionAlgebra:
    """The completion read off the minimal conditions below the root, the
    maximal members holding it: as in ro_completion, it is their powerset
    (in repr order), Reg(N_t) is the mask of those that hold t, and an
    element's label is the set of conditions, decoded to sentence sets when
    it is read, whose masks it contains. A sentence's L-value, the join
    over the conditions holding it, is the mask of the minimal conditions
    holding it."""
    maxes = maximal_members(cp, root)
    if not maxes:
        raise ValueError("the root is not a condition of the forcing poset")
    conds = forcing_poset_conditions(maxes, root)
    mins = tuple(sorted(maxes, key=repr))
    emb = {t: sum(1 << i for i, m in enumerate(mins) if m & t == t)
           for t in conds}
    return ConditionAlgebra(
        root=root, conditions=tuple(conds), minimal=mins,
        algebra=FinBooleanAlgebra("conditions", _by_size(len(mins)),
                                  points=emb.items(), decode=cp.decode),
        embedding=emb, l_values={f: sum(1 << i for i, m in enumerate(mins)
                                        if m >> b & 1)
                                 for b, f in enumerate(cp.sentences)})


class NoConstants(Exception):
    """The family names no constant, so its condition model has no domain."""


def mansfield_build(cp: ConsistencyProperty, root: int = 0) -> dict:
    """Model over the restricted regular-open algebra in which every root
    sentence holds with value one. Verifies the family first (the clauses are
    exactly what the equality-axiom and root-validity checks consume) and
    fails loudly on a family that is not a consistency property, and on one
    that names no constant."""
    rep = check_cp(cp, entries=lambda walk, field: _entries(
        itertools.islice(walk, 1), field))   # only the first is reported
    if not rep["ok"]:
        raise ValueError(
            f"the family is not a consistency property; first violation: "
            f"{rep['violations'][0]}")
    consts = cp.all_constants()
    if not consts:
        raise NoConstants("the condition model's domain is the family's "
                          "constants, and the family names none")
    ca = condition_algebra(cp, root)
    sig = cp.extended_signature()
    eq = {(x, y): ca.l_value(Eq(Const(x), Const(y)))
          for x in consts for y in consts}
    relations = {rel: {args: ca.l_value(Atom(rel, tuple(map(Const, args))))
                       for args in itertools.product(consts, repeat=arity)}
                 for rel, arity in sig.relations}
    model = BValuedModel(signature=sig, algebra=ca.algebra, domain=consts,
                         eq=eq, relations=relations,
                         constants={c: c for c in consts})
    root_values = {f.key(): eval_formula(model, f)
                   for f in map(cp.sentences.__getitem__, _bits(root))}
    return {
        "model": model,
        "conditions": ca,
        "root_values": root_values,
        "root_ok": all(v == ca.algebra.one for v in root_values.values()),
        "model_report": check_model(model),
    }


def verify_claim1(cp: ConsistencyProperty, built: dict) -> dict:
    """Whenever every condition extending s accepts the sentence, the
    regular-open neighborhood of s sits below the sentence's join, in the
    condition algebra of a mansfield_build result. Every extension of s
    accepts b iff every minimal condition holding s holds b, so s is checked
    for the pool sentences in the AND of those; equal embeddings share one
    verdict."""
    ca = built["conditions"]
    pool = [(f, cp.bit[f], ca.l_value(f)) for f in cp.pool]

    @functools.cache
    def verdict(e: int) -> tuple[int, list]:
        held = functools.reduce(int.__and__,
                                map(ca.minimal.__getitem__, _bits(e)))
        hits = [(f, lv) for f, b, lv in pool if held >> b & 1]
        return len(hits), [f.key() for f, lv in hits
                           if not ca.algebra.leq(e, lv)]

    verdicts = [(s, *verdict(ca.embedding[s])) for s in ca.conditions]
    checked = sum(n for _, n, _ in verdicts)
    failures = [{"condition": cp.key(s), "sentence": k}
                for s, _, bad in verdicts for k in bad]
    return {"ok": not failures, "checked": checked,
            "skipped": len(ca.conditions) * len(pool) - checked,
            "failures": failures}


def verify_claim2(cp: ConsistencyProperty, built: dict,
                  pool: tuple[Formula, ...] | None = None) -> dict:
    """The join over conditions never exceeds the model value, sentence by
    sentence, in a mansfield_build result (over the family's pool unless
    `pool` is given)."""
    ca = built["conditions"]
    model = built["model"]
    pool = pool if pool is not None else cp.pool
    label = ca.algebra.label
    failures = []
    for f in pool:
        lv = ca.l_value(f)
        mv = eval_formula(model, f)
        if not ca.algebra.leq(lv, mv):
            failures.append({"sentence": f.key(),
                             "l_value": sorted(map(repr, label(lv))),
                             "model_value": sorted(map(repr, label(mv)))})
    return {"ok": not failures, "checked": len(pool), "failures": failures}


# ---------------------------------------------------------------------------
# the reverse direction: a family from a finite Boolean algebra

def _element_names(alg: FinBooleanAlgebra) -> dict:
    def skey(e):
        lab = alg.label(e)
        if isinstance(lab, frozenset):
            return (0, len(lab), tuple(sorted(map(repr, lab))))
        return (1, 0, (repr(lab),))
    ordered = sorted(alg.elements, key=skey)
    return {e: f"e{i}" for i, e in enumerate(ordered)}


def algebra_model(alg: FinBooleanAlgebra) -> tuple[BValuedModel, dict]:
    """The canonical membership model of an algebra: one domain element per
    algebra element, a single unary relation whose value at the element named
    after b is b itself, crisp equality."""
    if alg.zero == alg.one:
        raise TrivialAlgebra("the algebra has zero equal to one")
    names = _element_names(alg)
    domain = tuple(names[e] for e in sorted(alg.elements,
                                            key=lambda e: names[e]))
    sig = Signature(relations=(("inG", 1),), constants=())
    rel = {(names[e],): e for e in alg.elements}
    model = BValuedModel(signature=sig, algebra=alg, domain=domain,
                         eq={}, relations={"inG": rel}, constants={})
    return model, names


def sb_pool(alg: FinBooleanAlgebra, names: dict) -> tuple[Formula, ...]:
    """Membership atoms for every element, one negated atom, the disjunction
    over the atoms' names, an existential, and a universal tautology."""
    atoms = sorted(alg.atoms(), key=lambda e: names[e])
    ing = {e: Atom("inG", (Const(names[e]),)) for e in alg.elements}
    pool = [ing[e] for e in sorted(alg.elements, key=lambda e: names[e])]
    pool.append(Not(ing[atoms[0]]))
    pool.append(Or(tuple(ing[a] for a in atoms)))
    v = Var("v0")
    pool.append(Exists(("v0",), Atom("inG", (v,))))
    pool.append(Forall(("v0",), Or((Atom("inG", (v,)),
                                    Not(Atom("inG", (v,)))))))
    return tuple(dict.fromkeys(pool))


# cp_from_algebra reports its pair facts as exhaustive up to SAMPLE_LIMIT
# members and as sampled beyond; roundtrip_check reports the forcing poset
# as materialized up to MATERIALIZE_LIMIT members.
SAMPLE_LIMIT = 400
MATERIALIZE_LIMIT = 200


def cp_from_algebra(
        alg: FinBooleanAlgebra) -> tuple[ConsistencyProperty, dict]:
    """The positivity family of the membership model and the dense-embedding
    report, whose facts hold by construction, of the valuation pi sending a
    member to the meet of its sentences' values (the meet members_by_level
    carries). Order: a
    member's value is the AND of its sentences' masks, so a superset has a
    smaller value. Incompatibility: p | q is a member exactly when
    pi[p] & pi[q] is nonzero. Surjectivity: the pool holds inG(e), of mask
    e, for every element e. The members are counted, not listed."""
    model, names = algebra_model(alg)
    cp = cp_from_model(model, sb_pool(alg, names))
    members = member_count(cp)
    mode = "exhaustive" if members <= SAMPLE_LIMIT else "sampled"
    return cp, {"ok": True, "members": members, "pair_mode": mode,
                "order_failures": [], "incompatibility_failures": [],
                "surjectivity_failures": []}


def roundtrip_check(alg: FinBooleanAlgebra) -> dict:
    """The forcing poset of the algebra's positivity family completes back
    to the algebra itself, by construction. The pool holds inG(a), of mask
    a, for each atom a, so the maximal members, the poset's minimal
    conditions, are the sets of pool sentences true at one atom, one per
    atom, and the completion has 2^atoms elements; h, sending a set of
    atoms (distinct bits) to their OR, is a bijective homomorphism; and a
    member's value is the join of the atoms below it. Posets of at most
    MATERIALIZE_LIMIT members are reported as materialized, with the size
    of their completion."""
    members = cp_from_algebra(alg)[1]["members"]
    materialized = members <= MATERIALIZE_LIMIT
    return {"ok": True, "atoms": len(alg.atoms()), "members": members,
            "maximal_members_match": True, "h_bijective": True,
            "h_homomorphism": True, "reg_matches_pi": True,
            "materialized": materialized,
            "ro_size": len(alg.elements) if materialized else None,
            "algebra_size": len(alg.elements)}

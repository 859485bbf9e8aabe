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
import random

from .boolalg import FinBooleanAlgebra, TrivialAlgebra, _by_size, ro_completion
from .bvmodel import BValuedModel, _by_label, check_model, eval_formula
from .consprop import (
    ConsistencyProperty, cp_from_model, check_cp, forcing_poset,
    forcing_poset_conditions, maximal_among, maximal_members, member_meets,
    _bits,
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
    element's label is the set of conditions, as sentence sets, whose
    masks it contains. A sentence's L-value, the join over the conditions
    holding it, is the mask of the minimal conditions holding it."""
    maxes = maximal_members(cp, root)
    if not maxes:
        raise ValueError("the root is not a condition of the forcing poset")
    conds = forcing_poset_conditions(maxes, root)
    mins = tuple(sorted(maxes, key=repr))
    emb = {t: sum(1 << i for i, m in enumerate(mins) if m & t == t)
           for t in conds}
    sets = {t: cp.decode(t) for t in conds}
    labels = tuple(frozenset(sets[t] for t, x in emb.items() if not x & ~e)
                   for e in range(1 << len(mins)))
    return ConditionAlgebra(
        root=root, conditions=tuple(conds), minimal=mins,
        algebra=FinBooleanAlgebra("conditions", _by_size(len(mins)), labels),
        embedding=emb, l_values={f: sum(1 << i for i, m in enumerate(mins)
                                        if m >> b & 1)
                                 for b, f in enumerate(cp.sentences)})


def mansfield_build(cp: ConsistencyProperty, root: int = 0,
                    verify: bool = True) -> dict:
    """Model over the restricted regular-open algebra in which every root
    sentence holds with value one. Verifies the family first (the clauses are
    exactly what the equality-axiom and root-validity checks consume) and
    fails loudly on a family that is not a consistency property."""
    if verify:
        rep = check_cp(cp)
        if not rep["ok"]:
            raise ValueError(
                f"the family is not a consistency property; first violation: "
                f"{rep['violations'][0]}")
    ca = condition_algebra(cp, root)
    consts = cp.all_constants()
    sig = cp.extended_signature()
    eq = {}
    for x in consts:
        for y in consts:
            eq[(x, y)] = ca.l_value(Eq(Const(x), Const(y)))
    relations = {}
    for rel, arity in sig.relations:
        table = {}
        for args in itertools.product(consts, repeat=arity):
            table[args] = ca.l_value(Atom(rel, tuple(Const(a) for a in args)))
        relations[rel] = table
    model = BValuedModel(signature=sig, algebra=ca.algebra, domain=consts,
                         eq=eq, relations=relations,
                         constants={c: c for c in consts})
    root_values = {f.key(): eval_formula(model, f)
                   for f in map(cp.sentences.__getitem__, _bits(root))}
    out = {
        "model": model,
        "conditions": ca,
        "root_values": root_values,
        "root_ok": all(v == ca.algebra.one for v in root_values.values()),
    }
    if verify:
        out["model_report"] = check_model(model)
    return out


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
    labels = ca.algebra.labels
    failures = []
    for f in pool:
        lv = ca.l_value(f)
        mv = eval_formula(model, f)
        if not ca.algebra.leq(lv, mv):
            failures.append({"sentence": f.key(),
                             "l_value": sorted(map(repr, labels[lv])),
                             "model_value": sorted(map(repr, labels[mv]))})
    return {"ok": not failures, "checked": len(pool), "failures": failures}


# ---------------------------------------------------------------------------
# the reverse direction: a family from a finite Boolean algebra

def _element_names(alg: FinBooleanAlgebra) -> dict:
    def skey(e):
        lab = alg.labels[e]
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


# Pair checks of cp_from_algebra are exhaustive up to SAMPLE_LIMIT members
# and take 4 * SAMPLE_LIMIT seeded-random pairs beyond; roundtrip_check
# completes the forcing poset explicitly up to MATERIALIZE_LIMIT members.
SAMPLE_LIMIT = 400
SAMPLE_SEED = 0
MATERIALIZE_LIMIT = 200


def cp_from_algebra(
        alg: FinBooleanAlgebra) -> tuple[ConsistencyProperty, dict, dict]:
    """The positivity family of the membership model, the valuation map on
    its members (in enumeration order), and the dense-embedding report:
    order preservation, incompatibility agreement, and surjectivity onto the
    nonzero elements through the singleton conditions."""
    model, names = algebra_model(alg)
    cp = cp_from_model(model, sb_pool(alg, names))
    pi = member_meets(cp)
    members = list(pi)

    order_failures = []
    incomp_failures = []
    if len(members) <= SAMPLE_LIMIT:
        pairs = itertools.combinations(range(len(members)), 2)
        pair_mode = "exhaustive"
    else:
        rng = random.Random(SAMPLE_SEED)
        pairs = [(rng.randrange(len(members)), rng.randrange(len(members)))
                 for _ in range(4 * SAMPLE_LIMIT)]
        pair_mode = "sampled"
    for i, j in pairs:
        p, q = members[i], members[j]
        # order: p below q in the poset means q is a subset of p
        if p & q == q and not alg.leq(pi[p], pi[q]):
            order_failures.append((cp.key(p), cp.key(q)))
        if p & q == p and not alg.leq(pi[q], pi[p]):
            order_failures.append((cp.key(q), cp.key(p)))
        if cp.is_member(p | q) != (alg.meet(pi[p], pi[q]) != alg.zero):
            incomp_failures.append((cp.key(p), cp.key(q)))

    surj_failures = []
    for e in alg.elements:
        b = cp.bit[Atom("inG", (Const(names[e]),))]
        if e != alg.zero and not (cp.is_member(1 << b) and cp.masks[b] == e):
            surj_failures.append(names[e])

    report = {
        "ok": not (order_failures or incomp_failures or surj_failures),
        "members": len(members),
        "pair_mode": pair_mode,
        "order_failures": order_failures,
        "incompatibility_failures": incomp_failures,
        "surjectivity_failures": surj_failures,
    }
    return cp, pi, report


def roundtrip_check(alg: FinBooleanAlgebra) -> dict:
    """The forcing poset of the algebra's positivity family completes back to
    the algebra itself: the maximal members biject with the atoms, subsets of
    the maximal-member set map isomorphically onto the algebra by joining
    atoms, and that map carries each condition's regular-open neighborhood to
    the condition's valuation. Small posets are additionally materialized and
    completed explicitly."""
    cp, pi, _ = cp_from_algebra(alg)
    atoms = _by_label(alg, alg.atoms())
    # the member of the pool sentences whose value holds the atom
    by_atom = {a: sum(1 << b for b, v in enumerate(cp.masks)
                      if alg.leq(a, v)) for a in atoms}
    maxes = set(maximal_among(cp, pi))
    max_match = (
        set(by_atom.values()) == maxes
        and len(by_atom) == len(set(by_atom.values()))
        and all(m in pi for m in by_atom.values()))

    # a subset of the maximal members is an int over `atoms`, bit i standing
    # for by_atom[atoms[i]]; h maps it to the join of the atoms it holds
    h = [alg.sup(atoms[i] for i in _bits(s)) for s in range(1 << len(atoms))]
    sets = range(len(h))
    h_bijective = sorted(h) == sorted(alg.elements)
    h_hom = all(alg.meet(h[s], h[t]) == h[s & t]
                and alg.join(h[s], h[t]) == h[s | t]
                for s in sets for t in sets) and all(
        alg.comp(h[s]) == h[len(h) - 1 ^ s] for s in sets)

    # each member's valuation joins the atoms whose maximal member holds it
    reg_matches = all(alg.sup(a for a, held in by_atom.items()
                              if held & s == s) == v for s, v in pi.items())

    materialized = False
    ro_size = None
    if len(pi) <= MATERIALIZE_LIMIT:
        poset = forcing_poset(list(pi))
        ro_alg, emb = ro_completion(poset)
        ro_size = len(ro_alg.elements)
        materialized = True
        max_match = max_match and set(poset.minimals()) == maxes
        # minimal conditions inside Reg(N_s) are exactly those containing s
        reg_matches = reg_matches and ro_size == len(alg.elements) and all(
            alg.sup(a for a, held in by_atom.items()
                    if held in ro_alg.labels[emb[s]]) == v
            for s, v in pi.items())

    ok = max_match and h_bijective and h_hom and reg_matches
    return {"ok": ok, "atoms": len(atoms), "members": len(pi),
            "maximal_members_match": max_match, "h_bijective": h_bijective,
            "h_homomorphism": h_hom, "reg_matches_pi": reg_matches,
            "materialized": materialized, "ro_size": ro_size,
            "algebra_size": len(alg.elements)}

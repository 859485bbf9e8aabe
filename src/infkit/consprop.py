"""Consistency properties at desk scale: clause checking against a declared
finite sentence pool, maximality, forcing posets over the family, dense sets,
generic filters, and the term structure realized by a generic filter.

A family is either an explicit finite list of finite sentence sets or the
positivity family of a model: a membership oracle with a declared pool,
accepting a set exactly when the meet of its sentences' values is nonzero.
Positivity families are closed under subsets; they are enumerated as the
accepted pool-subsets, depth-first with antitone pruning and a hard cap.
Sentences that a clause adds are looked up in explicit families (a miss
outside the pool is a PoolIncomplete finding) and simply evaluated through
the oracle otherwise.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .bvmodel import BValuedModel, CapExceeded, TwoValuedStructure, \
    eval_formula
from .syntax import (
    And, Atom, Const, Eq, Exists, Forall, Formula, Not, Or, Signature,
    constants_of, is_sentence, move_neg_inside, replace_const, subformulas,
    substitute,
)


class IllDefined(Exception):
    """The term structure's classes or relations are not well defined."""


MEMBER_CAP = 300_000


@dataclass(frozen=True, eq=False)
class ConsistencyProperty:
    signature: Signature
    fresh_constants: tuple[str, ...]
    pool: tuple[Formula, ...]
    family: tuple[frozenset, ...] | None = None
    oracle: Callable[[frozenset], bool] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.family is None) == (self.oracle is None):
            raise ValueError("exactly one of family/oracle must be given")
        for c in self.fresh_constants:
            if c in self.signature.constants:
                raise ValueError(f"fresh constant {c!r} already in signature")
        for s in self.pool:
            if not is_sentence(s):
                raise ValueError(f"pool entry has free variables: {s!r}")
        if self.family is not None:
            object.__setattr__(
                self, "family",
                tuple(frozenset(m) for m in self.family))
        # membership sets, built once rather than on every lookup
        object.__setattr__(self, "_pool_set", frozenset(self.pool))
        object.__setattr__(self, "_family_set", frozenset(self.family or ()))

    @property
    def explicit(self) -> bool:
        return self.family is not None

    def all_constants(self) -> tuple[str, ...]:
        return tuple(self.signature.constants) + tuple(self.fresh_constants)

    def extended_signature(self) -> Signature:
        return self.signature.with_constants(self.fresh_constants)

    def is_member(self, s: frozenset) -> bool:
        if self.family is not None:
            return s in self._family_set
        return bool(self.oracle(s))

    def in_pool(self, f: Formula) -> bool:
        return f in self._pool_set


def _pkey(f: Formula) -> str:
    return f.key()


def _member_key(m: frozenset) -> tuple:
    return tuple(sorted(f.key() for f in m))


def enumerate_members(cp: ConsistencyProperty) -> list[frozenset]:
    """Family members: the explicit list, or a positivity family's members
    in the order of member_meets."""
    if cp.family is not None:
        return list(cp.family)
    return list(member_meets(cp))


def member_meets(cp: ConsistencyProperty) -> dict[frozenset, int]:
    """The members of a positivity family, each mapped to the meet of its
    sentences' values. The walk is depth-first over the pool in canonical
    order and carries the running meet, so a candidate costs one AND with
    the next sentence's value mask; the pruning is exact because the family
    is closed under subsets."""
    pool = sorted(cp.pool, key=_pkey)
    value = cp.meta["value"]
    masks = [value(f) for f in pool]
    out: dict[frozenset, int] = {}

    def dfs(current: frozenset, meet: int, start: int) -> None:
        out[current] = meet
        if len(out) > MEMBER_CAP:
            raise CapExceeded(
                f"oracle family exceeds the member cap ({MEMBER_CAP}); "
                f"shrink the pool")
        for i in range(start, len(pool)):
            nxt = meet & masks[i]
            if nxt:
                dfs(current | {pool[i]}, nxt, i + 1)

    dfs(frozenset(), cp.meta["model"].algebra.one, 0)
    return out


def maximal_members(cp: ConsistencyProperty,
                    root: frozenset = frozenset()) -> list[frozenset]:
    """Inclusion-maximal members extending the root; these are the minimal
    conditions of the forcing poset below the root."""
    if cp.explicit:
        above = [m for m in cp.family if root <= m]
    else:
        above = {m: v for m, v in member_meets(cp).items() if root <= m}
    return sorted(maximal_among(cp, above), key=_member_key)


def maximal_among(cp: ConsistencyProperty, members) -> list[frozenset]:
    """The inclusion-maximal sets among `members` (every family member above
    each of them included): a list, or for a positivity family a dict from
    member to meet, and then a member is maximal when its meet is disjoint
    from the value of each pool sentence it lacks."""
    if cp.family is not None:
        return [m for m in members if not any(m < other for other in members)]
    masks = [(f, cp.meta["value"](f)) for f in cp.pool]
    return [m for m, meet in members.items()
            if not any(meet & v for f, v in masks if f not in m)]


# ---------------------------------------------------------------------------
# default pool closure

POOL_CAP = 20_000


def default_pool(signature: Signature, fresh_constants: tuple[str, ...],
                 seeds: Iterable[Formula]) -> tuple[Formula, ...]:
    """Sentences needed to check the clauses on families seeded by `seeds`:
    closure under subformulas, the negation move on negated sentences,
    constant instantiation of quantified sentences, constant-for-constant
    replacement (the substitution clause), plus every equality sentence over
    the constants."""
    consts = tuple(signature.constants) + tuple(fresh_constants)
    work = list(seeds)
    seen: set[Formula] = set()
    while work:
        f = work.pop()
        if f in seen:
            continue
        seen.add(f)
        if len(seen) > POOL_CAP:
            raise CapExceeded(f"pool closure exceeds the pool cap "
                              f"({POOL_CAP} formulas)")
        for g in subformulas(f):
            if g not in seen:
                work.append(g)
        if isinstance(f, Not):
            work.append(move_neg_inside(f.body))
        if isinstance(f, (Forall, Exists)) and not (f.free_vars()):
            for tup in itertools.product(consts, repeat=len(f.vars)):
                work.append(substitute(
                    f.body, {v: Const(c) for v, c in zip(f.vars, tup)}))
        for old in sorted(constants_of(f)):
            for new in consts:
                if new != old:
                    g = replace_const(f, old, Const(new))
                    if g not in seen:
                        work.append(g)
    pool = {f for f in seen if is_sentence(f)}
    for c in consts:
        for d in consts:
            pool.add(Eq(Const(c), Const(d)))
    return tuple(sorted(pool, key=_pkey))


def occurrence_variants(f: Formula, old: str, new: str) -> set[Formula]:
    """Every formula obtained by replacing a nonempty subset of occurrences
    of the constant `old` by the constant `new`."""
    def term_alts(t):
        if isinstance(t, Const) and t.name == old:
            return [t, Const(new)]
        return [t]

    def walk(g: Formula) -> list[Formula]:
        parts = g.parts()
        if parts:
            return [g.rebuild(ps)
                    for ps in itertools.product(*map(walk, parts))]
        return [g.with_terms(ts)
                for ts in itertools.product(*map(term_alts, g.terms()))]

    return set(walk(f)) - {f}


# ---------------------------------------------------------------------------
# clause checking

def _try_extension(cp: ConsistencyProperty, s: frozenset, add: Formula,
                   clause: str, violations: list, require: bool) -> bool:
    """Check s union {add} for membership. For explicit families a sentence
    outside the pool cannot be a member; when `require` is set that is
    recorded as a PoolIncomplete finding, otherwise the candidate just fails.
    Returns membership."""
    if cp.explicit and not cp.in_pool(add) and add not in s:
        if require:
            violations.append({
                "clause": clause, "kind": "PoolIncomplete",
                "member": _member_key(s), "missing": add.key()})
        return False
    ok = cp.is_member(s | {add})
    if require and not ok:
        violations.append({
            "clause": clause, "kind": "violation",
            "member": _member_key(s), "needed": add.key()})
    return ok


def _undecidable(cp: ConsistencyProperty, s: frozenset, add: Formula) -> bool:
    """An explicit family cannot decide membership of a sentence outside its
    pool; existential clauses report such candidates as pool gaps."""
    return cp.explicit and not cp.in_pool(add) and add not in s


def _miss(cp: ConsistencyProperty, s: frozenset, clause: str,
          candidates: list[Formula], violations: list, **extra) -> None:
    """Record a failed some-candidate clause: a hard violation when every
    candidate was decidable, a PoolIncomplete finding otherwise."""
    gaps = [c.key() for c in candidates if _undecidable(cp, s, c)]
    entry = {"clause": clause, "member": _member_key(s), **extra}
    if gaps:
        entry.update(kind="PoolIncomplete", missing=sorted(gaps))
    else:
        entry.update(kind="violation")
    violations.append(entry)


def check_cp(cp: ConsistencyProperty) -> dict:
    """Check every consistency-property clause on every family member.
    Returns {"ok", "family_size", "violations": [...]}; violation entries
    carry the clause tag, the offending member, and what was required.
    The sentences a clause asks for depend on the sentence, not on the
    member, so each is built once per family."""
    violations: list[dict] = []
    members = enumerate_members(cp)
    consts = cp.all_constants()
    fresh = cp.fresh_constants
    pool_set = set(cp.pool)
    move = functools.cache(move_neg_inside)
    variants = functools.cache(occurrence_variants)

    @functools.cache
    def instances(f: Formula) -> list[Formula]:
        names = consts if isinstance(f, Forall) else fresh
        return [substitute(f.body, {v: Const(c) for v, c in zip(f.vars, tup)})
                for tup in itertools.product(names, repeat=len(f.vars))]

    # (Str.3) candidates per constant; the diagonal witness is
    # overwhelmingly the cheap hit, so it comes first
    namings = [(d, [Eq(Const(c), Const(d)) for c in
                    ([d] if d in fresh else []) + [c for c in fresh if c != d]])
               for d in consts]

    if cp.explicit:
        for m in members:
            for f in m:
                if f not in pool_set:
                    violations.append({
                        "clause": "pool", "kind": "PoolIncomplete",
                        "member": _member_key(m), "missing": f.key()})

    for s in members:
        # (Con): no sentence together with its negation
        for f in s:
            if isinstance(f, Not) and f.body in s:
                violations.append({
                    "clause": "Con", "kind": "violation",
                    "member": _member_key(s), "needed": f.body.key()})
        for f in s:
            if isinstance(f, Not):
                # (Ind.1): the negation move stays in the family
                _try_extension(cp, s, move(f.body), "Ind.1", violations,
                               require=True)
            elif isinstance(f, And):
                # (Ind.2): every conjunct
                for child in f.children:
                    _try_extension(cp, s, child, "Ind.2", violations,
                                   require=True)
            elif isinstance(f, Forall):
                # (Ind.3): every constant instance
                for inst in instances(f):
                    _try_extension(cp, s, inst, "Ind.3", violations,
                                   require=True)
            elif isinstance(f, Or):
                # (Ind.4): some disjunct
                if not any(_try_extension(cp, s, child, "Ind.4", violations,
                                          require=False)
                           for child in f.children):
                    _miss(cp, s, "Ind.4", list(f.children), violations,
                          sentence=f.key())
            elif isinstance(f, Exists):
                # (Ind.5): some witness tuple from the fresh constants
                insts = instances(f)
                if not any(_try_extension(cp, s, inst, "Ind.5", violations,
                                          require=False) for inst in insts):
                    _miss(cp, s, "Ind.5", insts, violations,
                          sentence=f.key())
            if isinstance(f, Eq) and isinstance(f.left, Const) \
                    and isinstance(f.right, Const):
                c, d = f.left.name, f.right.name
                # (Str.1): symmetry
                _try_extension(cp, s, Eq(f.right, f.left), "Str.1",
                               violations, require=True)
                # (Str.2): substitution into any co-member, any occurrences
                if c != d:
                    for psi in s:
                        for variant in variants(psi, d, c):
                            _try_extension(cp, s, variant, "Str.2",
                                           violations, require=True)
        # (Str.3): every constant is named by some fresh constant
        for d, eqs in namings:
            if not any(_try_extension(cp, s, e, "Str.3", violations,
                                      require=False) for e in eqs):
                _miss(cp, s, "Str.3", eqs, violations, constant=d)

    return {"ok": not violations, "family_size": len(members),
            "violations": violations}


def check_smax(cp: ConsistencyProperty) -> dict:
    """Maximality: every member extends by each pool sentence or by its
    literal negation."""
    violations = []
    members = enumerate_members(cp)
    for s in members:
        for f in cp.pool:
            pos = _try_extension(cp, s, f, "S-Max", [], require=False)
            neg = _try_extension(cp, s, Not(f), "S-Max", [], require=False)
            if not (pos or neg):
                _miss(cp, s, "S-Max", [f, Not(f)], violations,
                      sentence=f.key())
    return {"ok": not violations, "family_size": len(members),
            "violations": violations}


# ---------------------------------------------------------------------------
# families from models

def cp_from_model(model: BValuedModel, pool: Iterable[Formula] | None = None,
                  seeds: Iterable[Formula] = ()) -> ConsistencyProperty:
    """The positivity family of a valid model: the fresh constants are the
    domain elements naming themselves, and a finite sentence set is a member
    exactly when its conjunction has nonzero value. Each sentence is
    evaluated once; its value mask is kept in `meta["value"]`."""
    named = model.with_self_named_constants(model.domain)
    memo: dict[Formula, int] = {}

    def value(f: Formula) -> int:
        v = memo.get(f)
        if v is None:
            v = memo[f] = eval_formula(named, f)
        return v

    def oracle(s: frozenset) -> bool:
        return named.algebra.inf(map(value, s)) != named.algebra.zero

    if pool is None:
        pool = default_pool(model.signature, tuple(model.domain), list(seeds))
    return ConsistencyProperty(
        signature=model.signature,
        fresh_constants=tuple(model.domain),
        pool=tuple(pool),
        oracle=oracle,
        meta={"kind": "model-positivity", "model": named, "value": value})


def convert_to_explicit(cp: ConsistencyProperty,
                        members: Iterable[frozenset] | None = None
                        ) -> ConsistencyProperty:
    """The family as an explicit list of `members`, by default all."""
    return ConsistencyProperty(
        signature=cp.signature, fresh_constants=cp.fresh_constants,
        pool=cp.pool, meta=dict(cp.meta),
        family=tuple(enumerate_members(cp) if members is None else members))


# ---------------------------------------------------------------------------
# forcing poset, dense sets, generic filters

def forcing_poset_conditions(cp: ConsistencyProperty,
                             root: frozenset = frozenset()
                             ) -> list[frozenset]:
    """All conditions extending the root: subsets of family members that
    contain the root (the forcing order is reverse inclusion). At most
    MEMBER_CAP of them."""
    out: set[frozenset] = set()
    for m in maximal_members(cp, root):
        rest = sorted(m - root, key=_pkey)
        for k in range(len(rest) + 1):
            for combo in itertools.combinations(rest, k):
                out.add(root | frozenset(combo))
                if len(out) > MEMBER_CAP:
                    raise CapExceeded(
                        f"the forcing poset exceeds the condition cap "
                        f"({MEMBER_CAP} conditions)")
    return sorted(out, key=_member_key)


def forcing_poset(cp: ConsistencyProperty, root: frozenset = frozenset()):
    """The forcing poset of conditions extending the root, ordered by reverse
    inclusion (p below q exactly when p is the larger set)."""
    from .boolalg import FinPoset
    conds = forcing_poset_conditions(cp, root)
    pairs = [(p, q) for p in conds for q in conds if q <= p]
    return FinPoset(conds, pairs)


def dense_sets(cp: ConsistencyProperty) -> list[dict]:
    """The dense-set roster: one set per disjunctive pool sentence (a
    condition extends by some disjunct), one per existential pool sentence
    (extends by some fresh-constant instance), one per base constant d (some
    fresh c with c=d). Density below a condition containing the trigger is
    decided on the maximal members, which is equivalent at finite scale."""
    maxes = maximal_members(cp)
    out = []
    for f in cp.pool:
        if isinstance(f, Or):
            holders = [m for m in maxes if f in m]
            dense = all(any(ch in m for ch in f.children) for m in holders)
            out.append({"kind": "disjunction", "sentence": f,
                        "dense_below_holders": dense,
                        "holders": len(holders)})
        elif isinstance(f, Exists):
            holders = [m for m in maxes if f in m]
            insts = [substitute(f.body,
                                {v: Const(c) for v, c in zip(f.vars, tup)})
                     for tup in itertools.product(cp.fresh_constants,
                                                  repeat=len(f.vars))]
            dense = all(any(i in m for i in insts) for m in holders)
            out.append({"kind": "existential", "sentence": f,
                        "dense_below_holders": dense,
                        "holders": len(holders)})
    for d in cp.signature.constants:
        eqs = [Eq(Const(c), Const(d)) for c in cp.fresh_constants]
        dense = all(any(e in m for e in eqs) for m in maxes)
        out.append({"kind": "constant", "constant": d,
                    "dense_globally": dense})
    return out


@dataclass(frozen=True)
class GenericFilter:
    root: frozenset
    minimum: frozenset                 # the chosen minimal condition
    members: tuple[frozenset, ...]     # the up-set: all subsets of minimum
    sigma: frozenset                   # union of the filter
    dense_report: tuple = ()

    def finite_subsets_equal_members(self) -> bool:
        n = len(self.sigma)
        return len(self.members) == 2 ** n and \
            all(m <= self.sigma for m in self.members)


def _dense_triggers(cp: ConsistencyProperty, entry: dict):
    """(guard, triggers): the dense set is dense below a condition when every
    maximal member above it containing the guard contains a trigger; a filter
    meets it when its union contains a trigger."""
    if entry["kind"] == "disjunction":
        f = entry["sentence"]
        return f, tuple(f.children)
    if entry["kind"] == "existential":
        f = entry["sentence"]
        insts = tuple(
            substitute(f.body, {v: Const(c) for v, c in zip(f.vars, tup)})
            for tup in itertools.product(cp.fresh_constants,
                                         repeat=len(f.vars)))
        return f, insts
    d = entry["constant"]
    return None, tuple(Eq(Const(c), Const(d)) for c in cp.fresh_constants)


def generic_filter(cp: ConsistencyProperty,
                   root: frozenset = frozenset()) -> GenericFilter:
    """The up-set of the lexicographically least minimal condition below the
    root (any condition of the forcing poset). Verified to meet every emitted
    dense set that is dense below the root; satisfies members == finite
    subsets of sigma by construction."""
    maxes = maximal_members(cp, root)
    if not maxes:
        raise ValueError("the root is not a condition of the forcing poset")
    minimum = maxes[0]  # maximal_members sorts canonically
    rest = sorted(minimum, key=_pkey)
    members = []
    for k in range(len(rest) + 1):
        for combo in itertools.combinations(rest, k):
            members.append(frozenset(combo))
    report = []
    for entry in dense_sets(cp):
        guard, triggers = _dense_triggers(cp, entry)
        dense_below_root = all(
            (guard is not None and guard not in m)
            or any(t in m for t in triggers)
            for m in maxes)
        met = any(t in minimum for t in triggers)
        name = entry["constant"] if entry["kind"] == "constant" \
            else entry["sentence"].key()
        report.append({"kind": entry["kind"], "name": name,
                       "dense_below_root": dense_below_root, "met": met})
        if dense_below_root and not met:
            raise AssertionError(
                f"minimal condition misses a dense set: {name}")
    gf = GenericFilter(root=root, minimum=minimum, members=tuple(members),
                       sigma=minimum, dense_report=tuple(report))
    assert gf.finite_subsets_equal_members()
    return gf


# ---------------------------------------------------------------------------
# the realized term structure

def build_af(cp: ConsistencyProperty,
             sigma: frozenset) -> TwoValuedStructure:
    """Classes of the constants under the equalities found in sigma (with
    reflexive-symmetric-transitive closure), relations holding when some
    representative's positive atomic sentence lies in sigma. Raises
    IllDefined when sigma contains conflicting positive and negative facts
    across class-equal tuples."""
    consts = cp.all_constants()
    parent = {c: c for c in consts}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = sorted((ra, rb))
            parent[hi] = lo

    eq_pos = []
    eq_neg = []
    rel_pos = []
    rel_neg = []
    for f in sigma:
        if isinstance(f, Eq) and isinstance(f.left, Const) \
                and isinstance(f.right, Const):
            eq_pos.append((f.left.name, f.right.name))
        elif isinstance(f, Not) and isinstance(f.body, Eq) \
                and isinstance(f.body.left, Const) \
                and isinstance(f.body.right, Const):
            eq_neg.append((f.body.left.name, f.body.right.name))
        elif isinstance(f, Atom) and all(isinstance(t, Const)
                                         for t in f.args):
            rel_pos.append((f.rel, tuple(t.name for t in f.args)))
        elif isinstance(f, Not) and isinstance(f.body, Atom) \
                and all(isinstance(t, Const) for t in f.body.args):
            rel_neg.append((f.body.rel, tuple(t.name for t in f.body.args)))
    for a, b in eq_pos:
        if a not in parent or b not in parent:
            raise ValueError(f"equality over undeclared constants: {a}={b}")
        union(a, b)
    for a, b in eq_neg:
        if find(a) == find(b):
            raise IllDefined(
                f"sigma denies {a}={b} but their classes coincide")
    classes_map: dict[str, set[str]] = {}
    for c in consts:
        classes_map.setdefault(find(c), set()).add(c)
    classes = tuple(sorted((frozenset(v) for v in classes_map.values()),
                           key=min))
    reps = tuple(min(c) for c in classes)
    constants = {c: find(c) for c in consts}

    relations: dict[str, set] = {r: set() for r, _ in cp.signature.relations}
    for rel, args in rel_pos:
        relations[rel].add(tuple(find(a) for a in args))
    for rel, args in rel_neg:
        reptup = tuple(find(a) for a in args)
        if reptup in relations[rel]:
            raise IllDefined(
                f"sigma both asserts and denies {rel} on class tuple {reptup}")
    return TwoValuedStructure(cp.extended_signature(), classes, reps,
                              {r: frozenset(v) for r, v in relations.items()},
                              constants)


def verify_realizes(term_model: TwoValuedStructure,
                    sigma: frozenset) -> dict:
    """Two-valued satisfaction of every sigma sentence in the term structure."""
    model = term_model.to_two_valued_model()
    one = model.algebra.one
    failures = []
    for f in sorted(sigma, key=_pkey):
        if eval_formula(model, f) != one:
            failures.append(f.key())
    return {"ok": not failures, "failures": failures,
            "checked": len(sigma)}


def check_kappa_omega_iff(cp: ConsistencyProperty,
                          gf: GenericFilter | None = None,
                          root: frozenset = frozenset()) -> dict:
    """On a maximal family: for every pool sentence, the term structure
    satisfies it exactly when it lies in sigma."""
    if gf is None:
        gf = generic_filter(cp, root)
    tm = build_af(cp, gf.sigma)
    model = tm.to_two_valued_model()
    one = model.algebra.one
    failures = []
    for f in cp.pool:
        sat = eval_formula(model, f) == one
        member = f in gf.sigma
        if sat != member:
            failures.append({"sentence": f.key(), "satisfied": sat,
                             "in_sigma": member})
    return {"ok": not failures, "checked": len(cp.pool),
            "failures": failures}

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

from .boolalg import FinPoset
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


def instances(f: Formula, names: Iterable[str]) -> list[Formula]:
    """The body of a quantified sentence with its variables replaced by
    every tuple of the named constants, in product order."""
    return [substitute(f.body, {v: Const(c) for v, c in zip(f.vars, tup)})
            for tup in itertools.product(names, repeat=len(f.vars))]


def _const_eq(f: Formula) -> bool:
    return isinstance(f, Eq) and isinstance(f.left, Const) \
        and isinstance(f.right, Const)


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
            work.extend(instances(f, consts))
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
#
# A clause row is (clause, mode, candidates, extra): an EVERY row requires
# every candidate sentence to extend the member, a SOME row at least one,
# and `extra` names the row's sentence or constant in its findings. Con, the
# explicit pool check and Str.2 depend on the member and are checked inline.

EVERY, SOME = "every", "some"


def _clauses(cp: ConsistencyProperty):
    """The clause table of a family, built once: `rows(f)` are the rows a
    sentence f of a member carries, in check order (Ind.1 negation move,
    Ind.2 conjuncts, Ind.3 instances over all constants, Ind.4 disjuncts,
    Ind.5 fresh instances, Str.1 swap; at most one applies), and `namings`
    holds the Str.3 row of each constant, whose diagonal witness, the cheap
    hit, comes first."""
    consts, fresh = cp.all_constants(), cp.fresh_constants

    @functools.cache
    def rows(f: Formula) -> tuple:
        if isinstance(f, Not):
            return ("Ind.1", EVERY, [move_neg_inside(f.body)], {}),
        if isinstance(f, And):
            return ("Ind.2", EVERY, list(f.children), {}),
        if isinstance(f, Forall):
            return ("Ind.3", EVERY, instances(f, consts), {}),
        if isinstance(f, Or):
            return ("Ind.4", SOME, list(f.children), {"sentence": f.key()}),
        if isinstance(f, Exists):
            return ("Ind.5", SOME, instances(f, fresh),
                    {"sentence": f.key()}),
        if _const_eq(f):
            return ("Str.1", EVERY, [Eq(f.right, f.left)], {}),
        return ()

    namings = [("Str.3", SOME,
                [Eq(Const(c), Const(d)) for c in
                 ([d] if d in fresh else []) + [c for c in fresh if c != d]],
                {"constant": d})
               for d in consts]
    return rows, namings


def _undecidable(cp: ConsistencyProperty, s: frozenset, add: Formula) -> bool:
    """An explicit family cannot decide membership of a sentence outside its
    pool; the clauses report such candidates as pool gaps."""
    return cp.explicit and not cp.in_pool(add) and add not in s


def _try_extension(cp: ConsistencyProperty, s: frozenset, add: Formula,
                   clause: str, violations: list, require: bool,
                   member_key: tuple | None = None) -> bool:
    """Check s union {add} for membership. For explicit families a sentence
    outside the pool cannot be a member; when `require` is set that is
    recorded as a PoolIncomplete finding, otherwise the candidate just fails.
    Returns membership."""
    gap = _undecidable(cp, s, add)
    ok = not gap and cp.is_member(s | {add})
    if require and not ok:
        violations.append({
            "clause": clause, "kind": "PoolIncomplete" if gap else "violation",
            "member": _member_key(s) if member_key is None else member_key,
            "missing" if gap else "needed": add.key()})
    return ok


def _miss(s: frozenset, clause: str, gaps: list[tuple], violations: list,
          member_key: tuple | None = None, **extra) -> None:
    """Record a failed some-candidate clause: a hard violation when every
    candidate was decidable, a PoolIncomplete finding naming the keys of
    the undecidable ones otherwise."""
    entry = {"clause": clause,
             "member": _member_key(s) if member_key is None else member_key,
             **extra}
    if gaps:
        entry.update(kind="PoolIncomplete", missing=sorted(gaps))
    else:
        entry.update(kind="violation")
    violations.append(entry)


def _check_row(cp: ConsistencyProperty, s: frozenset, row: tuple,
               violations: list, member_key: tuple) -> None:
    clause, mode, candidates, extra = row
    if mode == EVERY:
        for add in candidates:
            _try_extension(cp, s, add, clause, violations, True, member_key)
        return
    gaps = []
    for add in candidates:
        if _undecidable(cp, s, add):
            gaps.append(add.key())
        elif cp.is_member(s | {add}):
            return
    _miss(s, clause, gaps, violations, member_key, **extra)


def check_cp(cp: ConsistencyProperty) -> dict:
    """Check every consistency-property clause on every family member.
    Returns {"ok", "family_size", "violations": [...]}; violation entries
    carry the clause tag, the offending member, and what was required.
    The clause table is built once per family, and each member's key once
    and shared by its findings."""
    violations: list[dict] = []
    members = enumerate_members(cp)
    keys = [_member_key(s) for s in members]
    rows, namings = _clauses(cp)
    variants = functools.cache(occurrence_variants)

    if cp.explicit:
        for m, key in zip(members, keys):
            for f in m:
                if f not in cp._pool_set:
                    violations.append({
                        "clause": "pool", "kind": "PoolIncomplete",
                        "member": key, "missing": f.key()})

    for s, key in zip(members, keys):
        # (Con): no sentence together with its negation
        for f in s:
            if isinstance(f, Not) and f.body in s:
                violations.append({
                    "clause": "Con", "kind": "violation",
                    "member": key, "needed": f.body.key()})
        for f in s:
            for r in rows(f):
                _check_row(cp, s, r, violations, key)
            # (Str.2): substitution into any co-member, any occurrences
            if _const_eq(f) and f.left != f.right:
                for psi in s:
                    for variant in variants(psi, f.right.name, f.left.name):
                        _try_extension(cp, s, variant, "Str.2", violations,
                                       True, key)
        for r in namings:
            _check_row(cp, s, r, violations, key)

    return {"ok": not violations, "family_size": len(members),
            "violations": violations}


def check_smax(cp: ConsistencyProperty) -> dict:
    """Maximality: every member extends by each pool sentence or by its
    literal negation, a SOME row per pool sentence."""
    violations: list[dict] = []
    members = enumerate_members(cp)
    rows = [("S-Max", SOME, [f, Not(f)], {"sentence": f.key()})
            for f in cp.pool]
    for s in members:
        key = _member_key(s)
        for r in rows:
            _check_row(cp, s, r, violations, key)
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


def forcing_poset(conditions: list[frozenset]) -> FinPoset:
    """The forcing order on conditions: reverse inclusion, so p is below q
    exactly when p is the larger set."""
    return FinPoset(conditions, [(p, q) for p in conditions
                                 for q in conditions if q <= p])


_DENSE_KIND = {"Ind.4": "disjunction", "Ind.5": "existential",
               "Str.3": "constant"}


def dense_sets(cp: ConsistencyProperty) -> list[dict]:
    """The dense-set roster, read off the SOME rows of the clause table: one
    set per disjunctive pool sentence (a condition extends by some
    disjunct), one per existential pool sentence (by some fresh-constant
    instance), one per base constant d (by some c=d with c fresh). A set is
    dense below a condition when every maximal member above it that holds
    the guard holds a trigger (no guard: every such member)."""
    rows, namings = _clauses(cp)
    guarded = [(f, r) for f in cp.pool for r in rows(f)] + \
        [(None, r) for r in namings
         if r[3]["constant"] in cp.signature.constants]
    out = []
    for guard, r in guarded:
        if r[1] == SOME:
            clause, _, candidates, extra = r
            (name,) = extra.values()
            out.append({"kind": _DENSE_KIND[clause], "name": name,
                        "guard": guard, "triggers": tuple(candidates)})
    return out


@dataclass(frozen=True)
class GenericFilter:
    root: frozenset
    minimum: frozenset                 # the chosen minimal condition
    sigma: frozenset                   # union of the filter
    dense_report: tuple = ()


def generic_filter(cp: ConsistencyProperty,
                   root: frozenset = frozenset()) -> GenericFilter:
    """The up-set of the lexicographically least minimal condition below the
    root (any condition of the forcing poset), whose members are the subsets
    of that condition. Verified to meet every emitted dense set that is
    dense below the root."""
    maxes = maximal_members(cp, root)
    if not maxes:
        raise ValueError("the root is not a condition of the forcing poset")
    minimum = maxes[0]  # maximal_members sorts canonically
    report = []
    for entry in dense_sets(cp):
        guard, triggers, name = (entry["guard"], entry["triggers"],
                                 entry["name"])
        dense_below_root = all(
            (guard is not None and guard not in m)
            or any(t in m for t in triggers)
            for m in maxes)
        met = any(t in minimum for t in triggers)
        report.append({"kind": entry["kind"], "name": name,
                       "dense_below_root": dense_below_root, "met": met})
        if dense_below_root and not met:
            raise AssertionError(
                f"minimal condition misses a dense set: {name}")
    return GenericFilter(root=root, minimum=minimum, sigma=minimum,
                         dense_report=tuple(report))


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
        if _const_eq(f):
            eq_pos.append((f.left.name, f.right.name))
        elif isinstance(f, Not) and _const_eq(f.body):
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

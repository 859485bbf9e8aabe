"""Consistency properties at desk scale: clause checking against a declared
finite sentence pool, maximality, forcing posets over the family, dense sets,
generic filters, and the term structure realized by a generic filter.

A family is either an explicit finite list of finite sentence sets or the
positivity family of a model, accepting a set exactly when the meet of its
sentences' values is nonzero. Positivity families are closed under subsets;
they are enumerated as the accepted pool-subsets, depth-first with antitone
pruning and a hard cap. Sentences that a clause adds are looked up in
explicit families (a miss outside the pool is a PoolIncomplete finding) and
simply evaluated in the model otherwise. A member is an int over the
family's interned sentences, bit i the i-th in canonical key order, and so
are the roots, conditions and filters of the forcing side: a condition is a
submask of a member, and p lies below q when p & q == q.
"""
from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterable

from .boolalg import FinPoset
from .bvmodel import BValuedModel, CapExceeded, TwoValuedStructure, \
    eval_formula
from .record import Record, Value
from .syntax import (
    And, Atom, Const, Eq, Exists, Forall, Formula, Not, Or, Signature,
    constants_of, is_sentence, move_neg_inside, replace_const, subformulas,
    substitute,
)


class IllDefined(Exception):
    """The term structure's classes or relations are not well defined."""


MEMBER_CAP = 300_000


class ConsistencyProperty(Record):
    """An explicit `family`, or the positivity family of `model`, whose
    domain elements name themselves. Members are ints over `sentences`: the
    pool and every sentence an explicit member holds, in canonical key
    order, given or interned here from a family of sentence sets. `bit`
    indexes the sentences, `pool_mask` is the pool as a member, `oracle`
    decides membership, and `masks` holds a positivity family's sentence
    values."""
    masks: tuple[int, ...] = ()

    def __init__(self, signature: Signature,
                 fresh_constants: tuple[str, ...], pool: tuple[Formula, ...],
                 family: tuple | None = None,
                 model: BValuedModel | None = None,
                 sentences: tuple[Formula, ...] | None = None) -> None:
        self.__dict__.update(signature=signature,
                             fresh_constants=fresh_constants, pool=pool,
                             family=family, model=model, sentences=sentences)
        if (self.family is None) == (self.model is None):
            raise ValueError("exactly one of family/model must be given")
        for c in self.fresh_constants:
            if c in self.signature.constants:
                raise ValueError(f"fresh constant {c!r} already in signature")
        for s in self.pool:
            if not is_sentence(s):
                raise ValueError(f"pool entry has free variables: {s!r}")
        family = self.family
        if self.sentences is None:
            family = family and [frozenset(m) for m in family]
            held = set(self.pool).union(*family or ())
            self.__dict__["sentences"] = tuple(sorted(held, key=Formula.key))
        set_ = self.__dict__.__setitem__
        set_("bit", {f: i for i, f in enumerate(self.sentences)})
        set_("pool_mask", self.encode(self.pool))
        if family is not None:
            family = tuple(m if type(m) is int else self.encode(m)
                           for m in family)
            set_("family", family)
            set_("oracle", frozenset(family).__contains__)
            return
        set_("masks", tuple(eval_formula(self.model, f)
                            for f in self.sentences))
        set_("oracle", lambda m: functools.reduce(
            operator.and_, map(self.masks.__getitem__, _bits(m)),
            self.model.algebra.one) != 0)

    @property
    def explicit(self) -> bool:
        return self.family is not None

    def all_constants(self) -> tuple[str, ...]:
        return tuple(self.signature.constants) + tuple(self.fresh_constants)

    def extended_signature(self) -> Signature:
        return self.signature.with_constants(self.fresh_constants)

    def is_member(self, m: int) -> bool:
        return self.oracle(m)

    def in_pool(self, f: Formula) -> bool:
        return f in self.bit and bool(self.pool_mask >> self.bit[f] & 1)

    def encode(self, s: Iterable[Formula]) -> int:
        """The member holding the sentences of s, all of them interned."""
        return sum(1 << b for b in {self.bit[f] for f in s})

    def decode(self, m: int) -> frozenset:
        return frozenset(map(self.sentences.__getitem__, _bits(m)))

    def key(self, m: int) -> tuple:
        """The canonical forms of m's sentences, in bit (key) order."""
        return tuple(self.sentences[b].key() for b in _bits(m))


def _bits(m: int) -> list[int]:
    """The positions of the set bits of m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def enumerate_members(cp: ConsistencyProperty) -> list[int]:
    """Family members: the explicit list, or a positivity family's members
    in the order of member_meets."""
    return list(member_meets(cp) if cp.family is None else cp.family)


def member_meets(cp: ConsistencyProperty) -> dict[int, int]:
    """The members of a positivity family, each mapped to the meet of its
    sentences' values. The walk is depth-first over the pool in canonical
    order and carries the running meet, so a candidate costs one AND with
    the next sentence's value mask; the pruning is exact because the family
    is closed under subsets."""
    steps = [(1 << b, cp.masks[b]) for b in _bits(cp.pool_mask)]
    out: dict[int, int] = {}

    def dfs(current: int, meet: int, start: int) -> None:
        out[current] = meet
        if len(out) > MEMBER_CAP:
            raise CapExceeded(
                f"oracle family exceeds the member cap ({MEMBER_CAP}); "
                f"shrink the pool")
        for i in range(start, len(steps)):
            b, mask = steps[i]
            nxt = meet & mask
            if nxt:
                dfs(current | b, nxt, i + 1)

    dfs(0, cp.model.algebra.one, 0)
    return out


def maximal_members(cp: ConsistencyProperty, root: int = 0) -> list[int]:
    """Inclusion-maximal members extending the root; these are the minimal
    conditions of the forcing poset below the root, in bit order."""
    members = dict.fromkeys(cp.family) if cp.explicit else member_meets(cp)
    above = {m: v for m, v in members.items() if m & root == root}
    return sorted(maximal_among(cp, above), key=_bits)


def maximal_among(cp: ConsistencyProperty, members) -> list[int]:
    """The inclusion-maximal sets among `members` (every family member above
    each of them included), for a positivity family a dict from member to
    meet: a member is then maximal when it holds every pool sentence whose
    value meets its meet."""
    if cp.family is not None:
        return [m for m in members
                if not any(m & o == m != o for o in members)]
    pool = [(1 << b, cp.masks[b]) for b in _bits(cp.pool_mask)]

    @functools.cache
    def meeting(meet: int) -> int:
        return sum(b for b, v in pool if v & meet)

    return [m for m, meet in members.items() if not meeting(meet) & ~m]


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
    return tuple(sorted(pool, key=Formula.key))


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


def _compiler(cp: ConsistencyProperty) -> Callable[[tuple], tuple]:
    """Rows compiled against the family: a candidate extends a member when
    it meets the member's reach (`_reaches`). A positivity candidate is its
    value mask, evaluated only outside the pool; an explicit one is its bit
    (0 when not interned), undecidable outside the pool. A SOME row becomes
    the join of its candidates and the sorted keys of the undecidable ones."""
    def candidate(f: Formula) -> tuple:
        b = cp.bit.get(f)
        if cp.family is None:
            return (f.key(), eval_formula(cp.model, f) if b is None
                    else cp.masks[b], False)
        return f.key(), 0 if b is None else 1 << b, not cp.in_pool(f)

    def compile_row(row: tuple) -> tuple:
        clause, mode, candidates, extra = row
        cands = list(map(candidate, candidates))
        if mode == SOME:
            ints = [c for _, c, _ in cands]
            cands = (functools.reduce(operator.or_, ints, 0),
                     sorted(k for k, _, gap in cands if gap))
        return clause, mode, cands, extra
    return compile_row


def _reaches(cp: ConsistencyProperty) -> list[tuple[int, int]]:
    """(member, reach) pairs. A positivity member's reach is its meet; an
    explicit member's is the member with every pool sentence whose addition
    is again a member."""
    if cp.family is None:
        return list(member_meets(cp).items())
    members = enumerate_members(cp)
    reach = {m: m for m in members}
    for m in reach:
        for b in _bits(m & cp.pool_mask):
            if m ^ 1 << b in reach:
                reach[m ^ 1 << b] |= 1 << b
    return [(m, reach[m]) for m in members]


def _violation(clause: str, key: tuple, need: str, gap: bool = False) -> dict:
    return {"clause": clause, "kind": "PoolIncomplete" if gap else "violation",
            "member": key, "missing" if gap else "needed": need}


def _check_row(row: tuple, reach: int, violations: list, key: tuple) -> None:
    """Run a compiled row on a member with the given reach; a failed SOME
    row is a PoolIncomplete finding when it has undecidable candidates."""
    clause, mode, cands, extra = row
    if mode == EVERY:
        for k, c, gap in cands:
            if not reach & c:
                violations.append(_violation(clause, key, k, gap))
        return
    union, gaps = cands
    if not reach & union:
        found = {"kind": "PoolIncomplete", "missing": gaps} if gaps \
            else {"kind": "violation"}
        violations.append({"clause": clause, "member": key, **extra, **found})


def check_cp(cp: ConsistencyProperty) -> dict:
    """Check every consistency-property clause on every family member.
    Returns {"ok", "family_size", "violations": [...]}; violation entries
    carry the clause tag, the offending member, and what was required.
    The clause table is compiled once per family, and each member's
    sentences are read in canonical order."""
    members = _reaches(cp)
    rows, namings = _clauses(cp)
    compile_row = _compiler(cp)
    namings = [compile_row(r) for r in namings]
    sentences, keys = cp.sentences, [f.key() for f in cp.sentences]

    @functools.cache
    def plan(b: int) -> tuple:
        """Sentence b's Con partner, compiled rows and Str.2 constants."""
        f = sentences[b]
        con = 1 << cp.bit[f.body] \
            if isinstance(f, Not) and f.body in cp.bit else 0
        swap = (f.right.name, f.left.name) \
            if _const_eq(f) and f.left != f.right else None
        return con, [compile_row(r) for r in rows(f)], swap

    @functools.cache
    def substituted(b: int, old: str, new: str) -> tuple:
        return compile_row(("Str.2", EVERY, occurrence_variants(
            sentences[b], old, new), {}))

    violations = [_violation("pool", cp.key(m), keys[b], True)
                  for m in cp.family or () for b in _bits(m & ~cp.pool_mask)]

    for m, reach in members:
        idx = _bits(m)
        key = tuple(map(keys.__getitem__, idx))
        plans = list(map(plan, idx))
        # (Con): no sentence together with its negation
        violations += [_violation("Con", key, keys[con.bit_length() - 1])
                       for con, _, _ in plans if m & con]
        for con, own, swap in plans:
            for r in own:
                _check_row(r, reach, violations, key)
            # (Str.2): substitution into any co-member, any occurrences
            if swap:
                for p in idx:
                    _check_row(substituted(p, *swap), reach, violations, key)
        for r in namings:
            _check_row(r, reach, violations, key)

    return {"ok": not violations, "family_size": len(members),
            "violations": violations}


def check_smax(cp: ConsistencyProperty) -> dict:
    """Maximality: every member extends by each pool sentence or by its
    literal negation, a SOME row per pool sentence."""
    violations: list[dict] = []
    compile_row = _compiler(cp)
    rows = [compile_row(("S-Max", SOME, [f, Not(f)], {"sentence": f.key()}))
            for f in cp.pool]
    members = _reaches(cp)
    for m, reach in members:
        key = cp.key(m)
        for r in rows:
            _check_row(r, reach, violations, key)
    return {"ok": not violations, "family_size": len(members),
            "violations": violations}


# ---------------------------------------------------------------------------
# families from models

def cp_from_model(model: BValuedModel, pool: Iterable[Formula] | None = None,
                  seeds: Iterable[Formula] = ()) -> ConsistencyProperty:
    """The positivity family of a valid model: the fresh constants are the
    domain elements naming themselves, and a finite sentence set is a member
    exactly when its conjunction has nonzero value."""
    if pool is None:
        pool = default_pool(model.signature, tuple(model.domain), list(seeds))
    return ConsistencyProperty(
        model.signature, tuple(model.domain), tuple(pool),
        model=model.with_self_named_constants(model.domain))


def convert_to_explicit(cp: ConsistencyProperty,
                        members: Iterable[int] | None = None
                        ) -> ConsistencyProperty:
    """The family as an explicit list of `members`, by default all."""
    return ConsistencyProperty(
        cp.signature, cp.fresh_constants, cp.pool, family=tuple(
            enumerate_members(cp) if members is None else members),
        sentences=cp.sentences)


# ---------------------------------------------------------------------------
# forcing poset, dense sets, generic filters

def forcing_poset_conditions(maxes: list[int], root: int) -> list[int]:
    """All conditions extending the root, in bit order, given the maximal
    members above it: their submasks that contain the root (the forcing
    order is reverse inclusion). At most MEMBER_CAP of them."""
    out: set[int] = set()
    for m in maxes:
        rest = sub = m & ~root
        while True:
            out.add(root | sub)
            if len(out) > MEMBER_CAP:
                raise CapExceeded(
                    f"the forcing poset exceeds the condition cap "
                    f"({MEMBER_CAP} conditions)")
            if not sub:
                break
            sub = sub - 1 & rest
    return sorted(out, key=_bits)


def forcing_poset(conditions: list[int]) -> FinPoset:
    """The forcing order on conditions: reverse inclusion, so p is below q
    exactly when p & q == q."""
    return FinPoset(conditions, [(p, q) for p in conditions
                                 for q in conditions if p & q == q])


_DENSE_KIND = {"Ind.4": "disjunction", "Ind.5": "existential",
               "Str.3": "constant"}


def dense_sets(cp: ConsistencyProperty) -> list[dict]:
    """The dense-set roster, read off the SOME rows of the clause table: one
    set per disjunctive pool sentence (a condition extends by some
    disjunct), one per existential pool sentence (by some fresh-constant
    instance), one per base constant d (by some c=d with c fresh). A set is
    dense below a condition when every maximal member above it that holds
    the guard holds a trigger (no guard: every such member). The guard and
    the triggers are masks over the interned sentences; a trigger that is
    not interned is in no member and drops out."""
    rows, namings = _clauses(cp)
    guarded = [(1 << cp.bit[f], r) for f in cp.pool for r in rows(f)] + \
        [(0, r) for r in namings
         if r[3]["constant"] in cp.signature.constants]
    out = []
    for guard, r in guarded:
        if r[1] == SOME:
            clause, _, candidates, extra = r
            (name,) = extra.values()
            out.append({"kind": _DENSE_KIND[clause], "name": name,
                        "guard": guard, "triggers": cp.encode(
                            t for t in candidates if t in cp.bit)})
    return out


class GenericFilter(Value):
    def __init__(self, root: int,
                 minimum: int,         # the chosen minimal condition
                 dense_report: tuple = ()) -> None:
        self.__dict__.update(root=root, minimum=minimum,
                             dense_report=dense_report)


def generic_filter(cp: ConsistencyProperty, root: int = 0) -> GenericFilter:
    """The up-set of the lexicographically least minimal condition below the
    root (any condition of the forcing poset), whose members are the subsets
    of that condition, so its union sigma is the minimum itself. Verified to
    meet every emitted dense set that is dense below the root."""
    maxes = maximal_members(cp, root)
    if not maxes:
        raise ValueError("the root is not a condition of the forcing poset")
    minimum = maxes[0]  # maximal_members sorts canonically
    report = []
    for entry in dense_sets(cp):
        guard, triggers, name = (entry["guard"], entry["triggers"],
                                 entry["name"])
        dense_below_root = all(m & guard != guard or m & triggers
                               for m in maxes)
        met = bool(minimum & triggers)
        report.append({"kind": entry["kind"], "name": name,
                       "dense_below_root": dense_below_root, "met": met})
        if dense_below_root and not met:
            raise AssertionError(
                f"minimal condition misses a dense set: {name}")
    return GenericFilter(root=root, minimum=minimum,
                         dense_report=tuple(report))


# ---------------------------------------------------------------------------
# the realized term structure

def build_af(cp: ConsistencyProperty, sigma: int) -> TwoValuedStructure:
    """Classes of the constants under the equalities found in sigma (with
    reflexive-symmetric-transitive closure), relations holding when some
    representative's positive atomic sentence lies in sigma. Raises
    IllDefined when sigma contains conflicting positive and negative facts
    across class-equal tuples, naming the first in bit (key) order."""
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
    for f in map(cp.sentences.__getitem__, _bits(sigma)):
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


def verify_realizes(cp: ConsistencyProperty, term_model: TwoValuedStructure,
                    sigma: int) -> dict:
    """Two-valued satisfaction of every sigma sentence in the term structure."""
    model = term_model.to_two_valued_model()
    one = model.algebra.one
    sentences = list(map(cp.sentences.__getitem__, _bits(sigma)))
    failures = [f.key() for f in sentences if eval_formula(model, f) != one]
    return {"ok": not failures, "failures": failures,
            "checked": len(sentences)}

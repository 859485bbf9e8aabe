"""Consistency properties at desk scale: clause checking against a declared
finite sentence pool, maximality, forcing posets over the family, dense sets,
generic filters, and the term structure realized by a generic filter.

A family is either an explicit finite list of finite sentence sets or the
positivity family of a model, accepting a set exactly when the meet of its
sentences' values is nonzero. Positivity families are closed under subsets;
they are counted per walk state, and listed as the accepted pool-subsets
level by level, in file order, with antitone pruning under a hard cap.
Sentences that a clause adds are looked up in explicit families (a miss
outside the pool is a PoolIncomplete finding) and simply evaluated in the
model otherwise. A member is an int over the
family's interned sentences, bit i the i-th in canonical key order, and so
are the roots, conditions and filters of the forcing side: a condition is a
submask of a member, and p lies below q when p & q == q.
"""
from __future__ import annotations

import functools
import itertools
import operator
from typing import Any, Callable, Iterable, Iterator

from .bvmodel import BValuedModel, CapExceeded, TwoValuedStructure, \
    eval_formula, quotient_truth
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


_FLIP = str.maketrans("01", "10")


def _bit_order(m: int) -> str:
    """The sort key of the `_bits` lists, with no list built: m's bits
    lowest first, a set bit as "0", so it sorts before an unset one."""
    return bin(m)[:1:-1].translate(_FLIP) if m else ""


def enumerate_members(cp: ConsistencyProperty) -> list[int]:
    """Family members: the explicit list, or a positivity family's members
    in file order."""
    return [m for m, _ in _reaches(cp)] if cp.family is None \
        else list(cp.family)


def _steps(cp: ConsistencyProperty) -> Callable[[int, int], list]:
    """The steps of a state of the walk over a positivity family's pool, its
    running meet and next pool position, computed once: (next position, bit,
    meet) for each later pool sentence whose value meets the meet. The
    pruning is exact because the family is closed under subsets."""
    rows = [(i + 1, b, cp.masks[b]) for i, b in enumerate(_bits(cp.pool_mask))]
    return functools.cache(lambda meet, start: [
        (i, b, meet & v) for i, b, v in rows[start:] if meet & v])


def member_count(cp: ConsistencyProperty) -> int:
    """The number of members of a positivity family, none listed: those
    below a state of the walk depend only on the state, so each state is
    counted once. Raises CapExceeded once a count passes MEMBER_CAP."""
    steps = _steps(cp)

    @functools.cache
    def below(meet: int, start: int) -> int:
        n = 1
        for i, _, nxt in steps(meet, start):
            n += below(nxt, i)
        if n > MEMBER_CAP:
            raise CapExceeded(f"oracle family exceeds the member cap "
                              f"({MEMBER_CAP}); shrink the pool")
        return n
    return below(cp.model.algebra.one, 0)


def members_by_level(cp: ConsistencyProperty) -> Iterator[tuple]:
    """The members of a positivity family under the member cap as (bit
    tuple, meet, next pool position) rows, by size and then as tuples, the
    order emit_cp writes: a member of size k extends one of size k-1 by a
    later pool sentence, so extending level k-1 in order, by the pool in
    order, lists level k in order. Only two levels are held at a time."""
    member_count(cp)   # raises over the cap before any member is listed
    steps = _steps(cp)
    level = [((), cp.model.algebra.one, 0)]
    while level:
        yield from level
        level = [(bits + (b,), nxt, i) for bits, meet, start in level
                 for i, b, nxt in steps(meet, start)]


def maximal_members(cp: ConsistencyProperty, root: int = 0) -> list[int]:
    """Inclusion-maximal members extending the root; these are the minimal
    conditions of the forcing poset below the root, in bit order. A
    positivity member is maximal when it holds every pool sentence whose
    value meets its meet. An explicit member is walked from most bits to
    fewest, so every proper superset of it comes first: it is maximal when
    no maximal member kept so far contains it."""
    if cp.family is not None:
        maxes: list[int] = []
        for m in sorted({m for m in cp.family if m & root == root},
                        key=int.bit_count, reverse=True):
            if not any(m & o == m for o in maxes):
                maxes.append(m)
        return sorted(maxes, key=_bit_order)
    pool = [(1 << b, cp.masks[b]) for b in _bits(cp.pool_mask)]
    meeting = functools.cache(lambda meet: sum(b for b, v in pool if v & meet))
    return sorted((m for m, meet in _reaches(cp)
                   if m & root == root and not meeting(meet) & ~m),
                  key=_bit_order)


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


def occurrence_variants(f: Formula, old: str, new: str) -> list[Formula]:
    """Every formula obtained by replacing a nonempty subset of occurrences
    of the constant `old` by the constant `new`, once each, in the product
    order of the walk: an order no string-hash seed moves."""
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

    return [g for g in dict.fromkeys(walk(f)) if g != f]


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


def _fields(clause: str, need: str | list, gap: bool = False,
            **extra) -> dict:
    """The fields of a finding other than its member."""
    return {"clause": clause, **extra,
            "kind": "PoolIncomplete" if gap else "violation",
            "missing" if gap else "needed": need}


def _compiler(cp: ConsistencyProperty) -> Callable[[tuple], list]:
    """Rows compiled against the family into tests (mask, fields): a member
    fails a test, a finding with those fields, when its reach (`_reaches`)
    misses the mask. A positivity candidate is its value mask, evaluated
    only outside the pool; an explicit one is its bit (0 when not
    interned), undecidable outside the pool. An EVERY row tests each
    candidate; a SOME row is one test of the join of its candidates, a
    PoolIncomplete finding naming the sorted keys of the undecidable ones
    when there are any."""
    def candidate(f: Formula) -> tuple:
        b = cp.bit.get(f)
        if cp.family is None:
            return (f.key(), eval_formula(cp.model, f) if b is None
                    else cp.masks[b], False)
        return f.key(), 0 if b is None else 1 << b, not cp.in_pool(f)

    def compile_row(row: tuple) -> list:
        clause, mode, candidates, extra = row
        cands = list(map(candidate, candidates))
        if mode == EVERY:
            return [(c, _fields(clause, k, gap)) for k, c, gap in cands]
        gaps = sorted(k for k, _, gap in cands if gap)
        fields = _fields(clause, gaps, True, **extra) if gaps \
            else {"clause": clause, **extra, "kind": "violation"}
        return [(functools.reduce(operator.or_, [c for _, c, _ in cands], 0),
                 fields)]
    return compile_row


def _reaches(cp: ConsistencyProperty) -> list[tuple[int, int]]:
    """(member, reach) pairs in family order. A positivity member's reach is
    its meet; an explicit member's is the member with every pool sentence
    whose addition is again a member."""
    if cp.family is None:
        return [(sum(1 << b for b in bits), meet)
                for bits, meet, _ in members_by_level(cp)]
    members = enumerate_members(cp)
    reach = {m: m for m in members}
    for m in reach:
        for b in _bits(m & cp.pool_mask):
            if m ^ 1 << b in reach:
                reach[m ^ 1 << b] |= 1 << b
    return [(m, reach[m]) for m in members]


Finding = tuple[dict, tuple]   # (fields, member key)


def findings(cp: ConsistencyProperty, smax: bool = False) \
        -> tuple[int, Iterator[Finding], Iterator[Finding]]:
    """The family size and two walks of its members in family order, each
    yielding its findings as they are found: the clause findings, and with
    `smax` the maximality findings (none without it). A finding is
    (fields, member key), the entry dict(fields, member=key) of check_cp;
    a walk yields one key object per member, and each fields object lives
    as long as the walk. The clause table is compiled once per family, and
    each member's sentences are read in canonical order. The explicit pool
    findings of every member come first."""
    members = _reaches(cp)
    rows, namings = _clauses(cp)
    compile_row = _compiler(cp)
    namings = [t for r in namings for t in compile_row(r)]
    sentences, keys = cp.sentences, [f.key() for f in cp.sentences]

    def key_of(m: int) -> tuple:
        return tuple(map(keys.__getitem__, _bits(m)))

    @functools.cache
    def plan(b: int) -> tuple:
        """Sentence b's Con partner and its finding, compiled tests and
        Str.2 constants."""
        f = sentences[b]
        con = cp.bit.get(f.body) if isinstance(f, Not) else None
        swap = (f.right.name, f.left.name) \
            if _const_eq(f) and f.left != f.right else None
        return (0 if con is None else 1 << con,
                None if con is None else _fields("Con", keys[con]),
                [t for r in rows(f) for t in compile_row(r)], swap)

    @functools.cache
    def substituted(b: int, old: str, new: str) -> list:
        return compile_row(("Str.2", EVERY, occurrence_variants(
            sentences[b], old, new), {}))

    def clauses() -> Iterator[Finding]:
        gap = [_fields("pool", k, True) for k in keys]
        for m in cp.family or ():
            if m & ~cp.pool_mask:
                key = key_of(m)
                for b in _bits(m & ~cp.pool_mask):
                    yield gap[b], key
        for m, reach in members:
            idx = _bits(m)
            key = tuple(map(keys.__getitem__, idx))
            plans = list(map(plan, idx))
            # (Con): no sentence together with its negation
            for con, fields, _, _ in plans:
                if m & con:
                    yield fields, key
            for _, _, own, swap in plans:
                for mask, fields in own:
                    if not reach & mask:
                        yield fields, key
                # (Str.2): substitution into any co-member, any occurrences
                if swap:
                    for p in idx:
                        for mask, fields in substituted(p, *swap):
                            if not reach & mask:
                                yield fields, key
            for mask, fields in namings:
                if not reach & mask:
                    yield fields, key

    def maximality() -> Iterator[Finding]:
        """Every member extends by each pool sentence or by its literal
        negation, a SOME row per pool sentence."""
        tests = [t for f in cp.pool for t in compile_row(
            ("S-Max", SOME, [f, Not(f)], {"sentence": f.key()}))]
        for m, reach in members:
            key = key_of(m)
            for mask, fields in tests:
                if not reach & mask:
                    yield fields, key

    return len(members), clauses(), maximality() if smax else iter(())


def _entries(walk: Iterator[Finding], field: str) -> list[dict]:
    return [{**fields, field: key} for fields, key in walk]


def check_cp(cp: ConsistencyProperty, smax: bool = False,
             entries: Callable[[Iterator[Finding], str], Any] = _entries) \
        -> dict:
    """Check every consistency-property clause on every family member.
    Returns {"ok", "family_size", "violations": [...]}; violation entries
    carry the clause tag, the offending member, and what was required. With
    `smax`, the report also holds the maximality check under "smax", in the
    same form. "ok" then needs both. The entries are the findings of
    `findings`, each its fields with its key under "member"; `entries`
    makes a walk's "violations" from the walk and that field name, by
    default the list of entry dicts. "ok" is read off each walk's first
    finding, so the walks may be taken as they are written."""
    size, found, unmaximal = findings(cp, smax)

    def checked(walk: Iterator[Finding]) -> dict:
        first = next(walk, None)
        if first is not None:
            walk = itertools.chain((first,), walk)
        return {"ok": first is None, "family_size": size,
                "violations": entries(walk, "member")}

    report = checked(found)
    if smax:
        report["smax"] = checked(unmaximal)
        report["ok"] = report["ok"] and report["smax"]["ok"]
    return report


# ---------------------------------------------------------------------------
# families from models

def cp_from_model(model: BValuedModel,
                  pool: Iterable[Formula]) -> ConsistencyProperty:
    """The positivity family of a valid model over the pool: the fresh
    constants are the domain elements naming themselves, and a finite
    sentence set is a member exactly when its conjunction has nonzero
    value. The pool is kept in canonical order, the order a family file
    lists it in."""
    return ConsistencyProperty(
        model.signature, tuple(model.domain),
        tuple(sorted(pool, key=Formula.key)),
        model=model.with_self_named_constants(model.domain))


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
    return sorted(out, key=_bit_order)


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
    of that condition, so its union sigma is the minimum itself. Reports,
    for every emitted dense set, whether it is dense below the root and
    whether the minimum meets it; a dense set whose guard the minimum holds
    is met, as the minimum is one of the maximal members density ranges
    over."""
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
    truth = quotient_truth(term_model.signature)
    args = term_model.truth_args()
    sentences = list(map(cp.sentences.__getitem__, _bits(sigma)))
    failures = [f.key() for f in sentences if not truth(f, *args, {})]
    return {"ok": not failures, "failures": failures,
            "checked": len(sentences)}

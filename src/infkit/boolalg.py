"""Finite posets, finite Boolean algebras, filters, regular-open completions.

Algebras carry an explicit element tuple plus meet/join/complement tables, so
every operation is exact table lookup. Three constructions are provided:
powerset-of-atoms, regular-open completion of a finite poset, and raw
operation tables (accepted for adversarial law checking). Element values are
frozensets (of atom names, or of poset elements) for the first two kinds and
opaque strings for tables.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable


class TrivialAlgebra(Exception):
    """An operation required a nondegenerate algebra (zero != one)."""


class ImproperFilter(Exception):
    """A filter argument is not a proper filter of the algebra."""


# ---------------------------------------------------------------------------
# posets

class FinPoset:
    """Finite poset over hashable elements; `pairs` are (below, above) and the
    constructor takes the reflexive-transitive closure and rejects cycles."""

    def __init__(self, elements: Iterable[Hashable],
                 pairs: Iterable[tuple[Hashable, Hashable]]) -> None:
        self.elements: tuple = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate poset elements")
        idx = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        below = [set() for _ in range(n)]  # below[i] = {j : e_j <= e_i}
        for lo, hi in pairs:
            if lo not in idx or hi not in idx:
                raise ValueError(f"pair ({lo!r}, {hi!r}) uses unknown elements")
            below[idx[hi]].add(idx[lo])
        for i in range(n):
            below[i].add(i)
        changed = True
        while changed:
            changed = False
            for i in range(n):
                extra = set()
                for j in below[i]:
                    extra |= below[j]
                if not extra <= below[i]:
                    below[i] |= extra
                    changed = True
        for i in range(n):
            for j in below[i]:
                if i != j and i in below[j]:
                    raise ValueError(
                        f"antisymmetry violated between "
                        f"{self.elements[i]!r} and {self.elements[j]!r}")
        self._idx = idx
        self._below = below
        els = self.elements
        self._down = {e: frozenset(els[j] for j in below[i])
                      for i, e in enumerate(els)}
        self._up = {e: frozenset(els[j] for j in range(n) if i in below[j])
                    for i, e in enumerate(els)}

    def leq(self, a: Hashable, b: Hashable) -> bool:
        return self._idx[a] in self._below[self._idx[b]]

    def down(self, p: Hashable) -> frozenset:
        """Basic open N_p: everything <= p."""
        return self._down[p]

    def up_closure(self, s: Iterable[Hashable]) -> frozenset:
        return frozenset().union(*(self._up[x] for x in s))

    def minimals(self) -> tuple:
        return tuple(e for e in self.elements
                     if len(self._below[self._idx[e]]) == 1)

    def min_below(self, p: Hashable) -> frozenset:
        return frozenset(m for m in self.minimals() if self.leq(m, p))

    def incompatible(self, a: Hashable, b: Hashable) -> bool:
        """No common lower bound."""
        ia, ib = self._idx[a], self._idx[b]
        return not (self._below[ia] & self._below[ib])

    def leq_pairs(self) -> list[tuple[Hashable, Hashable]]:
        out = []
        for e in self.elements:
            for j in self._below[self._idx[e]]:
                out.append((self.elements[j], e))
        return out


# ---------------------------------------------------------------------------
# algebras

@dataclass(frozen=True, eq=False)
class FinBooleanAlgebra:
    """Finite Boolean algebra given by element list and operation tables."""

    kind: str                       # "powerset" | "ro" | "table"
    elements: tuple
    meet_table: dict
    join_table: dict
    comp_table: dict
    zero: Hashable
    one: Hashable
    meta: dict = field(default_factory=dict)

    def meet(self, a: Hashable, b: Hashable):
        return self.meet_table[(a, b)]

    def join(self, a: Hashable, b: Hashable):
        return self.join_table[(a, b)]

    def comp(self, a: Hashable):
        return self.comp_table[a]

    def leq(self, a: Hashable, b: Hashable) -> bool:
        return self.meet_table[(a, b)] == a

    def sup(self, items: Iterable) -> Hashable:
        out = self.zero
        for x in items:
            out = self.join_table[(out, x)]
        return out

    def inf(self, items: Iterable) -> Hashable:
        out = self.one
        for x in items:
            out = self.meet_table[(out, x)]
        return out

    def atoms(self) -> tuple:
        """Minimal nonzero elements."""
        nz = [x for x in self.elements if x != self.zero]
        return tuple(a for a in nz
                     if all(not (self.leq(b, a) and b != a) for b in nz))

    def nonzero(self) -> tuple:
        return tuple(x for x in self.elements if x != self.zero)


def _tables_from_fns(elements: tuple, meet: Callable, join: Callable,
                     comp: Callable) -> tuple[dict, dict, dict]:
    mt, jt, ct = {}, {}, {}
    for a in elements:
        ct[a] = comp(a)
        for b in elements:
            mt[(a, b)] = meet(a, b)
            jt[(a, b)] = join(a, b)
    return mt, jt, ct


def powerset_algebra(atom_names: Iterable[str]) -> FinBooleanAlgebra:
    return _powerset_algebra(tuple(dict.fromkeys(atom_names)))


@functools.lru_cache(maxsize=16)
def _powerset_algebra(atoms: tuple[str, ...]) -> FinBooleanAlgebra:
    """One shared instance per atom tuple: nothing mutates an algebra."""
    if not atoms:
        raise TrivialAlgebra("powerset algebra needs at least one atom")
    universe = frozenset(atoms)
    elements = tuple(
        frozenset(c)
        for k in range(len(atoms) + 1)
        for c in itertools.combinations(atoms, k)
    )
    mt, jt, ct = _tables_from_fns(
        elements,
        lambda a, b: a & b,
        lambda a, b: a | b,
        lambda a: universe - a,
    )
    return FinBooleanAlgebra("powerset", elements, mt, jt, ct,
                             frozenset(), universe,
                             meta={"atoms": atoms})


def two_valued_algebra() -> FinBooleanAlgebra:
    """The two-element algebra used for crisp/Tarski readings."""
    return powerset_algebra(("t",))


def table_algebra(elements: Iterable[str], meet_rows: list[list[str]],
                  join_rows: list[list[str]], comp_row: list[str],
                  meta: dict | None = None) -> FinBooleanAlgebra:
    """Algebra from explicit tables; zero/one recovered if present, else the
    law checker will report their absence. Intended for adversarial inputs."""
    els = tuple(elements)
    n = len(els)
    if len(meet_rows) != n or len(join_rows) != n or len(comp_row) != n:
        raise ValueError("table dimensions do not match the element count")
    mt, jt, ct = {}, {}, {}
    for i, a in enumerate(els):
        if len(meet_rows[i]) != n or len(join_rows[i]) != n:
            raise ValueError("ragged operation table")
        ct[a] = comp_row[i]
        for j, b in enumerate(els):
            mt[(a, b)] = meet_rows[i][j]
            jt[(a, b)] = join_rows[i][j]
    known = set(els)
    for v in itertools.chain(mt.values(), jt.values(), ct.values()):
        if v not in known:
            raise ValueError(f"table produces unknown element {v!r}")
    zero = next((z for z in els if all(jt[(z, x)] == x for x in els)), els[0])
    one = next((o for o in els if all(mt[(o, x)] == x for x in els)), els[-1])
    return FinBooleanAlgebra("table", els, mt, jt, ct, zero, one,
                             meta=dict(meta or {}))


# ---------------------------------------------------------------------------
# regular-open completion

def regular_open_sets_bruteforce(poset: FinPoset) -> set[frozenset]:
    """All A with A = int(cl(A)), enumerating every subset. Opens are the
    downward-closed sets; cl is up-closure; int(B) = {q : N_q subset of B}.
    Exponential; used as the oracle for small posets."""
    els = poset.elements
    out = set()
    for k in range(len(els) + 1):
        for combo in itertools.combinations(els, k):
            a = frozenset(combo)
            if _reg(poset, a) == a:
                out.add(a)
    return out


def _interior(poset: FinPoset, b: frozenset) -> frozenset:
    return frozenset(q for q in poset.elements if poset.down(q) <= b)


def _reg(poset: FinPoset, a: frozenset) -> frozenset:
    return _interior(poset, poset.up_closure(a))


def ro_completion(poset: FinPoset) -> tuple[FinBooleanAlgebra, dict]:
    """Regular-open completion of a finite poset.

    Elements are the regular-open subsets; for a finite poset these are
    exactly the sets {q : every minimal element below q lies in S} for
    S ranging over subsets of the minimal elements, which keeps the carrier
    at 2^#minimals. Joins are Reg(union), never plain unions. Returns the
    algebra and the embedding p -> Reg(N_p), which is verified on output to
    be order- and incompatibility-preserving (both directions) with dense
    image.
    """
    if not poset.elements:
        raise TrivialAlgebra("regular-open completion of the empty poset")
    mins = tuple(sorted(poset.minimals(), key=repr))
    minset = frozenset(mins)
    min_below = {q: poset.min_below(q) for q in poset.elements}

    def of_minset(s: frozenset) -> frozenset:
        return frozenset(q for q in poset.elements if min_below[q] <= s)

    carrier = {}
    for k in range(len(mins) + 1):
        for combo in itertools.combinations(mins, k):
            s = frozenset(combo)
            carrier[s] = of_minset(s)
    def _skey(s: frozenset) -> tuple:
        return (len(s), tuple(sorted(repr(x) for x in s)))

    elements = tuple(carrier[s] for s in sorted(carrier, key=_skey))
    to_min = {a: a & minset for a in elements}
    mt, jt, ct = _tables_from_fns(
        elements,
        lambda a, b: carrier[to_min[a] & to_min[b]],
        lambda a, b: carrier[to_min[a] | to_min[b]],
        lambda a: carrier[minset - to_min[a]],
    )
    alg = FinBooleanAlgebra("ro", elements, mt, jt, ct,
                            carrier[frozenset()], carrier[minset],
                            meta={"poset": poset})
    embedding = {p: carrier[min_below[p]] for p in poset.elements}

    for p in poset.elements:
        for q in poset.elements:
            if poset.leq(p, q) and not alg.leq(embedding[p], embedding[q]):
                raise RuntimeError("embedding failed order preservation")
            incompat = poset.incompatible(p, q)
            disjoint = alg.meet(embedding[p], embedding[q]) == alg.zero
            if incompat != disjoint:
                raise RuntimeError("embedding failed incompatibility preservation")
    image = set(embedding.values())
    for a in elements:
        if a == alg.zero:
            continue
        if not any(alg.leq(e, a) for e in image if e != alg.zero):
            raise RuntimeError("embedding image is not dense")
    return alg, embedding


# ---------------------------------------------------------------------------
# law checking

_LAW_NAMES = (
    "meet_commutative", "join_commutative", "meet_associative",
    "join_associative", "absorption_meet", "absorption_join",
    "meet_idempotent", "join_idempotent", "zero_identity", "one_identity",
    "distributes_meet_over_join", "distributes_join_over_meet",
    "complement_meet", "complement_join", "nontrivial",
)


def check_algebra(alg: FinBooleanAlgebra) -> dict:
    """Exhaustively check the Boolean algebra laws. Returns
    {"ok": bool, "violations": [{"law", "args"}...]} listing every violated
    instance."""
    els = list(alg.elements)
    n = len(els)
    idx = {e: i for i, e in enumerate(els)}
    meet = [[idx[alg.meet_table[(a, b)]] for b in els] for a in els]
    join = [[idx[alg.join_table[(a, b)]] for b in els] for a in els]
    comp = [idx[alg.comp_table[a]] for a in els]
    zero, one = idx[alg.zero], idx[alg.one]
    violations: list[dict] = []

    def bad(law: str, *args: int) -> None:
        violations.append({"law": law, "args": [els[i] for i in args]})

    if zero == one:
        violations.append({"law": "nontrivial", "args": []})
    # rows as bytes, so that row.translate(tab[i]) maps each entry x to
    # op(i, x): the ternary laws compare whole rows, and the per-k loop
    # only runs to name the violations
    rows = n <= 256
    if rows:
        mrow, jrow = [bytes(r) for r in meet], [bytes(r) for r in join]
        mtab = [r.ljust(256, b"\0") for r in mrow]
        jtab = [r.ljust(256, b"\0") for r in jrow]
    rng = range(n)
    for i in rng:
        if meet[i][i] != i:
            bad("meet_idempotent", i)
        if join[i][i] != i:
            bad("join_idempotent", i)
        if join[zero][i] != i or meet[zero][i] != zero:
            bad("zero_identity", i)
        if meet[one][i] != i or join[one][i] != one:
            bad("one_identity", i)
        if meet[i][comp[i]] != zero:
            bad("complement_meet", i)
        if join[i][comp[i]] != one:
            bad("complement_join", i)
        for j in rng:
            if meet[i][j] != meet[j][i]:
                bad("meet_commutative", i, j)
            if join[i][j] != join[j][i]:
                bad("join_commutative", i, j)
            if meet[i][join[i][j]] != i:
                bad("absorption_meet", i, j)
            if join[i][meet[i][j]] != i:
                bad("absorption_join", i, j)
            mij, jij = meet[i][j], join[i][j]
            if rows and mrow[mij] == mrow[j].translate(mtab[i]) \
                    and jrow[jij] == jrow[j].translate(jtab[i]) \
                    and jrow[j].translate(mtab[i]) \
                    == mrow[i].translate(jtab[mij]) \
                    and mrow[j].translate(jtab[i]) \
                    == jrow[i].translate(mtab[jij]):
                continue
            for k in rng:
                if meet[mij][k] != meet[i][meet[j][k]]:
                    bad("meet_associative", i, j, k)
                if join[jij][k] != join[i][join[j][k]]:
                    bad("join_associative", i, j, k)
                if meet[i][join[j][k]] != join[meet[i][j]][meet[i][k]]:
                    bad("distributes_meet_over_join", i, j, k)
                if join[i][meet[j][k]] != meet[join[i][j]][join[i][k]]:
                    bad("distributes_join_over_meet", i, j, k)
    return {"ok": not violations, "violations": violations}


# ---------------------------------------------------------------------------
# filters

def is_filter(alg: FinBooleanAlgebra, members: frozenset) -> bool:
    if not members or not members <= set(alg.elements):
        return False
    if alg.zero in members:
        return False
    for a in members:
        for b in members:
            if alg.meet(a, b) not in members:
                return False
        for b in alg.elements:
            if alg.leq(a, b) and b not in members:
                return False
    return True


def is_ultrafilter(alg: FinBooleanAlgebra, members: frozenset) -> bool:
    if not is_filter(alg, members):
        return False
    return all(b in members or alg.comp(b) in members for b in alg.elements)


def principal_filter(alg: FinBooleanAlgebra, generator: Hashable) -> frozenset:
    if generator == alg.zero:
        raise ImproperFilter("the zero element generates no proper filter")
    return frozenset(b for b in alg.elements if alg.leq(generator, b))


def enumerate_ultrafilters(alg: FinBooleanAlgebra) -> list[frozenset]:
    """On a finite algebra every ultrafilter is principal at an atom."""
    return [principal_filter(alg, a)
            for a in sorted(alg.atoms(), key=repr)]


def is_dense_subset(alg: FinBooleanAlgebra, dense: Iterable) -> bool:
    """Every nonzero element bounds some nonzero member of `dense` below it."""
    ds = [d for d in dense if d != alg.zero]
    return all(any(alg.leq(d, b) for d in ds) for b in alg.nonzero())

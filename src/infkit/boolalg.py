"""Finite posets, finite Boolean algebras, filters, regular-open completions.

A finite Boolean algebra is the powerset of its atoms (the finite case of
Stone representation), so every element is an int mask over the atoms: meet
is &, join is |, complement is ^ one. Three constructions are provided:
powerset-of-atoms, regular-open completion of a finite poset (masks over its
minimal elements), and raw operation tables, accepted when they are
isomorphic to the powerset of their atoms. So the Boolean laws hold for
every algebra by construction, and only raw tables are ever scanned for
them, to name the law a refused table breaks. Each algebra keeps one label
per element for the wire format and reports: the frozenset of atom names,
the regular-open set, or the table's name for it.
"""
from __future__ import annotations

import functools
import itertools
import operator
from typing import Hashable, Iterable, Iterator

from .record import Record


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
        below = [1 << i for i in range(n)]  # bit j of below[i]: e_j <= e_i
        for lo, hi in pairs:
            if lo not in idx or hi not in idx:
                raise ValueError(f"pair ({lo!r}, {hi!r}) uses unknown elements")
            below[idx[hi]] |= 1 << idx[lo]
        for k in range(n):          # Warshall's closure, one row OR per step
            for i in range(n):
                if below[i] >> k & 1:
                    below[i] |= below[k]
        els = self.elements
        for i, j in itertools.product(range(n), repeat=2):
            if i != j and below[i] >> j & below[j] >> i & 1:
                raise ValueError(f"antisymmetry violated between "
                                 f"{els[i]!r} and {els[j]!r}")
        self._down = {e: frozenset(els[j] for j in range(n)  # N_e: all <= e
                                   if below[i] >> j & 1)
                      for i, e in enumerate(els)}

    def minimals(self) -> tuple:
        return tuple(e for e in self.elements if len(self._down[e]) == 1)

    def min_below(self, p: Hashable) -> frozenset:
        """The minimal elements below p: those of its down-set whose own
        down-set is a singleton."""
        return frozenset(m for m in self._down[p] if len(self._down[m]) == 1)

    def leq_pairs(self) -> list[tuple[Hashable, Hashable]]:
        return [(lo, e) for e in self.elements for lo in self._down[e]]


# ---------------------------------------------------------------------------
# algebras

class FinBooleanAlgebra(Record):
    """Finite Boolean algebra on int masks over its atoms: element x is the
    join of the atoms whose bits it sets, and `labels[x]` is its label.
    `elements` holds every mask once, in the order of the source: by size
    and then lexicographically over the atoms, or in table order. `masks`
    maps each label back to its element."""

    _fields = ("kind", "elements", "labels", "meta", "one")
    zero = 0

    def __init__(self, kind: str,   # powerset | ro | table | conditions
                 elements: tuple[int, ...], labels: tuple,
                 meta: dict | None = None) -> None:
        self.__dict__.update(
            kind=kind, elements=elements, labels=labels, meta=meta or {},
            one=len(labels) - 1,
            masks={lab: x for x, lab in enumerate(labels)})

    def meet(self, a: int, b: int) -> int:
        return a & b

    def join(self, a: int, b: int) -> int:
        return a | b

    def comp(self, a: int) -> int:
        return a ^ self.one

    def leq(self, a: int, b: int) -> bool:
        return not a & ~b

    def sup(self, items: Iterable[int]) -> int:
        return functools.reduce(operator.or_, items, 0)

    def inf(self, items: Iterable[int]) -> int:
        return functools.reduce(operator.and_, items, self.one)

    def atoms(self) -> tuple:
        """Minimal nonzero elements: the masks with one bit."""
        return tuple(x for x in self.elements if x and not x & (x - 1))

    def is_element(self, x) -> bool:
        return type(x) is int and 0 <= x <= self.one


def _by_size(n: int) -> tuple[int, ...]:
    """Every mask over n bits, by size and then in the order of
    itertools.combinations."""
    return tuple(sum(1 << i for i in c) for k in range(n + 1)
                 for c in itertools.combinations(range(n), k))


def powerset_algebra(atom_names: Iterable[str]) -> FinBooleanAlgebra:
    return _powerset_algebra(tuple(dict.fromkeys(atom_names)))


@functools.lru_cache(maxsize=16)
def _powerset_algebra(atoms: tuple[str, ...]) -> FinBooleanAlgebra:
    """One shared instance per atom tuple: nothing mutates an algebra. Bit i
    is atoms[i]; an element's label is the frozenset of its atoms."""
    if not atoms:
        raise TrivialAlgebra("powerset algebra needs at least one atom")
    labels = tuple(frozenset(a for i, a in enumerate(atoms) if x >> i & 1)
                   for x in range(1 << len(atoms)))
    return FinBooleanAlgebra("powerset", _by_size(len(atoms)), labels,
                             meta={"atoms": atoms})


def two_valued_algebra() -> FinBooleanAlgebra:
    """The two-element algebra used for crisp/Tarski readings."""
    return powerset_algebra(("t",))


def table_algebra(elements: Iterable[str], meet_rows: list[list[str]],
                  join_rows: list[list[str]],
                  comp_row: list[str]) -> FinBooleanAlgebra:
    """Algebra from explicit tables over named elements. Each element becomes
    the mask of the atoms below it (atoms in table order) and keeps its name
    as its label. The tables are Boolean iff that map is a bijection onto
    the masks over k >= 1 atoms under which meet, join and comp are &, |
    and ^ one, which takes O(n^2) to check; when it is not, raises
    ValueError naming the first law that check_tables finds violated, with
    no scan when only comp is wrong and so no lattice law fails."""
    els, meet, join, comp = _indexed(elements, meet_rows, join_rows, comp_row)
    zero = meet[0][comp[0]]
    atoms = [i for i, row in enumerate(meet)
             if i != zero and all(m == zero or m == i for m in row)]
    masks = [sum(1 << k for k, a in enumerate(atoms) if meet[a][i] == a)
             for i in range(len(els))]
    at = {x: i for i, x in enumerate(masks)}
    one = len(els) - 1
    if not (atoms and len(at) == len(els) == 1 << len(atoms) and all(
            meet[i] == [at[x & y] for y in masks]
            and join[i] == [at[x | y] for y in masks]
            for i, x in enumerate(masks))):
        violation = next(check_tables(els, meet_rows, join_rows, comp_row))
        law, args = violation["law"], violation["args"]
    elif (i := next((i for i, x in enumerate(masks)
                     if comp[i] != at[x ^ one]), None)) is None:
        labels = [None] * len(els)
        for name, x in zip(els, masks):
            labels[x] = name
        return FinBooleanAlgebra("table", tuple(masks), tuple(labels))
    else:
        law = "complement_" + ("meet" if meet[i][comp[i]] != zero else "join")
        args = [els[i]]
    where = f" at {', '.join(map(str, args))}" if args else ""
    raise ValueError(f"not a Boolean algebra: {law} fails{where}")


# ---------------------------------------------------------------------------
# regular-open completion

def regular_open_sets_bruteforce(poset: FinPoset) -> set[frozenset]:
    """All A with A = int(cl(A)), cl the up-closure and int(B) = {q : N_q
    subset of B} = ~up(~B), over every subset as a mask of the elements:
    Reg(A) = ~up(~up(A)), up one lookup per half. Exponential; the oracle."""
    els = poset.elements
    n, half = len(els), len(els) // 2
    low, high = [0], [0]
    for table, part in ((low, els[:half]), (high, els[half:])):
        for p in part:   # the subsets holding p: those before it, or up(p)
            up = sum(1 << j for j, e in enumerate(els) if p in poset._down[e])
            table += [x | up for x in table]
    full, cut = (1 << n) - 1, (1 << half) - 1
    out = set()
    for a in range(1 << n):
        b = full ^ (low[a & cut] | high[a >> half])
        if full ^ (low[b & cut] | high[b >> half]) == a:
            out.add(frozenset(e for i, e in enumerate(els) if a >> i & 1))
    return out


def ro_completion(poset: FinPoset) -> tuple[FinBooleanAlgebra, dict]:
    """Regular-open completion of a finite poset.

    Elements are the regular-open subsets; for a finite poset these are
    exactly the sets {q : every minimal element below q lies in S} for
    S ranging over subsets of the minimal elements, so the completion is the
    powerset of the minimal elements: an element is the mask of S (minimal
    elements in repr order) and its label is the regular-open set. Joins are
    Reg(union), never plain unions. Returns the algebra and the embedding
    p -> Reg(N_p), the mask of min_below(p). On a finite poset it preserves
    order and incompatibility (both directions) and has dense image with no
    check needed: p <= q gives min_below(p) <= min_below(q), p and q are
    compatible iff some minimal element lies below both, and each minimal
    element maps to its own atom.
    """
    if not poset.elements:
        raise TrivialAlgebra("regular-open completion of the empty poset")
    mins = sorted(poset.minimals(), key=repr)
    bit = {m: 1 << i for i, m in enumerate(mins)}
    embedding = {q: sum(bit[m] for m in poset.min_below(q))
                 for q in poset.elements}
    labels = tuple(frozenset(q for q, s in embedding.items() if not s & ~x)
                   for x in range(1 << len(mins)))
    alg = FinBooleanAlgebra("ro", _by_size(len(mins)), labels,
                            meta={"poset": poset})
    return alg, embedding


# ---------------------------------------------------------------------------
# law checking

def _indexed(elements: Iterable[str], meet_rows: list[list[str]],
             join_rows: list[list[str]], comp_row: list[str]) -> tuple:
    """The elements and the tables as element indices. Raises ValueError on
    tables of the wrong shape or naming unknown elements."""
    els = tuple(elements)
    n = len(els)
    if not n:
        raise ValueError("a table algebra needs at least one element")
    if len(meet_rows) != n or len(join_rows) != n or len(comp_row) != n:
        raise ValueError("table dimensions do not match the element count")
    if any(len(meet_rows[i]) != n or len(join_rows[i]) != n
           for i in range(n)):
        raise ValueError("ragged operation table")
    idx = {e: i for i, e in enumerate(els)}
    if len(idx) != n:
        raise ValueError("duplicate table elements")
    for v in itertools.chain(*meet_rows, *join_rows, comp_row):
        if v not in idx:
            raise ValueError(f"table produces unknown element {v!r}")
    return (els, [[idx[v] for v in row] for row in meet_rows],
            [[idx[v] for v in row] for row in join_rows],
            [idx[v] for v in comp_row])


def check_tables(elements: Iterable[str], meet_rows: list[list[str]],
                 join_rows: list[list[str]],
                 comp_row: list[str]) -> Iterator[dict]:
    """Exhaustively check the Boolean algebra laws on operation tables over
    named elements, with zero and one the join and meet identities (the
    first and last element when there is none). Yields each violated
    instance as {"law", "args"}, by element and then by law, so the first
    one costs only the scan up to it: a ternary law is checked k by k only
    at the (i, j) where two rows disagree, such as meet[meet[i][j]] and
    meet[i] read at meet[j]. Raises ValueError, on the first step, on
    tables of the wrong shape."""
    els, meet, join, comp = _indexed(elements, meet_rows, join_rows,
                                     comp_row)
    rng = range(len(els))
    zero = next((z for z in rng if all(join[z][x] == x for x in rng)), 0)
    one = next((o for o in rng if all(meet[o][x] == x for x in rng)),
               len(els) - 1)

    def bad(law: str, *args: int) -> dict:
        return {"law": law, "args": [els[i] for i in args]}

    # at_m[j](r) reads row r at meet[j] (one element: no tuple, so k loop)
    mt, jt = [tuple(row) for row in meet], [tuple(row) for row in join]
    at_m, at_j = ([operator.itemgetter(*row) for row in t] for t in (mt, jt))
    if zero == one:
        yield bad("nontrivial")
    for i in rng:
        if meet[i][i] != i:
            yield bad("meet_idempotent", i)
        if join[i][i] != i:
            yield bad("join_idempotent", i)
        if join[zero][i] != i or meet[zero][i] != zero:
            yield bad("zero_identity", i)
        if meet[one][i] != i or join[one][i] != one:
            yield bad("one_identity", i)
        if meet[i][comp[i]] != zero:
            yield bad("complement_meet", i)
        if join[i][comp[i]] != one:
            yield bad("complement_join", i)
        mi, ji = mt[i], jt[i]
        for j, mij, jij in zip(rng, mi, ji):
            if mij != meet[j][i]:
                yield bad("meet_commutative", i, j)
            if jij != join[j][i]:
                yield bad("join_commutative", i, j)
            if mi[jij] != i:
                yield bad("absorption_meet", i, j)
            if ji[mij] != i:
                yield bad("absorption_join", i, j)
            if (mt[mij], jt[jij], at_m[i](jt[mij]), at_j[i](mt[jij])) \
                    == (at_m[j](mi), at_j[j](ji), at_j[j](mi), at_m[j](ji)):
                continue
            for k in rng:
                if meet[mij][k] != meet[i][meet[j][k]]:
                    yield bad("meet_associative", i, j, k)
                if join[jij][k] != join[i][join[j][k]]:
                    yield bad("join_associative", i, j, k)
                if meet[i][join[j][k]] != join[meet[i][j]][meet[i][k]]:
                    yield bad("distributes_meet_over_join", i, j, k)
                if join[i][meet[j][k]] != meet[join[i][j]][join[i][k]]:
                    yield bad("distributes_join_over_meet", i, j, k)


# ---------------------------------------------------------------------------
# filters

def is_filter(alg: FinBooleanAlgebra, members: frozenset) -> bool:
    if not members or not all(alg.is_element(x) for x in members):
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


def principal_filter(alg: FinBooleanAlgebra, generator: int) -> frozenset:
    if generator == alg.zero:
        raise ImproperFilter("the zero element generates no proper filter")
    return frozenset(b for b in alg.elements if alg.leq(generator, b))


def enumerate_ultrafilters(alg: FinBooleanAlgebra) -> list[frozenset]:
    """On a finite algebra every ultrafilter is principal at an atom."""
    return [principal_filter(alg, a)
            for a in sorted(alg.atoms(), key=lambda a: repr(alg.labels[a]))]


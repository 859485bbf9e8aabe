"""Boolean-valued models: validity axioms, evaluation, mixing, fullness, and
bounded exhaustive satisfiability search.

A model assigns every pair of domain elements an algebra value for equality
and every relation tuple a value, subject to the equality axioms (reflexivity
at one, symmetry, the triangle inequality) and the substitution inequality
for relations. Evaluation maps negation to complement, conjunction to inf,
disjunction to sup, and quantifiers to inf/sup over domain tuples.
"""
from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING, Iterable

from .boolalg import FinBooleanAlgebra, powerset_algebra
from .record import Record, Value
from .syntax import (
    And, Atom, Eq, Exists, Forall, Formula, Not, Or, Signature, Term, Var,
    subformulas,
)

if TYPE_CHECKING:   # the seeded draws load random where they run
    import random


class UnboundVariable(Exception):
    """A free variable had no assignment during evaluation."""


class ShapeError(Exception):
    """An operation was applied to a formula of the wrong shape."""


class CapExceeded(Exception):
    """A search or enumeration outgrew one of its caps: an input error."""


STRUCTURE_CAP = 100_000


class BValuedModel(Record):
    def __init__(self, signature: Signature, algebra: FinBooleanAlgebra,
                 domain: tuple[str, ...],
                 eq: dict | None = None,          # (m, n) -> mask
                 relations: dict | None = None,   # rel -> {args -> mask}
                 constants: dict | None = None,   # const name -> member
                 ) -> None:
        self.__dict__.update(signature=signature, algebra=algebra,
                             domain=domain, eq=eq or {},
                             relations=relations or {},
                             constants=constants or {})
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(set(self.domain)) != len(self.domain):
            raise ValueError("duplicate domain elements")
        if not self.domain:
            raise ValueError("domain must be nonempty")
        alg = self.algebra
        eq = dict(self.eq)
        for m in self.domain:
            for n in self.domain:
                if (m, n) not in eq:
                    eq[(m, n)] = alg.one if m == n else alg.zero
                if not alg.is_element(eq[(m, n)]):
                    raise ValueError(f"eq value for {(m, n)} not in the algebra")
        for (m, n) in eq:
            if m not in self.domain or n not in self.domain:
                raise ValueError(f"eq entry {(m, n)} outside the domain")
        self.__dict__["eq"] = eq
        rels = {}
        declared = dict(self.signature.relations)
        for rel, table in self.relations.items():
            if rel not in declared:
                raise ValueError(f"undeclared relation {rel!r}")
            for args, v in table.items():
                if len(args) != declared[rel]:
                    raise ValueError(f"bad tuple length for {rel}: {args}")
                if any(a not in self.domain for a in args):
                    raise ValueError(f"tuple {args} outside the domain")
                if not alg.is_element(v):
                    raise ValueError(f"value for {rel}{args} not in the algebra")
            rels[rel] = dict(table)
        for rel, arity in declared.items():
            table = rels.setdefault(rel, {})
            for args in itertools.product(self.domain, repeat=arity):
                table.setdefault(args, alg.zero)
        self.__dict__["relations"] = rels
        consts = dict(self.constants)
        for c in self.signature.constants:
            if c not in consts:
                raise ValueError(f"constant {c!r} has no interpretation")
        for c, m in consts.items():
            if c not in self.signature.constants:
                raise ValueError(f"undeclared constant {c!r}")
            if m not in self.domain:
                raise ValueError(f"constant {c!r} interpreted outside the domain")
        self.__dict__["constants"] = consts

    def with_self_named_constants(self, names: Iterable[str]) -> BValuedModel:
        """Extend the signature with constants that name domain elements
        (each name must be a domain element and not already a constant)."""
        names = tuple(names)
        for m in names:
            if m not in self.domain:
                raise ValueError(f"{m!r} is not a domain element")
        sig = self.signature.with_constants(names)
        consts = dict(self.constants)
        consts.update({m: m for m in names})
        return BValuedModel(sig, self.algebra, self.domain, self.eq,
                            self.relations, consts)


class TwoValuedStructure(Value):
    """A crisp structure on class representatives: the quotient of a model
    by an ultrafilter, or the term structure realized by a generic filter."""

    def __init__(self, signature: Signature, classes: tuple[frozenset, ...],
                 reps: tuple[str, ...],       # least member of each class
                 relations: dict,             # rel -> frozenset of rep tuples
                 constants: dict) -> None:    # const -> rep
        self.__dict__.update(signature=signature, classes=classes, reps=reps,
                             relations=relations, constants=constants)

    def truth_args(self) -> tuple[int, tuple, tuple]:
        """`(n, tables, named)`, the arguments of `quotient_truth`: class k
        is the k-th rep."""
        index = {rep: k for k, rep in enumerate(self.reps)}
        tables = tuple(frozenset(tuple(index[a] for a in args)
                                 for args in self.relations[rel])
                       for rel, _ in self.signature.relations)
        return len(self.reps), tables, tuple(
            index[self.constants[c]] for c in self.signature.constants)

    def to_two_valued_model(self) -> BValuedModel:
        """The one-atom model (atom `t`) whose domain is the reps."""
        n, tables, _ = self.truth_args()
        return assemble_model(self.signature, ("t",), self.reps,
                              ((tuple(range(n)), tables),), self.constants)


def term_value(model: BValuedModel, t: Term, assignment: dict[str, str]) -> str:
    if isinstance(t, Var):
        if t.name not in assignment:
            raise UnboundVariable(f"no assignment for variable {t.name}")
        return assignment[t.name]
    if t.name not in model.constants:
        raise ValueError(f"constant {t.name!r} has no interpretation")
    return model.constants[t.name]


def eval_formula(model: BValuedModel, f: Formula,
                 assignment: dict[str, str] | None = None):
    """Inductive Boolean value of f under the assignment."""
    alg = model.algebra
    a = assignment or {}

    def ev(g: Formula, env: dict[str, str]):
        if isinstance(g, Atom):
            args = tuple(term_value(model, t, env) for t in g.args)
            return model.relations[g.rel][args]
        if isinstance(g, Eq):
            return model.eq[term_value(model, g.left, env),
                            term_value(model, g.right, env)]
        if isinstance(g, Not):
            return alg.comp(ev(g.body, env))
        if isinstance(g, And):
            return alg.inf(ev(c, env) for c in g.children)
        if isinstance(g, Or):
            return alg.sup(ev(c, env) for c in g.children)
        if isinstance(g, (Forall, Exists)):
            vals = []
            for tup in itertools.product(model.domain, repeat=len(g.vars)):
                env2 = dict(env)
                env2.update(zip(g.vars, tup))
                vals.append(ev(g.body, env2))
            return alg.inf(vals) if isinstance(g, Forall) else alg.sup(vals)
        raise ValueError(f"not a formula node: {g!r}")

    return ev(f, dict(a))


def quotient_truth(signature: Signature):
    """Two-valued truth on a quotient's own data, with no model built:
    `truth(f, n, tables, named, env)` decides f on the classes 0..n-1, with
    `tables` one set of class tuples per relation of the signature and
    `named` the class of each constant, both in signature order, and `env`
    the class of each free variable. Equality is equality of classes. In a
    model over a powerset algebra, an atom lies below f's value iff f is
    true in that atom's quotient."""
    rel_index = {rel: i for i, (rel, _) in enumerate(signature.relations)}
    const_index = {c: i for i, c in enumerate(signature.constants)}

    def truth(g: Formula, n: int, tables: tuple, named: tuple,
              env: dict) -> bool:
        def term(t: Term) -> int:
            return env[t.name] if isinstance(t, Var) \
                else named[const_index[t.name]]

        if isinstance(g, Atom):
            return tuple(map(term, g.args)) in tables[rel_index[g.rel]]
        if isinstance(g, Eq):
            return term(g.left) == term(g.right)
        if isinstance(g, Not):
            return not truth(g.body, n, tables, named, env)
        if isinstance(g, And):
            return all(truth(c, n, tables, named, env) for c in g.children)
        if isinstance(g, Or):
            return any(truth(c, n, tables, named, env) for c in g.children)
        if isinstance(g, (Forall, Exists)):
            found = (truth(g.body, n, tables, named, {**env, **dict(zip(
                         g.vars, tup))})
                     for tup in itertools.product(range(n),
                                                  repeat=len(g.vars)))
            return all(found) if isinstance(g, Forall) else any(found)
        raise ValueError(f"not a formula node: {g!r}")

    return truth


# ---------------------------------------------------------------------------
# validity

def check_model(model: BValuedModel) -> dict:
    """Equality axioms and the substitution inequality, in the order of the
    exhaustive loops but skipping each case whose left side is 0: no
    triangle after [m = n] = 0, and each new tuple grows in domain order
    carrying R(old) & [old = new so far], dropped once that is 0. Returns
    {"ok": bool, "violations": [...]}."""
    dom, eq = model.domain, model.eq
    violations: list[dict] = []

    for m in dom:
        if eq[m, m] != model.algebra.one:
            violations.append({"axiom": "reflexivity", "args": [m]})
        for n in dom:
            mn = eq[m, n]
            if mn != eq[n, m]:
                violations.append({"axiom": "symmetry", "args": [m, n]})
            if mn:
                violations.extend({"axiom": "triangle", "args": [m, n, p]}
                                  for p in dom if mn & eq[n, p] & ~eq[m, p])

    rows = {a: [(x, eq[a, x]) for x in dom] for a in dom}
    for rel, arity in model.signature.relations:
        table = model.relations[rel]
        for told in itertools.product(dom, repeat=arity):
            grown = [((), table[told])]
            for a in told:
                grown = [(new + (x,), both) for new, mask in grown
                         for x, agree in rows[a] if (both := mask & agree)]
            violations.extend({"axiom": "substitution", "relation": rel,
                               "args": [list(told), list(tnew)]}
                              for tnew, mask in grown if mask & ~table[tnew])
    return {"ok": not violations, "violations": violations}


# ---------------------------------------------------------------------------
# mixing and fullness

def _canonical_key(x) -> str | tuple:
    """Sort key for element labels that does not depend on the string-hash
    seed: a frozenset becomes the sorted keys of its members."""
    if isinstance(x, frozenset):
        return tuple(sorted(_canonical_key(m) for m in x))
    return repr(x)


def _by_label(alg: FinBooleanAlgebra, elements) -> list:
    elements = list(elements)
    if len(elements) < 2:
        return elements
    return sorted(elements, key=lambda x: _canonical_key(alg.label(x)))


def check_mixing(model: BValuedModel) -> dict:
    """Decide the mixing property through atom refinement: the model mixes
    iff for every function g from atoms to the domain some element tau has
    atom <= [tau = g(atom)] for every atom. On failure the atoms form the
    reported antichain (as labels) with the first such g in product order:
    `gap(k, alive)` is the first targets for atoms k... that no tau in the
    bit set `alive` mixes; a valid model has at most |domain| + 1 per k."""
    alg, dom, eq = model.algebra, model.domain, model.eq
    atoms = _by_label(alg, alg.atoms())
    near = [[sum(1 << i for i, tau in enumerate(dom) if atom & eq[tau, t])
             for t in dom] for atom in atoms]     # near[k][t]: tau bits

    @functools.cache
    def gap(k: int, alive: int) -> tuple | None:
        if k == len(atoms):
            return None if alive else ()
        for t, mixed in zip(dom, near[k]):
            if (rest := gap(k + 1, alive & mixed)) is not None:
                return (t,) + rest
        return None

    if (targets := gap(0, (1 << len(dom)) - 1)) is None:
        return {"mixing": True}
    return {"mixing": False, "antichain": [alg.label(a) for a in atoms],
            "targets": list(targets)}


def check_full(model: BValuedModel, f: Formula,
               assignment: dict[str, str] | None = None) -> dict:
    """Whether the sup defining an existential value is attained by a single
    witness tuple."""
    if not isinstance(f, Exists):
        raise ShapeError("fullness applies to an existential formula")
    alg = model.algebra
    env = dict(assignment or {})
    target = eval_formula(model, f, env)
    best = alg.zero
    for tup in itertools.product(model.domain, repeat=len(f.vars)):
        env2 = dict(env)
        env2.update(zip(f.vars, tup))
        v = eval_formula(model, f.body, env2)
        if v == target:
            return {"full": True, "witness": list(tup), "value": target}
        best = alg.join(best, v)
    return {"full": False, "value": target, "sup_of_values": best}


def check_full_everywhere(model: BValuedModel, f: Formula) -> dict:
    """check_full for every existential subformula of f under every
    assignment of its free variables; the fullness precondition used by the
    quotient theorem."""
    failures = []
    for g in [g for g in subformulas(f) if isinstance(g, Exists)]:
        fv = sorted(g.free_vars())
        for tup in itertools.product(model.domain, repeat=len(fv)):
            r = check_full(model, g, dict(zip(fv, tup)))
            if not r["full"]:
                failures.append({"existential": g.key(), "assignment": list(tup)})
    return {"ok": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# bounded satisfiability search

def _growth_counts(n: int) -> tuple[tuple[int, ...], ...]:
    """counts[k][u], for k + u up to at least n: the ways to end a
    restricted-growth string with k more items once u classes are in use;
    counts[n][0] is the Bell number of n. The counts do not depend on n, so
    one table serves every n up to the next power of two."""
    return _growth_table(1 << n.bit_length())


@functools.cache
def _growth_table(size: int) -> tuple[tuple[int, ...], ...]:
    rows = [(1,) * (size + 1)]
    for k in range(1, size + 1):
        rows.append(tuple(u * rows[-1][u] + rows[-1][u + 1]
                          for u in range(size + 1 - k)))
    return tuple(rows)


@functools.lru_cache(maxsize=4096)
def _unrank_partition(n: int, rank: int) -> tuple[int, ...]:
    """The restricted-growth string (the canonical encoding of a set
    partition of n items) of the given rank in lexicographic order, found
    without listing the strings before it."""
    counts, out, used = _growth_counts(n), [], 0
    for k in range(n - 1, -1, -1):
        each = counts[k][used]      # ways to end after an old class
        if rank < used * each:
            c, rank = divmod(rank, each)
        else:
            c, rank, used = used, rank - used * each, used + 1
        out.append(c)
    return tuple(out)


@functools.cache
def _partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """Every restricted-growth string of n items, lexicographic order."""
    return tuple(_unrank_partition(n, r) for r in range(_growth_counts(n)[n][0]))


def bounded_boolean_sat(signature: Signature, sentences: list[Formula],
                        max_atoms: int = 2, max_domain: int = 3,
                        mode: str = "weak") -> dict:
    """Exhaustive search for a valid Boolean-valued witness within bounds.

    mode "weak": every sentence gets a nonzero value; mode "strong": every
    sentence gets value one. A valid model over a powerset algebra with k
    atoms decomposes into k per-atom quotient structures (an equivalence on
    the domain plus equivalence-invariant relation tables) sharing constant
    interpretations, so the candidates are exactly those, in lexicographic
    order: domain size ascending, atom count ascending, then per-atom
    structures as nondecreasing tuples (atom relabeling pruned exactly),
    then constants.

    Every connective and quantifier acts atom by atom, so a sentence's value
    at an atom is its truth in that atom's quotient, which `quotient_truth`
    decides on the quotient's classes, tables and constant classes without
    building a model. Each distinct quotient is evaluated once into a mask
    with one bit per true sentence. A candidate is a weak witness iff the OR
    of its structures' masks sets every bit, and a strong witness iff the
    AND does; then each of its structures is a one-atom strong witness with
    the same constants, which the order reaches first, so strong mode tries
    one atom per domain size and moves on.

    A one-atom witness on n elements has a quotient on at most n classes
    that is a strong witness, and smaller sizes tried those on fewer, so
    the first one-atom witness of a size is the identity partition with
    its first witness quotient on exactly n classes. If there is none,
    strong mode and one-atom weak mode list no structure, and weak mode
    goes to covers.

    Weak mode goes on to k atoms only when no constant choice has a cover
    by fewer, so a k-atom cover has k distinct masks, and putting the first
    structure with the same mask in place of each keeps the cover and moves
    the candidate no later. So weak mode searches only those first
    structures, and the structure cap bounds its time as in strong mode.
    Only the first witness is assembled. Reports {"found": True, "model":
    ...} for it or {"exhausted": True} - never unsatisfiability.
    """
    if mode not in ("weak", "strong"):
        raise ValueError("mode must be 'weak' or 'strong'")
    if max_atoms < 1 or max_domain < 1:
        raise ValueError("bounds must be at least 1")
    every = (1 << len(sentences)) - 1
    true_in = quotient_truth(signature)

    @functools.cache
    def truth(n: int, tables: tuple, named: tuple) -> int:
        return sum(1 << i for i, f in enumerate(sentences)
                   if true_in(f, n, tables, named, {}))

    arities = [arity for _, arity in signature.relations]
    for n_dom in range(1, max_domain + 1):
        # count before listing: 2^bits tables on n_dom classes alone
        bits = sum(n_dom ** a for a in arities)
        count = structure_count(n_dom, arities) if bits <= 64 else 0
        if not 0 < count <= STRUCTURE_CAP:
            raise CapExceeded(
                f"domain size {n_dom} has {count or f'over 2^{bits}'} "
                f"per-atom structures, over the cap of {STRUCTURE_CAP}; "
                f"lower --max-domain")
        hit = next(((((tuple(range(n_dom)), tables),), named)
                    for tables, named in quotients(signature, n_dom)
                    if truth(n_dom, tables, named) == every), None)
        if hit is None and mode == "weak" and max_atoms > 1:
            structures = [(rgs, tables) for rgs in _partitions(n_dom)
                          for tables in _tables(signature, max(rgs) + 1)]
            choices = list(itertools.product(
                range(n_dom), repeat=len(signature.constants)))
            cover = _first_cover(
                [[truth(max(rgs) + 1, tables, tuple(rgs[i] for i in choice))
                  for rgs, tables in structures] for choice in choices],
                every, max_atoms)
            if cover:
                combo, c = cover
                hit = tuple(structures[s] for s in combo), choices[c]
        if hit:
            per_atom, choice = hit
            domain = tuple(f"m{i}" for i in range(n_dom))
            model = assemble_model(
                signature, tuple(f"a{i}" for i in range(len(per_atom))),
                domain, per_atom,
                {k: domain[i] for k, i in zip(signature.constants, choice)})
            return {"found": True, "model": model, "atoms": len(per_atom),
                    "domain_size": n_dom}
    return {"exhausted": True, "max_atoms": max_atoms,
            "max_domain": max_domain, "mode": mode}


def _first_cover(masks: list[list[int]], every: int,
                 max_atoms: int) -> tuple | None:
    """First `(combo, constant choice)` of 2 to max_atoms atoms, in search
    order, whose masks OR to `every`; masks[c][s] is the mask of structure
    s under constant choice c. Per choice, only the first structure with
    each mask is tried, depth-first, pruned where the OR of the masks left
    cannot finish the cover. A k-atom cover has k distinct masks, so k
    stops at the most distinct masks of any choice."""
    firsts = []
    for row in masks:
        seen: dict[int, int] = {}
        for s, m in enumerate(row):
            seen.setdefault(m, s)
        left = itertools.accumulate(reversed(seen), int.__or__, initial=0)
        firsts.append((list(seen.items()), list(left)[::-1]))

    def dfs(reps: list, left: list, i: int, need: int, got: int):
        if need == 0:
            return () if got == every else None
        for j in range(i, len(reps) - need + 1):
            if got | left[j] != every:
                return None
            rest = dfs(reps, left, j + 1, need - 1, got | reps[j][0])
            if rest is not None:
                return (reps[j][1],) + rest
        return None

    for k in range(2, min(max_atoms, max(len(r) for r, _ in firsts)) + 1):
        covers = [(combo, c) for c, (reps, left) in enumerate(firsts)
                  if (combo := dfs(reps, left, 0, k, 0))]
        if covers:
            return min(covers)
    return None


def structure_count(n_dom: int, arities: list[int]) -> int:
    """Per-atom structures on n_dom elements, counted without listing them:
    the sum over k of S(n_dom, k) * prod_r 2^(k^arity_r), with S(n, k) the
    partitions of n elements into k classes (Stirling numbers)."""
    row = [1]                               # S(m, k) for k = 0..m
    for m in range(1, n_dom + 1):
        row.append(0)
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, m + 1)]
    return sum(row[k] << sum(k ** a for a in arities)
               for k in range(1, n_dom + 1))


def quotients(signature: Signature, k: int):
    """Every quotient on exactly k classes as `(tables, named)`, the
    arguments of `quotient_truth`, in search order."""
    return itertools.product(_tables(signature, k), itertools.product(
        range(k), repeat=len(signature.constants)))


def quotient_count(signature: Signature, k: int) -> int:
    """2^(sum of k^arity) * k^|constants| quotients on k classes, counted
    without listing them; 0 over 64 table bits, as for the structure cap."""
    bits = sum(k ** arity for _, arity in signature.relations)
    return k ** len(signature.constants) << bits if bits <= 64 else 0


def random_quotients(rng: random.Random, signature: Signature,
                     max_atoms: int, max_domain: int) -> tuple:
    """Seeded `(domain size, per-atom structures, constant indices)`: a
    random valid model drawn as its per-atom quotients."""
    n_atoms = rng.randint(1, max_atoms)
    n_dom = rng.randint(1, max_domain)
    partitions = _growth_counts(n_dom)[n_dom][0]
    coin = rng.random
    per_atom = []
    for _ in range(n_atoms):
        rgs = _unrank_partition(n_dom, rng.randrange(partitions))
        n_classes = max(rgs) + 1
        per_atom.append((rgs, tuple(
            frozenset(t for t in _class_tuples(n_classes, arity)
                      if coin() < 0.5)
            for _, arity in signature.relations)))
    return n_dom, tuple(per_atom), [rng.randrange(n_dom)
                                    for _ in signature.constants]


def _tables(signature: Signature, k: int):
    """One table of class tuples per relation on k classes, search order."""
    return itertools.product(*(_subsets_lex(_class_tuples(k, arity))
                               for _, arity in signature.relations))


@functools.cache
def _class_tuples(n: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """Every tuple of `arity` class indices below n, lexicographic order."""
    return tuple(itertools.product(range(n), repeat=arity))


def _subsets_lex(items: list) -> list[frozenset]:
    out = []
    for k in range(len(items) + 1):
        for c in itertools.combinations(items, k):
            out.append(frozenset(c))
    return out


def assemble_model(signature: Signature, atom_names: tuple[str, ...],
                   domain: tuple[str, ...], per_atom: tuple,
                   constants: dict) -> BValuedModel:
    """Model over powerset(atom_names) whose per-atom quotients are the given
    structures: each is a restricted-growth string over the domain and one
    table of class tuples per relation of the signature, in order. Axioms
    (A)/(B) hold by construction."""
    alg = powerset_algebra(atom_names)
    idx = {m: i for i, m in enumerate(domain)}
    eq = {}
    for m in domain:
        for n in domain:
            eq[(m, n)] = sum(1 << i for i, (rgs, _) in enumerate(per_atom)
                             if rgs[idx[m]] == rgs[idx[n]])
    relations = {}
    for r_i, (rel, arity) in enumerate(signature.relations):
        table = {}
        for args in itertools.product(domain, repeat=arity):
            table[args] = sum(
                1 << i for i, (rgs, choice) in enumerate(per_atom)
                if tuple(rgs[idx[x]] for x in args) in choice[r_i])
        relations[rel] = table
    return BValuedModel(signature, alg, domain, eq, relations, dict(constants))


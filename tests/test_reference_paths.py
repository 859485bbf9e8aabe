"""The once-per-family fast paths against the reference paths they replaced,
kept here as oracles: the per-member clause check (every clause instance
rebuilt for every member) and maximality check (both extensions tried for
every sentence), the per-k law loop of check_tables, the law check that
every algebra once passed (check_algebra) and the pairwise self-check of
the regular-open completion, the regular-open sets found by a frozenset
loop over every subset, per-member evaluation in cp_from_algebra, the
standard-library JSON encoder, and the dict form of an emitted family.
Also the formula walkers as they were, one isinstance chain per operation, against the same
operations built on the node interface (`parts`/`rebuild`/`terms`). Also
the finite algebras as they were, frozenset or named elements with O(n^2)
operation tables, against the int-mask algebras, and the positivity walk
that asked the oracle about every candidate set against the walk that
carries the running meet. Also the soundness sampler that assembled every
sample against the one that decides each atom's quotient, truth in a
quotient's one-atom model (`quotient_model`) against truth decided on the
quotient's own data, the partitions of a domain as they were listed against
the unranked ones, and the density
and mixing checks by their definitions. Also every path that reads family
members as ints over the interned sentences (the walk, maximality, the
clause checks, emission, and on the forcing side the conditions, generic
filters and claim 1) against the same path on sets of sentences, and the
condition algebra read off the maximal members against the completion of
the forcing poset. Also the labels every algebra once built eagerly, one
per element, against the labels computed when read. Also the ultrafilters
as the frozensets of their members, proved filters by scanning the algebra,
with the quotient and the Los check that judged the quotient's one-atom
model by `eval_formula`, against the ultrafilter carried as its atom and
the quotient judged by `quotient_truth`. Also the argument parser as it
was, one hand-written block per subcommand, against the one built from
the command table, and the plain command-line reader against the
parser. Also the dense-embedding and roundtrip reports as they
were checked, pair by pair and through an explicit completion, against
the reports built from the member and atom counts. Also the walk's
member dict against the member count and the level walk that emission
reads, and parse_cp(load_json()) against read_cp, which reads canonical
family text without its parse tree."""
import argparse
import contextlib
import functools
import importlib.util
import io
import itertools
import json
import random
import shlex
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from infkit import cli, iojson
from infkit.boolalg import (
    FinBooleanAlgebra, FinPoset, ImproperFilter, TrivialAlgebra, check_tables,
    enumerate_ultrafilters, powerset_algebra, regular_open_sets_bruteforce,
    ro_completion, table_algebra,
)
from infkit.bvmodel import (
    TwoValuedStructure, _by_label, _growth_counts, _partitions,
    _unrank_partition, assemble_model, check_full_everywhere, eval_formula,
    mixes_over, quotient_count, quotient_truth, quotients,
)
from infkit.calculus import Sequent, in_calculus_fragment, soundness_sample
from infkit.cli import (
    DEFAULT_SEED, cmd_check_cp, cmd_check_model, cmd_check_proof,
    cmd_corpus, cmd_cp_from_algebra, cmd_cp_from_model, cmd_eval,
    cmd_generic, cmd_mansfield, cmd_quotient, cmd_ro, cmd_roundtrip, cmd_sat,
)
from infkit.consprop import (
    ConsistencyProperty, check_cp, convert_to_explicit,
    cp_from_model, default_pool, dense_sets, enumerate_members, findings,
    forcing_poset_conditions, generic_filter, instances,
    maximal_members, member_count, members_by_level, occurrence_variants,
    _bit_order, _bits, _reaches,
)
from infkit.iojson import (
    Findings, as_table_algebra, dump, dumps, emit_cp, emit_formula,
    emit_model, emit_signature, load_json,
    ParseError, parse_algebra, parse_cp, parse_formula, parse_model,
    parse_pool, parse_poset, parse_proof, read_cp,
)
from infkit.mansfield import (
    MATERIALIZE_LIMIT, SAMPLE_LIMIT, algebra_model, condition_algebra,
    cp_from_algebra, mansfield_build, roundtrip_check, sb_pool,
    verify_claim1,
)
from infkit.modelgen import (
    ArityClash, four_element_model, infer_signature, random_quotients,
    split_constant_theory,
)
from infkit.quotient import los_check, quotient
from infkit.record import Record
from infkit.syntax import (
    And, Atom, CaptureError, Const, Eq, Exists, Forall, Formula, Not, Or,
    Signature, Var, constants_of, is_sentence, move_neg_inside, replace_const,
    subformulas, substitute, validate_formula,
)
from inputs import (
    all_labeled_posets, cp_text, down_sets, forcing_poset, formula_pool,
    manifest_commands, model_pool, random_structures, str2_order_family,
    two_member_family,
)
from test_cli import _m4_without_eq_row, _two_point_identified
from test_golden import _table_powerset, _two_level_poset
from test_syntax import formulas

small_posets = functools.cache(all_labeled_posets)   # the n <= 5 sweep


# --- the oracles --------------------------------------------------------------

@functools.cache
def _sentence_sets(cp):
    """The explicit family's members as frozensets of sentences."""
    return frozenset(map(cp.decode, cp.family))


def reference_is_member(cp, s):
    """Membership of a sentence set as it was decided: a lookup among the
    explicit members, or the meet of the sentences' values being nonzero."""
    if cp.family is not None:
        return s in _sentence_sets(cp)
    alg = cp.model.algebra
    return alg.inf(eval_formula(cp.model, f) for f in s) != alg.zero


def reference_members_of(cp):
    return [cp.decode(m) for m in enumerate_members(cp)]


def member_key(s):
    """The canonical order of sentence sets: their sentences' canonical
    forms, sorted."""
    return tuple(sorted(f.key() for f in s))


def _try_extension(cp, s, add, clause, violations, require):
    """s union {add} checked for membership as it was, on sentence sets: for
    explicit families a sentence outside the pool is a PoolIncomplete
    finding when `require` is set, and otherwise just fails."""
    gap = cp.family is not None and not cp.in_pool(add) and add not in s
    ok = not gap and reference_is_member(cp, s | {add})
    if require and not ok:
        violations.append({
            "clause": clause, "kind": "PoolIncomplete" if gap else "violation",
            "member": member_key(s), "missing" if gap else "needed": add.key()})
    return ok


def _miss(cp, s, clause, candidates, violations, **extra):
    """A failed some-candidate clause as it was recorded: the undecidable
    candidates found again after every extension was tried."""
    gaps = [c.key() for c in candidates
            if cp.family is not None and not cp.in_pool(c) and c not in s]
    entry = {"clause": clause, "member": member_key(s), **extra}
    if gaps:
        entry.update(kind="PoolIncomplete", missing=sorted(gaps))
    else:
        entry.update(kind="violation")
    violations.append(entry)


def reference_check_cp(cp):
    """check_cp as it was: every clause instance rebuilt per member, each
    member a set of sentences read in canonical order."""
    violations = []
    members = reference_members_of(cp)
    consts = cp.all_constants()
    fresh = cp.fresh_constants
    pool_set = set(cp.pool)
    if cp.family is not None:
        for m in members:
            for f in sorted(m, key=Formula.key):
                if f not in pool_set:
                    violations.append({
                        "clause": "pool", "kind": "PoolIncomplete",
                        "member": member_key(m), "missing": f.key()})
    for s in members:
        for f in sorted(s, key=Formula.key):
            if isinstance(f, Not) and f.body in s:
                violations.append({
                    "clause": "Con", "kind": "violation",
                    "member": member_key(s), "needed": f.body.key()})
        for f in sorted(s, key=Formula.key):
            if isinstance(f, Not):
                _try_extension(cp, s, move_neg_inside(f.body), "Ind.1",
                               violations, require=True)
            elif isinstance(f, And):
                for child in f.children:
                    _try_extension(cp, s, child, "Ind.2", violations,
                                   require=True)
            elif isinstance(f, Forall):
                for tup in itertools.product(consts, repeat=len(f.vars)):
                    inst = substitute(
                        f.body, {v: Const(c) for v, c in zip(f.vars, tup)})
                    _try_extension(cp, s, inst, "Ind.3", violations,
                                   require=True)
            elif isinstance(f, Or):
                if not any(_try_extension(cp, s, child, "Ind.4", violations,
                                          require=False)
                           for child in f.children):
                    _miss(cp, s, "Ind.4", list(f.children), violations,
                          sentence=f.key())
            elif isinstance(f, Exists):
                insts = [
                    substitute(f.body,
                               {v: Const(c) for v, c in zip(f.vars, tup)})
                    for tup in itertools.product(fresh, repeat=len(f.vars))]
                if not any(_try_extension(cp, s, inst, "Ind.5", violations,
                                          require=False) for inst in insts):
                    _miss(cp, s, "Ind.5", insts, violations,
                          sentence=f.key())
            if isinstance(f, Eq) and isinstance(f.left, Const) \
                    and isinstance(f.right, Const):
                c, d = f.left.name, f.right.name
                _try_extension(cp, s, Eq(f.right, f.left), "Str.1",
                               violations, require=True)
                if c != d:
                    for psi in sorted(s, key=Formula.key):
                        for variant in occurrence_variants(psi, d, c):
                            _try_extension(cp, s, variant, "Str.2",
                                           violations, require=True)
        for d in consts:
            order = ([d] if d in fresh else []) + \
                [c for c in fresh if c != d]
            hit = False
            for c in order:
                if _try_extension(cp, s, Eq(Const(c), Const(d)), "Str.3",
                                  violations, require=False):
                    hit = True
                    break
            if not hit:
                _miss(cp, s, "Str.3",
                      [Eq(Const(c), Const(d)) for c in order], violations,
                      constant=d)
    return {"ok": not violations, "family_size": len(members),
            "violations": violations}


def reference_check_smax(cp):
    """check_smax as it was: both extensions tried for every pool sentence,
    and the negation built again for every member."""
    violations = []
    members = reference_members_of(cp)
    for s in members:
        for f in cp.pool:
            pos = _try_extension(cp, s, f, "S-Max", [], require=False)
            neg = _try_extension(cp, s, Not(f), "S-Max", [], require=False)
            if not (pos or neg):
                _miss(cp, s, "S-Max", [f, Not(f)], violations,
                      sentence=f.key())
    return {"ok": not violations, "family_size": len(members),
            "violations": violations}


class TableAlgebra:
    """A finite algebra as it was before int masks: an element tuple with
    meet/join/complement tables, elements frozensets of atom names, regular
    opens or table names."""

    def __init__(self, elements, meet, join, comp, zero, one):
        self.elements, self.zero, self.one = tuple(elements), zero, one
        self.meet_table, self.join_table, self.comp_table = meet, join, comp

    def meet(self, a, b):
        return self.meet_table[(a, b)]

    def join(self, a, b):
        return self.join_table[(a, b)]

    def comp(self, a):
        return self.comp_table[a]

    def leq(self, a, b):
        return self.meet_table[(a, b)] == a

    def atoms(self):
        nz = [x for x in self.elements if x != self.zero]
        return tuple(a for a in nz
                     if all(not (self.leq(b, a) and b != a) for b in nz))


def _tables_from_fns(elements, meet, join, comp):
    mt, jt, ct = {}, {}, {}
    for a in elements:
        ct[a] = comp(a)
        for b in elements:
            mt[(a, b)] = meet(a, b)
            jt[(a, b)] = join(a, b)
    return mt, jt, ct


def reference_powerset(atoms):
    universe = frozenset(atoms)
    elements = tuple(frozenset(c) for k in range(len(atoms) + 1)
                     for c in itertools.combinations(atoms, k))
    tables = _tables_from_fns(elements, lambda a, b: a & b,
                              lambda a, b: a | b, lambda a: universe - a)
    return TableAlgebra(elements, *tables, frozenset(), universe)


def reference_min_below(poset, p):
    """The minimal elements below p, by definition."""
    return frozenset(m for m in poset.minimals() if m in down_sets(poset)[p])


def reference_ro_completion(poset):
    mins = tuple(sorted(poset.minimals(), key=repr))
    minset = frozenset(mins)
    min_below = {q: reference_min_below(poset, q) for q in poset.elements}
    carrier = {}
    for k in range(len(mins) + 1):
        for combo in itertools.combinations(mins, k):
            s = frozenset(combo)
            carrier[s] = frozenset(q for q in poset.elements
                                   if min_below[q] <= s)

    def skey(s):
        return (len(s), tuple(sorted(repr(x) for x in s)))

    elements = tuple(carrier[s] for s in sorted(carrier, key=skey))
    to_min = {a: a & minset for a in elements}
    tables = _tables_from_fns(
        elements, lambda a, b: carrier[to_min[a] & to_min[b]],
        lambda a, b: carrier[to_min[a] | to_min[b]],
        lambda a: carrier[minset - to_min[a]])
    alg = TableAlgebra(elements, *tables, carrier[frozenset()],
                       carrier[minset])
    return alg, {p: carrier[min_below[p]] for p in poset.elements}


def reference_table(elements, meet_rows, join_rows, comp_row):
    els = tuple(elements)
    mt, jt, ct = {}, {}, {}
    for i, a in enumerate(els):
        ct[a] = comp_row[i]
        for j, b in enumerate(els):
            mt[(a, b)] = meet_rows[i][j]
            jt[(a, b)] = join_rows[i][j]
    zero = next((z for z in els if all(jt[(z, x)] == x for x in els)), els[0])
    one = next((o for o in els if all(mt[(o, x)] == x for x in els)), els[-1])
    return TableAlgebra(els, mt, jt, ct, zero, one)


def raw_tables(alg):
    """The table view of a mask algebra: every operation tabulated over the
    labels, in element order."""
    lab, els = alg.label, alg.elements
    return ([lab(x) for x in els],
            [[lab(alg.meet(a, b)) for b in els] for a in els],
            [[lab(alg.join(a, b)) for b in els] for a in els],
            [lab(alg.comp(a)) for a in els])


def assert_same_algebra(alg, ref):
    """The mask algebra and the table algebra agree through the labels."""
    lab = alg.label
    assert [lab(x) for x in alg.elements] == list(ref.elements)
    assert (lab(alg.zero), lab(alg.one)) == (ref.zero, ref.one)
    assert [lab(a) for a in alg.atoms()] == list(ref.atoms())
    for x in alg.elements:
        assert lab(alg.comp(x)) == ref.comp(lab(x))
        for y in alg.elements:
            assert lab(alg.meet(x, y)) == ref.meet(lab(x), lab(y))
            assert lab(alg.join(x, y)) == ref.join(lab(x), lab(y))
            assert alg.leq(x, y) == ref.leq(lab(x), lab(y))
    assert alg.inf(alg.elements) == alg.zero
    assert alg.sup(alg.atoms()) == alg.one


def reference_labels(alg):
    """Every element's label, by mask, built eagerly as the constructors
    built them before labels were computed on read: a table's names, a
    powerset's sets of atoms, a completion's regular-open sets through the
    embedding of its poset, and a condition algebra's sets of decoded
    conditions."""
    if alg.kind == "table":
        return alg.names
    masks = range(alg.one + 1)
    if alg.kind == "powerset":
        atoms = [a for a, _ in sorted(alg.points, key=lambda p: p[1])]
        return tuple(frozenset(a for i, a in enumerate(atoms) if x >> i & 1)
                     for x in masks)
    if alg.kind == "ro":
        poset, downs = alg.meta["poset"], down_sets(alg.meta["poset"])
        mins = sorted(poset.minimals(), key=repr)
        embedding = {q: sum(1 << i for i, m in enumerate(mins)
                            if m in downs[q]) for q in poset.elements}
        return tuple(frozenset(q for q, s in embedding.items()
                               if not s & ~x) for x in masks)
    sets = {t: alg.decode(t) for t, _ in alg.points}
    return tuple(frozenset(sets[t] for t, x in alg.points if not x & ~e)
                 for e in masks)


def assert_labels_match(alg):
    """label() agrees with the eager labels on every element and element()
    inverts it; returns the old label -> element map."""
    labels = reference_labels(alg)
    assert list(map(alg.label, range(alg.one + 1))) == list(labels)
    masks = {lab: x for x, lab in enumerate(labels)}
    assert len(masks) == len(labels)
    for lab, x in masks.items():
        assert alg.element(lab) == x
    return masks


def check_algebra(alg):
    """The Boolean law check that every algebra once passed in `ro`,
    `check-model` and the corpus runner: the full scan of its table view."""
    violations = list(check_tables(*raw_tables(alg)))
    return {"ok": not violations, "violations": violations}


def reference_check_algebra(alg):
    """The law scan on a table algebra as it was first written: every
    ternary law checked k by k."""
    els = list(alg.elements)
    n = len(els)
    idx = {e: i for i, e in enumerate(els)}
    meet = [[idx[alg.meet_table[(a, b)]] for b in els] for a in els]
    join = [[idx[alg.join_table[(a, b)]] for b in els] for a in els]
    comp = [idx[alg.comp_table[a]] for a in els]
    zero, one = idx[alg.zero], idx[alg.one]
    violations = []

    def bad(law, *args):
        violations.append({"law": law, "args": [els[i] for i in args]})

    if zero == one:
        violations.append({"law": "nontrivial", "args": []})
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


def reference_ro_selfcheck(poset, alg, embedding):
    """The check ro_completion once ran on its output, pair by pair: the
    embedding preserves order and incompatibility and has a dense image.
    The poset's order and incompatibility are read off its down-sets."""
    downs = down_sets(poset)
    for p in poset.elements:
        for q in poset.elements:
            if p in downs[q] and not alg.leq(embedding[p], embedding[q]):
                raise RuntimeError("embedding failed order preservation")
            incompat = not downs[p] & downs[q]
            disjoint = alg.meet(embedding[p], embedding[q]) == alg.zero
            if incompat != disjoint:
                raise RuntimeError(
                    "embedding failed incompatibility preservation")
    image = [e for e in embedding.values() if e != alg.zero]
    for a in alg.elements:
        if a != alg.zero and not any(alg.leq(e, a) for e in image):
            raise RuntimeError("embedding image is not dense")


def is_dense_subset(alg, dense):
    """Every nonzero element bounds some nonzero member of `dense` below it:
    the density of ro_completion's embedding, by definition."""
    ds = [d for d in dense if d != alg.zero]
    return all(any(alg.leq(d, b) for d in ds)
               for b in alg.elements if b != alg.zero)


def check_mixing_by_antichains(model):
    """check_mixing by definition: every antichain of nonzero elements and
    every target map; exponential, for small algebras only."""
    alg = model.algebra
    nz = _by_label(alg, [x for x in alg.elements if x != alg.zero])

    antichains = [()]
    def extend(prefix, rest):
        for i, b in enumerate(rest):
            if all(alg.meet(b, a) == alg.zero for a in prefix):
                cand = prefix + (b,)
                antichains.append(cand)
                extend(cand, rest[i + 1:])
    extend((), nz)

    for chain in antichains:
        if not chain:
            continue
        for targets in itertools.product(model.domain, repeat=len(chain)):
            if mixes_over(model, list(chain), list(targets)) is None:
                return {"mixing": False,
                        "antichain": [alg.label(a) for a in chain],
                        "targets": list(targets)}
    return {"mixing": True}


def reference_partitions(n):
    """The restricted-growth strings of n items as they were listed, by a
    depth-first walk in lexicographic order."""
    out = []

    def grow(prefix, used):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for c in range(used + 1):
            grow(prefix + [c], max(used, c + 1))

    grow([], 0)
    return out


def quotient_model(signature, n, tables, named):
    """The one-atom model of a per-atom quotient, which `sat` and the
    sampler built for each distinct quotient before `quotient_truth`:
    classes m0..m(n-1), one table of class tuples per relation, and the
    i-th constant of the signature in class named[i]."""
    classes = tuple(f"m{k}" for k in range(n))
    return assemble_model(signature, ("a0",), classes,
                          ((tuple(range(n)), tables),),
                          {c: classes[k]
                           for c, k in zip(signature.constants, named)})


def reference_truth(signature, f, n, tables, named, env):
    """Truth in a quotient as it was decided: f's value in the quotient's
    one-atom model is one."""
    model = quotient_model(signature, n, tables, named)
    value = eval_formula(model, f, {v: f"m{k}" for v, k in env.items()})
    return value == model.algebra.one


def reference_soundness_sample(goal, samples=200, seed=0, max_atoms=2,
                               max_domain=3):
    """soundness_sample as it was: every sample assembled into a whole model
    and evaluated under every assignment of the free variables."""
    formulas = list(goal.ante) + list(goal.succ)
    sig = infer_signature(formulas)
    free = sorted(set().union(*(f.free_vars() for f in formulas))
                  if formulas else set())
    rng = random.Random(seed)
    violations = []
    for i in range(samples):
        model = assemble_model(
            sig, *random_structures(rng, sig, max_atoms, max_domain))
        alg = model.algebra
        for tup in itertools.product(model.domain, repeat=len(free)):
            assign = dict(zip(free, tup))
            lhs = alg.inf(eval_formula(model, f, assign) for f in goal.ante)
            rhs = alg.sup(eval_formula(model, f, assign) for f in goal.succ)
            if not alg.leq(lhs, rhs):
                violations.append({"sample": i, "assignment": assign,
                                   "model": model})
        if violations:
            break
    return {"ok": not violations, "samples": samples,
            "violations": violations}


def is_filter(alg, members):
    return bool(members) and all(map(alg.is_element, members)) \
        and alg.zero not in members and all(
            alg.meet(a, b) in members for a in members for b in members) \
        and all(b in members for a in members for b in alg.elements
                if alg.leq(a, b))


def is_ultrafilter(alg, members):
    return is_filter(alg, members) and all(
        b in members or alg.comp(b) in members for b in alg.elements)


def principal_filter(alg, generator):
    if generator == alg.zero:
        raise ImproperFilter("the zero element generates no proper filter")
    return frozenset(b for b in alg.elements if alg.leq(generator, b))


def reference_quotient(model, filter_members):
    """quotient as it was, on the filter's members as a frozenset, proved a
    filter first by scanning the algebra."""
    if not is_filter(model.algebra, filter_members):
        raise ImproperFilter("argument is not a proper filter of the algebra")

    def same(m, n):
        return model.eq_value(m, n) in filter_members

    for m in model.domain:
        if not same(m, m):
            raise ImproperFilter(f"reflexivity fails at {m} under the filter")
        for n in model.domain:
            if same(m, n) != same(n, m):
                raise ImproperFilter(f"symmetry fails at ({m}, {n})")
            for p in model.domain:
                if same(m, n) and same(n, p) and not same(m, p):
                    raise ImproperFilter(f"transitivity fails at ({m},{n},{p})")
    classes = sorted({frozenset(n for n in model.domain if same(m, n))
                      for m in model.domain}, key=min)
    reps = tuple(min(c) for c in classes)
    rep_of = {m: rep for cls, rep in zip(classes, reps) for m in cls}
    relations = {}
    for rel, arity in model.signature.relations:
        holds = {tuple(rep_of[a] for a in args)
                 for args in itertools.product(model.domain, repeat=arity)
                 if model.rel_value(rel, args) in filter_members}
        for args in itertools.product(model.domain, repeat=arity):
            if tuple(rep_of[a] for a in args) in holds and \
                    model.rel_value(rel, args) not in filter_members:
                raise ValueError(
                    f"relation {rel} not class-independent at {args}; "
                    f"the source model violates the substitution axiom")
        relations[rel] = frozenset(holds)
    return TwoValuedStructure(
        model.signature, tuple(classes), reps, relations,
        {c: rep_of[m] for c, m in model.constants.items()})


def reference_los_check(model, ultra, pool):
    """los_check as it was: the quotient's one-atom model and the model
    itself both judged by eval_formula, membership in the ultrafilter's
    frozenset on the right."""
    if not is_ultrafilter(model.algebra, ultra):
        raise ImproperFilter("quotient theorem check needs an ultrafilter")
    q = reference_quotient(model, ultra)
    rep_of = {m: rep for cls, rep in zip(q.classes, q.reps) for m in cls}
    two = q.to_two_valued_model()
    skipped, violations, checked = [], [], 0
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
                two, f, {v: rep_of[m] for v, m in env.items()}
            ) == two.algebra.one
            right = eval_formula(model, f, env) in ultra
            checked += 1
            if left != right:
                violations.append({"formula": f.key(), "assignment": list(tup),
                                   "quotient": left, "value_in_filter": right})
    return {"ok": not violations, "checked": checked,
            "violations": violations, "skipped": skipped}


# --- clause checking ----------------------------------------------------------

def _variants(cp):
    """The family itself, the family without one member, and the family with
    one pool sentence dropped (which opens pool gaps)."""
    out = [cp]
    if cp.family:
        out.append(ConsistencyProperty(
            cp.signature, cp.fresh_constants, cp.pool, cp.family[1:],
            cp.model, cp.sentences))
    if cp.family is not None and len(cp.pool) > 1:
        dropped = cp.pool[len(cp.pool) // 2]
        out.append(ConsistencyProperty(
            cp.signature, cp.fresh_constants,
            tuple(f for f in cp.pool if f != dropped), cp.family, cp.model,
            cp.sentences))
    return out


_CORPUS_FAMILIES = ("eq4_family", "eq2_family", "conditions_family",
                    "max_family", "ind4_family", "con_family")


@pytest.mark.parametrize("name", _CORPUS_FAMILIES)
def test_check_cp_matches_reference_on_corpus_families(corpus_dir, name):
    cp = parse_cp(load_json(str(corpus_dir / f"{name}.json")))
    for variant in _variants(cp):
        assert check_cp(variant) == reference_check_cp(variant)
        assert check_cp(variant, True)["smax"] \
            == reference_check_smax(variant)


def test_check_cp_matches_reference_when_a_constant_has_two_names():
    # Str.2 substitutes both c0 and c1 for d into P(d)
    sig = Signature(relations=(("P", 1),), constants=("d",))
    d, c0, c1 = Const("d"), Const("c0"), Const("c1")
    member = frozenset({Eq(c0, d), Eq(c1, d), Atom("P", (d,))})
    cp = ConsistencyProperty(sig, ("c0", "c1"),
                             default_pool(sig, ("c0", "c1"), member),
                             family=(member,))
    got = check_cp(cp)
    assert got == reference_check_cp(cp)
    assert {v["needed"] for v in got["violations"]
            if v["clause"] == "Str.2"} >= {Atom("P", (c0,)).key(),
                                           Atom("P", (c1,)).key()}


@pytest.mark.parametrize("size", [4, 8])
def test_check_cp_matches_reference_on_emitted_algebra_families(
        corpus_dir, size):
    alg = parse_algebra(load_json(str(corpus_dir / f"b{size}.json")))
    oracle_cp, _ = cp_from_algebra(alg)
    explicit = convert_to_explicit(oracle_cp)
    families = [oracle_cp, explicit] if size == 8 \
        else [oracle_cp, *_variants(explicit)]
    for cp in families:
        got = check_cp(cp)
        assert got == reference_check_cp(cp)
        assert check_cp(cp, True)["smax"] == reference_check_smax(cp)
    # the emitted b8 family has pool gaps, so the comparison is not vacuous
    assert got["violations"]


# --- the streamed check-cp report ---------------------------------------------

def streamed_report(path, smax):
    """check-cp's exit code and stdout on the family file at path."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cmd_check_cp(argparse.Namespace(cp=str(path), smax=smax))
    return code, out.getvalue()


def finding_shape(finding):
    """A finding's clause and its other fields besides kind and member,
    with the type of each: needed, missing as a string or a list, and the
    sentence or constant a SOME row names."""
    return finding["clause"], tuple(
        f"{k}: {type(v).__name__}" for k, v in sorted(finding.items())
        if k not in ("clause", "kind", "member"))


def assert_streams_as_the_dict_report(path):
    """check-cp's report on the family file, with and without --smax, is
    check_cp's dict report written by dump, the oracle, byte for byte.
    Returns the shapes of its findings and whether it had no finding."""
    cp = read_cp(str(path))
    shapes, clean = set(), False
    for smax in (False, True):
        want = check_cp(cp, smax)
        code, out = streamed_report(path, smax)
        assert code == (0 if want["ok"] else 1)
        assert out.split("\n") == dumps(want).split("\n")   # a short diff
        found = want["violations"] + (want["smax"]["violations"] if smax
                                      else [])
        shapes |= set(map(finding_shape, found))
        clean |= not found
    return shapes, clean


def every_clause_family():
    """Singleton members over the default pool, which holds every sentence
    a clause adds, so that each clause fails with a violation: Ind.1-Ind.5,
    Str.1-Str.3 and S-Max."""
    d, c0, x = Const("d"), Const("c0"), Var("x")
    r_d, r_c0, r_x = Atom("R", (d,)), Atom("R", (c0,)), Atom("R", (x,))
    members = [[Not(And((r_d, r_c0)))], [And((r_d, r_c0))],
               [Forall(("x",), r_x)], [Exists(("x",), r_x)],
               [Eq(d, c0), r_d], []]
    return {"signature": {"constants": ["d"],
                          "relations": [{"arity": 1, "name": "R"}]},
            "fresh_constants": ["c0"],
            "family": [[emit_formula(f) for f in m] for m in members]}


def test_streamed_reports_match_the_dict_reports(corpus_dir, tmp_path):
    """On the corpus families, each also with a member and with a pool
    sentence dropped (`_variants`), the emitted b4 and b8 families, the
    family whose Str.2 findings followed the hash seed, and a family that
    fails every clause. Together they hold reports with no finding and
    every finding shape."""
    families = [cp for name in _CORPUS_FAMILIES for cp in _variants(
        parse_cp(load_json(str(corpus_dir / f"{name}.json"))))]
    families += [cp_from_algebra(_algebra(corpus_dir, size))[0]
                 for size in (4, 8)]
    families.append(str2_order_family())
    paths = [tmp_path / f"{i}.json" for i in range(len(families) + 1)]
    for path, cp in zip(paths, families):
        path.write_text(cp_text(cp))
    paths[-1].write_text(dumps(every_clause_family()))
    shapes, clean = set(), []
    for path in paths:
        found, no_finding = assert_streams_as_the_dict_report(path)
        shapes |= found
        clean.append(no_finding)
    assert any(clean)
    assert {clause for clause, _ in shapes} == {
        "Con", "pool", "S-Max",
        *(f"Ind.{i}" for i in range(1, 6)), *(f"Str.{i}" for i in (1, 2, 3))}
    assert {field for _, fields in shapes for field in fields} == {
        "needed: str", "missing: str", "missing: list", "sentence: str",
        "constant: str"}


def test_dump_renders_a_key_that_reuses_a_freed_id_afresh(corpus_dir):
    """A walk frees each member's key once the next member's findings
    come, so a later key can take the id of an earlier one: on the
    emitted b16 family, 2,684 of the 13,328 keys of the clause walk did
    (Python 3.11). A text kept by a key's id would be stale there. Here
    each key of the b8 findings is rebuilt as it is yielded, from a list,
    so that it takes the id of a key freed just before."""
    cp = convert_to_explicit(cp_from_algebra(_algebra(corpus_dir, 8))[0])
    found, last = [], None
    for fields, key in findings(cp)[1]:
        if key is not last:
            last, members = key, list(key)
        found.append((fields, members))
    ids = set()

    def walk():
        last = key = None
        for fields, members in found:
            if members is not last:
                last, key = members, tuple(members)
                ids.add(id(key))
            yield fields, key

    assert dumps({"violations": Findings(walk(), "member")}).split("\n") == dumps(
        {"violations": [dict(f, member=tuple(k)) for f, k in found]}
    ).split("\n")
    assert len(ids) < len({id(k) for _, k in found}) == len(cp.family)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(model_pool()),
       st.lists(st.sampled_from([f for f in formula_pool() if is_sentence(f)]),
                max_size=8))
def test_streamed_reports_match_on_drawn_families(tmp_path_factory, model,
                                                  pool):
    path = tmp_path_factory.mktemp("drawn") / "family.json"
    path.write_text(cp_text(cp_from_model(model, pool)))
    assert_streams_as_the_dict_report(path)


# --- law checking -------------------------------------------------------------

def _lattice_tables(poset):
    """The poset as a table algebra when it is a lattice: meet and join are
    the greatest lower and least upper bounds, comp the first element whose
    meet with x is the bottom (so most of these tables break some law)."""
    els, downs = poset.elements, down_sets(poset)
    if len(poset.minimals()) != 1 \
            or sum(len(downs[e]) == len(els) for e in els) != 1:
        return None                      # no bottom or no top

    def leq(x, y):
        return x in downs[y]

    def bound(a, b, below):
        le = leq if below else (lambda x, y: leq(y, x))
        common = [c for c in els if le(c, a) and le(c, b)]
        best = [c for c in common if all(le(d, c) for d in common)]
        return best[0] if best else None

    meet = [[bound(a, b, True) for b in els] for a in els]
    join = [[bound(a, b, False) for b in els] for a in els]
    if any(v is None for row in meet + join for v in row):
        return None
    bottom = next(e for e in els if all(leq(e, x) for x in els))
    comp = [next(c for c in els if meet[i][els.index(c)] == bottom)
            for i in range(len(els))]
    return els, meet, join, comp


def assert_table_paths_agree(tables):
    """The law check on raw tables against the per-k oracle; a lawful table
    becomes a mask algebra that agrees with the table algebra and passes
    the law check again, any other one is refused naming its first violated
    law."""
    ref = reference_table(*tables)
    violations = list(check_tables(*tables))
    assert {"ok": not violations, "violations": violations} \
        == reference_check_algebra(ref)
    if not violations:
        alg = table_algebra(*tables)
        assert_same_algebra(alg, ref)
        assert_labels_match(alg)
        assert check_algebra(alg)["ok"]
    else:
        law, args = violations[0]["law"], violations[0]["args"]
        where = f" at {', '.join(args)}" if args else ""
        with pytest.raises(ValueError) as refused:
            table_algebra(*tables)
        assert str(refused.value) \
            == f"not a Boolean algebra: {law} fails{where}"
    return not violations


def test_check_algebra_matches_reference_on_corpus_algebras(corpus_dir):
    algebras = [parse_algebra(load_json(str(corpus_dir / f"b{n}.json")))
                for n in (2, 4, 8, 16)]
    algebras += [parse_model(load_json(str(corpus_dir / name))).algebra
                 for name in ("four_element_model.json",
                              "two_point_model.json")]
    for name in ("antichain_3.json", "chain_2.json", "vee_3.json"):
        poset = parse_poset(load_json(str(corpus_dir / name)))
        algebras.append(ro_completion(poset)[0])
    for alg in algebras:
        assert_labels_match(alg)
        tables = raw_tables(alg)
        report = check_algebra(alg)
        assert report == reference_check_algebra(reference_table(*tables))
        assert report["ok"] and assert_table_paths_agree(tables)


def test_check_algebra_matches_reference_on_small_lattices():
    lattices = boolean = 0
    for n in range(1, 6):
        for poset in small_posets(n):
            tables = _lattice_tables(poset)
            if tables is None:
                continue
            lattices += 1
            boolean += assert_table_paths_agree(tables)
    assert lattices > 100 and boolean >= 2


@st.composite
def random_tables(draw):
    n = draw(st.integers(1, 4))
    els = [f"e{i}" for i in range(n)]
    cell = st.sampled_from(els)
    rows = st.lists(st.lists(cell, min_size=n, max_size=n),
                    min_size=n, max_size=n)
    return els, draw(rows), draw(rows), draw(st.lists(cell, min_size=n,
                                                      max_size=n))


@settings(max_examples=50, deadline=None)
@given(random_tables())
@example(raw_tables(powerset_algebra(["a", "b"])))
@example((["z"], [["z"]], [["z"]], ["z"]))
def test_check_algebra_matches_reference_on_random_tables(tables):
    assert_table_paths_agree(tables)


def flipped_powerset_table(n_atoms, seed=0):
    """The powerset of n atoms in table form with the meet of one pair of
    incomparable elements, in both orders, replaced by their join."""
    d = _table_powerset(n_atoms, seed)
    els, meet, join = d["elements"], d["meet"], d["join"]
    # neither zero nor one: some but not all elements lie above it
    i = next(i for i, e in enumerate(els) if 1 < meet[i].count(e) < len(els))
    j = next(j for j in range(len(els))
             if meet[i][j] not in (els[i], els[j]))
    meet[i][j] = meet[j][i] = join[i][j]
    return els, meet, join, d["comp"]


def test_check_algebra_names_the_first_law_of_a_flipped_table():
    assert not assert_table_paths_agree(flipped_powerset_table(6))


def test_a_table_wrong_only_in_comp_is_named_as_the_scan_names_it():
    """Every swap of two complements, and every complement moved to another
    element, in the powerset tables of 1 to 3 atoms."""
    refused = 0
    for n in range(1, 4):
        d = _table_powerset(n, n)
        els, comp = d["elements"], d["comp"]
        for i, j in itertools.product(range(len(els)), repeat=2):
            swapped, moved = list(comp), list(comp)
            swapped[i], swapped[j] = comp[j], comp[i]
            moved[i] = els[j]
            for row in (swapped, moved):
                refused += not assert_table_paths_agree(
                    (els, d["meet"], d["join"], row))
    assert refused == 2 * (2 + 12 + 56)


# --- int-mask algebras --------------------------------------------------------

def test_mask_algebras_match_the_table_algebras():
    for n in range(1, 5):
        atoms = [f"a{i}" for i in range(n)]
        assert_same_algebra(powerset_algebra(atoms), reference_powerset(atoms))
    with pytest.raises(TrivialAlgebra):
        powerset_algebra([])
    for n in range(1, 6):
        for poset in small_posets(n):
            alg, emb = ro_completion(poset)
            ref, ref_emb = reference_ro_completion(poset)
            assert_same_algebra(alg, ref)
            assert {p: alg.label(e) for p, e in emb.items()} == ref_emb
            assert check_algebra(alg)["ok"]


def test_labels_on_read_match_the_eager_labels_on_the_sweep():
    """On the completion of every poset of the n <= 5 sweep, label() and
    element() agree with the eager labels, and element() refuses every
    subset of the poset that is not regular open, exactly where the old
    label -> element map had no entry."""
    refused = 0
    for n in range(1, 6):
        for poset in small_posets(n):
            alg = ro_completion(poset)[0]
            masks = assert_labels_match(alg)
            els = poset.elements
            for s in range(1 << n):
                subset = frozenset(e for i, e in enumerate(els) if s >> i & 1)
                assert alg.element(subset) == masks.get(subset)
                refused += subset not in masks
            assert alg.element(els[0]) is None
    assert refused == 119_000


def _completed_posets(corpus_dir):
    """The n <= 5 sweep, the forcing poset at every root of every corpus
    family, and the two-member families on up to 64 conditions."""
    posets = [poset for n in range(1, 6) for poset in small_posets(n)]
    families = [parse_cp(load_json(str(corpus_dir / f"{name}.json")))
                for name in _CORPUS_FAMILIES]
    families += [two_member_family(k) for k in range(1, 7)]
    for cp in families:
        posets += [forcing_poset(forcing_poset_conditions(
            maximal_members(cp, root), root)) for root in cp.family]
    return posets


def test_ro_completion_passes_its_old_self_check(corpus_dir):
    posets = _completed_posets(corpus_dir)
    assert (len(posets), max(len(poset.elements) for poset in posets)) \
        == (4795, 112)
    for poset in posets:
        reference_ro_selfcheck(poset, *ro_completion(poset))
    # the self-check can fail: an embedding that maps the top of the vee
    # to one of its atoms breaks order preservation
    vee = FinPoset("lrt", [("l", "t"), ("r", "t")])
    alg, emb = ro_completion(vee)
    with pytest.raises(RuntimeError, match="order preservation"):
        reference_ro_selfcheck(vee, alg, {**emb, "t": emb["l"]})


def test_no_command_scans_a_mask_algebra_for_the_laws(corpus_dir, manifest,
                                                      monkeypatch, capsys):
    """ro, check-model, mansfield and corpus on the shipped inputs never
    call check_tables; only a refused table does."""
    import infkit.boolalg
    from infkit.cli import main
    calls = []

    def counting(*tables):
        calls.append(len(tables[0]))
        return check_tables(*tables)

    monkeypatch.setattr(infkit.boolalg, "check_tables", counting)
    files = {kind: [str(corpus_dir / e["file"]) for e in manifest["entries"]
                    if e["kind"] == kind] for kind in ("poset", "model")}
    commands = [("ro", f) for f in files["poset"]] \
        + [("check-model", f) for f in files["model"]] \
        + [("mansfield", "--cp", str(corpus_dir / f"{name}.json"),
            "--root", root) for name, root in (
                ("eq4_family", "0"), ("conditions_family", "0"),
                ("max_family", "3"))] \
        + [("corpus",)]
    assert len(commands) == 12
    for argv in commands:
        code = main(list(argv))
        assert (code, capsys.readouterr().err) == (0, ""), argv
    assert calls == []
    with pytest.raises(ValueError, match="not a Boolean algebra"):
        table_algebra(*flipped_powerset_table(2))
    assert calls == [4]


# --- posets -------------------------------------------------------------------

def test_min_below_matches_its_definition():
    posets = [poset for n in range(1, 6) for poset in small_posets(n)]
    cp = two_member_family()
    root = cp.family[0]
    posets.append(forcing_poset(forcing_poset_conditions(
        maximal_members(cp, root), root)))
    assert len(posets[-1].elements) == 64
    for poset in posets:
        for p in poset.elements:
            assert poset.min_below(p) == reference_min_below(poset, p)


def reference_regular_open_sets(poset):
    """regular_open_sets_bruteforce as it was: every subset as a frozenset,
    kept when the interior of its up-closure is the subset itself."""
    els, downs = poset.elements, down_sets(poset)
    out = set()
    for k in range(len(els) + 1):
        for combo in itertools.combinations(els, k):
            a = frozenset(combo)
            up = frozenset(q for q in els if downs[q] & a)
            if frozenset(q for q in els if downs[q] <= up) == a:
                out.add(a)
    return out


@st.composite
def random_posets(draw, max_size=8):
    """A poset on up to max_size elements, ordered along a drawn
    permutation so that every pair can go either way."""
    n = draw(st.integers(1, max_size))
    name = [f"p{i}" for i in draw(st.permutations(range(n)))]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1))))
    return FinPoset(sorted(name), [(name[i], name[j]) for i, j in pairs
                                   if i < j])


def test_regular_open_sets_match_the_subset_loop(corpus_dir, manifest):
    posets = [poset for n in range(1, 6) for poset in small_posets(n)]
    posets += [parse_poset(load_json(str(corpus_dir / e["file"])))
               for e in manifest["entries"] if e["kind"] == "poset"]
    posets.append(parse_poset(_two_level_poset(7, 7, 0)))
    assert len(posets) == 4473 + 6 + 1
    for poset in posets:
        assert regular_open_sets_bruteforce(poset) \
            == reference_regular_open_sets(poset)


@settings(max_examples=200, deadline=None)
@given(random_posets())
def test_regular_open_sets_match_on_random_posets(poset):
    assert regular_open_sets_bruteforce(poset) \
        == reference_regular_open_sets(poset)


# --- valuations ---------------------------------------------------------------

@pytest.mark.parametrize("size", [4, 8])
def test_cp_from_algebra_valuation_is_per_member_evaluation(corpus_dir,
                                                            size):
    alg = parse_algebra(load_json(str(corpus_dir / f"b{size}.json")))
    cp, _ = cp_from_algebra(alg)
    pi, named = dict(_reaches(cp)), cp.model
    assert list(pi) == enumerate_members(cp)
    for s, value in pi.items():
        assert value == alg.inf(eval_formula(named, f) for f in cp.decode(s))


# --- the dense embedding and the roundtrip ---------------------------------

# Pair checks of reference_cp_from_algebra are exhaustive up to SAMPLE_LIMIT
# members and take 4 * SAMPLE_LIMIT seeded-random pairs beyond;
# reference_roundtrip_check completes the forcing poset explicitly up to
# MATERIALIZE_LIMIT members.
SAMPLE_SEED = 0


def reference_cp_from_algebra(
        alg: FinBooleanAlgebra) -> tuple[ConsistencyProperty, dict, dict]:
    """cp_from_algebra as it was, every report fact checked. The positivity
    family of the membership model, the valuation map on its members (in
    enumeration order), and the dense-embedding report: order preservation,
    incompatibility agreement, and surjectivity onto the nonzero elements
    through the singleton conditions."""
    model, names = algebra_model(alg)
    cp = cp_from_model(model, sb_pool(alg, names))
    pi = dict(_reaches(cp))
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


def reference_roundtrip_check(alg: FinBooleanAlgebra) -> dict:
    """roundtrip_check as it was, every report fact checked. The
    forcing poset of the algebra's positivity family completes back to the
    algebra itself: the maximal members biject with the atoms, subsets of
    the maximal-member set map isomorphically onto the algebra by joining
    atoms, and that map carries each condition's regular-open neighborhood
    to the condition's valuation. Small posets are additionally
    materialized and completed explicitly."""
    cp, pi, _ = reference_cp_from_algebra(alg)
    atoms = _by_label(alg, alg.atoms())
    # the member of the pool sentences whose value holds the atom
    by_atom = {a: sum(1 << b for b, v in enumerate(cp.masks)
                      if alg.leq(a, v)) for a in atoms}
    maxes = set(maximal_members(cp))
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
            alg.sup(a for a, held in by_atom.items() if held in reg) == v
            for s, v in pi.items() for reg in (ro_alg.label(emb[s]),))

    ok = max_match and h_bijective and h_hom and reg_matches
    return {"ok": ok, "atoms": len(atoms), "members": len(pi),
            "maximal_members_match": max_match, "h_bijective": h_bijective,
            "h_homomorphism": h_hom, "reg_matches_pi": reg_matches,
            "materialized": materialized, "ro_size": ro_size,
            "algebra_size": len(alg.elements)}


def reverse_algebras(corpus_dir):
    """The corpus algebras, the powerset on 1 to 4 atoms in both forms, and
    the completions of up to 18 seeded posets on each of 1 to 5 elements
    with at most 4 minimal elements: 1 and 2 atoms give 16 and 80 members
    (exhaustive pairs, materialized), 3 and 4 atoms 528 and 13,328
    (sampled pairs, not materialized)."""
    algs = [_algebra(corpus_dir, size) for size in (2, 4, 8, 16)]
    for n in range(1, 5):
        alg = powerset_algebra(tuple(f"a{i}" for i in range(n)))
        algs += [alg, as_table_algebra(alg)]
    rng = random.Random(0)
    for n in range(1, 6):
        posets = [p for p in small_posets(n) if len(p.minimals()) <= 4]
        algs += [ro_completion(p)[0]
                 for p in rng.sample(posets, min(18, len(posets)))]
    return algs


def test_the_reverse_reports_equal_their_reference_checks(corpus_dir):
    """On int-mask algebras every checked fact of the dense-embedding and
    roundtrip reports holds, so the reports built from the member and atom
    counts equal the checked ones."""
    algs = reverse_algebras(corpus_dir)
    modes = set()
    for alg in algs:
        cp, report = cp_from_algebra(alg)
        ref_cp, ref_pi, ref_report = reference_cp_from_algebra(alg)
        assert (cp.sentences, dict(_reaches(cp)), report) \
            == (ref_cp.sentences, ref_pi, ref_report)
        rt = roundtrip_check(alg)
        assert rt == reference_roundtrip_check(alg)
        modes.add((report["pair_mode"], rt["materialized"]))
    assert len(algs) == 70
    assert modes == {("exhaustive", True), ("sampled", False)}


# --- positivity walks ---------------------------------------------------------

def reference_members(cp):
    """enumerate_members as it was: sentence sets, the oracle deciding every
    candidate."""
    pool = sorted(cp.pool, key=Formula.key)
    out = []

    def dfs(current, start):
        out.append(current)
        for i in range(start, len(pool)):
            nxt = current | {pool[i]}
            if reference_is_member(cp, nxt):
                dfs(nxt, i + 1)

    if reference_is_member(cp, frozenset()):
        dfs(frozenset(), 0)
    return out


def reference_maximal_among(cp, members):
    """maximal_among as it was: the members that no pool sentence extends."""
    pool = set(cp.pool)
    return [m for m in members
            if not any(reference_is_member(cp, m | {f}) for f in pool - m)]


def file_order(s):
    """The order emit_cp writes sentence sets in: by size, then by their
    sentences' canonical forms."""
    return len(s), member_key(s)


def assert_walks_agree(cp):
    """The level walk carrying the running meet gives the oracle walk's
    members in file order, each with the per-set meet, and the same
    maximal members."""
    members = reference_members(cp)
    named = cp.model
    value = {f: eval_formula(named, f) for f in cp.pool}
    meets = dict(_reaches(cp))
    assert list(map(cp.decode, meets)) == sorted(members, key=file_order)
    assert enumerate_members(cp) == list(meets)
    assert {cp.decode(m): v for m, v in meets.items()} == {
        s: named.algebra.inf(value[f] for f in s) for s in members}
    maxes = reference_maximal_among(cp, members)
    assert list(map(cp.decode, maximal_members(cp))) == sorted(
        maxes, key=member_key)
    root = members[len(members) // 2]
    above = [m for m in members if root <= m]
    assert list(map(cp.decode, maximal_members(cp, cp.encode(root)))) == \
        sorted(reference_maximal_among(cp, above), key=member_key)
    return meets


def _algebra(corpus_dir, size):
    """The corpus algebra b<size>, or for "16_table" the powerset of four
    atoms in table form."""
    if size == "16_table":
        return parse_algebra(_table_powerset(4, 0))
    return parse_algebra(load_json(str(corpus_dir / f"b{size}.json")))


@pytest.mark.parametrize("size", [2, 4, 8, 16, "16_table"])
def test_positivity_walk_matches_the_oracle_walk_on_algebras(corpus_dir,
                                                              size):
    cp, report = cp_from_algebra(_algebra(corpus_dir, size))
    pi = assert_walks_agree(cp)
    assert report["members"] == len(pi)
    assert convert_to_explicit(cp).family == tuple(pi)


def test_positivity_walk_matches_the_oracle_walk_on_corpus_families(
        corpus_dir):
    def load(name, parse):
        return parse(load_json(str(corpus_dir / name)))

    m4 = load("four_element_model.json", parse_model)
    two = load("two_point_model.json", parse_model)
    los = [f for f in load("los_pool.json", parse_pool) if is_sentence(f)]
    d, c0, c1 = Const("d"), Const("c0"), Const("c1")
    theory = split_constant_theory() + [Eq(d, c0), Eq(d, c1), Eq(c0, c1)]
    r = Atom("R", (Var("v0"),))
    families = [cp_from_model(m4, los), cp_from_model(m4, theory),
                cp_from_model(two, seeds=[Exists(("v0",), r),
                                          Forall(("v0",), Or((r, Not(r))))])]
    sizes = [len(assert_walks_agree(cp)) for cp in families]
    assert min(sizes) > 4
    # the explicit corpus families keep the plain inclusion test
    for name in _CORPUS_FAMILIES:
        cp = load(f"{name}.json", parse_cp)
        sets = reference_members_of(cp)
        assert list(map(cp.decode, maximal_members(cp))) == sorted(
            (m for m in sets if not any(m < o for o in sets)), key=member_key)


# --- emission -----------------------------------------------------------------

def reference_emit_cp(cp):
    """emit_cp as it was: members sorted as sentence lists by size, then by
    their canonical forms."""
    members = sorted(
        (sorted(m, key=Formula.key) for m in reference_members_of(cp)),
        key=lambda m: (len(m), [f.key() for f in m]))
    emit = functools.cache(emit_formula)
    return {
        "signature": emit_signature(cp.signature),
        "fresh_constants": sorted(cp.fresh_constants),
        "family": [[emit(f) for f in m] for m in members],
        "pool": [emit(f) for f in sorted(cp.pool, key=Formula.key)],
    }


def assert_emission_matches(cp):
    want = json.dumps(reference_emit_cp(cp), sort_keys=True, indent=2)
    assert cp_text(cp) == want + "\n"


def test_emission_matches_the_sentence_set_emission(corpus_dir):
    families = [convert_to_explicit(cp_from_algebra(
        _algebra(corpus_dir, size))[0]) for size in (4, 8, 16, "16_table")]
    families += [parse_cp(load_json(str(corpus_dir / f"{name}.json")))
                 for name in _CORPUS_FAMILIES]
    for cp in families:
        assert_emission_matches(cp)


_closed = formulas().map(lambda f: Forall(tuple(sorted(f.free_vars())), f)
                         if f.free_vars() else f)


@st.composite
def explicit_families(draw):
    """A family over a few sentences, members and pool possibly empty or
    repeated."""
    sentences = draw(st.lists(_closed, max_size=5, unique_by=Formula.key))
    some = st.lists(st.sampled_from(sentences), max_size=4) if sentences \
        else st.just([])
    family = draw(st.lists(some.map(frozenset), max_size=6))
    fresh = draw(st.lists(st.sampled_from(["e0", "e1"]), unique=True))
    return ConsistencyProperty(Signature((("R", 1), ("Q", 2)), ("c", "d")),
                               tuple(fresh), tuple(draw(some)),
                               family=tuple(family))


R_C = Atom("R", (Const("c"),))


@settings(max_examples=150, deadline=None)
@given(explicit_families())
@example(ConsistencyProperty(Signature((("R", 1),), ("c",)), (), (),
                             family=(frozenset(), frozenset({R_C}))))
@example(ConsistencyProperty(Signature((("R", 1),), ("c",)), ("e0",),
                             (R_C, R_C), family=()))
def test_emission_matches_on_random_families(cp):
    assert_emission_matches(cp)


def test_emission_writes_no_chunk_over_a_mebibyte(corpus_dir):
    cp = convert_to_explicit(cp_from_algebra(_algebra(corpus_dir, 16))[0])
    sizes = []
    emit_cp(cp, lambda text: sizes.append(len(text)))
    assert sum(sizes) > 16 << 20 and max(sizes) <= 1 << 20


# --- counting, levels and canonical reading -----------------------------------

def assert_count_and_levels_agree(cp):
    """member_count counts the level walk's rows, and the rows are the
    family in the order emission once sorted it into: distinct, each with
    the nonzero meet of its sentences' values, and closed under adding a
    pool sentence whose value meets that meet."""
    rows = list(members_by_level(cp))
    assert member_count(cp) == len(rows)
    bits = [b for b, _, _ in rows]
    assert bits == sorted(sorted(set(bits)), key=len)
    meets = {}
    for b, meet, _ in rows:
        assert meet == functools.reduce(
            int.__and__, map(cp.masks.__getitem__, b), cp.model.algebra.one)
        meets[sum(1 << i for i in b)] = meet
    assert all(meets.values())
    for m, meet in meets.items():
        for i in _bits(cp.pool_mask & ~m):
            assert bool(meet & cp.masks[i]) == (m | 1 << i in meets)


def test_counts_and_level_walks_match_the_walk_on_algebras(corpus_dir):
    for alg in reverse_algebras(corpus_dir):
        assert_count_and_levels_agree(cp_from_algebra(alg)[0])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(model_pool()),
       st.lists(st.sampled_from([f for f in formula_pool() if is_sentence(f)]),
                max_size=8))
def test_counts_and_level_walks_match_the_walk_on_drawn_pools(model, pool):
    assert_count_and_levels_agree(cp_from_model(model, pool))


def assert_reads_back_in_file_order(cp, path, ordered=True):
    """A positivity family and the file emit_cp writes for it hold the same
    members in the same order, and check_cp reports the same on both. The
    top-level findings are compared in order when the sentences of cp hold
    their And/Or children in the order a file does, as a set otherwise:
    Ind.2 and Str.2 findings follow that order (see CHANGES.md)."""
    path.write_text(cp_text(cp))
    explicit, back = convert_to_explicit(cp), read_cp(str(path))
    assert explicit.family == back.family
    reports = check_cp(explicit, True), check_cp(back, True)
    if not ordered:
        for report in reports:
            report["violations"].sort(key=repr)
    assert reports[0] == reports[1]


def test_positivity_families_read_back_from_their_files_in_order(
        corpus_dir, tmp_path):
    for alg in reverse_algebras(corpus_dir):
        assert_reads_back_in_file_order(cp_from_algebra(alg)[0],
                                        tmp_path / "family.json")


_DRAWN_SENTENCES = [f for f in formula_pool() if is_sentence(f)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(model_pool()),
       st.lists(st.sampled_from(_DRAWN_SENTENCES), max_size=8))
def test_drawn_positivity_families_read_back_from_their_files_in_order(
        tmp_path_factory, model, pool):
    assert_reads_back_in_file_order(cp_from_model(model, pool),
                                    tmp_path_factory.mktemp("drawn")
                                    / "family.json", ordered=False)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(model_pool()),
       st.lists(st.sampled_from([parse_formula(emit_formula(f))
                                 for f in _DRAWN_SENTENCES]), max_size=8))
def test_drawn_file_order_families_report_in_file_order(
        tmp_path_factory, model, pool):
    """The drawn sentences as a file holds them: the findings come in one
    order, whatever the string-hash seed."""
    assert_reads_back_in_file_order(cp_from_model(model, pool),
                                    tmp_path_factory.mktemp("drawn")
                                    / "family.json")


def _read_outcome(read, path):
    """The fields of the family read from the path, or its error line."""
    try:
        cp = read(str(path))
    except ParseError as exc:
        return str(exc)
    return cp.signature, cp.fresh_constants, cp.pool, cp.family, cp.sentences


def assert_reads_as_parse_cp(monkeypatch, path, canonical):
    """read_cp reads the file as parse_cp(load_json()) does, and takes
    that path exactly when the text is not canonical."""
    want = _read_outcome(lambda p: parse_cp(load_json(p)), path)
    general = []
    monkeypatch.setattr(iojson, "load_json",
                        lambda p: general.append(p) or load_json(p))
    assert _read_outcome(read_cp, path) == want
    monkeypatch.undo()
    assert len(general) == (0 if canonical else 1)
    return want


def test_read_cp_reads_canonical_families_without_parse_cp(
        corpus_dir, tmp_path, monkeypatch):
    paths = [corpus_dir / f"{name}.json" for name in _CORPUS_FAMILIES]
    for size in (2, 4, 8, 16):
        paths.append(tmp_path / f"b{size}_family.json")
        paths[-1].write_text(cp_text(cp_from_algebra(
            _algebra(corpus_dir, size))[0]))
    for path in paths:
        assert_reads_as_parse_cp(monkeypatch, path, canonical=True)


def test_read_cp_reads_other_text_as_parse_cp(corpus_dir, tmp_path,
                                              monkeypatch):
    text = cp_text(cp_from_algebra(_algebra(corpus_dir, 4))[0])
    obj = json.loads(text)
    head, pool, tail = text.partition('\n  "pool": [')
    variants = {
        "shuffled members": dict(obj, family=obj["family"][::-1]),
        "re-indented": json.dumps(obj, sort_keys=True, indent=4),
        "no pool": {k: v for k, v in obj.items() if k != "pool"},
        "duplicate key": head + '\n  "pool": [],' + pool + tail,
        "trailing space": text + " ",
        "trailing text": text + "x",
        "undeclared relation": text.replace('"inG"', '"inH"', 1),
    }
    errors = []
    for name, variant in variants.items():
        path = tmp_path / f"{name}.json"
        path.write_text(variant if isinstance(variant, str)
                        else json.dumps(variant, sort_keys=True, indent=2)
                        + "\n")
        got = assert_reads_as_parse_cp(monkeypatch, path, canonical=False)
        if isinstance(got, str):
            errors.append(name)
    assert errors == ["trailing text", "undeclared relation"]


# --- the forcing side ---------------------------------------------------------

def reference_maximal_members(cp, root=frozenset()):
    """maximal_members as it was: the inclusion-maximal sentence sets among
    the members holding the root, sorted by their sentences' keys."""
    above = [m for m in reference_members_of(cp) if root <= m]
    if cp.family is not None:
        maxes = [m for m in above if not any(m < o for o in above)]
    else:
        maxes = reference_maximal_among(cp, above)
    return sorted(maxes, key=member_key)


def reference_forcing_poset_conditions(cp, root=frozenset()):
    """Every subset of a maximal member above the root that holds the root,
    sorted by its sentences' keys."""
    out = set()
    for m in reference_maximal_members(cp, root):
        rest = sorted(m - root, key=Formula.key)
        for k in range(len(rest) + 1):
            out.update(root | frozenset(c)
                       for c in itertools.combinations(rest, k))
    return sorted(out, key=member_key)


def reference_dense_sets(cp):
    """The dense-set roster by its definition, (kind, name, guard, triggers)
    over sentence sets: a disjunctive pool sentence and its disjuncts, an
    existential one and its fresh instances, a base constant d and the
    sentences c=d with c fresh."""
    out = []
    for f in cp.pool:
        if isinstance(f, Or):
            out.append(("disjunction", f.key(), {f}, set(f.children)))
        elif isinstance(f, Exists):
            out.append(("existential", f.key(), {f},
                        set(instances(f, cp.fresh_constants))))
    for d in cp.signature.constants:
        out.append(("constant", d, set(), {Eq(Const(c), Const(d))
                                           for c in cp.fresh_constants}))
    return out


def reference_generic_filter(cp, root=frozenset()):
    """generic_filter as it was on sentence sets: the least minimal
    condition below the root and the dense-set report."""
    maxes = reference_maximal_members(cp, root)
    if not maxes:
        raise ValueError("the root is not a condition of the forcing poset")
    minimum = maxes[0]
    report = []
    for kind, name, guard, triggers in reference_dense_sets(cp):
        dense = all(not guard <= m or triggers & m for m in maxes)
        met = bool(triggers & minimum)
        report.append({"kind": kind, "name": name, "dense_below_root": dense,
                       "met": met})
    return minimum, tuple(report)


def reference_verify_claim1(cp, root=frozenset()):
    """verify_claim1 as it was, on the completion of the forcing poset of
    sentence sets; also each pool sentence's L-value as a set of sets."""
    conds = reference_forcing_poset_conditions(cp, root)
    alg, emb = ro_completion(FinPoset(
        conds, [(p, q) for p in conds for q in conds if q <= p]))
    cond_set = set(conds)
    lvals = {f: alg.sup(emb[t] for t in conds if f in t) for f in cp.pool}
    checked = skipped = 0
    failures = []
    for s in conds:
        exts = [t for t in conds if s <= t]
        for f in cp.pool:
            if all(t | {f} in cond_set for t in exts):
                checked += 1
                if not alg.leq(emb[s], lvals[f]):
                    failures.append({"condition": member_key(s),
                                     "sentence": f.key()})
            else:
                skipped += 1
    claim = {"ok": not failures, "checked": checked, "skipped": skipped,
             "failures": failures}
    return claim, {f: alg.label(v) for f, v in lvals.items()}


def shared_sentence_family():
    """The empty member and two maximal members {a, b} and {a, c} over fresh
    c0, c1: at the empty root the L-value of a joins both atoms, while every
    condition holding a besides {a} lies below one of them."""
    a, b, c = (Eq(Const(x), Const(y))
               for x, y in (("c0", "c0"), ("c0", "c1"), ("c1", "c1")))
    return ConsistencyProperty(Signature((), ()), ("c0", "c1"), (a, b, c),
                               family=(frozenset(), frozenset({a, b}),
                                       frozenset({a, c})))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 200) - 1),
                max_size=40))
@example(list(range(1 << 12)))
def test_the_bit_order_key_sorts_as_the_bit_lists(masks):
    """`_bit_order`, which builds no list, orders masks as their `_bits`
    lists do: every mask below 2^12, and drawn ones up to 200 bits."""
    assert sorted(masks, key=_bit_order) == sorted(masks, key=_bits)


def _forcing_families(corpus_dir):
    fams = {name: parse_cp(load_json(str(corpus_dir / f"{name}.json")))
            for name in _CORPUS_FAMILIES}
    return {**fams, "two_member": two_member_family(),
            "shared_sentence": shared_sentence_family()}


def test_forcing_side_matches_the_sentence_set_paths(corpus_dir):
    """At every root of every corpus family and of the two made-up ones:
    maximal members, conditions and the generic filter on ints, decoded,
    equal the sentence-set paths, and so do the dense-set roster and the
    decoded labels of the condition algebra."""
    roots = 0
    for name, cp in _forcing_families(corpus_dir).items():
        interned = set(cp.sentences)
        assert [(e["kind"], e["name"], cp.decode(e["guard"]),
                 cp.decode(e["triggers"])) for e in dense_sets(cp)] == [
            (kind, n, guard, triggers & interned)
            for kind, n, guard, triggers in reference_dense_sets(cp)]
        for root in cp.family:
            ref_root = cp.decode(root)
            maxes = maximal_members(cp, root)
            assert list(map(cp.decode, maxes)) == \
                reference_maximal_members(cp, ref_root), name
            conds = forcing_poset_conditions(maxes, root)
            assert list(map(cp.decode, conds)) == \
                reference_forcing_poset_conditions(cp, ref_root), name
            gf = generic_filter(cp, root)
            assert (cp.decode(gf.minimum), gf.dense_report) == \
                reference_generic_filter(cp, ref_root), name
            roots += 1
    assert roots == 310 + 2 + 3   # the corpus families, then the others


def reference_condition_algebra(cp, root=0):
    """condition_algebra as it was: the forcing poset below the root
    completed by ro_completion, the completion's labels mapped back to sets
    of sentence sets, and a sentence's L-value one OR per bit of each
    condition. Returns the conditions, the embedding, the relabelled
    algebra and the L-values."""
    conds = forcing_poset_conditions(maximal_members(cp, root), root)
    algebra, emb = ro_completion(forcing_poset(conds))
    sets = {t: cp.decode(t) for t in conds}
    labels = tuple(frozenset(map(sets.__getitem__, algebra.label(x)))
                   for x in range(algebra.one + 1))
    lv = [algebra.zero] * len(cp.sentences)
    for t in conds:
        for b in _bits(t):
            lv[b] |= emb[t]
    return (tuple(conds), emb, algebra.elements, labels,
            dict(zip(cp.sentences, lv)))


def test_condition_algebra_matches_the_completion(corpus_dir):
    """At every root of every corpus family, of the shared-sentence family
    and of the two-member families up to 256 conditions, the algebra read
    off the maximal members is the completion of the forcing poset."""
    families = [*_forcing_families(corpus_dir).values(),
                *map(two_member_family, range(1, 9))]
    roots = 0
    for cp in families:
        for root in cp.family:
            ca = condition_algebra(cp, root)
            assert ca.minimal == tuple(sorted(maximal_members(cp, root),
                                              key=repr))
            assert (ca.conditions, ca.embedding, ca.algebra.elements,
                    reference_labels(ca.algebra), ca.l_values) == \
                reference_condition_algebra(cp, root)
            assert_labels_match(ca.algebra)
            roots += 1
    assert roots == 310 + 2 + 3 + 2 * 8


@pytest.mark.parametrize("name", _CORPUS_FAMILIES + ("two_member",
                                                    "shared_sentence"))
def test_claim1_matches_the_sentence_set_path(corpus_dir, name):
    """Claim 1 and the pool sentences' L-values at every root; for the
    two-member families, at k = 2..8 (4 to 256 conditions at root 0)."""
    families = list(map(two_member_family, range(2, 9))) \
        if name == "two_member" else [_forcing_families(corpus_dir)[name]]
    for cp in families:
        for root in cp.family:
            built = {"conditions": condition_algebra(cp, root)}
            ca = built["conditions"]
            claim, labels = reference_verify_claim1(cp, cp.decode(root))
            assert verify_claim1(cp, built) == claim
            assert {f: ca.algebra.label(ca.l_value(f)) for f in cp.pool} \
                == labels
    if name == "two_member":
        assert len(condition_algebra(cp, cp.family[0]).conditions) == 256


# --- soundness sampling -------------------------------------------------------

def assert_samplers_agree(goal, **bounds):
    """Both samplers give the same report; returns the sample index of the
    first violation, or None."""
    def report(rep):
        return (rep["ok"], rep["samples"],
                [(v["sample"], v["assignment"], dumps(emit_model(v["model"])))
                 for v in rep["violations"]])

    got = report(soundness_sample(goal, **bounds))
    assert got == report(reference_soundness_sample(goal, **bounds))
    return got[2][0][0] if got[2] else None


@pytest.mark.parametrize("bounds", [{}, {"max_atoms": 3, "max_domain": 4}],
                         ids=["default", "3x4"])
def test_soundness_sample_matches_reference_on_corpus_proofs(corpus_dir,
                                                             bounds):
    goals = [parse_proof(load_json(str(path))).goal
             for path in sorted(corpus_dir.glob("proof_*.json"))]
    assert len(goals) == 13
    for goal in goals:
        for seed in (0, 1):
            assert_samplers_agree(goal, samples=200, seed=seed, **bounds)


def quotient_space(goal, max_domain):
    """The quotients a sample of the goal can draw at one atom."""
    sig = infer_signature(list(goal.ante) + list(goal.succ))
    return sum(quotient_count(sig, k) for k in range(1, max_domain + 1))


@pytest.mark.parametrize("samples", [25, 2000])
def test_soundness_sample_matches_reference_on_small_quotient_spaces(
        corpus_dir, samples):
    """At 3 atoms and 4 elements each corpus goal has 4 to 1,252 quotients,
    so at 2,000 samples every space is decided whole, and at 25 some are
    decided whole and the rest drawn."""
    goals = [parse_proof(load_json(str(path))).goal
             for path in sorted(corpus_dir.glob("proof_*.json"))]
    spaces = {quotient_space(goal, 4) <= samples for goal in goals}
    assert spaces == ({True} if samples == 2000 else {True, False})
    for goal in goals:
        for seed in (0, 1):
            assert_samplers_agree(goal, samples=samples, seed=seed,
                                  max_atoms=3, max_domain=4)


def test_soundness_sample_draws_a_failing_goal_of_a_small_space(corpus_dir):
    """A failing quotient in a space no larger than the samples sends the
    sampler back to its draws, which find the reference's countermodel."""
    goals = [Sequent((), {Atom("R", (Const("c"),))}), parse_proof(load_json(
        str(corpus_dir / "proof_unprovable_goal.json"))).goal]
    for goal in goals:
        assert quotient_space(goal, 3) <= 100
        for seed in (0, 1, 2):
            assert assert_samplers_agree(goal, samples=100,
                                         seed=seed) is not None


def test_a_sound_goal_of_a_small_space_draws_no_sample(corpus_dir, manifest,
                                                       monkeypatch):
    """The seven proofs the manifest samples, at 3 atoms and 4 elements, as
    the search workload of the benchmark samples them."""
    import infkit.calculus
    draws = []
    draw = infkit.calculus.random_quotients
    monkeypatch.setattr(infkit.calculus, "random_quotients",
                        lambda *args: draws.append(1) or draw(*args))
    bounds = {"samples": 2000, "max_atoms": 3, "max_domain": 4}
    files = [e["file"] for e in manifest["entries"]
             if e["kind"] == "proof" and e["expect"].get("sound_samples")]
    assert len(files) == 7
    for name in files:
        goal = parse_proof(load_json(str(corpus_dir / name))).goal
        assert soundness_sample(goal, **bounds)["ok"]
    assert draws == []
    unprovable = parse_proof(load_json(
        str(corpus_dir / "proof_unprovable_goal.json"))).goal
    assert assert_samplers_agree(unprovable, **bounds) is not None
    assert draws


def test_quotients_are_counted_and_drawn_ones():
    """The listing has the counted length, and every quotient a draw
    reaches on k classes is in it."""
    rng = random.Random(16)
    for sig in (Signature((), ()), Signature((("R", 1),), ("c",)), _RQ_CD):
        listed = {k: set(quotients(sig, k)) for k in range(1, 4)}
        assert [len(listed[k]) for k in listed] \
            == [quotient_count(sig, k) for k in listed]
        for _ in range(200):
            _, per_atom, consts = random_quotients(rng, sig, 2, 3)
            for rgs, tables in per_atom:
                assert (tables, tuple(rgs[k] for k in consts)) \
                    in listed[max(rgs) + 1]
    assert quotient_count(_RQ_CD, 8) == 0       # 72 table bits


_fragment_terms = st.one_of(st.sampled_from(["v0", "v1"]).map(Var),
                            st.just(Const("c")))


@st.composite
def fragment_formulas(draw, depth=2):
    """Formulas of the calculus fragment over R/1 and Q/2, with free
    variables among v0 and v1."""
    kind = draw(st.integers(0, 5 if depth else 2))
    if kind == 0:
        return Atom("R", (draw(_fragment_terms),))
    if kind == 1:
        return Atom("Q", (draw(_fragment_terms), draw(_fragment_terms)))
    if kind == 2:
        return Eq(draw(_fragment_terms), draw(_fragment_terms))
    sub = fragment_formulas(depth=depth - 1)
    if kind == 3:
        return Not(draw(sub))
    if kind == 4:
        return And(tuple(draw(st.lists(sub, max_size=2))))
    return Forall((draw(st.sampled_from(["v0", "v1"])),), draw(sub))


_sides = st.lists(fragment_formulas(), max_size=2).map(frozenset)


@settings(max_examples=60, deadline=None)
@given(_sides, _sides)
# unsound, with a countermodel under some assignments only
@example(frozenset({Atom("R", (Var("v0"),))}),
         frozenset({Atom("Q", (Var("v0"), Const("c")))}))
def test_soundness_sample_matches_reference_on_drawn_sequents(ante, succ):
    goal = Sequent(ante, succ)
    for seed in (0, 1, 2):
        assert_samplers_agree(goal, samples=60, seed=seed, max_atoms=3,
                              max_domain=3)


def test_unranking_gives_the_listed_partition():
    for n in range(8):
        listed = reference_partitions(n)
        assert _growth_counts(n)[n][0] == len(listed)
        assert [_unrank_partition(n, r) for r in range(len(listed))] == \
            listed == list(_partitions(n))
    assert [_growth_counts(n)[n][0] for n in (12, 13, 40)] == \
        [4_213_597, 27_644_437, 157_450_588_391_204_931_289_324_344_702_531_067]


_RQ_CD = Signature((("Q", 2), ("R", 1)), ("c", "d"))


@settings(max_examples=150, deadline=None)
@given(formulas(), st.integers(0, 2 ** 32))
@example(Forall(("v0",), Or((Eq(Var("v0"), Const("c")), Atom(
    "Q", (Var("v0"), Const("d")))))), 0)
def test_quotient_truth_matches_the_one_atom_model(f, seed):
    """Truth on the quotient's data equals the value one in its one-atom
    model, at every atom of random structures with 1 to 4 elements and
    under random classes for the free variables."""
    rng = random.Random(seed)
    truth = quotient_truth(_RQ_CD)
    free = sorted(f.free_vars())
    for _ in range(3):
        _, per_atom, consts = random_quotients(rng, _RQ_CD, 2, 4)
        for rgs, tables in per_atom:
            key = (max(rgs) + 1, tables, tuple(rgs[k] for k in consts))
            env = {v: rng.randrange(key[0]) for v in free}
            assert truth(f, *key, env) == \
                reference_truth(_RQ_CD, f, *key, env)


_c, _d, _v0, _v1 = Const("c"), Const("d"), Var("v0"), Var("v1")


def _q(a, b):
    return Atom("Q", (a, b))


# Unsound goals over Q/2 and the constants c and d, whose first
# countermodel is rarely the first sample.
LATE_COUNTERMODELS = {
    "total": Sequent({Forall(("v0",), _q(_v0, _c))},
                     {Forall(("v0", "v1"), _q(_v0, _v1))}),
    "two_way": Sequent({_q(_c, _d), _q(_d, _c)}, {_q(_c, _c), Eq(_c, _d)}),
    "free_pair": Sequent({_q(_v0, _v1), _q(_v1, _v0)},
                         {Eq(_v0, _v1), _q(_v0, _v0)}),
    "negations": Sequent({Not(_q(_c, _d)), Not(_q(_d, _c))},
                         {Eq(_c, _d), Forall(("v0",), Not(_q(_v0, _v0)))}),
}


@pytest.mark.parametrize("bounds", [{"max_atoms": 3, "max_domain": 4},
                                    {"max_atoms": 2, "max_domain": 6}],
                         ids=["3x4", "2x6"])
@pytest.mark.parametrize("name", sorted(LATE_COUNTERMODELS))
def test_soundness_sample_matches_reference_on_late_countermodels(name,
                                                                  bounds):
    firsts = [assert_samplers_agree(LATE_COUNTERMODELS[name], samples=200,
                                    seed=seed, **bounds)
              for seed in range(4)]
    assert None not in firsts and max(firsts) > 0, firsts


# --- ultrafilter quotients ---------------------------------------------------

def _quotient_cases(corpus_dir):
    """Every corpus model with a corpus pool (the two-point model with its
    domain elements named, as `max_pool` needs), and the model pool with
    the formula pool."""
    for name, pool, named in (("four_element_model", "los_pool", False),
                              ("two_point_model", "max_pool", True)):
        model = parse_model(load_json(str(corpus_dir / f"{name}.json")))
        if named:
            model = model.with_self_named_constants(model.domain)
        yield model, list(parse_pool(load_json(str(
            corpus_dir / f"{pool}.json")), sig=model.signature))
    for model in model_pool():
        yield model, formula_pool()


def test_quotients_by_atoms_match_the_filter_paths(corpus_dir):
    """At every atom the principal filter is an ultrafilter, and the
    quotient and the Los check by the atom are those by its filter."""
    cases = 0
    for model, pool in _quotient_cases(corpus_dir):
        alg = model.algebra
        assert enumerate_ultrafilters(alg) == sorted(
            alg.atoms(), key=lambda a: repr(alg.label(a)))
        for atom in alg.atoms():
            ultra = principal_filter(alg, atom)
            assert is_ultrafilter(alg, ultra)
            assert quotient(model, atom) == reference_quotient(model, ultra)
            assert los_check(model, quotient(model, atom), atom, pool) == \
                reference_los_check(model, ultra, pool)
            cases += 1
    assert cases == 3 + 2 * (1 + 2 + 3) * 3


@pytest.mark.parametrize("invalid", [_m4_without_eq_row,
                                     _two_point_identified])
def test_an_invalid_quotient_is_refused_as_by_the_filter_path(corpus_dir,
                                                              invalid):
    """The same quotient or the same error, with its text, at every atom."""
    model = parse_model(invalid(corpus_dir))
    outcomes = []
    for atom in model.algebra.atoms():
        ultra = principal_filter(model.algebra, atom)
        outcomes.append(_refusal(quotient, model, atom))
        assert outcomes[-1] == _refusal(reference_quotient, model, ultra)
    assert any(isinstance(o, tuple) for o in outcomes)


def _refusal(fn, *args):
    try:
        return fn(*args)
    except (ImproperFilter, ValueError) as exc:
        return type(exc), str(exc)


# --- serialization ------------------------------------------------------------

_scalars = (st.none() | st.booleans()
            | st.integers(-2 ** 80, 2 ** 80)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(st.characters(), max_size=8))
_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=4)),
    max_leaves=12)


def assert_dump_matches(obj) -> list[str]:
    """The texts `dump` writes for obj, checked against the stdlib."""
    want = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    chunks = []
    dump(obj, chunks.append)
    assert "".join(chunks) == want and all(chunks)
    assert dumps(obj) == want
    return chunks


@settings(max_examples=50, deadline=None)
@given(_values, _values)
def test_dumps_matches_the_stdlib_encoder(value, shared):
    # the same container object at two different depths, and twice at one
    assert_dump_matches({"value": value, "a": shared,
                         "b": [shared, {"c": shared}]})
    assert_dump_matches(value)


@pytest.mark.parametrize("n", [255, 256, 257, 513])
def test_dump_writes_streamed_levels_in_chunks(n):
    items = [[i, str(i)] for i in range(n)]
    # every depth is written in chunks
    assert len(assert_dump_matches({"a": items})) > 1
    assert len(assert_dump_matches([items])) > 1
    assert len(assert_dump_matches({"a": {"b": items}})) > 1
    assert len(assert_dump_matches([[items]])) > 1
    # a list of strings at depth 3 is one join, so chunks end between rows
    rows = [[str(i), str(-i)] for i in range(n)]
    chunks = assert_dump_matches({"a": {"b": rows}})
    assert len(chunks) > 1
    assert all(c.endswith("\n      ]") for c in chunks[:-1])
    # a list that mixes strings and containers, led by a string
    assert_dump_matches({"a": [[str(i) if i % 3 else {"k": [str(i)]}
                                for i in range(1, n)]]})
    # one container at several depths
    shared = [{"k": i} for i in range(n)]
    assert_dump_matches({"a": shared, "b": [shared, {"c": shared}]})
    assert_dump_matches([shared, shared, [shared]])


@pytest.mark.parametrize("obj", [{}, [], (), 0, -1.5, "x", None, True,
                                 float("nan")])
def test_dump_writes_an_empty_container_or_a_scalar_at_once(obj):
    assert len(assert_dump_matches(obj)) == 1


def test_dumps_covers_special_values():
    assert_dump_matches({"é \x00\x1f\"\\": [
        float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 2 ** 100,
        True, False, None, [], {}, ()]})


@pytest.mark.parametrize("obj", [{1: "a"}, [{"a": {None: 1}}], {"a": {1.5}},
                                 [{2: 1}], [[{"a": object()}]]])
def test_dumps_rejects_what_it_cannot_encode(obj):
    with pytest.raises(TypeError):
        dumps(obj)
    with pytest.raises(TypeError):
        dump(obj, lambda text: None)


def test_the_b8_report_is_written_in_bounded_memory(corpus_dir):
    """The b8 check-cp report (2.7 MB of text) goes out in writes of at most
    1 MiB, holding under 2 MB at once; its text as one string peaked at
    9.2 MB (Python 3.11)."""
    parts = []
    emit_cp(convert_to_explicit(cp_from_algebra(_algebra(corpus_dir, 8))[0]),
            parts.append)
    report = check_cp(parse_cp(json.loads("".join(parts))))
    sizes = []
    tracemalloc.start()
    try:
        dump(report, lambda text: sizes.append(len(text)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sizes) > 2_500_000 and max(sizes) <= 1 << 20
    assert peak < 2_000_000


# --- formula walkers ------------------------------------------------------------

def reference_validate_formula(f, sig, extra_constants=frozenset()):
    consts = set(sig.constants) | extra_constants

    def walk(g):
        if isinstance(g, Atom):
            if not sig.has_relation(g.rel):
                raise ValueError(f"undeclared relation {g.rel!r}")
            if len(g.args) != sig.arity(g.rel):
                raise ValueError(
                    f"relation {g.rel} expects {sig.arity(g.rel)} arguments, "
                    f"got {len(g.args)}")
            for t in g.args:
                if isinstance(t, Const) and t.name not in consts:
                    raise ValueError(f"undeclared constant {t.name!r}")
        elif isinstance(g, Eq):
            for t in (g.left, g.right):
                if isinstance(t, Const) and t.name not in consts:
                    raise ValueError(f"undeclared constant {t.name!r}")
        elif isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, (And, Or)):
            for c in g.children:
                walk(c)
        elif isinstance(g, (Forall, Exists)):
            walk(g.body)
        else:
            raise ValueError(f"not a formula node: {g!r}")

    walk(f)


def reference_subformulas(f):
    out = set()

    def walk(g):
        if g in out:
            return
        out.add(g)
        if isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, (And, Or)):
            for c in g.children:
                walk(c)
        elif isinstance(g, (Forall, Exists)):
            walk(g.body)

    walk(f)
    return out


def reference_substitute(f, mapping):
    def sub_term(t, m):
        if isinstance(t, Var) and t.name in m:
            return m[t.name]
        return t

    def walk(g, m):
        m = {v: t for v, t in m.items() if v in g.free_vars()}
        if not m:
            return g
        if isinstance(g, Atom):
            return Atom(g.rel, tuple(sub_term(t, m) for t in g.args))
        if isinstance(g, Eq):
            return Eq(sub_term(g.left, m), sub_term(g.right, m))
        if isinstance(g, Not):
            return Not(walk(g.body, m))
        if isinstance(g, And):
            return And(tuple(walk(c, m) for c in g.children))
        if isinstance(g, Or):
            return Or(tuple(walk(c, m) for c in g.children))
        if isinstance(g, (Forall, Exists)):
            inner = {v: t for v, t in m.items() if v not in g.vars}
            for v, t in inner.items():
                if isinstance(t, Var) and t.name in g.vars:
                    raise CaptureError(
                        f"substituting {t.name} for {v} is captured by "
                        f"binder over {g.vars}")
            body = walk(g.body, inner)
            cls = Forall if isinstance(g, Forall) else Exists
            return cls(g.vars, body)
        raise ValueError(f"not a formula node: {g!r}")

    return walk(f, dict(mapping))


def reference_replace_const(f, old, new):
    def sub_term(t):
        return new if isinstance(t, Const) and t.name == old else t

    if isinstance(f, Atom):
        return Atom(f.rel, tuple(sub_term(t) for t in f.args))
    if isinstance(f, Eq):
        return Eq(sub_term(f.left), sub_term(f.right))
    if isinstance(f, Not):
        return Not(reference_replace_const(f.body, old, new))
    if isinstance(f, And):
        return And(tuple(reference_replace_const(c, old, new)
                         for c in f.children))
    if isinstance(f, Or):
        return Or(tuple(reference_replace_const(c, old, new)
                        for c in f.children))
    if isinstance(f, (Forall, Exists)):
        if isinstance(new, Var) and new.name in f.vars:
            raise CaptureError(
                f"constant {old} generalized into bound {new.name}")
        return type(f)(f.vars, reference_replace_const(f.body, old, new))
    raise ValueError(f"not a formula node: {f!r}")


def reference_constants_of(f):
    out = set()

    def walk(g):
        if isinstance(g, Atom):
            out.update(t.name for t in g.args if isinstance(t, Const))
        elif isinstance(g, Eq):
            out.update(t.name for t in (g.left, g.right)
                       if isinstance(t, Const))
        elif isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, (And, Or)):
            for c in g.children:
                walk(c)
        elif isinstance(g, (Forall, Exists)):
            walk(g.body)

    walk(f)
    return frozenset(out)


def reference_occurrence_variants(f, old, new):
    def term_alts(t):
        if isinstance(t, Const) and t.name == old:
            return [t, Const(new)]
        return [t]

    def walk(g):
        if isinstance(g, Atom):
            return [Atom(g.rel, args) for args in
                    itertools.product(*(term_alts(t) for t in g.args))]
        if isinstance(g, Eq):
            return [Eq(l, r) for l in term_alts(g.left)
                    for r in term_alts(g.right)]
        if isinstance(g, Not):
            return [Not(b) for b in walk(g.body)]
        if isinstance(g, (And, Or)):
            return [type(g)(ch) for ch in
                    itertools.product(*(walk(c) for c in g.children))] \
                if g.children else [g]
        if isinstance(g, (Forall, Exists)):
            return [type(g)(g.vars, b) for b in walk(g.body)]
        raise ValueError(f"not a formula node: {g!r}")

    return [g for g in dict.fromkeys(walk(f)) if g != f]


def reference_infer_signature(formulas):
    rels = {}
    consts = set()

    def walk(g):
        if isinstance(g, Atom):
            if g.rel in rels and rels[g.rel] != len(g.args):
                raise ArityClash(f"relation {g.rel} used at two arities")
            rels[g.rel] = len(g.args)
            consts.update(t.name for t in g.args if isinstance(t, Const))
        elif isinstance(g, Eq):
            consts.update(t.name for t in (g.left, g.right)
                          if isinstance(t, Const))
        elif isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, (And, Or)):
            for c in g.children:
                walk(c)
        elif isinstance(g, (Forall, Exists)):
            walk(g.body)

    for f in formulas:
        walk(f)
    return Signature(tuple(sorted(rels.items())), tuple(sorted(consts)))


def reference_in_calculus_fragment(f):
    if isinstance(f, (Atom, Eq)):
        return True
    if isinstance(f, Not):
        return reference_in_calculus_fragment(f.body)
    if isinstance(f, And):
        return all(reference_in_calculus_fragment(c) for c in f.children)
    if isinstance(f, Forall):
        return reference_in_calculus_fragment(f.body)
    return False


def _exact(x):
    """x spelled out node by node, children and terms in their own order
    (formula equality ignores the order of And/Or children)."""
    if isinstance(x, (list, tuple)):
        return tuple(_exact(y) for y in x)
    if isinstance(x, Record):
        return (type(x).__name__,) + tuple(
            _exact(getattr(x, name)) for name in x._fields)
    return x


def _outcome(fn, *args):
    """What fn returns, spelled out, or the type and text of what it raises."""
    try:
        return "returned", _exact(fn(*args))
    except (ValueError, CaptureError) as exc:
        return type(exc), str(exc)


# Every drawn formula fits the first signature; the others lack a relation
# or a constant, or give a relation another arity.
_SIGNATURES = (
    Signature((("R", 1), ("Q", 2)), ("c", "d")),
    Signature((("R", 1),), ("c",)),
    Signature((("R", 2), ("Q", 2)), ("d",)),
)
_TERMS = (Const("c"), Const("d"), Var("v0"), Var("v1"), Var("w"))
_mappings = st.dictionaries(st.sampled_from(["v0", "v1", "w"]),
                            st.sampled_from(_TERMS), max_size=3)


@settings(max_examples=300, deadline=None)
@given(formulas(), _mappings)
# two entries captured by one binder: the first in mapping order is named
@example(Forall(("w",), Atom("Q", (Var("v0"), Var("v1")))),
         {"v1": Var("w"), "v0": Var("w")})
def test_formula_walkers_match_their_reference_paths(f, mapping):
    assert list(subformulas(f)) == list(reference_subformulas(f))
    assert constants_of(f) == reference_constants_of(f)
    assert in_calculus_fragment(f) == reference_in_calculus_fragment(f)
    assert _outcome(substitute, f, mapping) == \
        _outcome(reference_substitute, f, mapping)
    for old in ("c", "d"):
        for new in _TERMS:
            assert _outcome(replace_const, f, old, new) == \
                _outcome(reference_replace_const, f, old, new)
    for old, new in (("c", "d"), ("d", "c")):
        got = list(occurrence_variants(f, old, new))
        assert _exact(got) == \
            _exact(list(reference_occurrence_variants(f, old, new)))
    for sig in _SIGNATURES:
        for extra in (frozenset(), frozenset({"d"})):
            assert _outcome(validate_formula, f, sig, extra) == \
                _outcome(reference_validate_formula, f, sig, extra)
    # Q at a second arity, after f's own atoms in the order
    clash = [f, And((Atom("Q", (Const("e"),)), f))]
    for formulas_ in ([f], clash):
        assert _outcome(infer_signature, formulas_) == \
            _outcome(reference_infer_signature, formulas_)


# --- the argument parser ------------------------------------------------------

def reference_build_parser() -> argparse.ArgumentParser:
    """build_parser as it was: each subcommand written out as its own
    add_parser, add_argument and set_defaults block."""
    top = argparse.ArgumentParser(
        prog="infkit",
        description="Finite-width infinitary logic over finite Boolean "
                    "algebras: evaluation, model search, consistency "
                    "properties, forcing constructions, proof checking.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula in a model")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--assign", default="",
                   help="free-variable assignment, e.g. v0=m0,v1=m1")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check-model",
                       help="algebra laws plus the equality axioms")
    p.add_argument("model")
    p.set_defaults(func=cmd_check_model)

    p = sub.add_parser("sat", help="bounded exhaustive satisfiability search")
    p.add_argument("--theory", required=True)
    p.add_argument("--mode", choices=("weak", "strong"), required=True)
    p.add_argument("--max-atoms", type=int, default=2)
    p.add_argument("--max-domain", type=int, default=3)
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("quotient",
                       help="ultrafilter quotient, optionally with the "
                            "truth-transfer check over a pool")
    p.add_argument("--model", required=True)
    p.add_argument("--ultrafilter", required=True)
    p.add_argument("--los-pool", default=None)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("check-cp",
                       help="check every consistency-property clause")
    p.add_argument("cp")
    p.add_argument("--smax", action="store_true",
                   help="also check maximality over the pool")
    p.set_defaults(func=cmd_check_cp)

    p = sub.add_parser("generic",
                       help="generic filter, term structure, realization")
    p.add_argument("--cp", required=True)
    p.add_argument("--root", type=int, required=True,
                   help="index into the family list")
    p.add_argument("--emit-model", default=None)
    p.set_defaults(func=cmd_generic)

    p = sub.add_parser("cp-from-model",
                       help="positivity family of a valid model")
    p.add_argument("--model", required=True)
    p.add_argument("--pool", required=True)
    p.set_defaults(func=cmd_cp_from_model)

    p = sub.add_parser("mansfield",
                       help="condition-algebra model from a consistency "
                            "property")
    p.add_argument("--cp", required=True)
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--pool", default=None)
    p.add_argument("--emit-model", default=None)
    p.set_defaults(func=cmd_mansfield)

    p = sub.add_parser("cp-from-algebra",
                       help="the canonical family of a finite algebra")
    p.add_argument("algebra")
    p.add_argument("--emit", action="store_true",
                   help="print the explicit family as a cp file")
    p.set_defaults(func=cmd_cp_from_algebra)

    p = sub.add_parser("roundtrip",
                       help="algebra -> family -> forcing completion "
                            "isomorphism check")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("ro", help="regular-open completion of a poset")
    p.add_argument("poset")
    p.add_argument("--brute-max", type=int, default=6,
                   help="cross-check against subset enumeration up to "
                        "this many poset elements")
    p.set_defaults(func=cmd_ro)

    p = sub.add_parser("check-proof", help="sequent-calculus proof checking")
    p.add_argument("proof")
    p.add_argument("--soundness-samples", type=int, default=0,
                   help="sample this many models against the goal")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-atoms", type=int, default=2)
    p.add_argument("--max-domain", type=int, default=3)
    p.set_defaults(func=cmd_check_proof)

    p = sub.add_parser("corpus", help="run the shipped or a custom corpus")
    p.add_argument("manifest", nargs="?", default=None)
    p.set_defaults(func=cmd_corpus)

    return top


_SUBCOMMANDS = ("eval", "check-model", "sat", "quotient", "check-cp",
                "generic", "cp-from-model", "mansfield", "cp-from-algebra",
                "roundtrip", "ro", "check-proof", "corpus")


def _argv_cases():
    """Help, argparse errors, and the one argv that runs (bare `corpus`)."""
    yield from (["--help"], ["-h"], [], ["no-such-command"], ["--version"])
    for name in _SUBCOMMANDS:
        yield from ([name, "--help"], [name], [name, "--no-such-flag"],
                    [name, "a.json", "b.json"])
    yield from (["sat", "--max-atoms", "x"], ["sat", "--max-domain", "2.5"],
                ["check-proof", "p.json", "--max-atoms", "x"],
                ["check-proof", "p.json", "--seed", "x"],
                ["check-proof", "p.json", "--soundness-samples", "x"],
                ["generic", "--cp", "c.json", "--root", "x"],
                ["mansfield", "--cp", "c.json", "--root", "x"],
                ["ro", "v.json", "--brute-max", "x"],
                ["sat", "--theory", "t.json", "--mode", "medium"],
                ["mansfield", "--cp", "c.json"])


def _surface(argv):
    """The exit code, stdout and stderr of `main`, a SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", list(_argv_cases()),
                         ids=lambda argv: " ".join(argv) or "no arguments")
def test_the_command_table_builds_the_reference_parser(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = _surface(argv)
    monkeypatch.setattr(cli, "build_parser", reference_build_parser)
    assert got == _surface(argv)


# --- the plain command-line reader -------------------------------------------

def _good_values(options):
    if "choices" in options:
        return st.sampled_from(options["choices"])
    if options.get("type") is int:
        return st.integers(0, 20).map(str)
    return st.sampled_from(["a.json", "v0=m0,v1=m1", "b c.json", ""])


_BAD_VALUES = st.sampled_from(["x", "2.5", " 7", "-5", "-1", "--", "-", "-h",
                               "medium", "--smax"])


@st.composite
def _command_lines(draw):
    """argv built from cli.COMMANDS: a valid line (every required flag, the
    positionals, some optional flags, in any order), often with a few
    pieces added or dropped: abbreviations, --flag=value, --, help,
    negative numbers and bad values, repeated and bare flags, extra
    positionals, and an unknown command name."""
    name, _, _, *arguments = draw(st.sampled_from(cli.COMMANDS))
    pieces, extra = [], [st.sampled_from(
        [["p.json"], ["--"], ["-h"], ["--help"], ["-5"], ["-"], [""]])]
    for flag, options in arguments:
        if not flag.startswith("-"):
            if options.get("nargs") != "?" or draw(st.booleans()):
                pieces.append(["p.json"])
            continue
        if options.get("action") == "store_true":
            good = st.just([flag])
            extra.append(good)
        else:
            good = _good_values(options).map(lambda v, f=flag: [f, v])
            values = st.one_of(_good_values(options), _BAD_VALUES)
            extra += [good, st.just([flag]),
                      values.map(lambda v, f=flag: [f, v]),
                      values.map(lambda v, f=flag: [f"{f}={v}"])]
        extra.append(st.integers(3, len(flag) - 1).map(lambda k, f=flag:
                                                       [f[:k]]))
        if options.get("required") or draw(st.booleans()):
            pieces.append(draw(good))
    if pieces and draw(st.booleans()):
        i = draw(st.integers(0, len(pieces) - 1))
        if len(pieces[i]) == 2 and draw(st.booleans()):
            pieces[i] = [pieces[i][0], draw(_BAD_VALUES)]
        else:
            del pieces[i]
    pieces += draw(st.lists(st.one_of(extra), max_size=2))
    head = draw(st.sampled_from([name] * 8 + ["Eval", "check", "", "-h"]))
    return [head, *itertools.chain.from_iterable(
        draw(st.permutations(pieces)))]


def _parsed(argv):
    try:
        return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        pytest.fail(f"argparse refuses {argv}")


@settings(max_examples=400, deadline=None)
@given(_command_lines())
@example(["sat", "--theory", "t.json", "--mode", "medium"])
@example(["eval", "--model", "-x", "--formula", "f.json"])
@example(["eval", "--model", "m.json", "--formula", "-h"])
@example(["eval", "--model", "m.json"])
@example(["mansfield", "--cp", "c.json"])
@example(["check-cp"])
@example(["check-cp", "a.json", "b.json"])
@example(["ro", "p.json", "--brute-max", "x"])
@example(["ro", "p.json", "--brute-max"])
@example(["ro", "p.json", "--brute", "3"])
@example(["ro", "p.json", "--brute-max=3"])
@example(["corpus", "--", "m.json"])
@example(["corpus", "m.json", "n.json"])
def test_the_plain_reader_reads_as_argparse(argv):
    args = cli._plain_args(argv)
    if args is not None:
        assert vars(args) == _parsed(argv)


def _workload_commands(tmp_path, monkeypatch):
    """The argv of every benchmark command at two seeds. perfbench is only
    read: its workload module writes the inputs under tmp_path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    corpus_dir = Path(cli.__file__).parent / "corpus"
    return [list(cmd.argv) for name in workloads.WORKLOADS for seed in (1, 2)
            for cmd in workloads.generate(name, seed, corpus_dir,
                                          tmp_path / f"{name}{seed}")]


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("infkit ")]


def test_the_plain_reader_answers_every_shipped_command_line(
        tmp_path, monkeypatch, corpus_dir, manifest):
    """The command lines of the benchmark, the manifest and README never
    build a parser."""
    readme = _readme_commands()
    assert len(readme) >= 3
    lines = _workload_commands(tmp_path, monkeypatch) \
        + manifest_commands(corpus_dir, manifest) + readme
    for argv in lines:
        args = cli._plain_args(argv)
        assert args is not None, argv
        assert vars(args) == _parsed(argv)

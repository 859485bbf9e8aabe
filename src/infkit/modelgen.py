"""Deterministic corpus builders, a seeded generator of random models as
per-atom quotient structures (valid by construction once assembled), and
the signature of a formula list.
"""
from __future__ import annotations

import random

from .bvmodel import (
    BValuedModel, _class_tuples, _growth_counts, _unrank_partition,
    assemble_model,
)
from .syntax import Atom, Const, Eq, Formula, Not, Or, Signature, nodes


# ---------------------------------------------------------------------------
# the four-element example

def split_signature() -> Signature:
    return Signature(relations=(), constants=("d", "c0", "c1"))


def four_element_model() -> BValuedModel:
    """Four-element algebra {0, a, comp(a), 1}; the domain is the four
    functions from the two atoms to {0,1}, named mxy for (a0 -> x, a1 -> y);
    each atom identifies the functions that agree at it, so equality of two
    functions is the join of the atoms where they agree. d is m01, c0 the
    constantly-0 and c1 the constantly-1 function."""
    return assemble_model(split_signature(), ("a0", "a1"),
                          ("m00", "m01", "m10", "m11"),
                          (((0, 0, 1, 1), ()), ((0, 1, 0, 1), ())),
                          {"d": "m01", "c0": "m00", "c1": "m11"})


def split_constant_theory() -> list[Formula]:
    d, c0, c1 = Const("d"), Const("c0"), Const("c1")
    return [
        Or((Eq(d, c0), Eq(d, c1))),
        Not(Eq(c0, c1)),
        Not(Eq(d, c0)),
        Not(Eq(d, c1)),
    ]


# ---------------------------------------------------------------------------
# seeded random generation

def random_quotients(rng: random.Random, sig: Signature, max_atoms: int,
                     max_domain: int) -> tuple:
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
            for _, arity in sig.relations)))
    return n_dom, tuple(per_atom), [rng.randrange(n_dom)
                                    for _ in sig.constants]


class ArityClash(ValueError):
    """The formulas use a relation at two arities, so no signature has
    them."""


def infer_signature(formulas: list[Formula]) -> Signature:
    """Smallest signature declaring every relation (with its observed arity)
    and constant occurring in the formulas; ArityClash names the first
    relation used at a second arity."""
    rels: dict[str, int] = {}
    consts: set[str] = set()
    for f in formulas:
        for g in nodes(f):
            if isinstance(g, Atom):
                if g.rel in rels and rels[g.rel] != len(g.args):
                    raise ArityClash(f"relation {g.rel} used at two arities")
                rels[g.rel] = len(g.args)
            consts.update(t.name for t in g.terms() if isinstance(t, Const))
    return Signature(tuple(sorted(rels.items())), tuple(sorted(consts)))

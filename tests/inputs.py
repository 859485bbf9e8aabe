"""Test inputs: the corpus tool's example model and theory, its explicit
form of a family and the file text of an explicit family, the three-element
model without mixing and the sentence whose sup no witness attains, a
deterministic pool of models and formulas, every small labeled poset and
its down-sets, the forcing order on a list of conditions, the ultrafilters
of an algebra, the two-member and star families of the forcing side, the
family whose Str.2 findings once followed the string-hash seed, seeded
random models named for `assemble_model`, file bytes that no JSON reader
decodes, and a command line for each shipped manifest entry."""
import importlib.util
import itertools
import random
from pathlib import Path

from infkit.boolalg import FinBooleanAlgebra, FinPoset
from infkit.bvmodel import (
    BValuedModel, _class_tuples, _partitions, assemble_model,
    random_quotients,
)
from infkit.consprop import ConsistencyProperty, cp_from_model
from infkit.syntax import (
    And, Atom, Const, Eq, Exists, Forall, Formula, Not, Or, Signature, Var,
)


def load_gen_corpus():
    """A fresh module of `tools/gen_corpus.py`, which builds the corpus."""
    tool = Path(__file__).resolve().parents[1] / "tools" / "gen_corpus.py"
    spec = importlib.util.spec_from_file_location("gen_corpus", tool)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


_gen_corpus = load_gen_corpus()
split_signature = _gen_corpus.split_signature
four_element_model = _gen_corpus.four_element_model
split_constant_theory = _gen_corpus.split_constant_theory
convert_to_explicit = _gen_corpus.convert_to_explicit
cp_text = _gen_corpus.cp_text


def three_element_nonmixing_model() -> BValuedModel:
    """The four-element model with the domain cut to {m00, m11, m01}; the
    atom-indexed targets (m11 at a0, m00 at a1) have no mixing element."""
    return assemble_model(split_signature(), ("a0", "a1"),
                          ("m00", "m11", "m01"),
                          (((0, 1, 0), ()), ((0, 1, 1), ())),
                          {"d": "m01", "c0": "m00", "c1": "m11"})


def unattained_sup_formula() -> Formula:
    """On the three-element model: exists v not(v = d) has value one, but no
    single element attains it."""
    return Exists(("v0",), Not(Eq(Var("v0"), Const("d"))))


# ---------------------------------------------------------------------------
# deterministic model pool

def pool_signature() -> Signature:
    return Signature(relations=(("R", 1), ("Q", 2)), constants=("e0", "e1"))


def _assemble_pool_model(sig: Signature, n_atoms: int, n_dom: int,
                         variant: int) -> BValuedModel:
    """One deterministic model: per-atom partitions and relation tables are
    chosen by cycling through the canonical enumerations with stride
    `variant`, so different variants give genuinely different models."""
    atoms = tuple(f"a{i}" for i in range(n_atoms))
    dom = tuple(f"m{i}" for i in range(n_dom))
    parts = _partitions(n_dom)
    per_atom = []
    for i in range(n_atoms):
        rgs = parts[(variant * (i + 2) + i) % len(parts)]
        n_classes = max(rgs) + 1
        un = frozenset((c,) for c in range(n_classes)
                       if (c + variant + i) % 2 == 0)
        bi = frozenset(t for t in _class_tuples(n_classes, 2)
                       if (t[0] + 2 * t[1] + variant + i) % 3 == 0)
        per_atom.append((rgs, (un, bi)))
    consts = {"e0": dom[0], "e1": dom[min(1, n_dom - 1) if variant % 2 else 0]}
    return assemble_model(sig, atoms, dom, tuple(per_atom), consts)


def model_pool() -> list[BValuedModel]:
    """Deterministic pool over pool_signature(): algebras with 1..3 atoms,
    domains with 1..3 elements, two variants each."""
    sig = pool_signature()
    out = []
    for n_atoms in (1, 2, 3):
        for n_dom in (1, 2, 3):
            for variant in (0, 1):
                out.append(_assemble_pool_model(sig, n_atoms, n_dom, variant))
    return out


def formula_pool() -> list[Formula]:
    """Deterministic formulas over pool_signature(), depth at most 3,
    at most two free variables (v0, v1)."""
    v0, v1 = Var("v0"), Var("v1")
    e0, e1 = Const("e0"), Const("e1")
    r_v0 = Atom("R", (v0,))
    r_e0 = Atom("R", (e0,))
    q_ve = Atom("Q", (v0, e1))
    q_vv = Atom("Q", (v0, v1))
    q_ee = Atom("Q", (e0, e1))
    eq_v0e0 = Eq(v0, e0)
    eq_v0v1 = Eq(v0, v1)
    depth1 = [r_v0, r_e0, q_ve, q_vv, q_ee, eq_v0e0, eq_v0v1,
              Eq(e0, e1), Atom("R", (e1,))]
    depth2 = [
        Not(r_v0), Not(q_ee), Not(eq_v0v1),
        And((r_v0, q_ve)), Or((r_e0, q_ee)), And(()), Or(()),
        And((r_v0,)), Or((eq_v0e0,)),
        Forall(("v0",), r_v0), Exists(("v0",), r_v0),
        Exists(("v0",), q_vv), Forall(("v0",), q_vv),
    ]
    depth3 = [
        Not(And((r_v0, q_ve))),
        Or((Not(r_v0), And((q_vv, eq_v0e0)))),
        Forall(("v0",), Or((r_v0, Not(r_v0)))),
        Exists(("v0",), And((r_v0, Not(eq_v0e0)))),
        Forall(("v0",), Exists(("v1",), q_vv)),
        Exists(("v0", "v1"), And((q_vv, r_v0))),
        Not(Exists(("v0",), r_v0)),
        And((Forall(("v0",), r_v0), Or((q_ee, Not(q_ee))))),
        Or((Exists(("v0",), Not(r_v0)), r_e0)),
    ]
    return depth1 + depth2 + depth3


def ultrafilters(alg: FinBooleanAlgebra) -> list[int]:
    """Every ultrafilter of a finite algebra as the atom it is principal
    at, by the repr of the atom's label."""
    return sorted(alg.atoms(), key=lambda a: repr(alg.label(a)))


# ---------------------------------------------------------------------------
# poset enumeration

def all_labeled_posets(n: int) -> list[FinPoset]:
    """Every labeled poset on elements p0..p(n-1): each unordered pair is
    below/above/incomparable, filtered by transitivity."""
    els = tuple(f"p{i}" for i in range(n))
    if n == 0:
        return []
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        rel = [[False] * n for _ in range(n)]
        for (i, j), s in zip(pairs, states):
            if s == 1:
                rel[i][j] = True   # i < j
            elif s == 2:
                rel[j][i] = True
        ok = True
        for i in range(n):
            for j in range(n):
                if not rel[i][j]:
                    continue
                for k in range(n):
                    if rel[j][k] and not rel[i][k]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.append(FinPoset(els, [(els[i], els[j])
                                      for i in range(n) for j in range(n)
                                      if rel[i][j]]))
    return out


def down_sets(poset: FinPoset) -> dict:
    """Each element's basic open N_p, everything <= p, read off the order."""
    downs: dict = {e: set() for e in poset.elements}
    for lo, hi in poset.leq_pairs():
        downs[hi].add(lo)
    return {e: frozenset(s) for e, s in downs.items()}


def forcing_poset(conditions: list[int]) -> FinPoset:
    """The forcing order on conditions: reverse inclusion, so p is below q
    exactly when p & q == q."""
    return FinPoset(conditions, [(p, q) for p in conditions
                                 for q in conditions if p & q == q])


def two_member_family(k: int = 6) -> ConsistencyProperty:
    """Fresh c0..c(k-1), one unary P, the family [E, A u E] over the pool
    A u E, where E holds every ci=ci and A every P(ci): root 0 has 2^k
    conditions, all but two of them outside the family."""
    names = tuple(f"c{i}" for i in range(k))
    e = frozenset(Eq(Const(c), Const(c)) for c in names)
    a = frozenset(Atom("P", (Const(c),)) for c in names)
    return ConsistencyProperty(
        Signature((("P", 1),), ()), names,
        tuple(sorted(a | e, key=Formula.key)), family=(e, a | e))


def star_family(k: int) -> ConsistencyProperty:
    """Fresh c0..c(k-1), one unary P, the family [E, E u {P(c0)}, ...,
    E u {P(c(k-1))}], where E holds every ci=ci: below root 0 the k
    maximal members are the minimal conditions, so the condition algebra
    has 2^k elements."""
    names = tuple(f"c{i}" for i in range(k))
    e = frozenset(Eq(Const(c), Const(c)) for c in names)
    a = [Atom("P", (Const(c),)) for c in names]
    return ConsistencyProperty(
        Signature((("P", 1),), ()), names,
        tuple(sorted(e.union(a), key=Formula.key)),
        family=(e, *(e | {x} for x in a)))


def str2_order_family() -> ConsistencyProperty:
    """The positivity family of the one-element model of `model_pool()`
    over {e0=e1, (all v0 R(v0)) & (Q(e0,e1) | ~Q(e0,e1))}: four members,
    whose Str.2 findings came in the iteration order of a set of formulas,
    and so in four orders under string-hash seeds 0-6."""
    pool = formula_pool()
    return cp_from_model(model_pool()[0], [pool[7], pool[29]])


def random_structures(rng: random.Random, sig: Signature,
                      max_atoms: int = 3, max_domain: int = 3) -> tuple:
    """`random_quotients` named as the arguments of `assemble_model` after
    the signature: `(atom names, domain, per-atom structures, constants)`."""
    n_dom, per_atom, consts = random_quotients(rng, sig, max_atoms,
                                               max_domain)
    dom = tuple(f"m{i}" for i in range(n_dom))
    return (tuple(f"a{i}" for i in range(len(per_atom))), dom, per_atom,
            {c: dom[k] for c, k in zip(sig.constants, consts)})


# bytes that are not UTF-8, and arrays nested past the recursion limit
UNDECODABLE = {"not UTF-8": b"\xff\xfe\x00bad", "over-nested": b"[" * 200_000}


def manifest_commands(corpus_dir, manifest) -> list[list[str]]:
    """A command line that reads each shipped manifest entry's file."""
    m4 = str(corpus_dir / "four_element_model.json")
    kinds = {
        "model": lambda f, e: ["check-model", f],
        "poset": lambda f, e: ["ro", f],
        "algebra": lambda f, e: ["roundtrip", f],
        "cp": lambda f, e: ["check-cp", f] + ["--smax"] * ("smax" in e),
        "proof": lambda f, e: ["check-proof", f, "--soundness-samples",
                               str(e.get("sound_samples", 0))],
        "theory": lambda f, e: ["sat", "--theory", f, "--mode", "weak",
                                "--max-atoms", "2", "--max-domain", "3"],
        "ultrafilter": lambda f, e: ["quotient", "--model", m4,
                                     "--ultrafilter", f],
        "pool": lambda f, e: ["cp-from-model", "--model", m4, "--pool", f],
        "formula": lambda f, e: ["eval", "--model", m4, "--formula", f],
    }
    return [kinds[e["kind"]](str(corpus_dir / e["file"]), e.get("expect", {}))
            for e in manifest["entries"] if e["kind"] in kinds] \
        + [["corpus"], ["corpus", str(corpus_dir / "manifest.json")]]

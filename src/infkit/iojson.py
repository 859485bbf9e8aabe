"""JSON wire formats for every object the command line reads or writes.

Parsing is strict: every function takes the decoded JSON value plus a path
string and raises ParseError naming the faulty location. Emission is
canonical (sorted object keys, two-space indent, formula lists ordered by
canonical form, trailing newline) so emit(parse(x)) is byte-stable and file
diffs stay meaningful; a family is written as text in chunks, not built.
"""
from __future__ import annotations

import functools
import json
import operator
from typing import TYPE_CHECKING, Any, Callable, Iterable, NoReturn

from .boolalg import FinBooleanAlgebra, FinPoset, powerset_algebra, \
    ro_completion, table_algebra
from .bvmodel import BValuedModel, CapExceeded
from .syntax import And, Atom, Const, Eq, Exists, Forall, Formula, Not, Or, \
    Signature, Term, Var, validate_formula

if TYPE_CHECKING:   # imported where families and proofs are read or written
    from .calculus import Proof, Sequent
    from .consprop import ConsistencyProperty


class ParseError(Exception):
    """Malformed or inconsistent input; the message starts with a $.path."""


def _fail(path: str, msg: str) -> NoReturn:
    raise ParseError(f"{path}: {msg}")


def _obj(x: Any, path: str) -> dict:
    if not isinstance(x, dict):
        _fail(path, f"expected an object, got {type(x).__name__}")
    return x


def _arr(x: Any, path: str) -> list:
    if not isinstance(x, list):
        _fail(path, f"expected an array, got {type(x).__name__}")
    return x


def _str(x: Any, path: str) -> str:
    if not isinstance(x, str):
        _fail(path, f"expected a string, got {type(x).__name__}")
    return x


def _int(x: Any, path: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        _fail(path, f"expected an integer, got {type(x).__name__}")
    return x


def _get(d: dict, key: str, path: str) -> Any:
    if key not in d:
        _fail(path, f"missing required key {key!r}")
    return d[key]


def _each(x: Any, path: str, parse) -> list:
    """The array x, each item parsed by parse(item, its path)."""
    return [parse(v, f"{path}[{i}]") for i, v in enumerate(_arr(x, path))]


def _reject_extras(d: dict, allowed: set[str], path: str) -> None:
    extras = sorted(set(d) - allowed)
    if extras:
        _fail(path, f"unknown keys {extras}; allowed: {sorted(allowed)}")


# ---------------------------------------------------------------------------
# terms and formulas

def parse_term(x: Any, path: str = "$") -> Term:
    d = _obj(x, path)
    if len(d) != 1:
        _fail(path, "a term has exactly one key, 'var' or 'const'")
    key, val = next(iter(d.items()))
    name = _str(val, f"{path}.{key}")
    try:
        if key == "var":
            return Var(name)
        if key == "const":
            return Const(name)
    except ValueError as exc:
        _fail(f"{path}.{key}", str(exc))
    _fail(path, f"unknown term kind {key!r}")


def emit_term(t: Term) -> dict:
    if isinstance(t, Var):
        return {"var": t.name}
    if isinstance(t, Const):
        return {"const": t.name}
    raise ValueError(f"not a term: {t!r}")


_FORMULA_KEYS = ("atom", "eq", "not", "and", "or", "forall", "exists")


def parse_formula(x: Any, path: str = "$") -> Formula:
    d = _obj(x, path)
    if len(d) != 1 or next(iter(d)) not in _FORMULA_KEYS:
        _fail(path, f"a formula has exactly one key among {_FORMULA_KEYS}")
    kind, val = next(iter(d.items()))
    here = f"{path}.{kind}"
    try:
        if kind == "atom":
            a = _obj(val, here)
            _reject_extras(a, {"rel", "args"}, here)
            rel = _str(_get(a, "rel", here), f"{here}.rel")
            args = _arr(_get(a, "args", here), f"{here}.args")
            if not args:
                _fail(f"{here}.args", "an atom takes at least one argument")
            return Atom(rel, tuple(_each(args, f"{here}.args", parse_term)))
        if kind == "eq":
            pair = _arr(val, here)
            if len(pair) != 2:
                _fail(here, f"equality takes exactly two terms, got {len(pair)}")
            return Eq(parse_term(pair[0], f"{here}[0]"),
                      parse_term(pair[1], f"{here}[1]"))
        if kind == "not":
            return Not(parse_formula(val, here))
        if kind in ("and", "or"):
            kids = tuple(_each(val, here, parse_formula))
            return And(kids) if kind == "and" else Or(kids)
        # forall / exists
        b = _obj(val, here)
        _reject_extras(b, {"vars", "body"}, here)
        names = tuple(_each(_get(b, "vars", here), f"{here}.vars", _str))
        body = parse_formula(_get(b, "body", here), f"{here}.body")
        return Forall(names, body) if kind == "forall" else Exists(names, body)
    except ValueError as exc:
        _fail(here, str(exc))


def emit_formula(f: Formula) -> dict:
    if isinstance(f, Atom):
        return {"atom": {"rel": f.rel, "args": [emit_term(t) for t in f.args]}}
    if isinstance(f, Eq):
        return {"eq": [emit_term(f.left), emit_term(f.right)]}
    if isinstance(f, Not):
        return {"not": emit_formula(f.body)}
    if isinstance(f, (And, Or)):
        kids = [emit_formula(c)
                for c in sorted(f.children, key=lambda c: c.key())]
        return {"and" if isinstance(f, And) else "or": kids}
    if isinstance(f, (Forall, Exists)):
        body = {"vars": list(f.vars), "body": emit_formula(f.body)}
        return {"forall" if isinstance(f, Forall) else "exists": body}
    raise ValueError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# signatures

def parse_signature(x: Any, path: str = "$") -> Signature:
    d = _obj(x, path)
    _reject_extras(d, {"relations", "constants"}, path)
    rels = []
    for i, entry in enumerate(_arr(_get(d, "relations", path),
                                   f"{path}.relations")):
        here = f"{path}.relations[{i}]"
        e = _obj(entry, here)
        _reject_extras(e, {"name", "arity"}, here)
        rels.append((_str(_get(e, "name", here), f"{here}.name"),
                     _int(_get(e, "arity", here), f"{here}.arity")))
    consts = tuple(_each(_get(d, "constants", path), f"{path}.constants",
                         _str))
    try:
        return Signature(tuple(rels), consts)
    except ValueError as exc:
        _fail(path, str(exc))


def emit_signature(sig: Signature) -> dict:
    return {
        "relations": [{"name": n, "arity": a}
                      for n, a in sorted(sig.relations)],
        "constants": sorted(sig.constants),
    }


def _validated(x: Any, path: str, sig: Signature,
               need_sentence: bool = True) -> Formula:
    """The formula x, parsed and checked against the signature, with a
    path-carrying error that cites the signature."""
    f = parse_formula(x, path)
    if need_sentence and f.free_vars():
        _fail(path, f"expected a sentence, found free variables "
                    f"{sorted(f.free_vars())}")
    try:
        validate_formula(f, sig)
    except ValueError as exc:
        rels = ", ".join(f"{n}/{a}" for n, a in sig.relations) or "none"
        consts = ", ".join(sig.constants) or "none"
        _fail(path, f"{exc} (signature relations: {rels}; "
                    f"constants: {consts})")
    return f


# ---------------------------------------------------------------------------
# posets and algebras

def parse_poset(x: Any, path: str = "$") -> FinPoset:
    d = _obj(x, path)
    _reject_extras(d, {"elements", "leq"}, path)
    els = _each(_get(d, "elements", path), f"{path}.elements", _str)
    pairs = []
    for i, entry in enumerate(_arr(_get(d, "leq", path), f"{path}.leq")):
        here = f"{path}.leq[{i}]"
        p = _arr(entry, here)
        if len(p) != 2:
            _fail(here, "each leq entry is a pair [below, above]")
        pairs.append((_str(p[0], f"{here}[0]"), _str(p[1], f"{here}[1]")))
    try:
        return FinPoset(els, pairs)
    except ValueError as exc:
        _fail(path, str(exc))


def emit_poset(poset: FinPoset) -> dict:
    pairs = sorted((lo, hi) for lo, hi in poset.leq_pairs() if lo != hi)
    return {"elements": sorted(poset.elements),
            "leq": [[lo, hi] for lo, hi in pairs]}


def parse_algebra(x: Any, path: str = "$") -> FinBooleanAlgebra:
    d = _obj(x, path)
    kind = _str(_get(d, "type", path), f"{path}.type")
    try:
        if kind == "powerset":
            _reject_extras(d, {"type", "atoms"}, path)
            atoms = _each(_get(d, "atoms", path), f"{path}.atoms", _str)
            return powerset_algebra(atoms)
        if kind == "ro":
            _reject_extras(d, {"type", "poset"}, path)
            poset = parse_poset(_get(d, "poset", path), f"{path}.poset")
            return ro_completion(poset)[0]
        if kind == "table":
            _reject_extras(d, {"type", "elements", "meet", "join", "comp"},
                           path)
            els = _each(_get(d, "elements", path), f"{path}.elements",
                        _str)
            meet = _table_rows(_get(d, "meet", path), f"{path}.meet")
            join = _table_rows(_get(d, "join", path), f"{path}.join")
            comp = _each(_get(d, "comp", path), f"{path}.comp", _str)
            return table_algebra(els, meet, join, comp)
    except Exception as exc:  # algebra constructors raise several kinds
        if isinstance(exc, ParseError):
            raise
        _fail(path, str(exc))
    _fail(f"{path}.type",
          f"unknown algebra type {kind!r}; expected powerset/ro/table")


def _table_rows(x: Any, path: str) -> list[list[str]]:
    return _each(x, path, lambda row, here: _each(row, here, _str))


def emit_algebra(alg: FinBooleanAlgebra) -> dict:
    if alg.kind == "powerset":
        return {"type": "powerset", "atoms": sorted(a for a, _ in alg.points)}
    if alg.kind == "ro":
        return {"type": "ro", "poset": emit_poset(alg.meta["poset"])}
    if alg.kind == "table":
        els, name = alg.elements, alg.names
        return {
            "type": "table",
            "elements": [name[a] for a in els],
            "meet": [[name[alg.meet(a, b)] for b in els] for a in els],
            "join": [[name[alg.join(a, b)] for b in els] for a in els],
            "comp": [name[alg.comp(a)] for a in els],
        }
    raise ValueError(f"algebra kind {alg.kind!r} has no file form; "
                     "convert with as_table_algebra first")


def _skey(x: Any):
    """Deterministic sort key for element labels of any shape."""
    if isinstance(x, Formula):
        return ("f", x.key())
    if isinstance(x, frozenset):
        return ("s", tuple(sorted(_skey(y) for y in x)))
    return ("a", str(x))


TABLE_CAP = 2048    # elements; a table holds their count squared names


def as_table_algebra(alg: FinBooleanAlgebra) -> FinBooleanAlgebra:
    """The same algebra, masks included, as a table over the opaque labels
    b0..bN: zero first, one last, the rest in the order of their old labels.
    Makes algebras with unprintable labels (condition algebras, labelled by
    sets of sentence sets) serializable. Raises CapExceeded above
    TABLE_CAP elements."""
    if len(alg.elements) > TABLE_CAP:
        raise CapExceeded(f"the algebra has {len(alg.elements)} elements, "
                          f"over the table cap of {TABLE_CAP}")
    middle = sorted((e for e in alg.elements if e not in (alg.zero, alg.one)),
                    key=lambda e: _skey(alg.label(e)))
    ordered = (alg.zero, *middle, alg.one)
    return FinBooleanAlgebra("table", ordered, tuple(   # b<i> names ordered[i]
        f"b{i}" for i in sorted(range(len(ordered)), key=ordered.__getitem__)))


# ---------------------------------------------------------------------------
# algebra elements

def parse_element(alg: FinBooleanAlgebra, x: Any, path: str = "$") -> int:
    """The element whose label is x: an element name, a sorted name list
    for a set label, or the alias '0'/'1'."""
    if x in ("0", "1") and alg.element(x) is None:
        return alg.zero if x == "0" else alg.one
    if isinstance(x, str):
        if (e := alg.element(x)) is not None:
            return e
        _fail(path, f"{x!r} is not an element of the algebra")
    if isinstance(x, list):
        val = frozenset(_str(n, f"{path}[{i}]") for i, n in enumerate(x))
        if (e := alg.element(val)) is not None:
            return e
        _fail(path, f"{sorted(x)} is not an element of the algebra")
    _fail(path, "an element is a sorted name list, an element name, "
                "or the alias '0'/'1'")


def emit_element(alg: FinBooleanAlgebra, val: Any):
    """The label of an element, a set label as a sorted name list."""
    if not alg.is_element(val):
        raise ValueError(f"value {val!r} is not in the algebra")
    label = alg.label(val)
    return sorted(map(str, label)) if isinstance(label, frozenset) else label


# ---------------------------------------------------------------------------
# models

def parse_model(x: Any, path: str = "$") -> BValuedModel:
    d = _obj(x, path)
    _reject_extras(d, {"signature", "algebra", "domain", "eq", "relations",
                       "constants"}, path)
    sig = parse_signature(_get(d, "signature", path), f"{path}.signature")
    alg = parse_algebra(_get(d, "algebra", path), f"{path}.algebra")
    domain = tuple(_each(_get(d, "domain", path), f"{path}.domain", _str))
    eq = {}
    for i, entry in enumerate(_arr(d.get("eq", []), f"{path}.eq")):
        here = f"{path}.eq[{i}]"
        e = _obj(entry, here)
        _reject_extras(e, {"pair", "value"}, here)
        pair = _arr(_get(e, "pair", here), f"{here}.pair")
        if len(pair) != 2:
            _fail(f"{here}.pair", "expected a pair of domain members")
        key = (_str(pair[0], f"{here}.pair[0]"), _str(pair[1], f"{here}.pair[1]"))
        eq[key] = parse_element(alg, _get(e, "value", here), f"{here}.value")
    relations: dict = {}
    rels_obj = _obj(d.get("relations", {}), f"{path}.relations")
    for rel, rows in rels_obj.items():
        table = {}
        for i, entry in enumerate(_arr(rows, f"{path}.relations.{rel}")):
            here = f"{path}.relations.{rel}[{i}]"
            e = _obj(entry, here)
            _reject_extras(e, {"args", "value"}, here)
            args = tuple(_each(_get(e, "args", here), f"{here}.args", _str))
            table[args] = parse_element(alg, _get(e, "value", here),
                                        f"{here}.value")
        relations[rel] = table
    consts_obj = _obj(d.get("constants", {}), f"{path}.constants")
    constants = {
        _str(c, f"{path}.constants"): _str(m, f"{path}.constants.{c}")
        for c, m in consts_obj.items()}
    try:
        return BValuedModel(sig, alg, domain, eq, relations, constants)
    except ValueError as exc:
        _fail(path, str(exc))


def emit_model(model: BValuedModel) -> dict:
    alg = model.algebra
    if alg.kind == "conditions":
        alg = as_table_algebra(alg)
    alg_obj = emit_algebra(alg)
    dom = sorted(model.domain)
    eq_rows = [{"pair": [m, n], "value": emit_element(alg, model.eq[m, n])}
               for m in dom for n in dom
               if model.eq[m, n] != (alg.one if m == n else alg.zero)]
    rel_obj = {}
    for rel, table in sorted(model.relations.items()):
        rows = [{"args": list(args), "value": emit_element(alg, v)}
                for args, v in sorted(table.items()) if v != alg.zero]
        if rows:
            rel_obj[rel] = rows
    out = {
        "signature": emit_signature(model.signature),
        "algebra": alg_obj,
        "domain": dom,
    }
    if eq_rows:
        out["eq"] = eq_rows
    if rel_obj:
        out["relations"] = rel_obj
    if model.constants:
        out["constants"] = dict(sorted(model.constants.items()))
    return out


# ---------------------------------------------------------------------------
# ultrafilters

def parse_ultrafilter(x: Any, alg: FinBooleanAlgebra, path: str = "$") -> int:
    """The principal ultrafilter's generator, an atom: a mask with one bit."""
    d = _obj(x, path)
    _reject_extras(d, {"generator"}, path)
    gen = parse_element(alg, _get(d, "generator", path), f"{path}.generator")
    if not gen or gen & (gen - 1):
        _fail(f"{path}.generator",
              "the generator of a principal ultrafilter must be an atom")
    return gen


def emit_ultrafilter(alg: FinBooleanAlgebra, atom: int) -> dict:
    return {"generator": emit_element(alg, atom)}


# ---------------------------------------------------------------------------
# theories and formula pools

def parse_theory(x: Any, path: str = "$") -> tuple[Signature, tuple[Formula, ...]]:
    d = _obj(x, path)
    _reject_extras(d, {"signature", "sentences"}, path)
    sig = parse_signature(_get(d, "signature", path), f"{path}.signature")
    sentences = tuple(_each(_get(d, "sentences", path),
                            f"{path}.sentences",
                            functools.partial(_validated, sig=sig)))
    return sig, sentences


def emit_theory(theory: tuple[Signature, tuple[Formula, ...]]) -> dict:
    sig, sentences = theory
    return {"signature": emit_signature(sig),
            "sentences": [emit_formula(f)
                          for f in sorted(sentences, key=lambda f: f.key())]}


def parse_pool(x: Any, path: str = "$", sig: Signature | None = None,
               need_sentence: bool = False) -> tuple[Formula, ...]:
    """A formula pool; with `sig`, each formula is checked against the
    signature it will be evaluated in."""
    d = _obj(x, path)
    _reject_extras(d, {"formulas"}, path)
    return tuple(_each(
        _get(d, "formulas", path), f"{path}.formulas",
        lambda f, here: parse_formula(f, here) if sig is None
        else _validated(f, here, sig, need_sentence)))


def emit_pool(pool: tuple[Formula, ...]) -> dict:
    return {"formulas": [emit_formula(f)
                         for f in sorted(pool, key=lambda f: f.key())]}


# ---------------------------------------------------------------------------
# consistency properties

def parse_cp(x: Any, path: str = "$") -> ConsistencyProperty:
    from .consprop import ConsistencyProperty, default_pool
    d = _obj(x, path)
    _reject_extras(d, {"signature", "fresh_constants", "family", "pool"}, path)
    sig = parse_signature(_get(d, "signature", path), f"{path}.signature")
    fresh = tuple(_each(_get(d, "fresh_constants", path),
                        f"{path}.fresh_constants", _str))
    try:
        wide = sig.with_constants(fresh)
    except ValueError as exc:
        _fail(f"{path}.fresh_constants", str(exc))
    parsed: dict[str, Formula] = {}   # by the text of a sentence's JSON

    def sentence(s: Any, here: str) -> Formula:
        text = repr(s)
        if text not in parsed:
            parsed[text] = _validated(s, here, wide)
        return parsed[text]

    family = _each(_get(d, "family", path), f"{path}.family",
                   lambda m, here: frozenset(_each(m, here, sentence)))
    if "pool" in d:
        pool = tuple(_each(d["pool"], f"{path}.pool", sentence))
    else:
        pool = default_pool(sig, fresh, [f for m in family for f in m])
    try:
        return ConsistencyProperty(sig, fresh, pool, family=tuple(family))
    except ValueError as exc:
        _fail(path, str(exc))


def read_cp(path_on_disk: str) -> ConsistencyProperty:
    """parse_cp(load_json(path_on_disk)), read directly when the file holds
    the ASCII text emit_cp writes: members start at indent 4 and sentences
    at indent 6 (JSON text holds no raw newline), so the bytes are scanned
    for them in place, each distinct sentence is parsed once, and the family
    is kept only if emit_cp writes the bytes back."""
    from .consprop import ConsistencyProperty
    head, seen = b'{\n  "family": [', 0

    def same(chunk: str) -> None:
        nonlocal seen
        if not text.startswith(chunk.encode(), seen):
            raise ValueError("not the canonical text")
        seen += len(chunk)

    try:
        with open(path_on_disk, "rb") as fh:
            text = fh.read()
        if not text.startswith(head):
            raise ValueError("not the canonical text")
        end = len(head) if text.startswith(b"],", len(head)) \
            else text.index(b"\n  ],", len(head)) + 3
        base = parse_cp(dict(json.loads(b"{" + text[end + 2:]), family=[]))
        texts: dict[bytes, int] = {}   # sentence text -> index
        members, at = [], text.find(b"\n    [", 0, end)
        while at >= 0:   # one member's text at a time, split at its sentences
            nxt = text.find(b"\n    [", at + 6, end)
            members.append([texts.setdefault(t.rstrip(b"\n ],"), len(texts))
                            for t in text[at + 6:end if nxt < 0 else nxt]
                            .split(b"\n      {")[1:]])
            at = nxt
        parsed = [_validated(json.loads(b"{" + t), "$",
                             base.extended_signature()) for t in texts]
        sentences = tuple(sorted(set(base.pool).union(parsed),
                                 key=Formula.key))
        bit = {f: i for i, f in enumerate(sentences)}
        masks = [1 << bit[f] for f in parsed]
        cp = ConsistencyProperty(
            base.signature, base.fresh_constants, base.pool, family=tuple(
                functools.reduce(operator.or_, map(masks.__getitem__, m), 0)
                for m in members), sentences=sentences)
        emit_cp(cp, same)
        if seen != len(text):
            raise ValueError("not the canonical text")
    except (OSError, ValueError, RecursionError, ParseError, CapExceeded):
        text = None   # the general path reads the file again; drop this copy
        return parse_cp(load_json(path_on_disk))
    return cp


def emit_cp(cp: ConsistencyProperty, write: Callable[[str], Any]) -> None:
    """Write the file form of a family through `write`, 256 members at a
    time: by size, then by their sentences' canonical forms. A positivity
    family is listed in that order by members_by_level, so an over-cap one
    writes nothing. Each chunk is one join of the texts of its members'
    sentences, each text led by its separator: in a member's first, the
    member's own."""
    from .consprop import _bits, members_by_level
    # JSON text holds no raw newline, so indenting is one replace
    texts = [",\n      "
             + dumps(emit_formula(f))[:-1].replace("\n", "\n      ")
             for f in cp.sentences]
    firsts = [",\n    [" + t[1:] for t in texts]
    members = [bits for bits, _, _ in members_by_level(cp)] \
        if cp.family is None else sorted(sorted(map(_bits, cp.family)),
                                         key=len)
    head = '{\n  "family": ['
    for i in range(0, len(members), 256):
        pieces = []
        for m in members[i:i + 256]:
            if m:
                pieces.append(firsts[m[0]])
                pieces += map(texts.__getitem__, m[1:])
                pieces.append("\n    ]")
            else:
                pieces.append(",\n    []")
        pieces[0] = head + pieces[0][1:]
        write("".join(pieces))
        head = ","
    rest = dumps({"fresh_constants": sorted(cp.fresh_constants),
                  "pool": emit_pool(cp.pool)["formulas"],
                  "signature": emit_signature(cp.signature)})
    write(("\n  ]," if members else head + "],") + rest[1:])


# ---------------------------------------------------------------------------
# proofs

_RULE_PARAM_KEYS = {
    "axiom": set(),
    "cut": {"formula"},
    "substitution": {"map"},
    "weakening": set(),
    "neg_left": {"formula"},
    "neg_right": {"formula"},
    "conj_left": {"formula"},
    "conj_right": {"formula"},
    "quant_left": {"formula", "terms"},
    "quant_right": {"formula", "fresh"},
    "eq1": set(),
    "eq2": {"template", "vars", "from_terms", "to_terms"},
}


def _parse_sequent(x: Any, path: str) -> Sequent:
    from .calculus import Sequent
    d = _obj(x, path)
    _reject_extras(d, {"ante", "succ"}, path)
    ante = _each(_get(d, "ante", path), f"{path}.ante", parse_formula)
    succ = _each(_get(d, "succ", path), f"{path}.succ", parse_formula)
    try:
        return Sequent(frozenset(ante), frozenset(succ))
    except ValueError as exc:
        _fail(path, str(exc))


def parse_proof(x: Any, path: str = "$") -> Proof:
    from .calculus import RULES, Proof, Step
    d = _obj(x, path)
    _reject_extras(d, {"steps"}, path)
    steps = []
    for i, entry in enumerate(_arr(_get(d, "steps", path), f"{path}.steps")):
        here = f"{path}.steps[{i}]"
        e = _obj(entry, here)
        _reject_extras(e, {"sequent", "rule"}, here)
        sequent = _parse_sequent(_get(e, "sequent", here), f"{here}.sequent")
        rule_obj = _obj(_get(e, "rule", here), f"{here}.rule")
        name = _str(_get(rule_obj, "name", f"{here}.rule"),
                    f"{here}.rule.name")
        if name not in RULES:
            _fail(f"{here}.rule.name", f"unknown rule {name!r}")
        _reject_extras(rule_obj, {"name", "premises"} | _RULE_PARAM_KEYS[name],
                       f"{here}.rule")
        premises = tuple(_each(rule_obj.get("premises", []),
                               f"{here}.rule.premises", _int))
        params = _parse_rule_params(rule_obj, f"{here}.rule")
        steps.append(Step(sequent, name, premises, params or None))
    if not steps:
        _fail(f"{path}.steps", "a proof needs at least one step")
    return Proof(tuple(steps))


def _parse_rule_params(rule_obj: dict, path: str) -> dict:
    params: dict = {}
    for key in ("formula", "template"):
        if key in rule_obj:
            params[key] = parse_formula(rule_obj[key], f"{path}.{key}")
    for key in ("terms", "from_terms", "to_terms"):
        if key in rule_obj:
            params[key] = tuple(_each(rule_obj[key], f"{path}.{key}",
                                      parse_term))
    for key in ("fresh", "vars"):
        if key in rule_obj:
            params[key] = tuple(_each(rule_obj[key], f"{path}.{key}", _str))
    if "map" in rule_obj:
        m = _obj(rule_obj["map"], f"{path}.map")
        params["map"] = {
            v: parse_term(t, f"{path}.map.{v}") for v, t in m.items()}
    return params


def _emit_sequent(s: Sequent) -> dict:
    return {"ante": [emit_formula(f)
                     for f in sorted(s.ante, key=lambda f: f.key())],
            "succ": [emit_formula(f)
                     for f in sorted(s.succ, key=lambda f: f.key())]}


def emit_proof(proof: Proof) -> dict:
    steps = []
    for step in proof.steps:
        rule: dict = {"name": step.rule}
        if step.premises:
            rule["premises"] = list(step.premises)
        for key, val in sorted((step.params or {}).items()):
            if key in ("formula", "template"):
                rule[key] = emit_formula(val)
            elif key in ("terms", "from_terms", "to_terms"):
                rule[key] = [emit_term(t) for t in val]
            elif key in ("fresh", "vars"):
                rule[key] = list(val)
            elif key == "map":
                rule[key] = {v: emit_term(t) for v, t in sorted(val.items())}
            else:
                raise ValueError(f"rule parameter {key!r} has no file form")
        steps.append({"sequent": _emit_sequent(step.sequent), "rule": rule})
    return {"steps": steps}


# ---------------------------------------------------------------------------
# files

class Findings:
    """A list that `dump` writes while `walk` yields it: (fields, key)
    pairs, each the object {**fields, field: key}, such as the walks of
    consprop.findings. Each fields object must live as long as the walk,
    and each member's findings must share one key object."""
    __slots__ = ("walk", "field")

    def __init__(self, walk: Iterable[tuple[dict, Any]], field: str) -> None:
        self.walk, self.field = walk, field


_MEMBER = "\0"   # a placeholder member: no key or name holds a NUL


def _render(x: Any, depth: int, rendered: dict) -> str:
    """The text of x at the given depth; a list or tuple is rendered once
    per depth, its text kept in `rendered` by (depth, id)."""
    if isinstance(x, str):
        return _encode_str(x)
    if isinstance(x, (dict, list, tuple)):
        text = rendered.get((depth, id(x)))
        if text is None:
            inner = "\n" + "  " * (depth + 1)
            sep = "," + inner
            if isinstance(x, dict):
                pieces = []
                for k in sorted(x):
                    v = x[k]
                    pieces += sep, f"{_encode_str(k)}: ", _encode_str(v) \
                        if type(v) is str else _render(v, depth + 1, rendered)
            else:
                parts = [_encode_str(v) if type(v) is str
                         else _render(v, depth + 1, rendered) for v in x]
                pieces = [sep] * (2 * len(parts))
                pieces[1::2] = parts
            opening, closing = "{}" if isinstance(x, dict) else "[]"
            if pieces:
                pieces[0] = opening + inner
                closing = "\n" + "  " * depth + closing
            else:
                pieces = [opening]
            pieces.append(closing)
            text = "".join(pieces)
            if not isinstance(x, dict):
                rendered[depth, id(x)] = text
        return text
    if x is None or x is True or x is False:
        return _CONSTANTS[x]
    if isinstance(x, (int, float)):
        text = (float if isinstance(x, float) else int).__repr__(x)
        return _CONSTANTS.get(text, text)
    raise TypeError(f"Object of type {type(x).__name__} "
                    f"is not JSON serializable")


def dump(obj: Any, write: Callable[[str], Any]) -> None:
    """Canonical serialization, written through `write`: the bytes of
    json.dumps(obj, sort_keys=True, indent=2) plus a newline, with
    Findings written as lists. Containers at depth 0 and 1, and Findings,
    are written as they are rendered, about 256 pieces per write; deeper
    ones are rendered by one join each, a list or tuple that occurs many
    times once per depth. A finding is the text of its fields around a
    placeholder member, rendered once per fields object, with the text of
    its member, rendered once per member. Objects a walk frees may lend
    their id to later ones, so what a walk yields is memoized only while
    it is held: a template with its fields, a member until the next."""
    rendered = {}   # (depth, id(list or tuple)) -> text

    def stream(x: Any, depth: int) -> None:
        if type(x) is Findings:
            stream_findings(x.walk, x.field, depth)
            return
        if depth > 1 or not x or not isinstance(x, (dict, list, tuple)):
            out.append(_render(x, depth, rendered))
            return
        opening, closing = "{}" if isinstance(x, dict) else "[]"
        inner = "\n" + "  " * (depth + 1)
        items = ((f"{_encode_str(k)}: ", x[k]) for k in sorted(x)) \
            if opening == "{" else (("", v) for v in x)
        for i, (key, v) in enumerate(items):
            out.append(("," if i else opening) + inner + key)
            stream(v, depth + 1)
            if len(out) >= 256:
                write("".join(out))
                out.clear()
        out.append("\n" + "  " * depth + closing)

    def stream_findings(walk: Iterable, field: str, depth: int) -> None:
        inner = "\n" + "  " * (depth + 1)
        placeholder = _encode_str(_MEMBER)
        templates = {}   # id(fields) -> (fields, head, tail)
        opening, closing, last = "[" + inner, "[]", None
        for fields, key in walk:
            template = templates.get(id(fields))
            if template is None:
                head, _, tail = _render({**fields, field: _MEMBER},
                                        depth + 1, {}).partition(placeholder)
                template = templates[id(fields)] = fields, head, tail
            if key is not last:
                last, member = key, _render(key, depth + 2, {})
            out.extend((opening, template[1], member, template[2]))
            opening, closing = "," + inner, "\n" + "  " * depth + "]"
            if len(out) >= 256:
                write("".join(out))
                out.clear()
        out.append(closing)

    out = []
    stream(obj, 0)
    write("".join(out) + "\n")


def dumps(obj: Any) -> str:
    """The text `dump` writes, as one string."""
    parts = []
    dump(obj, parts.append)
    return "".join(parts)


_encode_str = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false",
              "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def load_json(path_on_disk: str) -> Any:
    try:
        with open(path_on_disk, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"$: cannot read {path_on_disk}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or depth
        raise ParseError(f"$: {path_on_disk} is not valid JSON: {exc}") from exc


def save_json(path_on_disk: str, obj: Any) -> None:
    try:
        with open(path_on_disk, "w", encoding="utf-8") as fh:
            dump(obj, fh.write)
    except OSError as exc:
        raise ParseError(f"$: cannot write {path_on_disk}: {exc}") from exc

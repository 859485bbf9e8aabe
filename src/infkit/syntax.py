"""Terms, formulas, signatures, substitution and negation moves.

Formulas are immutable trees. Conjunction and disjunction take finite child
lists of any width, including 0 and 1; quantifiers bind nonempty duplicate-free
variable tuples. Signatures are purely relational (constants, no function
symbols). Formula equality and hashing go through the canonical form `key()`,
so sets of formulas identify a formula with any reordering of its And/Or
children but never across a renaming of bound variables.

Every node gives its immediate subformulas (`parts`) and rebuilds itself, as
the same kind and binder, around new ones (`rebuild`); atomic nodes do the
same for their terms (`terms`, `with_terms`). The structural operations below
walk formulas through that interface only.
"""
from __future__ import annotations

import re
from typing import Callable, Iterator

from .record import Record, Value

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class CaptureError(Exception):
    """Substitution would move a variable into the scope of a binder for it."""


def valid_ident(name: object) -> bool:
    return isinstance(name, str) and bool(_IDENT.match(name))


def _require_ident(name: object, what: str) -> str:
    if not valid_ident(name):
        raise ValueError(f"{what} must be an identifier, got {name!r}")
    return name  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# terms

class Var(Value):
    def __init__(self, name: str) -> None:
        self.__dict__["name"] = _require_ident(name, "variable name")

    def key(self) -> str:
        return f"v:{self.name}"


class Const(Value):
    def __init__(self, name: str) -> None:
        self.__dict__["name"] = _require_ident(name, "constant name")

    def key(self) -> str:
        return f"k:{self.name}"


Term = Var | Const


def is_term(obj: object) -> bool:
    return isinstance(obj, (Var, Const))


# ---------------------------------------------------------------------------
# formulas

class Formula(Record):
    """Base class; subclasses set _key (canonical string) and _free."""

    _key: str
    _free: frozenset[str]

    def key(self) -> str:
        """The canonical form: And/Or children sorted by their own canonical
        forms, bound variable names kept verbatim."""
        return self._key

    def free_vars(self) -> frozenset[str]:
        return self._free

    def parts(self) -> tuple[Formula, ...]:
        """Immediate subformulas, in order; none for atomic formulas."""
        return ()

    def rebuild(self, parts: tuple[Formula, ...]) -> Formula:
        """The same kind of node (and binder) around new subformulas."""
        return self

    def terms(self) -> tuple[Term, ...]:
        """The terms of an atomic formula; none for the other nodes."""
        return ()

    def with_terms(self, terms: tuple[Term, ...]) -> Formula:
        """The same atomic formula over new terms."""
        return self

    def binds(self) -> tuple[str, ...]:
        """The variables a quantifier binds; none for the other nodes."""
        return ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Formula) and self._key == other._key

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self._key}>"


def _seal(node: Formula, key: str, free: frozenset[str], **fields) -> None:
    node.__dict__.update(fields, _key=key, _free=free)


class Atom(Formula):
    def __init__(self, rel: str, args: tuple[Term, ...]) -> None:
        _require_ident(rel, "relation name")
        args = tuple(args)
        for a in args:
            if not is_term(a):
                raise ValueError(f"atom argument is not a term: {a!r}")
        key = f"(r {rel} {' '.join(a.key() for a in args)})"
        free = frozenset(a.name for a in args if isinstance(a, Var))
        _seal(self, key, free, rel=rel, args=args)

    def terms(self) -> tuple[Term, ...]:
        return self.args

    def with_terms(self, terms: tuple[Term, ...]) -> Atom:
        return Atom(self.rel, terms)


class Eq(Formula):
    def __init__(self, left: Term, right: Term) -> None:
        if not (is_term(left) and is_term(right)):
            raise ValueError("equality sides must be terms")
        key = f"(= {left.key()} {right.key()})"
        free = frozenset(t.name for t in (left, right) if isinstance(t, Var))
        _seal(self, key, free, left=left, right=right)

    def terms(self) -> tuple[Term, ...]:
        return (self.left, self.right)

    def with_terms(self, terms: tuple[Term, ...]) -> Eq:
        return Eq(*terms)


class Not(Formula):
    def __init__(self, body: Formula) -> None:
        if not isinstance(body, Formula):
            raise ValueError("negation body must be a formula")
        _seal(self, f"(n {body.key()})", body.free_vars(), body=body)

    def parts(self) -> tuple[Formula, ...]:
        return (self.body,)

    def rebuild(self, parts: tuple[Formula, ...]) -> Not:
        return Not(*parts)


def _gate_children(children: object) -> tuple[Formula, ...]:
    out = tuple(children)  # type: ignore[arg-type]
    for c in out:
        if not isinstance(c, Formula):
            raise ValueError(f"connective child is not a formula: {c!r}")
    return out


class _Junction(Formula):
    """And/Or: the children are the subformulas, in tuple order."""

    _tag = ""                               # of the canonical form

    def __init__(self, children: tuple[Formula, ...]) -> None:
        children = _gate_children(children)
        keys = sorted(c.key() for c in children)
        free = frozenset().union(*(c.free_vars() for c in children)) \
            if children else frozenset()
        _seal(self, f"({self._tag} {' '.join(keys)})", free,
              children=children)

    def parts(self) -> tuple[Formula, ...]:
        return self.children

    def rebuild(self, parts: tuple[Formula, ...]) -> Formula:
        return type(self)(tuple(parts))


class And(_Junction):
    _tag = "c"


class Or(_Junction):
    _tag = "d"


def _gate_binder(vars_: object, body: object) -> tuple[str, ...]:
    vs = tuple(vars_)  # type: ignore[arg-type]
    if not vs:
        raise ValueError("quantifier needs at least one variable")
    if len(set(vs)) != len(vs):
        raise ValueError(f"duplicate bound variables: {vs}")
    for v in vs:
        _require_ident(v, "bound variable")
    if not isinstance(body, Formula):
        raise ValueError("quantifier body must be a formula")
    return vs


class _Quantifier(Formula):
    """Forall/Exists: one body under a binder."""

    _tag = ""                               # of the canonical form

    def __init__(self, vars: tuple[str, ...], body: Formula) -> None:
        vs = _gate_binder(vars, body)
        _seal(self, f"({self._tag} {','.join(vs)} {body.key()})",
              body.free_vars() - set(vs), vars=vs, body=body)

    def parts(self) -> tuple[Formula, ...]:
        return (self.body,)

    def rebuild(self, parts: tuple[Formula, ...]) -> Formula:
        return type(self)(self.vars, *parts)

    def binds(self) -> tuple[str, ...]:
        return self.vars


class Forall(_Quantifier):
    _tag = "a"


class Exists(_Quantifier):
    _tag = "e"


def is_sentence(f: Formula) -> bool:
    return not f.free_vars()


# ---------------------------------------------------------------------------
# signatures

class Signature(Value):
    def __init__(self, relations: tuple[tuple[str, int], ...],
                 constants: tuple[str, ...]) -> None:
        rels = tuple((str(n), int(a)) for n, a in relations)
        self.__dict__.update(relations=rels, constants=tuple(constants))
        names = [n for n, _ in rels]
        if len(set(names)) != len(names):
            raise ValueError("duplicate relation names")
        for n, a in rels:
            _require_ident(n, "relation name")
            if a < 1:
                raise ValueError(f"relation {n} must have arity >= 1, got {a}")
        if len(set(self.constants)) != len(self.constants):
            raise ValueError("duplicate constant names")
        for c in self.constants:
            _require_ident(c, "constant name")

    def arity(self, rel: str) -> int:
        for n, a in self.relations:
            if n == rel:
                return a
        raise KeyError(f"undeclared relation {rel!r}")

    def has_relation(self, rel: str) -> bool:
        return any(n == rel for n, _ in self.relations)

    def with_constants(self, extra: tuple[str, ...]) -> Signature:
        clash = set(extra) & set(self.constants)
        if clash:
            raise ValueError(f"constants already declared: {sorted(clash)}")
        return Signature(self.relations, self.constants + tuple(extra))


def validate_formula(f: Formula, sig: Signature,
                     extra_constants: frozenset[str] = frozenset()) -> None:
    """Raise ValueError if f uses undeclared relations/constants or an atom
    argument count differs from the declared arity."""
    consts = set(sig.constants) | extra_constants
    for g in nodes(f):
        if isinstance(g, Atom):
            if not sig.has_relation(g.rel):
                raise ValueError(f"undeclared relation {g.rel!r}")
            if len(g.args) != sig.arity(g.rel):
                raise ValueError(
                    f"relation {g.rel} expects {sig.arity(g.rel)} arguments, "
                    f"got {len(g.args)}")
        for t in g.terms():
            if isinstance(t, Const) and t.name not in consts:
                raise ValueError(f"undeclared constant {t.name!r}")


# ---------------------------------------------------------------------------
# structural operations

def nodes(f: Formula) -> Iterator[Formula]:
    """Every node of f in pre-order, subformulas in `parts` order."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(g.parts()))


def _map_terms(f: Formula, kind: type, scope: dict[str, Term],
               enter: Callable[[Formula, dict], dict | None]) -> Formula:
    """Rebuild f with each term of class `kind` replaced by its entry in the
    scope that holds at its atomic node. `enter(node, scope)` is called
    outermost first and gives the scope inside the node, or None to keep the
    node as it is; at a binder it raises CaptureError."""
    def walk(g: Formula, s: dict[str, Term]) -> Formula:
        s = enter(g, s)
        if s is None:
            return g
        parts = g.parts()
        if parts:
            return g.rebuild(tuple(walk(p, s) for p in parts))
        return g.with_terms(tuple(s.get(t.name, t) if isinstance(t, kind)
                                  else t for t in g.terms()))

    return walk(f, scope)


def subformulas(f: Formula) -> set[Formula]:
    """f together with all descendants (canonical-form identity)."""
    return set(nodes(f))


def substitute(f: Formula, mapping: dict[str, Term]) -> Formula:
    """Capture-checked substitution of terms for free variables.

    Raises CaptureError when a substituted term contains a variable that a
    binder in f would capture.
    """
    def enter(g: Formula, m: dict[str, Term]) -> dict[str, Term] | None:
        m = {v: t for v, t in m.items() if v in g.free_vars()}
        for v, t in m.items():
            if isinstance(t, Var) and t.name in g.binds():
                raise CaptureError(
                    f"substituting {t.name} for {v} is captured by "
                    f"binder over {g.binds()}")
        return m or None

    return _map_terms(f, Var, dict(mapping), enter)


def replace_const(f: Formula, old: str, new: Term) -> Formula:
    """Replace every occurrence of the constant `old` by the term `new`."""
    def enter(g: Formula, m: dict[str, Term]) -> dict[str, Term]:
        if isinstance(new, Var) and new.name in g.binds():
            raise CaptureError(
                f"constant {old} generalized into bound {new.name}")
        return m

    return _map_terms(f, Const, {old: new}, enter)


def constants_of(f: Formula) -> frozenset[str]:
    return frozenset(t.name for g in nodes(f) for t in g.terms()
                     if isinstance(t, Const))


def move_neg_inside(f: Formula) -> Formula:
    """One negation move: the dual for connectives/quantifiers, plain negation
    on atomic formulas, cancellation on a negation."""
    if isinstance(f, (Atom, Eq)):
        return Not(f)
    if isinstance(f, Not):
        return f.body
    if isinstance(f, And):
        return Or(tuple(Not(c) for c in f.children))
    if isinstance(f, Or):
        return And(tuple(Not(c) for c in f.children))
    if isinstance(f, Forall):
        return Exists(f.vars, Not(f.body))
    if isinstance(f, Exists):
        return Forall(f.vars, Not(f.body))
    raise ValueError(f"not a formula node: {f!r}")

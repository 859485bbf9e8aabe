"""Sequent calculus over the negation/conjunction/universal fragment:
proof objects, strict rule-by-rule checking, and seeded semantic soundness
sampling against random valid models.

Sequent sides are formula sets under canonical identity, so contraction is
implicit. Each step must be an exact instance of its named rule: the active
formula is removed from the conclusion side and the premise sides must match
the rule equation as sets, with no silent weakening.
"""
from __future__ import annotations

import functools
import itertools
import random

from .bvmodel import (
    assemble_model, eval_formula, quotient_count, quotient_truth, quotients,
)
from .modelgen import infer_signature, random_quotients, random_structures
from .record import Value
from .syntax import (
    And, CaptureError, Eq, Exists, Forall, Formula, Not, Or, Term, Var,
    nodes, substitute,
)


def in_calculus_fragment(f: Formula) -> bool:
    return not any(isinstance(g, (Or, Exists)) for g in nodes(f))


class Sequent(Value):
    def __init__(self, ante: frozenset, succ: frozenset) -> None:
        self.__dict__.update(ante=frozenset(ante), succ=frozenset(succ))
        for f in itertools.chain(self.ante, self.succ):
            if not in_calculus_fragment(f):
                raise ValueError(
                    f"formula outside the calculus fragment: {f.key()}")

    def key(self) -> tuple:
        return (tuple(sorted(f.key() for f in self.ante)),
                tuple(sorted(f.key() for f in self.succ)))


class Step(Value):
    def __init__(self, sequent: Sequent, rule: str,
                 premises: tuple[int, ...] = (),
                 params: dict | None = None) -> None:
        self.__dict__.update(sequent=sequent, rule=rule, premises=premises,
                             params=params)

    def param(self, name):
        return (self.params or {}).get(name)


class Proof(Value):
    def __init__(self, steps: tuple[Step, ...]) -> None:
        self.__dict__["steps"] = steps

    @property
    def goal(self) -> Sequent:
        return self.steps[-1].sequent


RULES = ("axiom", "cut", "substitution", "weakening", "neg_left",
         "neg_right", "conj_left", "conj_right", "quant_left", "quant_right",
         "eq1", "eq2")


class _Reject(Exception):
    pass


def _need(cond: bool, reason: str) -> None:
    if not cond:
        raise _Reject(reason)


def _check_step(step: Step, prems: list[Sequent]) -> None:
    """Raises _Reject naming the violated side condition."""
    s = step.sequent
    rule = step.rule
    if rule == "axiom":
        _need(not prems, "axiom takes no premises")
        _need(bool(s.ante & s.succ),
              "axiom needs a shared formula on both sides")
        return
    if rule == "eq1":
        _need(not prems, "eq1 takes no premises")
        _need(len(s.ante) == 1 and len(s.succ) == 1,
              "eq1 matches singleton sides only")
        (a,), (c,) = tuple(s.ante), tuple(s.succ)
        _need(isinstance(a, Eq) and isinstance(c, Eq),
              "eq1 sides must be equalities")
        _need(a.left == c.right and a.right == c.left,
              "eq1 conclusion must swap the premise equality")
        return
    if rule == "eq2":
        _need(not prems, "eq2 takes no premises")
        template = step.param("template")
        vars_ = tuple(step.param("vars") or ())
        t_terms = tuple(step.param("from_terms") or ())
        u_terms = tuple(step.param("to_terms") or ())
        _need(isinstance(template, Formula), "eq2 needs a template formula")
        _need(len(vars_) == len(t_terms) == len(u_terms) and vars_,
              "eq2 needs matching nonempty vars/from_terms/to_terms")
        _need(len(set(vars_)) == len(vars_), "eq2 vars must be distinct")
        try:
            phi_t = substitute(template, dict(zip(vars_, t_terms)))
            phi_u = substitute(template, dict(zip(vars_, u_terms)))
        except CaptureError as e:
            raise _Reject(f"eq2 substitution is captured: {e}")
        eqs = {Eq(u, t) for u, t in zip(u_terms, t_terms)}
        _need(s.ante == frozenset(eqs | {phi_t}),
              "eq2 antecedent must be the equalities plus the instance")
        _need(s.succ == frozenset({phi_u}),
              "eq2 succedent must be the replaced instance")
        return

    if rule == "cut":
        _need(len(prems) == 2, "cut takes two premises")
        phi = step.param("formula")
        _need(isinstance(phi, Formula), "cut needs a formula parameter")
        p1, p2 = prems
        _need(phi in p1.ante, "cut formula missing from first antecedent")
        _need(phi in p2.succ, "cut formula missing from second succedent")
        _need(s.ante == (p1.ante - {phi}) | p2.ante,
              "cut antecedent mismatch")
        _need(s.succ == p1.succ | (p2.succ - {phi}),
              "cut succedent mismatch")
        return
    if rule == "substitution":
        _need(len(prems) == 1, "substitution takes one premise")
        mapping = step.param("map") or {}
        _need(bool(mapping), "substitution needs a nonempty map")
        p = prems[0]
        try:
            ante = frozenset(substitute(f, mapping) for f in p.ante)
            succ = frozenset(substitute(f, mapping) for f in p.succ)
        except CaptureError as e:
            raise _Reject(f"substitution is captured: {e}")
        _need(s.ante == ante and s.succ == succ,
              "substitution image mismatch")
        return
    if rule == "weakening":
        _need(len(prems) == 1, "weakening takes one premise")
        p = prems[0]
        _need(p.ante <= s.ante and p.succ <= s.succ,
              "weakening must extend both sides")
        return
    if rule == "neg_left":
        _need(len(prems) == 1, "neg_left takes one premise")
        phi = step.param("formula")
        _need(isinstance(phi, Formula), "neg_left needs a formula parameter")
        p = prems[0]
        _need(Not(phi) in s.ante, "negation missing from the antecedent")
        _need(p.ante == s.ante - {Not(phi)}, "neg_left antecedent mismatch")
        _need(p.succ == s.succ | {phi}, "neg_left succedent mismatch")
        return
    if rule == "neg_right":
        _need(len(prems) == 1, "neg_right takes one premise")
        phi = step.param("formula")
        _need(isinstance(phi, Formula), "neg_right needs a formula parameter")
        p = prems[0]
        _need(Not(phi) in s.succ, "negation missing from the succedent")
        _need(p.succ == s.succ - {Not(phi)}, "neg_right succedent mismatch")
        _need(p.ante == s.ante | {phi}, "neg_right antecedent mismatch")
        return
    if rule == "conj_left":
        _need(len(prems) == 1, "conj_left takes one premise")
        phi = step.param("formula")
        _need(isinstance(phi, And), "conj_left needs a conjunction parameter")
        p = prems[0]
        _need(phi in s.ante, "conjunction missing from the antecedent")
        _need(p.ante == (s.ante - {phi}) | set(phi.children),
              "conj_left antecedent mismatch")
        _need(p.succ == s.succ, "conj_left succedent mismatch")
        return
    if rule == "conj_right":
        phi = step.param("formula")
        _need(isinstance(phi, And),
              "conj_right needs a conjunction parameter")
        _need(phi in s.succ, "conjunction missing from the succedent")
        kids = list(dict.fromkeys(sorted(phi.children, key=lambda g: g.key())))
        _need(len(prems) == len(kids),
              f"conj_right takes one premise per distinct conjunct "
              f"({len(kids)} expected)")
        for child, p in zip(kids, prems):
            _need(p.ante == s.ante,
                  "conj_right premise antecedent mismatch")
            _need(p.succ == (s.succ - {phi}) | {child},
                  f"conj_right premise for {child.key()} mismatch")
        return
    if rule == "quant_left":
        _need(len(prems) == 1, "quant_left takes one premise")
        phi = step.param("formula")
        terms = tuple(step.param("terms") or ())
        _need(isinstance(phi, Forall),
              "quant_left needs a universal parameter")
        _need(len(terms) == len(phi.vars),
              "quant_left needs one term per bound variable")
        _need(all(isinstance(t, Term) for t in terms),
              "quant_left terms must be terms")
        try:
            inst = substitute(phi.body, dict(zip(phi.vars, terms)))
        except CaptureError as e:
            raise _Reject(f"quant_left instantiation is captured: {e}")
        p = prems[0]
        _need(phi in s.ante, "universal missing from the antecedent")
        _need(p.ante == (s.ante - {phi}) | {inst},
              "quant_left antecedent mismatch")
        _need(p.succ == s.succ, "quant_left succedent mismatch")
        return
    if rule == "quant_right":
        _need(len(prems) == 1, "quant_right takes one premise")
        phi = step.param("formula")
        fresh = tuple(step.param("fresh") or ())
        _need(isinstance(phi, Forall),
              "quant_right needs a universal parameter")
        _need(len(fresh) == len(phi.vars) and len(set(fresh)) == len(fresh),
              "quant_right needs distinct fresh variables, one per bound "
              "variable")
        _need(phi in s.succ, "universal missing from the succedent")
        used = set()
        for f in itertools.chain(s.ante, s.succ):
            used |= f.free_vars()
        clash = [w for w in fresh if w in used]
        _need(not clash,
              f"eigenvariable occurs free in the sequent: {clash}")
        try:
            renamed = substitute(phi.body,
                                 {v: Var(w) for v, w in zip(phi.vars, fresh)})
        except CaptureError as e:
            raise _Reject(f"quant_right renaming is captured: {e}")
        p = prems[0]
        _need(p.ante == s.ante, "quant_right antecedent mismatch")
        _need(p.succ == (s.succ - {phi}) | {renamed},
              "quant_right succedent mismatch")
        return
    raise _Reject(f"unknown rule: {rule}")


def check_proof(proof: Proof) -> dict:
    """Validate every step against its premises; the report names the first
    offending step and the violated side condition."""
    if not proof.steps:
        return {"accepted": False, "step": None, "reason": "empty proof"}
    for i, step in enumerate(proof.steps):
        if step.rule not in RULES:
            return {"accepted": False, "step": i,
                    "reason": f"unknown rule: {step.rule}"}
        if any(j >= i or j < 0 for j in step.premises):
            return {"accepted": False, "step": i,
                    "reason": "premise indices must point at earlier steps"}
        prems = [proof.steps[j].sequent for j in step.premises]
        try:
            _check_step(step, prems)
        except _Reject as e:
            return {"accepted": False, "step": i, "reason": str(e)}
    return {"accepted": True, "goal": proof.goal}


def _failing_assignments(goal: Sequent, model, free: list[str]):
    """Assignments of the free variables under which the meet of the
    antecedent is not below the join of the succedent."""
    alg = model.algebra
    for tup in itertools.product(model.domain, repeat=len(free)):
        assign = dict(zip(free, tup))
        lhs = alg.inf(eval_formula(model, f, assign) for f in goal.ante)
        rhs = alg.sup(eval_formula(model, f, assign) for f in goal.succ)
        if not alg.leq(lhs, rhs):
            yield assign


# Most atoms and domain elements per sample: on 2 CPUs, 200 samples of a
# binary relation take 3 s and 50 MB at 64, and 22 s and 220 MB at 128.
SAMPLE_CAP = 64


def soundness_sample(goal: Sequent, samples: int = 200, seed: int = 0,
                     max_atoms: int = 2, max_domain: int = 3) -> dict:
    """Evaluate the sequent inequality (meet of the antecedent below the join
    of the succedent) under every assignment in seeded random valid models.
    Any violation is a countermodel for the goal.

    A model is drawn as one quotient per atom, and every connective acts
    atom by atom, so the inequality holds in it iff it holds in each atom's
    quotient under every assignment to classes. `quotient_truth` decides
    each distinct quotient once per call, with no model built. A drawn atom
    can be any quotient on 1 to max_domain classes; when those are at most
    `samples` and all hold, none is drawn. Only a failing sample is
    assembled, replayed from the seed by `random_structures`."""
    if max_atoms < 1 or max_domain < 1:
        raise ValueError("bounds must be at least 1")
    formulas = list(goal.ante) + list(goal.succ)
    sig = infer_signature(formulas)
    free = sorted(set().union(*(f.free_vars() for f in formulas))
                  if formulas else set())
    truth = quotient_truth(sig)

    @functools.cache
    def holds(n: int, tables: tuple, named: tuple) -> bool:
        for tup in itertools.product(range(n), repeat=len(free)):
            env = dict(zip(free, tup))
            if all(truth(f, n, tables, named, env) for f in goal.ante) \
                    and not any(truth(f, n, tables, named, env)
                                for f in goal.succ):
                return False
        return True

    sizes = range(1, max_domain + 1)
    counts = [quotient_count(sig, k) for k in sizes]
    if 0 not in counts and sum(counts) <= samples and all(
            holds(k, *q) for k in sizes for q in quotients(sig, k)):
        return {"ok": True, "samples": samples, "violations": []}
    rng = random.Random(seed)
    for i in range(samples):
        _, per_atom, consts = random_quotients(rng, sig, max_atoms,
                                               max_domain)
        if all(holds(max(rgs) + 1, tables, tuple(rgs[k] for k in consts))
               for rgs, tables in per_atom):
            continue
        replay = random.Random(seed)
        for _ in range(i + 1):
            drawn = random_structures(replay, sig, max_atoms, max_domain)
        model = assemble_model(sig, *drawn)
        violations = [{"sample": i, "assignment": assign, "model": model}
                      for assign in _failing_assignments(goal, model, free)]
        return {"ok": False, "samples": samples, "violations": violations}
    return {"ok": True, "samples": samples, "violations": []}

"""Command-line surface: thirteen subcommands over the JSON file formats.

Exit codes: 0 success, 1 a checked expectation failed, 2 malformed input
(including a table algebra that breaks a Boolean law, and a cap overrun).
Every randomized check takes --seed and defaults to seed 0, so identical
invocations print identical reports.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any

from .boolalg import ImproperFilter, TrivialAlgebra, \
    regular_open_sets_bruteforce, ro_completion
from .bvmodel import CapExceeded, UnboundVariable, bounded_boolean_sat, \
    check_mixing, check_model, eval_formula
from .calculus import SAMPLE_CAP, Sequent, check_proof, soundness_sample
from .consprop import ConsistencyProperty, IllDefined, build_af, check_cp, \
    check_smax, convert_to_explicit, cp_from_model, generic_filter, \
    verify_realizes
from .iojson import ParseError, dump, dumps, emit_algebra, emit_cp, \
    emit_element, emit_formula, emit_model, emit_pool, emit_poset, \
    emit_proof, emit_signature, emit_theory, emit_ultrafilter, load_json, \
    parse_algebra, parse_cp, parse_formula, parse_model, parse_pool, \
    parse_poset, parse_proof, parse_signature, parse_theory, \
    parse_ultrafilter, save_json
from .mansfield import cp_from_algebra, mansfield_build, roundtrip_check, \
    verify_claim1, verify_claim2
from .quotient import los_check, quotient
from .syntax import Formula, validate_formula

if TYPE_CHECKING:
    from pathlib import Path

DEFAULT_SEED = 0


def _plain(x: Any) -> Any:
    """Reduce report values to JSON-friendly data; formulas print as their
    canonical form, sets as sorted lists. Only the reports that hold a
    sequent (check-proof) or element labels (the mixing report) need it."""
    if isinstance(x, Formula):
        return x.key()
    if isinstance(x, Sequent):
        return {"ante": sorted(f.key() for f in x.ante),
                "succ": sorted(f.key() for f in x.succ)}
    if isinstance(x, dict):
        return {str(_plain(k)): _plain(v) for k, v in x.items()}
    if isinstance(x, (frozenset, set)):
        return sorted((_plain(v) for v in x), key=repr)
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


# The law check of every algebra: each one is a powerset on int masks, so
# the Boolean laws hold by construction (a table is refused at parse unless
# it is isomorphic to the powerset of its atoms).
_LAWFUL = {"ok": True, "violations": []}


def _print(report: dict) -> None:
    dump(report, sys.stdout.write)


def _input_error(msg: str) -> int:
    sys.stderr.write(f"error: {msg}\n")
    return 2


# ---------------------------------------------------------------------------
# commands

def cmd_eval(args) -> int:
    model = parse_model(load_json(args.model))
    formula = parse_formula(load_json(args.formula))
    try:
        validate_formula(formula, model.signature)
    except ValueError as exc:
        return _input_error(f"formula does not fit the model signature: {exc}")
    assignment = {}
    if args.assign:
        for piece in args.assign.split(","):
            var, sep, member = piece.partition("=")
            if not sep or not var or not member:
                return _input_error(f"bad --assign entry {piece!r}; "
                                    "expected var=member")
            if member not in model.domain:
                return _input_error(f"--assign names {member!r}, "
                                    "not a domain member")
            assignment[var] = member
    try:
        value = eval_formula(model, formula, assignment)
    except UnboundVariable as exc:
        return _input_error(str(exc))
    _print({"value": emit_element(model.algebra, value)})
    return 0


def cmd_check_model(args) -> int:
    model = parse_model(load_json(args.model))
    model_report = check_model(model)
    report = {"ok": model_report["ok"], "algebra": _LAWFUL,
              "model": model_report}
    _print(report)
    return 0 if report["ok"] else 1


def cmd_sat(args) -> int:
    if args.max_atoms < 1 or args.max_domain < 1:
        return _input_error("--max-atoms and --max-domain must be at least 1")
    sig, sentences = parse_theory(load_json(args.theory))
    result = bounded_boolean_sat(sig, list(sentences), args.max_atoms,
                                 args.max_domain, args.mode)
    if result.get("found"):
        _print({"found": True, "atoms": result["atoms"],
                "domain_size": result["domain_size"],
                "model": emit_model(result["model"])})
        return 0
    _print({"found": False, **result})
    return 1


def cmd_quotient(args) -> int:
    model = parse_model(load_json(args.model))
    ultra = parse_ultrafilter(load_json(args.ultrafilter), model.algebra)
    try:
        q = quotient(model, ultra)
    except (ImproperFilter, ValueError) as exc:
        return _input_error(f"no quotient of an invalid model: {exc}")
    report: dict = {
        "classes": [sorted(c) for c in q.classes],
        "reps": list(q.reps),
        "relations": {rel: sorted(map(list, tuples))
                      for rel, tuples in q.relations.items()},
        "constants": dict(sorted(q.constants.items())),
        "ok": True,
    }
    if args.los_pool:
        pool = parse_pool(load_json(args.los_pool), sig=model.signature)
        los = los_check(model, ultra, list(pool))
        report["los"] = los
        report["ok"] = los["ok"]
    _print(report)
    return 0 if report["ok"] else 1


def cmd_check_cp(args) -> int:
    cp = parse_cp(load_json(args.cp))
    report = check_cp(cp)
    if args.smax:
        report["smax"] = check_smax(cp)
        report["ok"] = report["ok"] and report["smax"]["ok"]
    _print(report)
    return 0 if report["ok"] else 1


def _family_root(cp: ConsistencyProperty, index: int) -> int:
    if cp.family is None or not 0 <= index < len(cp.family):
        raise ParseError(f"$.family: root index {index} out of range")
    return cp.family[index]


def cmd_generic(args) -> int:
    cp = parse_cp(load_json(args.cp))
    root = _family_root(cp, args.root)
    try:
        gf = generic_filter(cp, root)
        term_model = build_af(cp, gf.minimum)
    except (AssertionError, ValueError, IllDefined) as exc:
        _print({"ok": False, "reason": str(exc)})
        return 1
    realizes = verify_realizes(cp, term_model, gf.minimum)
    report = {
        "ok": realizes["ok"],
        "root": list(cp.key(root)),
        "minimum": list(cp.key(gf.minimum)),
        "sigma": list(cp.key(gf.minimum)),      # the union of the filter
        "classes": [sorted(c) for c in term_model.classes],
        "dense": list(gf.dense_report),
        "realizes": realizes,
    }
    if args.emit_model:
        save_json(args.emit_model,
                  emit_model(term_model.to_two_valued_model()))
        report["emitted"] = args.emit_model
    _print(report)
    return 0 if report["ok"] else 1


def cmd_cp_from_model(args) -> int:
    model = parse_model(load_json(args.model))
    try:
        named = model.signature.with_constants(model.domain)
    except ValueError as exc:
        return _input_error(f"the model's constants clash with the domain "
                            f"element names the family adds: {exc}")
    pool = parse_pool(load_json(args.pool), sig=named, need_sentence=True)
    cp = cp_from_model(model, pool=pool)
    emit_cp(convert_to_explicit(cp), sys.stdout.write)
    return 0


def cmd_mansfield(args) -> int:
    cp = parse_cp(load_json(args.cp))
    root = _family_root(cp, args.root)
    try:
        built = mansfield_build(cp, root)
    except ValueError as exc:
        return _input_error(f"not a consistency property: {exc}")
    claim1 = verify_claim1(cp, built)
    pool = parse_pool(load_json(args.pool), sig=cp.extended_signature(),
                      need_sentence=True) if args.pool else None
    claim2 = verify_claim2(cp, built, pool)
    report = {
        "ok": (built["root_ok"] and built["model_report"]["ok"]
               and claim1["ok"] and claim2["ok"]),
        "conditions": len(built["conditions"].conditions),
        "algebra_size": len(built["model"].algebra.elements),
        "root_values_one": built["root_ok"],
        "model_report": built["model_report"],
        "claim1": claim1,
        "claim2": claim2,
        "mixing": _plain(check_mixing(built["model"])),
    }
    if args.emit_model:
        save_json(args.emit_model, emit_model(built["model"]))
        report["emitted"] = args.emit_model
    _print(report)
    return 0 if report["ok"] else 1


def cmd_cp_from_algebra(args) -> int:
    alg = parse_algebra(load_json(args.algebra))
    cp, pi, report = cp_from_algebra(alg)
    if args.emit:
        dump(report, sys.stderr.write)
        emit_cp(convert_to_explicit(cp, pi), sys.stdout.write)
    else:
        _print(report)
    return 0 if report["ok"] else 1


def cmd_roundtrip(args) -> int:
    report = roundtrip_check(parse_algebra(load_json(args.algebra)))
    _print(report)
    return 0 if report["ok"] else 1


def cmd_ro(args) -> int:
    poset = parse_poset(load_json(args.poset))
    # the completion is a powerset on masks, and its embedding preserves
    # order and incompatibility and has a dense image on every finite poset
    # (see ro_completion), so those fields are constant
    try:
        alg, _ = ro_completion(poset)
    except TrivialAlgebra as exc:
        return _input_error(str(exc))
    report = {
        "size": len(alg.elements),
        "laws": _LAWFUL,
        "order_preserving": True,
        "incompatibility_preserving": True,
        "dense_image": True,
        "ok": True,
    }
    if len(poset.elements) <= args.brute_max:
        brute = regular_open_sets_bruteforce(poset)
        report["brute_match"] = brute == set(alg.labels)
        report["ok"] = report["ok"] and report["brute_match"]
    _print(report)
    return 0 if report["ok"] else 1


def cmd_check_proof(args) -> int:
    if args.max_atoms < 1 or args.max_domain < 1:
        return _input_error("--max-atoms and --max-domain must be at least 1")
    for flag, bound in (("--max-atoms", args.max_atoms),
                        ("--max-domain", args.max_domain)):
        if bound > SAMPLE_CAP:
            return _input_error(f"{flag} {bound} is over the sample cap of "
                                f"{SAMPLE_CAP}; lower {flag}")
    proof = parse_proof(load_json(args.proof))
    report = check_proof(proof)
    ok = report["accepted"]
    if ok and args.soundness_samples > 0:
        sampled = soundness_sample(proof.goal, samples=args.soundness_samples,
                                   seed=args.seed, max_atoms=args.max_atoms,
                                   max_domain=args.max_domain)
        report = dict(report, soundness=sampled)
        ok = sampled["ok"]
    _print(_plain(report))
    return 0 if ok else 1


def cmd_corpus(args) -> int:
    from pathlib import Path
    if args.manifest:
        manifest_path = Path(args.manifest)
    else:
        from importlib import resources
        manifest_path = Path(str(resources.files("infkit").joinpath(
            "corpus/manifest.json")))
    report = run_corpus(manifest_path)
    for warning in report["warnings"]:
        sys.stderr.write(f"warning: {warning}\n")
    _print(report)
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# corpus runner

_PARSERS = {
    "formula": (parse_formula, emit_formula),
    "signature": (parse_signature, emit_signature),
    "algebra": (parse_algebra, emit_algebra),
    "poset": (parse_poset, emit_poset),
    "model": (parse_model, emit_model),
    "theory": (parse_theory, emit_theory),
    "pool": (parse_pool, emit_pool),
    "proof": (parse_proof, emit_proof),
}


def _check_entry(base: Path, entry: dict, position: int) -> dict:
    checks: list[dict] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    kind = entry.get("kind")
    rel = entry.get("file", f"<entry {position}>")
    out = {"file": rel, "kind": kind, "checks": checks, "ok": False}
    expect = entry.get("expect", {})
    path = base / rel
    try:
        raw = path.read_text(encoding="utf-8")
        obj = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        add("readable", False, str(exc))
        return out

    try:
        if kind == "ultrafilter":
            alg = parse_algebra(load_json(str(base / entry["algebra"])))
            value = parse_ultrafilter(obj, alg)
            text = dumps(emit_ultrafilter(alg, value))
        elif kind == "cp":
            value, parts = parse_cp(obj), []
            emit_cp(value, parts.append)
            text = "".join(parts)
        elif kind in _PARSERS:
            parse, emit = _PARSERS[kind]
            value = parse(obj)
            text = dumps(emit(value))
        else:
            add("kind", False, f"unknown corpus kind {kind!r}")
            return out
    except ParseError as exc:
        add("parses", False, str(exc))
        return out
    add("parses", True)

    if expect.get("roundtrip", True):
        identical = text == raw
        add("roundtrip", identical,
            "" if identical else "emit(parse(x)) is not byte-identical")

    try:
        _kind_expectations(kind, value, expect, add)
    except Exception as exc:  # a crashed expectation is a failed entry
        add("expectation", False, f"{type(exc).__name__}: {exc}")
    out["ok"] = all(c["ok"] for c in checks)
    return out


def _kind_expectations(kind: str, value, expect: dict, add) -> None:
    if kind == "model":
        if "valid" in expect:
            rep = check_model(value)
            add("valid", rep["ok"] == expect["valid"],
                f"violations: {len(rep['violations'])}")
    elif kind == "algebra":
        if "laws" in expect:
            add("laws", _LAWFUL["ok"] == expect["laws"],
                str(_LAWFUL["violations"]))
        if "atoms" in expect:
            add("atoms", len(value.atoms()) == expect["atoms"],
                f"found {len(value.atoms())}")
    elif kind == "poset":
        if "ro_size" in expect:
            alg, _ = ro_completion(value)
            add("ro_size", len(alg.elements) == expect["ro_size"],
                f"found {len(alg.elements)}")
    elif kind == "cp":
        if "check_cp" in expect:
            rep = check_cp(value)
            add("check_cp", rep["ok"] == expect["check_cp"],
                f"violations: {[v['clause'] for v in rep['violations']][:4]}")
        if "members" in expect:
            add("members", len(value.family) == expect["members"],
                f"found {len(value.family)}")
        if "smax" in expect:
            rep = check_smax(value)
            add("smax", rep["ok"] == expect["smax"],
                f"violations: {len(rep['violations'])}")
    elif kind == "proof":
        rep = check_proof(value)
        if "accepted" in expect:
            add("accepted", rep["accepted"] == expect["accepted"],
                str(rep.get("reason", "")))
        if "reject_step" in expect:
            add("reject_step", rep.get("step") == expect["reject_step"],
                f"found {rep.get('step')}")
        if expect.get("sound_samples") and rep["accepted"]:
            ss = soundness_sample(value.goal,
                                  samples=int(expect["sound_samples"]),
                                  seed=DEFAULT_SEED)
            add("sound_samples", ss["ok"], str(ss.get("violations"))[:120])
        if expect.get("countermodel"):
            ss = soundness_sample(value.goal,
                                  samples=int(expect["countermodel"]),
                                  seed=DEFAULT_SEED)
            add("countermodel", not ss["ok"],
                "no countermodel in the sample budget")
    elif kind == "theory":
        sig, sentences = value
        for key, want_found in (("weak_witness", True),
                                ("strong_exhausted", False)):
            if key in expect:
                bounds = expect[key]
                res = bounded_boolean_sat(
                    sig, list(sentences), max_atoms=bounds["max_atoms"],
                    max_domain=bounds["max_domain"],
                    mode="weak" if want_found else "strong")
                add(key, bool(res.get("found")) == want_found,
                    f"bounds {bounds}")


def run_corpus(manifest_path: Path) -> dict:
    """Execute every manifest expectation; aggregate, never short-circuit."""
    obj = load_json(str(manifest_path))
    if not isinstance(obj, dict) or "entries" not in obj \
            or not isinstance(obj["entries"], list):
        raise ParseError("$: manifest must be an object with an entries list")
    entries = obj["entries"]
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict)
                and isinstance(entry.get("expect", {}), dict)
                and all(isinstance(entry.get(k, ""), str)
                        for k in ("file", "kind", "algebra"))
                and ("algebra" in entry
                     or entry.get("kind") != "ultrafilter")):
            raise ParseError(f"$.entries[{i}]: expected an object with string "
                             "file and kind, an expect object, and a string "
                             "algebra for an ultrafilter")
    warnings = []
    if not entries:
        warnings.append("empty manifest: zero checks executed")
    base = manifest_path.parent
    results = [_check_entry(base, entry, i) for i, entry in enumerate(entries)]
    failed = [r["file"] for r in results if not r["ok"]]
    return {"ok": not failed, "entries": results, "failed": failed,
            "total": len(results), "warnings": warnings}


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, CapExceeded) as exc:
        return _input_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())

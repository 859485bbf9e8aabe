"""Command-line surface: thirteen subcommands over the JSON file formats.

Exit codes: 0 success, 1 a checked expectation failed, 2 malformed input
(including a table algebra that breaks a Boolean law, and a cap overrun).
Every randomized check takes --seed and defaults to seed 0, so identical
invocations print identical reports.
"""
from __future__ import annotations

import gc
import json
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any

from .boolalg import ImproperFilter, TrivialAlgebra, \
    regular_open_sets_bruteforce, ro_completion
from .bvmodel import CapExceeded, UnboundVariable, bounded_boolean_sat, \
    check_mixing, check_model, eval_formula
from .iojson import Findings, ParseError, dump, dumps, emit_algebra, emit_cp, \
    emit_element, emit_formula, emit_model, emit_pool, emit_poset, \
    emit_proof, emit_signature, emit_theory, emit_ultrafilter, load_json, \
    parse_algebra, parse_cp, parse_formula, parse_model, parse_pool, \
    parse_poset, parse_proof, parse_signature, parse_theory, \
    parse_ultrafilter, read_cp, save_json
from .syntax import Formula, validate_formula

if TYPE_CHECKING:   # the other kernel modules load in the commands that run
    import argparse
    from pathlib import Path

    from .consprop import ConsistencyProperty

DEFAULT_SEED = 0


def _plain(x: Any) -> Any:
    """Reduce report values to JSON-friendly data; formulas print as their
    canonical form, sets as sorted lists. Only the element labels of the
    mixing report need it."""
    if isinstance(x, Formula):
        return x.key()
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
            if var in assignment:
                return _input_error(f"--assign names variable {var!r} twice")
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
    from .quotient import los_check, quotient
    model = parse_model(load_json(args.model))
    atom = parse_ultrafilter(load_json(args.ultrafilter), model.algebra)
    try:
        q = quotient(model, atom)
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
        los = los_check(model, q, atom, list(pool))
        report["los"] = los
        report["ok"] = los["ok"]
    _print(report)
    return 0 if report["ok"] else 1


def cmd_check_cp(args) -> int:
    """check_cp's report, written as its walks find it."""
    from .consprop import check_cp
    report = check_cp(read_cp(args.cp), args.smax, Findings)
    _print(report)
    return 0 if report["ok"] else 1


def _family_root(cp: ConsistencyProperty, index: int) -> int:
    if cp.family is None or not 0 <= index < len(cp.family):
        raise ParseError(f"$.family: root index {index} out of range")
    return cp.family[index]


def cmd_generic(args) -> int:
    from .consprop import IllDefined, build_af, generic_filter, \
        verify_realizes
    cp = read_cp(args.cp)
    root = _family_root(cp, args.root)
    try:
        gf = generic_filter(cp, root)
        term_model = build_af(cp, gf.minimum)
    except (ValueError, IllDefined) as exc:
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
    from .consprop import cp_from_model
    model = parse_model(load_json(args.model))
    try:
        named = model.signature.with_constants(model.domain)
    except ValueError as exc:
        return _input_error(f"the model's constants clash with the domain "
                            f"element names the family adds: {exc}")
    pool = parse_pool(load_json(args.pool), sig=named, need_sentence=True)
    cp = cp_from_model(model, pool=pool)
    emit_cp(cp, sys.stdout.write)
    return 0


def cmd_mansfield(args) -> int:
    from .mansfield import NoConstants, mansfield_build, verify_claim1, \
        verify_claim2
    cp = read_cp(args.cp)
    root = _family_root(cp, args.root)
    try:
        built = mansfield_build(cp, root)
    except NoConstants as exc:
        return _input_error(str(exc))
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
    from .mansfield import cp_from_algebra
    cp, report = cp_from_algebra(parse_algebra(load_json(args.algebra)))
    if args.emit:
        dump(report, sys.stderr.write)
        emit_cp(cp, sys.stdout.write)
    else:
        _print(report)
    return 0 if report["ok"] else 1


def cmd_roundtrip(args) -> int:
    from .mansfield import roundtrip_check
    report = roundtrip_check(parse_algebra(load_json(args.algebra)))
    _print(report)
    return 0 if report["ok"] else 1


def cmd_ro(args) -> int:
    if args.brute_max < 0:
        return _input_error("--brute-max must be at least 0")
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
        report["brute_match"] = brute == set(map(alg.label, alg.elements))
        report["ok"] = report["ok"] and report["brute_match"]
    _print(report)
    return 0 if report["ok"] else 1


def cmd_check_proof(args) -> int:
    from .calculus import SAMPLE_CAP, ArityClash, check_proof, soundness_sample
    if args.max_atoms < 1 or args.max_domain < 1:
        return _input_error("--max-atoms and --max-domain must be at least 1")
    if args.soundness_samples < 0:
        return _input_error("--soundness-samples must be at least 0")
    for flag, bound in (("--max-atoms", args.max_atoms),
                        ("--max-domain", args.max_domain)):
        if bound > SAMPLE_CAP:
            return _input_error(f"{flag} {bound} is over the sample cap of "
                                f"{SAMPLE_CAP}; lower {flag}")
    proof = parse_proof(load_json(args.proof))
    report = check_proof(proof)
    ok = report["accepted"]
    if ok:
        goal = report["goal"]
        report["goal"] = {"ante": sorted(f.key() for f in goal.ante),
                          "succ": sorted(f.key() for f in goal.succ)}
    if ok and args.soundness_samples > 0:
        try:
            sampled = soundness_sample(
                proof.goal, samples=args.soundness_samples, seed=args.seed,
                max_atoms=args.max_atoms, max_domain=args.max_domain)
        except ArityClash as exc:
            return _input_error(f"the goal has no signature: {exc}")
        report = dict(report, soundness=sampled)
        ok = sampled["ok"]
    _print(report)
    return 0 if ok else 1


def cmd_corpus(args) -> int:
    from pathlib import Path
    shipped = Path(__file__).parent / "corpus" / "manifest.json"
    report = run_corpus(Path(args.manifest or shipped))
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
    except (OSError, ValueError, RecursionError) as exc:
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
    from .calculus import check_proof, soundness_sample
    from .consprop import check_cp
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
        if "check_cp" in expect or "smax" in expect:
            rep = check_cp(value, "smax" in expect)
        if "check_cp" in expect:
            add("check_cp", (not rep["violations"]) == expect["check_cp"],
                f"violations: {[v['clause'] for v in rep['violations']][:4]}")
        if "members" in expect:
            add("members", len(value.family) == expect["members"],
                f"found {len(value.family)}")
        if "smax" in expect:
            add("smax", rep["smax"]["ok"] == expect["smax"],
                f"violations: {len(rep['smax']['violations'])}")
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
# argument parsing: one row per subcommand, in help order, of its name,
# help, function and arguments, each a flag and its add_argument options

_SAMPLE_BOUNDS = (("--max-atoms", {"type": int, "default": 2}),
                  ("--max-domain", {"type": int, "default": 3}))

COMMANDS = (
    ("eval", "evaluate a formula in a model", cmd_eval,
     ("--model", {"required": True}), ("--formula", {"required": True}),
     ("--assign", {"default": "",
                   "help": "free-variable assignment, e.g. v0=m0,v1=m1"})),
    ("check-model", "algebra laws plus the equality axioms", cmd_check_model,
     ("model", {})),
    ("sat", "bounded exhaustive satisfiability search", cmd_sat,
     ("--theory", {"required": True}),
     ("--mode", {"choices": ("weak", "strong"), "required": True}),
     *_SAMPLE_BOUNDS),
    ("quotient", "ultrafilter quotient, optionally with the truth-transfer "
                 "check over a pool", cmd_quotient,
     ("--model", {"required": True}), ("--ultrafilter", {"required": True}),
     ("--los-pool", {"default": None})),
    ("check-cp", "check every consistency-property clause", cmd_check_cp,
     ("cp", {}), ("--smax", {"action": "store_true",
                             "help": "also check maximality over the pool"})),
    ("generic", "generic filter, term structure, realization", cmd_generic,
     ("--cp", {"required": True}),
     ("--root", {"type": int, "required": True,
                 "help": "index into the family list"}),
     ("--emit-model", {"default": None})),
    ("cp-from-model", "positivity family of a valid model", cmd_cp_from_model,
     ("--model", {"required": True}), ("--pool", {"required": True})),
    ("mansfield", "condition-algebra model from a consistency property",
     cmd_mansfield,
     ("--cp", {"required": True}), ("--root", {"type": int, "required": True}),
     ("--pool", {"default": None}), ("--emit-model", {"default": None})),
    ("cp-from-algebra", "the canonical family of a finite algebra",
     cmd_cp_from_algebra,
     ("algebra", {}), ("--emit", {"action": "store_true",
                                  "help": "print the explicit family as a "
                                          "cp file"})),
    ("roundtrip", "algebra -> family -> forcing completion isomorphism check",
     cmd_roundtrip, ("algebra", {})),
    ("ro", "regular-open completion of a poset", cmd_ro,
     ("poset", {}),
     ("--brute-max", {"type": int, "default": 6,
                      "help": "cross-check against subset enumeration up to "
                              "this many poset elements"})),
    ("check-proof", "sequent-calculus proof checking", cmd_check_proof,
     ("proof", {}),
     ("--soundness-samples", {"type": int, "default": 0,
                              "help": "sample this many models against the "
                                      "goal"}),
     ("--seed", {"type": int, "default": DEFAULT_SEED}), *_SAMPLE_BOUNDS),
    ("corpus", "run the shipped or a custom corpus", cmd_corpus,
     ("manifest", {"nargs": "?", "default": None})),
)


def build_parser() -> argparse.ArgumentParser:
    import argparse
    top = argparse.ArgumentParser(
        prog="infkit",
        description="Finite-width infinitary logic over finite Boolean "
                    "algebras: evaluation, model search, consistency "
                    "properties, forcing constructions, proof checking.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, summary, func, *arguments in COMMANDS:
        p = sub.add_parser(name, help=summary)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return top


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """What `build_parser().parse_args(argv)` gives a plain command line,
    read from COMMANDS. None for anything else (an inexact or unknown flag,
    a value that starts with '-' or fails its type or choices, a missing
    required flag, too few or too many positionals): argparse reads it."""
    row = next((r for r in COMMANDS if argv and r[0] == argv[0]), None)
    if row is None:
        return None
    name, _, func, *arguments = row
    values = {"command": name, "func": func}
    for flag, options in arguments:
        values[flag.lstrip("-").replace("-", "_")] = (
            False if options.get("action") == "store_true"
            else options.get("default"))
    flags = {f: options for f, options in arguments if f.startswith("-")}
    positionals = [(f, options) for f, options in arguments
                   if not f.startswith("-")]
    missing = {f for f, options in flags.items() if options.get("required")}
    words, tokens = [], iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        if token not in flags:
            return None
        options, dest = flags[token], token.lstrip("-").replace("-", "_")
        missing.discard(token)
        if options.get("action") == "store_true":
            values[dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            value = options.get("type", str)(value)
        except ValueError:
            return None
        if value not in options.get("choices", (value,)):
            return None
        values[dest] = value
    least = sum(options.get("nargs") != "?" for _, options in positionals)
    if missing or not least <= len(words) <= len(positionals):
        return None
    values.update(zip((f for f, _ in positionals), words))
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, CapExceeded) as exc:
        return _input_error(str(exc))


def run() -> int:
    """Process entry: the import-time heap lives until exit, so it goes to
    the permanent generation and interpreter shutdown does not collect it.
    A reader that closes stdout early ends the run with exit 1; stdout then
    points at the null device, so the final flush at exit cannot fail."""
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(run())

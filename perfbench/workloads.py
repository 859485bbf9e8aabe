"""Seeded inputs and known answers for the three benchmark workloads.

`generate(workload, seed, corpus_dir, dest)` writes the workload's input
files under `dest` and returns its commands. The same seed gives
byte-identical files. The seed changes names, file order, sentence shape and
family roots; it never changes the sizes that set the cost (candidate
counts, member counts, counts of minimal elements, sample counts).

Every known answer below comes from the shipped manifest, the acceptance
tests or the README exit-code contract, never from running the program. The
comment at each command names the source.

The generator does not import infkit, so the inputs stay the same when the
program under test changes.
"""
from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("search", "families", "corpus")

# check-proof samples per accepted proof in `search`.
SOUNDNESS_SAMPLES = 2000
# (atomic evaluations, node evaluations) of one value of a seeded sentence
# at domain size 4. Every seeded sentence is one in every model, so strong
# mode evaluates all of them and then the corpus theory on every candidate;
# with this cost fixed, the work of the strong search is the same for every
# seed.
SEEDED_SENTENCE_COST = (2, 6)
SEEDED_SENTENCES = 2


@dataclass(frozen=True)
class Command:
    """One infkit invocation and its known answer.

    `expect` maps a report path to its value: `a.b` is a nested field,
    `len(a)` the length of a list and `kinds(a)` the sorted distinct `kind`
    fields of a list of objects. Exit 2 also requires exactly one `error:`
    line on stderr and no report (README exit-code contract).
    `same_stdout_as` names an earlier command of the cycle whose stdout must
    be byte-identical; `env` adds environment variables. Probes check the
    contract on inputs where this version is known to break it; they are
    tallied apart from the workload's commands.
    """
    name: str
    argv: tuple[str, ...]
    exit: int
    expect: dict = field(default_factory=dict)
    probe: bool = False
    env: tuple = ()
    same_stdout_as: str = ""


def dumps(obj) -> str:
    """The wire format's canonical form: sorted keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps(obj), encoding="utf-8")


def _names(rng: random.Random, k: int, prefix: str) -> list[str]:
    """k distinct identifiers of equal length (prefix plus three letters)."""
    out = []
    for n in rng.sample(range(26 ** 3), k):
        letters = ""
        for _ in range(3):
            n, r = divmod(n, 26)
            letters += chr(ord("a") + r)
        out.append(prefix + letters)
    return out


def _rename_terms(obj, mapping: dict):
    """Copy of a formula/theory object with `{"const": c}` renamed."""
    if isinstance(obj, dict):
        if set(obj) == {"const"}:
            return {"const": mapping.get(obj["const"], obj["const"])}
        return {k: _rename_terms(v, mapping) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rename_terms(v, mapping) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# seeded sentences (the grammar of infkit's modelgen.random_formula over a
# signature without relations, reimplemented here)

def _random_formula(rng: random.Random, constants: list[str], depth: int,
                    variables=("v0", "v1")) -> dict:
    terms = [{"var": v} for v in variables] + [{"const": c} for c in constants]

    def atom() -> dict:
        return {"eq": [rng.choice(terms), rng.choice(terms)]}

    def build(d: int) -> dict:
        if d <= 0:
            return atom()
        pick = rng.randrange(6)
        if pick == 0:
            return atom()
        if pick == 1:
            return {"not": build(d - 1)}
        if pick in (2, 3):
            kids = [build(d - 1) for _ in range(rng.randrange(3))]
            return {"and" if pick == 2 else "or": kids}
        body = {"vars": [rng.choice(variables)], "body": build(d - 1)}
        return {"forall" if pick == 4 else "exists": body}

    return build(depth)


def _free_vars(f: dict) -> set[str]:
    (kind, val), = f.items()
    if kind == "eq":
        return {t["var"] for t in val if "var" in t}
    if kind == "not":
        return _free_vars(val)
    if kind in ("and", "or"):
        return set().union(*(_free_vars(c) for c in val)) if val else set()
    return _free_vars(val["body"]) - set(val["vars"])


def _cost(f: dict, domain: int = 4) -> tuple[int, int]:
    """(atomic evaluations, node evaluations) that `eval_formula` makes for
    one value of f at this domain size, the same in every model."""
    (kind, val), = f.items()
    if kind == "eq":
        return 1, 1
    if kind == "not":
        leaves, nodes = _cost(val, domain)
        return leaves, nodes + 1
    if kind in ("and", "or"):
        costs = [_cost(c, domain) for c in val]
        return (sum(c[0] for c in costs), sum(c[1] for c in costs) + 1)
    k = domain ** len(val["vars"])
    leaves, nodes = _cost(val["body"], domain)
    return k * leaves, k * nodes + 1


def _seeded_sentence(rng: random.Random, constants: list[str]) -> dict:
    """`f or not f` for a random depth-2 formula f, closed universally: one
    in every Boolean-valued model, at a fixed evaluation cost."""
    while True:
        f = _random_formula(rng, constants, depth=2)
        s = {"or": [f, {"not": f}]}
        free = sorted(_free_vars(f))
        if free:
            s = {"forall": {"vars": free, "body": s}}
        if _cost(s) == SEEDED_SENTENCE_COST:
            return s


# ---------------------------------------------------------------------------
# algebras and posets

def _powerset(atoms: list[str]) -> dict:
    return {"type": "powerset", "atoms": sorted(atoms)}


def _table_powerset(rng: random.Random, n_atoms: int) -> dict:
    """The powerset of n atoms in table form; a seeded permutation assigns
    the opaque names x00.. to the elements."""
    size = 2 ** n_atoms
    top = size - 1
    names = [f"x{i:02d}" for i in range(size)]
    rng.shuffle(names)                   # names[mask] is the mask's name
    order = sorted(range(size), key=lambda m: names[m])
    return {
        "type": "table",
        "elements": [names[a] for a in order],
        "meet": [[names[a & b] for b in order] for a in order],
        "join": [[names[a | b] for b in order] for a in order],
        "comp": [names[top ^ a] for a in order],
    }


def _two_level_poset(rng: random.Random, n_min: int, n_up: int) -> dict:
    """n_min minimal elements and n_up pairwise incomparable elements, each
    above exactly two minimal ones: n_min minimal elements for every seed."""
    names = _names(rng, n_min + n_up, "p")
    mins, ups = names[:n_min], names[n_min:]
    leq = sorted([m, u] for u in ups for m in rng.sample(mins, 2))
    return {"elements": sorted(names), "leq": leq}


# ---------------------------------------------------------------------------
# workloads

def _search(rng: random.Random, seed: int, corpus: Path,
            dest: Path) -> list[Command]:
    theory = json.loads((corpus / "split_constant_theory.json").read_text())
    old = theory["signature"]["constants"]
    mapping = dict(zip(old, _names(rng, len(old), "k")))
    renamed = _rename_terms(theory, mapping)
    consts = sorted(mapping.values())
    seeded = [_seeded_sentence(rng, consts) for _ in range(SEEDED_SENTENCES)]
    _write(dest / "theory_strong.json", {
        "signature": {"constants": consts, "relations": []},
        "sentences": seeded + renamed["sentences"]})
    shutil.copyfile(corpus / "split_constant_theory.json",
                    dest / "theory_weak.json")
    cmds = [
        # Strong mode needs [d=c0] = [d=c1] = 0 and their join = 1, which no
        # algebra allows: exhausted at any bounds (the manifest records it
        # at 2/3), and a superset of the theory stays exhausted. The seeded
        # sentences are one in every model and come first, so every
        # candidate evaluates them all and then the corpus theory.
        Command("sat_strong", ("sat", "--theory", "in/theory_strong.json",
                               "--mode", "strong", "--max-atoms", "3",
                               "--max-domain", "4"),
                1, {"found": False, "exhausted": True, "mode": "strong",
                    "max_atoms": 3, "max_domain": 4}),
        # Manifest weak_witness at 2/3. One atom is two-valued and refutes
        # the theory, and d, c0, c1 need three distinct elements, so the
        # first witness in search order has 2 atoms and 3 elements.
        Command("sat_weak", ("sat", "--theory", "in/theory_weak.json",
                             "--mode", "weak", "--max-atoms", "2",
                             "--max-domain", "3"),
                0, {"found": True, "atoms": 2, "domain_size": 3}),
    ]
    # Manifest: accepted proofs with sound_samples; the calculus is sound, so
    # sampling finds no countermodel at any seed or bound.
    manifest = json.loads((corpus / "manifest.json").read_text())
    for entry in manifest["entries"]:
        exp = entry.get("expect", {})
        if entry["kind"] != "proof" or not exp.get("sound_samples"):
            continue
        shutil.copyfile(corpus / entry["file"], dest / entry["file"])
        cmds.append(Command(
            f"check_proof_{Path(entry['file']).stem}",
            ("check-proof", f"in/{entry['file']}", "--soundness-samples",
             str(SOUNDNESS_SAMPLES), "--max-atoms", "3", "--max-domain", "4",
             "--seed", str(seed)),
            0, {"accepted": True, "soundness.ok": True,
                "soundness.samples": SOUNDNESS_SAMPLES}))
    return cmds


def _families(rng: random.Random, seed: int, corpus: Path,
              dest: Path) -> list[Command]:
    _write(dest / "b16.json", _powerset(_names(rng, 4, "a")))
    _write(dest / "b16_table.json", _table_powerset(rng, 4))
    _write(dest / "b8.json", _powerset(_names(rng, 3, "a")))
    _write(dest / "poset14.json", _two_level_poset(rng, 7, 7))
    return [
        # test_forcing_poset_recovers_each_algebra: b16 has 13,328 members
        # and recovers; 13,328 exceeds the materialization limit (200).
        Command("roundtrip_b16", ("roundtrip", "in/b16.json"),
                0, {"ok": True, "members": 13328, "algebra_size": 16,
                    "atoms": 4, "materialized": False}),
        # Same algebra up to isomorphism, so the same 13,328 members.
        Command("emit_b16_table", ("cp-from-algebra", "in/b16_table.json",
                                   "--emit"),
                0, {"len(family)": 13328}),
        # b8 has 528 members (acceptance test).
        Command("emit_b8", ("cp-from-algebra", "in/b8.json", "--emit"),
                0, {"len(family)": 528}),
        # The explicit b8 family is a consistency property, but clauses add
        # sentences outside its pool: PoolIncomplete findings only, exit 1.
        Command("check_cp_b8", ("check-cp", "out/emit_b8.stdout"),
                1, {"ok": False, "family_size": 528,
                    "kinds(violations)": ["PoolIncomplete"]}),
        # The completion has 2^(minimal elements) = 2^7 elements (README,
        # ro_completion) and subset enumeration finds the same sets.
        Command("ro_poset14", ("ro", "in/poset14.json", "--brute-max", "14"),
                0, {"ok": True, "size": 128, "brute_match": True}),
    ]


# Good families and their member counts (manifest).
GOOD_FAMILIES = {"eq4_family": 112, "eq2_family": 16,
                 "conditions_family": 112, "max_family": 64}


def _corpus(rng: random.Random, seed: int, corpus: Path,
            dest: Path) -> list[Command]:
    for f in sorted(corpus.glob("*.json")):
        shutil.copyfile(f, dest / f.name)
    _write(dest / "disjunction.json", {"or": [
        {"eq": [{"const": "d"}, {"const": "c0"}]},
        {"eq": [{"const": "d"}, {"const": "c1"}]}]})
    _write(dest / "trivial_table.json", {
        "type": "table", "elements": ["z"], "meet": [["z"]],
        "join": [["z"]], "comp": ["z"]})
    chain = ["bot", "mid", "top"]
    _write(dest / "chain3_table.json", {
        "type": "table", "elements": chain,
        "meet": [[chain[min(i, j)] for j in range(3)] for i in range(3)],
        "join": [[chain[max(i, j)] for j in range(3)] for i in range(3)],
        "comp": ["top", "mid", "bot"]})
    m4 = "in/four_element_model.json"
    cmds = [
        # test_eval_value and the README quick start.
        Command("eval", ("eval", "--model", m4, "--formula",
                         "in/disjunction.json"), 0, {"value": ["a0", "a1"]}),
        # Manifest: both models valid.
        Command("check_model_m4", ("check-model", m4), 0, {"ok": True}),
        Command("check_model_two_point",
                ("check-model", "in/two_point_model.json"), 0, {"ok": True}),
        # Manifest: weak witness and strong exhaustion at 2/3.
        Command("sat_weak", ("sat", "--theory",
                             "in/split_constant_theory.json", "--mode",
                             "weak"), 0, {"found": True}),
        Command("sat_strong", ("sat", "--theory",
                               "in/split_constant_theory.json", "--mode",
                               "strong"), 1,
                {"found": False, "exhausted": True}),
        # test_quotient_and_los and the acceptance biconditional.
        Command("quotient", ("quotient", "--model", m4, "--ultrafilter",
                             "in/uf_a0.json", "--los-pool",
                             "in/los_pool.json"),
                0, {"ok": True, "los.ok": True}),
        # Manifest check_cp / members / smax expectations.
        Command("check_cp_eq2_smax", ("check-cp", "in/eq2_family.json",
                                      "--smax"),
                0, {"ok": True, "family_size": 16, "smax.ok": True}),
    ]
    for fam, size in GOOD_FAMILIES.items():
        if fam != "eq2_family":
            cmds.append(Command(f"check_cp_{fam}",
                                ("check-cp", f"in/{fam}.json"),
                                0, {"ok": True, "family_size": size}))
    for fam in ("ind4_family", "con_family"):
        cmds.append(Command(f"check_cp_{fam}", ("check-cp", f"in/{fam}.json"),
                            1, {"ok": False}))
    # Acceptance: every root of every good family realizes its generic
    # filter, and the condition model and both claims hold at every root.
    for fam, size in GOOD_FAMILIES.items():
        root = str(rng.randrange(size))
        cmds.append(Command(f"generic_{fam}",
                            ("generic", "--cp", f"in/{fam}.json", "--root",
                             root), 0, {"ok": True, "realizes.ok": True}))
        root = str(rng.randrange(size))
        cmds.append(Command(f"mansfield_{fam}",
                            ("mansfield", "--cp", f"in/{fam}.json", "--root",
                             root),
                            0, {"ok": True, "claim1.ok": True,
                                "claim2.ok": True}))
    cmds += [
        # The positivity family names the domain with fresh constants
        # (cp_from_model).
        Command("cp_from_model", ("cp-from-model", "--model", m4, "--pool",
                                  "in/los_pool.json"),
                0, {"fresh_constants": ["m00", "m01", "m10", "m11"]}),
        # Acceptance: b4 has 80 members; 80 is under the materialization
        # limit, so roundtrip completes the poset outright.
        Command("cp_from_algebra_b4", ("cp-from-algebra", "in/b4.json"),
                0, {"ok": True, "members": 80}),
        Command("roundtrip_b4", ("roundtrip", "in/b4.json"),
                0, {"ok": True, "members": 80, "algebra_size": 4,
                    "materialized": True, "ro_size": 4}),
        # Manifest ro_size expectations; test_ro_command_brute_matches.
        Command("ro_vee_3", ("ro", "in/vee_3.json"),
                0, {"ok": True, "size": 4, "brute_match": True}),
        Command("ro_antichain_4", ("ro", "in/antichain_4.json"),
                0, {"ok": True, "size": 16, "brute_match": True}),
        # Manifest accepted / reject_step; test_check_proof_accept_reject.
        Command("check_proof_cut", ("check-proof", "in/proof_cut.json",
                                    "--soundness-samples", "50"),
                0, {"accepted": True, "soundness.ok": True}),
        Command("check_proof_bad_eigenvariable",
                ("check-proof", "in/proof_bad_eigenvariable.json"),
                1, {"accepted": False, "step": 1}),
        Command("check_proof_unprovable_goal",
                ("check-proof", "in/proof_unprovable_goal.json"),
                1, {"accepted": False, "step": 0}),
        # The manifest replays green: 38 entries, none failed.
        Command("corpus", ("corpus", "in/manifest.json"),
                0, {"ok": True, "total": 38, "failed": []}),
        # Identical invocations print identical bytes (ROADMAP): the same
        # report under another string-hash seed. The benchmark pins the
        # hash seed of every other command so that digests repeat.
        Command("mansfield_eq4_root80",
                ("mansfield", "--cp", "in/eq4_family.json", "--root", "80"),
                0, {"ok": True}),
        Command("probe_mansfield_hash_seed",
                ("mansfield", "--cp", "in/eq4_family.json", "--root", "80"),
                0, {"ok": True}, probe=True, env=(("PYTHONHASHSEED", "8"),),
                same_stdout_as="mansfield_eq4_root80"),
        # README exit-code contract and ROADMAP aim 3: each is an input
        # error, exit 2 with one `error:` line.
        Command("probe_sat_max_atoms_0",
                ("sat", "--theory", "in/split_constant_theory.json",
                 "--mode", "weak", "--max-atoms", "0"), 2, probe=True),
        Command("probe_check_proof_max_domain_0",
                ("check-proof", "in/proof_axiom.json",
                 "--soundness-samples", "5", "--max-domain", "0"),
                2, probe=True),
        Command("probe_cp_from_algebra_trivial",
                ("cp-from-algebra", "in/trivial_table.json"), 2, probe=True),
        Command("probe_cp_from_algebra_chain3",
                ("cp-from-algebra", "in/chain3_table.json"), 2, probe=True),
        Command("probe_roundtrip_chain3",
                ("roundtrip", "in/chain3_table.json"), 2, probe=True),
    ]
    return cmds


_GENERATORS = {"search": _search, "families": _families, "corpus": _corpus}


def generate(workload: str, seed: int, corpus_dir: Path,
             dest: Path) -> list[Command]:
    """Write the workload's inputs for this seed under dest and return its
    commands, in the order one cycle runs them."""
    dest.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, seed, Path(corpus_dir), dest)


# ---------------------------------------------------------------------------
# known answers

def _lookup(report, path: str):
    if path.startswith("len(") and path.endswith(")"):
        return len(_lookup(report, path[4:-1]))
    if path.startswith("kinds(") and path.endswith(")"):
        return sorted({v["kind"] for v in _lookup(report, path[6:-1])})
    for part in path.split("."):
        report = report[part]
    return report


def process_errors(cmd: Command, exit_code: int, stderr: bytes,
                   timed_out: bool) -> list[str]:
    """How the command's exit, stderr and run time differ from its known
    answer; empty when they match."""
    errors = []
    if timed_out:
        errors.append("ran past the time limit")
    if b"Traceback (most recent call last)" in stderr:
        errors.append("traceback on stderr")
    if exit_code != cmd.exit:
        errors.append(f"exit {exit_code}, expected {cmd.exit}")
    if cmd.exit == 2:
        lines = stderr.decode(errors="replace").splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: "):
            errors.append("stderr is not exactly one 'error:' line")
    return errors


def report_errors(cmd: Command, stdout: bytes) -> list[str]:
    """How the command's stdout report differs from its known answer."""
    if cmd.exit == 2:
        return ["a report on stdout"] if stdout else []
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    errors = []
    for path, want in cmd.expect.items():
        try:
            got = _lookup(report, path)
        except (KeyError, TypeError, IndexError) as exc:
            errors.append(f"{path}: missing ({exc!r})")
            continue
        if got != want:
            errors.append(f"{path} = {got!r}, expected {want!r}")
    return errors

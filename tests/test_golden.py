"""Byte-identity of a fixed set of commands: the sha256 of each command's
exit code, stdout and stderr (and of the model file it writes, if any), at
string-hash seed 0, pinned to the values these commands printed before
algebra elements became int masks over atoms (the `check-cp` and `generic`
pins: before the clause table was shared by every forcing-side check; the
`sat` and soundness-sampling pins: before `sat` and the sampler shared one
quotient model per distinct per-atom structure; the `mansfield` pins on
`conditions_family` and `max_family`: before the conditions of the forcing
side became ints over the interned sentences; the soundness pins on the
other five proofs and on a 12-element domain: before samples were drawn
straight into their per-atom quotients; the `mansfield` pin on the
two-member family at 4,096 conditions: while the condition algebra was
still the completion of the forcing poset; the `cp-from-model` pins:
while an emitted family was still one dict and one string; the strong
`sat` pins at 9 and 10 elements: while strong mode still scanned every
structure of every domain size; the `ro` pin on a 16-element antichain:
while the completion still built a label for each of its 65,536
elements; the `quotient` pin on 13 atoms: while the ultrafilter was
still the frozenset of its members; the `check-cp --smax` pin on the
emitted b16 family: while every finding was built before the first was
written; the `mansfield --emit-model` pin on the star family at 10
constants: while each table was rendered as one string; the `mansfield`
and `generic` pins on the emitted b16 family: while `mansfield` built every
finding of the clause check to report the first, and the maximal members
of an explicit family were found by comparing every pair). Also that
`tools/gen_corpus.py` writes the shipped corpus byte for byte."""
import hashlib
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import infkit
from infkit.iojson import dumps
from inputs import cp_text, load_gen_corpus, star_family, two_member_family

CORPUS = Path(infkit.__file__).parent / "corpus"


def _table_powerset(n_atoms: int, seed: int) -> dict:
    """The powerset of n atoms in table form, its elements named by a
    seeded permutation."""
    size = 2 ** n_atoms
    names = [f"x{i:02d}" for i in range(size)]
    random.Random(seed).shuffle(names)          # names[mask] names the mask
    order = sorted(range(size), key=lambda m: names[m])
    return {"type": "table", "elements": [names[a] for a in order],
            "meet": [[names[a & b] for b in order] for a in order],
            "join": [[names[a | b] for b in order] for a in order],
            "comp": [names[(size - 1) ^ a] for a in order]}


def _two_level_poset(n_min: int, n_up: int, seed: int) -> dict:
    """n_min minimal elements and n_up elements above two of them each."""
    rng = random.Random(seed)
    mins = [f"p{i:02d}" for i in range(n_min)]
    ups = [f"q{i:02d}" for i in range(n_up)]
    leq = sorted([m, u] for u in ups for m in rng.sample(mins, 2))
    return {"elements": sorted(mins + ups), "leq": leq}


def _wide_quotient(n_atoms: int) -> tuple[dict, dict]:
    """A valid model over n atoms with two elements, `R/1` and a constant,
    and a pool of four formulas for its Los check."""
    atoms = [f"a{i:02d}" for i in range(n_atoms)]

    def el(keep) -> list[str]:
        return [a for i, a in enumerate(atoms) if keep(i)]

    model = {
        "algebra": {"type": "powerset", "atoms": atoms},
        "domain": ["x", "y"],
        "eq": [{"pair": p, "value": el(lambda i: i % 2 == 0)}
               for p in (["x", "y"], ["y", "x"])],
        "relations": {"R": [
            {"args": ["x"], "value": el(lambda i: i < 7)},
            {"args": ["y"], "value": el(
                lambda i: i < 7 and i % 2 == 0 or i % 6 == 3)}]},
        "signature": {"relations": [{"name": "R", "arity": 1}],
                      "constants": ["c"]},
        "constants": {"c": "y"}}
    c, v0 = {"const": "c"}, {"var": "v0"}
    pool = {"formulas": [
        {"atom": {"rel": "R", "args": [c]}},
        {"atom": {"rel": "R", "args": [v0]}},
        {"exists": {"vars": ["v0"], "body": {"not": {"eq": [v0, c]}}}},
        {"forall": {"vars": ["v0"], "body": {"or": [
            {"atom": {"rel": "R", "args": [v0]}}, {"eq": [v0, c]}]}}}]}
    return model, pool


GOLDEN = {
    "roundtrip_b4": ("roundtrip", "b4.json"),
    "emit_b4": ("cp-from-algebra", "b4.json", "--emit"),
    "roundtrip_b8": ("roundtrip", "b8.json"),
    "emit_b8": ("cp-from-algebra", "b8.json", "--emit"),
    "roundtrip_b16_table": ("roundtrip", "b16_table.json"),
    "emit_b16_table": ("cp-from-algebra", "b16_table.json", "--emit"),
    "ro_vee_3": ("ro", "vee_3.json"),
    "ro_poset14": ("ro", "poset14.json", "--brute-max", "14"),
    # pinned while each still scanned its 512-element algebra for the laws
    "ro_antichain_9": ("ro", "antichain_9.json"),
    "ro_antichain_16": ("ro", "antichain_16.json"),
    "check_model_point_9": ("check-model", "point_model_9.json"),
    "eval": ("eval", "--model", "four_element_model.json", "--formula",
             "disjunction.json"),
    "check_model": ("check-model", "four_element_model.json"),
    "quotient_los": ("quotient", "--model", "four_element_model.json",
                     "--ultrafilter", "uf_a0.json", "--los-pool",
                     "los_pool.json"),
    # the ultrafilter at one of 13 atoms has 4,096 members
    "quotient_los_13": ("quotient", "--model", "wide_model_13.json",
                        "--ultrafilter", "uf_wide.json", "--los-pool",
                        "wide_pool.json"),
    "mansfield_eq4_0": ("mansfield", "--cp", "eq4_family.json", "--root",
                        "0"),
    "mansfield_eq4_2": ("mansfield", "--cp", "eq4_family.json", "--root",
                        "2"),
    "mansfield_eq4_80": ("mansfield", "--cp", "eq4_family.json", "--root",
                         "80", "--emit-model", "emitted.json"),
    "generic_eq4_5": ("generic", "--cp", "eq4_family.json", "--root", "5",
                      "--emit-model", "emitted.json"),
    # a non-mixing model over a 4-element condition algebra: the antichain
    # labels and the emitted table
    "mansfield_conditions_0": ("mansfield", "--cp", "conditions_family.json",
                               "--root", "0", "--emit-model", "emitted.json"),
    "mansfield_max_3_pool": ("mansfield", "--cp", "max_family.json", "--root",
                             "3", "--pool", "max_pool.json"),
    # 2^12 conditions below the root, two of them family members
    "mansfield_two_member_12": ("mansfield", "--cp", "two_member_12.json",
                                "--root", "0", "--emit-model",
                                "emitted.json"),
    "corpus": ("corpus",),
    "cp_from_model_los": ("cp-from-model", "--model",
                          "four_element_model.json", "--pool",
                          "los_pool.json"),
    "cp_from_model_max": ("cp-from-model", "--model", "two_point_model.json",
                          "--pool", "max_pool.json"),
    "check_cp_b8_emitted": ("check-cp", "b8_family.json"),
    "check_cp_max_smax": ("check-cp", "max_family.json", "--smax"),
    "check_cp_ind4": ("check-cp", "ind4_family.json"),
    "check_cp_con": ("check-cp", "con_family.json"),
    "generic_max_3": ("generic", "--cp", "max_family.json", "--root", "3"),
    "generic_ind4_1": ("generic", "--cp", "ind4_family.json", "--root", "1"),
    **{f"sat_split_{mode}_{a}_{d}": (
        "sat", "--theory", "split_constant_theory.json", "--mode", mode,
        "--max-atoms", a, "--max-domain", d)
       for mode in ("weak", "strong") for a, d in (("2", "3"), ("3", "4"))},
    # no strong witness: exit 1 after domain size 9, which has 21,147
    # structures and 729 constant choices; the structure cap at size 10
    **{f"sat_split_strong_3_{d}": (
        "sat", "--theory", "split_constant_theory.json", "--mode", "strong",
        "--max-atoms", "3", "--max-domain", d) for d in ("9", "10")},
    # no one-atom witness up to 8 elements: exit 1
    "sat_split_weak_1_8": ("sat", "--theory", "split_constant_theory.json",
                           "--mode", "weak", "--max-atoms", "1",
                           "--max-domain", "8"),
    # no cover exists: exit 1 at domain size 3, the structure cap at 4
    **{f"sat_uncoverable_weak_{d}": (
        "sat", "--theory", "uncoverable.json", "--mode", "weak",
        "--max-domain", d) for d in ("3", "4")},
    **{f"soundness_{name}": (
        "check-proof", f"proof_{name}.json", "--soundness-samples", "2000",
        "--max-atoms", "3", "--max-domain", "4")
       for name in ("quant_left", "eq_subst", "axiom", "quant_right",
                    "empty_conj", "neg_right", "eq_swap")},
    # Bell(12) = 4,213,597 partitions of the domain, one drawn per atom
    "soundness_axiom_domain_12": (
        "check-proof", "proof_axiom.json", "--soundness-samples", "20",
        "--max-atoms", "1", "--max-domain", "12"),
}

EXPECTED = {
    "check_cp_b8_emitted":
        "72e9d838f7b19e8cca7d317a85176d14da4c885677d7d2f80f3da0ac2143735e",
    "check_cp_b16_emitted":
        "652f65cd6a17ee8448125514a71e0a27003b2fd6731942694b6496be31479d59",
    "check_cp_b16_emitted_smax":
        "ed7993e4a7aa439d572efceddc96420522b4cd2b028c7e7996b19d00836c1867",
    "check_cp_con":
        "de1a18cd8a4f09a719e6c682fe8fff0c35d0b84c47fd7cbc05bf646a46789e9a",
    "check_cp_ind4":
        "979dead502ec3c56d4355d22b231ff1dfbc788f545b58c69f9751c76870f3df0",
    "check_cp_max_smax":
        "17ab8c427e86e17945b70a43d4d9349c0a5615db52e1d616545991694a465d01",
    "check_model":
        "bc7fc38b8c4283f2ecfbf90b99af5ba5b087fe5fe3d20142ec700d616333118a",
    "check_model_point_9":
        "bc7fc38b8c4283f2ecfbf90b99af5ba5b087fe5fe3d20142ec700d616333118a",
    "corpus":
        "b07379a6301e8a6393ac157cdb1994d390563fbd2e47cf2ce24186cc96b3ad9d",
    "cp_from_model_los":
        "bfc148864f4bff9db58661917c94f78acaa7ce00d56adaaaf6338945018a92fd",
    "cp_from_model_max":
        "6f721175f857b1df72cb0deb89216888fd57843e2df9af841938d1ae5eac4da2",
    "emit_b16_table":
        "edeb5868ea6b2e88836f339810b71c2d39b508a15edef2c40c63e7ab63fb9603",
    "emit_b4":
        "c436d518916de69234005fa6972f3e214871904f9bf7f779b31b734f7d3f8772",
    "emit_b8":
        "d3f3d2b999c76598a568103b40a8fe6b6bbf29e4665f8e5d315293c263f66a36",
    "eval":
        "3836ea48812abd081c8e53ce7459bf0d7249219ead46372af3c9ca9c8b4a9f18",
    "generic_b16_emitted_0":
        "74e76f6fd2b9ac1cb1bc879ae1d3f3ed7e462e71cc77c2a0b195ebe8230b5edd",
    "generic_eq4_5":
        "a86b072b23b538c14699397024ebb09bfbd232b2c09268d775399ed7ce9fb538",
    "generic_ind4_1":
        "e8683959777ba51a22431c4ec74493def413940e79ab88cdcd920ce8cf692220",
    "generic_max_3":
        "9272c0c09e2396c297b5c8ee9fe79813294f1488ea37012ed77335a1b879f960",
    "mansfield_b16_emitted_0":
        "d1eeaf6795dbf734308d53172d441cb3485c44764b20bc9c06f932c4033dc5a0",
    "mansfield_conditions_0":
        "029f9bda003b9354a652be88132fc75bdabcfc661c2f724d19b070fed6b56dba",
    "mansfield_eq4_0":
        "421e66ad51709d30254d51c1d34772f3b834863e22d870759271e3735099333f",
    "mansfield_eq4_2":
        "8049efb449a24cb0ca51882e7d1b7d128a322ba62a36b99133939a6ed1429fbe",
    "mansfield_eq4_80":
        "5c6cc03495f800f2aac75622e82bb0e349d856238e32a4d5ade128e4e29a541f",
    "mansfield_max_3_pool":
        "d6777e0e4a907ac42aeee3b04a10fbe8be5e682ca55ed74ce72edc03a9fdd3d3",
    "mansfield_star_10_emitted":
        "4962bbddaa41dc774c42dcd80c3dde1e8e5c86598304612f3c062b399fb0d60e",
    "mansfield_two_member_12":
        "bd099d00e10e68d92ff364d9df96cfabe1b31929fe18ff2023b66a24e6bfc444",
    "quotient_los":
        "20dfbdb0492ee3837c7039deb0ae70829536e27c9eb578c7735ac89d4bebe61a",
    "quotient_los_13":
        "5e59d28f7b1e89d7a93927d82e90066faaa80dc7f914e42bb5d8061f386a0569",
    "ro_antichain_16":
        "6c9901ceba76ca6c81794e2e83b80124c2c905d63bcb6d8ee2235e377a9407af",
    "ro_antichain_9":
        "48f3732e45319c1e6d17319e2d71550d145c7291be561a51c12d7feba69dde95",
    "ro_poset14":
        "44396a810c222b820caeb45c2bfcf10f45ab641448a387a5e191c3bdf0a87ccb",
    "ro_vee_3":
        "8ffbf10adce244556dc10ba7738229c830b8586fc4242430c360eaab54df818a",
    "roundtrip_b16_table":
        "6ecad63e080a302967c47d8b145354be27dc7c357cebab6f31833b3809de6acb",
    "roundtrip_b4":
        "c0ba090c1387f720a0ad03d8dafa739983cdfbf088af7c8521c66ee782e4ae80",
    "roundtrip_b8":
        "db02b4ae7aa3f58dcd05eabc7c09eeda8f92756ce8aeaa9599fca48ab7c5640a",
    "sat_split_strong_2_3":
        "081c92fe094e1aff457a22c2a31e5e0343e3a5774716db8a941634ca813624c8",
    "sat_split_strong_3_4":
        "49008ced3fb7a013fa86b36aa75abccc6ab4097e83e99b53870e0fecd4b4f25c",
    "sat_split_strong_3_9":
        "c4760ae312069a48f13ce2758ba8638458449ee3e3f944ad5f910c30bed2c6ec",
    "sat_split_strong_3_10":
        "cbc50de49e95fb1348b88c1fe3f23e9be3dae859fe30a82cce2d95986ec00cec",
    "sat_split_weak_2_3":
        "24c8cb5663d9397ac95f588767c1bf7de54889ea2f50297ec68f30443fc8776b",
    "sat_split_weak_1_8":
        "f17e0244b970ae37e4bbc6c9459049ce2d0334fdf701b0e29872805a599a36cf",
    "sat_split_weak_3_4":
        "24c8cb5663d9397ac95f588767c1bf7de54889ea2f50297ec68f30443fc8776b",
    "sat_uncoverable_weak_3":
        "9e097888e5b63d666e9b458fde9820f7bd41f325f74a014a09ba32921ee4a6e0",
    "sat_uncoverable_weak_4":
        "9b295cf50fdab4ab5a972f4deb30549f4c6db6270eeaca5629db6dd5cb2dff25",
    "soundness_axiom":
        "eff865d1fd3cea3c52d5e02efab7dafe9afc91aec74f3fa44224d908552c1ae6",
    "soundness_axiom_domain_12":
        "2a82bf608eb0b2ac3992ff3cc62ffe0f8afea38af53972fcedf7c0bbc4619d99",
    "soundness_empty_conj":
        "0d3abd7b0c19fa18a50b3732dfe7233dfe2d5c075fd437c5ef69684b6bd3555f",
    "soundness_eq_swap":
        "3fa995d08aab045cb129a7cb99bc8dcc9f186d20e29782845f8b55dab81704c0",
    "soundness_neg_right":
        "57df507fc78051803a60dad33e918d4be3e71a6bbe0eb391be712bbccbc19189",
    "soundness_quant_right":
        "f939e4c9624848f8468c6b98b038e4765ce66516172cbe4ca7a3188f5d973bee",
    "soundness_eq_subst":
        "d2971a65a6dd39c827952ca3efe0fc1bd2fe494ae341b49745aa7dfe815a957a",
    "soundness_quant_left":
        "5337a9fe0109499125271fbbccdd01903ad623044f4f077d4898d6419b3137fc",
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for f in CORPUS.glob("*.json"):
        shutil.copyfile(f, d / f.name)
    (d / "b16_table.json").write_text(dumps(_table_powerset(4, 0)))
    (d / "poset14.json").write_text(dumps(_two_level_poset(7, 7, 0)))
    for n in (9, 16):
        (d / f"antichain_{n}.json").write_text(dumps(
            {"elements": [f"p{i}" for i in range(n)], "leq": []}))
    (d / "point_model_9.json").write_text(dumps({
        "algebra": {"type": "powerset", "atoms": [f"a{i}" for i in range(9)]},
        "domain": ["x"], "relations": {},
        "signature": {"constants": [], "relations": []}}))
    (d / "disjunction.json").write_text(dumps({"or": [
        {"eq": [{"const": "d"}, {"const": "c0"}]},
        {"eq": [{"const": "d"}, {"const": "c1"}]}]}))
    c = {"const": "c"}
    rc = {"atom": {"rel": "R", "args": [c]}}
    (d / "uncoverable.json").write_text(dumps({
        "signature": {"relations": [{"name": "R", "arity": 1},
                                    {"name": "Q", "arity": 2}],
                      "constants": ["c"]},
        "sentences": [{"and": [rc, {"not": rc}]},
                      {"atom": {"rel": "Q", "args": [c, c]}}]}))
    model, pool = _wide_quotient(13)
    (d / "wide_model_13.json").write_text(dumps(model))
    (d / "wide_pool.json").write_text(dumps(pool))
    (d / "uf_wide.json").write_text(dumps({"generator": ["a01"]}))
    (d / "two_member_12.json").write_text(
        cp_text(two_member_family(12)))
    (d / "b8_family.json").write_bytes(
        run(("cp-from-algebra", "b8.json", "--emit"), d).stdout)
    return d


def command(argv) -> list[str]:
    return [sys.executable, "-m", "infkit.cli", *argv]


ENV = dict(os.environ, PYTHONHASHSEED="0",
           PYTHONPATH=str(Path(infkit.__file__).parents[1]))


def run(argv, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(command(argv), cwd=cwd, capture_output=True,
                          env=ENV)


# On Linux a child's max-RSS starts at the RSS of the process that forked
# it, and the test process may hold hundreds of MB: a command is forked from
# this small launcher, which writes the command's max-RSS (KiB) to the file
# named first and exits with its exit code.
LAUNCHER = """import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as fh:
    fh.write(str(usage.ru_maxrss))
sys.exit(os.waitstatus_to_exitcode(status))
"""


def streamed(argv, cwd: Path) -> tuple[str, float]:
    """The pinned digest of a command and its own max-RSS in MB. Stdout and
    stderr go to files, hashed in chunks, so a report of hundreds of MB is
    never held here."""
    emitted = cwd / "emitted.json"
    emitted.unlink(missing_ok=True)
    out, err, rss = cwd / "stdout.bin", cwd / "stderr.bin", cwd / "rss.txt"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        code = subprocess.run([sys.executable, "-I", "-S", "-c", LAUNCHER,
                               str(rss), *command(argv)], cwd=cwd,
                              stdout=fo, stderr=fe, env=ENV).returncode
    h = hashlib.sha256(f"exit {code}\n".encode())
    for path in (out, err, emitted):
        size = path.stat().st_size if path.exists() else 0
        h.update(b"\0%d\0" % size)
        if size:
            with open(path, "rb") as fh:
                while chunk := fh.read(1 << 20):
                    h.update(chunk)
    max_rss_kib = int(rss.read_text())
    for path in (out, err, rss):
        path.unlink()
    return h.hexdigest(), max_rss_kib / 1024


def digest(argv, cwd: Path) -> str:
    return streamed(argv, cwd)[0]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_command_prints_its_pinned_bytes(workdir, name):
    assert digest(GOLDEN[name], workdir) == EXPECTED[name]


@pytest.mark.parametrize("name", ["sat_split_strong_3_9",
                                  "sat_split_strong_3_10"])
def test_strong_sat_passes_sizes_without_a_witness_quotient(workdir, name):
    """Each size is decided on its quotients alone, 2,025 of them up to 9
    classes; trying every structure and constant choice of each size takes
    about half a minute (Python 3.11, 2 CPUs)."""
    start = time.perf_counter()
    assert digest(GOLDEN[name], workdir) == EXPECTED[name]
    assert time.perf_counter() - start < 2


def test_one_atom_weak_sat_passes_sizes_without_a_witness_quotient(workdir):
    """A one-atom weak witness is a one-atom strong witness, so a size with
    no witness quotient is passed as in strong mode; building the cover
    masks of its structures took about 3 s at 8 elements (Python 3.11, 2
    CPUs)."""
    start = time.perf_counter()
    assert digest(GOLDEN["sat_split_weak_1_8"], workdir) == \
        EXPECTED["sat_split_weak_1_8"]
    assert time.perf_counter() - start < 1


def test_quotient_by_an_atom_scans_no_filter(workdir):
    """The ultrafilter is its atom, so no filter is proved a filter: the
    scans of its 4,096 members took 22-26 s at 13 atoms (Python 3.11, 2
    CPUs)."""
    start = time.perf_counter()
    assert digest(GOLDEN["quotient_los_13"], workdir) == \
        EXPECTED["quotient_los_13"]
    assert time.perf_counter() - start < 2


@pytest.fixture(scope="module")
def b16_family(workdir):
    """The file emit_b16_table writes: 13,328 members, 22 MB."""
    with open(workdir / "b16_family.json", "wb") as fh:
        subprocess.run(command(GOLDEN["emit_b16_table"]), cwd=workdir,
                       stdout=fh, env=ENV, check=True)
    yield "b16_family.json"
    (workdir / "b16_family.json").unlink()


def test_check_cp_streams_the_report_of_the_emitted_b16_family(
        workdir, b16_family):
    """The family has 198 MB of violations, written as they are found:
    while the report was still one string, check-cp peaked at 905 MB, and
    while every finding was built before the first was written, at 83 MB
    (Python 3.11, Linux)."""
    got, max_rss_mb = streamed(("check-cp", b16_family), workdir)
    assert got == EXPECTED["check_cp_b16_emitted"]
    assert max_rss_mb < 50


def test_check_cp_smax_streams_the_report_of_the_emitted_b16_family(
        workdir, b16_family):
    """With --smax, 38 MB of S-Max findings come before the violations,
    from a walk of their own: with every finding built first, check-cp
    peaked at 253 MB (Python 3.11, Linux)."""
    got, max_rss_mb = streamed(("check-cp", b16_family, "--smax"), workdir)
    assert got == EXPECTED["check_cp_b16_emitted_smax"]
    assert max_rss_mb < 60


def test_mansfield_builds_one_finding_of_the_emitted_b16_family(
        workdir, b16_family):
    """The family fails the clause check, and mansfield reports the first
    finding: while it built all 319,872 finding dicts first, it peaked at
    80 MB (Python 3.11, Linux)."""
    got, max_rss_mb = streamed(("mansfield", "--cp", b16_family, "--root",
                                "0"), workdir)
    assert got == EXPECTED["mansfield_b16_emitted_0"]
    assert max_rss_mb < 60


def test_generic_prints_its_pinned_bytes_on_the_emitted_b16_family(
        workdir, b16_family):
    assert digest(("generic", "--cp", b16_family, "--root", "0"),
                  workdir) == EXPECTED["generic_b16_emitted_0"]


def test_mansfield_streams_the_emitted_model_of_the_star_family(workdir):
    """Below root 0 the condition algebra has 1,024 elements, so the
    emitted file holds two tables of a million names, 33 MB: while each
    table was rendered as one string, mansfield peaked at 163 MB (Python
    3.11, Linux)."""
    (workdir / "star_10.json").write_text(cp_text(star_family(10)))
    got, max_rss_mb = streamed(("mansfield", "--cp", "star_10.json",
                                "--root", "0", "--emit-model",
                                "emitted.json"), workdir)
    (workdir / "emitted.json").unlink()
    assert got == EXPECTED["mansfield_star_10_emitted"]
    assert max_rss_mb < 80


def test_gen_corpus_writes_the_shipped_corpus(tmp_path, capsys):
    gen = load_gen_corpus()
    gen.CORPUS = tmp_path
    gen.main()
    shipped = sorted(p.name for p in CORPUS.glob("*.json"))
    assert len(shipped) == 39
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == \
            (CORPUS / name).read_bytes(), name

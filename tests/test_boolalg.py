import itertools

import pytest
from hypothesis import given, strategies as st

from infkit.boolalg import (
    FinPoset, check_tables, enumerate_ultrafilters, is_filter,
    is_ultrafilter, powerset_algebra, principal_filter,
    regular_open_sets_bruteforce, ro_completion, table_algebra,
    two_valued_algebra,
)
from inputs import all_labeled_posets, down_sets
from test_reference_paths import check_algebra, is_dense_subset


# --- posets -------------------------------------------------------------------

def test_poset_closure_and_cycle_rejection():
    p = FinPoset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    downs = down_sets(p)
    assert "a" in downs["c"] and "a" in downs["a"]
    assert "c" not in downs["a"]
    with pytest.raises(ValueError):
        FinPoset(["a", "b"], [("a", "b"), ("b", "a")])


def test_a_cycle_is_refused_by_its_least_pair():
    els = [f"p{i}" for i in range(10)]
    with pytest.raises(ValueError, match="between 'p2' and 'p3'$"):
        FinPoset(els, [("p2", "p8"), ("p8", "p2"), ("p2", "p3"),
                       ("p3", "p2")])


def test_poset_minimals():
    p = FinPoset(["l", "r", "top"], [("l", "top"), ("r", "top")])
    assert set(p.minimals()) == {"l", "r"}
    assert set(FinPoset(["x"], []).minimals()) == {"x"}


# --- powerset and table algebras ------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_powerset_algebra_laws(n):
    alg = powerset_algebra([f"a{i}" for i in range(n)])
    assert len(alg.elements) == 2 ** n
    assert check_algebra(alg)["ok"]
    assert len(alg.atoms()) == n
    assert alg.zero == 0 and alg.one == 2 ** n - 1
    assert alg.labels[alg.zero] == frozenset()
    assert alg.labels[alg.one] == frozenset(f"a{i}" for i in range(n))
    assert [alg.labels[a] for a in alg.atoms()] == [
        frozenset({f"a{i}"}) for i in range(n)]


def test_two_valued_algebra():
    alg = two_valued_algebra()
    assert len(alg.elements) == 2
    assert alg.comp(alg.one) == alg.zero


def test_algebra_operations_match_sets():
    alg = powerset_algebra(["a", "b", "c"])
    lab, mask = alg.labels, alg.masks
    for x, y in itertools.product(alg.elements, repeat=2):
        assert lab[alg.meet(x, y)] == lab[x] & lab[y]
        assert lab[alg.join(x, y)] == lab[x] | lab[y]
        assert lab[alg.comp(x)] == lab[alg.one] - lab[x]
        assert alg.leq(x, y) == (lab[x] <= lab[y])
        assert alg.inf([x, y]) == alg.meet(x, y)
    assert alg.leq(mask[frozenset({"a"})], mask[frozenset({"a", "b"})])
    assert alg.sup([]) == alg.zero and alg.inf([]) == alg.one
    assert not alg.is_element(alg.one + 1) and not alg.is_element(True)


def test_table_algebra_roundtrip_and_broken_table():
    src = powerset_algebra(["a", "b"])
    els = sorted(src.elements, key=lambda x: sorted(src.labels[x]))
    name = {e: f"e{i}" for i, e in enumerate(els)}
    meet = [[name[src.meet(x, y)] for y in els] for x in els]
    join = [[name[src.join(x, y)] for y in els] for x in els]
    comp = [name[src.comp(x)] for x in els]
    alg = table_algebra([name[e] for e in els], meet, join, comp)
    assert check_algebra(alg)["ok"]
    assert len(alg.atoms()) == 2
    # the same operations, through the labels
    for x, y in itertools.product(els, repeat=2):
        a, b = alg.masks[name[x]], alg.masks[name[y]]
        assert alg.labels[alg.meet(a, b)] == name[src.meet(x, y)]
        assert alg.labels[alg.comp(a)] == name[src.comp(x)]

    comp_bad = list(comp)
    comp_bad[0], comp_bad[-1] = comp_bad[-1], comp_bad[0]
    law = next(check_tables([name[e] for e in els], meet, join, comp_bad))
    with pytest.raises(ValueError, match=f"not a Boolean algebra: "
                                         f"{law['law']} fails"):
        table_algebra([name[e] for e in els], meet, join, comp_bad)


# --- filters and ultrafilters -----------------------------------------------

def test_filters():
    alg = powerset_algebra(["a", "b"])
    a = alg.masks[frozenset({"a"})]
    up_a = principal_filter(alg, a)
    assert is_filter(alg, up_a) and is_ultrafilter(alg, up_a)
    assert up_a == frozenset({a, alg.one})
    up_one = principal_filter(alg, alg.one)
    assert is_filter(alg, up_one) and not is_ultrafilter(alg, up_one)
    assert not is_filter(alg, frozenset({alg.zero, alg.one}))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ultrafilters_are_principal_at_atoms(n):
    alg = powerset_algebra([f"a{i}" for i in range(n)])
    ufs = enumerate_ultrafilters(alg)
    assert len(ufs) == n
    assert {alg.inf(u) for u in ufs} == set(alg.atoms())


def test_dense_and_antichain_predicates():
    alg = powerset_algebra(["a", "b"])
    assert is_dense_subset(alg, alg.atoms())
    assert not is_dense_subset(alg, [alg.masks[frozenset({"a"})]])


# --- regular-open completion ----------------------------------------------------

def brute_match(poset: FinPoset) -> dict:
    """Completion vs the interior-of-closure construction, plus the embedding
    contract: order preserving, incompatibility preserving, dense image."""
    alg, emb = ro_completion(poset)
    brute = regular_open_sets_bruteforce(poset)
    out = {
        "sizes": len(alg.elements) == len(brute),
        "sets": set(alg.labels) == brute,
        "laws": check_algebra(alg)["ok"],
    }
    order = incompat = True
    downs = down_sets(poset)
    for p, q in itertools.product(poset.elements, repeat=2):
        if p in downs[q] and not alg.leq(emb[p], emb[q]):
            order = False
        compatible = bool(downs[p] & downs[q])
        if compatible != (alg.meet(emb[p], emb[q]) != alg.zero):
            incompat = False
    out["order"] = order
    out["incompatibility"] = incompat
    out["dense"] = is_dense_subset(alg, set(emb.values()))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ro_completion_small_posets(n):
    for poset in all_labeled_posets(n):
        rep = brute_match(poset)
        assert all(rep.values()), (poset.elements, poset.leq_pairs(), rep)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_antichain_completion_size(n):
    alg, _ = ro_completion(FinPoset([f"p{i}" for i in range(n)], []))
    assert len(alg.elements) == 2 ** n


def test_chain_completes_to_two_elements():
    alg, emb = ro_completion(FinPoset(["lo", "hi"], [("lo", "hi")]))
    assert len(alg.elements) == 2
    assert emb["lo"] == emb["hi"] == alg.one


def test_ro_join_is_regularized_union():
    poset = FinPoset(["l", "r", "top"], [("l", "top"), ("r", "top")])
    alg, emb = ro_completion(poset)
    # Reg(A) = int(cl(A)): cl is the up-closure, int(B) = {q : N_q <= B}
    lab = alg.labels
    downs = down_sets(poset)
    closure = frozenset(q for q in poset.elements
                        if downs[q] & (lab[emb["l"]] | lab[emb["r"]]))
    j = frozenset(q for q in poset.elements if downs[q] <= closure)
    assert j == lab[alg.join(emb["l"], emb["r"])]
    # the plain union {l, r} is not regular open: top joins its closure
    assert j != lab[emb["l"]] | lab[emb["r"]]


# --- law checker under hypothesis mutations --------------------------------------

atom_sets = st.sets(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3)


@given(atom_sets)
def test_powerset_always_lawful(atoms):
    assert check_algebra(powerset_algebra(sorted(atoms)))["ok"]

import random
from collections import Counter
from itertools import combinations

import pytest

from ashg.errors import PreconditionError
from ashg.generators import (GraphBuilder, attach_gadget,
                             coloring_partition_3col, ea_witness_partition,
                             gadget_partition_blocks, gen_33sat_cs,
                             gen_3col_kcs, gen_bdd_csv, gen_binpacking_csv,
                             gen_clique_kcsv, gen_eapartition_cs, gen_gadget,
                             gen_partition_csv)
from ashg.instance import AshgInstance, is_blocking
from ashg.kcore import verify_kcore
from ashg.treedecomp import validate_td
from ashg.verify import (UNSTABLE, min_vertex_cover, verify_bruteforce,
                         verify_treewidth, verify_vertexcover)


def test_gadget_weight_multiset():
    gad = gen_gadget(rho=-16)
    counts = Counter(w for _, _, w in gad.instance.edges)
    assert counts == {5: 3, 4: 3, 3: 3, -16: 6}
    assert gad.instance.n == 6


def test_gadget_warns_on_large_rho():
    with pytest.warns(UserWarning):
        gen_gadget(rho=-10)


def test_gadget_partition_without_h_is_stable():
    # delete h and check the designated partition of the remaining K5
    gad = gen_gadget(rho=-16)
    ids = gad.info["ids"]
    keep = sorted(set(range(6)) - {ids[0]})
    remap = {old: new for new, old in enumerate(keep)}
    edges = [(remap[a], remap[b], w) for a, b, w in gad.instance.edges
             if a in remap and b in remap]
    sub = AshgInstance(5, edges)
    from ashg.instance import Partition

    blocks = [{remap[v] for v in blk}
              for blk in gadget_partition_blocks(ids)]
    assert verify_bruteforce(sub, Partition(blocks, 5)).stable


def test_attach_counting():
    b = GraphBuilder()
    s = b.vertex("s")
    attach_gadget(b, [s], rho=-100, xi=9)
    inst = b.instance()
    assert inst.n == 7
    counts = Counter(w for _, _, w in inst.edges)
    assert counts[9] == 1  # the h-s edge
    assert counts[-100] == 6 + 5  # internal rho edges plus h_i-s


def test_attach_neighborhood_mode():
    b = GraphBuilder()
    center = b.vertex("c")
    leaves = [b.vertex(("l", i)) for i in range(3)]
    for l in leaves:
        b.edge(center, l, 1)
    ids = attach_gadget(b, [center], rho=-50, xi=9, neighborhood=True)
    inst = b.instance()
    # h gains a rho edge to every leaf
    for l in leaves:
        assert inst.weight(ids[0], l) == -50


def test_attach_preconditions():
    b = GraphBuilder()
    x = b.vertex("x")
    y = b.vertex("y")
    b.edge(x, y, 1)
    with pytest.raises(PreconditionError):
        attach_gadget(b, [x, y], rho=-50, xi=9)
    with pytest.raises(PreconditionError):
        attach_gadget(b, [x], rho=-50, xi=8)


def test_partition_generator_examples():
    yes = gen_partition_csv([1, 1, 2])
    assert yes.expected is False  # split exists, so not stable
    res = verify_bruteforce(yes.instance, yes.partition)
    assert res.verdict == UNSTABLE
    assert is_blocking(yes.instance, yes.partition, res.witness)

    no = gen_partition_csv([1, 1, 1])
    assert no.expected is True
    assert verify_bruteforce(no.instance, no.partition).stable


def test_partition_generator_vertex_cover():
    gen = gen_partition_csv([1, 1, 2])
    cover = min_vertex_cover(gen.instance)
    assert cover == {gen.info["x"], gen.info["y"]}


def test_partition_generator_random_crossval():
    rng = random.Random(6)
    for _ in range(30):
        values = [rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
        gen = gen_partition_csv(values)
        got = verify_vertexcover(gen.instance, gen.partition)
        assert got.stable == gen.expected


def test_partition_generator_rejects_bad_values():
    with pytest.raises(PreconditionError):
        gen_partition_csv([])
    with pytest.raises(PreconditionError):
        gen_partition_csv([1, 0])


def test_binpacking_generator_examples():
    yes = gen_binpacking_csv([1, 1, 2, 2], 2)
    assert yes.expected is False
    res = verify_bruteforce(yes.instance, yes.partition, cap=None)
    assert res.verdict == UNSTABLE
    assert is_blocking(yes.instance, yes.partition, res.witness)

    no = gen_binpacking_csv([1, 1, 1], 2)
    assert no.expected is True
    assert verify_bruteforce(no.instance, no.partition, cap=None).stable


def test_binpacking_generator_random_crossval():
    rng = random.Random(12)
    for _ in range(12):
        k = rng.randint(2, 3)
        values = [rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
        gen = gen_binpacking_csv(values, k)
        got = verify_bruteforce(gen.instance, gen.partition, cap=None)
        assert got.stable == gen.expected


def test_bdd_generator_examples():
    k3 = [(0, 1), (1, 2), (0, 2)]
    yes = gen_bdd_csv(3, k3, 0, 1)
    assert yes.expected is False
    res = verify_treewidth(yes.instance, yes.partition)
    assert res.verdict == UNSTABLE
    assert is_blocking(yes.instance, yes.partition, res.witness)

    no = gen_bdd_csv(3, k3, 0, 2)
    assert no.expected is True
    assert verify_treewidth(no.instance, no.partition).stable


def test_bdd_generator_weight_alphabet():
    gen = gen_bdd_csv(4, [(0, 1), (2, 3)], 1, 3)
    assert {w for _, _, w in gen.instance.edges} <= {-1, 1}


def test_bdd_generator_random_crossval():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(1, 4)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        gen = gen_bdd_csv(n, edges, rng.randint(0, 1), rng.randint(1, 2))
        got = verify_treewidth(gen.instance, gen.partition)
        assert got.stable == gen.expected


def test_clique_generator_examples():
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    yes = gen_clique_kcsv(4, k4, 3)
    assert yes.expected is False
    res = verify_kcore(yes.instance, yes.partition, 3)
    assert res.verdict == UNSTABLE

    c5 = [(i, (i + 1) % 5) for i in range(5)]
    no = gen_clique_kcsv(5, c5, 3)
    assert no.expected is True
    assert verify_kcore(no.instance, no.partition, 3).stable


def test_clique_generator_structure():
    gen = gen_clique_kcsv(3, [(0, 1)], 4)
    assert all(w == 1 for _, _, w in gen.instance.edges)
    assert all(len(p) == 2 for p in gen.info["pend"].values())
    with pytest.raises(PreconditionError):
        gen_clique_kcsv(3, [(0, 1)], 2)


def test_eapartition_generator_structure():
    gen = gen_eapartition_cs([2], [1])
    info = gen.info
    assert gen.expected is True
    # two gadget copies joined by a rho edge at their heads
    assert gen.instance.weight(info["h"][0], info["hh"][0]) == \
        -30 * info["s"]
    cover = min_vertex_cover(gen.instance)
    assert len(cover) <= 12


def test_eapartition_witness_matches_oracle():
    # for every choice of A' the canonical partition is stable exactly
    # when no B' completes the sum to half the total
    for A, B in ([(2,), (1,)], [(1, 2), (1, 1)], [(3, 1), (2, 2)]):
        gen = gen_eapartition_cs(list(A), list(B))
        s = sum(A) + sum(B)
        any_stable = False
        for bits in range(1 << len(A)):
            chosen = {i for i in range(len(A)) if bits >> i & 1}
            base = sum(A[i] for i in chosen)
            good = all(2 * (base + sum(c)) != s
                       for r in range(len(B) + 1)
                       for c in combinations(B, r))
            P = ea_witness_partition(gen, chosen)
            stable = verify_bruteforce(gen.instance, P, max_size=4,
                                       cap=None).stable
            if good:
                assert stable
                any_stable = True
        assert any_stable == gen.expected


def test_eapartition_rejects_bad_input():
    with pytest.raises(PreconditionError):
        gen_eapartition_cs([1], [1, 2])
    with pytest.raises(PreconditionError):
        gen_eapartition_cs([0], [1])


def test_3col_single_edge():
    gen = gen_3col_kcs(2, [(0, 1)])
    assert gen.expected is True
    assert gen.instance.max_degree <= 14
    coloring = gen.info["coloring"]
    assert coloring[0] != coloring[1]
    P = coloring_partition_3col(gen, coloring)
    assert verify_kcore(gen.instance, P, 3).stable


def test_3col_improper_coloring_blocked():
    gen = gen_3col_kcs(2, [(0, 1)])
    P = coloring_partition_3col(gen, {0: 1, 1: 1})
    assert verify_kcore(gen.instance, P, 3).verdict == UNSTABLE


def test_3col_vertex_gadget_size():
    gen = gen_3col_kcs(1, [])
    assert len(gen.info["vertex_gadgets"][0]) == 9
    assert gen.instance.n == 9


def test_3col_rejects_high_degree():
    star = [(0, i) for i in range(1, 5)]
    with pytest.raises(PreconditionError):
        gen_3col_kcs(5, star)


def test_33sat_structure():
    # a satisfiable formula exercising both padding shapes
    gen = gen_33sat_cs(3, [(1, 2), (-1, 3), (-2, -3)])
    assert gen.expected is True
    assert gen.instance.max_degree <= 20
    m = gen.info["m"]
    assert len(gen.info["padded_clauses"]) == 2 ** m
    assert validate_td(gen.instance, gen.td) is None
    assert gen.td.width <= gen.info["width_bound"]
    assert gen.td.width == 369
    assignment = gen.info["assignment"]
    for c in [(1, 2), (-1, 3), (-2, -3)]:
        assert any(assignment[abs(l)] == (l > 0) for l in c)


def test_33sat_two_variable_decomposition():
    gen = gen_33sat_cs(2, [(1, 2), (-1, -2)])
    assert gen.expected is True
    assert validate_td(gen.instance, gen.td) is None
    assert len(gen.td.bags) == gen.info["total_vars"]
    assert gen.td.width == 203


def test_33sat_unsat_formula():
    gen = gen_33sat_cs(1, [(1,), (-1,)])
    assert gen.expected is False
    assert validate_td(gen.instance, gen.td) is None


def test_33sat_preconditions():
    with pytest.raises(PreconditionError):
        gen_33sat_cs(1, [(1, -1)])  # tautological clause
    with pytest.raises(PreconditionError):
        gen_33sat_cs(2, [(1, 2), (1,), (1,), (-1,)])  # >3 occurrences
    with pytest.raises(PreconditionError):
        gen_33sat_cs(2, [(1, 2), (-1,)])  # variable 2 only positive
    with pytest.raises(PreconditionError):
        gen_33sat_cs(1, [(1, 1), (-1,)])  # repeated variable
    with pytest.raises(PreconditionError):
        gen_33sat_cs(1, [(2,), (-2,)])  # literal out of range

"""Acceptance battery: one test per release criterion, each with its stated
workload and runtime budget."""

import random
import time
from itertools import combinations

import pytest

from ashg.errors import ResourceLimitError
from ashg.existence import solve_cs, solve_cs_bruteforce
from ashg.generators import (gadget_partition_blocks, gen_33sat_cs,
                             gen_3col_kcs, gen_bdd_csv, gen_binpacking_csv,
                             gen_clique_kcsv, gen_gadget, gen_partition_csv,
                             coloring_partition_3col)
from ashg.instance import AshgInstance, Partition, is_blocking
from ashg.kcore import greedy_2core, verify_kcore
from ashg.qbf import decide_ea, eval_bruteforce
from ashg.treedecomp import TreeDecomposition, validate_td
from ashg.verify import (EDGESET, VALUE, verify_bruteforce, verify_tree,
                         verify_treewidth, verify_vertexcover)
from test_qbf import model_holds, random_formula


def random_game(rng, max_n, max_w, density=0.4):
    n = rng.randint(1, max_n)
    edges = [(u, v, rng.randint(-max_w, max_w))
             for u in range(n) for v in range(u + 1, n)
             if rng.random() < density]
    return AshgInstance(n, edges)


def random_partition(rng, n):
    labels = [rng.randrange(n) for _ in range(n)]
    blocks = {}
    for u, b in enumerate(labels):
        blocks.setdefault(b, set()).add(u)
    return Partition(list(blocks.values()), n)


def test_acceptance_1_gadget():
    start = time.time()
    gad = gen_gadget(rho=-16)
    assert solve_cs_bruteforce(gad.instance).verdict == "NotExists"

    # the gadget without its head vertex h is stable under the designated
    # partition ({h1,h2,h3},{h4,h5})
    ids = gad.info["ids"]
    keep = sorted(set(range(6)) - {ids[0]})
    remap = {old: new for new, old in enumerate(keep)}
    edges = [(remap[a], remap[b], w) for a, b, w in gad.instance.edges
             if a in remap and b in remap]
    sub = AshgInstance(5, edges)
    blocks = [{remap[v] for v in blk} for blk in gadget_partition_blocks(ids)]
    assert verify_bruteforce(sub, Partition(blocks, 5)).stable
    assert time.time() - start < 1.0


def test_acceptance_2_csv_equivalence():
    start = time.time()
    rng = random.Random(20240817)
    for trial in range(1000):
        if trial % 5 == 0:
            # forest instance so verify_tree participates
            n = rng.randint(1, 10)
            edges = [(rng.randrange(v), v, rng.randint(-5, 5))
                     for v in range(1, n) if rng.random() < 0.8]
            inst = AshgInstance(n, edges)
            solvers = [verify_tree,
                       lambda i, p: verify_treewidth(i, p, mode=VALUE),
                       lambda i, p: verify_treewidth(i, p, mode=EDGESET),
                       verify_vertexcover]
        else:
            inst = random_game(rng, max_n=10, max_w=5)
            solvers = [lambda i, p: verify_treewidth(i, p, mode=VALUE),
                       lambda i, p: verify_treewidth(i, p, mode=EDGESET),
                       verify_vertexcover]
        P = random_partition(rng, inst.n)
        base = verify_bruteforce(inst, P)
        if base.witness is not None:
            assert is_blocking(inst, P, base.witness)
        for solver in solvers:
            res = solver(inst, P)
            assert res.verdict == base.verdict, (trial, inst.edges, P.blocks)
            if res.witness is not None:
                assert is_blocking(inst, P, res.witness)
    elapsed = time.time() - start
    assert elapsed < 120, "1000 trials took %.1fs" % elapsed


def _connected_weightings(n):
    """Every connected instance on n vertices with weights in -2..2,
    deterministic order (absent edge = no entry, weight 0 allowed)."""
    pairs = list(combinations(range(n), 2))
    states = [None, -2, -1, 0, 1, 2]
    idx = [0] * len(pairs)
    while True:
        edges = [(u, v, states[i]) for (u, v), i in zip(pairs, idx)
                 if states[i] is not None]
        inst = AshgInstance(n, edges)
        if n == 1 or inst.is_connected_set(set(range(n))):
            yield inst
        j = 0
        while j < len(pairs):
            idx[j] += 1
            if idx[j] < len(states):
                break
            idx[j] = 0
            j += 1
        if j == len(pairs):
            return


def test_acceptance_3_cs_pipeline_equivalence():
    """Exhaustive n <= 4 plus 200 random n <= 6 pipeline/oracle agreement.

    The whole workload must fit the 10-minute budget.  The loop below runs
    it faithfully and, should the deadline pass, reports how far it got
    instead of silently shrinking the workload.
    """
    deadline = time.time() + 600
    done = 0

    def check(inst):
        nonlocal done
        res = solve_cs(inst)
        assert res.exists == solve_cs_bruteforce(inst).exists, inst.edges
        if res.exists:
            assert verify_bruteforce(inst, res.partition, cap=None).stable
        done += 1

    exhausted = True
    for n in (1, 2, 3, 4):
        for inst in _connected_weightings(n):
            if time.time() > deadline:
                exhausted = False
                break
            check(inst)
        if not exhausted:
            break

    random_done = 0
    if exhausted:
        rng = random.Random(99)
        for _ in range(200):
            if time.time() > deadline:
                break
            inst = random_game(rng, max_n=6, max_w=2, density=0.5)
            check(inst)
            random_done += 1

    if not exhausted or random_done < 200:
        pytest.fail(
            "pipeline/oracle agreement held on every instance compared, but "
            "only %d instances (%s exhaustive sweep, %d/200 random) fit the "
            "600s budget; the full workload exceeds it by orders of "
            "magnitude on this hardware" %
            (done, "complete" if exhausted else "partial", random_done))


def test_acceptance_4_qbf_engine():
    start = time.time()
    rng = random.Random(777)
    for _ in range(500):
        q = random_formula(rng, max_vars=10)
        sat, model = decide_ea(q)
        assert sat == eval_bruteforce(q)[0], q
        if sat:
            assert model_holds(q, model), q
    elapsed = time.time() - start
    assert elapsed < 120, "500 formulas took %.1fs" % elapsed


def test_acceptance_5_greedy_2core():
    start = time.time()
    rng = random.Random(5150)
    for _ in range(1000):
        inst = random_game(rng, max_n=30, max_w=5, density=0.2)
        assert verify_kcore(inst, greedy_2core(inst), 2).stable
    elapsed = time.time() - start
    assert elapsed < 30, "1000 trials took %.1fs" % elapsed


def test_acceptance_6_reduction_crossval():
    start = time.time()
    rng = random.Random(616)

    for _ in range(100):
        values = [rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
        out = gen_partition_csv(values)
        got = verify_vertexcover(out.instance, out.partition)
        assert got.stable == out.expected, ("partition", values)

    for _ in range(100):
        values = [rng.randint(1, 9) for _ in range(rng.randint(2, 5))]
        out = gen_binpacking_csv(values, 2)
        got = verify_bruteforce(out.instance, out.partition, cap=500_000_000)
        assert got.stable == out.expected, ("binpacking", values)

    for _ in range(100):
        n = rng.randint(1, 5)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        dstar = rng.randint(0, 2)
        size = rng.randint(1, n)
        out = gen_bdd_csv(n, edges, dstar, size)
        assert {w for _, _, w in out.instance.edges} <= {-1, 1}
        got = verify_treewidth(out.instance, out.partition)
        assert got.stable == out.expected, ("bdd", n, edges, dstar, size)

    for _ in range(100):
        n = rng.randint(3, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        out = gen_clique_kcsv(n, edges, 3)
        assert all(w == 1 for _, _, w in out.instance.edges)
        got = verify_kcore(out.instance, out.partition, 3)
        assert got.stable == out.expected, ("clique", n, edges)

    elapsed = time.time() - start
    assert elapsed < 300, "400 cross-validations took %.1fs" % elapsed


def test_acceptance_7_threecol_generator():
    start = time.time()
    k3 = [(0, 1), (1, 2), (0, 2)]
    gen = gen_3col_kcs(3, k3)
    assert gen.instance.max_degree <= 14
    coloring = gen.info["coloring"]
    assert coloring is not None and len(set(coloring.values())) == 3
    P = coloring_partition_3col(gen, coloring)
    assert verify_kcore(gen.instance, P, 3).stable
    assert time.time() - start < 60


def _random_33sat(rng, max_vars=8):
    nv = rng.randint(1, max_vars)
    pool = []
    for v in range(1, nv + 1):
        pool.append(v)
        pool.append(-v)
        if rng.random() < 0.5:
            pool.append(v if rng.random() < 0.5 else -v)
    rng.shuffle(pool)
    clauses = []
    while pool:
        clause = []
        used = set()
        take = min(len(pool), rng.randint(2, 3))
        i = 0
        while len(clause) < take and i < len(pool):
            if abs(pool[i]) not in used:
                lit = pool.pop(i)
                used.add(abs(lit))
                clause.append(lit)
            else:
                i += 1
        clauses.append(tuple(clause))
    return nv, clauses


def test_acceptance_8_sat33_generator():
    start = time.time()
    rng = random.Random(33)
    for _ in range(5):
        nv, clauses = _random_33sat(rng)
        gen = gen_33sat_cs(nv, clauses)
        assert gen.instance.max_degree <= 20
        assert validate_td(gen.instance, gen.td) is None
        assert gen.td.width <= 271 + 195 * gen.info["m"]
    elapsed = time.time() - start
    assert elapsed < 30, "5 formulas took %.1fs" % elapsed


def test_acceptance_9_treewidth_scaling():
    # 200-vertex path with sparse chords: degree <= 3, bandwidth 3, so the
    # sliding-window decomposition below has width 3 <= 4
    rng = random.Random(4)
    n = 200
    edges = [(i, i + 1, rng.randint(-3, 3)) for i in range(n - 1)]
    edges += [(i, i + 3, rng.randint(-3, -1)) for i in range(0, n - 3, 10)]
    inst = AshgInstance(n, edges)
    assert inst.max_degree <= 3
    td = TreeDecomposition([set(range(i, i + 4)) for i in range(n - 3)],
                           [(i, i + 1) for i in range(n - 4)])
    assert validate_td(inst, td) is None
    assert td.width <= 4

    P = greedy_2core(inst)
    with pytest.raises(ResourceLimitError):
        verify_bruteforce(inst, P)

    start = time.time()
    res = verify_treewidth(inst, P, td=td, mode=EDGESET)
    elapsed = time.time() - start
    assert elapsed < 10, "EDGESET took %.1fs" % elapsed
    if res.witness is not None:
        assert is_blocking(inst, P, res.witness)

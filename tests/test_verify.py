import os
import random
import subprocess
import sys
import time
from itertools import combinations

import pytest

import ashg

from ashg import treedecomp, verify
from ashg.errors import (PreconditionError, ResourceLimitError,
                         WrongAlgorithmError)
from ashg.instance import (AshgInstance, Partition, all_partition_utilities,
                           is_blocking)
from ashg.kcore import greedy_2core
from ashg.treedecomp import TreeDecomposition, heuristic_decompose, root_tree
from ashg.verify import (EDGESET, STABLE, UNSTABLE, VALUE, VerificationResult,
                         min_vertex_cover, verify_bruteforce, verify_tree,
                         verify_treewidth, verify_vertexcover)


def triangle(w=1):
    return AshgInstance(3, [(0, 1, w), (1, 2, w), (0, 2, w)])


def random_partition(rng, n):
    blocks = {}
    for u in range(n):
        blocks.setdefault(rng.randrange(n), set()).add(u)
    return Partition(list(blocks.values()), n)


def random_game(rng, max_n=10, max_w=5):
    n = rng.randint(1, max_n)
    edges = [(u, v, rng.randint(-max_w, max_w))
             for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.4]
    return AshgInstance(n, edges), random_partition(rng, n)


def random_forest(rng, max_n=10, max_w=5):
    n = rng.randint(1, max_n)
    edges = []
    for v in range(1, n):
        if rng.random() < 0.8:
            edges.append((rng.randrange(v), v, rng.randint(-max_w, max_w)))
    return AshgInstance(n, edges), random_partition(rng, n)


def test_brute_triangle_singletons():
    inst = triangle()
    res = verify_bruteforce(inst, Partition.singletons(3))
    assert res.verdict == UNSTABLE
    assert is_blocking(inst, Partition.singletons(3), res.witness)


def test_brute_triangle_grand_stable():
    res = verify_bruteforce(triangle(), Partition.grand(3))
    assert res.stable


def test_brute_negative_edge_stable():
    inst = AshgInstance(2, [(0, 1, -1)])
    assert verify_bruteforce(inst, Partition.singletons(2)).stable


def test_brute_max_size_monotone():
    inst = triangle()
    P = Partition.singletons(3)
    capped = verify_bruteforce(inst, P, max_size=2)
    assert capped.verdict == UNSTABLE
    assert verify_bruteforce(inst, P).verdict == UNSTABLE


def test_brute_max_size_too_small():
    # on C4 with this partition only the full cycle blocks
    inst = AshgInstance(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    P = Partition([{0, 1}, {2, 3}], 4)
    assert verify_bruteforce(inst, P, max_size=3).stable
    full = verify_bruteforce(inst, P)
    assert full.verdict == UNSTABLE and full.witness == {0, 1, 2, 3}


def test_brute_cap():
    inst = AshgInstance(30, [(i, i + 1, -1) for i in range(29)])
    with pytest.raises(ResourceLimitError):
        verify_bruteforce(inst, Partition.singletons(30), cap=1000)


def reference_bruteforce(inst, P, max_size=None, cap=1_000_000):
    """Every subset of the agents by size, then lexicographically: the
    plain enumeration that verify_bruteforce must agree with."""
    ut_p = all_partition_utilities(inst, P)
    limit = inst.n if max_size is None else min(max_size, inst.n)
    examined = 0
    for size in range(1, limit + 1):
        for combo in combinations(range(inst.n), size):
            examined += 1
            if cap is not None and examined > cap:
                raise ResourceLimitError("enumeration", cap)
            X = frozenset(combo)
            if not inst.is_connected_set(X):
                continue
            if all(sum(w for v, w in inst.neighbors(u).items() if v in X) > ut_p[u]
                   for u in combo):
                return VerificationResult(UNSTABLE, X, {"examined": examined})
    return VerificationResult(STABLE, stats={"examined": examined})


def reference_min_vertex_cover(inst):
    """Iterative deepening over budgets 0, 1, ..., MAX_COVER, branching on
    the first uncovered edge, u before v, with no bound."""
    edges = [(u, v) for u, v, _ in inst.edges]

    def search(cover, budget):
        for u, v in edges:
            if u not in cover and v not in cover:
                if budget == 0:
                    return None
                found = search(cover | {u}, budget - 1)
                if found is None:
                    found = search(cover | {v}, budget - 1)
                return found
        return cover

    for budget in range(verify.MAX_COVER + 1):
        cover = search(frozenset(), budget)
        if cover is not None:
            return cover
    raise ResourceLimitError("vertex_cover", verify.MAX_COVER)


def outcome(fn, *args, **kwargs):
    try:
        res = fn(*args, **kwargs)
    except ResourceLimitError as exc:
        return "ResourceLimitError", str(exc)
    if isinstance(res, VerificationResult):
        return res.verdict, res.witness, res.stats["examined"]
    return res


def test_bruteforce_matches_reference_enumeration():
    rng = random.Random(19)
    verdicts = set()
    for _ in range(20_000):
        n = rng.randint(1, 10)
        density = rng.choice((0.2, 0.4, 0.7))
        w = rng.choice((1, 2, 5))
        edges = [(u, v, rng.randint(-w, w)) for u in range(n)
                 for v in range(u + 1, n) if rng.random() < density]
        inst = AshgInstance(n, edges)
        # few large blocks make stable partitions common
        blocks = {}
        groups = rng.choice((n, max(1, n // 3)))
        for u in range(n):
            blocks.setdefault(rng.randrange(groups), set()).add(u)
        P = Partition(list(blocks.values()), n)
        max_size = rng.choice((None, rng.randint(0, n + 1)))
        cap = rng.choice((None, 1_000_000, rng.randint(1, 2 ** n)))
        want = outcome(reference_bruteforce, inst, P, max_size=max_size, cap=cap)
        got = outcome(verify_bruteforce, inst, P, max_size=max_size, cap=cap)
        assert got == want, (edges, P, max_size, cap)
        verdicts.add(want[0])
    assert verdicts == {STABLE, UNSTABLE, "ResourceLimitError"}


def test_bruteforce_cap_inside_a_size_matches_reference():
    # no agent of this dense grand coalition is dropped and no small
    # coalition blocks, so each cap falls inside the size being searched
    rng = random.Random(30)
    n = 30
    inst = AshgInstance(n, [(u, v, rng.choice((-1, 1, 2)))
                            for u in range(n) for v in range(u + 1, n)])
    P = Partition.grand(n)
    for cap in (500, 5_000, 20_000):
        want = outcome(reference_bruteforce, inst, P, cap=cap)
        assert want[0] == "ResourceLimitError"
        assert outcome(verify_bruteforce, inst, P, cap=cap) == want


def test_min_vertex_cover_matches_reference_search():
    rng = random.Random(19)
    for _ in range(3_000):
        n = rng.randint(1, 16)
        density = rng.choice((0.1, 0.2, 0.3))
        inst = AshgInstance(n, [(u, v, 1) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < density])
        assert (outcome(min_vertex_cover, inst)
                == outcome(reference_min_vertex_cover, inst)), inst.edges


def test_bruteforce_stable_24_agents_without_enumeration():
    # every agent has one negative edge, so its utility in the grand
    # coalition is below its positive weights and no agent is dropped
    # before the search; a member improves only if all its path neighbours
    # are in and its negative neighbour is out, and closing a coalition
    # under path neighbours takes in all 24 agents
    n = 24
    edges = [(i, i + 1, 1) for i in range(n - 1)]
    edges += [(i, i + 2, -1) for i in range(n - 2) if i % 4 < 2]
    start = time.perf_counter()
    res = verify_bruteforce(AshgInstance(n, edges), Partition.grand(n), cap=None)
    elapsed = time.perf_counter() - start
    assert res.stable and res.stats == {"examined": 2 ** n - 1}
    assert elapsed < 1, "%.1fs" % elapsed


def test_min_vertex_cover_path_40_within_a_second():
    n = 40
    inst = AshgInstance(n, [(i, i + 1, 1) for i in range(n - 1)])
    start = time.perf_counter()
    cover = min_vertex_cover(inst)
    elapsed = time.perf_counter() - start
    assert len(cover) == 20
    assert all(u in cover or v in cover for u, v, _ in inst.edges)
    assert elapsed < 1, "%.1fs" % elapsed


def test_tree_star():
    inst = AshgInstance(4, [(0, 1, 2), (0, 2, 2), (0, 3, 2)])
    res = verify_tree(inst, Partition.singletons(4))
    assert res.verdict == UNSTABLE
    assert res.witness == {0, 1, 2, 3}


def test_tree_path_stable():
    # w(ab)=3, w(bc)=2, P={{a,b},{c}}: no vertex gains strictly
    inst = AshgInstance(3, [(0, 1, 3), (1, 2, 2)])
    assert verify_tree(inst, Partition([{0, 1}, {2}], 3)).stable


def test_tree_single_vertex():
    assert verify_tree(AshgInstance(1, []), Partition.singletons(1)).stable


def test_tree_rejects_cycle():
    with pytest.raises(WrongAlgorithmError):
        verify_tree(triangle(), Partition.singletons(3))


def test_tree_rejects_cycle_in_later_component():
    # a tree, then a triangle, then an isolated vertex: three components
    inst = AshgInstance(6, [(0, 1, 1), (2, 3, 1), (3, 4, 1), (2, 4, 1)])
    with pytest.raises(WrongAlgorithmError):
        verify_tree(inst, Partition.singletons(6))


def test_treewidth_c4_unstable():
    inst = AshgInstance(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    P = Partition.singletons(4)
    for mode in (VALUE, EDGESET):
        res = verify_treewidth(inst, P, mode=mode)
        assert res.verdict == UNSTABLE
        assert is_blocking(inst, P, res.witness)


def test_treewidth_all_negative_stable():
    for mode in (VALUE, EDGESET):
        assert verify_treewidth(triangle(-1), Partition.singletons(3),
                                mode=mode).stable


def test_treewidth_accepts_given_td():
    inst = triangle()
    P = Partition.singletons(3)
    td = heuristic_decompose(inst)
    assert verify_treewidth(inst, P, td=td).verdict == UNSTABLE


# K4 with mixed weights (a path of bags) and an 8-vertex game on a
# decomposition whose root joins three children; the last witness takes
# vertices from two joined branches
_K4 = AshgInstance(4, [(0, 1, 2), (0, 2, -1), (0, 3, 1), (1, 2, 1), (1, 3, -2),
                       (2, 3, 1)])
_G8 = AshgInstance(8, [(0, 1, 2), (1, 2, -1), (2, 3, 3), (0, 3, 1), (3, 4, 2),
                       (4, 5, -2), (5, 6, 3), (3, 6, 1), (1, 7, 2), (0, 7, -1)])
_G8_TD = TreeDecomposition([{0, 1, 3}, {0, 1, 7}, {1, 2, 3}, {3, 4, 6}, {4, 5, 6}],
                           [(0, 1), (0, 2), (0, 3), (3, 4)])


@pytest.mark.parametrize("inst, td, blocks, mode, witness, states", [
    (_K4, None, None, VALUE, {0, 1}, 58),
    (_K4, None, None, EDGESET, {0, 1}, 61),
    (_G8, _G8_TD, None, VALUE, {5, 6}, 216),
    (_G8, _G8_TD, None, EDGESET, {5, 6}, 218),
    (_G8, _G8_TD, [{0, 1, 2, 3, 7}, {4}, {5, 6}], VALUE, {2, 3, 4}, 165),
    (_G8, _G8_TD, [{0, 1, 2, 3, 7}, {4}, {5, 6}], EDGESET, {2, 3, 4}, 165),
])
def test_treewidth_pinned_states_and_witness(inst, td, blocks, mode, witness,
                                             states):
    P = Partition.singletons(inst.n) if blocks is None else Partition(blocks, inst.n)
    res = verify_treewidth(inst, P, td=td, mode=mode)
    assert res.witness == witness
    assert res.stats == {"states": states}


def test_treewidth_rejects_invalid_td():
    inst = triangle()
    for bags, edges in [
        ([{0, 1}], []),  # vertex 2 in no bag
        ([{0, 1}, {1, 2}], [(0, 1)]),  # edge 02 in no bag
        ([{0, 1}, {1, 2}, {0, 2}], [(0, 1), (1, 2)]),  # 0's bags disconnected
        ([{0, 1, 2}, {0, 1, 2}], []),  # not a tree
    ]:
        bad = TreeDecomposition(bags, edges)
        with pytest.raises(PreconditionError):
            verify_treewidth(inst, Partition.singletons(3), td=bad)


def test_treewidth_validates_only_a_given_td(monkeypatch):
    # the decomposition verify_treewidth builds itself is valid by
    # construction; one its caller passes in is checked
    calls = []

    def counted(inst, td):
        calls.append(td)
        return treedecomp.validate_td(inst, td)

    monkeypatch.setattr(verify, "validate_td", counted)
    inst = triangle()
    P = Partition.singletons(3)
    assert verify_treewidth(inst, P).verdict == UNSTABLE
    assert calls == []
    td = heuristic_decompose(inst)
    assert verify_treewidth(inst, P, td=td).verdict == UNSTABLE
    assert calls == [td]


def test_treewidth_state_cap():
    rng = random.Random(7)
    inst = AshgInstance(14, [(u, v, rng.randint(-3, 3))
                             for u in range(14) for v in range(u + 1, 14)])
    with pytest.raises(ResourceLimitError):
        verify_treewidth(inst, Partition.singletons(14), max_states=50)


def test_treewidth_unknown_mode():
    with pytest.raises(ValueError):
        verify_treewidth(triangle(), Partition.singletons(3), mode="EDGES")


def chorded_path(rng):
    """A 200-vertex path with a negative chord every ten vertices, and its
    width-3 sliding-window decomposition."""
    n = 200
    edges = [(i, i + 1, rng.randint(-3, 3)) for i in range(n - 1)]
    edges += [(i, i + 3, rng.randint(-3, -1)) for i in range(0, n - 3, 10)]
    td = TreeDecomposition([set(range(i, i + 4)) for i in range(n - 3)],
                           [(i, i + 1) for i in range(n - 4)])
    return AshgInstance(n, edges), td


@pytest.mark.parametrize("mode", [VALUE, EDGESET])
def test_treewidth_stops_at_first_blocking_coalition(mode):
    # running to the root builds 5,184 states in either mode
    inst, td = chorded_path(random.Random(4))
    P = greedy_2core(inst)
    res = verify_treewidth(inst, P, td=td, mode=mode)
    assert res.verdict == UNSTABLE
    assert is_blocking(inst, P, res.witness)
    assert res.stats == {"states": 4233}


@pytest.mark.parametrize("mode", [VALUE, EDGESET])
def test_treewidth_stops_in_first_bags(mode):
    # the only positive edge lies in the bag processed first, of 199
    n = 200
    inst = AshgInstance(n, [(i, i + 1, 1 if i == n - 2 else -1)
                            for i in range(n - 1)])
    td = TreeDecomposition([{i, i + 1} for i in range(n - 1)],
                           [(i, i + 1) for i in range(n - 2)])
    res = verify_treewidth(inst, Partition.singletons(n), td=td, mode=mode)
    assert res.witness == {n - 2, n - 1}
    assert res.stats == {"states": 24}  # 1,597 when run to the root


def stable_game(rng, n):
    """A random partition, core stable by construction: weights inside
    blocks are positive and weights across them at most 0."""
    P = random_partition(rng, n)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if P.block_of(u) == P.block_of(v):
                edges.append((u, v, rng.randint(1, 5)))
            elif rng.random() < 0.5:
                edges.append((u, v, rng.randint(-5, 0)))
    return AshgInstance(n, edges), P


def shuffled_elimination_td(rng, inst):
    adj = {u: set(inst.neighbors(u)) for u in inst.vertices()}
    order = list(inst.vertices())
    rng.shuffle(order)
    return treedecomp._from_elimination(
        [(u, treedecomp._eliminate(adj, u)) for u in order])


def test_treewidth_matches_bruteforce_and_runs_stable_answers_to_root():
    rng = random.Random(18)
    games = [stable_game(rng, 5 + i % 5) for i in range(300)]
    for i in range(300):
        n = 5 + i % 5
        edges = [(u, v, rng.randint(-4, 4)) for u in range(n)
                 for v in range(u + 1, n) if rng.random() < 0.45]
        games.append((AshgInstance(n, edges), random_partition(rng, n)))
    stable_states = {}
    joins = 0
    for inst, P in games:
        given = shuffled_elimination_td(rng, inst)
        parent, order = root_tree(given.tree, 0)
        joins += any(len(given.tree[t]) - (parent[t] is not None) > 1
                     for t in order)
        base = verify_bruteforce(inst, P)
        for td in (None, given):
            for mode in (VALUE, EDGESET):
                res = verify_treewidth(inst, P, td=td, mode=mode)
                assert res.verdict == base.verdict
                if res.stable:
                    key = ("heuristic" if td is None else "given", mode)
                    stable_states[key] = (stable_states.get(key, 0)
                                          + res.stats["states"])
                else:
                    assert is_blocking(inst, P, res.witness)
    assert joins >= 300
    # a Stable answer runs to the root, so these are also the totals of
    # the DP without its early stop
    assert stable_states == {("heuristic", VALUE): 52139,
                             ("heuristic", EDGESET): 52139,
                             ("given", VALUE): 78093,
                             ("given", EDGESET): 78093}


def test_min_vertex_cover():
    assert len(min_vertex_cover(triangle())) == 2
    star = AshgInstance(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    assert min_vertex_cover(star) == {0}
    assert min_vertex_cover(AshgInstance(3, [])) == frozenset()


def test_min_vertex_cover_caps_cover_size(monkeypatch):
    # a matching of MAX_COVER + 1 edges has no cover within the cap
    monkeypatch.setattr(verify, "MAX_COVER", 3)
    fits = AshgInstance(6, [(0, 1, 1), (2, 3, 1), (4, 5, 1)])
    assert min_vertex_cover(fits) == {0, 2, 4}
    over = AshgInstance(8, [(0, 1, 1), (2, 3, 1), (4, 5, 1), (6, 7, 1)])
    with pytest.raises(ResourceLimitError):
        min_vertex_cover(over)
    with pytest.raises(ResourceLimitError):
        verify_vertexcover(over, Partition.singletons(8))
    # a given cover larger than the cap would take 2^|S| guesses
    with pytest.raises(ResourceLimitError):
        verify_vertexcover(fits, Partition.singletons(6), S={0, 1, 2, 4})


def test_vertexcover_edgeless():
    inst = AshgInstance(3, [])
    assert verify_vertexcover(inst, Partition.singletons(3)).stable


def test_vertexcover_rejects_non_cover():
    with pytest.raises(PreconditionError):
        verify_vertexcover(triangle(), Partition.singletons(3), S={0})


def test_vertexcover_explicit_cover():
    inst = triangle()
    P = Partition.singletons(3)
    res = verify_vertexcover(inst, P, S={0, 1})
    assert res.verdict == UNSTABLE
    assert is_blocking(inst, P, res.witness)


def test_vertexcover_negative_candidate_edges():
    # the tempting candidate carries a negative edge to one guessed member;
    # bare clamping at the target would miss the feasible choice below
    inst = AshgInstance(4, [(0, 2, 5), (1, 2, -1), (0, 3, -1), (1, 3, 5),
                            (0, 1, 1)])
    P = Partition.singletons(4)
    res = verify_vertexcover(inst, P, S={0, 1})
    assert res.verdict == UNSTABLE
    assert is_blocking(inst, P, res.witness)


def test_vertexcover_subset_sum_generator_cases():
    from ashg.generators import gen_partition_csv

    yes = gen_partition_csv([1, 1, 2])
    res = verify_vertexcover(yes.instance, yes.partition)
    assert res.verdict == UNSTABLE
    assert is_blocking(yes.instance, yes.partition, res.witness)

    no = gen_partition_csv([1, 1, 1])
    assert verify_vertexcover(no.instance, no.partition).stable


def test_oracle_equivalence_random():
    rng = random.Random(2024)
    for _ in range(150):
        inst, P = random_game(rng, max_n=8, max_w=4)
        base = verify_bruteforce(inst, P)
        for res in (verify_treewidth(inst, P, mode=VALUE),
                    verify_treewidth(inst, P, mode=EDGESET),
                    verify_vertexcover(inst, P)):
            assert res.verdict == base.verdict
            if res.verdict == UNSTABLE:
                assert is_blocking(inst, P, res.witness)


def test_oracle_equivalence_forests():
    rng = random.Random(99)
    for _ in range(150):
        inst, P = random_forest(rng, max_n=9, max_w=4)
        base = verify_bruteforce(inst, P)
        res = verify_tree(inst, P)
        assert res.verdict == base.verdict
        if res.verdict == UNSTABLE:
            assert is_blocking(inst, P, res.witness)


def test_treewidth_witness_check_survives_optimize():
    # the witness check must raise under python -O, which strips asserts
    code = """
import sys
import ashg.verify as V
from ashg.instance import AshgInstance, Partition
if not sys.flags.optimize:
    raise SystemExit("not optimized")
V.is_blocking = lambda inst, P, X: False
inst = AshgInstance(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
try:
    V.verify_treewidth(inst, Partition.singletons(3))
except RuntimeError:
    raise SystemExit(0)
raise SystemExit("no error raised")
"""
    src = os.path.dirname(os.path.dirname(ashg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_treewidth_bound_check_survives_optimize():
    # the gained-utility bound must be checked under python -O as well
    code = """
import sys
from ashg.instance import AshgInstance, Partition
from ashg.verify import verify_treewidth
if not sys.flags.optimize:
    raise SystemExit("not optimized")
inst = AshgInstance(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
inst.w_max = 0
try:
    verify_treewidth(inst, Partition.singletons(3))
except RuntimeError as exc:
    raise SystemExit(0 if "out of bound" in str(exc) else str(exc))
raise SystemExit("no error raised")
"""
    src = os.path.dirname(os.path.dirname(ashg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr

import random

import pytest

from ashg.errors import PreconditionError, ResourceLimitError
from ashg.existence import EXISTS, NOT_EXISTS, solve_cs_bruteforce
from ashg.instance import AshgInstance, Partition, is_blocking
from ashg.kcore import greedy_2core, verify_kcore
from ashg.verify import UNSTABLE, verify_bruteforce


def triangle(w=1):
    return AshgInstance(3, [(0, 1, w), (1, 2, w), (0, 2, w)])


def random_game(rng, max_n=30, max_w=5, density=0.2):
    n = rng.randint(1, max_n)
    edges = [(u, v, rng.randint(-max_w, max_w))
             for u in range(n) for v in range(u + 1, n)
             if rng.random() < density]
    return AshgInstance(n, edges)


def test_verify_kcore_triangle():
    inst = triangle()
    P = Partition.singletons(3)
    res = verify_kcore(inst, P, 2)
    assert res.verdict == UNSTABLE
    assert len(res.witness) <= 2
    assert is_blocking(inst, P, res.witness)
    merged = Partition([{0, 1}, {2}], 3)
    assert verify_kcore(inst, merged, 2).stable
    # the full triangle still blocks at k=3
    assert verify_kcore(inst, merged, 3).verdict == UNSTABLE


def test_verify_kcore_rejects_bad_k():
    with pytest.raises(PreconditionError):
        verify_kcore(triangle(), Partition.singletons(3), 0)


def test_greedy_path():
    inst = AshgInstance(3, [(0, 1, 3), (1, 2, 2)])
    P = greedy_2core(inst)
    assert sorted(sorted(b) for b in P.blocks) == [[0, 1], [2]]
    assert verify_kcore(inst, P, 2).stable


def test_greedy_all_negative_gives_singletons():
    P = greedy_2core(triangle(-2))
    assert len(P.blocks) == 3
    assert verify_kcore(triangle(-2), P, 2).stable


def test_greedy_matching_fully_merged():
    inst = AshgInstance(4, [(0, 1, 5), (2, 3, 1)])
    P = greedy_2core(inst)
    assert sorted(sorted(b) for b in P.blocks) == [[0, 1], [2, 3]]


def test_greedy_prefers_heavier_edge():
    # the middle edge outweighs both pendants
    inst = AshgInstance(4, [(0, 1, 1), (1, 2, 9), (2, 3, 1)])
    P = greedy_2core(inst)
    assert sorted(sorted(b) for b in P.blocks) == [[0], [1, 2], [3]]
    assert verify_kcore(inst, P, 2).stable


def test_greedy_random_always_2core_stable():
    rng = random.Random(5)
    for _ in range(120):
        inst = random_game(rng, max_n=20)
        assert verify_kcore(inst, greedy_2core(inst), 2).stable


def test_k_monotonicity():
    rng = random.Random(11)
    for _ in range(60):
        inst = random_game(rng, max_n=8, density=0.4)
        P = greedy_2core(inst)
        unstable_at = [k for k in range(1, inst.n + 1)
                       if not verify_kcore(inst, P, k).stable]
        # instability at k implies instability at every larger bound
        if unstable_at:
            assert unstable_at == list(range(unstable_at[0], inst.n + 1))


def test_kcore_at_n_matches_unbounded():
    rng = random.Random(13)
    for _ in range(80):
        inst = random_game(rng, max_n=7, density=0.5)
        labels = [rng.randrange(inst.n) for _ in range(inst.n)]
        blocks = {}
        for u, b in enumerate(labels):
            blocks.setdefault(b, set()).add(u)
        P = Partition(list(blocks.values()), inst.n)
        assert verify_kcore(inst, P, inst.n).verdict == \
            verify_bruteforce(inst, P).verdict


def test_solve_kcs_triangle():
    res = solve_cs_bruteforce(triangle(), k=2)
    assert res.verdict == EXISTS
    assert verify_kcore(triangle(), res.partition, 2).stable


def test_solve_kcs_gadget_not_exists():
    from ashg.generators import gen_gadget

    gad = gen_gadget(rho=-16)
    assert solve_cs_bruteforce(gad.instance, k=6).verdict == NOT_EXISTS


def test_solve_kcs_cap():
    inst = AshgInstance(11, [])
    with pytest.raises(ResourceLimitError):
        solve_cs_bruteforce(inst, k=2)


def test_solve_kcs_rejects_bad_k():
    with pytest.raises(PreconditionError):
        solve_cs_bruteforce(triangle(), k=0)


def test_clique_generator_witness():
    from ashg.generators import gen_clique_kcsv

    gen = gen_clique_kcsv(3, [(0, 1), (0, 2), (1, 2)], k=3)
    res = verify_kcore(gen.instance, gen.partition, 3)
    assert res.verdict == UNSTABLE
    assert is_blocking(gen.instance, gen.partition, res.witness)

import random
import time
import warnings

import pytest

from ashg import existence, verify
from ashg.errors import PreconditionError, ResourceLimitError
from ashg.existence import (EXISTS, NOT_EXISTS, decode_partition, encode_cs,
                            solve_cs, solve_cs_bruteforce)
from ashg.generators import gen_eapartition_cs, gen_gadget
from ashg.instance import AshgInstance, Partition
from ashg.qbf import QbfEA, eval_bruteforce
from ashg.treedecomp import (TreeDecomposition, heuristic_decompose,
                             validate_td)
from ashg.verify import verify_bruteforce, verify_treewidth


def triangle(w=1):
    return AshgInstance(3, [(0, 1, w), (1, 2, w), (0, 2, w)])


def random_game(rng, max_n=4, max_w=2):
    n = rng.randint(1, max_n)
    edges = [(u, v, rng.randint(-max_w, max_w))
             for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.6]
    return AshgInstance(n, edges)


def test_brute_single_vertex():
    res = solve_cs_bruteforce(AshgInstance(1, []))
    assert res.verdict == EXISTS
    assert res.partition.blocks == (frozenset({0}),)


def test_brute_negative_triangle_singletons():
    res = solve_cs_bruteforce(triangle(-1))
    assert res.verdict == EXISTS
    assert len(res.partition.blocks) == 3


def test_brute_positive_triangle():
    res = solve_cs_bruteforce(triangle())
    assert res.verdict == EXISTS
    assert verify_bruteforce(triangle(), res.partition).stable


def test_brute_gadget_not_exists():
    from ashg.generators import gen_gadget

    gad = gen_gadget(rho=-16)
    assert solve_cs_bruteforce(gad.instance).verdict == NOT_EXISTS


def test_brute_cap():
    with pytest.raises(ResourceLimitError):
        solve_cs_bruteforce(AshgInstance(11, []))


def test_encode_single_edge():
    # positive edge: partitions keeping {0,1} apart are not stable,
    # the formula must still be satisfiable (merge them)
    inst = AshgInstance(2, [(0, 1, 1)])
    enc = encode_cs(inst)
    assert len(enc.edge_var) == 1
    sat, wit = eval_bruteforce(enc.formula)
    assert sat
    model = dict(wit)
    P = decode_partition(enc, inst, model)
    assert verify_bruteforce(inst, P).stable

    # negative edge: only the split partition is stable
    neg = AshgInstance(2, [(0, 1, -1)])
    enc = encode_cs(neg)
    sat, wit = eval_bruteforce(enc.formula)
    assert sat
    P = decode_partition(enc, neg, dict(wit))
    assert len(P.blocks) == 2


def test_encode_rejects_invalid_td():
    with pytest.raises(PreconditionError):
        encode_cs(triangle(), td=TreeDecomposition([{0, 1}], []))


def test_encode_term_budget():
    with pytest.raises(ResourceLimitError):
        encode_cs(triangle(), max_terms=3)


def test_encode_satisfiability_independent_of_td():
    # formula satisfiability must not depend on which decomposition the
    # encoder completes bags with
    rng = random.Random(17)
    for _ in range(20):
        inst = random_game(rng, max_n=4)
        sats = []
        for td in (heuristic_decompose(inst),
                   TreeDecomposition([range(inst.n)], [])):
            enc = encode_cs(inst, td=td)
            sats.append(eval_bruteforce(enc.formula, cap=26)[0])
        assert sats[0] == sats[1]
        assert sats[0] == solve_cs_bruteforce(inst).exists


def test_encode_clauses_have_three_literals():
    # the transitivity clauses are the 3-CNF part of the formula
    rng = random.Random(29)
    seen = 0
    for _ in range(50):
        enc = encode_cs(random_game(rng, max_n=6))
        xs = set(enc.formula.x_vars)
        for cl in enc.formula.cnf:
            assert len({abs(l) for l in cl}) == len(cl) == 3
            assert {abs(l) for l in cl} <= xs
        seen += len(enc.formula.cnf)
    assert seen


def test_decode_partition_ignores_unchosen_edges():
    inst = AshgInstance(3, [(0, 1, 1), (1, 2, 1)])
    enc = encode_cs(inst)
    model = {var: False for var in enc.edge_var.values()}
    P = decode_partition(enc, inst, model)
    assert len(P.blocks) == 3


def test_solve_cs_empty_and_singleton():
    assert solve_cs(AshgInstance(0, [])).verdict == EXISTS
    res = solve_cs(AshgInstance(1, []))
    assert res.verdict == EXISTS
    assert len(res.partition.blocks) == 1


def test_solve_cs_single_edge():
    res = solve_cs(AshgInstance(2, [(0, 1, 1)]))
    assert res.verdict == EXISTS
    assert res.partition.blocks == (frozenset({0, 1}),)


def test_solve_cs_p3_exists():
    inst = AshgInstance(3, [(0, 1, 1), (1, 2, 1)])
    res = solve_cs(inst)
    assert res.verdict == EXISTS
    assert verify_bruteforce(inst, res.partition).stable


def test_solve_cs_triangle_negative():
    res = solve_cs(triangle(-1))
    assert res.verdict == EXISTS
    assert len(res.partition.blocks) == 3


def test_solve_cs_self_certifies():
    rng = random.Random(3)
    for _ in range(6):
        inst = random_game(rng, max_n=3)
        res = solve_cs(inst)
        if res.exists:
            assert verify_bruteforce(inst, res.partition).stable


def test_solve_cs_collect_artifacts():
    collect = {}
    res = solve_cs(AshgInstance(2, [(0, 1, 1)]), collect=collect)
    assert res.verdict == EXISTS
    assert set(collect) == {"encoding"}


def test_solve_cs_k4_layer_counts():
    # the roadmap K4 game's formula: the universal variables are the four
    # y plus the links of the all-out terms
    inst = AshgInstance(4, [(0, 1, 2), (0, 2, -1), (0, 3, 1), (1, 2, 1),
                            (1, 3, -2), (2, 3, 1)])
    collect = {}
    assert solve_cs(inst, collect=collect).verdict == EXISTS
    enc = collect["encoding"]
    q = enc.formula
    assert q.y_vars[:4] == tuple(enc.vertex_var[u] for u in range(4))
    assert (len(q.x_vars), len(q.y_vars)) == (6, 7)
    assert (len(q.dnf), len(q.cnf)) == (72, 12)


def test_solve_cs_k4_dp_sizes():
    # the DP's bags on the K4 game: 6 edge variables, the 4 y and 3 links
    inst = AshgInstance(4, [(0, 1, 2), (0, 2, -1), (0, 3, 1), (1, 2, 1),
                            (1, 3, -2), (2, 3, 1)])
    res = solve_cs(inst)
    assert res.verdict == EXISTS
    assert res.stats == {"t_exists": 5, "t_forall": 5, "states": 63}


def test_solve_cs_star_degree_nine():
    # the centre's phi_u has about 26,000 terms
    rng = random.Random(9)
    inst = AshgInstance(10, [(0, v, rng.choice([-3, -2, -1, 1, 2, 3]))
                             for v in range(1, 10)])
    res = solve_cs(inst)
    assert res.verdict == EXISTS
    assert verify_treewidth(inst, res.partition).stable
    assert res.stats == {"t_exists": 9, "t_forall": 11, "states": 676}


def test_solve_cs_given_td_need_not_cover_zero_edges():
    # the zero-weight edge 03 lies in no bag of the path decomposition
    inst = AshgInstance(4, [(0, 1, 2), (1, 2, -1), (2, 3, 1), (0, 3, 0)])
    td = TreeDecomposition([{0, 1}, {1, 2}, {2, 3}], [(0, 1), (1, 2)])
    res = solve_cs(inst, td=td)
    assert res.verdict == solve_cs(inst).verdict == EXISTS
    assert verify_treewidth(inst, res.partition).stable


def test_solve_cs_matches_bruteforce_small():
    rng = random.Random(41)
    seen_not_exists = False
    for _ in range(10):
        inst = random_game(rng, max_n=3, max_w=2)
        res = solve_cs(inst)
        assert res.exists == solve_cs_bruteforce(inst).exists
        seen_not_exists |= not res.exists
    # every game on at most 3 vertices admits a core stable partition
    assert not seen_not_exists


@pytest.mark.parametrize("n", [30, 120])
def test_solve_cs_weighted_paths_certified(n):
    # no zero edge splits the path, so the DP's elimination order is one
    # long chain of nodes; each node forgets its variable and keeps only
    # the subset-minimal states, which keeps them linear in n under the
    # default caps
    for seed in (1, 2):
        rng = random.Random(seed)
        inst = AshgInstance(n, [(i, i + 1, rng.choice([-3, -2, -1, 1, 2, 3]))
                                for i in range(n - 1)])
        res = solve_cs(inst)
        assert res.verdict == EXISTS
        assert verify_treewidth(inst, res.partition).stable


def grid(rows, cols, seed=1):
    """rows x cols grid, row-major ids, every weight drawn from +-1..3,
    the right edge before the down edge."""
    rng = random.Random(seed)
    edges = []
    for u in range(rows * cols):
        if u % cols + 1 < cols:
            edges.append((u, u + 1, rng.choice([-3, -2, -1, 1, 2, 3])))
        if u < (rows - 1) * cols:
            edges.append((u, u + cols, rng.choice([-3, -2, -1, 1, 2, 3])))
    return AshgInstance(rows * cols, edges)


def ladder(cols, seed=1):
    """2 x cols grid."""
    return grid(2, cols, seed)


def caterpillar(spine, seed=1):
    """A path of spine vertices, each with one leaf, weights +-1..3."""
    rng = random.Random(seed)
    edges = [(i, i + 1, rng.choice([-3, -2, -1, 1, 2, 3]))
             for i in range(spine - 1)]
    edges += [(i, spine + i, rng.choice([-3, -2, -1, 1, 2, 3]))
              for i in range(spine)]
    return AshgInstance(2 * spine, edges)


def certified_sizes(inst):
    """The DP's sizes on inst, whose Exists answer is checked again."""
    res = solve_cs(inst)
    assert res.verdict == EXISTS
    assert verify_treewidth(inst, res.partition).stable
    return res.stats


def test_solve_cs_dp_t_forall_flat_on_ladders():
    # the DP's own bags, on the plain min-degree order of the formula
    for cols in (8, 16, 32):
        res = solve_cs(ladder(cols))
        assert res.verdict == EXISTS
        assert res.stats["t_exists"] == 5
        assert res.stats["t_forall"] == 7
        assert res.stats["states"] == {8: 823, 16: 1796, 32: 3783}[cols]


def test_solve_cs_decides_grids_and_eapartition():
    # solve_cs certifies every Exists itself; about 2 s on a 2-vCPU host
    start = time.time()
    for rows, cols in [(3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (4, 4)]:
        inst = grid(rows, cols)
        res = solve_cs(inst)
        assert res.verdict == EXISTS, (rows, cols)
        assert verify_treewidth(inst, res.partition).stable
    ea = gen_eapartition_cs([1], [1])
    assert ea.expected is False
    assert solve_cs(ea.instance).verdict == NOT_EXISTS
    elapsed = time.time() - start
    assert elapsed < 60, "grids and eapartition took %.1fs" % elapsed


def test_solve_cs_certifies_in_the_library(monkeypatch):
    # a partition the certificate rejects is an error, not an answer
    def rejects(inst, P, td):
        return verify_bruteforce(inst, Partition([[u] for u in range(inst.n)],
                                                 inst.n))

    monkeypatch.setattr(existence, "_treewidth_dp", rejects)
    with pytest.raises(RuntimeError):
        solve_cs(AshgInstance(2, [(0, 1, 1)]))


def test_solve_cs_validates_its_decomposition_once(monkeypatch):
    # encode_cs validates the decomposition the certificate then uses
    calls = []

    def counted(inst, td):
        calls.append(td)
        return validate_td(inst, td)

    monkeypatch.setattr(existence, "validate_td", counted)
    monkeypatch.setattr(verify, "validate_td", counted)
    inst = AshgInstance(4, [(0, 1, 2), (1, 2, -1), (2, 3, 1), (0, 3, 1)])
    assert solve_cs(inst).verdict == EXISTS
    assert len(calls) == 1


def test_solve_cs_t_forall_flat_on_caterpillars():
    # a decomposition that branches at every spine bag
    assert certified_sizes(caterpillar(10)) == {
        "t_exists": 3, "t_forall": 5, "states": 294}
    assert certified_sizes(caterpillar(20)) == {
        "t_exists": 3, "t_forall": 5, "states": 624}


def test_all_out_terms_at_most_four_literals():
    # one bag of 6 vertices: the root's term would hold all six -y
    inst = AshgInstance(6, [(0, 1, 2), (1, 2, -1), (2, 3, 1), (3, 4, 2),
                            (4, 5, -1), (0, 5, 1)])
    one_bag = TreeDecomposition([range(6)], [])
    enc = encode_cs(inst, td=one_bag)
    ys = tuple(enc.vertex_var[u] for u in range(6))
    out = [t for t in enc.formula.dnf if t[0] not in ys]
    assert len(out) > 1
    assert max(map(len, out)) <= 4
    # the links collapse the terms to -y_0 and ... and -y_5: with a term
    # y_v for each v they cover every assignment, and without one they
    # leave y_v alone true uncovered
    links = enc.formula.y_vars[6:]
    assert {abs(l) for t in out for l in t} == set(ys + links)
    for drop in (None,) + ys:
        q = QbfEA((), ys + links,
                  tuple(out) + tuple((y,) for y in ys if y != drop))
        assert eval_bruteforce(q)[0] is (drop is None)
    res = solve_cs(inst, td=one_bag)
    assert res.verdict == solve_cs_bruteforce(inst).verdict
    assert verify_treewidth(inst, res.partition).stable


def test_solve_cs_gadget_not_exists():
    inst = gen_gadget(rho=-16).instance
    assert solve_cs(inst).verdict == NOT_EXISTS
    # the same gadget over one bag chains its all-out term
    one_bag = TreeDecomposition([range(inst.n)], [])
    assert solve_cs(inst, td=one_bag).verdict == NOT_EXISTS


def test_solve_cs_matches_bruteforce_on_gadget_games():
    # weights perturbed by -1..1 and up to two pendant vertices, so both
    # verdicts occur
    rng = random.Random(23)
    verdicts = set()
    for _ in range(100):
        rho = rng.choice([-20, -16, -15, -12])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gad = gen_gadget(rho=rho).instance
        edges = [(u, v, w + rng.choice([-1, 0, 1])) for u, v, w in gad.edges]
        n = gad.n
        for _ in range(rng.randint(0, 2)):
            edges.append((rng.randrange(n), n,
                          rng.choice([-3, -2, -1, 1, 2, 3])))
            n += 1
        inst = AshgInstance(n, edges)
        res = solve_cs(inst)
        assert res.verdict == solve_cs_bruteforce(inst).verdict
        if res.exists:
            assert verify_treewidth(inst, res.partition).stable
        verdicts.add(res.verdict)
    assert verdicts == {EXISTS, NOT_EXISTS}

"""The benchmark's workloads.

Each builder turns a seed into a Plan: the items one pass over the workload
calls (each item makes one or more calls into the library's public entry
points) and the correctness gate those results must pass.  Oracle answers
are computed while building, so they count as set-up time.  Builders call
the library through the module objects in ``mods`` so that the traced run
can wrap the stages in place.

Why these workloads:

* cs-dense -- ``solve_cs`` on a stratified sample of the connected n = 3
  and n = 4 games the pipeline's acceptance test sweeps, each game weighted
  by its shape's share of that population.  High degree makes the
  per-vertex DNF (4^deg terms) and ``qbf_to_cnf`` dominate.
* cs-path -- ``solve_cs`` on weighted paths.  Degree 2 leaves little DNF
  to shrink; the width of the primal decomposition grows with the length,
  so ``sat_treewidth`` dominates.
* verify-mix -- the four verifiers and the k-core routines on random games,
  partitions stable by construction, a long chorded path, vertex-cover
  heavy paths and reduction instances with known answers.  The existence
  pipeline is never called, so pipeline changes must not move it.
"""

import random
from itertools import combinations, permutations

# The games named in the project roadmap, always part of cs-dense.
K4_GAME = (4, ((0, 1, 2), (0, 2, -1), (0, 3, 1), (1, 2, 1), (1, 3, -2), (2, 3, 1)))
C4_GAME = (4, ((0, 1, 1), (1, 2, -1), (2, 3, 2), (0, 3, 1)))
P3_GAME = (3, ((0, 1, 1), (1, 2, 1)))
NEG_TRIANGLE = (3, ((0, 1, -1), (0, 2, -1), (1, 2, -1)))

# Edge sets of the connected shapes on three and four agents, up to labels.
SHAPES = {
    "P3": (3, ((0, 1), (1, 2))),
    "K3": (3, ((0, 1), (0, 2), (1, 2))),
    "P4": (4, ((0, 1), (1, 2), (2, 3))),
    "star": (4, ((0, 1), (0, 2), (0, 3))),
    "C4": (4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    "paw": (4, ((0, 1), (0, 2), (1, 2), (2, 3))),
    "diamond": (4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))),
    "K4": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
}
# cs-dense is a stratified sample of the acceptance sweep's n = 3 and n = 4
# games: per pass, each shape gets its roadmap game (if any) plus this many
# seeded draws with weights -2..2 on the shape's edges as listed in SHAPES.
# Seeds change weights, never labels or the mix: relabelling a game changes
# the decomposition heuristic's choices, and with them the cost (a 10-vertex
# path took 2.2-2.5 s over five weightings and 2.8-8.3 s over five
# relabellings).  Cost per game at the seed commit: K4 6-10 s, C4 and star
# 3-4.5 s, diamond about 3 s, paw about 2 s, P4 and n = 3 under 0.5 s.
# The timings per pass roughly follow the shapes' shares of the population,
# scaled to the time budget, with at least one for every shape kept.  K4 and
# diamond carry three quarters of the weight and get two and four timings;
# a shape's latency is the median over its timings, so one slow moment of a
# shared machine does not set it.  K4 is its roadmap game alone, timed
# twice: the cost of a K4 draw ranges over 6-10 s with its weights
# (18.8k-21.3k clauses over seeds 1-5), which would make the latency tail
# swing with the seed.  The star (1.1 % of the population) is left out: at
# 3.5 s a game it would cost a tenth of a pass and move no metric by more
# than about 1 %.
DENSE_DRAWS = {"K4": 0, "diamond": 4, "C4": 0, "paw": 1, "P4": 1, "P3": 1, "K3": 1}
DENSE_REPEATS = {"K4": 2}


def population_size(shape):
    """Number of games of this shape in the acceptance sweep: its labelled
    copies times five weights (-2..2) per edge.  Over the four-agent shapes
    this sums to 45,750, the sweep's connected n = 4 games."""
    n, pairs = SHAPES[shape]
    copies = {frozenset(frozenset((perm[u], perm[v])) for u, v in pairs)
              for perm in permutations(range(n))}
    return len(copies) * 5 ** len(pairs)


# cs-path solves this many seeded weightings of each path length per pass;
# a length's latency is the median over them.  The lengths that set the
# median and the tail get the most.
PATH_DRAWS = {6: 1, 10: 5, 14: 5}


class Item:
    """One timed unit of a pass: ``fn(mods)`` makes ``calls`` library calls.
    ``weight`` is the share of the workload's population the item stands
    for; throughput and median latency are weighted by it.  Items of one
    ``group`` (None: a group of its own) form one input of the latency
    figures: the same game timed again, or games of one stratum."""

    __slots__ = ("case", "label", "calls", "fn", "weight", "group")

    def __init__(self, case, label, calls, fn, weight=1.0, group=None):
        self.case = case
        self.label = label
        self.calls = calls
        self.fn = fn
        self.weight = weight
        self.group = group


class Plan:
    """The items of one pass and the gate their results must pass.

    ``check(mods, results)`` takes (item index, result) pairs and returns
    a list of mismatch descriptions, empty when every answer is right.
    """

    def __init__(self, items, check):
        self.items = items
        self.check = check


def _game(mods, n, edges):
    return mods.instance.AshgInstance(n, list(edges))


def _weighted_copy(mods, rng, shape):
    n, pairs = SHAPES[shape]
    return _game(mods, n, [(u, v, rng.randint(-2, 2)) for u, v in pairs])


# --------------------------------------------------------------- cs-*

def _cs_plan(mods, strata, oracle):
    """Plan calling solve_cs on every game of ``strata``, a list of (name,
    weight, games) with games (label, instance); ``oracle[label]`` is
    whether the game has a core stable partition.  A stratum is one input
    of the latency figures and its games share its weight.  The games of a
    stratum are spread evenly over the pass (the k-th of m at (k + 1/2)/m
    of the way through), so that its median latency spans the whole run."""
    order = sorted(((k + 0.5) / len(stratum), s, k)
                   for s, (_, _, stratum) in enumerate(strata)
                   for k in range(len(stratum)))
    games, items = [], []
    for _, s, k in order:
        name, weight, stratum = strata[s]
        label, inst = stratum[k]
        items.append(Item(len(games), label, 1,
                          lambda m, inst=inst: m.existence.solve_cs(inst),
                          weight / len(stratum), name))
        games.append((label, inst))

    def check(m, results):
        errors = []
        seen = set()
        for idx, res in results:
            game = items[idx].case
            label, inst = games[game]
            if res.exists != oracle[label]:
                errors.append("%s: solve_cs says %s, oracle says exists=%s"
                              % (label, res.verdict, oracle[label]))
                continue
            if not res.exists:
                continue
            P = res.partition
            key = (game, None if P is None else P.blocks)
            if key in seen:
                continue
            seen.add(key)
            if P is None or P.n != inst.n:
                errors.append("%s: Exists without a partition of all %d agents"
                              % (label, inst.n))
            elif not m.verify.verify_bruteforce(inst, P, cap=None).stable:
                errors.append("%s: partition %r is not core stable" % (label, P))
        return errors

    return Plan(items, check)


def build_cs_dense(mods, seed, traced):
    rng = random.Random("cs-dense:%d" % seed)
    fixed = {"K4": [("K4", K4_GAME)], "C4": [("C4", C4_GAME)],
             "P3": [("P3", P3_GAME)], "K3": [("neg-K3", NEG_TRIANGLE)]}
    total = sum(population_size(shape) for shape in DENSE_DRAWS)
    strata = []
    for shape, draws in DENSE_DRAWS.items():
        stratum = [(label, _game(mods, *game)) for label, game in fixed.get(shape, ())]
        stratum += [("%s#%d" % (shape, k), _weighted_copy(mods, rng, shape))
                    for k in range(draws)]
        stratum *= DENSE_REPEATS.get(shape, 1)
        strata.append((shape, population_size(shape) / total, stratum))
    solve = mods.existence.solve_cs_bruteforce
    oracle = {label: solve(inst).exists
              for _, _, stratum in strata for label, inst in stratum}
    return _cs_plan(mods, strata, oracle)


def _balanced_weights(rng, count):
    """Weights -2..2, each used equally often along the path, in seeded
    order: the number of DNF terms kept depends on the weights, so a
    balanced mix keeps the cost of a path from swinging with the seed."""
    out = []
    while len(out) < count:
        block = list(range(-2, 3))
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def build_cs_path(mods, seed, traced):
    rng = random.Random("cs-path:%d" % seed)
    strata = []
    for n, draws in PATH_DRAWS.items():
        stratum = []
        for k in range(draws):
            weights = _balanced_weights(rng, n - 1)
            edges = [(i, i + 1, w) for i, w in enumerate(weights)]
            stratum.append(("path-%d#%d" % (n, k), _game(mods, n, edges)))
        strata.append(("path-%d" % n, 1.0, stratum))
    # Games on trees always have a core stable partition (Demange 2004:
    # coalitions restricted to connected sets of a tree give a non-empty
    # core), so the oracle answer is Exists.  Partition enumeration would
    # not reach 12 vertices, and its time to the first stable partition
    # swings with the weights.  Every partition returned is still checked
    # by brute-force verification.
    oracle = {label: True for _, _, stratum in strata for label, _ in stratum}
    return _cs_plan(mods, strata, oracle)


# --------------------------------------------------------------- verify-mix

class Case:
    """An instance and partition every verifier of the case must agree on;
    ``expected`` is True (stable), False (unstable) or None (unknown), and
    ``k`` bounds witness size for k-core verification."""

    __slots__ = ("label", "inst", "P", "expected", "k")

    def __init__(self, label, inst, P, expected=None, k=None):
        self.label = label
        self.inst = inst
        self.P = P
        self.expected = expected
        self.k = k


def _random_game(mods, rng, n, max_w, density):
    edges = [(u, v, rng.randint(-max_w, max_w))
             for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    return _game(mods, n, edges)


def _random_forest(mods, rng, n, max_w):
    edges = [(rng.randrange(v), v, rng.randint(-max_w, max_w))
             for v in range(1, n) if rng.random() < 0.8]
    return _game(mods, n, edges)


def _random_partition(mods, rng, n):
    blocks = {}
    for u in range(n):
        blocks.setdefault(rng.randrange(n), set()).add(u)
    return mods.instance.Partition(list(blocks.values()), n)


def _stable_game(mods, rng, n):
    """A random partition and a game in which it is core stable by
    construction: weights inside blocks are positive and weights between
    blocks are at most 0, so an agent's utility in any coalition is at most
    its utility in its own block, and no coalition blocks.  Building it
    needs no search, so set-up time does not depend on the seed."""
    P = _random_partition(mods, rng, n)
    edges = []
    for u, v in combinations(range(n), 2):
        if P.block_of(u) == P.block_of(v):
            edges.append((u, v, rng.randint(1, 5)))
        elif rng.random() < 0.5:
            edges.append((u, v, rng.randint(-5, 0)))
    return _game(mods, n, edges), P


def _chorded_path(mods, rng):
    """A 200-vertex path with sparse negative chords, and its width-3
    sliding-window decomposition."""
    n = 200
    edges = [(i, i + 1, rng.randint(-3, 3)) for i in range(n - 1)]
    edges += [(i, i + 3, rng.randint(-3, -1)) for i in range(0, n - 3, 10)]
    inst = _game(mods, n, edges)
    td = mods.treedecomp.TreeDecomposition(
        [set(range(i, i + 4)) for i in range(n - 3)],
        [(i, i + 1) for i in range(n - 4)])
    return inst, td


def _verifier(name, **kwargs):
    if name == "treewidth":
        mode = kwargs.pop("mode")
        return (lambda m, c: m.verify.verify_treewidth(
            c.inst, c.P, mode=getattr(m.verify, mode), **kwargs))
    fn = "verify_" + name
    return lambda m, c: getattr(m.verify, fn)(c.inst, c.P, **kwargs)


ALL_VERIFIERS = (("bruteforce", {}), ("treewidth", {"mode": "VALUE"}),
                 ("treewidth", {"mode": "EDGESET"}), ("vertexcover", {}))


def build_verify_mix(mods, seed, traced):
    rng = random.Random("verify-mix:%d" % seed)
    G = mods.generators
    cases, items = [], []

    def add(case, verifiers):
        idx = len(cases)
        cases.append(case)
        for name, kwargs in verifiers:
            call = _verifier(name, **dict(kwargs))
            label = "%s/%s%s" % (case.label, name,
                                 "-" + kwargs["mode"] if "mode" in kwargs else "")
            items.append(Item(idx, label, 1,
                              lambda m, c=case, f=call: (c.P, f(m, c))))

    # random games with random partitions (most exit early as unstable),
    # sizes 1..10 in fixed numbers so that seeds do not change the mix;
    # forests let the forest DP take part
    for i in range(30):
        inst = _random_game(mods, rng, 1 + i % 10, 5, 0.4)
        add(Case("random-%d" % i, inst, _random_partition(mods, rng, inst.n)),
            ALL_VERIFIERS)
    for n in range(1, 11):
        inst = _random_forest(mods, rng, n, 5)
        add(Case("forest-%d" % n, inst, _random_partition(mods, rng, n)),
            ALL_VERIFIERS + (("tree", {}),))

    # core stable partitions of n = 5..7 agents: every verifier searches
    # its whole space
    for i in range(6):
        inst, P = _stable_game(mods, rng, 5 + i % 3)
        add(Case("stable-%d" % i, inst, P, expected=True), ALL_VERIFIERS)

    # 200-vertex chorded paths, partitioned greedily: the one the
    # treewidth-scaling acceptance test uses (weights from seed 4) and five
    # seeded ones.  Their twelve calls are the class that sets the latency
    # tail, so the tail does not hinge on a single instance.
    for k, chord_rng in enumerate([random.Random(4)] + 5 * [rng]):
        inst, td = _chorded_path(mods, chord_rng)
        add(Case("chorded-200#%d" % k, inst, mods.kcore.greedy_2core(inst)),
            (("treewidth", {"mode": "VALUE", "td": td}),
             ("treewidth", {"mode": "EDGESET", "td": td})))

    # paths where the exact minimum vertex cover search dominates; its cost
    # depends on the length only
    for n in (16, 18, 20, 22, 24):
        inst = _game(mods, n, [(i, i + 1, rng.randint(-3, 3)) for i in range(n - 1)])
        add(Case("vc-path-%d" % n, inst, _random_partition(mods, rng, n)),
            (("vertexcover", {}), ("tree", {}), ("treewidth", {"mode": "VALUE"})))

    # reduction instances with answers known from the source problem; input
    # sizes are fixed so that seeds change the values, not the cost
    for i in range(4):
        values = [rng.randint(1, 9) for _ in range(3 + i)]
        with traced():
            out = G.gen_partition_csv(values)
        add(Case("partition-csv-%d" % i, out.instance, out.partition, out.expected),
            (("vertexcover", {}), ("bruteforce", {"cap": None}),
             ("treewidth", {"mode": "VALUE"})))
    for i in range(3):
        values = [rng.randint(1, 9) for _ in range(2 + i)]
        with traced():
            out = G.gen_binpacking_csv(values, 2)
        add(Case("binpacking-csv-%d" % i, out.instance, out.partition, out.expected),
            (("bruteforce", {"cap": None}), ("treewidth", {"mode": "VALUE"})))
    for i in range(4):
        n = 1 + i
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5]
        with traced():
            out = G.gen_bdd_csv(n, edges, i % 2, rng.randint(1, n))
        add(Case("bdd-csv-%d" % i, out.instance, out.partition, out.expected),
            (("treewidth", {"mode": "VALUE"}), ("treewidth", {"mode": "EDGESET"})))
    for i in range(4):
        n = 3 + i
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5]
        with traced():
            out = G.gen_clique_kcsv(n, edges, 3)
        case = Case("clique-kcsv-%d" % i, out.instance, out.partition,
                    out.expected, k=3)
        idx = len(cases)
        cases.append(case)
        items.append(Item(idx, case.label + "/kcore", 1,
                          lambda m, c=case: (c.P, m.kcore.verify_kcore(c.inst, c.P, 3))))

    # greedy 2-core partitions, which are 2-core stable by construction
    for i in range(10):
        case = Case("greedy-2core-%d" % i, _random_game(mods, rng, 21 + i, 5, 0.2),
                    None, expected=True, k=2)
        idx = len(cases)
        cases.append(case)

        def greedy_then_verify(m, c=case):
            P = m.kcore.greedy_2core(c.inst)
            return P, m.kcore.verify_kcore(c.inst, P, 2)
        items.append(Item(idx, case.label, 2, greedy_then_verify))

    def check(m, results):
        errors = []
        verdicts = {}
        for idx, (P, res) in results:
            item = items[idx]
            case = cases[item.case]
            inst = case.inst
            if P is None or P.n != inst.n:
                errors.append("%s: not a partition of all %d agents"
                              % (item.label, inst.n))
                continue
            if case.expected is not None and res.stable != case.expected:
                errors.append("%s: %s, expected stable=%s"
                              % (item.label, res.verdict, case.expected))
            verdicts.setdefault(item.case, set()).add(res.stable)
            if res.stable:
                continue
            X = res.witness
            if not X or not m.instance.is_blocking(inst, P, X):
                errors.append("%s: witness %r does not block" % (item.label, X))
            elif case.k is not None and len(X) > case.k:
                errors.append("%s: witness %r larger than %d"
                              % (item.label, X, case.k))
        for ci, seen in verdicts.items():
            if len(seen) > 1:
                errors.append("%s: verifiers disagree" % cases[ci].label)
        return errors

    return Plan(items, check)


WORKLOADS = {
    "cs-dense": build_cs_dense,
    "cs-path": build_cs_path,
    "verify-mix": build_verify_mix,
}

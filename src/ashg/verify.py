"""Core stability verification: four interchangeable algorithms.

Each solver decides whether a partition admits a blocking coalition and, if
so, returns one.  Search is restricted to connected coalitions: a
disconnected blocking coalition always contains a blocking component.
"""

from dataclasses import dataclass, field
from itertools import combinations

from ashg.errors import PreconditionError, ResourceLimitError, WrongAlgorithmError
from ashg.instance import all_partition_utilities, is_blocking
from ashg.treedecomp import heuristic_decompose, root_tree, validate_td

STABLE = "Stable"
UNSTABLE = "Unstable"

# verify_vertexcover makes 2^|S| guesses over a cover S, so covers larger
# than this raise ResourceLimitError
MAX_COVER = 20


@dataclass
class VerificationResult:
    verdict: str
    witness: frozenset = None
    stats: dict = field(default_factory=dict)

    @property
    def stable(self):
        return self.verdict == STABLE


def verify_bruteforce(inst, P, max_size=None, cap=1_000_000):
    """Enumerate connected coalitions by size, then lexicographically."""
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


def verify_tree(inst, P):
    """Linear-time verification on forests, each component rooted at its
    least vertex id.

    ut_below(u) is the best utility u can get from a coalition inside its
    subtree whose other members all strictly improve; a child v joins only
    when w(uv) >= 0 and ut_below(v) + w(uv) > ut_P(v).
    """
    adj = {u: inst.neighbors(u) for u in inst.vertices()}
    parent = {}
    post = []
    roots = 0
    for root in inst.vertices():
        if root not in parent:
            tree_parent, order = root_tree(adj, root)
            parent.update(tree_parent)
            post.extend(reversed(order))
            roots += 1
    # a graph is a forest exactly when it has n - (components) edges
    if inst.m != inst.n - roots:
        raise WrongAlgorithmError("instance contains a cycle")
    ut_p = all_partition_utilities(inst, P)
    below = [0] * inst.n
    for u in post:
        total = 0
        for v, w in inst.neighbors(u).items():
            if parent.get(v) == u and w >= 0 and below[v] + w > ut_p[v]:
                total += w
        below[u] = total
    for u in inst.vertices():
        if below[u] > ut_p[u]:
            # expand the accepted subtrees into an explicit witness
            X = {u}
            stack = [u]
            while stack:
                a = stack.pop()
                for v, w in inst.neighbors(a).items():
                    if parent.get(v) == a and w >= 0 and below[v] + w > ut_p[v]:
                        X.add(v)
                        stack.append(v)
            return VerificationResult(UNSTABLE, frozenset(X), {"expanded": inst.n})
    return VerificationResult(STABLE, stats={"expanded": inst.n})


VALUE = "VALUE"
EDGESET = "EDGESET"


def verify_treewidth(inst, P, td=None, mode=VALUE, max_states=5_000_000):
    """Signature DP over a tree decomposition rooted at bag 0.

    A state is (in_x, gains, touched): in_x has bit v set for each bag
    member chosen into X; gains holds, per set bit of in_x in ascending
    order, the utility that member already gained from forgotten members
    of X, as an int in VALUE mode and in EDGESET mode as a bitmask of
    those forgotten neighbours; touched says X is nonempty so far.  The
    tables change one vertex at a time: a leaf introduces its bag, each
    tree edge forgets what only the child holds and then introduces what
    only the parent holds, a bag joins its children in order, and the root
    forgets its bag.  Each state keeps the first coalition found for it as
    nested pairs: (v, rest) when v is taken, (left, right) at a join.

    The DP stops at the first bag whose table holds (0, (), True): every
    member of that X was forgotten after its check passed, and each of its
    neighbours shared a bag with it below, so X blocks.  A Stable answer
    runs to the root.  stats["states"] counts the states built until then.
    """
    if mode not in (VALUE, EDGESET):
        raise ValueError("unknown mode %r" % mode)
    if td is None:
        td = heuristic_decompose(inst)
    report = validate_td(inst, td)
    if report is not None:
        raise PreconditionError("invalid tree decomposition: %s" % report)
    return _treewidth_dp(inst, P, td, mode, max_states)


def _treewidth_dp(inst, P, td, mode=VALUE, max_states=5_000_000):
    """verify_treewidth on a decomposition already validated for inst."""
    ut_p = all_partition_utilities(inst, P)
    bound = inst.max_degree * inst.w_max
    edgeset = mode == EDGESET
    total_states = 0

    def counted(table):
        nonlocal total_states
        total_states += len(table)
        if total_states > max_states:
            raise ResourceLimitError("dp_states", max_states)
        return table

    def bounded(v, g):
        if not -bound <= g <= bound:
            raise RuntimeError("gained utility %d of vertex %d out of "
                               "bound %d" % (g, v, bound))
        return g

    def members(mask):
        """Set bits of mask, ascending."""
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def introduce(table, v):
        bit = 1 << v
        out = {}
        for state, coal in table.items():
            out.setdefault(state, coal)
            in_x, gains, _ = state
            r = (in_x & (bit - 1)).bit_count()
            out.setdefault((in_x | bit, gains[:r] + (0,) + gains[r:], True),
                           (v, coal))
        return counted(out)

    def forget(table, v):
        bit = 1 << v
        wv = inst.neighbors(v)
        nbmask = sum(1 << u for u in wv)
        sums = {}  # EDGESET: mask of forgotten X-nbrs -> v's gain from them
        out = {}
        for state, coal in table.items():
            in_x, gains, touched = state
            if not in_x & bit:
                out.setdefault(state, coal)
                continue
            i = (in_x & (bit - 1)).bit_count()
            g = gains[i]
            if edgeset:
                if g not in sums:
                    sums[g] = sum(wv[x] for x in members(g))
                g = sums[g]
            # (rank, vertex, weight) of v's neighbours among the members
            nbrs = [((in_x & ((1 << u) - 1)).bit_count(), u, wv[u])
                    for u in members(in_x & nbmask)]
            if g + sum(w for _, _, w in nbrs) <= ut_p[v]:
                continue
            gl = list(gains)
            for j, u, w in nbrs:
                gl[j] = gl[j] | bit if edgeset else bounded(u, gl[j] + w)
            del gl[i]
            out.setdefault((in_x ^ bit, tuple(gl), touched), coal)
        return counted(out)

    def join(left, right):
        by_inx = {}
        for state, coal in right.items():
            by_inx.setdefault(state[0], []).append((state, coal))
        out = {}
        for (in_x, lg, lt), lcoal in left.items():
            for (_, rg, rt), rcoal in by_inx.get(in_x, ()):
                # both gains are aligned with the members of in_x
                if edgeset:
                    merged = tuple(map(int.__or__, lg, rg))
                else:
                    merged = tuple(bounded(v, g + h) for v, g, h
                                   in zip(members(in_x), lg, rg))
                out.setdefault((in_x, merged, lt or rt), (lcoal, rcoal))
        return counted(out)

    def up(table, frm, to):
        for v in sorted(frm - to):
            table = forget(table, v)
        for v in sorted(to - frm):
            table = introduce(table, v)
        return table

    done = (0, (), True)
    parent, order = root_tree(td.tree, 0)
    tops = {}  # bag -> table of its subtree, until its parent takes it
    for t in reversed(order):
        bag = td.bags[t]
        table = None
        for s in sorted(td.tree[t] - {parent[t]}):
            lifted = up(tops.pop(s), td.bags[s], bag)
            table = lifted if table is None else join(table, lifted)
        if table is None:
            table = up(counted({(0, (), False): None}), frozenset(), bag)
        coal = table.get(done)
        if coal is not None:
            break
        tops[t] = table
    else:
        coal = up(tops.pop(0), td.bags[0], frozenset()).get(done)

    if coal is None:
        return VerificationResult(STABLE, stats={"states": total_states})
    witness = set()
    stack = [coal]
    while stack:
        head, rest = stack.pop()
        if isinstance(head, int):
            witness.add(head)
        elif head is not None:
            stack.append(head)
        if rest is not None:
            stack.append(rest)
    witness = frozenset(witness)
    if not is_blocking(inst, P, witness):
        raise RuntimeError("witness %r is not blocking" % sorted(witness))
    return VerificationResult(UNSTABLE, witness, {"states": total_states})


def min_vertex_cover(inst):
    """Exact minimum vertex cover: try budgets 0, 1, ..., MAX_COVER in turn,
    branching on the first uncovered edge, u before v."""
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

    for budget in range(MAX_COVER + 1):
        cover = search(frozenset(), budget)
        if cover is not None:
            return cover
    raise ResourceLimitError("vertex_cover", MAX_COVER)


def verify_vertexcover(inst, P, S=None):
    """Guess X's intersection with a vertex cover, then decide whether
    independent vertices can be added so every guessed member improves.

    Feasibility of each guess is a reachability DP over clamped utility
    vectors, one coordinate per guessed member.
    """
    if S is None:
        S = min_vertex_cover(inst)
    else:
        S = frozenset(S)
        if len(S) > MAX_COVER:
            raise ResourceLimitError("vertex_cover", MAX_COVER)
        for u, v, _ in inst.edges:
            if u not in S and v not in S:
                raise PreconditionError("S is not a vertex cover: misses (%d,%d)" % (u, v))
    ut_p = all_partition_utilities(inst, P)
    S_sorted = sorted(S)
    outside = [v for v in inst.vertices() if v not in S]
    guesses = 0

    for size in range(0, len(S_sorted) + 1):
        for T in combinations(S_sorted, size):
            guesses += 1
            if not T:
                for v in outside:
                    if ut_p[v] < 0:
                        return VerificationResult(UNSTABLE, frozenset({v}),
                                                  {"guesses": guesses})
                continue
            T_set = frozenset(T)
            needed = []
            for u in T:
                inside = sum(w for v, w in inst.neighbors(u).items() if v in T_set)
                needed.append(ut_p[u] + 1 - inside)
            candidates = [v for v in outside
                          if sum(w for t, w in inst.neighbors(v).items() if t in T_set)
                          > ut_p[v]]
            chosen = _cover_dp(inst, T, tuple(needed), candidates)
            if chosen is not None:
                witness = T_set | chosen
                return VerificationResult(UNSTABLE, witness, {"guesses": guesses})
    return VerificationResult(STABLE, stats={"guesses": guesses})


def _cover_dp(inst, T, needed, candidates):
    """Subset of candidates giving every T-member at least its needed gain,
    or None.

    Reachability over utility vectors, one coordinate per T-member.  Each
    coordinate is clamped at its target plus the worst-case decrease the
    remaining candidates could still cause: overshoot beyond that can never
    matter for a >= constraint, and clamping at the bare target would be
    wrong when a later candidate carries a negative edge.
    """
    deltas = [tuple(inst.weight(u, v) for u in T) for v in candidates]
    # cap[i] = per-coordinate clamp after candidate i has been processed
    caps = []
    cap = list(needed)
    caps.append(tuple(cap))
    for d in reversed(deltas):
        cap = [c - min(0, x) for c, x in zip(cap, d)]
        caps.append(tuple(cap))
    caps.reverse()  # caps[i] applies after processing candidates[:i]

    def clamp(vec, cap):
        return tuple(min(c, x) for c, x in zip(vec, cap))

    def done(vec):
        return all(c >= nd for c, nd in zip(vec, needed))

    states = {clamp((0,) * len(T), caps[0]): frozenset()}
    for i, delta in enumerate(deltas):
        new_states = {}
        for vec, chosen in states.items():
            for nv, nc in ((clamp(vec, caps[i + 1]), chosen),
                           (clamp(tuple(c + d for c, d in zip(vec, delta)),
                                  caps[i + 1]), chosen | {candidates[i]})):
                if nv not in new_states:
                    new_states[nv] = nc
        states = new_states
    for vec, chosen in sorted(states.items()):
        if done(vec):
            return chosen
    return None

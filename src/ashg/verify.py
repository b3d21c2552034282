"""Core stability verification: four interchangeable algorithms.

Each solver decides whether a partition admits a blocking coalition and, if
so, returns one.  Search is restricted to connected coalitions: a
disconnected blocking coalition always contains a blocking component.
"""

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

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
    """First blocking coalition of at most max_size agents in the order of
    size, then lexicographic order of the sorted members, if any.

    Singletons come first.  Then, as a blocking coalition holds only agents
    that strictly improve, any agent whose positive weights to the
    remaining agents sum to at most its partition utility is dropped,
    repeatedly.  For each size, each connected set of the rest is grown
    once, depth-first from its least member (the ESU scheme of Wernicke,
    "Efficient detection of network motifs", 2006), so the search holds
    one branch of sets at a time.  A set is a bitmask with bit n-1-u for
    agent u, so among sets of one size the lexicographically first is the
    largest mask, and the first least member that leads a blocking set
    leads the witness.

    stats["examined"] and cap count candidate coalitions in that order over
    every subset of the agents, examined or skipped: the witness's
    position, or all subsets of at most max_size agents for a Stable
    answer.  ResourceLimitError is raised when that count exceeds cap,
    as soon as the first subset led by the next agent to search lies past
    cap, since the count can only be larger.
    """
    n = inst.n
    ut_p = all_partition_utilities(inst, P)
    limit = n if max_size is None else min(max_size, n)

    def over_cap(examined):
        if cap is not None and examined > cap:
            raise ResourceLimitError("enumeration", cap)
        return examined

    if limit >= 1:
        # singletons come first, and one blocks when its utility is negative
        for u in range(n):
            if ut_p[u] < 0:
                return VerificationResult(UNSTABLE, frozenset({u}),
                                          {"examined": over_cap(u + 1)})

    adj = [inst.neighbors(u) for u in range(n)]
    gain = [sum(w for w in a.values() if w > 0) for a in adj]
    alive = [True] * n
    drop = [u for u in range(n) if gain[u] <= ut_p[u]]
    while drop:
        u = drop.pop()
        if alive[u]:
            alive[u] = False
            for v, w in adj[u].items():
                if w > 0 and alive[v]:
                    gain[v] -= w
                    if gain[v] <= ut_p[v]:
                        drop.append(v)
    survivors = [u for u in range(n) if alive[u]]

    if survivors and limit >= 2:
        bits = {u: 1 << (n - 1 - u) for u in survivors}
        weights = {u: [(bits[v], w) for v, w in adj[u].items() if alive[v]]
                   for u in survivors}
        nbrs = {u: sum(b for b, _ in weights[u]) for u in survivors}
        alive_mask = sum(bits.values())

        def blocks(X):
            rest = X
            while rest:
                low = rest & -rest
                rest ^= low
                u = n - low.bit_length()
                if sum(w for b, w in weights[u] if X & b) <= ut_p[u]:
                    return False
            return True

        start = 1 + n  # position of the first coalition of each size
        for size in range(2, limit + 1):
            first = start  # position of the first coalition led by u
            grown = False
            for u in range(n):
                if alive[u]:
                    over_cap(first)
                    # each connected set led by u grows once: a set X may
                    # take from ext, and a child taking w adds w's later
                    # neighbours still unseen, that is, not in or next to X
                    later = alive_mask & (bits[u] - 1)
                    best = 0
                    ext = nbrs[u] & later
                    stack = [(bits[u], ext, later & ~ext, size - 1)]
                    while stack:
                        X, ext, unseen, need = stack.pop()
                        if (ext | unseen).bit_count() < need:
                            continue
                        while ext:
                            low = ext & -ext
                            ext ^= low
                            Y = X | low
                            if need == 1:
                                grown = True
                                if Y > best and blocks(Y):
                                    best = Y
                            else:
                                new = nbrs[n - low.bit_length()] & unseen
                                stack.append((Y, ext | new, unseen ^ new,
                                              need - 1))
                    if best:
                        members = [v for v in survivors if best & bits[v]]
                        examined = over_cap(start + _lex_rank(members, n))
                        return VerificationResult(UNSTABLE, frozenset(members),
                                                  {"examined": examined})
                first += comb(n - 1 - u, size - 1)
            if not grown:
                break
            start = first
    examined = over_cap(sum(comb(n, s) for s in range(1, limit + 1)))
    return VerificationResult(STABLE, stats={"examined": examined})


def _lex_rank(members, n):
    """0-based rank of the sorted members among the subsets of range(n) of
    their size, in lexicographic order."""
    s = len(members)
    rank = 0
    prev = -1
    for i, c in enumerate(members):
        # subsets that agree before i and hold some j in (prev, c) at i
        rank += comb(n - 1 - prev, s - i) - comb(n - c, s - i)
        prev = c
    return rank


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
            return VerificationResult(UNSTABLE, frozenset(X))
    return VerificationResult(STABLE)


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

    A td passed in is validated for inst, and an invalid one raises
    PreconditionError; without td, heuristic_decompose's decomposition,
    valid by construction, is used as built.
    """
    if mode not in (VALUE, EDGESET):
        raise ValueError("unknown mode %r" % mode)
    if td is None:
        td = heuristic_decompose(inst)
    else:
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
    """Exact minimum vertex cover: try budgets from a maximal matching's
    size up to MAX_COVER in turn, branching on the first uncovered edge, u
    before v.

    A greedy maximal matching on the uncovered edges bounds the vertices
    still needed from below, so a branch whose matching exceeds its budget
    is cut; it would find no cover within the budget either, so the cover
    returned is the first one in the same depth-first order.
    """
    edges = [(u, v) for u, v, _ in inst.edges]

    def scan(cover, budget):
        """First uncovered edge, or None, and the size of a greedy maximal
        matching on the uncovered edges, counted up to budget + 1."""
        first = None
        matched = set()
        size = 0
        for u, v in edges:
            if u not in cover and v not in cover:
                if first is None:
                    first = (u, v)
                if u not in matched and v not in matched:
                    matched.update((u, v))
                    size += 1
                    if size > budget:
                        break
        return first, size

    def search(cover, budget):
        first, size = scan(cover, budget)
        if first is None:
            return cover
        if size > budget:
            return None
        u, v = first
        found = search(cover | {u}, budget - 1)
        if found is None:
            found = search(cover | {v}, budget - 1)
        return found

    for budget in range(scan(frozenset(), MAX_COVER)[1], MAX_COVER + 1):
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

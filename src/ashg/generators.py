"""Instance generators: a minimally unstable gadget, gadget attachment, and
reductions producing verification / existence instances with known structure.

Every generator returns a GenResult carrying the instance, the partition to
verify (when the target problem is verification), named vertex maps for
inspection, and for the formula-based generator a path decomposition.
"""

import warnings
from dataclasses import dataclass, field
from itertools import combinations

from ashg.errors import PreconditionError
from ashg.instance import AshgInstance, Partition
from ashg.treedecomp import TreeDecomposition


@dataclass
class GenResult:
    """A generated instance plus whatever certificates the construction
    yields: the partition to verify, a decomposition, named vertex maps in
    info, and (when the source problem is small enough to brute-force) the
    expected verdict: stability for verification instances, existence for
    the rest."""

    instance: AshgInstance
    partition: Partition = None
    td: TreeDecomposition = None
    expected: bool = None
    info: dict = field(default_factory=dict)


class GraphBuilder:
    """Accumulates named vertices and weighted edges."""

    def __init__(self):
        self.names = []
        self.index = {}
        self._adj = {}

    def vertex(self, name):
        if name in self.index:
            raise ValueError("duplicate vertex name %r" % (name,))
        vid = len(self.names)
        self.names.append(name)
        self.index[name] = vid
        self._adj[vid] = {}
        return vid

    def edge(self, a, b, w):
        if b in self._adj[a]:
            raise ValueError("duplicate edge %r-%r" % (self.names[a], self.names[b]))
        self._adj[a][b] = w
        self._adj[b][a] = w

    def has_edge(self, a, b):
        return b in self._adj[a]

    def neighbors(self, a):
        return self._adj[a]

    def instance(self, name=None):
        edges = [(a, b, w) for a in self._adj for b, w in self._adj[a].items()
                 if a < b]
        return AshgInstance(len(self.names), edges, name=name)


# the six-vertex complete graph without a core stable partition whenever
# rho < -15; vertex order: h, h1..h5
_GADGET_WEIGHTS = {
    (0, 1): 5, (2, 3): 5, (4, 5): 5,
    (1, 2): 4, (3, 4): 4, (0, 5): 4,
    (1, 3): 3, (3, 5): 3, (1, 5): 3,
}


def add_gadget(builder, rho, prefix):
    """Add one copy of the unstable six-vertex gadget; returns its ids
    [h, h1..h5]."""
    ids = [builder.vertex((prefix, k)) for k in ("h", "h1", "h2", "h3", "h4", "h5")]
    for i in range(6):
        for j in range(i + 1, 6):
            builder.edge(ids[i], ids[j], _GADGET_WEIGHTS.get((i, j), rho))
    return ids


def gadget_partition_blocks(ids):
    """The stable partition of the gadget once h is bound elsewhere."""
    return [{ids[1], ids[2], ids[3]}, {ids[4], ids[5]}]


def gen_gadget(rho=-16):
    """The bare gadget: no core stable partition when rho < -15.  The
    returned partition is the stable one of the gadget minus h, extended
    with h as a singleton (not stable; included for convenience)."""
    if rho >= -15:
        warnings.warn("gadget loses its non-stability guarantee for rho >= -15")
    b = GraphBuilder()
    ids = add_gadget(b, rho, "g")
    inst = b.instance(name="gadget")
    blocks = gadget_partition_blocks(ids) + [{ids[0]}]
    return GenResult(inst, Partition(blocks, inst.n),
                     info={"ids": ids, "rho": rho})


def attach_gadget(builder, S, rho, xi, neighborhood=False, prefix="a"):
    """Attach a gadget copy at the independent set S: h-s edges of weight
    xi, h_i-s and s-s' edges of weight rho; with neighborhood also h-v of
    weight rho for every current neighbor v of S outside S."""
    if xi < 9:
        raise PreconditionError("attachment weight must be at least 9")
    S = sorted(S)
    for i, a in enumerate(S):
        for c in S[i + 1:]:
            if builder.has_edge(a, c):
                raise PreconditionError("attachment set is not independent")
    outside = set()
    if neighborhood:
        for a in S:
            outside.update(v for v in builder.neighbors(a) if v not in S)
        outside -= set(S)
    ids = add_gadget(builder, rho, prefix)
    for a in S:
        builder.edge(ids[0], a, xi)
        for i in range(1, 6):
            builder.edge(ids[i], a, rho)
    for i, a in enumerate(S):
        for c in S[i + 1:]:
            builder.edge(a, c, rho)
    for v in sorted(outside):
        builder.edge(ids[0], v, rho)
    return ids


# brute-force answers to the source problems, attached to the output when
# the input is small enough; None means "not computed", never a guess

def _has_half_split(values):
    s = sum(values)
    if s % 2:
        return False
    sums = {0}
    for a in values:
        sums |= {c + a for c in sums}
    return s // 2 in sums


def _binpacking_answer(values, k, limit=14):
    if len(values) > limit:
        return None
    s = sum(values)
    if s % k:
        return False
    target = s // k
    vals = sorted(values, reverse=True)
    bins = [0] * k

    def rec(i):
        if i == len(vals):
            return True
        tried = set()
        for j in range(k):
            if bins[j] + vals[i] <= target and bins[j] not in tried:
                tried.add(bins[j])
                bins[j] += vals[i]
                if rec(i + 1):
                    return True
                bins[j] -= vals[i]
        return False

    return rec(0)


def _bdd_answer(n, edges, delta_star, size, limit=16):
    if n > limit:
        return None
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for mask in range(1 << n):
        chosen = [u for u in range(n) if mask >> u & 1]
        if len(chosen) < size:
            continue
        if all(bin(adj[u] & mask).count("1") <= delta_star for u in chosen):
            return True
    return False


def _clique_answer(n, edges, k, limit=20):
    if n > limit:
        return None
    eset = {(min(e), max(e)) for e in edges}
    return any(all((a, c) in eset for a, c in combinations(sub, 2))
               for sub in combinations(range(n), k))


def _eapartition_answer(A, B, limit=12):
    if len(A) > limit:
        return None
    s = sum(A) + sum(B)
    for mask in range(1 << len(A)):
        base = sum(a for i, a in enumerate(A) if mask >> i & 1)
        sums = {0}
        for bval in B:
            sums |= {c + bval for c in sums}
        if all(2 * (base + c) != s for c in sums):
            return True
    return False


def _coloring_answer(n, edges, limit=12):
    if n > limit:
        return None
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [0] * n

    def rec(u):
        if u == n:
            return dict(enumerate(color))
        for c in (1, 2, 3):
            if all(color[v] != c for v in adj[u] if v < u):
                color[u] = c
                got = rec(u + 1)
                if got:
                    return got
        return None

    return rec(0)


def _sat_answer(num_vars, clauses, limit=20):
    if num_vars > limit:
        return None
    for mask in range(1 << num_vars):
        if all(any((l > 0) == bool(mask >> (abs(l) - 1) & 1) for l in c)
               for c in clauses):
            return {v: bool(mask >> (v - 1) & 1) for v in range(1, num_vars + 1)}
    return None


def gen_partition_csv(values):
    """Verification instance from a set of positive integers: the given
    partition admits a blocking coalition iff some subset sums to half the
    total.  Values are scaled by 2n so every achievable subset sum is a
    multiple of 2n and half the total a multiple of n; the combined
    tie-breaker slack of a coalition is then too small to bridge a miss."""
    if not values or any(a <= 0 for a in values):
        raise PreconditionError("values must be positive")
    n = len(values)
    scaled = [a * 2 * n for a in values]
    s = sum(scaled)
    eps = 1
    b = GraphBuilder()
    x = b.vertex("x")
    y = b.vertex("y")
    xp = b.vertex("x'")
    yp = b.vertex("y'")
    vs = [b.vertex(("v", i)) for i in range(n)]
    for i, a in enumerate(scaled):
        b.edge(vs[i], x, a + eps)
        b.edge(vs[i], y, -a)
    b.edge(x, xp, 3 * s // 2)
    b.edge(y, yp, s // 2)
    b.edge(x, y, s + eps)
    inst = b.instance(name="partition-csv")
    blocks = [{x, xp}, {y, yp}] + [{v} for v in vs]
    return GenResult(inst, Partition(blocks, inst.n),
                     expected=not _has_half_split(values),
                     info={"values": list(values), "scaled": scaled, "s": s,
                           "x": x, "y": y, "v": vs})


def gen_binpacking_csv(values, k):
    """Verification instance from a bin packing input: blocking coalition
    iff the values split into k bins of equal sum.

    The construction works with quarter-integral weights; everything is
    multiplied by 4n (and values by k first when k does not divide their
    sum) to make all weights integers.
    """
    if not values or any(a <= 0 for a in values) or k < 2:
        raise PreconditionError("need positive values and k >= 2")
    n = len(values)
    vals = list(values)
    if sum(vals) % k != 0:
        vals = [a * k for a in vals]
    s = sum(vals)
    M = 4 * n  # global multiplier: delta = M/4 = n, eps = M/(2n) = 2
    delta = n
    eps = 2
    b = GraphBuilder()
    x = b.vertex("x")
    ys = [b.vertex(("y", i)) for i in range(k)]
    zs = [b.vertex(("z", i)) for i in range(k)]
    # for k = 2 the cycles degenerate to one edge carrying both weights
    cyc = 1 if k > 2 else 2
    for i in range(k if k > 2 else 1):
        b.edge(ys[i], ys[(i + 1) % k], cyc * M * (2 * s - s // k))
        b.edge(zs[i], zs[(i + 1) % k], cyc * -M * s)
    for i in range(k):
        b.edge(x, ys[i], M * (2 * s + 2 * s // k))
        b.edge(ys[i], zs[i], M * (2 * s + s // k) + delta)
    rho = -(M * max(vals) + eps + 1)
    cells = []
    for i, a in enumerate(vals):
        row = [b.vertex(("v", i, j)) for j in range(k)]
        cells.append(row)
        for j in range(k):
            for jp in range(j + 1, k):
                b.edge(row[j], row[jp], rho)
            b.edge(row[j], ys[j], M * a + eps)
            b.edge(row[j], zs[j], -M * a)
    inst = b.instance(name="binpacking-csv")
    blocks = [{x} | set(ys)] + [{z} for z in zs] + [{v} for row in cells for v in row]
    packable = _binpacking_answer(vals, k)
    return GenResult(inst, Partition(blocks, inst.n),
                     expected=None if packable is None else not packable,
                     info={"values": list(values), "normalized": vals, "k": k,
                           "x": x, "y": ys, "z": zs, "cells": cells})


def gen_bdd_csv(n, edges, delta_star, size):
    """Verification instance from a degree-bounded-subgraph input, using
    only weights -1 and 1: blocking coalition iff the graph has an induced
    subgraph on at least `size` vertices with maximum degree at most
    delta_star."""
    if size < 1 or delta_star < 0:
        raise PreconditionError("need size >= 1 and delta_star >= 0")
    b = GraphBuilder()
    base = [b.vertex(("g", u)) for u in range(n)]
    for u, v in edges:
        b.edge(base[u], base[v], -1)
    x = b.vertex("x")
    xp = b.vertex("x'")
    commons = [b.vertex(("c", i)) for i in range(size * (delta_star + 1) - 1)]
    for c in commons:
        b.edge(c, x, 1)
        b.edge(c, xp, 1)
    sats = {}
    for u in range(n):
        row = []
        for i in range(delta_star + 1):
            ui = b.vertex(("u", u, i))
            uip = b.vertex(("u'", u, i))
            b.edge(ui, x, 1)
            b.edge(ui, base[u], 1)
            b.edge(ui, uip, 1)
            row.append((ui, uip))
        sats[u] = row
    inst = b.instance(name="bdd-csv")
    blocks = [{x, xp} | set(commons)]
    for u in range(n):
        for ui, uip in sats[u]:
            blocks.append({ui, uip})
    blocks.extend({v} for v in base)
    found = _bdd_answer(n, edges, delta_star, size)
    return GenResult(inst, Partition(blocks, inst.n),
                     expected=None if found is None else not found,
                     info={"base": base, "x": x, "sats": sats,
                           "delta_star": delta_star, "size": size})


def gen_clique_kcsv(n, edges, k):
    """Unweighted verification instance: a blocking coalition of size at
    most k exists iff the graph has a k-clique."""
    if k < 3:
        raise PreconditionError("k must be at least 3")
    b = GraphBuilder()
    base = [b.vertex(("g", u)) for u in range(n)]
    for u, v in edges:
        b.edge(base[u], base[v], 1)
    pend = {u: [b.vertex(("p", u, i)) for i in range(k - 2)] for u in range(n)}
    for u in range(n):
        for p in pend[u]:
            b.edge(base[u], p, 1)
    inst = b.instance(name="clique-kcsv")
    blocks = [{base[u]} | set(pend[u]) for u in range(n)]
    found = _clique_answer(n, edges, k)
    return GenResult(inst, Partition(blocks, inst.n),
                     expected=None if found is None else not found,
                     info={"base": base, "pend": pend, "k": k})


def gen_eapartition_cs(A, B):
    """Existence instance from two lists of positive integers: a core
    stable partition exists iff some A' avoids, for every B', a combined
    sum of half the total.  Elements are scaled by 4n so the slack values
    stay integral."""
    if not A or len(A) != len(B) or any(c <= 0 for c in list(A) + list(B)):
        raise PreconditionError("need equally many positive integers on each side")
    n = len(A)
    # scale by 8n: achievable subset sums then sit on a grid of step 8n
    # while the slack window around s/2 has radius delta + n*eps = 3n, so
    # a blocking coalition pins the sum to exactly s/2 even when the
    # original total is odd and s/2 lies between grid points
    M = 8 * n
    a = [c * M for c in A]
    bb = [c * M for c in B]
    s = sum(a) + sum(bb)
    s_a = sum(a)
    delta = 2 * n
    eps = 1
    rho = -30 * s
    b = GraphBuilder()
    x = b.vertex("x")
    xh = b.vertex("x^")
    b.edge(x, xh, 19 * s // 2)
    us = [b.vertex(("u", i)) for i in range(n)]
    vs = [b.vertex(("v", i)) for i in range(n)]
    for i in range(n):
        b.edge(us[i], x, a[i])
        b.edge(us[i], xh, a[i])
        b.edge(vs[i], x, -bb[i])
        b.edge(vs[i], xh, bb[i] + eps)
    h_ids = attach_gadget(b, [x], rho, 9 * s + s_a - delta, prefix="H")
    hh_ids = attach_gadget(b, [xh], rho, 10 * s - delta, prefix="H^")
    b.edge(h_ids[0], hh_ids[0], rho)
    for i in range(n):
        b.edge(vs[i], h_ids[0], rho)
        b.edge(vs[i], hh_ids[0], rho)
    inst = b.instance(name="eapartition-cs")
    return GenResult(inst, expected=_eapartition_answer(A, B),
                     info={"A": list(A), "B": list(B), "x": x, "xh": xh,
                           "u": us, "v": vs, "h": h_ids, "hh": hh_ids,
                           "s": s, "eps": eps, "delta": delta})


def ea_witness_partition(gen, chosen):
    """The stable partition induced by a witness subset of A (given as a
    set of indices): x binds to h with the chosen u's, the rest to the
    second gadget head."""
    info = gen.info
    blocks = [{info["h"][0], info["x"]} | {info["u"][i] for i in chosen},
              {info["hh"][0], info["xh"]} | {info["u"][i]
                                             for i in range(len(info["u"]))
                                             if i not in chosen}]
    blocks.extend({v} for v in info["v"])
    blocks.extend(gadget_partition_blocks(info["h"]))
    blocks.extend(gadget_partition_blocks(info["hh"]))
    return Partition(blocks, gen.instance.n)


def _vertex_gadget(b, x, rho):
    """Nine vertices per graph vertex; a color choice is which of the three
    outer pairs collapses onto the inner triangle."""
    u = [b.vertex(("u", x, i)) for i in range(1, 10)]

    def e(i, j, w):
        b.edge(u[i - 1], u[j - 1], w)

    e(1, 2, -5), e(2, 3, -5), e(3, 1, -5)
    for i in (1, 2, 3):
        e(i, i + 3, 14)
        for j in (1, 2, 3):
            if j != i:
                e(i + 3, j, 20)
    for i in (4, 5, 6):
        e(i, i + 3, 50)
    for i in range(1, 10):
        for j in range(i + 1, 10):
            if not b.has_edge(u[i - 1], u[j - 1]):
                e(i, j, rho)
    return u


def gen_3col_kcs(n, edges, k=3):
    """Existence instance (for blocking coalitions of size at most k >= 3)
    from a graph of maximum degree 3: a k-core stable partition exists iff
    the graph is 3-colorable.  The output has maximum degree 14."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    if any(d > 3 for d in deg):
        raise PreconditionError("input graph must have maximum degree 3")
    if k < 3:
        raise PreconditionError("k must be at least 3")
    rho = -104
    b = GraphBuilder()
    vg = {x: _vertex_gadget(b, x, rho) for x in range(n)}
    eg = {}
    for e_idx, (x, y) in enumerate(sorted(edges)):
        v = [b.vertex(("v", e_idx, i)) for i in range(1, 4)]
        b.edge(v[0], v[1], rho)
        b.edge(v[0], v[2], rho)
        b.edge(v[1], v[2], rho)
        gads = []
        for i in range(3):
            b.edge(v[i], vg[x][i], 5)
            b.edge(v[i], vg[y][i], 5)
        for i in range(3):
            gads.append(attach_gadget(b, [v[i]], rho, 9, neighborhood=True,
                                      prefix=("He", e_idx, i)))
        eg[e_idx] = {"v": v, "gadgets": gads, "edge": (x, y)}
    inst = b.instance(name="3col-kcs")
    coloring = _coloring_answer(n, edges)
    return GenResult(inst, expected=coloring is not None if n <= 12 else None,
                     info={"vertex_gadgets": vg, "edge_gadgets": eg,
                           "rho": rho, "k": k, "coloring": coloring})


def coloring_partition_3col(gen, coloring):
    """The stable partition that a proper 3-coloring induces (colors in
    {1,2,3})."""
    vg = gen.info["vertex_gadgets"]
    blocks = []
    for x, u in vg.items():
        c = coloring[x]
        blocks.append({u[5 + c]})
        blocks.append({u[2 + c], u[0], u[1], u[2]})
        for i in (1, 2, 3):
            if i != c:
                blocks.append({u[2 + i], u[5 + i]})
    for e_idx, data in gen.info["edge_gadgets"].items():
        for i in range(3):
            ids = data["gadgets"][i]
            blocks.append({ids[0], data["v"][i]})
            blocks.extend(gadget_partition_blocks(ids))
    return Partition(blocks, gen.instance.n)


def _pad_33sat(clauses, next_var):
    """Pad the clause list to a power of two with always-satisfiable
    clauses over fresh variables (each appearing twice, once per sign)."""
    clauses = [tuple(c) for c in clauses]

    def deficit():
        count = len(clauses)
        target = 1
        while target < count:
            target *= 2
        return target - count

    d = deficit()
    while d:
        if d == 1 or d % 2 == 1:
            x, y, z = next_var, next_var + 1, next_var + 2
            next_var += 3
            clauses.extend([(x, y), (-x, z), (-y, -z)])
        else:
            x, y = next_var, next_var + 1
            next_var += 2
            clauses.extend([(x, y), (-x, -y)])
        d = deficit()
    return clauses, next_var


def gen_33sat_cs(num_vars, clauses):
    """Existence instance from a CNF where every variable occurs at most
    three times and both signs of every variable occur: core stable
    partition exists iff the formula is satisfiable.

    Also returns a path decomposition of width at most 271 + 195*m where
    the padded clause count is 2**m.
    """
    clauses = [tuple(c) for c in clauses]
    occur = {}
    for c in clauses:
        seen_vars = set()
        for l in c:
            v = abs(l)
            if v < 1 or v > num_vars:
                raise PreconditionError("literal out of range")
            if -l in c:
                raise PreconditionError("clause contains both signs of a variable")
            if v in seen_vars:
                raise PreconditionError("variable repeated inside a clause")
            seen_vars.add(v)
            occur.setdefault(v, []).append(1 if l > 0 else -1)
    for v in range(1, num_vars + 1):
        signs = occur.get(v, [])
        if len(signs) > 3:
            raise PreconditionError("variable %d occurs more than 3 times" % v)
        if 1 not in signs or -1 not in signs:
            raise PreconditionError("variable %d must occur in both signs" % v)

    padded, next_free = _pad_33sat(clauses, num_vars + 1)
    total_vars = next_free - 1
    count = len(padded)
    m = count.bit_length() - 1  # count == 2**m
    rho = -20 - 2 * m

    # appearances[i] = list of (clause index 1-based, sign) for variable i
    appearances = {v: [] for v in range(1, total_vars + 1)}
    for idx, c in enumerate(padded, start=1):
        for l in c:
            appearances[abs(l)].append((idx, 1 if l > 0 else -1))

    b = GraphBuilder()

    y = {}
    z = {}
    for i in range(1, total_vars + 1):
        y[i] = (b.vertex(("y", i)), b.vertex(("ny", i)))
        z[i] = [b.vertex(("z", i, j)) for j in range(len(appearances[i]))]
        for j, (_, sign) in enumerate(appearances[i]):
            b.edge(y[i][0] if sign > 0 else y[i][1], z[i][j], 1)
    zs_flat = [zz for i in range(1, total_vars + 1) for zz in z[i]]
    for a, c in zip(zs_flat, zs_flat[1:]):
        b.edge(a, c, 5)

    s = {}
    sb = {}
    t = {}
    u = {}
    v = {}
    for i in range(1, total_vars + 1):
        for j in range(len(appearances[i])):
            s[(i, j)] = [b.vertex(("s", i, j, kk)) for kk in range(m + 2)]
            sb[(i, j)] = [b.vertex(("sb", i, j, kk)) for kk in range(m + 1)]
            t[(i, j)] = [b.vertex(("t", i, j, kk)) for kk in range(m + 1)]
            u[(i, j)] = [b.vertex(("u", i, j, kk)) for kk in range(m + 1)]
            v[(i, j)] = [b.vertex(("v", i, j, kk)) for kk in range(m + 1)]
            for kk in range(m + 1):
                b.edge(s[(i, j)][kk], sb[(i, j)][kk], 10)
                b.edge(sb[(i, j)][kk], s[(i, j)][kk + 1], 9)
                b.edge(s[(i, j)][kk], t[(i, j)][kk], -1)
            b.edge(s[(i, j)][m + 1], z[i][j], 1)
            ell = appearances[i][j][0]
            for kk in range(m + 1):
                bit = ell >> kk & 1
                if bit == 0:
                    b.edge(t[(i, j)][kk], u[(i, j)][kk], 2)
                else:
                    b.edge(t[(i, j)][kk], v[(i, j)][kk], 2)

    # u- and v-paths per bit position
    pairs = [(i, j) for i in range(1, total_vars + 1)
             for j in range(len(appearances[i]))]
    for kk in range(m + 1):
        for a, c in zip(pairs, pairs[1:]):
            b.edge(u[a][kk], u[c][kk], 5)
            b.edge(v[a][kk], v[c][kk], 5)

    p = [b.vertex(("p", kk)) for kk in range(m + 1)]
    q = [b.vertex(("q", kk)) for kk in range(m + 1)]
    r = [b.vertex(("r", kk)) for kk in range(m + 1)]
    for kk in range(m + 1):
        b.edge(p[kk], q[kk], 1)
        b.edge(p[kk], r[kk], 1)
        b.edge(q[kk], r[kk], rho)
    b.edge(zs_flat[-1], p[0], 5)
    b.edge(p[m], zs_flat[0], 5)
    for kk in range(m):
        b.edge(p[kk], p[kk + 1], 5)
    for kk in range(m + 1):
        b.edge(u[pairs[-1]][kk], q[kk], 5)
        b.edge(q[kk], u[pairs[0]][kk], 5)
        b.edge(v[pairs[-1]][kk], r[kk], 5)
        b.edge(r[kk], v[pairs[0]][kk], 5)

    # gadget attachments
    for i in range(1, total_vars + 1):
        attach_gadget(b, list(y[i]), rho, 9, neighborhood=True,
                      prefix=("Hv", i))
    for key in pairs:
        i, j = key
        ell = appearances[i][j][0]
        for kk in range(m + 2):
            attach_gadget(b, [s[key][kk]], rho, 9, neighborhood=True,
                          prefix=("Hs", i, j, kk))
        for kk in range(m + 1):
            attach_gadget(b, [sb[key][kk]], rho, 10, neighborhood=True,
                          prefix=("Hsb", i, j, kk))
            bit = ell >> kk & 1
            attach_gadget(b, [u[key][kk]], rho, 10 if bit == 0 else 9,
                          neighborhood=True, prefix=("Hu", i, j, kk))
            attach_gadget(b, [v[key][kk]], rho, 9 if bit == 0 else 10,
                          neighborhood=True, prefix=("Hw", i, j, kk))
        attach_gadget(b, [z[i][j]], rho, 10, neighborhood=True,
                      prefix=("Hz", i, j))
    for kk in range(m + 1):
        for name, vert in (("p", p[kk]), ("q", q[kk]), ("r", r[kk])):
            attach_gadget(b, [vert], rho, 10, neighborhood=True,
                          prefix=("Hp", name, kk))

    inst = b.instance(name="33sat-cs")

    # path decomposition: block 0 holds p, q, r and their gadgets, block i
    # the vertices of variable i and their gadgets, whose names carry i in
    # their second field.  The z chain and the u/v chains run over the
    # pairs in variable order, so an edge leaving block i meets block 0
    # or block i +- 1, and bag i adds to blocks 0 and i the vertices of
    # block i + 1 with a neighbour in block i
    def block(name):
        if isinstance(name[0], tuple):  # gadget vertex (prefix, k)
            name = name[0]
        return 0 if name[0] in ("p", "q", "r", "Hp") else name[1]

    owner = [block(name) for name in b.names]
    blocks = [set() for _ in range(total_vars + 1)]
    for vid, i in enumerate(owner):
        blocks[i].add(vid)
    bags = [blocks[0] | blocks[i] | {w for a in blocks[i]
                                     for w in b.neighbors(a)
                                     if owner[w] == i + 1}
            for i in range(1, total_vars + 1)]
    td = TreeDecomposition(bags, [(i, i + 1) for i in range(len(bags) - 1)])
    assignment = _sat_answer(num_vars, clauses)
    return GenResult(inst, td=td,
                     expected=assignment is not None if num_vars <= 20 else None,
                     info={"m": m, "padded_clauses": padded,
                           "total_vars": total_vars, "rho": rho,
                           "y": y, "z": z, "p": p, "q": q, "r": r,
                           "assignment": assignment,
                           "width_bound": 271 + 195 * m})

"""Deciding whether a core stable partition exists.

The graph is completed so every bag of a tree decomposition is a clique
(the added edges get weight 0, which changes neither utilities nor
stability).  A quantified formula then asks for an edge set encoding a
partition (transitivity inside every bag) such that no non-empty vertex
set is blocking.  ashg.qbf.decide_ea decides the formula by a DP over
its primal graph, checking the transitivity clauses alongside the
universal matrix.  Each phi_u term spans only u's closed neighbourhood
and goes to the DP whole; the one term that spans the whole game, the
all-out term, is split as a tree along the decomposition.
"""

from dataclasses import dataclass, field
from itertools import combinations

from ashg.errors import PreconditionError, ResourceLimitError
from ashg.instance import AshgInstance, Partition, iter_partitions
from ashg.qbf import QbfEA, decide_ea
from ashg.treedecomp import heuristic_decompose, root_tree, validate_td
from ashg.verify import _treewidth_dp, verify_bruteforce

EXISTS = "Exists"
NOT_EXISTS = "NotExists"


@dataclass
class CsResult:
    verdict: str
    partition: Partition = None
    stats: dict = field(default_factory=dict)

    @property
    def exists(self):
        return self.verdict == EXISTS


def solve_cs_bruteforce(inst, k=None, cap=10):
    """First core stable partition in restricted-growth order, if any;
    with k, first k-core stable one (no blocking coalition of size at
    most k)."""
    if k is not None and k < 1:
        raise PreconditionError("k must be at least 1")
    if inst.n > cap:
        raise ResourceLimitError("partition_enumeration_n", cap)
    for P in iter_partitions(inst.n):
        if verify_bruteforce(inst, P, max_size=k, cap=None).stable:
            return CsResult(EXISTS, P)
    return CsResult(NOT_EXISTS)


@dataclass
class CsEncoding:
    formula: QbfEA
    edge_var: dict  # (u,v) with u<v -> existential variable id
    vertex_var: dict  # u -> universal variable id
    gprime_adj: dict  # u -> set of neighbors after bag completion


def _complete_bags(inst, td):
    adj = {u: set(inst.neighbors(u)) for u in inst.vertices()}
    for b in td.bags:
        vs = sorted(b)
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                adj[vs[i]].add(vs[j])
                adj[vs[j]].add(vs[i])
    return adj


def _phi_terms(inst, u, vertex_var, xvar, neighbours):
    """The disjoint terms of phi_u, one at a time: u is in X and
    sum w(u,v) (y_v - x_uv) <= 0.

    The terms are the accepting paths of a threshold decision diagram over
    the neighbours with non-zero weight, heaviest first.  It branches on
    every y_v (v in X adds w), then on each x_uv (v in u's part subtracts
    w), where a path stops once the weights left cannot change the
    verdict.  Deciding the universal y first makes each term's universal
    part a whole assignment to y_u and the y of u's non-zero neighbours;
    only the x tails stop early.
    """
    nb = sorted((v for v in neighbours if inst.weight(u, v)),
                key=lambda v: (-abs(inst.weight(u, v)), v))
    ws = [inst.weight(u, v) for v in nb]
    # how far the x_uv of the neighbours i.. can still lower / raise the sum
    down = [sum(w for w in ws[i:] if w > 0) for i in range(len(nb) + 1)]
    up = [sum(-w for w in ws[i:] if w < 0) for i in range(len(nb) + 1)]

    def ys(i, s, path):
        if i == len(nb):
            yield from xs(0, s, path)
            return
        yv = vertex_var[nb[i]]
        yield from ys(i + 1, s + ws[i], path + (yv,))
        yield from ys(i + 1, s, path + (-yv,))

    def xs(i, s, path):
        if s + up[i] <= 0:
            yield path
        elif s - down[i] <= 0:
            xv = xvar(u, nb[i])
            yield from xs(i + 1, s - ws[i], path + (xv,))
            yield from xs(i + 1, s, path + (-xv,))

    return ys(0, 0, (vertex_var[u],))


def _all_out_terms(td, vertex_var, first):
    """The all-out term, the AND of every -y_v, split as a tree along td
    rooted at its last bag, with link variables numbered from first.

    Each non-root bag t has a link z_t.  Bag t's term is -z_t (none at
    the root), the -y_v of the vertices whose top bag is t, and z_c for
    each child c.  A term longer than 4 literals is cut into a chain
    joined by further links.  Every link occurs positively in one term,
    and forall z. (A and z) or (-z and B) or O equals (A and B) or O, so
    the terms collapse back to the AND of every -y_v.  Returns (terms,
    link variables).
    """
    parent, order = root_tree(td.tree, len(td.bags) - 1)
    up = {t: first + i for i, t in enumerate(order[1:])}
    nxt = first + len(up)
    terms = []
    for t in order:
        above = td.bags[parent[t]] if t in up else frozenset()
        lits = [-vertex_var[v] for v in sorted(td.bags[t] - above)]
        lits += [up[c] for c in sorted(td.tree[t]) if c != parent[t]]
        head = (-up[t],) if t in up else ()
        while len(head) + len(lits) > 4:
            k = 3 - len(head)
            terms.append(head + tuple(lits[:k]) + (nxt,))
            head, lits = (-nxt,), lits[k:]
            nxt += 1
        terms.append(head + tuple(lits))
    return terms, tuple(range(first, nxt))


def encode_cs(inst, td=None, max_terms=2_000_000):
    """Build the exists-forall formula whose models are the core stable
    partitions of the game.

    Existential variables pick an edge set over the bag-completed graph;
    per-bag transitivity clauses make it a union of cliques, hence a
    partition.  Universal variables pick a candidate coalition X; per
    vertex u, the terms of phi_u (see _phi_terms) are the accepting
    paths of a threshold decision diagram over u's neighbours with
    non-zero weight, and together say that u lies in X and does not
    strictly improve on its own part.  Each term starts with y_u.  The
    all-out terms (see _all_out_terms) say that X is empty; their link
    variables are universal and follow the y in y_vars.  max_terms caps
    the number of phi_u terms emitted over all vertices.
    """
    if td is None:
        td = heuristic_decompose(inst)
    report = validate_td(inst, td)
    if report is not None:
        raise PreconditionError("invalid tree decomposition: %s" % report)
    adj = _complete_bags(inst, td)

    edge_var = {}
    nxt = 1
    for u in inst.vertices():
        for v in sorted(adj[u]):
            if u < v:
                edge_var[(u, v)] = nxt
                nxt += 1
    vertex_var = {u: nxt + u for u in inst.vertices()}
    nxt += inst.n

    def xvar(u, v):
        return edge_var[(u, v) if u < v else (v, u)]

    # transitivity inside every bag, deduplicated across bags
    cnf = []
    seen = set()
    for b in td.bags:
        for trip in combinations(sorted(b), 3):
            if trip in seen:
                continue
            seen.add(trip)
            for mid in range(3):
                a, c = [trip[i] for i in range(3) if i != mid]
                m = trip[mid]
                cnf.append((-xvar(a, m), -xvar(m, c), xvar(a, c)))

    budget = max_terms
    dnf = []
    for u in inst.vertices():
        for term in _phi_terms(inst, u, vertex_var, xvar, adj[u]):
            budget -= 1
            if budget < 0:
                raise ResourceLimitError("phi_u_terms", max_terms)
            dnf.append(term)
    # the all-out coalition is empty, hence never blocking
    out, links = _all_out_terms(td, vertex_var, nxt)
    dnf += out

    phi = QbfEA(tuple(range(1, len(edge_var) + 1)),
                tuple(vertex_var[u] for u in inst.vertices()) + links,
                tuple(dnf), tuple(cnf))
    return CsEncoding(phi, edge_var, vertex_var, adj)


def decode_partition(enc, inst, model):
    """Partition from a model's edge variables: connected components of
    the chosen edge set."""
    edges = [(u, v, 0) for (u, v), var in enc.edge_var.items()
             if model.get(var, False)]
    chosen = AshgInstance(inst.n, edges)
    return Partition(chosen.components_of(inst.vertices()), inst.n)


def solve_cs(inst, td=None, max_terms=2_000_000, max_states=20_000_000,
             collect=None):
    """Decide core stable partition existence through the formula pipeline.

    A zero-weight edge changes neither utilities nor stability, so it is
    dropped first, and td need cover only the non-zero edges.  encode_cs
    builds the formula over the bag-completed graph of td, or, without td,
    of a decomposition of the graph of the non-zero edges, and decide_ea
    decides it.  An Exists answer is certified by verify_treewidth's DP on
    the same decomposition, which encode_cs has validated, and a partition
    that fails raises RuntimeError.
    stats holds the DP's sizes: t_exists, t_forall and states.  collect,
    when a dict, receives the encoding.
    """
    if inst.n == 0:
        return CsResult(EXISTS, Partition([], 0))
    inst = AshgInstance(inst.n, [e for e in inst.edges if e[2]])
    if td is None:
        td = heuristic_decompose(inst)
    enc = encode_cs(inst, td, max_terms=max_terms)
    if collect is not None:
        collect["encoding"] = enc
    stats = {}
    sat, model = decide_ea(enc.formula, max_states, stats)
    if not sat:
        return CsResult(NOT_EXISTS, stats=stats)
    P = decode_partition(enc, inst, model)
    if not _treewidth_dp(inst, P, td).stable:
        raise RuntimeError("partition %r is not core stable"
                           % [sorted(b) for b in P.blocks])
    return CsResult(EXISTS, P, stats=stats)

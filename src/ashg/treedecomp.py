"""Tree decompositions: validation, the min-degree heuristic, PACE I/O.

PACE 2017 ``.td`` files are 1-based; everything internal is 0-based, with
conversion happening only in read_td/emit_td.
"""

import heapq

from ashg.errors import ParseError
from ashg.instance import parse_ints


class TreeDecomposition:
    """Bags indexed 0..k-1 plus an undirected tree on the bag indices."""

    def __init__(self, bags, tree_edges):
        self.bags = [frozenset(b) for b in bags]
        self.tree = {i: set() for i in range(len(self.bags))}
        for i, j in tree_edges:
            self.tree[i].add(j)
            self.tree[j].add(i)

    @property
    def width(self):
        return max((len(b) for b in self.bags), default=0) - 1

    def tree_edges(self):
        return [(i, j) for i in self.tree for j in self.tree[i] if i < j]

    def __len__(self):
        return len(self.bags)


def root_tree(tree, root):
    """(parent, order) of the tree reached from root: parent maps each
    node reached to its parent (None for root), order lists them in
    breadth-first order, parents before children."""
    parent = {root: None}
    order = [root]
    for node in order:
        for nb in sorted(tree[node]):
            if nb not in parent:
                parent[nb] = node
                order.append(nb)
    return parent, order


def validate_td(inst, td):
    """None when td is a valid decomposition of inst, else a violation report."""
    k = len(td.bags)
    if k == 0:
        return "decomposition has no bags"
    vertex_set = set(inst.vertices())
    for i, b in enumerate(td.bags):
        for v in b:
            if v not in vertex_set:
                return "bag %d references unknown vertex %r" % (i, v)
    # tree shape: connected with k-1 edges
    edge_count = sum(len(nb) for nb in td.tree.values()) // 2
    if edge_count != k - 1:
        return "tree has %d edges, expected %d" % (edge_count, k - 1)
    parent, order = root_tree(td.tree, 0)
    if len(order) != k:
        return "tree is disconnected"
    # every vertex occurs somewhere
    occ = {v: [] for v in inst.vertices()}
    for i, b in enumerate(td.bags):
        for v in b:
            occ[v].append(i)
    for v in inst.vertices():
        if not occ[v]:
            return "vertex %r occurs in no bag" % (v,)
    # every edge covered by a bag, looked for among u's bags
    for u, v, _ in inst.edges:
        if not any(v in td.bags[i] for i in occ[u]):
            return "edge (%r,%r) covered by no bag" % (u, v)
    # occurrences of each vertex induce a connected subtree: exactly one
    # of its bags has its parent outside them
    for v in inst.vertices():
        tops = sum(1 for i in occ[v]
                   if parent[i] is None or v not in td.bags[parent[i]])
        if tops != 1:
            return "occurrences of vertex %r are disconnected" % (v,)
    return None


def _eliminate(adj, u):
    """Remove u from adj, joining its neighbours into a clique, and
    return them."""
    nb = adj.pop(u)
    for a in nb:
        joined = adj[a]
        joined |= nb
        joined.discard(a)
        joined.discard(u)
    return nb


def min_degree_order(adj):
    """(vertex, its neighbours when eliminated) per step of the
    min-degree elimination order of the graph adj, which is consumed;
    ties go to the smallest vertex."""

    def key(u):
        return (len(adj[u]), u)

    steps = []
    current = {u: key(u) for u in adj}
    heap = list(current.values())
    heapq.heapify(heap)
    while heap:
        k = heapq.heappop(heap)
        u = k[-1]
        if current.get(u) != k:
            continue  # stale entry
        del current[u]
        nb = _eliminate(adj, u)
        steps.append((u, nb))
        for a in nb:
            k = key(a)
            if k != current[a]:
                current[a] = k
                heapq.heappush(heap, k)
    return steps


def _from_elimination(steps):
    """Decomposition from (vertex, neighbours when eliminated) steps."""
    if not steps:
        return TreeDecomposition([frozenset()], [])
    # bag of v is {v} + its neighbors at elimination time; it hangs below the
    # bag of the clique member eliminated next, whose bag contains the rest
    pos = {v: i for i, (v, _) in enumerate(steps)}
    bags = [nb | {v} for v, nb in steps]
    edges = []
    for i, (_, nb) in enumerate(steps):
        if nb:
            parent = min(nb, key=pos.__getitem__)
            edges.append((i, pos[parent]))
        elif i + 1 < len(steps):
            # disconnected remainder: chain to keep the bags a tree
            edges.append((i, i + 1))
    return TreeDecomposition(bags, edges)


def heuristic_decompose(inst):
    """Decomposition of the game's graph from the min-degree elimination
    order."""
    return _from_elimination(min_degree_order(
        {u: set(inst.neighbors(u)) for u in inst.vertices()}))


def read_td(text, inst):
    header = None
    bags = {}
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise ParseError("duplicate 's td' header", lineno)
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError("expected 's td <#bags> <max-bag-size> <n>'", lineno)
            header = parse_ints(parts[2:], "header fields", lineno)
            if header[2] != inst.n:
                raise ParseError("header declares %d vertices, instance has %d"
                                 % (header[2], inst.n), lineno)
        elif parts[0] == "b":
            if header is None:
                raise ParseError("bag before header", lineno)
            if len(parts) < 2:
                raise ParseError("expected 'b <id> <vertices>'", lineno)
            bid, *verts = parse_ints(parts[1:], "bag fields", lineno)
            if not 1 <= bid <= header[0]:
                raise ParseError("bag id %d out of range" % bid, lineno)
            if bid in bags:
                raise ParseError("duplicate bag %d" % bid, lineno)
            for v in verts:
                if not 1 <= v <= inst.n:
                    raise ParseError("bag references unknown vertex %d" % v, lineno)
            bag = frozenset(v - 1 for v in verts)
            if len(bag) > header[1]:
                raise ParseError("bag %d holds %d vertices, header allows %d"
                                 % (bid, len(bag), header[1]), lineno)
            bags[bid] = bag
        else:
            if header is None:
                raise ParseError("edge before header", lineno)
            if len(parts) != 2:
                raise ParseError("expected tree edge '<i> <j>'", lineno)
            i, j = parse_ints(parts, "tree edge", lineno)
            if not (1 <= i <= header[0] and 1 <= j <= header[0]):
                raise ParseError("tree edge references unknown bag", lineno)
            edges.append((i - 1, j - 1))
    if header is None:
        raise ParseError("missing 's td' header")
    nbags = header[0]
    if len(bags) != nbags:  # every bag id lies in 1..nbags, once
        raise ParseError("header declares %d bags, found %d" % (nbags, len(bags)))
    if len(edges) != nbags - 1:
        raise ParseError("expected %d tree edges, found %d" % (nbags - 1, len(edges)))
    td = TreeDecomposition([bags[i] for i in range(1, nbags + 1)], edges)
    # reject non-tree edge sets (cycles disguised by correct edge count)
    if len(root_tree(td.tree, 0)[1]) != nbags:
        raise ParseError("tree edges do not form a tree")
    return td


def emit_td(td, n):
    max_bag = max((len(b) for b in td.bags), default=0)
    lines = ["s td %d %d %d" % (len(td.bags), max_bag, n)]
    for i, b in enumerate(td.bags):
        lines.append(("b %d %s" % (i + 1, " ".join(str(v + 1) for v in sorted(b)))).rstrip())
    for i, j in sorted(td.tree_edges()):
        lines.append("%d %d" % (i + 1, j + 1))
    return "\n".join(lines) + "\n"

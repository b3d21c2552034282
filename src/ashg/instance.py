"""Game instances, coalitions, partitions, and their text formats.

An instance is a simple undirected graph with integer edge weights; the
vertices are the agents.  A coalition is a plain frozenset of vertex ids.
Instances and partitions are immutable once built.
"""

from ashg.errors import ParseError, PreconditionError

# an instance holds one adjacency dict per vertex, so parse_instance
# refuses a header that declares more vertices than this
MAX_VERTICES = 1_000_000


class AshgInstance:
    def __init__(self, n, edges, name=None, scale=None):
        self.n = n
        self.name = name
        self.scale = scale
        seen = set()
        adj = {u: {} for u in range(n)}
        norm = []
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge (%d,%d) out of range for n=%d" % (u, v, n))
            if u == v:
                raise ValueError("self-loop at %d" % u)
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in seen:
                raise ValueError("duplicate edge (%d,%d)" % (a, b))
            seen.add((a, b))
            w = int(w)
            norm.append((a, b, w))
            adj[a][b] = w
            adj[b][a] = w
        if scale is not None and scale <= 0:
            raise ValueError("scale must be positive")
        self.edges = tuple(sorted(norm))
        self._adj = adj
        self.w_max = max((abs(w) for _, _, w in norm), default=0)
        self.max_degree = max((len(adj[u]) for u in range(n)), default=0)

    @property
    def m(self):
        return len(self.edges)

    def weight(self, u, v):
        """Weight of edge uv, or 0 when no edge is present."""
        return self._adj[u].get(v, 0)

    def has_edge(self, u, v):
        return v in self._adj[u]

    def neighbors(self, u):
        return self._adj[u]

    def vertices(self):
        return range(self.n)

    def _component(self, members, start):
        """Vertices of `members` reachable from `start` inside `members`."""
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v in members and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def is_connected_set(self, members):
        """Whether `members` induces a connected subgraph.

        Zero-weight edges count as edges.
        """
        if not members:
            return False
        members = set(members)
        start = next(iter(members))
        return len(self._component(members, start)) == len(members)

    def components_of(self, members):
        """Connected components of the subgraph induced by `members`."""
        members = set(members)
        comps = []
        while members:
            comp = self._component(members, min(members))
            comps.append(frozenset(comp))
            members -= comp
        return comps

    def __eq__(self, other):
        return (isinstance(other, AshgInstance)
                and self.n == other.n and self.edges == other.edges
                and self.scale == other.scale)

    def __repr__(self):
        return "AshgInstance(n=%d, m=%d%s)" % (
            self.n, self.m, ", name=%r" % self.name if self.name else "")


class Partition:
    """Disjoint blocks covering every vertex 0..n-1."""

    def __init__(self, blocks, n):
        blocks = [frozenset(b) for b in blocks if b]
        covered = {}
        for i, b in enumerate(blocks):
            for u in b:
                if u in covered:
                    raise ValueError("vertex %d in two blocks" % u)
                covered[u] = i
        if set(covered) != set(range(n)):
            missing = sorted(set(range(n)) - set(covered))
            raise ValueError("vertices not assigned to any block: %s" % missing)
        self.n = n
        self.blocks = tuple(sorted(blocks, key=lambda b: min(b)))
        self._block_of = {}
        for b in self.blocks:
            for u in b:
                self._block_of[u] = b

    @classmethod
    def singletons(cls, n):
        return cls([{u} for u in range(n)], n)

    @classmethod
    def grand(cls, n):
        return cls([set(range(n))], n)

    def block_of(self, u):
        try:
            return self._block_of[u]
        except KeyError:
            raise ValueError("vertex %d not assigned in partition" % u)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __repr__(self):
        return "Partition(%s)" % [sorted(b) for b in self.blocks]


def utility(inst, X, u):
    """Sum of edge weights from u to the other members of X."""
    if u not in X:
        raise PreconditionError("vertex %d not in the coalition" % u)
    adj = inst.neighbors(u)
    return sum(w for v, w in adj.items() if v in X)


def partition_utility(inst, P, u):
    return utility(inst, P.block_of(u), u)


def all_partition_utilities(inst, P):
    """ut_P(u) for every vertex, as a list indexed by vertex id."""
    out = [0] * inst.n
    for b in P.blocks:
        for u in b:
            out[u] = utility(inst, b, u)
    return out


def is_blocking(inst, P, X):
    """Whether every member of X strictly improves over its partition utility."""
    if not X:
        raise PreconditionError("blocking coalition must be non-empty")
    return all(utility(inst, X, u) > partition_utility(inst, P, u) for u in X)


def iter_partitions(n):
    """All partitions of 0..n-1, in restricted-growth-string order."""
    if n == 0:
        yield Partition([], 0)
        return
    a = [0] * n

    def emit():
        blocks = {}
        for u, b in enumerate(a):
            blocks.setdefault(b, []).append(u)
        return Partition(blocks.values(), n)

    def rec(i, mx):
        if i == n:
            yield emit()
            return
        for b in range(mx + 2):
            a[i] = b
            yield from rec(i + 1, max(mx, b))

    yield from rec(1, 0)


def parse_ints(tokens, what, lineno):
    """The tokens of a text line as integers; ParseError names what they
    are when one is not."""
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise ParseError("non-integer %s" % what, lineno) from None


def parse_instance(text):
    n = m = None
    scale = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 4 or parts[1] != "ashg":
                raise ParseError("expected 'p ashg <n> <m>'", lineno)
            n, m = parse_ints(parts[2:], "header fields", lineno)
            if n < 0 or m < 0:
                raise ParseError("negative counts in header", lineno)
            if n > MAX_VERTICES:
                raise ParseError("header declares %d vertices, at most %d allowed"
                                 % (n, MAX_VERTICES), lineno)
        elif parts[0] == "s":
            if len(parts) != 3 or parts[1] != "scale":
                raise ParseError("expected 's scale <k>'", lineno)
            scale, = parse_ints(parts[2:], "scale", lineno)
            if scale <= 0:
                raise ParseError("scale must be positive", lineno)
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before header", lineno)
            if len(parts) != 4:
                raise ParseError("expected 'e <u> <v> <w>'", lineno)
            u, v, w = parse_ints(parts[1:], "edge fields", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError("vertex id out of range", lineno)
            if u == v:
                raise ParseError("self-loop", lineno)
            edges.append((u, v, w))
        else:
            raise ParseError("unrecognized line %r" % line, lineno)
    if n is None:
        raise ParseError("missing 'p ashg' header")
    if len(edges) != m:
        raise ParseError("header declares %d edges, found %d" % (m, len(edges)))
    try:
        return AshgInstance(n, edges, scale=scale)
    except ValueError as exc:
        raise ParseError(str(exc))


def emit_instance(inst):
    lines = []
    if inst.name:
        lines.append("c %s" % inst.name)
    lines.append("p ashg %d %d" % (inst.n, inst.m))
    if inst.scale is not None:
        lines.append("s scale %d" % inst.scale)
    for u, v, w in inst.edges:
        lines.append("e %d %d %d" % (u, v, w))
    return "\n".join(lines) + "\n"


def parse_partition(text, inst):
    blocks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        ids = parse_ints(line.split(), "vertex id", lineno)
        for u in ids:
            if not 0 <= u < inst.n:
                raise ParseError("vertex id %d out of range" % u, lineno)
        if len(set(ids)) != len(ids):
            raise ParseError("repeated vertex within a block", lineno)
        blocks.append(ids)
    try:
        return Partition(blocks, inst.n)
    except ValueError as exc:
        raise ParseError(str(exc))


def emit_partition(P):
    return "\n".join(" ".join(str(u) for u in sorted(b)) for b in P.blocks) + "\n"

"""Prenex exists-forall quantified Boolean formulas, decided over a
decomposition of their primal graph.

Variables are positive integers, literals are signed integers.  A formula
is exists x: CNF(x) and forall y: DNF(x, y), with terms of any width.
decide_ea decides it by a DP over the min-degree elimination order of its
primal graph; eval_bruteforce is the reference it is tested against.
"""

from dataclasses import dataclass

from ashg.errors import ResourceLimitError
from ashg.treedecomp import min_degree_order


@dataclass(frozen=True)
class QbfEA:
    """exists x: CNF(x) and forall y: DNF(x, y)."""
    x_vars: tuple
    y_vars: tuple
    dnf: tuple  # terms (conjunctions), literals over x_vars + y_vars
    cnf: tuple = ()  # clauses (disjunctions), literals over x_vars only

    def __post_init__(self):
        xs, ys = set(self.x_vars), set(self.y_vars)
        if xs & ys:
            raise ValueError("quantifier blocks share variables")
        if any(abs(l) not in xs for cl in self.cnf for l in cl):
            raise ValueError("CNF literal over a non-existential variable")
        allv = xs | ys
        if any(abs(l) not in allv for t in self.dnf for l in t):
            raise ValueError("DNF literal over an unknown variable")


def eval_bruteforce(q, cap=24):
    """Exact semantics by double enumeration.

    Returns (satisfiable, witness) where witness maps each existential
    variable to a bool when satisfiable.
    """
    xs, ys = q.x_vars, q.y_vars
    if len(xs) + len(ys) > cap:
        raise ResourceLimitError("qbf_bruteforce_vars", cap)

    pos = {v: i for i, v in enumerate(xs)}
    pos.update({v: len(xs) + i for i, v in enumerate(ys)})

    def masks(group):
        out = []
        for lits in group:
            p = n = 0
            for l in lits:
                if l > 0:
                    p |= 1 << pos[l]
                else:
                    n |= 1 << pos[-l]
            out.append((p, n))
        return out

    cnf_masks = masks(q.cnf)
    term_masks = masks(q.dnf)
    for xbits in range(1 << len(xs)):
        if any(not (xbits & p) and not (n & ~xbits) for p, n in cnf_masks):
            continue
        ok = True
        for ybits in range(1 << len(ys)):
            bits = xbits | ybits << len(xs)
            if not any((bits & p) == p and not (bits & n) for p, n in term_masks):
                ok = False
                break
        if ok:
            return True, {v: bool(xbits >> i & 1) for i, v in enumerate(xs)}
    return False, None


def _primal_graph(q):
    """The primal graph of q's terms and clauses, each a clique, as a map
    from every variable to the set of its neighbours."""
    adj = {v: set() for v in q.x_vars + q.y_vars}
    for vs in {frozenset(map(abs, t)) for t in q.dnf + q.cnf}:
        for v in vs:
            adj[v] |= vs
    for v, nb in adj.items():
        nb.discard(v)
    return adj


def decide_ea(q, max_states=20_000_000, stats=None):
    """Decide exists x: CNF(x) and forall y: DNF(x, y) by a DP over the
    min-degree elimination order of q's primal graph.

    Returns (True, model), model mapping every existential variable to a
    bool and checked against every clause, or (False, None).

    The DP has a node per variable v, in elimination order.  Its bag is v
    and v's neighbours when v is eliminated, and it hangs below the
    earliest-eliminated of those, so each node forgets v alone; a node
    with no neighbours is the root of its component.  A state of a node
    is (a, F): bit x of a is set when the existential x of the bag is
    true, and bit s of F when the assignment s to the bag's universal
    variables (bit j of s for the j-th in sorted order) extends below to
    one falsifying every term checked below.  A clause prunes a, and a
    term clears F where it is true, at the node of its first-eliminated
    variable; children join by ANDing F.  Every step is monotone in F,
    so per a only the subset-minimal F are kept.  The formula holds when
    every root keeps a state and one root keeps F = 0, its component
    then having no y that falsifies every term.  Each state keeps the
    existential variables set true below it as nested pairs: (x, rest)
    where x is forgotten, (left, right) at a join.

    A state is charged 1 plus its F's 64-bit words while it is held, and
    holding more than max_states raises ResourceLimitError.  stats, when a
    dict, receives the most existential and universal variables in one
    bag (t_exists, t_forall) and the number of states built (states).
    """
    if () in q.cnf:
        return False, None
    universal = frozenset(q.y_vars)
    steps = min_degree_order(_primal_graph(q))
    pos = {v: i for i, (v, _) in enumerate(steps)}
    # clauses and terms are checked at their first-eliminated variable; one
    # holding a variable in both signs is always true, or never
    clauses_at, terms_at = {}, {}
    for lits in q.cnf:
        vs = {abs(l) for l in lits}
        if len(vs) == len(set(lits)):  # falsified where a & mask == want
            clauses_at.setdefault(steps[min(map(pos.__getitem__, vs))][0],
                                  []).append((_bits(vs),
                                              _bits(-l for l in lits if l < 0)))
    empty_term = () in q.dnf
    xlit = {}  # existential literal -> (its bit, the bit when it is true)
    for x in q.x_vars:
        xlit[x] = (1 << x, 1 << x)
        xlit[-x] = (1 << x, 0)
    for lits in q.dnf:
        vs = {abs(l) for l in lits}
        if not lits or len(vs) < len(lits) and len(vs) < len(set(lits)):
            continue
        mask = want = 0  # true where a & mask == want and the y agree
        ylits = []
        for l in lits:
            bits = xlit.get(l)
            if bits is None:
                ylits.append(l)
            else:
                mask |= bits[0]
                want |= bits[1]
        home = terms_at.setdefault(steps[min(map(pos.__getitem__, vs))][0], {})
        home.setdefault((mask, want), []).append(tuple(ylits))

    layouts = _Layouts()
    held = built = 0

    def charge(f):
        nonlocal held, built
        built += 1
        held += 1 + (f.bit_length() + 63 >> 6)
        if held > max_states:
            raise ResourceLimitError("ea_dp_states", max_states)

    def release(*tables):
        nonlocal held
        for table in tables:
            for states in table.values():
                for f, _ in states:
                    held -= 1 + (f.bit_length() + 63 >> 6)

    def add(bucket, f, back):
        """Keep (f, back) in bucket unless a kept F lies inside f, and
        drop the kept F that contain f."""
        nonlocal held
        drop = False
        for g, _ in bucket:
            both = f & g
            if both == g:
                return
            drop |= both == f
        if drop:
            for g, _ in bucket:
                if g & f == f:
                    held -= 1 + (g.bit_length() + 63 >> 6)
            bucket[:] = [s for s in bucket if s[0] & f != f]
        bucket.append((f, back))
        charge(f)

    def node(v, nb, children):
        """(table, universal layout, existential bits) over nb, what node
        v passes up; None when the table is empty."""
        bag = nb | {v}
        ys = tuple(sorted(bag & universal))
        k = len(ys)
        table, cover = None, 0
        for child, cys, ccover in children:
            if cys != ys:
                plan = layouts.plan(cys, ys)
                release(child)
                child = {a: [(layouts.lift(f, plan), back) for f, back in states]
                         for a, states in child.items()}
                for states in child.values():
                    for f, _ in states:
                        charge(f)
            if table is None:
                table, cover = child, ccover
                continue
            shared = cover & ccover
            groups = {}
            for a, states in child.items():
                groups.setdefault(a & shared, []).append((a, states))
            joined = {}
            for a, states in table.items():
                for b, others in groups.get(a & shared, ()):
                    bucket = joined.setdefault(a | b, [])
                    for f, back in states:
                        for g, other in others:
                            add(bucket, f & g, other if back is None else
                                back if other is None else (back, other))
            if not joined:
                return None
            release(table, child)
            table = joined
            cover |= ccover
        if table is None:  # a leaf: every assignment, none past an empty term
            table = {0: []}
            add(table[0], 0 if empty_term else (1 << (1 << k)) - 1, None)

        # set the bag's existential variables that no child holds, check
        # the clauses and terms, and forget v
        xbits = _bits(bag - universal)
        free = xbits & ~cover
        clauses = clauses_at.get(v, ())
        terms = []
        if v in terms_at:
            full = (1 << (1 << k)) - 1
            holds = {}  # universal literal -> where it holds
            for y, m in zip(ys, layouts.bits(k)):
                holds[y] = m
                holds[-y] = full ^ m
            made = {}  # y part -> where it holds
            for key, yparts in terms_at[v].items():
                clear = 0
                for ylits in yparts:
                    m = made.get(ylits)
                    if m is None:
                        m = full
                        for l in ylits:
                            m &= holds[l]
                        made[ylits] = m
                    clear |= m
                terms.append(key + (clear,))
        vbit = 0 if v in universal else 1 << v
        at = None if vbit else ys.index(v)
        out = {}
        for a, states in table.items():
            sub = free
            while True:
                b = a | sub
                if not clauses or not any(b & m == w for m, w in clauses):
                    clear = 0
                    for m, w, where in terms:
                        if b & m == w:
                            clear |= where
                    bucket = out.setdefault(b & ~vbit, [])
                    for f, back in states:
                        f &= ~clear
                        if at is not None:
                            f = layouts.forget(f, k, at)
                        elif b & vbit:
                            back = (v, back)
                        add(bucket, f, back)
                if not sub:
                    break
                sub = (sub - 1) & free
        release(table)
        if not out:
            return None
        return out, tuple(y for y in ys if y != v), xbits & ~vbit

    pending = {}  # node -> (table, universal layout, existential bits) per child
    roots = []
    out = {}  # with no variables the empty term alone decides
    for v, nb in steps:
        out = node(v, nb, pending.pop(v, ()))
        if out is None:
            break
        if nb:
            pending.setdefault(min(nb, key=pos.get), []).append(out)
        else:
            roots.append(out[0][0])
    if stats is not None:
        univ = [len(nb & universal) + (v in universal) for v, nb in steps]
        stats.update(t_exists=max((len(nb) + 1 - u for (_, nb), u
                                   in zip(steps, univ)), default=0),
                     t_forall=max(univ, default=0), states=built)
    if out is None:
        return False, None

    picks = [min(states, key=lambda s: s[0] != 0) for states in roots]
    if not empty_term and all(f for f, _ in picks):
        return False, None
    true = set()
    stack = [back for _, back in picks if back is not None]
    while stack:
        head, rest = stack.pop()
        if isinstance(head, int):
            true.add(head)
        else:
            stack.append(head)
        if rest is not None:
            stack.append(rest)
    model = {x: x in true for x in q.x_vars}
    for cl in q.cnf:
        if not any(model[abs(l)] == (l > 0) for l in cl):
            raise RuntimeError("model check failed on clause %r" % (cl,))
    return True, model


def _bits(vs):
    out = 0
    for v in vs:
        out |= 1 << v
    return out


class _Layouts:
    """Operations on an int F of 2^k bits, bit s for the assignment s to
    k universal variables in sorted order (bit j of s for the j-th).  The
    masks are made on first use."""

    def __init__(self):
        self.masks = {}
        self.bit_masks = {}

    def mask(self, k, p, q):
        """The bits s < 2^k where bit p of s is set and bits p+1 .. q-1
        are clear."""
        key = (k, p, q)
        m = self.masks.get(key)
        if m is None:
            d = 1 << p
            m = self.masks[key] = (((1 << d) - 1) << d) * (
                ((1 << (1 << k)) - 1) // ((1 << (1 << q)) - 1))
        return m

    def bits(self, k):
        """Per position p < k, the bits s < 2^k where bit p of s is set."""
        m = self.bit_masks.get(k)
        if m is None:
            m = self.bit_masks[k] = [self.mask(k, p, p + 1) for p in range(k)]
        return m

    def swap(self, f, k, p):
        """f with the variables at positions p and p+1 swapped."""
        d = 1 << p
        t = (f ^ f >> d) & self.mask(k, p, p + 2)
        return f ^ t ^ t << d

    def plan(self, have, want):
        """(k, j) per variable of want outside have, have a subset of
        want: it goes in at position j of the k + 1 variables then held."""
        out = []
        k = len(have)
        for j, y in enumerate(want):
            if y not in have:
                out.append((k, j))
                k += 1
        return out

    def lift(self, f, plan):
        """f over more variables, on which it does not depend."""
        for k, j in plan:
            f |= f << (1 << k)  # the new variable at the top, then moved down
            for p in range(k - 1, j - 1, -1):
                f = self.swap(f, k + 1, p)
        return f

    def forget(self, f, k, j):
        """The s over the other k - 1 variables whose extension by some
        value of the j-th is in f."""
        for p in range(j, k - 1):
            f = self.swap(f, k, p)
        half = 1 << (k - 1)
        return (f & ((1 << half) - 1)) | f >> half


def to_qdimacs(q):
    """Prenex exists-forall formula in QDIMACS layout: the clauses over x
    come first, then the DNF terms, one per line.  When there are clauses,
    a leading comment line "c clauses K" gives their number K."""
    nv = max([0] + [abs(l) for t in q.dnf for l in t]
             + list(q.x_vars) + list(q.y_vars))
    lines = ["c clauses %d" % len(q.cnf)] if q.cnf else []
    lines.append("p cnf %d %d" % (nv, len(q.cnf) + len(q.dnf)))
    if q.x_vars:
        lines.append("e " + " ".join(str(v) for v in q.x_vars) + " 0")
    if q.y_vars:
        lines.append("a " + " ".join(str(v) for v in q.y_vars) + " 0")
    for t in q.cnf + q.dnf:
        lines.append(" ".join(str(l) for l in t) + " 0")
    return "\n".join(lines) + "\n"

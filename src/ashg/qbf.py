"""Prenex exists-forall quantified Boolean formulas, decided over a
decomposition of their primal graph.

Variables are positive integers, literals are signed integers.  A formula
is exists x: CNF(x) and forall y: DNF(x, y), with terms of any width.
decide_ea decides it by a DP over the min-degree elimination order of its
primal graph.  qbf_to_cnf instead compiles it along a decomposition to an
equisatisfiable CNF, the x-only clauses conjoined untouched, whose
satisfiability sat_treewidth decides; that route writes the CNF of
`solve --emit-dimacs`.
"""

from dataclasses import dataclass
from operator import itemgetter

from ashg.errors import PreconditionError, ResourceLimitError
from ashg.treedecomp import (TreeDecomposition, elimination_td,
                             min_degree_order, root_tree)


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


@dataclass
class Cnf:
    clauses: list
    num_vars: int


class AnnotatedTd(TreeDecomposition):
    """Tree decomposition of a formula's primal graph, with the set of
    its universally quantified variables."""

    def __init__(self, bags, tree_edges, universal):
        super().__init__(bags, tree_edges)
        self.universal = frozenset(universal)

    def max_universal_per_bag(self):
        return max((len(b & self.universal) for b in self.bags), default=0)


def _next_var(*var_groups):
    mx = 0
    for g in var_groups:
        for v in g:
            mx = max(mx, v)
    return mx + 1


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


def fresh_primal_td(q):
    """Elimination-order decomposition of the primal graph of a DNF
    matrix and its clauses, each term and clause a clique of the graph.
    qbf_to_cnf pays 2^(universal variables) per bag, whatever the width
    of the terms, so the min-degree order eliminates first the variable
    with the fewest universal neighbours, then the one of lowest
    degree."""
    td = elimination_td(_primal_graph(q), marked=q.y_vars)
    return AnnotatedTd(td.bags, td.tree_edges(), q.y_vars)


def qbf_to_cnf(q, td):
    """Compile exists x: CNF(x) and forall y: DNF(x, y) into an
    equisatisfiable CNF.

    td must describe the primal graph of q's terms and clauses, so each
    term, of any width, lies in a bag; the cost is 2^(universal
    variables) per bag, whatever the width of the terms.  The compile
    walks td rooted at its last bag, the root of an elimination-order
    decomposition.  Per bag B and per assignment sigma to B's universal
    variables, z_(B,sigma) says that sigma extends to an assignment of
    the universal variables below B falsifying every term checked below
    B.  z is kept as an array over the universal variables it depends on
    (a bit mask over them, in sorted order), which grow as terms are
    checked and shrink as variables are forgotten.  Going up from a
    child, the variables the parent lacks are forgotten one at a time: a
    term is checked when its first variable is forgotten, where the bag
    still holds all of it, and forgetting a universal variable ORs the
    two entries that differ in it.  The parent ANDs its children.  The
    formula is satisfiable iff no falsifying extension exists at the
    root.  The gates are functions of the x, so for every x the compiled
    clauses are satisfiable exactly when forall y: DNF(x, y) holds, and
    q's clauses are appended as they are.  Each lies in a bag of td, and
    every bag of the CNF's decomposition keeps its bag's existential
    variables, so the clauses fit the decomposition too.

    The returned decomposition of the CNF has a bag per bag of td,
    holding the gates built on the way up from its children, except that
    a bag whose parent lacks only universal variables of it joins the
    parent's, and its last bag is the root's.  Its stats describe td: its number of bags (bags), the sum
    over its bags B of 2^(universal variables in B) (sum_pow_univ) and
    the most existential and universal variables in one bag (t_exists,
    t_forall).
    """
    c = _Compile(q, td.universal)
    root = len(td.bags) - 1
    parent, order = root_tree(td.tree, root)
    zs = {}
    # a bag of td whose parent lacks only universal variables of it joins
    # the parent's bag: between the two, the DP would drop only gates,
    # which are functions of what they share, so no states are saved
    out_bags = {}
    out_edges = []
    into = {}
    for t in reversed(order):
        bag = td.bags[t]
        c.gates = {}  # equal gates of one bag share a variable
        c.local = set(bag - c.universal)
        z = None
        for s in td.tree[t]:
            if s == parent[t]:
                continue
            zc = zs.pop(s)
            c.local |= td.bags[s] - c.universal
            c.local.update(map(abs, filter(None, zc[1])))
            zc = c.forget(zc, td.bags[s], bag)
            z = zc if z is None else c.join(z, zc)
            if td.bags[s] - bag <= c.universal:
                c.local |= out_bags.pop(s)
                into[s] = t
            else:
                out_edges.append((t, s))
        if z is None:  # a leaf: no universal assignment below it
            z = c.leaf()
        zs[t] = z
        c.local.update(map(abs, filter(None, z[1])))
        out_bags[t] = c.local
    c.gates = {}
    c.local = out_bags[root]
    _, (z_root,) = c.forget(zs[root], td.bags[root], frozenset())
    if c.unchecked:
        raise PreconditionError("decomposition does not cover every term")
    if z_root is _TRUE:
        c.clauses.append(())  # an empty assignment falsifies every term
    elif z_root != _FALSE:
        c.clauses.append((-z_root,))
    c.clauses.extend(q.cnf)

    cnf = Cnf(c.clauses, c.nxt - 1)
    index = {t: i for i, t in enumerate(out_bags)}
    for t in order:  # a merged bag takes its parent's index
        index.setdefault(t, index.get(into.get(t)))
    out_td = TreeDecomposition(list(out_bags.values()),
                               [(index[a], index[b]) for a, b in out_edges])
    # stats for the size-bound property, over the compiled decomposition
    univ = [len(b & c.universal) for b in td.bags]
    out_td.stats = {
        "bags": len(td.bags),
        "sum_pow_univ": sum(1 << k for k in univ),
        "t_exists": max(len(b) - k for b, k in zip(td.bags, univ)),
        "t_forall": max(univ),
    }
    return cnf, out_td


# z entries of qbf_to_cnf: a literal, or one of these constants
_TRUE, _FALSE = None, 0


class _Compile:
    """Gate builder of qbf_to_cnf: holds the clauses, the next free
    variable, the gates and variables of the current bag and the terms
    not checked yet.  An array is a pair (deps, z): z[m] is the entry for
    the assignment whose bit i is the value of deps[i]."""

    def __init__(self, q, universal):
        self.universal = universal
        self.nxt = _next_var(q.x_vars, q.y_vars)
        self.clauses = []
        terms = list(dict.fromkeys(q.dnf))
        self.vars_of, self.forall_of, self.res_of = [], [], []
        self.terms_of = {}
        for k, t in enumerate(terms):
            forall, res = [], []
            for l in t:
                self.terms_of.setdefault(abs(l), []).append(k)
                if abs(l) in universal:
                    forall.append((abs(l), l > 0))
                else:
                    res.append(l)
            self.vars_of.append(frozenset(map(abs, t)))
            self.forall_of.append(forall)
            self.res_of.append(tuple(res))
        self.unchecked = set(range(len(terms)))
        self.empty = terms.index(()) if () in terms else None

    def fresh(self):
        self.nxt += 1
        self.local.add(self.nxt - 1)
        return self.nxt - 1

    def leaf(self):
        if self.empty in self.unchecked:
            self.unchecked.discard(self.empty)  # the empty term is true
            return (), [_FALSE]
        return (), [_TRUE]

    def gate_or(self, a, b):
        if a == b or b == _FALSE:
            return a
        if a == _FALSE:
            return b
        if a is _TRUE or b is _TRUE:
            return _TRUE
        return self.gate("or", a, b)

    def gate_and(self, a, b):
        if a == b or b is _TRUE:
            return a
        if a is _TRUE:
            return b
        if a == _FALSE or b == _FALSE:
            return _FALSE
        return self.gate("and", a, b)

    def gate(self, kind, a, b):
        """The variable of gate a OR b, or a AND b, of two literals."""
        key = (kind, a, b) if a < b else (kind, b, a)
        if key not in self.gates:
            z = self.gates[key] = self.fresh()
            if kind == "or":
                self.clauses += [(-z, a, b), (z, -a), (z, -b)]
            else:
                self.clauses += [(-z, a), (-z, b), (z, -a, -b)]
        return self.gates[key]

    def join(self, a, b):
        deps = tuple(sorted(set(a[0]) | set(b[0])))
        return deps, [x if x == y else self.gate_and(x, y)
                      for x, y in zip(self.expand(a, deps),
                                      self.expand(b, deps))]

    def expand(self, arr, deps):
        """arr's entries for every mask over deps, a superset of its own."""
        own, z = arr
        if own == deps:
            return z
        for p, v in enumerate(deps):
            if v not in own:
                z = _widen(z, p)
        return z

    def forget(self, arr, bag, keep):
        """Forget bag's variables outside keep, smallest first."""
        held = set(bag)
        for v in sorted(held - keep):
            checks = [k for k in self.terms_of.get(v, ())
                      if k in self.unchecked]
            if checks:
                if not all(self.vars_of[k] <= held for k in checks):
                    raise PreconditionError(
                        "decomposition does not cover every term")
                self.unchecked.difference_update(checks)
                arr = self.check(arr, checks)
            held.discard(v)
            deps, z = arr
            if v in deps:
                p = deps.index(v)
                arr = (deps[:p] + deps[p + 1:],
                       [a if a == b else self.gate_or(a, b)
                        for a, b in zip(*_halves(z, p))])
        return arr

    def check(self, arr, terms):
        """arr AND (no term of terms is true), per universal mask.

        A term whose universal literals disagree with the mask is dead;
        one with no existential literal left is true and makes the entry
        FALSE.
        """
        deps = frozenset(arr[0]).union(*(self.vars_of[k] for k in terms))
        deps = tuple(sorted(deps & self.universal))
        z = self.expand(arr, deps)
        bit = {v: 1 << i for i, v in enumerate(deps)}
        full = len(z) - 1
        live = {}  # mask -> bit j set when terms[j] is live there
        residuals = [self.res_of[k] for k in terms]
        true = 0  # the terms with no existential literal
        for j, k in enumerate(terms):
            care = want = 0
            for v, positive in self.forall_of[k]:
                care |= bit[v]
                if positive:
                    want |= bit[v]
            if not residuals[j]:
                true |= 1 << j
            rest = full & ~care
            sub = rest
            while True:  # every mask agreeing with the term
                live[want | sub] = live.get(want | sub, 0) | 1 << j
                if not sub:
                    break
                sub = (sub - 1) & rest
        out = list(z)
        made = {}
        for m, here in live.items():
            if z[m] == _FALSE:
                continue
            if here & true:
                out[m] = _FALSE
                continue
            key = (z[m], here)
            if key not in made:
                picked = []  # the live residuals, lowest bit first
                while here:
                    low = here & -here
                    picked.append(residuals[low.bit_length() - 1])
                    here ^= low
                made[key] = self.blocked(z[m], picked)
            out[m] = made[key]
        return deps, out

    def blocked(self, base, residuals):
        """The literal of base AND no residual is true; a residual of two
        or more literals gets a variable a <-> AND(residual)."""
        if len(residuals) == 1:
            return self.gate_and(base, -self.conj(residuals[0]))
        picks = [self.conj(res) for res in residuals]  # numbered before w
        w = self.fresh()
        back = [w]
        if base is not _TRUE:
            self.clauses.append((-w, base))
            back.append(-base)
        for res in residuals:
            self.clauses.append((-w,) + tuple(-l for l in res))
        self.clauses.append(tuple(back + picks))
        return w

    def conj(self, res):
        if len(res) == 1:
            return res[0]
        if res not in self.gates:
            a = self.gates[res] = self.fresh()
            self.clauses.extend((-a, l) for l in res)
            self.clauses.append((a,) + tuple(-l for l in res))
        return self.gates[res]


def _widen(z, p):
    """z over one more variable, at bit p, on which no entry depends."""
    step, out = 1 << p, [None] * (2 * len(z))
    if step * step <= len(z):  # few strides: copy each
        for j in range(step):
            out[j::2 * step] = out[j + step::2 * step] = z[j::step]
    else:  # few blocks: copy each twice
        for k in range(0, len(z), step):
            out[2 * k:2 * k + step] = out[2 * k + step:2 * k + 2 * step] = \
                z[k:k + step]
    return out


def _halves(z, p):
    """The entries of z with bit p clear, and those with it set."""
    step = 1 << p
    if step == 1:
        return z[0::2], z[1::2]
    lo, hi = [], []
    for k in range(0, len(z), 2 * step):
        lo += z[k:k + step]
        hi += z[k + step:k + 2 * step]
    return lo, hi


def sat_treewidth(cnf, td, max_states=20_000_000):
    """CNF satisfiability by DP over a tree decomposition of the primal
    graph.  Every clause must fit in some bag.  Returns (True, model) or
    (False, None); models are checked against every clause before return.

    A bag's states are held column-wise: slot j is one state, and bit j
    of cols[v] is the value of variable v in it, so a clause is checked on
    every state at once with a few integer operations.  Bags contained in
    a neighbouring bag are absorbed first, and the DP runs up to the last
    bag.  max_states caps the slots of all the bags' tables together.
    """
    bags, tree, root = _absorb(td)
    parent, order = root_tree(tree, root)
    kids = {i: [c for c in sorted(tree[i]) if c != parent[i]] for i in bags}
    # each clause is checked in the first bag the DP reaches that holds
    # it, when the last of its variables the children lack is assigned
    dp_order = order[::-1]
    first = {}  # variable -> first bag of the DP holding it
    for i in dp_order:
        first.update(dict.fromkeys(bags[i] - first.keys(), i))
    seen = {i: bags[i].intersection(frozenset().union(
                *(bags[c] for c in kids[i]))) for i in bags}
    trig = {i: {} for i in bags}
    for cl in cnf.clauses:
        if not cl:
            return False, None
        last = max(map(abs, cl))
        home = first.get(last)
        if home is None or not bags[home].issuperset(map(abs, cl)):
            home = next((i for i in dp_order
                         if bags[i].issuperset(map(abs, cl))), None)
            if home is None:
                raise PreconditionError(
                    "clause %r not contained in any bag" % (cl,))
        if last in seen[home]:
            last = max(set(map(abs, cl)) - seen[home], default=0)
        trig[home].setdefault(last, []).append(cl)

    tables = {}
    total = 0
    for node in dp_order:
        bag = bags[node]
        n, valid, cols, origin = _join(bag, [tables[c] for c in kids[node]])
        if not valid:
            return False, None
        if total + n > max_states:
            raise ResourceLimitError("sat_dp_states", max_states)

        # extend by the remaining variables
        trig_here = trig[node]
        for cl in trig_here.get(0, ()):
            valid &= ~_falsified(cl, cols, 0)
        dups = []  # (slot count before, slots copied) per copy step
        for v in sorted(bag - cols.keys()):
            allow = [valid, valid]  # slots where v may be False / True
            for cl in trig_here.get(v, ()):
                if -v not in cl:
                    allow[0] &= ~_falsified(cl, cols, v)
                elif v not in cl:
                    allow[1] &= ~_falsified(cl, cols, v)
            both = allow[0] & allow[1]
            valid = allow[0] | allow[1]
            cols[v] = allow[1] & ~allow[0]
            if both:
                # each slot free to take both values is copied with v True
                dup = _slots(both, n)
                pick = _picker(dup)
                for u, col in cols.items():
                    cols[u] = col | _gather(col, n, pick) << n
                cols[v] |= (1 << len(dup)) - 1 << n
                valid |= (1 << len(dup)) - 1 << n
                dups.append((n, dup))
                n += len(dup)
                if total + n > max_states:
                    raise ResourceLimitError("sat_dp_states", max_states)
        if not valid:
            return False, None
        total += n
        tables[node] = (n, valid, cols, origin, dups)

    # read a model back down the chosen child slots
    value = {}
    valid = tables[root][1]
    stack = [(root, (valid & -valid).bit_length() - 1)]
    while stack:
        node, j = stack.pop()
        _, _, cols, origin, dups = tables[node]
        for v, col in cols.items():
            value[v] = bool(col >> j & 1)
        for start, dup in reversed(dups):
            if j >= start:
                j = dup[j - start]
        stack.extend(zip(kids[node], origin[j]))
    true = {v if val else -v for v, val in value.items()}
    for cl in cnf.clauses:
        if true.isdisjoint(cl):
            raise RuntimeError("model check failed on clause %r" % (cl,))
    return True, value


def _join(bag, tables):
    """Slots over bag's variables from the children's tables.

    Returns (n, valid, cols, origin): origin[j] holds the child slots that
    slot j came from.  Children are reduced to their distinct states over
    the shared variables, and states are paired when they agree on the
    variables two children share.
    """
    n, cols, origin = 1, {}, [()]
    for cn, cvalid, ccols, _, _ in tables:
        shared = [v for v in ccols if v in bag]
        keep = {}
        for j, key in enumerate(zip(_column_text(cvalid, cn),
                                    *(_column_text(ccols[v], cn)
                                      for v in shared))):
            if key[0] == "1":
                keep.setdefault(key[1:], j)
        at = [i for i, v in enumerate(shared) if v in cols]
        if at:
            groups = {}
            for key, j in keep.items():
                groups.setdefault(tuple(key[i] for i in at), []).append(j)
            pairs = [(i, j) for i, key in enumerate(zip(
                         *(_column_text(cols[shared[k]], n) for k in at)))
                     for j in groups.get(key, ())]
        else:
            pairs = [(i, j) for i in range(n) for j in keep.values()]
        if not pairs:
            return 0, 0, {}, []
        mine = _picker([i for i, _ in pairs])
        theirs = _picker([j for _, j in pairs])
        cols = {v: _gather(col, n, mine) for v, col in cols.items()}
        cols.update((v, _gather(ccols[v], cn, theirs))
                    for v in shared if v not in cols)
        origin = [origin[i] + (j,) for i, j in pairs]
        n = len(pairs)
    return n, (1 << n) - 1, cols, origin


def _slots(mask, n):
    """Indices of the set bits of mask, below n."""
    return [j for j, bit in enumerate(_column_text(mask, n)) if bit == "1"]


def _falsified(cl, cols, skip):
    """Mask of the slots where every literal of cl but skip's is false
    (none when cl holds some variable in both signs)."""
    out = -1
    for l in cl:
        if l != skip and l != -skip:
            out &= cols[-l] if l < 0 else ~cols[l]
    return out


def _column_text(col, n):
    """Slot j's bit of col as character j of a string."""
    return format(col, "0%db" % n)[::-1]


def _picker(idx):
    if len(idx) == 1:
        return lambda s, i=idx[0]: s[i]
    return itemgetter(*idx)


def _gather(col, n, pick):
    """The column whose slot k holds col's slot pick-index k."""
    return int("".join(pick(_column_text(col, n)))[::-1], 2)


def _absorb(td):
    """Contract every tree edge whose one bag contains the other.

    Returns (bags, tree, root) keyed by the surviving node ids, where root
    is what the last bag was absorbed into."""
    bags = dict(enumerate(td.bags))
    root = len(td.bags) - 1
    into = {}

    def find(i):
        while i in into:
            i = into[i]
        return i

    for i, j in td.tree_edges():
        a, b = find(i), find(j)
        if bags[a] <= bags[b]:
            a, b = b, a
        elif not bags[b] <= bags[a]:
            continue
        into[b] = a  # b's bag lies inside a's
        if b == root:
            root = a
    tree = {i: set() for i in bags if i not in into}
    for i, j in td.tree_edges():
        a, b = find(i), find(j)
        if a != b:
            tree[a].add(b)
            tree[b].add(a)
    return {i: bags[i] for i in tree}, tree, root


def to_dimacs(cnf):
    lines = ["p cnf %d %d" % (cnf.num_vars, len(cnf.clauses))]
    for cl in cnf.clauses:
        lines.append(" ".join(str(l) for l in cl) + " 0")
    return "\n".join(lines) + "\n"


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

"""Span recorder for the traced benchmark run.

Each public stage function is replaced, in every ``ashg`` module namespace
that holds it, by a wrapper that records a span (name, start, end, parent,
instance id) and the exact sizes of the value the call returned.  The
wrappers pass arguments and results through unchanged.  Spans stay in
memory; ``write`` dumps them as JSON at the end of the run.

A layer's self time is its span's duration minus the durations of its
child spans (and minus the time spent measuring the children's sizes).
"""

import functools
import inspect
import json
import time
from collections import defaultdict

# (defining module, function) for every stage the benchmark times.  A name
# that a later version of the library drops is reported as absent.
STAGES = (
    ("existence", "solve_cs"),
    ("existence", "encode_cs"),
    ("qbf", "incidence_td_for"),
    ("qbf", "e3cnffdnf_to_ea"),
    ("qbf", "split_to_3dnf"),
    ("qbf", "fresh_primal_td"),
    ("qbf", "qbf_to_cnf"),
    ("qbf", "sat_treewidth"),
    ("treedecomp", "heuristic_decompose"),
    ("treedecomp", "make_nice"),
    ("treedecomp", "validate_td"),
    ("verify", "verify_bruteforce"),
    ("verify", "verify_tree"),
    ("verify", "verify_treewidth"),
    ("verify", "verify_vertexcover"),
    ("verify", "min_vertex_cover"),
    ("kcore", "greedy_2core"),
    ("kcore", "verify_kcore"),
    ("generators", "gen_partition_csv"),
    ("generators", "gen_binpacking_csv"),
    ("generators", "gen_bdd_csv"),
    ("generators", "gen_clique_kcsv"),
)

# size counters that aggregate by maximum; every other counter is a sum
MAX_SIZES = ("qbf.primal_width", "qbf.t_forall")


def _encoding_sizes(enc):
    dnf = enc.formula.dnf
    return {"existence.dnf_terms": len(dnf),
            "existence.transitivity_clauses": len(enc.formula.cnf),
            "existence.term_pairs": sum(4 ** len(nb)
                                        for nb in enc.gprime_adj.values())}


def _ea_sizes(out):
    return {"qbf.ea_terms": len(out[0].terms)}


def _dnf3_sizes(out):
    q3 = out[0]
    return {"qbf.dnf3_terms": len(q3.terms),
            "qbf.dnf3_vars": len(set(q3.x_vars) | set(q3.y_vars))}


def _primal_sizes(atd):
    return {"qbf.primal_width": atd.width,
            "qbf.t_forall": atd.max_universal_per_bag()}


def _cnf_sizes(out):
    cnf, td = out
    return {"qbf.cnf_clauses": len(cnf.clauses),
            "qbf.cnf_vars": cnf.num_vars,
            "qbf.nice_bags": td.stats["bags"],
            "qbf.sum_pow_univ": td.stats["sum_pow_univ"]}


def _verify_sizes(res, name):
    out = {name + ".unstable": int(not res.stable), name + ".done": 1}
    stat = VERIFY_STATS[name]
    if stat:
        out[name + "." + stat] = res.stats[stat]
    return out


SIZERS = {
    "existence.encode_cs": _encoding_sizes,
    "qbf.e3cnffdnf_to_ea": _ea_sizes,
    "qbf.split_to_3dnf": _dnf3_sizes,
    "qbf.fresh_primal_td": _primal_sizes,
    "qbf.qbf_to_cnf": _cnf_sizes,
}
VERIFY_STATS = {
    "verify.verify_bruteforce": "examined",
    "verify.verify_tree": None,
    "verify.verify_treewidth.value": "states",
    "verify.verify_treewidth.edgeset": "states",
    "verify.verify_vertexcover": "guesses",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance", "sizing")

    def __init__(self, name, parent, instance):
        self.name = name
        self.parent = parent
        self.instance = instance
        self.start = self.end = 0.0
        self.sizing = 0.0  # seconds spent sizing this span's children


class Recorder:
    """Holds the spans and size counters of one traced run."""

    def __init__(self):
        self.spans = []
        self.sizes = []  # (instance, counter name, value)
        self.size_errors = set()
        self.absent = []
        self.patched = []  # (namespace, attribute, original function)
        self.active = False
        self.instance = None
        self._stack = []

    def install(self, mods):
        """Wrap every stage in every ashg module namespace that holds it."""
        namespaces = [m for m in vars(mods).values() if inspect.ismodule(m)]
        self.absent = []
        for layer, func in STAGES:
            owner = getattr(mods, layer, None)
            fn = getattr(owner, func, None)
            if fn is None:
                self.absent.append(layer + "." + func)
                continue
            wrapper = self._wrap(layer + "." + func, fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self.patched.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)

    def uninstall(self):
        """Put the original functions back."""
        for ns, attr, fn in self.patched:
            setattr(ns, attr, fn)
        self.patched = []

    def _wrap(self, name, fn):
        namer = None
        if name == "verify.verify_treewidth":
            sig = inspect.signature(fn)

            def namer(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return name + "." + str(bound.arguments["mode"]).lower()
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            full = namer(args, kwargs) if namer else name
            span = Span(full, stack[-1] if stack else None, self.instance)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            self._size(span, result)
            return result

        return wrapper

    def _size(self, span, result):
        name = span.name
        t0 = time.perf_counter()
        try:
            if name in SIZERS:
                counts = SIZERS[name](result)
            elif name in VERIFY_STATS:
                counts = _verify_sizes(result, name)
            else:
                counts = {}
        except (AttributeError, KeyError, TypeError, IndexError) as exc:
            # a later library version changed the returned value's shape
            self.size_errors.add("%s: %s" % (name, exc))
            counts = {}
        for key, value in counts.items():
            self.sizes.append((span.instance, key, value))
        if span.parent is not None:
            span.parent.sizing += time.perf_counter() - t0

    def self_times(self, keep):
        """{span name: (calls, self seconds)} over the spans ``keep`` accepts."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[id(s.parent)] += s.end - s.start
        out = defaultdict(lambda: [0, 0.0])
        for s in filter(keep, self.spans):
            agg = out[s.name]
            agg[0] += 1
            agg[1] += (s.end - s.start) - child_time[id(s)] - s.sizing
        return {k: tuple(v) for k, v in out.items()}

    def size_totals(self):
        """{counter: value}, summed over calls (maximum for widths)."""
        out = {}
        for _, key, value in self.sizes:
            if key in MAX_SIZES:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
        return out

    def write(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s.name, s.start, s.end, index.get(id(s.parent)), s.instance]
                for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "instance"],
                       "spans": rows, "sizes": self.sizes,
                       "absent": self.absent,
                       "size_errors": sorted(self.size_errors)}, fh)

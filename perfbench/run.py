"""Benchmark for the ashg library: existence pipeline and verifiers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cs-dense --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the current directory, never from
an installed copy.  A run sets up its workload (imports, seeded instance
generation, oracle answers) several times and reports the median as
``setup_s``; then it makes whole passes over the workload until
``--seconds`` have passed, checks every answer against the oracles,
and prints one JSON object as the last line of standard output.  Timings
are single-process and single-threaded.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run makes passes untraced for half the time, then the same number of
passes with every stage wrapped (see tracing.py), and reports per-stage
self time and sizes per pass, plus the tracing overhead.  Spans are written
to ``.perfbench_out/`` in the checkout.

Exit status: 0 when every answer is correct, 1 when one is wrong (the
result line then says ``"correct": false``), 2 when the library cannot be
loaded.
"""

import argparse
import contextlib
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS

MODULES = ("errors", "instance", "treedecomp", "qbf", "verify", "existence",
           "kcore", "generators")
SETUP_REPS = 15
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it

E2E_UNITS = {"setup_s": "s", "instances_per_s": "1/s", "latency_p50_s": "s",
             "latency_tail_s": "s", "peak_rss_mb": "MB"}

STAGE_SELF = ("existence.solve_cs", "existence.encode_cs",
              "qbf.incidence_td_for", "qbf.e3cnffdnf_to_ea", "qbf.split_to_3dnf",
              "qbf.fresh_primal_td", "qbf.qbf_to_cnf", "qbf.sat_treewidth",
              "treedecomp.heuristic_decompose", "treedecomp.make_nice",
              "treedecomp.validate_td", "verify.verify_bruteforce",
              "verify.verify_tree", "verify.verify_treewidth.value",
              "verify.verify_treewidth.edgeset", "verify.verify_vertexcover",
              "verify.min_vertex_cover", "kcore.greedy_2core", "kcore.verify_kcore")
STAGE_CALLS = ("treedecomp.heuristic_decompose", "verify.verify_bruteforce",
               "verify.verify_tree")
SIZE_COUNTS = ("existence.dnf_terms", "existence.transitivity_clauses",
               "qbf.ea_terms", "qbf.dnf3_terms", "qbf.dnf3_vars",
               "qbf.cnf_clauses", "qbf.cnf_vars", "qbf.nice_bags",
               "qbf.sum_pow_univ", "qbf.primal_width", "qbf.t_forall",
               "verify.verify_bruteforce.examined",
               "verify.verify_treewidth.value.states",
               "verify.verify_treewidth.edgeset.states",
               "verify.verify_vertexcover.guesses")


def load_ashg(root):
    """Import every ashg module from ``root/src``, dropping earlier copies."""
    for name in [n for n in sys.modules if n == "ashg" or n.startswith("ashg.")]:
        del sys.modules[name]
    return SimpleNamespace(**{name: importlib.import_module("ashg." + name)
                              for name in MODULES})


def setup(root, workload, seed, rec=None):
    """Import and build the workload; returns (modules, plan, seconds)."""
    t0 = time.perf_counter()
    mods = load_ashg(root)
    if rec is None:
        traced = contextlib.nullcontext
    else:
        rec.install(mods)

        @contextlib.contextmanager
        def traced():
            rec.active, rec.instance = True, "setup"
            try:
                yield
            finally:
                rec.active = False
    plan = WORKLOADS[workload](mods, seed, traced)
    return mods, plan, time.perf_counter() - t0


class PassLog:
    """What the timed passes produced."""

    def __init__(self):
        self.results = []  # (item index, result) of calls that returned
        self.latencies = []  # per item, seconds per run of it
        self.pass_seconds = []
        self.attempted = 0
        self.failures = Counter()  # cap name or exception type -> calls
        self.peak_rss_mb = None  # after set-up and the first pass

    def absorb(self, other):
        """Count another run's calls and results as this one's."""
        self.results = other.results + self.results
        self.attempted += other.attempted
        self.failures.update(other.failures)


def run_passes(mods, plan, budget, passes=None, rec=None):
    """Whole passes over the plan: exactly ``passes`` of them, or as many
    as fit in ``budget`` seconds judging by the last pass (at least one)."""
    log = PassLog()
    log.latencies = [[] for _ in plan.items]
    limit_error = mods.errors.ResourceLimitError
    clock = time.perf_counter
    start = clock()
    while True:
        gc.collect()  # each pass starts from the same heap
        t_pass = clock()
        for idx, item in enumerate(plan.items):
            if rec is not None:
                rec.instance = "%d:%d" % (len(log.pass_seconds), idx)
            t0 = clock()
            try:
                res = item.fn(mods)
            except limit_error as exc:
                log.failures[exc.cap_name] += item.calls
                res = None
            except Exception as exc:  # noqa: BLE001 -- counted, run continues
                if type(exc).__name__ not in log.failures:
                    traceback.print_exc(file=sys.stderr)
                log.failures[type(exc).__name__] += item.calls
                res = None
            log.latencies[idx].append(clock() - t0)
            log.attempted += item.calls
            if res is not None:
                log.results.append((idx, res))
        done = clock()
        log.pass_seconds.append(done - t_pass)
        if log.peak_rss_mb is None:
            # later passes only add allocator fragmentation
            log.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if passes is not None:
            if len(log.pass_seconds) >= passes:
                break
        elif done - start + log.pass_seconds[-1] > budget:
            break
    return log


def input_latencies(plan, log):
    """(weight, calls, latency) of each input the plan times: the weights
    of its items, and the median of its timings over its items and passes."""
    groups = {}
    for idx, (item, lat) in enumerate(zip(plan.items, log.latencies)):
        key = ("item", idx) if item.group is None else item.group
        weight, _, timings = groups.get(key, (0.0, item.calls, []))
        groups[key] = (weight + item.weight, item.calls, timings + lat)
    return [(w, c, statistics.median(t)) for w, c, t in groups.values()]


def weighted_median(values, weights):
    """The smallest value at which the weights of it and all smaller values
    reach half the total weight."""
    half = sum(weights) / 2
    acc = 0.0
    for value, weight in sorted(zip(values, weights)):
        acc += weight
        if acc >= half:
            return value
    return max(values)


def tail_rank(m):
    """Rank, among m sorted samples, of the highest percentile that keeps
    TAIL_BEYOND samples beyond it.  With fewer than 2 * TAIL_BEYOND + 1
    samples that rank would fall below the median, and the largest sample
    stands in."""
    if m < 2 * TAIL_BEYOND + 1:
        return m - 1
    return m - 1 - TAIL_BEYOND


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(root, workload, seed, seconds):
    setups = []
    for _ in range(SETUP_REPS):
        mods, plan, dt = setup(root, workload, seed)
        setups.append(dt)
    log = run_passes(mods, plan, seconds)
    inputs = input_latencies(plan, log)
    weights = [w for w, _, _ in inputs]
    lat = [t for _, _, t in inputs]
    m, rank = len(lat), tail_rank(len(lat))
    # calls per second of a pass in which each input is run in proportion
    # to its weight
    rate = sum(w * c for w, c, _ in inputs) / sum(w * t for w, _, t in inputs)
    values = {"setup_s": statistics.median(setups),
              "instances_per_s": rate,
              "latency_p50_s": weighted_median(lat, weights),
              "latency_tail_s": sorted(lat)[rank],
              "peak_rss_mb": log.peak_rss_mb}
    print("passes %d of %d items, %.3f s measured"
          % (len(log.pass_seconds), len(plan.items), sum(log.pass_seconds)))
    print("latency_tail_s is p%.1f (%d inputs, %d beyond)"
          % (100.0 * rank / max(m - 1, 1), m, m - 1 - rank))
    return mods, plan, log, {k: metric(v, E2E_UNITS[k]) for k, v in values.items()}


def per_layer(root, workload, seed, seconds):
    rec = tracing.Recorder()
    mods, plan, _ = setup(root, workload, seed, rec)
    rec.uninstall()  # the untraced passes run the library as it is
    plain = run_passes(mods, plan, seconds / 2)
    k = len(plain.pass_seconds)
    rec.install(mods)
    rec.active = True
    log = run_passes(mods, plan, None, passes=k, rec=rec)
    rec.active = False
    rec.uninstall()
    log.absorb(plain)

    run_self = rec.self_times(lambda s: s.instance != "setup")
    setup_self = rec.self_times(lambda s: s.instance == "setup")
    sizes = rec.size_totals()
    values = {}
    for name in STAGE_SELF:
        values[name + ".self_s"] = (run_self.get(name, (0, 0.0))[1] / k, "s")
    for name in STAGE_CALLS:
        values[name + ".calls"] = (run_self.get(name, (0, 0.0))[0] // k, "count")
    for name in SIZE_COUNTS:
        total = sizes.get(name, 0)
        per_pass = total if name in tracing.MAX_SIZES else total // k
        values[name] = (per_pass, "count")
    pairs = sizes.get("existence.term_pairs", 0)
    values["existence.term_keep_ratio"] = (
        sizes.get("existence.dnf_terms", 0) / pairs if pairs else 0.0, "ratio")
    done = sum(sizes.get(v + ".done", 0) for v in tracing.VERIFY_STATS)
    unstable = sum(sizes.get(v + ".unstable", 0) for v in tracing.VERIFY_STATS)
    values["verify.unstable_share"] = (unstable / done if done else 0.0, "ratio")
    values["generators.self_s"] = (
        sum(t for n, (_, t) in setup_self.items() if n.startswith("generators.")), "s")
    overhead = (sum(log.pass_seconds) - sum(plain.pass_seconds)) / k
    values["trace.overhead_s"] = (overhead, "s")

    traced_wall = sum(log.pass_seconds) / k
    untraced_wall = sum(plain.pass_seconds) / k
    print("traced passes %d, %.3f s each (untraced %.3f s); tracing overhead "
          "%.4f s (%.1f%%)" % (k, traced_wall, untraced_wall, overhead,
                                100 * overhead / untraced_wall))
    print("stage self time per pass (share of traced pass):")
    for name, (calls, total) in sorted(run_self.items(), key=lambda kv: -kv[1][1]):
        print("  %-36s %8d calls %10.4f s %6.1f%%"
              % (name, calls // k, total / k, 100 * total / k / traced_wall))
    if rec.absent:
        print("absent stages: %s" % ", ".join(rec.absent))
    for err in sorted(rec.size_errors):
        print("size counter unavailable: %s" % err)
    out = Path(root) / ".perfbench_out" / ("spans-%s-%d.json" % (workload, seed))
    rec.write(out)
    print("spans written to %s" % out)
    return mods, plan, log, {n: metric(v, u) for n, (v, u) in values.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ashg" / "__init__.py").is_file():
        print("perfbench: no ashg sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import ashg
    except ImportError as exc:
        print("perfbench: cannot import ashg: %s" % exc, file=sys.stderr)
        return 2
    if src.resolve() not in Path(ashg.__file__).resolve().parents:
        print("perfbench: ashg imported from %s, not %s" % (ashg.__file__, src),
              file=sys.stderr)
        return 2

    run = per_layer if args.trace else end_to_end
    mods, plan, log, metrics = run(root, args.workload, args.seed, args.seconds)
    errors = plan.check(mods, log.results)
    for err in errors[:20]:
        print("MISMATCH %s" % err, file=sys.stderr)
    failed = sum(log.failures.values())
    print("failed_frac %.6f (%d of %d calls)%s"
          % (failed / log.attempted, failed, log.attempted,
             "".join(" %s=%d" % kv for kv in sorted(log.failures.items()))))
    for name, m in metrics.items():
        print("%-44s %s %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not errors, "attempted": log.attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: verify partitions, solve for stable partitions,
generate reduction instances, compute tree decompositions, and run the
cross-validation batteries.

Exit codes: 0 = Stable / Exists, 1 = Unstable / NotExists (or cross-val
disagreement), 2 = usage or input error, 3 = resource cap hit.  stdout
carries only machine-readable artifacts (witness, partition, files);
everything else goes to stderr.
"""

import random
import sys
import time

import click

from ashg.errors import (ParseError, PreconditionError, ResourceLimitError,
                         WrongAlgorithmError)
from ashg.existence import EXISTS, CsResult, solve_cs, solve_cs_bruteforce
from ashg.generators import (gen_33sat_cs, gen_3col_kcs, gen_bdd_csv,
                             gen_binpacking_csv, gen_clique_kcsv,
                             gen_eapartition_cs, gen_gadget,
                             gen_partition_csv, coloring_partition_3col)
from ashg.instance import (emit_instance, emit_partition, parse_instance,
                           parse_partition)
from ashg.kcore import greedy_2core, verify_kcore
from ashg.qbf import to_qdimacs
from ashg.treedecomp import emit_td, heuristic_decompose, read_td
from ashg.verify import (EDGESET, VALUE, verify_bruteforce, verify_tree,
                         verify_treewidth, verify_vertexcover)


def _fail(message, code):
    click.echo("error: %s" % message, err=True)
    sys.exit(code)


def _load(path, parse, *args):
    """parse(text, *args) on the file at path; a read or parse error
    exits 2."""
    try:
        with open(path) as fh:
            return parse(fh.read(), *args)
    except OSError as exc:
        _fail(str(exc), 2)
    except ParseError as exc:
        _fail("%s: %s" % (path, exc), 2)


def _report(command, verdict, elapsed, stats):
    click.echo("command: %s" % command, err=True)
    click.echo("verdict: %s" % verdict, err=True)
    click.echo("time: %.3fs" % elapsed, err=True)
    for key in sorted(stats):
        click.echo("%s: %s" % (key, stats[key]), err=True)


class _Main(click.Group):
    """The command group; a cap hit exits 3, and a precondition the input
    fails, or an algorithm that does not apply to it, exits 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ResourceLimitError as exc:
            _fail(str(exc), 3)
        except (PreconditionError, WrongAlgorithmError) as exc:
            _fail(str(exc), 2)


@click.group(cls=_Main)
def main():
    """Core stability toolkit for additively separable hedonic games."""


@main.command()
@click.argument("instance_path", type=click.Path(exists=True))
@click.argument("partition_path", type=click.Path(exists=True))
@click.option("--algo", type=click.Choice(["brute", "tree", "tw", "vc"]),
              default="brute", show_default=True)
@click.option("--k", type=int, default=None,
              help="Only consider blocking coalitions of size at most k (brute).")
@click.option("--td", "td_path", type=click.Path(exists=True), default=None,
              help="PACE tree decomposition for --algo tw.")
@click.option("--mode", type=click.Choice(["value", "edgeset"]), default="value",
              show_default=True, help="Signature regime for --algo tw.")
@click.option("--cap", type=int, default=1_000_000, show_default=True,
              help="Enumeration cap for --algo brute: candidate coalitions "
              "in size-then-lexicographic order, examined or skipped.")
@click.option("--max-states", type=int, default=5_000_000, show_default=True,
              help="DP state cap for --algo tw.")
def verify(instance_path, partition_path, algo, k, td_path, mode, cap,
           max_states):
    """Check a partition for core stability; exit 1 prints a witness."""
    inst = _load(instance_path, parse_instance)
    P = _load(partition_path, parse_partition, inst)
    if k is not None and algo != "brute":
        _fail("--k is only supported with --algo brute", 2)
    start = time.time()
    if algo == "brute":
        if k is not None:
            res = verify_kcore(inst, P, k, cap=cap)
        else:
            res = verify_bruteforce(inst, P, cap=cap)
    elif algo == "tree":
        res = verify_tree(inst, P)
    elif algo == "tw":
        td = _load(td_path, read_td, inst) if td_path else None
        if td is None:
            click.echo("no decomposition given; using heuristic", err=True)
        res = verify_treewidth(inst, P, td=td,
                               mode=VALUE if mode == "value" else EDGESET,
                               max_states=max_states)
    else:
        res = verify_vertexcover(inst, P)
    _report("verify --algo %s" % algo, res.verdict, time.time() - start,
            res.stats)
    if not res.stable:
        click.echo(" ".join(str(u) for u in sorted(res.witness)))
        sys.exit(1)


@main.command()
@click.argument("instance_path", type=click.Path(exists=True))
@click.option("--algo", type=click.Choice(["brute", "qbf"]), default="qbf",
              show_default=True)
@click.option("--k", type=int, default=None,
              help="Search for a k-core stable partition instead (brute).")
@click.option("--td", "td_path", type=click.Path(exists=True), default=None,
              help="PACE tree decomposition guiding the qbf encoding.")
@click.option("--cap", type=int, default=10, show_default=True,
              help="Vertex cap for --algo brute.")
@click.option("--max-terms", type=int, default=2_000_000, show_default=True)
@click.option("--max-states", type=int, default=20_000_000, show_default=True,
              help="Cap on the DP's states held at once, each counted as 1 "
                   "plus its 64-bit words (qbf).")
@click.option("--emit-qdimacs", type=click.Path(), default=None,
              help="Write the formula: clauses, then terms (qbf only).")
def solve(instance_path, algo, k, td_path, cap, max_terms, max_states,
          emit_qdimacs):
    """Decide stable-partition existence; exit 0 prints a partition."""
    inst = _load(instance_path, parse_instance)
    if k is not None and algo != "brute":
        _fail("--k is only supported with --algo brute", 2)
    start = time.time()
    collect = {}
    if algo == "brute":
        if k == 2:
            res = CsResult(EXISTS, greedy_2core(inst))
        else:
            res = solve_cs_bruteforce(inst, k=k, cap=cap)
    else:
        td = _load(td_path, read_td, inst) if td_path else None
        res = solve_cs(inst, td=td, max_terms=max_terms,
                       max_states=max_states, collect=collect)
    if emit_qdimacs and "encoding" in collect:
        with open(emit_qdimacs, "w") as fh:
            fh.write(to_qdimacs(collect["encoding"].formula))
    _report("solve --algo %s" % algo, res.verdict, time.time() - start,
            res.stats)
    if not res.exists:
        sys.exit(1)
    if algo == "brute":  # solve_cs certifies its own answers
        if k is not None:
            check = verify_kcore(inst, res.partition, k, cap=None)
        else:
            check = verify_treewidth(inst, res.partition)
        if not check.stable:
            _fail("internal: solver returned a partition that fails "
                  "verification", 2)
    click.echo(emit_partition(res.partition), nl=False)


@main.command()
@click.argument("instance_path", type=click.Path(exists=True))
def decompose(instance_path):
    """Print a min-degree tree decomposition in PACE format."""
    inst = _load(instance_path, parse_instance)
    td = heuristic_decompose(inst)
    click.echo(emit_td(td, inst.n), nl=False)


def _write_outputs(prefix, gen):
    paths = []
    with open(prefix + ".graph", "w") as fh:
        fh.write(emit_instance(gen.instance))
    paths.append(prefix + ".graph")
    if gen.partition is not None:
        with open(prefix + ".partition", "w") as fh:
            fh.write(emit_partition(gen.partition))
        paths.append(prefix + ".partition")
    if gen.td is not None:
        with open(prefix + ".td", "w") as fh:
            fh.write(emit_td(gen.td, gen.instance.n))
        paths.append(prefix + ".td")
    with open(prefix + ".provenance", "w") as fh:
        fh.write("expected %s\n" % gen.expected)
        for key in sorted(gen.info, key=str):
            fh.write("%s %s\n" % (key, gen.info[key]))
    paths.append(prefix + ".provenance")
    for p in paths:
        click.echo(p)


def _source_graph(path):
    """Read an unweighted source graph for a reduction (weights ignored)."""
    inst = _load(path, parse_instance)
    return inst.n, [(u, v) for u, v, _ in inst.edges]


@main.group()
def gen():
    """Generate reduction instances with known structure."""


@gen.command("gadget")
@click.option("--rho", type=int, default=-16, show_default=True)
@click.option("--out", required=True, help="Output file prefix.")
def gen_gadget_cmd(rho, out):
    _write_outputs(out, gen_gadget(rho))


@gen.command("partition-csv")
@click.argument("values", type=int, nargs=-1, required=True)
@click.option("--out", required=True)
def gen_partition_cmd(values, out):
    _write_outputs(out, gen_partition_csv(list(values)))


@gen.command("binpacking-csv")
@click.argument("values", type=int, nargs=-1, required=True)
@click.option("--k", type=int, required=True)
@click.option("--out", required=True)
def gen_binpacking_cmd(values, k, out):
    _write_outputs(out, gen_binpacking_csv(list(values), k))


@gen.command("bdd-csv")
@click.option("--graph", required=True, type=click.Path(exists=True))
@click.option("--dstar", type=int, required=True)
@click.option("--size", type=int, required=True)
@click.option("--out", required=True)
def gen_bdd_cmd(graph, dstar, size, out):
    n, edges = _source_graph(graph)
    _write_outputs(out, gen_bdd_csv(n, edges, dstar, size))


@gen.command("clique-kcsv")
@click.option("--graph", required=True, type=click.Path(exists=True))
@click.option("--k", type=int, required=True)
@click.option("--out", required=True)
def gen_clique_cmd(graph, k, out):
    n, edges = _source_graph(graph)
    _write_outputs(out, gen_clique_kcsv(n, edges, k))


@gen.command("eapartition-cs")
@click.option("-a", "avals", type=int, multiple=True, required=True)
@click.option("-b", "bvals", type=int, multiple=True, required=True)
@click.option("--out", required=True)
def gen_ea_cmd(avals, bvals, out):
    _write_outputs(out, gen_eapartition_cs(list(avals), list(bvals)))


@gen.command("threecol-kcs")
@click.option("--graph", required=True, type=click.Path(exists=True))
@click.option("--k", type=int, default=3, show_default=True)
@click.option("--out", required=True)
def gen_3col_cmd(graph, k, out):
    n, edges = _source_graph(graph)
    result = gen_3col_kcs(n, edges, k)
    coloring = result.info.get("coloring")
    if coloring is not None:
        result.partition = coloring_partition_3col(result, coloring)
    _write_outputs(out, result)


@gen.command("sat33-cs")
@click.option("--vars", "num_vars", type=int, required=True)
@click.option("--clause", "clause_strs", multiple=True, required=True,
              help="Clause as space-separated signed literals, e.g. '1 -2'.")
@click.option("--out", required=True)
def gen_sat33_cmd(num_vars, clause_strs, out):
    try:
        clauses = [tuple(int(tok) for tok in c.split()) for c in clause_strs]
    except ValueError:
        _fail("clauses must be integers", 2)
    _write_outputs(out, gen_33sat_cs(num_vars, clauses))


def _crossval_partition(rng):
    values = [rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
    out = gen_partition_csv(values)
    got = verify_vertexcover(out.instance, out.partition).stable
    return got == out.expected, ("partition-csv", values)


def _crossval_binpacking(rng):
    values = [rng.randint(1, 9) for _ in range(rng.randint(2, 5))]
    out = gen_binpacking_csv(values, 2)
    got = verify_bruteforce(out.instance, out.partition,
                            cap=500_000_000).stable
    return got == out.expected, ("binpacking-csv", values, 2)


def _crossval_bdd(rng):
    n = rng.randint(1, 5)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.5]
    dstar = rng.randint(0, 2)
    size = rng.randint(1, n)
    out = gen_bdd_csv(n, edges, dstar, size)
    case = ("bdd-csv", n, edges, dstar, size)
    # the reduction promises weights in {-1, 1}; any other is a disagreement
    if any(w not in (-1, 1) for _, _, w in out.instance.edges):
        return False, case
    got = verify_treewidth(out.instance, out.partition).stable
    return got == out.expected, case


def _crossval_clique(rng):
    n = rng.randint(3, 6)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.5]
    out = gen_clique_kcsv(n, edges, 3)
    got = verify_kcore(out.instance, out.partition, 3, cap=None).stable
    return got == out.expected, ("clique-kcsv", n, edges, 3)


_SUITES = [
    ("partition", _crossval_partition),
    ("binpacking", _crossval_binpacking),
    ("bdd", _crossval_bdd),
    ("clique", _crossval_clique),
]


@main.command()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=100,
              show_default=True, help="Trials per suite.")
def crossval(seed, trials):
    """Cross-validate every brute-forcible reduction; exit 1 on mismatch."""
    failures = []
    for idx, (name, check) in enumerate(_SUITES):
        for t in range(trials):
            case_seed = seed * 1_000_003 + idx * trials + t
            ok, case = check(random.Random(case_seed))
            if not ok:
                failures.append((name, case_seed, case))
    for name, _ in _SUITES:
        bad = sum(fail[0] == name for fail in failures)
        click.echo("%-12s %d/%d passed" % (name, trials - bad, trials))
    if failures:
        for name, case_seed, case in failures:
            click.echo("disagreement: suite=%s seed=%d case=%r"
                       % (name, case_seed, case), err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()

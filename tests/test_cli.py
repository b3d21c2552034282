import os
import random
import resource
import subprocess
import sys

import pytest
from click.testing import CliRunner

import ashg
from ashg import cli, existence, verify
from ashg.cli import main
from ashg.errors import ResourceLimitError
from ashg.generators import GenResult
from ashg.instance import (AshgInstance, Partition, emit_instance,
                           emit_partition, is_blocking, parse_instance,
                           parse_partition)
from ashg.kcore import greedy_2core
from ashg.treedecomp import emit_td, read_td, validate_td
from ashg.verify import verify_tree
from test_existence import grid
from test_verify import chorded_path

TRIANGLE = "p ashg 3 3\ne 0 1 1\ne 1 2 1\ne 0 2 1\n"
SINGLETONS3 = "0\n1\n2\n"
NEG_EDGE = "p ashg 2 1\ne 0 1 -1\n"


@pytest.fixture
def runner():
    return CliRunner()


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def test_verify_unstable_witness(runner, tmp_path):
    g = tmp_path / "tri.graph"
    p = tmp_path / "tri.partition"
    write(g, TRIANGLE)
    write(p, SINGLETONS3)
    result = runner.invoke(main, ["verify", str(g), str(p)])
    assert result.exit_code == 1
    inst = parse_instance(TRIANGLE)
    P = parse_partition(SINGLETONS3, inst)
    witness = {int(t) for t in result.stdout.split()}
    from ashg.instance import is_blocking

    assert is_blocking(inst, P, witness)


def test_verify_stable(runner, tmp_path):
    g = tmp_path / "tri.graph"
    p = tmp_path / "grand.partition"
    write(g, TRIANGLE)
    write(p, "0 1 2\n")
    result = runner.invoke(main, ["verify", str(g), str(p)])
    assert result.exit_code == 0
    assert result.stdout == ""  # verdict goes to stderr


def test_verify_all_algorithms_agree(runner, tmp_path):
    g = tmp_path / "g.graph"
    p = tmp_path / "p.partition"
    write(g, NEG_EDGE)
    write(p, "0\n1\n")
    for algo in ("brute", "tree", "tw", "vc"):
        result = runner.invoke(main, ["verify", str(g), str(p),
                                      "--algo", algo])
        assert result.exit_code == 0, (algo, result.output)


def test_verify_tree_on_cycle_usage_error(runner, tmp_path):
    g = tmp_path / "tri.graph"
    p = tmp_path / "p.partition"
    write(g, TRIANGLE)
    write(p, SINGLETONS3)
    result = runner.invoke(main, ["verify", str(g), str(p), "--algo", "tree"])
    assert result.exit_code == 2


def test_verify_tw_notes_heuristic(runner, tmp_path):
    g = tmp_path / "tri.graph"
    p = tmp_path / "p.partition"
    write(g, TRIANGLE)
    write(p, "0 1 2\n")
    result = runner.invoke(main, ["verify", str(g), str(p), "--algo", "tw"])
    assert result.exit_code == 0
    assert "heuristic" in result.output


def test_verify_with_explicit_td(runner, tmp_path):
    g = tmp_path / "tri.graph"
    p = tmp_path / "p.partition"
    t = tmp_path / "tri.td"
    write(g, TRIANGLE)
    write(p, "0 1 2\n")
    write(t, "s td 1 3 3\nb 1 1 2 3\n")
    result = runner.invoke(main, ["verify", str(g), str(p), "--algo", "tw",
                                  "--td", str(t), "--mode", "edgeset"])
    assert result.exit_code == 0


def test_verify_tw_edgeset_prints_blocking_witness(tmp_path):
    inst, td = chorded_path(random.Random(4))
    P = greedy_2core(inst)
    g = tmp_path / "chorded.graph"
    p = tmp_path / "chorded.partition"
    t = tmp_path / "chorded.td"
    write(g, emit_instance(inst))
    write(p, emit_partition(P))
    write(t, emit_td(td, inst.n))
    src = os.path.dirname(os.path.dirname(ashg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-m", "ashg.cli", "verify", str(g), str(p),
         "--algo", "tw", "--mode", "edgeset", "--td", str(t)],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 1, result.stderr
    assert is_blocking(inst, P, {int(u) for u in result.stdout.split()})


def test_verify_k_requires_brute(runner, tmp_path):
    g = tmp_path / "tri.graph"
    p = tmp_path / "p.partition"
    write(g, TRIANGLE)
    write(p, SINGLETONS3)
    result = runner.invoke(main, ["verify", str(g), str(p), "--algo", "tw",
                                  "--k", "2"])
    assert result.exit_code == 2


def test_verify_resource_cap_exit(runner, tmp_path):
    inst = AshgInstance(25, [(i, i + 1, -1) for i in range(24)])
    g = tmp_path / "path.graph"
    write(g, emit_instance(inst))
    p = tmp_path / "p.partition"
    write(p, "\n".join(str(i) for i in range(25)) + "\n")
    result = runner.invoke(main, ["verify", str(g), str(p), "--cap", "100"])
    assert result.exit_code == 3


def test_verify_vc_cover_cap_exit_3(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "MAX_COVER", 2)
    g = tmp_path / "matching.graph"
    write(g, emit_instance(AshgInstance(6, [(0, 1, 1), (2, 3, 1), (4, 5, 1)])))
    p = tmp_path / "p.partition"
    write(p, "0 1\n2 3\n4 5\n")
    result = runner.invoke(main, ["verify", str(g), str(p), "--algo", "vc"])
    assert result.exit_code == 3, result.output
    assert "vertex_cover" in result.output


def test_verify_parse_error(runner, tmp_path):
    g = tmp_path / "bad.graph"
    p = tmp_path / "p.partition"
    write(g, "e 0 1 1\n")
    write(p, "0 1\n")
    result = runner.invoke(main, ["verify", str(g), str(p)])
    assert result.exit_code == 2


def test_verify_non_integer_fields_exit_2(runner, tmp_path):
    g = tmp_path / "bad.graph"
    p = tmp_path / "p.partition"
    write(g, "p ashg 2 1\ns scale x\ne 0 1 1\n")
    write(p, "0 1\n")
    result = runner.invoke(main, ["verify", str(g), str(p)])
    assert result.exit_code == 2, result.output
    write(g, "p ashg 2 1\ne 0 1 1\n")
    t = tmp_path / "bad.td"
    for bad_td in ("s td x 2 2\nb 1 1 2\n", "s td 1 2 2\nb x 1\n",
                   "s td 2 2 2\nb 1 1\nb 2 1 2\n1 x\n"):
        write(t, bad_td)
        result = runner.invoke(main, ["verify", str(g), str(p), "--algo", "tw",
                                      "--td", str(t)])
        assert result.exit_code == 2, (bad_td, result.output)


def test_solve_qbf_exists_prints_partition(runner, tmp_path):
    g = tmp_path / "edge.graph"
    write(g, "p ashg 2 1\ne 0 1 1\n")
    result = runner.invoke(main, ["solve", str(g)])
    assert result.exit_code == 0
    inst = parse_instance("p ashg 2 1\ne 0 1 1\n")
    P = parse_partition(result.stdout, inst)
    assert P.blocks == (frozenset({0, 1}),)


def test_solve_certifies_long_path_quickly(tmp_path):
    # brute-force certification would enumerate 2^30 coalitions here;
    # weights -2..2 as on the benchmark's weighted paths
    rng = random.Random(30)
    inst = AshgInstance(30, [(i, i + 1, rng.randint(-2, 2)) for i in range(29)])
    g = tmp_path / "path.graph"
    write(g, emit_instance(inst))
    src = os.path.dirname(os.path.dirname(ashg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-m", "ashg.cli", "solve", str(g)],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    P = parse_partition(result.stdout, inst)
    assert verify_tree(inst, P).stable


# a command run in a fresh process that reports its own peak resident set on
# the last line of stderr.  It reads VmHWM, not ru_maxrss: on Linux the
# child's ru_maxrss keeps the high-water mark of the image it was forked
# from, before exec, so it would report the test process's size.
_MEASURED = """
import sys
from ashg.cli import main
try:
    main()
finally:
    with open("/proc/self/status") as status:
        hwm = next(line.split()[1] for line in status
                   if line.startswith("VmHWM:"))
    sys.stderr.write("\\npeak_rss_kb %s\\n" % hwm)
"""


def run_measured(tmp_path, command, inst, *args):
    """(exit code, stderr, peak RSS in MB) of the command on inst and the
    further args, run under a 1 GB address-space limit so that a run out
    of bounds fails fast."""
    g = tmp_path / "game.graph"
    write(g, emit_instance(inst))
    src = os.path.dirname(os.path.dirname(ashg.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    result = subprocess.run(
        [sys.executable, "-c", _MEASURED, command, str(g)] + list(args),
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=limit)
    last = result.stderr.split()[-2:]
    peak = int(last[1]) / 1024 if last[:1] == ["peak_rss_kb"] else None
    return result.returncode, result.stderr, peak


def test_solve_grid_within_memory_bound(tmp_path):
    # grid 3x8's DP states take a few MB; the bound leaves room for the
    # interpreter and click
    code, err, peak = run_measured(tmp_path, "solve", grid(3, 8))
    assert code == 0, err
    assert "t_forall: 13" in err
    assert peak < 64, "peak RSS %.0f MB" % peak


def test_solve_state_cap_exit_3_within_memory_bound(tmp_path):
    # the cap counts the words of the states held, so it trips before the
    # run grows
    code, err, peak = run_measured(tmp_path, "solve", grid(3, 8),
                                   "--max-states", "30000")
    assert code == 3, err
    assert "ea_dp_states" in err
    assert peak < 64, "peak RSS %.0f MB" % peak


def test_verify_brute_cap_exit_3_within_memory_bound(tmp_path):
    # the dense grand coalition of test_verify's cap-inside-a-size test:
    # no agent is dropped and nothing blocks within the default cap, and
    # the search holds one branch of coalitions at a time, not whole sizes
    rng = random.Random(30)
    n = 30
    inst = AshgInstance(n, [(u, v, rng.choice((-1, 1, 2)))
                            for u in range(n) for v in range(u + 1, n)])
    p = tmp_path / "grand.partition"
    write(p, emit_partition(Partition.grand(n)))
    code, err, peak = run_measured(tmp_path, "verify", inst, str(p))
    assert code == 3, err
    assert "enumeration=1000000" in err
    assert peak < 40, "peak RSS %.0f MB" % peak


def test_solve_certification_cap_exit_3(runner, tmp_path, monkeypatch):
    def capped(inst, P, td):
        raise ResourceLimitError("dp_states", 1)

    # solve_cs certifies its Exists answers itself
    monkeypatch.setattr(existence, "_treewidth_dp", capped)
    g = tmp_path / "edge.graph"
    write(g, "p ashg 2 1\ne 0 1 1\n")
    result = runner.invoke(main, ["solve", str(g)])
    assert result.exit_code == 3, result.output


def test_solve_brute_gadget_not_exists(runner, tmp_path):
    from ashg.generators import gen_gadget

    g = tmp_path / "gadget.graph"
    write(g, emit_instance(gen_gadget(rho=-16).instance))
    result = runner.invoke(main, ["solve", str(g), "--algo", "brute"])
    assert result.exit_code == 1


def test_solve_k2_greedy(runner, tmp_path):
    g = tmp_path / "tri.graph"
    write(g, TRIANGLE)
    result = runner.invoke(main, ["solve", str(g), "--algo", "brute",
                                  "--k", "2"])
    assert result.exit_code == 0
    inst = parse_instance(TRIANGLE)
    parse_partition(result.stdout, inst)  # must be a valid partition


def test_solve_k_requires_brute(runner, tmp_path):
    g = tmp_path / "tri.graph"
    write(g, TRIANGLE)
    result = runner.invoke(main, ["solve", str(g), "--k", "2"])
    assert result.exit_code == 2


def test_solve_emits_formula_files(runner, tmp_path):
    g = tmp_path / "edge.graph"
    write(g, NEG_EDGE)
    qdimacs = tmp_path / "out.qdimacs"
    result = runner.invoke(main, ["solve", str(g),
                                  "--emit-qdimacs", str(qdimacs)])
    assert result.exit_code == 0
    text = qdimacs.read_text()
    assert text.splitlines()[1].startswith("e ")


def test_solve_has_no_cnf_output(runner, tmp_path):
    # solve writes its formula only as QDIMACS; a CNF output is a usage error
    g = tmp_path / "edge.graph"
    write(g, NEG_EDGE)
    dimacs = tmp_path / "out.cnf"
    result = runner.invoke(main, ["solve", str(g), "--emit-dimacs",
                                  str(dimacs)])
    assert result.exit_code == 2
    assert "No such option" in result.output
    assert "--emit-dimacs" in result.output
    assert not dimacs.exists()
    help_text = runner.invoke(main, ["solve", "--help"]).output
    assert "--emit-qdimacs" in help_text
    assert "--emit-dimacs" not in help_text


def test_solve_qdimacs_keeps_transitivity_clauses(runner, tmp_path):
    g = tmp_path / "tri.graph"
    write(g, TRIANGLE)
    qdimacs = tmp_path / "out.qdimacs"
    result = runner.invoke(main, ["solve", str(g),
                                  "--emit-qdimacs", str(qdimacs)])
    assert result.exit_code == 0
    lines = qdimacs.read_text().splitlines()
    # x_01 = 1, x_02 = 2, x_12 = 3: one clause per middle vertex
    assert lines[0] == "c clauses 3"
    assert lines[2] == "e 1 2 3 0"
    assert lines[4:7] == ["-1 -2 3 0", "-1 -3 2 0", "-2 -3 1 0"]


def test_solve_brute_cap(runner, tmp_path):
    inst = AshgInstance(12, [])
    g = tmp_path / "big.graph"
    write(g, emit_instance(inst))
    result = runner.invoke(main, ["solve", str(g), "--algo", "brute"])
    assert result.exit_code == 3


def test_decompose_pace_output(runner, tmp_path):
    g = tmp_path / "tri.graph"
    write(g, TRIANGLE)
    result = runner.invoke(main, ["decompose", str(g)])
    assert result.exit_code == 0
    inst = parse_instance(TRIANGLE)
    td = read_td(result.stdout, inst)
    assert validate_td(inst, td) is None


def test_gen_gadget_files(runner, tmp_path):
    prefix = str(tmp_path / "gad")
    result = runner.invoke(main, ["gen", "gadget", "--out", prefix])
    assert result.exit_code == 0
    with open(prefix + ".graph") as fh:
        inst = parse_instance(fh.read())
    assert inst.n == 6
    with open(prefix + ".provenance") as fh:
        assert fh.readline().startswith("expected ")
    assert os.path.exists(prefix + ".partition")


def test_gen_partition_csv_files(runner, tmp_path):
    prefix = str(tmp_path / "pp")
    result = runner.invoke(main, ["gen", "partition-csv", "1", "1", "2",
                                  "--out", prefix])
    assert result.exit_code == 0
    with open(prefix + ".graph") as fh:
        inst = parse_instance(fh.read())
    with open(prefix + ".partition") as fh:
        P = parse_partition(fh.read(), inst)
    from ashg.verify import verify_bruteforce

    assert not verify_bruteforce(inst, P).stable


def test_gen_binpacking_and_ea(runner, tmp_path):
    result = runner.invoke(main, ["gen", "binpacking-csv", "1", "1", "2",
                                  "--k", "2", "--out", str(tmp_path / "bp")])
    assert result.exit_code == 0
    result = runner.invoke(main, ["gen", "eapartition-cs", "-a", "2",
                                  "-b", "1", "--out", str(tmp_path / "ea")])
    assert result.exit_code == 0
    assert not os.path.exists(str(tmp_path / "ea") + ".partition")


def test_gen_graph_based_commands(runner, tmp_path):
    src = tmp_path / "k3.graph"
    write(src, TRIANGLE)
    result = runner.invoke(main, ["gen", "bdd-csv", "--graph", str(src),
                                  "--dstar", "0", "--size", "1",
                                  "--out", str(tmp_path / "bdd")])
    assert result.exit_code == 0
    result = runner.invoke(main, ["gen", "clique-kcsv", "--graph", str(src),
                                  "--k", "3", "--out", str(tmp_path / "cl")])
    assert result.exit_code == 0
    result = runner.invoke(main, ["gen", "threecol-kcs", "--graph", str(src),
                                  "--out", str(tmp_path / "tc")])
    assert result.exit_code == 0
    assert os.path.exists(str(tmp_path / "tc") + ".partition")


def test_gen_threecol_rejects_dense_graph(runner, tmp_path):
    inst = AshgInstance(5, [(0, i, 1) for i in range(1, 5)])
    src = tmp_path / "star.graph"
    write(src, emit_instance(inst))
    result = runner.invoke(main, ["gen", "threecol-kcs", "--graph", str(src),
                                  "--out", str(tmp_path / "x")])
    assert result.exit_code == 2


def test_gen_sat33_files(runner, tmp_path):
    prefix = str(tmp_path / "sat")
    result = runner.invoke(main, ["gen", "sat33-cs", "--vars", "2",
                                  "--clause", "1 2", "--clause", "-1 -2",
                                  "--out", prefix])
    assert result.exit_code == 0
    assert os.path.exists(prefix + ".td")


def test_gen_sat33_bad_clause(runner, tmp_path):
    result = runner.invoke(main, ["gen", "sat33-cs", "--vars", "1",
                                  "--clause", "1 -1",
                                  "--out", str(tmp_path / "x")])
    assert result.exit_code == 2


def test_crossval_small_run(runner):
    result = runner.invoke(main, ["crossval", "--trials", "5"])
    assert result.exit_code == 0
    for name in ("partition", "binpacking", "bdd", "clique"):
        assert "%-12s 5/5 passed" % name in result.output


def test_crossval_bdd_reports_bad_weight(monkeypatch):
    # the verifier agrees with expected, so only the weight check can object
    def weight_two(n, edges, dstar, size):
        return GenResult(AshgInstance(2, [(0, 1, 2)]), Partition.singletons(2),
                         expected=False)

    monkeypatch.setattr(cli, "gen_bdd_csv", weight_two)
    ok, case = cli._crossval_bdd(random.Random(0))
    assert not ok
    assert case[0] == "bdd-csv"


def test_crossval_cap_exit_3(runner, monkeypatch):
    # exit 1 is kept for disagreements; a cap hit in a suite exits 3
    def capped(values):
        raise ResourceLimitError("vc_guesses", 1)

    monkeypatch.setattr(cli, "gen_partition_csv", capped)
    result = runner.invoke(main, ["crossval", "--trials", "1"])
    assert result.exit_code == 3, result.output
    assert "resource cap exceeded" in result.output


def test_crossval_deterministic(runner):
    a = runner.invoke(main, ["crossval", "--trials", "3", "--seed", "7"])
    b = runner.invoke(main, ["crossval", "--trials", "3", "--seed", "7"])
    assert a.output == b.output


@pytest.mark.parametrize("option", ["--trials"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_crossval_rejects_non_positive_counts(runner, option, value):
    result = runner.invoke(main, ["crossval", option, value])
    assert result.exit_code == 2, result.output

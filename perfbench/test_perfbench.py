"""Checks of the benchmark itself: a wrong answer from the library fails
the run, size counters repeat exactly for a seed, and a directory without
the library's sources is refused."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Runs the benchmark with some library entry points replaced after import.
PLANTED = """
import sys
sys.path.insert(0, "perfbench")
import run
load = run.load_ashg
def planted(root):
    mods = load(root)
%s
    return mods
run.load_ashg = planted
sys.exit(run.main(sys.argv[1:]))
"""

WRONG_VERDICT = """
    E = mods.existence
    E.solve_cs = lambda inst, **kw: E.CsResult(E.NOT_EXISTS)
"""

UNSTABLE_PARTITION = """
    E = mods.existence
    E.solve_cs = lambda inst, **kw: E.CsResult(
        E.EXISTS, mods.instance.Partition.singletons(inst.n))
"""

FLIPPED_VERIFIER = """
    V = mods.verify
    real = V.verify_vertexcover
    def flipped(inst, P, **kw):
        res = real(inst, P, **kw)
        if res.stable:
            return V.VerificationResult(V.UNSTABLE, frozenset(inst.vertices()))
        return V.VerificationResult(V.STABLE)
    V.verify_vertexcover = flipped
"""


def bench(args, plant=None, cwd=ROOT):
    if plant is None:
        cmd = [sys.executable, "perfbench/run.py"]
    else:
        cmd = [sys.executable, "-c", PLANTED % plant]
    return subprocess.run(cmd + args, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,plant", [
    ("cs-dense", WRONG_VERDICT),
    ("cs-dense", UNSTABLE_PARTITION),
    ("verify-mix", FLIPPED_VERIFIER),
])
def test_planted_wrong_answer_fails_the_run(workload, plant):
    proc = bench(["--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", "0"], plant)
    assert proc.returncode == 1, proc.stderr
    assert result_line(proc)["correct"] is False
    assert "MISMATCH" in proc.stderr


def test_counts_repeat_for_a_seed():
    args = ["--workload", "verify-mix", "--seed", "7", "--seconds", "0",
            "--trace", "1"]
    runs = [bench(args) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    first, second = (result_line(p) for p in runs)
    assert first["correct"] and first["failed"] == 0
    counts = {k for k, m in first["metrics"].items() if m["unit"] == "count"}
    assert "verify.verify_bruteforce.examined" in counts
    assert first["metrics"]["verify.verify_bruteforce.examined"]["value"] > 0
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(["--workload", "cs-dense", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_dense_weights_follow_the_population():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import SHAPES, population_size
    four = {s: population_size(s) for s, (n, _) in SHAPES.items() if n == 4}
    assert sum(four.values()) == 45750
    assert four == {"P4": 1500, "star": 500, "C4": 1875, "paw": 7500,
                    "diamond": 18750, "K4": 15625}


def test_tail_lies_above_the_median():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import tail_rank, weighted_median
    assert tail_rank(5) == 4 and tail_rank(11) == 10 and tail_rank(20) == 19
    assert tail_rank(21) == 10 and tail_rank(261) == 250
    assert weighted_median([3.0, 1.0, 2.0], [1, 1, 1]) == 2.0
    assert weighted_median([0.1, 5.0, 9.0], [0.2, 0.5, 0.3]) == 5.0


def test_an_input_timed_often_keeps_its_median_timing():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import input_latencies
    from types import SimpleNamespace as NS
    plan = NS(items=[NS(group=0, weight=0.25, calls=1), NS(group=None, weight=0.5, calls=2),
                     NS(group=0, weight=0.25, calls=1)])
    log = NS(latencies=[[3.0, 2.5], [1.0, 0.5], [2.0, 9.0, 2.75]])
    assert sorted(input_latencies(plan, log)) == [(0.5, 1, 2.75), (0.5, 2, 0.75)]

import random

import pytest
from hypothesis import given, settings, strategies as st

from ashg.errors import ParseError
from ashg.instance import AshgInstance
from ashg.treedecomp import (TreeDecomposition, emit_td, heuristic_decompose,
                             read_td, validate_td)


def cycle(n):
    return AshgInstance(n, [(i, (i + 1) % n, 1) for i in range(n)])


def path(n):
    return AshgInstance(n, [(i, i + 1, 1) for i in range(n - 1)])


def k4():
    return AshgInstance(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])


@st.composite
def instances(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                edges.append((u, v, 1))
    return AshgInstance(n, edges)


def test_validate_accepts_trivial_bag():
    inst = k4()
    td = TreeDecomposition([{0, 1, 2, 3}], [])
    assert validate_td(inst, td) is None


def test_validate_missing_vertex():
    inst = path(3)
    td = TreeDecomposition([{0, 1}], [])
    assert "occurs in no bag" in validate_td(inst, td)


def test_validate_uncovered_edge():
    inst = cycle(3)
    td = TreeDecomposition([{0, 1}, {1, 2}, {2, 0}], [(0, 1), (1, 2)])
    # subtree connectivity for 0 is also violated; either report is fine
    assert validate_td(inst, td) is not None


def test_validate_disconnected_occurrences():
    inst = path(3)
    td = TreeDecomposition([{0, 1}, {1, 2}, {0, 2}], [(0, 1), (1, 2)])
    assert "disconnected" in validate_td(inst, td)


def test_validate_non_tree():
    inst = path(2)
    td = TreeDecomposition([{0, 1}, {0, 1}], [])
    assert "tree" in validate_td(inst, td)


def test_validate_occurrence_connectivity_random():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 6)
        k = rng.randint(1, 7)
        label = rng.sample(range(k), k)
        tree = [(label[rng.randrange(i)], label[i]) for i in range(1, k)]
        bags = [{v for v in range(n) if rng.random() < 0.4} for _ in range(k)]
        for v in range(n):
            bags[rng.randrange(k)].add(v)
        edges = {(u, v) for b in bags for u in b for v in b
                 if u < v and rng.random() < 0.5}
        inst = AshgInstance(n, [(u, v, 1) for u, v in sorted(edges)])
        td = TreeDecomposition(bags, tree)
        expected = None
        for v in range(n):
            nodes = {i for i in range(k) if v in bags[i]}
            start = min(nodes)
            seen = {start}
            queue = [start]
            for i in queue:
                for j in td.tree[i]:
                    if j in nodes and j not in seen:
                        seen.add(j)
                        queue.append(j)
            if seen != nodes:
                expected = "occurrences of vertex %r are disconnected" % (v,)
                break
        assert validate_td(inst, td) == expected


def test_validate_edge_coverage_random():
    # each vertex's bags grow as a connected subtree, so only an edge can
    # be reported; the reference scans every bag for every edge
    rng = random.Random(11)
    reported = 0
    for _ in range(500):
        n = rng.randint(1, 7)
        k = rng.randint(1, 7)
        label = rng.sample(range(k), k)
        tree = [(label[rng.randrange(i)], label[i]) for i in range(1, k)]
        parent = {child: p for p, child in tree}
        bags = [set() for _ in range(k)]
        for v in range(n):
            # label lists every bag after its parent
            start = rng.randrange(k)
            grown = {label[start]}
            for i in label[start + 1:]:
                if parent[i] in grown and rng.random() < 0.6:
                    grown.add(i)
            for i in grown:
                bags[i].add(v)
        td = TreeDecomposition(bags, tree)
        inst = AshgInstance(n, [(u, v, 1) for u in range(n)
                                for v in range(u + 1, n) if rng.random() < 0.4])
        expected = next(("edge (%r,%r) covered by no bag" % (u, v)
                         for u, v, _ in inst.edges
                         if not any(u in b and v in b for b in td.bags)),
                        None)
        assert validate_td(inst, td) == expected
        reported += expected is not None
    assert 100 < reported < 400


def test_tree_decomposes_to_width_one():
    # star plus a pendant path
    inst = AshgInstance(6, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (3, 4, 1), (4, 5, 1)])
    td = heuristic_decompose(inst)
    assert validate_td(inst, td) is None
    assert td.width == 1


def test_k4_width_three():
    td = heuristic_decompose(k4())
    assert validate_td(k4(), td) is None
    assert td.width == 3


def test_c5_min_degree_width_two():
    inst = cycle(5)
    td = heuristic_decompose(inst)
    assert validate_td(inst, td) is None
    assert td.width == 2


@settings(max_examples=60)
@given(instances())
def test_heuristics_always_valid(inst):
    td = heuristic_decompose(inst)
    assert validate_td(inst, td) is None
    assert td.width <= inst.n - 1


def test_pace_round_trip():
    inst = cycle(5)
    td = heuristic_decompose(inst)
    back = read_td(emit_td(td, inst.n), inst)
    assert [set(b) for b in back.bags] == [set(b) for b in td.bags]
    assert sorted(back.tree_edges()) == sorted(td.tree_edges())


def test_read_td_errors():
    inst = path(2)
    with pytest.raises(ParseError):
        read_td("b 1 1 2\n", inst)  # bag before header
    with pytest.raises(ParseError):
        read_td("s td 2 2 2\nb 1 1 2\nb 2 1 2\n", inst)  # missing tree edge
    with pytest.raises(ParseError):
        read_td("s td 1 2 2\nb 1 1 3\n", inst)  # vertex out of range
    with pytest.raises(ParseError):
        read_td("s td 2 2 2\nb 1 1 2\nb 2 1 2\n1 1\n", inst)  # not a tree


def test_read_td_non_integer_fields():
    inst = path(2)
    for bad in ("s td x 2 2\nb 1 1 2\n",  # non-integer header
                "s td 1 2 2\nb x 1\n",  # non-integer bag id
                "s td 1 2 2\nb 1 1 y\n",  # non-integer vertex
                "s td 1 2 2\nb\n",  # bag without id
                "s td 2 2 2\nb 1 1 2\nb 2 1 2\n1 x\n"):  # tree edge
        with pytest.raises(ParseError):
            read_td(bad, inst)


def test_read_td_checks_header_sizes():
    inst = path(3)
    assert read_td("s td 1 3 3\nb 1 1 2 3\n", inst).width == 2
    for bad in ("s td 1 1 99\nb 1 1 2 3\n",  # both fields wrong
                "s td 1 2 3\nb 1 1 2 3\n",  # bag larger than max-bag-size
                "s td 1 3 4\nb 1 1 2 3\n",  # vertex count is not n
                "s td 1 3 2\nb 1 1 2 3\n"):
        with pytest.raises(ParseError):
            read_td(bad, inst)

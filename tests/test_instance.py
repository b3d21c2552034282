import pytest
from hypothesis import given, settings, strategies as st

from ashg.errors import ParseError, PreconditionError
from ashg.instance import (AshgInstance, Partition, emit_instance,
                           emit_partition, is_blocking, iter_partitions,
                           parse_instance, parse_partition,
                           partition_utility, utility)
from ashg.treedecomp import read_td


def triangle(w=1):
    return AshgInstance(3, [(0, 1, w), (1, 2, w), (0, 2, w)])


def random_instance(draw, max_n=8, max_w=5):
    n = draw(st.integers(1, max_n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                edges.append((u, v, draw(st.integers(-max_w, max_w))))
    return AshgInstance(n, edges)


@st.composite
def instances(draw, max_n=8, max_w=5):
    return random_instance(draw, max_n, max_w)


@st.composite
def instance_with_partition(draw, max_n=8, max_w=5):
    inst = random_instance(draw, max_n, max_w)
    labels = [draw(st.integers(0, inst.n - 1)) for _ in range(inst.n)]
    blocks = {}
    for u, b in enumerate(labels):
        blocks.setdefault(b, set()).add(u)
    return inst, Partition(list(blocks.values()), inst.n)


def test_utility_triangle():
    assert utility(triangle(), {0, 1, 2}, 0) == 2


def test_utility_singleton_is_zero():
    assert utility(triangle(), {1}, 1) == 0


def test_utility_negative_edge():
    inst = AshgInstance(2, [(0, 1, -7)])
    assert utility(inst, {0, 1}, 1) == -7


def test_utility_requires_membership():
    with pytest.raises(PreconditionError):
        utility(triangle(), {0, 1}, 2)


def test_partition_utility():
    inst = triangle()
    P = Partition([{0, 1}, {2}], 3)
    assert partition_utility(inst, P, 0) == 1
    assert partition_utility(inst, P, 2) == 0
    grand = Partition([{0, 1, 2}], 3)
    assert partition_utility(inst, grand, 2) == 2


def test_is_blocking_examples():
    inst = triangle()
    singletons = Partition([{0}, {1}, {2}], 3)
    assert is_blocking(inst, singletons, {0, 1, 2})
    assert not is_blocking(inst, singletons, {0})
    edge = AshgInstance(2, [(0, 1, 1)])
    assert not is_blocking(edge, Partition([{0, 1}], 2), {0, 1})


def test_is_blocking_rejects_empty():
    with pytest.raises(PreconditionError):
        is_blocking(triangle(), Partition([{0}, {1}, {2}], 3), set())


def test_zero_weight_edges_count_for_connectivity():
    # decode_partition reads its blocks off components_of, so a zero-weight
    # edge must still join its ends
    inst = AshgInstance(2, [(0, 1, 0)])
    assert len(inst.components_of({0, 1})) == 1


@given(instances(max_n=6))
def test_handshake_identity(inst):
    X = set(range(inst.n))
    inside = sum(w for u, v, w in inst.edges)
    assert sum(utility(inst, X, u) for u in X) == 2 * inside


@given(instance_with_partition(max_n=6))
def test_blocking_component_property(data):
    # a disconnected blocking coalition always has a blocking component
    inst, P = data
    from itertools import combinations

    for size in range(2, inst.n + 1):
        for combo in combinations(range(inst.n), size):
            X = set(combo)
            if inst.is_connected_set(X) or not is_blocking(inst, P, X):
                continue
            comps = []
            left = set(X)
            while left:
                comp = {next(iter(left))}
                frontier = list(comp)
                while frontier:
                    u = frontier.pop()
                    for v in inst.neighbors(u):
                        if v in left and v not in comp:
                            comp.add(v)
                            frontier.append(v)
                comps.append(comp)
                left -= comp
            assert any(is_blocking(inst, P, c) for c in comps)
            return


def test_parse_instance_basic():
    inst = parse_instance("p ashg 2 1\ne 0 1 5\n")
    assert inst.n == 2 and list(inst.edges) == [(0, 1, 5)]


def test_parse_partition_basic():
    inst = AshgInstance(3, [])
    P = parse_partition("0 1\n2\n", inst)
    assert sorted(sorted(b) for b in P.blocks) == [[0, 1], [2]]


def test_parse_partition_missing_vertex():
    inst = AshgInstance(3, [])
    with pytest.raises(ParseError):
        parse_partition("0 1\n", inst)


def test_parse_instance_errors():
    with pytest.raises(ParseError):
        parse_instance("e 0 1 5\n")
    with pytest.raises(ParseError):
        parse_instance("p ashg 2 1\ne 0 2 5\n")
    with pytest.raises(ParseError):
        parse_instance("p ashg 2 2\ne 0 1 5\ne 1 0 3\n")
    with pytest.raises(ParseError):
        parse_instance("p ashg 2 1\ne 0 0 5\n")


def test_parse_instance_rejects_oversized_vertex_count():
    # refused from the header alone, before any adjacency is built
    from ashg.instance import MAX_VERTICES

    for n in (MAX_VERTICES + 1, 10 ** 10):
        with pytest.raises(ParseError):
            parse_instance("p ashg %d 0\n" % n)


def test_parse_instance_non_integer_scale():
    with pytest.raises(ParseError):
        parse_instance("p ashg 2 1\ns scale x\ne 0 1 5\n")


# lines of the instance, partition and .td formats with fields that are
# integers, junk or missing
_format_lines = st.tuples(
    st.sampled_from(["p ashg", "s scale", "s td", "e", "b", "", "c"]),
    st.lists(st.one_of(st.integers(-1, 4).map(str),
                       st.sampled_from(["x", "1.5", "1e3"])), max_size=5),
).map(lambda head_fields: " ".join((head_fields[0], *head_fields[1])))


@settings(max_examples=500)
@given(st.one_of(st.text(),
                 st.lists(_format_lines, max_size=8).map("\n".join)))
def test_parsers_raise_only_parse_error(text):
    inst = AshgInstance(3, [(0, 1, 1)])
    for parse in (parse_instance, lambda t: parse_partition(t, inst),
                  lambda t: read_td(t, inst)):
        try:
            parse(text)
        except ParseError:
            pass


@given(instances())
def test_instance_round_trip(inst):
    back = parse_instance(emit_instance(inst))
    assert back.n == inst.n
    assert sorted(back.edges) == sorted(inst.edges)


@given(instance_with_partition())
def test_partition_round_trip(data):
    inst, P = data
    back = parse_partition(emit_partition(P), inst)
    assert sorted(sorted(b) for b in back.blocks) == \
        sorted(sorted(b) for b in P.blocks)


def test_iter_partitions_counts_bell_numbers():
    for n, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        assert sum(1 for _ in iter_partitions(n)) == bell

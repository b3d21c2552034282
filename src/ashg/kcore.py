"""k-core stability: bounded verification and the greedy 2-core
constructor.  Bounded-coalition existence search is
ashg.existence.solve_cs_bruteforce with k."""

from ashg.errors import PreconditionError
from ashg.instance import Partition
from ashg.verify import verify_bruteforce


def verify_kcore(inst, P, k, cap=None):
    """No blocking coalition of size at most k."""
    if k < 1:
        raise PreconditionError("k must be at least 1")
    return verify_bruteforce(inst, P, max_size=k, cap=cap)


def greedy_2core(inst):
    """A 2-core stable partition, which always exists.

    Walk the positive edges by non-increasing weight and merge an edge's
    endpoints only when both are still singletons.
    """
    positive = [(u, v, w) for u, v, w in inst.edges if w > 0]
    positive.sort(key=lambda e: (-e[2], e[0], e[1]))
    paired = {}
    for u, v, w in positive:
        if u not in paired and v not in paired:
            paired[u] = v
            paired[v] = u
    blocks = []
    for u in inst.vertices():
        if u not in paired:
            blocks.append({u})
        elif u < paired[u]:
            blocks.append({u, paired[u]})
    return Partition(blocks, inst.n)

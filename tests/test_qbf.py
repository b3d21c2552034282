import random

import pytest

from ashg.errors import ResourceLimitError
from ashg.qbf import (QbfEA, _primal_graph, decide_ea, eval_bruteforce,
                      to_qdimacs)


def random_formula(rng, max_vars=10, max_width=5):
    nx = rng.randint(0, max_vars)
    ny = rng.randint(0, max_vars - nx)
    xs = tuple(range(1, nx + 1))
    ys = tuple(range(nx + 1, nx + ny + 1))
    cnf = []
    if xs:
        for _ in range(rng.randint(0, 4)):
            picks = rng.sample(xs, min(len(xs), rng.randint(1, 3)))
            cnf.append(tuple(v if rng.random() < 0.5 else -v for v in picks))
    allv = xs + ys
    dnf = []
    if allv:
        for _ in range(rng.randint(1, 5)):
            picks = rng.sample(allv, min(len(allv), rng.randint(1, max_width)))
            dnf.append(tuple(v if rng.random() < 0.5 else -v for v in picks))
    return QbfEA(xs, ys, tuple(dnf), tuple(cnf))


def model_holds(q, model):
    """True when model satisfies q's clauses and every y makes a term true."""
    if any(not any(model[abs(l)] == (l > 0) for l in cl) for cl in q.cnf):
        return False
    for ybits in range(1 << len(q.y_vars)):
        value = dict(model)
        value.update((y, bool(ybits >> i & 1)) for i, y in enumerate(q.y_vars))
        if not any(all(value[abs(l)] == (l > 0) for l in t) for t in q.dnf):
            return False
    return True


def test_formula_validation():
    with pytest.raises(ValueError):
        QbfEA((1,), (1,), ())  # shared variable
    with pytest.raises(ValueError):
        QbfEA((1,), (2,), (), ((2,),))  # clause over a universal variable
    with pytest.raises(ValueError):
        QbfEA((1,), (), ((5,),))  # term over an unknown variable
    with pytest.raises(ValueError):
        QbfEA((1,), (2,), ((1, -2), (-3,)))  # the same, among good terms
    # clauses and terms of any width are accepted
    QbfEA((1, 2, 3, 4), (5,), ((1, 2, 3, 4, 5),), ((1, 2, 3, 4),))


def test_eval_bruteforce_basics():
    # forall y (y) is false
    assert eval_bruteforce(QbfEA((), (1,), ((1,),)))[0] is False
    # exists x (x)
    sat, wit = eval_bruteforce(QbfEA((1,), (), ((1,),)))
    assert sat and wit == {1: True}
    # exists x forall y: (x and y) or (x and not y)
    sat, wit = eval_bruteforce(QbfEA((1,), (2,), ((1, 2), (1, -2))))
    assert sat and wit[1] is True


def test_eval_bruteforce_cap():
    xs = tuple(range(1, 30))
    with pytest.raises(ResourceLimitError):
        eval_bruteforce(QbfEA(xs, (), ((1,),)), cap=24)


def test_qbf_to_cnf_compiles_wide_terms():
    # terms of up to 6 literals go to decide_ea unsplit
    rng = random.Random(66)
    wide = 0
    for _ in range(100):
        q = random_formula(rng, max_vars=10, max_width=6)
        wide += any(len(t) > 3 for t in q.dnf)
        sat, model = decide_ea(q)
        assert sat == eval_bruteforce(q)[0], q
        if sat:
            assert model_holds(q, model), q
    assert wide > 50


def test_carried_clause_decides_the_verdict():
    # exists x1: (-x1) and forall (): (x1) is false only through the clause
    q = QbfEA((1,), (), ((1,),), ((-1,),))
    assert eval_bruteforce(q)[0] is False
    assert decide_ea(q) == (False, None)


def test_clause_variables_sharing_no_term_get_a_bag():
    # x1 and x2 share no term: only the clause's clique joins them
    q = QbfEA((1, 2), (3,), ((1, 3), (1, -3), (2,)), ((-1, -2),))
    sat, model = decide_ea(q)
    assert sat is eval_bruteforce(q)[0] is True
    assert model_holds(q, model)
    assert 2 in _primal_graph(q)[1]


def test_decide_ea_matches_bruteforce():
    rng = random.Random(777)
    verdicts = set()
    for _ in range(2000):
        q = random_formula(rng, max_vars=10)
        sat, model = decide_ea(q)
        assert sat == eval_bruteforce(q)[0], q
        if sat:
            assert set(model) == set(q.x_vars)
            assert model_holds(q, model), q
        else:
            assert model is None
        verdicts.add(sat)
    assert verdicts == {True, False}


@pytest.mark.parametrize("q, sat", [
    (QbfEA((1,), (2,), ((),)), True),  # an empty term is true
    (QbfEA((1,), (2,), ((), (2,)), ((-1,),)), True),
    (QbfEA((1,), (2,), ((),), ((1,), (-1,))), False),  # clauses still count
    (QbfEA((1,), (2,), ()), False),  # no terms
    (QbfEA((), (), ()), False),
    (QbfEA((), (), ((),)), True),
    (QbfEA((1, 2), (), ((1, -2),), ((1, 2),)), True),  # no universals
    (QbfEA((1, 2), (), ((1, -2),), ((-1,),)), False),
    (QbfEA((), (1, 2), ((1,), (-1, 2), (-1, -2))), True),  # no existentials
    (QbfEA((), (1, 2), ((1,), (-1, 2))), False),
    (QbfEA((1,), (2,), ((1, 2), (1, -2)), ((),)), False),  # an empty clause
    (QbfEA((1,), (2,), ((1, 2), (1, -2)), ((1, -1),)), True),  # tautology
    (QbfEA((1,), (2,), ((1, -1, 2), (2,), (-2,))), True),  # contradiction
    (QbfEA((1,), (2,), ((1, -1), (2,))), False),
])
def test_decide_ea_edge_cases(q, sat):
    assert eval_bruteforce(q)[0] is sat
    got, model = decide_ea(q)
    assert got is sat
    if sat:
        assert model_holds(q, model)


def test_decide_ea_disconnected_primal_graph():
    # components {1, 3} and {2, 4}: the second covers every y_4 only with
    # x_2 true, and the first must still satisfy its clause with x_1 false
    q = QbfEA((1, 2), (3, 4), ((1, 3), (2, 4), (2, -4)), ((-1,),))
    sat, model = decide_ea(q)
    assert sat is True
    assert model == {1: False, 2: True}
    # without the second component no root reaches F = 0
    q = QbfEA((1, 2), (3, 4), ((1, 3), (2, 4)), ((-1,),))
    assert eval_bruteforce(q)[0] is False
    assert decide_ea(q) == (False, None)
    # an isolated variable is a component of its own
    q = QbfEA((1, 2), (3, 4), ((2, 4), (2, -4)))
    sat, model = decide_ea(q)
    assert sat is True and set(model) == {1, 2} and model[2] is True


def test_decide_ea_reports_sizes_and_caps_memory():
    q = QbfEA((1, 2), (3, 4, 5), ((1, 3, 4), (-1, 5), (2, -3), (-2, -4, -5)))
    stats = {}
    assert decide_ea(q, stats=stats)[0] is eval_bruteforce(q)[0]
    assert stats["t_exists"] >= 1 and stats["t_forall"] >= 1
    assert stats["states"] > 0
    with pytest.raises(ResourceLimitError):
        decide_ea(q, max_states=2)


def test_to_qdimacs():
    q = QbfEA((1,), (2,), ((1, 2), (1, -2)))
    text = to_qdimacs(q)
    assert text.splitlines() == ["p cnf 2 2", "e 1 0", "a 2 0",
                                 "1 2 0", "1 -2 0"]
    # carried clauses come first, counted in a leading comment
    q = QbfEA((1, 2), (3,), ((1, 3),), ((-1, 2), (1,)))
    assert to_qdimacs(q).splitlines() == [
        "c clauses 2", "p cnf 3 3", "e 1 2 0", "a 3 0",
        "-1 2 0", "1 0", "1 3 0"]

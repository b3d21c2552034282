import random

import pytest

from ashg.errors import PreconditionError, ResourceLimitError
from ashg.qbf import (Cnf, E3CnfFDnf, QbfEA, eval_bruteforce,
                      fresh_primal_td, qbf_to_cnf, sat_treewidth,
                      split_to_3dnf, to_dimacs, to_qdimacs)
from ashg.treedecomp import TreeDecomposition, elimination_td


def carry(phi):
    """The E3CnfFDnf formula with its clauses carried beside its terms."""
    return QbfEA(phi.x_vars, phi.y_vars, phi.dnf, phi.cnf)


def run_chain(phi):
    """Full compilation pipeline verdict for an E3CnfFDnf formula."""
    q3, _ = split_to_3dnf(carry(phi))
    cnf, ctd = qbf_to_cnf(q3, fresh_primal_td(q3))
    sat, model = sat_treewidth(cnf, ctd)
    return sat


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
    return E3CnfFDnf(xs, ys, tuple(cnf), tuple(dnf))


def test_formula_validation():
    with pytest.raises(ValueError):
        E3CnfFDnf((1,), (1,), (), ())  # shared variable
    with pytest.raises(ValueError):
        E3CnfFDnf((1,), (2,), ((2,),), ())  # cnf over universal var
    with pytest.raises(ValueError):
        E3CnfFDnf((1, 2, 3, 4), (), ((1, 2, 3, 4),), ())  # wide clause
    with pytest.raises(ValueError):
        E3CnfFDnf((1,), (), (), ((5,),))  # unknown variable


def test_eval_bruteforce_basics():
    # forall y (y) is false
    assert eval_bruteforce(E3CnfFDnf((), (1,), (), ((1,),)))[0] is False
    # exists x (x)
    sat, wit = eval_bruteforce(E3CnfFDnf((1,), (), (), ((1,),)))
    assert sat and wit == {1: True}
    # exists x forall y: (x and y) or (x and not y)
    sat, wit = eval_bruteforce(QbfEA((1,), (2,), ((1, 2), (1, -2))))
    assert sat and wit[1] is True


def test_eval_bruteforce_cap():
    xs = tuple(range(1, 30))
    with pytest.raises(ResourceLimitError):
        eval_bruteforce(E3CnfFDnf(xs, (), (), ((1,),)), cap=24)


def test_split_fixpoint_on_3dnf():
    q = QbfEA((), (1, 2, 3), ((1, 2, 3),))
    q3, _ = split_to_3dnf(q)
    assert q3.is_3dnf and len(q3.terms) == 1
    assert q3.y_vars == q.y_vars


def test_split_width4_term():
    q = QbfEA((), (1, 2, 3, 4), ((1, 2, 3, 4),))
    q3, _ = split_to_3dnf(q)
    assert q3.is_3dnf
    assert len(q3.terms) == 2
    assert len(q3.y_vars) == len(q.y_vars) + 1
    assert eval_bruteforce(q3)[0] == eval_bruteforce(q)[0]


def test_split_random_wide_terms():
    rng = random.Random(77)
    for _ in range(60):
        nv = rng.randint(4, 8)
        xs = tuple(range(1, rng.randint(0, 2) + 1))
        ys = tuple(range(len(xs) + 1, nv + 1))
        allv = xs + ys
        terms = []
        for _ in range(rng.randint(1, 3)):
            picks = rng.sample(allv, rng.randint(2, min(6, len(allv))))
            terms.append(tuple(v if rng.random() < 0.5 else -v for v in picks))
        q = QbfEA(xs, ys, tuple(terms))
        q3, _ = split_to_3dnf(q)
        assert q3.is_3dnf
        assert eval_bruteforce(q3)[0] == eval_bruteforce(q)[0]


def test_qbf_to_cnf_no_universals():
    q = QbfEA((1, 2), (), ((1, -2), (-1, 2)))
    cnf, td = qbf_to_cnf(q, fresh_primal_td(q))
    assert sat_treewidth(cnf, td)[0] is True


def test_qbf_to_cnf_simple_sat():
    q = QbfEA((1,), (2,), ((1, 2), (1, -2)))
    cnf, td = qbf_to_cnf(q, fresh_primal_td(q))
    assert sat_treewidth(cnf, td)[0] is True


def test_qbf_to_cnf_simple_unsat():
    q = QbfEA((), (1,), ((1,),))
    cnf, td = qbf_to_cnf(q, fresh_primal_td(q))
    assert sat_treewidth(cnf, td)[0] is False


def test_qbf_to_cnf_compiles_wide_terms():
    # terms of up to 6 literals go to the compile unsplit
    rng = random.Random(66)
    wide = 0
    for _ in range(100):
        q = carry(random_formula(rng, max_vars=10, max_width=6))
        wide += any(len(t) > 3 for t in q.terms)
        cnf, ctd = qbf_to_cnf(q, fresh_primal_td(q))
        assert sat_treewidth(cnf, ctd)[0] == eval_bruteforce(q)[0]
    assert wide > 50


def test_sat_treewidth_basics():
    td = TreeDecomposition([{1}], [])
    assert sat_treewidth(Cnf([(1,), (-1,)], 1), td)[0] is False
    sat, model = sat_treewidth(Cnf([], 0), TreeDecomposition([set()], []))
    assert sat is True
    assert sat_treewidth(Cnf([(1, -2), (2,)], 2),
                         TreeDecomposition([{1, 2}], []))[0]


def test_sat_treewidth_clause_not_covered():
    td = TreeDecomposition([{1}, {2}], [(0, 1)])
    with pytest.raises(PreconditionError):
        sat_treewidth(Cnf([(1, 2)], 2), td)


def test_sat_treewidth_random_3cnf():
    rng = random.Random(8)
    for _ in range(40):
        nv = 12
        clauses = []
        for _ in range(rng.randint(1, 40)):
            picks = rng.sample(range(1, nv + 1), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v
                                 for v in picks))
        cnf = Cnf(clauses, nv)
        adj = {v: set() for v in range(1, nv + 1)}
        for cl in clauses:
            for a in cl:
                adj[abs(a)] |= {abs(b) for b in cl if abs(b) != abs(a)}
        td = elimination_td(adj)
        exhaustive = any(
            all(any((bits >> (abs(l) - 1) & 1) == (l > 0) for l in cl)
                for cl in clauses)
            for bits in range(1 << nv))
        sat, model = sat_treewidth(cnf, td)
        assert sat == exhaustive
        if sat:
            for cl in clauses:
                assert any(model[abs(l)] == (l > 0) for l in cl)


def test_end_to_end_random():
    rng = random.Random(1234)
    for _ in range(100):
        phi = random_formula(rng, max_vars=8)
        assert run_chain(phi) == eval_bruteforce(phi)[0]


def test_cnf_size_bound():
    rng = random.Random(55)
    for _ in range(40):
        phi = random_formula(rng, max_vars=8)
        q3, _ = split_to_3dnf(carry(phi))
        cnf, ctd = qbf_to_cnf(q3, fresh_primal_td(q3))
        s = ctd.stats
        bound = 24 * s["sum_pow_univ"] * (s["t_exists"] + s["t_forall"] + 1)
        assert len(cnf.clauses) <= bound


def test_carried_clause_decides_the_verdict():
    # exists x1: (-x1) and forall (): (x1) is false only through the clause
    phi = E3CnfFDnf((1,), (), ((-1,),), ((1,),))
    assert eval_bruteforce(phi)[0] is False
    assert eval_bruteforce(carry(phi))[0] is False
    assert run_chain(phi) is False


def test_clause_variables_sharing_no_term_get_a_bag():
    # x1 and x2 share no term: only the clause's clique puts them in one bag
    phi = E3CnfFDnf((1, 2), (3,), ((-1, -2),), ((1, 3), (1, -3), (2,)))
    assert run_chain(phi) is eval_bruteforce(phi)[0] is True
    q3, _ = split_to_3dnf(carry(phi))
    assert any({1, 2} <= b for b in fresh_primal_td(q3).bags)


def test_split_carries_clauses():
    q = QbfEA((1,), (2, 3, 4), ((1, 2, 3, 4),), ((-1,),))
    q3, _ = split_to_3dnf(q)
    assert q3.cnf == q.cnf
    with pytest.raises(ValueError):
        QbfEA((1,), (2,), (), ((2,),))  # clause over a universal variable


def test_to_dimacs():
    cnf = Cnf([(1, -2), (2,)], 2)
    assert to_dimacs(cnf) == "p cnf 2 2\n1 -2 0\n2 0\n"


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

"""``Solver.copy`` + ``add_unit``: a fresh solve without re-adding clauses.

A copy of a never-solved template with unit literals added must behave
exactly like a solver built from the CNF with those unit clauses
appended — same answer, same model, same search — and solving the copy
must leave the template as it was.
"""

import copy
import random

import pytest

from repro.atpg.cnf import CNF
from repro.atpg.sat import Solver


def _random_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CNF:
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


def _random_units(rng: random.Random, num_vars: int) -> list[int]:
    # repeats and contradictions included: both occur in path queries
    return [
        rng.choice((1, -1)) * rng.randint(1, num_vars)
        for _ in range(rng.randint(0, 6))
    ]


def _with_units(cnf: CNF, units: list[int]) -> CNF:
    out = CNF(cnf.num_vars)
    out.add_clauses(cnf.clauses)
    for lit in units:
        out.add_clause([lit])
    return out


def _state(solver: Solver) -> dict:
    return copy.deepcopy(
        {
            name: getattr(solver, name)
            for name in (
                "_clauses", "_watches", "_assign", "_phase", "_activity",
                "_units", "_trail", "_var_inc", "_ok", "_epoch",
            )
        }
        | {"stats": solver.stats.to_dict()}
    )


@pytest.mark.parametrize("seed", range(40))
def test_copy_plus_units_equals_fresh_solver(seed):
    rng = random.Random(seed)
    num_vars = rng.randint(20, 40)
    cnf = _random_cnf(rng, num_vars, int(num_vars * rng.uniform(3.8, 4.6)))
    template = Solver(cnf)
    for _ in range(5):
        units = _random_units(rng, num_vars)
        query = template.copy()
        for lit in units:
            query.add_unit(lit)
        got = query.solve()
        want = Solver(_with_units(cnf, units)).solve()
        assert (got.sat, got.model, got.conflicts, got.decisions) == (
            want.sat, want.model, want.conflicts, want.decisions,
        )


def test_the_fuzz_reaches_conflicts():
    """The equivalence above is only meaningful if search happens."""
    conflicts = 0
    for seed in range(40):
        rng = random.Random(seed)
        num_vars = rng.randint(20, 40)
        cnf = _random_cnf(rng, num_vars, int(num_vars * rng.uniform(3.8, 4.6)))
        conflicts += Solver(cnf).solve().conflicts
    assert conflicts > 100


@pytest.mark.parametrize("seed", range(10))
def test_solving_a_copy_leaves_the_template_untouched(seed):
    rng = random.Random(seed)
    cnf = _random_cnf(rng, 30, 128)
    template = Solver(cnf)
    before = _state(template)
    for _ in range(3):
        query = template.copy()
        for lit in _random_units(rng, 30):
            query.add_unit(lit)
        query.solve()
    assert _state(template) == before


def test_copy_of_a_used_solver_continues_independently():
    """A copy taken mid-life keeps the learned state and diverges from
    the original afterwards."""
    rng = random.Random(7)
    cnf = _random_cnf(rng, 30, 128)
    solver = Solver(cnf)
    solver.solve(assumptions=[1, -2])
    twin = solver.copy()
    assert twin.solve(assumptions=[3]).model == solver.solve(assumptions=[3]).model
    solves = solver.stats.solves
    twin.add_unit(4)
    twin.solve()
    assert solver.stats.solves == solves
    assert twin.stats.solves == solves + 1

"""Unit and fuzz tests for the CDCL SAT solver."""

import hashlib
import json
import random

import pytest

from repro.atpg.cnf import CNF
from repro.atpg.sat import Solver, brute_force_sat


class TestBasics:
    def test_trivial_sat(self):
        cnf = CNF(1)
        cnf.add_clause([1])
        result = Solver(cnf).solve()
        assert result.sat
        assert result.model[1] is True

    def test_trivial_unsat(self):
        cnf = CNF(1)
        cnf.add_clause([1])
        cnf.add_clause([-1])
        assert not Solver(cnf).solve().sat

    def test_tautology_clause_dropped(self):
        cnf = CNF(2)
        cnf.add_clause([1, -1])
        cnf.add_clause([2])
        result = Solver(cnf).solve()
        assert result.sat and result.model[2]

    def test_empty_formula_sat(self):
        assert Solver(CNF(3)).solve().sat

    def test_bool_conversion(self):
        cnf = CNF(1)
        cnf.add_clause([1])
        assert Solver(cnf).solve()

    def test_requires_learning(self):
        """Pigeonhole PHP(3,2): 3 pigeons, 2 holes — small but forces
        genuine conflict analysis."""
        cnf = CNF(6)  # var(p,h) = 2*p + h + 1 for p in 0..2, h in 0..1
        v = lambda p, h: 2 * p + h + 1
        for p in range(3):
            cnf.add_clause([v(p, 0), v(p, 1)])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    cnf.add_clause([-v(p1, h), -v(p2, h)])
        assert not Solver(cnf).solve().sat


class TestAssumptions:
    def test_assumptions_restrict_models(self):
        cnf = CNF(2)
        cnf.add_clause([1, 2])
        result = Solver(cnf).solve(assumptions=[-1])
        assert result.sat and result.model[2]

    def test_conflicting_assumptions(self):
        cnf = CNF(2)
        cnf.add_clause([1])
        assert not Solver(cnf).solve(assumptions=[-1]).sat

    def test_assumption_pair_unsat(self):
        cnf = CNF(2)
        cnf.add_clause([-1, -2])
        assert not Solver(cnf).solve(assumptions=[1, 2]).sat


class TestFuzzAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_formulas(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            nv = rng.randint(3, 11)
            cnf = CNF(nv)
            for _ in range(rng.randint(2, 40)):
                k = rng.randint(1, 4)
                cnf.add_clause(
                    [
                        (v if rng.random() < 0.5 else -v)
                        for v in (rng.randint(1, nv) for _ in range(k))
                    ]
                )
            expected = brute_force_sat(cnf)
            result = Solver(cnf).solve()
            assert result.sat == expected
            if result.sat:
                assert cnf.evaluate(result.model)


def test_conflict_budget():
    # An unsatisfiable pigeonhole with a tiny conflict budget must raise.
    cnf = CNF(12)
    v = lambda p, h: 3 * p + h + 1
    for p in range(4):
        cnf.add_clause([v(p, 0), v(p, 1), v(p, 2)])
    for h in range(3):
        for p1 in range(4):
            for p2 in range(p1 + 1, 4):
                cnf.add_clause([-v(p1, h), -v(p2, h)])
    with pytest.raises(RuntimeError):
        Solver(cnf).solve(max_conflicts=1)


def test_brute_force_refuses_wide():
    with pytest.raises(ValueError):
        brute_force_sat(CNF(30))


class TestIncremental:
    """The solver is reusable: assumptions are decisions, not facts."""

    def test_assumptions_do_not_leak_between_solves(self):
        # Regression: solve() used to plant assumptions as level-0 facts,
        # so a second call silently inherited the first call's assumptions.
        cnf = CNF(2)
        cnf.add_clause([1, 2])
        solver = Solver(cnf)
        r1 = solver.solve(assumptions=[-1])
        assert r1.sat and r1.model[2] is True
        # Under the old behaviour -1 persisted, making this UNSAT.
        r2 = solver.solve(assumptions=[-2])
        assert r2.sat and r2.model[1] is True
        r3 = solver.solve()
        assert r3.sat

    def test_unsat_under_assumptions_does_not_poison_solver(self):
        cnf = CNF(1)
        cnf.add_clause([1])
        solver = Solver(cnf)
        assert not solver.solve(assumptions=[-1]).sat
        # The formula is still satisfiable and the instance still usable.
        assert solver.solve().sat
        assert not solver.solve(assumptions=[-1]).sat

    def test_contradictory_assumption_pair_recoverable(self):
        cnf = CNF(3)
        cnf.add_clause([1, 2, 3])
        solver = Solver(cnf)
        assert not solver.solve(assumptions=[2, -2]).sat
        assert solver.solve(assumptions=[2]).sat

    def test_learned_clause_reuse_across_solves(self):
        # (!a | x | y) & (!a | x | !y): assuming a & !x conflicts and
        # learns (!a | x); a later solve under just [a] must propagate
        # from that retained clause — counted as a reuse hit.
        a, x, y = 1, 2, 3
        cnf = CNF(3)
        cnf.add_clause([-a, x, y])
        cnf.add_clause([-a, x, -y])
        solver = Solver(cnf)
        r1 = solver.solve(assumptions=[a, -x])
        assert not r1.sat and r1.conflicts >= 1
        r2 = solver.solve(assumptions=[a])
        assert r2.sat and r2.model[x] is True
        assert r2.learned_reuse >= 1
        assert solver.stats.learned >= 1
        assert solver.stats.learned_reuse >= 1

    def test_learned_units_make_repeat_queries_cheap(self):
        # Pigeonhole PHP(3,2) gated behind activation literal a: the
        # first solve under [a] learns its way down to the unit !a, so
        # the second identical query answers without a single conflict.
        cnf = CNF(7)
        a = 7
        v = lambda p, h: 2 * p + h + 1
        for p in range(3):
            cnf.add_clause([-a, v(p, 0), v(p, 1)])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    cnf.add_clause([-a, -v(p1, h), -v(p2, h)])
        solver = Solver(cnf)
        r1 = solver.solve(assumptions=[a])
        assert not r1.sat and r1.conflicts >= 1
        r2 = solver.solve(assumptions=[a])
        assert not r2.sat and r2.conflicts == 0
        assert solver.solve(assumptions=[-a]).sat

    def test_budget_exhaustion_leaves_solver_usable(self):
        cnf = CNF(12)
        v = lambda p, h: 3 * p + h + 1
        for p in range(4):
            cnf.add_clause([v(p, 0), v(p, 1), v(p, 2)])
        for h in range(3):
            for p1 in range(4):
                for p2 in range(p1 + 1, 4):
                    cnf.add_clause([-v(p1, h), -v(p2, h)])
        solver = Solver(cnf)
        with pytest.raises(RuntimeError):
            solver.solve(max_conflicts=1)
        # The trail was unwound: an unbudgeted call settles the formula.
        assert not solver.solve().sat

    def test_incremental_fuzz_against_fresh_instances(self):
        for seed in range(6):
            rng = random.Random(3000 + seed)
            nv = rng.randint(4, 9)
            cnf = CNF(nv)
            for _ in range(rng.randint(6, 26)):
                k = rng.randint(1, 3)
                cnf.add_clause(
                    [
                        (v if rng.random() < 0.5 else -v)
                        for v in (rng.randint(1, nv) for _ in range(k))
                    ]
                )
            incremental = Solver(cnf)
            for _ in range(12):
                n_assume = rng.randint(0, min(3, nv))
                lits = rng.sample(range(1, nv + 1), n_assume)
                assumptions = [
                    (v if rng.random() < 0.5 else -v) for v in lits
                ]
                # Ground truth: brute force with the assumptions as units.
                ref = CNF(nv)
                for clause in cnf.clauses:
                    ref.add_clause(list(clause))
                for lit in assumptions:
                    ref.add_clause([lit])
                expected = brute_force_sat(ref)
                result = incremental.solve(assumptions=assumptions)
                assert result.sat == expected, (seed, assumptions)
                if result.sat:
                    assert cnf.evaluate(result.model)
                    for lit in assumptions:
                        want = lit > 0
                        assert result.model[abs(lit)] is want


# -- pinned search trajectories ----------------------------------------------
#
# The solver's kernel (BCP, copy-on-write copies) may
# be rewritten for speed, but never so that it searches differently: the
# witnesses it returns feed pinned test-set and signoff digests.  These
# digests cover every field of every ``SolveResult`` — model, conflicts,
# decisions, propagations, learned-clause reuse and restarts — on three
# kinds of workload.  They were recorded with a linear-scan decision rule
# (the unassigned variable with the highest activity, the lowest index
# on ties) and templates copied clause by clause.


def _random_3sat(rng: random.Random, num_vars: int, num_clauses: int) -> CNF:
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


def _random_lits(rng: random.Random, num_vars: int, most: int) -> list:
    chosen = rng.sample(range(1, num_vars + 1), rng.randint(0, most))
    return [v if rng.random() < 0.5 else -v for v in chosen]


def _digest(results) -> str:
    rows = [
        [r.sat, r.model, r.conflicts, r.decisions, r.propagations,
         r.learned_reuse, r.restarts]
        for r in results
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def fresh_trajectories() -> list:
    """Near-threshold random 3-SAT, one fresh solver per formula."""
    results = []
    for seed in range(24):
        rng = random.Random(seed)
        num_vars = rng.randint(40, 80)
        solver = Solver(_random_3sat(rng, num_vars, round(4.26 * num_vars)))
        results.append(solver.solve())
    return results


def incremental_trajectory() -> "tuple[Solver, list]":
    """One solver, 60 assumption calls.  The learnt clauses outgrow
    ``max(2000, 4 * originals)``, so a later call reduces them, and
    ``_var_inc`` starts near the ``1e100`` limit, so activities rescale."""
    rng = random.Random(2024)
    solver = Solver(_random_3sat(rng, 120, 480))
    solver._var_inc = 1e95
    results = []
    for _ in range(60):
        results.append(solver.solve(assumptions=_random_lits(rng, 120, 4)))
    return solver, results


def copy_trajectories() -> list:
    """One never-solved template, 40 copies with unit queries."""
    rng = random.Random(77)
    template = Solver(_random_3sat(rng, 60, 250))
    results = []
    for _ in range(40):
        query = template.copy()
        for lit in _random_lits(rng, 60, 8):
            query.add_unit(lit)
        results.append(query.solve())
    return results


class TestPinnedTrajectory:
    def test_fresh_random_3sat(self):
        results = fresh_trajectories()
        assert sum(r.conflicts for r in results) > 1000
        assert {r.sat for r in results} == {True, False}
        assert _digest(results) == (
            "03b6005aee4832ce27a0cff327bb94da32cf798e4dc109e4cbe4ea1f95f2be5e"
        )

    def test_incremental_assumption_calls(self):
        solver, results = incremental_trajectory()
        assert solver.stats.learned_dropped > 0  # _reduce_learnts ran
        assert solver._var_inc < 1e95  # the activities were rescaled
        assert _digest(results) == (
            "aa3e2a0999ecf03618041f0ce440c9e3e2f95c8cd671ea1899c0765fd69840fd"
        )

    def test_copies_with_units(self):
        results = copy_trajectories()
        assert sum(r.conflicts for r in results) > 100
        assert _digest(results) == (
            "33fcaf8d3248ea925b84fd0d37ef3dee50b24ed5eebd3b95a57ea3b2deeca510"
        )


class TestCopyIsolation:
    """After ``copy()`` the two solvers share clause and watch lists until
    one of them writes; neither side's search may reach the other."""

    QUERIES = ([1, -2], [3], [-4, 5, 6], [], [-1, 7])

    @staticmethod
    def _pair() -> "tuple[Solver, Solver]":
        """A used solver and an identical twin built the same way."""
        def build() -> Solver:
            rng = random.Random(11)
            solver = Solver(_random_3sat(rng, 60, 250))
            solver.solve(assumptions=[2, -3])
            return solver
        return build(), build()

    @staticmethod
    def _state(solver: Solver) -> list:
        return [solver._clauses, solver._watches, solver._assign,
                solver._activity, solver._phase, solver.stats.to_dict()]

    def _answers(self, solver: Solver) -> list:
        return [solver.solve(assumptions=q) for q in self.QUERIES]

    def test_solving_the_source_leaves_the_copy_alone(self):
        source, reference = self._pair()
        copy, reference_copy = source.copy(), reference.copy()
        self._answers(source)
        assert self._state(copy) == self._state(reference_copy)
        assert _digest(self._answers(copy)) == _digest(self._answers(reference_copy))

    def test_solving_the_copy_leaves_the_source_alone(self):
        source, reference = self._pair()
        copy = source.copy()
        for lit in (4, -5):
            copy.add_unit(lit)
        self._answers(copy)
        assert self._state(source) == self._state(reference)
        assert _digest(self._answers(source)) == _digest(self._answers(reference))

    def test_copies_of_copies_stay_apart(self):
        source, reference = self._pair()
        first = source.copy()
        second = first.copy()
        third = source.copy()
        self._answers(second)
        self._answers(third)
        assert self._state(first) == self._state(reference.copy())
        assert self._state(source) == self._state(reference)

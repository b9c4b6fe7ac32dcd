"""A compact incremental CDCL SAT solver (two-watched literals, 1UIP
learning, activity-based branching, phase saving, geometric restarts,
MiniSat-style assumption handling).

Built from scratch because the environment is offline and the baseline
RD-identification of [1] needs redundancy checks (UNSAT proofs) on
good/faulty miters, while the exact-verdict subsystem
(:mod:`repro.verdict`) issues thousands of per-path queries against one
circuit encoding.  The solver is therefore *incremental*: assumptions
are planted as decisions at levels ``1..k`` (never as permanent level-0
facts), the trail is fully unwound after every call, and learned
clauses are retained across calls so later queries reuse earlier
conflict analysis.  ``_ok`` goes false only when the *formula itself*
is unsatisfiable; an UNSAT answer under assumptions leaves the instance
ready for the next query.

Usage::

    solver = Solver(cnf)
    r1 = solver.solve(assumptions=[3, -7])
    r2 = solver.solve(assumptions=[-3])   # independent of the first call
    if r2.sat:
        print(r2.model[3])

``SolveResult`` carries per-call statistics (conflicts, decisions,
learned-clause reuse hits); cumulative totals live on
:attr:`Solver.stats`.

A caller that needs a *fresh* solve per query keeps one never-solved
template and solves copies of it: ``template.copy()`` plus
``add_unit(lit)`` per literal gives the same ``SolveResult`` as
``Solver(cnf)`` with those unit clauses appended to the CNF in the
same order, without re-adding the clauses.  Copies are copy-on-write:
a copy shares every clause and watch list with its source, and a
per-list ownership flag makes the first write to a shared list (a
literal swap or watch move in BCP, a learnt clause's watch) copy that
one list.  A copy therefore costs one pointer per clause and watch
list instead of a copy of every literal, plus the lists its search
rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.atpg.cnf import CNF

_UNASSIGNED = -1


@dataclass
class SolveResult:
    """SAT outcome; ``model[v]`` (1-based) is meaningful when ``sat``."""

    sat: bool
    model: list | None = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    learned_reuse: int = 0
    restarts: int = 0

    def __bool__(self) -> bool:
        return self.sat


@dataclass
class SolverStats:
    """Cumulative counters across every ``solve`` call on one instance."""

    solves: int = 0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    learned: int = 0
    learned_dropped: int = 0
    learned_reuse: int = 0
    restarts: int = 0

    def to_dict(self) -> dict:
        return {
            "solves": self.solves,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "learned": self.learned,
            "learned_dropped": self.learned_dropped,
            "learned_reuse": self.learned_reuse,
            "restarts": self.restarts,
        }


class Solver:
    """Incremental CDCL solver over a :class:`CNF`.

    One instance serves many queries: each ``solve(assumptions=...)``
    call decides its assumptions at levels ``1..k``, searches below
    them, and unwinds the trail to level 0 before returning, so no
    assumption ever leaks into a later call.  Learned clauses (which
    are consequences of the formula alone, never of the assumptions)
    are kept between calls; a clause learned in one call that
    propagates or conflicts in a later call counts as a
    ``learned_reuse`` hit.
    """

    def __init__(self, cnf: CNF) -> None:
        self._num_vars = cnf.num_vars
        n = cnf.num_vars + 1
        self._assign: list[int] = [_UNASSIGNED] * n
        self._level: list[int] = [0] * n
        self._reason: list[int] = [-1] * n
        self._activity: list[float] = [0.0] * n
        self._phase: list[int] = [0] * n
        self._trail: list[int] = []  # packed literals, in assignment order
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._clauses: list[list[int]] = []
        #: epoch (solve ordinal) each clause was learned in; 0 = original
        self._clause_epoch: list[int] = []
        self._watches: list[list[int]] = [[] for _ in range(2 * n + 2)]
        self._var_inc = 1.0
        self._ok = True
        self._units: list[int] = []
        self._epoch = 0
        self._reuse_hits = 0
        self._propagation_count = 0
        self.stats = SolverStats()
        for clause in cnf.clauses:
            self._add_clause([self._pack(lit) for lit in clause])
        self._num_original = len(self._clauses)
        #: per clause / per watch list: 1 = this instance's own list,
        #: 0 = shared with a copy (copy it before writing to it)
        self._own_clauses = bytearray(b"\x01") * len(self._clauses)
        self._own_watches = bytearray(b"\x01") * len(self._watches)

    def copy(self) -> "Solver":
        """An independent solver in exactly this one's state.

        Copy-on-write: the copy shares each clause and watch list with
        this instance, and both sides give up ownership of every shared
        list, so whichever writes to one first (a BCP literal swap or
        watch move, a learnt clause's watch) copies that list alone.
        The trail and every per-variable array are copied outright.
        Solving the copy leaves this instance untouched and vice versa,
        and the copy costs one pointer per clause and watch list,
        whatever the clauses' lengths."""
        # Plain attribute stores in __init__'s order: touching
        # ``__dict__`` would turn the instance's inline attribute values
        # into a dict and slow every ``self._...`` access in the search.
        twin = Solver.__new__(Solver)
        twin._num_vars = self._num_vars
        twin._assign = self._assign[:]
        twin._level = self._level[:]
        twin._reason = self._reason[:]
        twin._activity = self._activity[:]
        twin._phase = self._phase[:]
        twin._trail = self._trail[:]
        twin._trail_lim = self._trail_lim[:]
        twin._qhead = self._qhead
        twin._clauses = self._clauses[:]
        twin._clause_epoch = self._clause_epoch[:]
        twin._watches = self._watches[:]
        twin._var_inc = self._var_inc
        twin._ok = self._ok
        twin._units = self._units[:]
        twin._epoch = self._epoch
        twin._reuse_hits = self._reuse_hits
        twin._propagation_count = self._propagation_count
        twin.stats = replace(self.stats)
        twin._num_original = self._num_original
        self._own_clauses = bytearray(len(self._clauses))
        self._own_watches = bytearray(len(self._watches))
        twin._own_clauses = bytearray(len(self._clauses))
        twin._own_watches = bytearray(len(self._watches))
        return twin

    def add_unit(self, lit: int) -> None:
        """Add the unit clause ``[lit]`` (DIMACS); it becomes a level-0
        fact at the next ``solve``, as if it had been in the CNF."""
        self._units.append(self._pack(lit))

    # -- literal packing: var v -> 2v (positive) / 2v+1 (negative) ------
    @staticmethod
    def _pack(lit: int) -> int:
        return 2 * lit if lit > 0 else -2 * lit + 1

    # ------------------------------------------------------------------
    def _add_clause(self, lits: list[int]) -> None:
        # Deduplicate; drop tautologies.
        seen = set()
        out = []
        for lit in lits:
            if lit ^ 1 in seen:
                return  # clause contains v and !v: always true
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        if len(out) == 1:
            self._units.append(out[0])
            return
        idx = len(self._clauses)
        self._clauses.append(out)
        self._clause_epoch.append(0)
        self._watches[out[0]].append(idx)
        self._watches[out[1]].append(idx)

    # ------------------------------------------------------------------
    def _lit_value(self, lit: int) -> int:
        v = self._assign[lit >> 1]
        if v == _UNASSIGNED:
            return _UNASSIGNED
        return v ^ (lit & 1)

    def _enqueue(self, lit: int, reason: int) -> bool:
        var = lit >> 1
        value = 1 - (lit & 1)
        if self._assign[var] != _UNASSIGNED:
            return self._assign[var] == value
        self._assign[var] = value
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _watch(self, lit: int, ci: int) -> None:
        """Append clause ``ci`` to ``lit``'s watch list, copying the list
        first if it is shared."""
        if not self._own_watches[lit]:
            self._watches[lit] = self._watches[lit][:]
            self._own_watches[lit] = 1
        self._watches[lit].append(ci)

    def _propagate(self) -> int:
        """BCP.  Returns a conflicting clause index, or -1.

        ``_lit_value``/``_enqueue`` are inlined: a literal ``l`` is true
        when ``assign[l >> 1] == (l & 1) ^ 1`` and false when
        ``assign[l >> 1] == l & 1`` (``_UNASSIGNED`` matches neither).
        A shared clause or watch list is copied before its first write."""
        trail = self._trail
        assign = self._assign
        level = self._level
        reason = self._reason
        clauses = self._clauses
        watches = self._watches
        own_clauses = self._own_clauses
        own_watches = self._own_watches
        epochs = self._clause_epoch
        current_epoch = self._epoch
        decision_level = len(self._trail_lim)
        qhead = self._qhead
        reuse = 0
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watch_list = watches[false_lit]
            i = 0
            while i < len(watch_list):
                ci = watch_list[i]
                clause = clauses[ci]
                # Ensure the false literal is at position 1.
                first = clause[0]
                if first == false_lit:
                    if not own_clauses[ci]:
                        clause = clauses[ci] = clause[:]
                        own_clauses[ci] = 1
                    first = clause[0] = clause[1]
                    clause[1] = false_lit
                if assign[first >> 1] == (first & 1) ^ 1:
                    i += 1
                    continue
                # Look for a new literal to watch.
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if assign[lit >> 1] != lit & 1:
                        if not own_clauses[ci]:
                            clause = clauses[ci] = clause[:]
                            own_clauses[ci] = 1
                        clause[k] = clause[1]
                        clause[1] = lit
                        if not own_watches[lit]:
                            watches[lit] = watches[lit][:]
                            own_watches[lit] = 1
                        watches[lit].append(ci)
                        if not own_watches[false_lit]:
                            watch_list = watches[false_lit] = watch_list[:]
                            own_watches[false_lit] = 1
                        watch_list[i] = watch_list[-1]
                        watch_list.pop()
                        break
                else:
                    ep = epochs[ci]
                    if ep and ep != current_epoch:
                        reuse += 1
                    # Clause is unit or conflicting.
                    var = first >> 1
                    if assign[var] == first & 1:
                        self._propagation_count += qhead - self._qhead
                        self._reuse_hits += reuse
                        self._qhead = len(trail)
                        return ci
                    assign[var] = (first & 1) ^ 1
                    level[var] = decision_level
                    reason[var] = ci
                    trail.append(first)
                    i += 1
        self._propagation_count += qhead - self._qhead
        self._reuse_hits += reuse
        self._qhead = qhead
        return -1

    # ------------------------------------------------------------------
    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """1UIP conflict analysis: returns (learnt clause, backjump level).
        The asserting literal is placed first in the learnt clause."""
        learnt: list[int] = []
        seen = [False] * (self._num_vars + 1)
        counter = 0
        lit = -1
        clause = self._clauses[conflict]
        index = len(self._trail)
        current_level = len(self._trail_lim)
        resolved_var = -1
        while True:
            for q in clause:
                var = q >> 1
                if var == resolved_var:
                    continue
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self._level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Pick the next trail literal (reverse order) that is seen.
            while True:
                index -= 1
                lit = self._trail[index]
                if seen[lit >> 1]:
                    break
            var = lit >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            clause = self._clauses[self._reason[var]]
            resolved_var = var
        learnt.insert(0, lit ^ 1)
        if len(learnt) == 1:
            return learnt, 0
        back_level = max(self._level[q >> 1] for q in learnt[1:])
        return learnt, back_level

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        for lit in reversed(self._trail[limit:]):
            var = lit >> 1
            self._phase[var] = self._assign[var]
            self._assign[var] = _UNASSIGNED
            self._reason[var] = -1
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    def _decide(self) -> int:
        best = -1
        best_act = -1.0
        assign = self._assign
        activity = self._activity
        for var in range(1, self._num_vars + 1):
            if assign[var] == _UNASSIGNED and activity[var] > best_act:
                best = var
                best_act = activity[var]
        if best == -1:
            return -1
        return 2 * best + (1 - self._phase[best])

    # ------------------------------------------------------------------
    def _reduce_learnts(self) -> None:
        """Drop the oldest half of long learned clauses (level 0 only).

        Keeps binary/ternary learnts (cheap, high-value) and any clause
        that is currently the reason of a level-0 fact.
        """
        protected = {
            self._reason[lit >> 1]
            for lit in self._trail
            if self._reason[lit >> 1] != -1
        }
        droppable = [
            i
            for i in range(len(self._clauses))
            if self._clause_epoch[i]
            and len(self._clauses[i]) > 3
            and i not in protected
        ]
        if len(droppable) < 2:
            return
        drop = set(droppable[: len(droppable) // 2])
        remap: dict[int, int] = {}
        new_clauses: list[list[int]] = []
        new_epochs: list[int] = []
        new_own = bytearray()
        for i, (cl, ep) in enumerate(zip(self._clauses, self._clause_epoch)):
            if i in drop:
                continue
            remap[i] = len(new_clauses)
            new_clauses.append(cl)
            new_epochs.append(ep)
            new_own.append(self._own_clauses[i])
        self._clauses = new_clauses
        self._clause_epoch = new_epochs
        self._own_clauses = new_own
        for var in range(1, self._num_vars + 1):
            r = self._reason[var]
            if r != -1:
                self._reason[var] = remap[r]
        self._watches = [[] for _ in range(2 * (self._num_vars + 1) + 2)]
        self._own_watches = bytearray(b"\x01") * len(self._watches)
        for idx, cl in enumerate(self._clauses):
            self._watches[cl[0]].append(idx)
            self._watches[cl[1]].append(idx)
        self.stats.learned_dropped += len(drop)

    def _result(
        self,
        sat: bool,
        model: list | None,
        conflicts: int,
        decisions: int,
        propagations: int,
        reuse: int,
        restarts: int,
    ) -> SolveResult:
        self.stats.conflicts += conflicts
        self.stats.decisions += decisions
        self.stats.propagations += propagations
        self.stats.learned_reuse += reuse
        self.stats.restarts += restarts
        return SolveResult(
            sat=sat,
            model=model,
            conflicts=conflicts,
            decisions=decisions,
            propagations=propagations,
            learned_reuse=reuse,
            restarts=restarts,
        )

    # ------------------------------------------------------------------
    def solve(self, assumptions: list | None = None, max_conflicts: int | None = None) -> SolveResult:
        """Run CDCL search under ``assumptions`` (DIMACS literals).

        Assumptions are decided at levels ``1..k`` — they never outlive
        this call, and an UNSAT answer under assumptions leaves the
        instance usable.  ``max_conflicts`` bounds the search (raises
        RuntimeError when exceeded with the trail cleanly unwound —
        redundancy analysis treats that as "unknown" and the caller
        decides)."""
        if not self._ok:
            return SolveResult(sat=False)
        self._epoch += 1
        self.stats.solves += 1
        conflicts = 0
        decisions = 0
        restarts = 0
        reuse_start = self._reuse_hits
        prop_start = self._propagation_count
        self._backtrack(0)
        for lit in self._units:
            if not self._enqueue(lit, -1):
                self._ok = False
                return self._result(False, None, 0, 0, 0, 0, 0)
        self._units.clear()
        if (
            len(self._clauses) - self._num_original
            > max(2000, 4 * self._num_original)
        ):
            self._reduce_learnts()
        assumps = [self._pack(lit) for lit in assumptions or []]
        restart_limit = 100
        restart_conflicts = 0

        def finish(sat: bool, model: list | None) -> SolveResult:
            self._backtrack(0)
            return self._result(
                sat,
                model,
                conflicts,
                decisions,
                self._propagation_count - prop_start,
                self._reuse_hits - reuse_start,
                restarts,
            )

        while True:
            conflict = self._propagate()
            if conflict != -1:
                conflicts += 1
                restart_conflicts += 1
                if max_conflicts is not None and conflicts > max_conflicts:
                    finish(False, None)
                    raise RuntimeError("conflict budget exhausted")
                if not self._trail_lim:
                    # Conflict at level 0: the formula itself is UNSAT.
                    self._ok = False
                    return finish(False, None)
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learnt) == 1:
                    # A learnt unit is a consequence of the formula alone
                    # (assumptions appear in learnt clauses as literals,
                    # never as resolved facts), so it is a permanent fact.
                    if not self._enqueue(learnt[0], -1):
                        self._ok = False
                        return finish(False, None)
                else:
                    idx = len(self._clauses)
                    self._clauses.append(learnt)
                    self._own_clauses.append(1)
                    self._clause_epoch.append(self._epoch)
                    self.stats.learned += 1
                    self._watch(learnt[0], idx)
                    self._watch(learnt[1], idx)
                    self._enqueue(learnt[0], idx)
                self._var_inc *= 1.05
                continue
            if restart_conflicts >= restart_limit and self._trail_lim:
                restart_conflicts = 0
                restart_limit = int(restart_limit * 1.5)
                restarts += 1
                self._backtrack(0)
                continue
            # Re-establish pending assumptions as the next decisions.
            lit = -1
            failed = False
            while len(self._trail_lim) < len(assumps):
                p = assumps[len(self._trail_lim)]
                v = self._lit_value(p)
                if v == 1:
                    # Already implied: push an empty decision level so
                    # assumption i always sits at level <= i+1.
                    self._trail_lim.append(len(self._trail))
                elif v == 0:
                    # Contradicts the formula or an earlier assumption:
                    # UNSAT under these assumptions, solver stays usable.
                    failed = True
                    break
                else:
                    lit = p
                    break
            if failed:
                return finish(False, None)
            if lit == -1:
                lit = self._decide()
                if lit == -1:
                    return finish(True, [a == 1 for a in self._assign])
                decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, -1)


def brute_force_sat(cnf: CNF) -> bool:
    """Exhaustive satisfiability oracle for testing the solver."""
    if cnf.num_vars > 22:
        raise ValueError("brute force refused beyond 22 variables")
    for code in range(1 << cnf.num_vars):
        model = [False] + [bool((code >> i) & 1) for i in range(cnf.num_vars)]
        if cnf.evaluate(model):
            return True
    return False

"""Analysis sessions: shared per-circuit state for classification runs.

Every paper pipeline runs *several* classification passes over the same
circuit — Heuristic 2 alone pays an FS pass, an NR pass and a final
SIGMA_PI pass, and a full Table-I row adds the Heu1 and inverted-sort
passes on top.  A :class:`CircuitSession` makes the state those passes
share a first-class, reusable artifact instead of per-call scratch:

* the exact path counts (:func:`~repro.paths.count.count_paths`) are
  computed once per circuit;
* the flat IR and its literal implication closures are built once per
  circuit (cached on the :class:`Circuit` itself via ``circuit.flat``)
  and shared by every pass;
* the static per-lead bitset condition tables are cached per
  ``(criterion, sort)`` — the inverted-Heu2 control pass, for example,
  shares nothing with the forward pass, but repeated passes with the
  same sort (re-runs, benches, coverage studies) hit the cache;
* the last completed FS and NR passes are held, and a SIGMA_PI pass
  needs no DFS when they agree (Lemma 1's sandwich): the supersets
  nest NR ⊆ LP(σ^π) ⊆ FS for every sort, so equal FS and NR
  ``accepted`` and ``edges_visited`` fix σ^π's too, and its lead
  counts with them.  On XOR-, parity- and adder-heavy circuits this
  makes Heuristic 2's final pass and the inverted control pass free.
  Streaming (``on_path``) passes always run the DFS; an implied pass
  counts in the ``classify.implied_passes`` registry counter, not in
  ``engine.edges_visited``.

Sessions are deliberately cheap to create (all caches are lazy), purely
per-process (they are *not* sent across the
:mod:`~repro.experiments.harness` process pool — each worker builds its
own), and observable: :attr:`CircuitSession.stats` counts cache hits and
builds so tests can assert "exactly one ``count_paths`` per circuit".

**Persistent store.**  Passing ``store=`` (a
:class:`~repro.store.db.ResultStore` or a path) extends the caches
*across* processes: path counts, completed classification passes and the
heuristic sorts are read through from — and written back to — a
content-addressed SQLite store keyed by the circuit's canonical
fingerprint.  Per-lead payloads cross the store in canonical lead order,
so a permuted declaration of the same netlist still hits.  Reads are
strictly validated; anything corrupt or version-mismatched is treated as
a miss and recomputed.  Passes that stream paths (``on_path``) bypass
the store (the paths themselves are not cached), and a pass whose cached
``accepted`` exceeds the caller's ``max_accepted`` is recomputed so the
abort contract is identical cold and warm.  :attr:`SessionStats` gains
``store_hits``/``store_misses`` for observability.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion
from repro.classify.engine import _run, _Tables
from repro.classify.results import ClassificationResult
from repro.errors import ClassifyError
from repro.obs import get_registry, span
from repro.paths.count import PathCounts, count_paths

if TYPE_CHECKING:  # annotation-only; avoids a classify <-> sorting cycle
    from repro.paths.path import LogicalPath
    from repro.sorting.heuristics import Heuristic2Analysis
    from repro.sorting.input_sort import InputSort
    from repro.store.db import ResultStore
    from repro.store.fingerprint import CanonicalForm

SORT_KINDS = ("pin", "heu1", "heu2", "heu2inv")  #: CircuitSession.sort names


@dataclass
class SessionStats:
    """Cache observability for one :class:`CircuitSession`.

    Stats are a per-session *view* over the process-wide telemetry
    spine: every increment goes through :meth:`bump`, which also feeds
    the matching ``session.<field>`` counter of the
    :mod:`repro.obs` registry — so harness runs, the daemon and the CLI
    all aggregate session activity without a second accounting system.
    """

    count_paths_calls: int = 0
    tables_built: int = 0
    tables_reused: int = 0
    classify_passes: int = 0
    budget_aborts: int = 0
    store_hits: int = 0
    store_misses: int = 0
    cone_hits: int = 0  #: cone-granularity store hits (ECO reuse)
    cone_misses: int = 0

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment one counter field here *and* in the process
        metrics registry (the single write path for session stats)."""
        setattr(self, name, getattr(self, name) + amount)
        get_registry().counter(f"session.{name}").inc(amount)

    @property
    def tables_hit_rate(self) -> float:
        total = self.tables_built + self.tables_reused
        if not total:
            return 0.0
        return self.tables_reused / total

    def to_dict(self) -> dict:
        """JSON-safe counters (embedded in experiment rows)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SessionStats":
        known = {f for f in cls.__dataclass_fields__}  # tolerate extras
        return cls(**{k: v for k, v in data.items() if k in known})

    def summary(self) -> str:
        """One human-readable line for ``--verbose`` table runs."""
        parts = [
            f"passes={self.classify_passes}",
            f"count_paths={self.count_paths_calls}",
            f"tables={self.tables_built}+{self.tables_reused}r",
        ]
        if self.store_hits or self.store_misses:
            total = self.store_hits + self.store_misses
            parts.append(
                f"store={self.store_hits}/{total} hit"
                f" ({100.0 * self.store_hits / total:.0f}%)"
            )
        else:
            parts.append("store=off")
        if self.cone_hits or self.cone_misses:
            total = self.cone_hits + self.cone_misses
            parts.append(f"cones={self.cone_hits}/{total} hit")
        if self.budget_aborts:
            parts.append(f"aborts={self.budget_aborts}")
        return " ".join(parts)


def format_session_stats(data: "dict | None") -> str:
    """Render a :meth:`SessionStats.to_dict` payload (e.g. one embedded
    in a checkpointed experiment row) as the ``--verbose`` summary."""
    if not data:
        return "(no session stats)"
    return SessionStats.from_dict(data).summary()


@dataclass
class CircuitSession:
    """Lazily-cached analysis state for one frozen circuit.

    Usage::

        session = CircuitSession(circuit)
        fs = session.classify(Criterion.FS)
        analysis = session.heuristic2_analysis()
        final = session.classify(Criterion.SIGMA_PI, sort=analysis.sort)
        session.counts.total_logical   # computed once, shared by all

    All classification entry points (:func:`repro.classify.classify`,
    the sorting heuristics, the experiment harness) accept a session and
    route through these caches.
    """

    circuit: Circuit
    stats: SessionStats = field(default_factory=SessionStats)
    store: "ResultStore | str | Path | None" = None
    _counts: PathCounts | None = field(default=None, repr=False)
    _tables: dict = field(default_factory=dict, repr=False)
    _canon: "CanonicalForm | None" = field(default=None, repr=False)
    #: the last completed FS and NR passes, by criterion
    _bounds: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.circuit, Circuit):
            from repro.loading import as_core

            self.circuit = as_core(self.circuit)
        self.circuit._require_frozen()  # noqa: SLF001 - deliberate check
        if isinstance(self.store, (str, Path)):
            from repro.store.db import ResultStore

            self.store = ResultStore(self.store)

    # -- persistent store plumbing -------------------------------------
    @property
    def canonical(self) -> "CanonicalForm":
        """The circuit's canonical form (computed once, store or not)."""
        if self._canon is None:
            from repro.store.fingerprint import canonical_form

            self._canon = canonical_form(self.circuit)
        return self._canon

    @property
    def fingerprint(self) -> str:
        """The circuit's content-addressed fingerprint."""
        return self.canonical.fingerprint

    def _store_get(self, kind: str, variant: str, load: Callable):
        """Read-through with strict validation: ``load(payload)`` builds
        the in-memory artifact and may raise or return ``None`` for
        anything malformed — corrupted or mismatched entries count as
        misses and are recomputed, never served."""
        if self.store is None:
            return None
        payload = self.store.get(self.fingerprint, kind, variant)
        value = None
        if payload is not None:
            try:
                value = load(payload)
            except Exception:  # noqa: BLE001 - corrupt entry == miss
                value = None
        if value is None:
            self.stats.bump("store_misses")
        else:
            self.stats.bump("store_hits")
        return value

    def _store_put(self, kind: str, variant: str, payload: dict) -> None:
        if self.store is not None:
            self.store.put(self.fingerprint, kind, variant, payload)

    # -- cached artifacts ----------------------------------------------
    def _load_counts(self, payload: dict) -> "PathCounts | None":
        up_c, down_c = payload["up"], payload["down"]
        n = self.circuit.num_gates
        if len(up_c) != n or len(down_c) != n:
            return None
        if not all(isinstance(v, int) for v in up_c + down_c):
            return None
        up = self.canonical.unpack_gates(up_c)
        down = self.canonical.unpack_gates(down_c)
        # |P(l)| = up[src] * down[dst] — cheaper to rebuild than to store
        through = [
            up[self.circuit.lead_src(lead)] * down[self.circuit.lead_dst(lead)]
            for lead in range(self.circuit.num_leads)
        ]
        return PathCounts(
            circuit=self.circuit,
            up=tuple(up),
            down=tuple(down),
            through_lead=tuple(through),
        )

    @property
    def counts(self) -> PathCounts:
        """Exact path counts: loaded from the store if possible, else
        computed at most once per session (and written back)."""
        if self._counts is None:
            loaded = self._store_get("counts", "", self._load_counts)
            if loaded is not None:
                self._counts = loaded
            else:
                self.stats.bump("count_paths_calls")
                with span("paths.count", circuit=self.circuit.name):
                    self._counts = count_paths(self.circuit)
                self._store_put(
                    "counts",
                    "",
                    {
                        "up": self.canonical.pack_gates(self._counts.up),
                        "down": self.canonical.pack_gates(self._counts.down),
                    },
                )
        return self._counts

    def tables(
        self, criterion: Criterion, sort: "InputSort | None" = None
    ) -> _Tables:
        """Per-lead condition tables, cached by ``(criterion, π ranks)``."""
        key = (criterion, None if sort is None else sort.ranks)
        cached = self._tables.get(key)
        if cached is None:
            self.stats.bump("tables_built")
            cached = self._tables[key] = _Tables(self.circuit, criterion, sort)
        else:
            self.stats.bump("tables_reused")
        return cached

    # -- classification ------------------------------------------------
    def _classify_variant(
        self, criterion: Criterion, sort: "InputSort | None"
    ) -> str:
        sort_key = "none" if sort is None else self.canonical.sort_key(sort.ranks)
        return f"{criterion.name}|{sort_key}"

    def _load_classification(
        self,
        payload: dict,
        criterion: Criterion,
        collect_lead_counts: bool,
        max_accepted: "int | None",
    ) -> "ClassificationResult | None":
        total = payload["total_logical"]
        accepted = payload["accepted"]
        if not isinstance(total, int) or not isinstance(accepted, int):
            return None
        if max_accepted is not None and accepted > max_accepted:
            # the cached pass completed but this caller's budget would
            # have aborted it — recompute so the abort contract holds
            return None
        lead_counts: list = []
        if collect_lead_counts:
            stored = payload.get("lead_ctrl_counts")
            if (
                not isinstance(stored, list)
                or len(stored) != self.circuit.num_leads
                or not all(isinstance(v, int) for v in stored)
            ):
                return None  # entry predates the per-lead request
            lead_counts = self.canonical.unpack_leads(stored)
        return ClassificationResult(
            circuit_name=self.circuit.name,
            criterion=criterion,
            total_logical=total,
            accepted=accepted,
            elapsed=float(payload["elapsed"]),
            lead_ctrl_counts=lead_counts,
            edges_visited=int(payload["edges_visited"]),
        )

    def _remember(self, result: ClassificationResult) -> None:
        """Keep a completed FS or NR pass for :meth:`_sandwiched`."""
        if result.criterion is not Criterion.SIGMA_PI:
            self._bounds[result.criterion] = result

    def _sandwiched(
        self, collect_lead_counts: bool, max_accepted: "int | None"
    ) -> "ClassificationResult | None":
        """A SIGMA_PI pass answered by Lemma 1, or ``None``.

        Per lead the conditions nest NR ⊇ σ^π ⊇ FS, so the DFS prefixes
        that stay alive nest NR ⊆ σ^π ⊆ FS for every sort.  ``accepted``
        and ``edges_visited`` are sums over those prefixes: when the
        held FS and NR passes agree on both, σ^π's sums equal them, and
        so do its lead counts, which depend only on the accepted paths.
        """
        fs = self._bounds.get(Criterion.FS)
        nr = self._bounds.get(Criterion.NR)
        if (
            fs is None
            or nr is None
            or fs.accepted != nr.accepted
            or fs.edges_visited != nr.edges_visited
            or (max_accepted is not None and fs.accepted > max_accepted)
            or (
                collect_lead_counts
                and len(fs.lead_ctrl_counts) != self.circuit.num_leads
            )
        ):
            return None
        return ClassificationResult(
            circuit_name=self.circuit.name,
            criterion=Criterion.SIGMA_PI,
            total_logical=fs.total_logical,
            accepted=fs.accepted,
            lead_ctrl_counts=(
                list(fs.lead_ctrl_counts) if collect_lead_counts else []
            ),
            edges_visited=fs.edges_visited,
        )

    def classify(
        self,
        criterion: Criterion,
        sort: "InputSort | None" = None,
        collect_lead_counts: bool = False,
        max_accepted: int | None = None,
        on_path: "Callable[[LogicalPath], None] | None" = None,
        cones: bool = False,
    ) -> ClassificationResult:
        """One classification pass through the session caches.

        Same contract as :func:`repro.classify.classify`; the tables
        and path counts come from (and warm) this session.  A
        ``max_accepted`` overflow raises
        :class:`~repro.errors.ClassifyError` (counted in
        :attr:`SessionStats.budget_aborts`); the session stays usable.

        With a persistent :attr:`store`, a completed pass for the same
        circuit structure, criterion and sort is served without running
        the enumeration at all.  ``on_path`` passes bypass the store
        (the paths themselves are not cached); an aborted pass is never
        written back.

        A SIGMA_PI pass without ``on_path`` is also answered without a
        DFS when the session holds completed FS and NR passes with equal
        ``accepted`` and ``edges_visited`` (see the module docstring),
        the budget admits that count and, if lead counts are asked for,
        the FS pass carries them.  The answer (``elapsed`` 0) is written
        to the store like a computed pass.

        ``cones=True`` switches to cone granularity
        (:func:`repro.incremental.reanalyze.cone_classify`): each output
        cone is classified independently and read through from / written
        back to the store's ``kind="cone"`` rows, so an edited netlist
        reuses every untouched cone's rows.  The aggregate
        accepted/total counts decompose exactly; ``max_accepted``
        becomes a per-cone budget, ``elapsed`` sums per-cone CPU time,
        and ``edges_visited`` counts the per-cone DFS work (cone runs
        share no cross-cone memo, so the figure is comparable only to
        other cone-granularity runs).  Streaming and per-lead collection
        stay whole-circuit concerns: ``on_path`` or
        ``collect_lead_counts`` with ``cones=True`` raise
        :class:`ValueError`.
        """
        if cones:
            if on_path is not None or collect_lead_counts:
                raise ValueError(
                    "cones=True classifies per extracted cone; per-lead "
                    "counts and on_path streaming are whole-circuit only"
                )
            from repro.incremental.reanalyze import cone_classify

            self.stats.bump("classify_passes")
            return cone_classify(
                self.circuit,
                criterion=criterion,
                sort=sort,
                max_accepted=max_accepted,
                store=self.store,
                session_stats=self.stats,
            ).result
        self.stats.bump("classify_passes")
        use_store = self.store is not None and on_path is None
        variant = ""
        if use_store:
            variant = self._classify_variant(criterion, sort)
            cached = self._store_get(
                "classify",
                variant,
                lambda payload: self._load_classification(
                    payload, criterion, collect_lead_counts, max_accepted
                ),
            )
            if cached is not None:
                self._remember(cached)
                return cached
        result = None
        if (
            criterion is Criterion.SIGMA_PI
            and sort is not None
            and on_path is None
        ):
            result = self._sandwiched(collect_lead_counts, max_accepted)
        if result is None:
            tables = self.tables(criterion, sort)
            try:
                with span(
                    "classify.pass",
                    circuit=self.circuit.name,
                    criterion=criterion.name,
                ):
                    result = _run(
                        self.circuit,
                        criterion,
                        tables,
                        self.counts,
                        collect_lead_counts,
                        max_accepted,
                        on_path,
                    )
            except ClassifyError:
                self.stats.bump("budget_aborts")
                raise
            registry = get_registry()
            registry.counter("engine.edges_visited").inc(result.edges_visited)
            registry.counter("classify.accepted").inc(result.accepted)
            self._remember(result)
        else:
            get_registry().counter("classify.implied_passes").inc()
        if use_store:
            payload = {
                "total_logical": result.total_logical,
                "accepted": result.accepted,
                "elapsed": result.elapsed,
                "edges_visited": result.edges_visited,
            }
            if collect_lead_counts:
                payload["lead_ctrl_counts"] = self.canonical.pack_leads(
                    result.lead_ctrl_counts
                )
            self._store_put("classify", variant, payload)
        return result

    # -- sorting heuristics (convenience, session-cached) --------------
    def _load_sort(self, payload: dict) -> "InputSort | None":
        from repro.sorting.input_sort import InputSort

        stored = payload["ranks"]
        if (
            not isinstance(stored, list)
            or len(stored) != self.circuit.num_leads
            or not all(isinstance(v, int) for v in stored)
        ):
            return None
        # InputSort validates per-gate rank permutations; a corrupt
        # entry raises ValueError, which _store_get turns into a miss
        return InputSort(self.circuit, self.canonical.unpack_leads(stored))

    def record_sort(self, name: str, sort: "InputSort") -> None:
        """Write a derived heuristic sort back to the persistent store
        (no-op without one)."""
        self._store_put(
            "sort", name, {"ranks": self.canonical.pack_leads(sort.ranks)}
        )

    def heuristic1_sort(self) -> "InputSort":
        """Heuristic 1 from the cached path counts (no extra counting)."""
        from repro.sorting.heuristics import heuristic1_sort

        cached = self._store_get("sort", "heu1", self._load_sort)
        if cached is not None:
            return cached
        sort = heuristic1_sort(self.circuit, counts=self.counts)
        self.record_sort("heu1", sort)
        return sort

    def heuristic2_analysis(
        self, max_accepted: int | None = None
    ) -> "Heuristic2Analysis":
        """Algorithm 3 with both superset passes through this session."""
        from repro.sorting.heuristics import heuristic2_analysis

        return heuristic2_analysis(
            self.circuit, max_accepted=max_accepted, session=self
        )

    def heuristic2_sort(self, max_accepted: int | None = None) -> "InputSort":
        """Heuristic 2; a budget also bounds its FS/NR passes.  Only an
        unbudgeted call serves the stored ``sort/heu2`` entry: under a
        budget the passes come from stored ``classify`` entries that fit
        it, so an over-budget FS^sup aborts cold and warm alike."""
        if max_accepted is None:
            cached = self._store_get("sort", "heu2", self._load_sort)
            if cached is not None:
                return cached
        return self.heuristic2_analysis(max_accepted=max_accepted).sort

    def sort(self, kind: str, max_accepted: int | None = None) -> "InputSort":
        """The named sort: ``pin``, ``heu1``, ``heu2`` or ``heu2inv``.

        ``max_accepted`` bounds the Heu2 FS and NR passes, FS first: the
        supersets keep Lemma 1's order NR ⊆ LP(σ^π) ⊆ FS, so a completed
        budgeted FS pass leaves no later pass room to overflow.  The
        same order lets :meth:`classify` answer a SIGMA_PI pass under
        this sort without a DFS once the FS and NR passes agree."""
        from repro.sorting.input_sort import InputSort

        if kind not in SORT_KINDS:
            raise ValueError(f"unknown sort {kind!r}; valid: {SORT_KINDS}")
        if kind == "pin":
            return InputSort.pin_order(self.circuit)
        if kind == "heu1":
            return self.heuristic1_sort()
        sort = self.heuristic2_sort(max_accepted)
        return sort.inverted() if kind == "heu2inv" else sort

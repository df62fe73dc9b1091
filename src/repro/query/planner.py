"""The federated FlowQL planner: one hierarchy-aware query plane.

The paper's central loop (Figs. 3-6) is query-driven: drilldown routes
work *down* the hierarchy, repeated access triggers caching and
ski-rental replication.  :class:`FederatedQueryPlanner` is where those
pieces meet:

* **Routing** — a query whose sites/window the root FlowDB covers runs
  on the cloud executor unchanged; otherwise the planner fans out to
  the shallowest store-bearing level whose stores cover the requested
  sites, rehydrates their partition summaries, recombines the partial
  trees with Merge (and Diff for ``VS``), and applies the same Table II
  operator tail as the cloud path.
* **Caching** — results are memoized in a :class:`QueryCache` keyed on
  (plan, window); :meth:`on_epoch_closed` drops only the entries whose
  window the boundary (or a late delivery) could change, so an epoch
  close never serves stale answers.
* **Folding** — every window read, cold or standing, collapses into one
  tree through :class:`~repro.flows.fold.WindowFold`; this module only
  picks the sources and ships them.
* **Replication feed** — every remote partition read is recorded
  through :meth:`Manager.record_remote_access`, so real FlowQL traffic
  (not a synthetic trace) drives the Fig. 6 adaptive-replication cycle.
  Partitions the engine has replicated to the planner's root-side
  replica store are served locally on later queries — no WAN traffic.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple, Union

from repro.core.primitive import QueryRequest
from repro.core.summary import Location
from repro.datastore.cache import QueryCache
from repro.datastore.partitions import Partition
from repro.datastore.recombine import combine_summaries
from repro.datastore.storage import RoundRobinStorage
from repro.datastore.store import DataStore
from repro.datastore.summary_query import approx_result_bytes
from repro.errors import FlowQLPlanningError, TransferError
from repro.flowql.ast import FlowQLQuery, TimeSpec
from repro.flowql.executor import FlowQLResult, apply_operator
from repro.flowql.parser import parse
from repro.flows.fold import WindowFold
from repro.flows.tree import Flowtree
from repro.obs.bridge import QUERY_SECONDS
from repro.query.plan import (
    ROUTE_CLOUD,
    ROUTE_FEDERATED,
    CacheInfo,
    Degradation,
    QueryOutcome,
    QueryPlan,
    SiteRead,
)
from repro.query.subscriptions import SubscriptionRegistry

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.runtime import HierarchyRuntime


def _covers(label: str, site: str) -> bool:
    """Whether a store labeled ``label`` holds exactly ``site``'s data.

    A store covers a requested site when it *is* that site or sits
    strictly below it — an ancestor store's merged tree would overcount
    (it folds in the site's siblings), so it never covers.
    """
    return label == site or label.startswith(site + "/")


class FederatedQueryPlanner:
    """Routes FlowQL across a :class:`HierarchyRuntime`'s stores."""

    def __init__(
        self,
        runtime: "HierarchyRuntime",
        cache: Optional[QueryCache] = None,
        replica_budget_bytes: int = 256 * 1024 * 1024,
    ) -> None:
        self.runtime = runtime
        #: reactive result cache; set to None to disable caching
        self.cache = cache if cache is not None else QueryCache()
        # the landing zone for shipped partials and bought replicas: a
        # root-located store that is *not* registered with the runtime
        # (registering it would make the root part of the rollup)
        self.replica_store = DataStore(
            runtime.hierarchy.root.location,
            RoundRobinStorage(replica_budget_bytes),
            fabric=runtime.fabric,
        )
        #: the planner's notion of "now" (advanced by epoch closes)
        self.clock = 0.0
        #: the routing decision of the most recent execute()
        self.last_plan: Optional[QueryPlan] = None
        #: standing queries, delta-maintained at every epoch close
        self.subscriptions = SubscriptionRegistry(self)
        # the highest FlowDB entry id already inspected for late
        # deliveries (parked exports landing after their epoch closed)
        self._late_watermark = runtime.db.max_entry_id()

    def _topology_generation(self) -> int:
        """The runtime's live topology generation (0 when static)."""
        model = getattr(self.runtime, "model", None)
        return 0 if model is None else model.generation

    # -- plan selection ------------------------------------------------------

    def plan(self, query: FlowQLQuery) -> QueryPlan:
        """Decide where one parsed query executes (no side effects)."""
        window = (query.time.start, query.time.end)
        if self._cloud_covers(query):
            return QueryPlan(
                route=ROUTE_CLOUD, window=window, sites=list(query.sites)
            )
        level, labels = self._federated_target(query)
        return QueryPlan(
            route=ROUTE_FEDERATED, window=window, level=level, sites=labels
        )

    def _windows(self, query: FlowQLQuery) -> List[TimeSpec]:
        specs = [query.time]
        if query.vs_time is not None:
            specs.append(query.vs_time)
        return specs

    def _cloud_covers(self, query: FlowQLQuery) -> bool:
        """Whether the root FlowDB holds data for every site and window."""
        db = self.runtime.db
        sites = query.sites or None
        try:
            return all(
                db.entries(sites, spec.start, spec.end)
                for spec in self._windows(query)
            )
        except FlowQLPlanningError:
            # sites not indexed at the root: drill into the hierarchy
            return False

    def _federated_target(
        self, query: FlowQLQuery
    ) -> Tuple[str, List[str]]:
        """The shallowest store-bearing level covering the query."""
        for level in self.runtime.store_levels():
            labels = self._covering_labels(level, query)
            if labels is not None:
                return level, labels
        raise FlowQLPlanningError(
            "no level's stores cover the requested sites/window "
            f"(sites={query.sites or None}, "
            f"start={query.time.start}, end={query.time.end})"
        )

    def _covering_labels(
        self, level: str, query: FlowQLQuery
    ) -> Optional[List[str]]:
        """Site labels participating at one level, or None if the level
        cannot cover every requested site in every query window."""
        stores = self.runtime.stores_at_level(level)
        participating: set = set()
        for spec in self._windows(query):
            active = {
                label
                for label, store in stores.items()
                if self._window_partitions(store, spec.start, spec.end)
            }
            if query.sites:
                active = {
                    label
                    for label in active
                    if any(_covers(label, site) for site in query.sites)
                }
                for site in query.sites:
                    if not any(_covers(label, site) for label in active):
                        return None
            elif not active:
                return None
            participating |= active
        return sorted(participating)

    # -- execution -----------------------------------------------------------

    def execute(
        self, flowql: Union[str, FlowQLQuery], now: Optional[float] = None
    ) -> QueryOutcome:
        """Plan and run one FlowQL query (text or parsed).

        Returns a typed :class:`~repro.query.plan.QueryOutcome` — the
        result plus its plan, cache provenance, and (when covering
        stores were unreachable) a :class:`~repro.query.plan.
        Degradation` record instead of an exception.  Degraded partial
        answers are never cached.
        """
        query = parse(flowql) if isinstance(flowql, str) else flowql
        now = self.clock if now is None else now
        obs = self.runtime.obs
        started = time.perf_counter()
        with obs.span("query", operator=query.select.name) as span:
            outcome = self._execute_planned(query, now)
            span.set_attr("route", outcome.plan.route)
            span.set_attr("cache_hit", outcome.cache.hit)
            if outcome.degradation is not None:
                span.set_attr("degraded", True)
        obs.observe(
            QUERY_SECONDS,
            time.perf_counter() - started,
            route="cached" if outcome.cache.hit else outcome.plan.route,
        )
        return outcome

    def _execute_planned(
        self, query: FlowQLQuery, now: float
    ) -> QueryOutcome:
        plan = self.plan(query)
        stats = self.runtime.stats
        key = None
        if self.cache is not None:
            key = self.cache.key_for(
                "flowql",
                self._cache_request(query, plan),
                query.time.start,
                query.time.end,
            )
            plan.cache_key = key
            entry = self.cache.get(key, now)
            if entry is not None:
                plan.cache_hit = True
                stats.queries_cached += 1
                self.last_plan = plan
                return QueryOutcome(
                    result=entry.value.copy(),
                    plan=plan,
                    cache=CacheInfo(hit=True, key=key),
                )
        degradation: Optional[Degradation] = None
        if plan.route == ROUTE_CLOUD:
            result = self.runtime.executor.execute_query(query)
            stats.queries_cloud += 1
        else:
            degradation = Degradation()
            result = self._execute_federated(plan, query, now, degradation)
            stats.queries_federated += 1
            if degradation.is_degraded:
                stats.queries_degraded += 1
            else:
                degradation = None
        if self.cache is not None and degradation is None:
            # a partial answer must not satisfy tomorrow's full query
            self.cache.put(
                key,
                result.copy(),
                approx_result_bytes((result.scalar, result.rows)),
                now,
                window=self._effective_window(query),
            )
        self.last_plan = plan
        return QueryOutcome(
            result=result,
            plan=plan,
            degradation=degradation,
            cache=CacheInfo(hit=False, key=key),
        )

    @staticmethod
    def _effective_window(
        query: FlowQLQuery,
    ) -> Tuple[Optional[float], Optional[float]]:
        """The hull of every window the query reads (FROM and VS).

        This is what epoch-scoped cache invalidation keys on: a result
        whose hull closed before the previous boundary cannot be
        changed by newly sealed epochs, so its cache entry survives.
        ``None`` on either side means unbounded (always invalidated).
        """
        starts = [query.time.start]
        ends = [query.time.end]
        if query.vs_time is not None:
            starts.append(query.vs_time.start)
            ends.append(query.vs_time.end)
        start = None if any(s is None for s in starts) else min(starts)
        end = None if any(e is None for e in ends) else max(ends)
        return (start, end)

    def _cache_request(
        self, query: FlowQLQuery, plan: QueryPlan
    ) -> QueryRequest:
        """The (plan, query) fingerprint the cache keys on."""
        return QueryRequest(
            operator=query.select.name,
            params={
                "args": tuple(query.select.args),
                "route": plan.route,
                "level": plan.level,
                "sites": tuple(query.sites),
                "where": tuple(
                    (r.feature, r.value, r.mask) for r in query.where
                ),
                "metric": query.metric,
                "limit": query.limit,
                "vs": (
                    (query.vs_time.start, query.vs_time.end)
                    if query.vs_time is not None
                    else None
                ),
                # a replica promotion mid-window changes how (and from
                # where) a federated plan reads; keying on the replica
                # generation retires entries cached before the promotion
                "replica_gen": len(self.replica_store.replicas.all()),
                # live reconfiguration (join/leave/split/merge/migrate)
                # changes which stores exist and where; keying on the
                # topology generation retires entries cached under the
                # previous shape
                "topology_gen": self._topology_generation(),
            },
        )

    def _execute_federated(
        self,
        plan: QueryPlan,
        query: FlowQLQuery,
        now: float,
        degradation: Degradation,
    ) -> FlowQLResult:
        tree = self._assemble(
            plan, query, query.time, now, degradation, self._new_fold()
        )
        if query.vs_time is not None:
            tree = tree.diff(
                self._assemble(
                    plan, query, query.vs_time, now, degradation,
                    self._new_fold(),
                )
            )
        volume = self.runtime.stats.level(plan.level)
        volume.queries_served += 1
        volume.query_bytes_out += plan.shipped_bytes
        return apply_operator(tree, query)

    def _new_fold(self) -> WindowFold:
        return WindowFold(self.runtime.db.merge_node_budget)

    def _assemble(
        self,
        plan: QueryPlan,
        query: FlowQLQuery,
        spec: TimeSpec,
        now: float,
        degradation: Degradation,
        fold: WindowFold,
    ) -> Flowtree:
        """Advance ``fold`` over one window's partitions at the plan's
        level and return the window tree.

        A cold read passes an empty fold; a standing query passes the
        fold it kept, so only partitions sealed since are read.  A store
        whose read fails on a faulty link is retried against replica
        coverage, then against covering stores at other levels; what
        stays unreachable lands in ``degradation`` and the merge
        proceeds over the surviving partials.
        """
        stores = self.runtime.stores_at_level(plan.level)
        sources: Dict[str, List[Partition]] = {}
        for label in stores:
            if query.sites and not any(
                _covers(label, site) for site in query.sites
            ):
                continue
            partitions = self._window_partitions(
                stores[label], spec.start, spec.end
            )
            if partitions:
                sources[label] = partitions
        resumed = bool(fold.prefix)
        if resumed:
            # a kept fold continues only while a cold read would fold
            # every window partition into the site folds
            for label in sorted(sources):
                reason = self._read_outside_fold(
                    stores[label], sources[label]
                )
                if reason is not None:
                    fold.broken = reason
                    return fold.tree
        fresh = fold.advance(sources, lambda p: p.partition_id)
        for label, partitions in fresh.items():
            try:
                plan.reads.append(
                    self._read_store(
                        label, plan.level, stores[label], partitions, now,
                        fold, False,
                    )
                )
            except TransferError as exc:
                if resumed:
                    # a torn continuation: the caller folds afresh
                    fold.broken = "degraded"
                    return fold.tree
                fold.discard(label)
                reads, covered, stale, attempted = self._degraded_read(
                    label, plan.level, stores[label], partitions, spec, now,
                    fold,
                )
                plan.reads.extend(reads)
                if not covered:
                    fold.broken = "degraded"
                    degradation.note(
                        label, stale, str(exc), attempted=attempted
                    )
        if not fold.trees():
            if degradation.is_degraded:
                # every covering store was unreachable: an honest empty
                # partial beats an exception — the degradation record
                # carries what is missing
                return Flowtree(
                    self.runtime.policy,
                    node_budget=self.runtime.db.merge_node_budget,
                )
            raise FlowQLPlanningError(
                f"no partitions at level {plan.level!r} match the window "
                f"(start={spec.start}, end={spec.end})"
            )
        return fold.tree

    def _degraded_read(
        self,
        label: str,
        level: str,
        store: DataStore,
        partitions: List[Partition],
        spec: TimeSpec,
        now: float,
        fold: WindowFold,
    ) -> Tuple[List[SiteRead], bool, Optional[float], List[str]]:
        """Fallback coverage for a store whose remote read failed.

        Tries, in order: root-side replicas of the failed store's
        partitions (no fabric traffic), then covering stores at other
        store-bearing levels strictly under the failed store.  What it
        finds is served into ``fold`` under ``label``.  Returns
        ``(reads, fully_covered, stale_through, attempted)`` —
        ``fully_covered=False`` means the site must be reported in the
        degradation record, with the served data complete only through
        ``stale_through``; ``attempted`` lists every node path the
        fallback chain actually tried (the failed store first), which
        lands in :attr:`Degradation.attempted_paths` for operator
        debugging and gateway error bodies.
        """
        attempted = [store.location.path]
        # replicas answer locally even while the link is down
        read = self._read_store(
            label, level, store, partitions, now, fold, True
        )
        attempted.append(self.replica_store.location.path)
        reads = [read] if read.replica_partitions else []
        if len(read.replica_partitions) == len(partitions):
            return reads, True, None, attempted
        # shallower/deeper coverage: stores at other levels holding
        # exactly this site's data (never an ancestor — it overcounts)
        for other_level in self.runtime.store_levels():
            if other_level == level:
                continue
            candidates = {
                lab: st
                for lab, st in self.runtime.stores_at_level(
                    other_level
                ).items()
                if _covers(lab, label) and lab != label
            }
            if not candidates:
                continue
            alt_reads: List[SiteRead] = []
            alt = self._new_fold()
            try:
                for lab in sorted(candidates):
                    parts = self._window_partitions(
                        candidates[lab], spec.start, spec.end
                    )
                    if not parts:
                        continue
                    attempted.append(candidates[lab].location.path)
                    alt_reads.append(
                        self._read_store(
                            lab, other_level, candidates[lab], parts, now,
                            alt, False,
                        )
                    )
            except TransferError:
                continue  # that level is unreachable too
            if alt.trees():
                for tree in alt.trees():
                    fold.serve(label, tree, "alternative-coverage")
                return reads + alt_reads, True, None, attempted
        # partial at best: the replica subset (possibly nothing)
        replicated = set()
        if read.replica_partitions:
            replicated = set(read.replica_partitions)
        stale = None
        for partition in partitions:
            if partition.partition_id in replicated:
                end = partition.summary.meta.interval.end
                stale = end if stale is None else max(stale, end)
        return reads, False, stale, attempted

    @staticmethod
    def _window_partitions(
        store: DataStore,
        start: Optional[float],
        end: Optional[float],
        aggregator: Optional[str] = None,
    ) -> List[Partition]:
        """Flowtree partitions at one store overlapping a window."""
        selected = []
        for partition in store.catalog.all():
            if partition.summary.kind != "flowtree":
                continue
            if aggregator is not None and partition.aggregator != aggregator:
                continue
            interval = partition.summary.meta.interval
            if start is not None and interval.end <= start:
                continue
            if end is not None and interval.start >= end:
                continue
            selected.append(partition)
        return selected

    def _replica_id(self, partition: Partition) -> str:
        return f"{partition.partition_id}@{self.replica_store.location.path}"

    def _read_outside_fold(
        self, store: DataStore, partitions: List[Partition]
    ) -> Optional[str]:
        """Why a read of ``partitions`` would bypass the site folds."""
        if store.privacy is not None:
            return "privacy-guard"
        if any(
            self._replica_id(p) in self.replica_store.replicas
            for p in partitions
        ):
            return "replica-served"
        return None

    def _read_store(
        self,
        label: str,
        level: str,
        store: DataStore,
        partitions: List[Partition],
        now: float,
        fold: WindowFold,
        replicas_only: bool,
    ) -> SiteRead:
        """Read one store's partitions into ``fold``: replicas locally,
        the rest shipped.

        Remote partitions fold into the store's site folds; what is
        shipped is accounted on the fabric and fed to the manager's
        replication engine — the engine may replicate the partition into
        :attr:`replica_store` mid-stream, so later reads turn local.  A
        privacy-guarded store ships its export instead, and replicas are
        served individually; both are merged outside the site folds.
        With ``replicas_only`` the remote ship is skipped entirely (the
        degraded-read path: serve what the root already holds).
        """
        read = SiteRead(
            site=label,
            level=level,
            partitions=[p.partition_id for p in partitions],
        )
        root_path = self.replica_store.location.path
        remote: Dict[str, List[Partition]] = {}
        with self.runtime.obs.span(
            "fetch", site=label, level=level
        ) as span:
            for partition in partitions:
                replica_id = self._replica_id(partition)
                if replica_id in self.replica_store.replicas:
                    replica = self.replica_store.replicas.get(replica_id)
                    replica.record_access(
                        now, replica.size_bytes, remote=False
                    )
                    read.replica_partitions.append(partition.partition_id)
                    fold.serve(
                        label, replica.summary.payload, "replica-served"
                    )
                elif not replicas_only:
                    remote.setdefault(partition.aggregator, []).append(
                        partition
                    )
            for aggregator, parts in sorted(remote.items()):
                trees = [p.summary.payload for p in parts]
                if store.privacy is None:
                    shipped = fold.fold(label, aggregator, trees)
                else:
                    # the partial leaves the level's trust domain
                    shipped = store.privacy.export(
                        aggregator,
                        combine_summaries(
                            [p.summary for p in parts], shrink=1.0
                        ),
                    ).payload
                    fold.serve(label, shipped, "privacy-guard")
                size = shipped.estimated_size_bytes()
                share = max(1, size // len(parts))
                for partition in parts:
                    partition.record_access(now, share, remote=True)
                    self.runtime.manager.record_remote_access(
                        store, self.replica_store, partition.partition_id,
                        share, now,
                    )
                if store.location.path != root_path:
                    self.runtime.fabric.transfer(
                        store.location, self.replica_store.location,
                        size, now,
                    )
                read.shipped_bytes += size
            span.set_attr("shipped_bytes", read.shipped_bytes)
            span.set_attr(
                "replica_partitions", len(read.replica_partitions)
            )
        return read

    # -- drilldown API for applications --------------------------------------

    def window_tree(
        self,
        site: Union[str, Location],
        start: Optional[float] = None,
        end: Optional[float] = None,
        aggregator: Optional[str] = None,
        now: Optional[float] = None,
    ) -> Optional[Flowtree]:
        """One site's merged Flowtree for a window, via the federated
        read path (replica-first, fabric-accounted, feeding replication).

        This is the planner-backed replacement for applications'
        hand-rolled ``store.window_summary(..., record_access=True)``
        drilldowns.  Returns None when no partition overlaps.
        """
        if isinstance(site, Location):
            site = self.runtime.site_label(site)
        now = self.clock if now is None else now
        store = self.runtime.store_for(site)
        level = self.runtime.hierarchy.node(store.location).level.name
        partitions = self._window_partitions(store, start, end, aggregator)
        if not partitions:
            return None
        fold = self._new_fold()
        read = self._read_store(
            site, level, store, partitions, now, fold, False
        )
        volume = self.runtime.stats.level(level)
        volume.queries_served += 1
        volume.query_bytes_out += read.shipped_bytes
        return fold.tree

    # -- cache lifecycle -----------------------------------------------------

    def invalidate_cache(self) -> int:
        """Drop every cached result; returns how many were dropped."""
        if self.cache is None:
            return 0
        return self.cache.invalidate()

    def on_epoch_closed(self, now: float) -> int:
        """Epoch boundary: scope invalidation to what actually changed.

        A close seals data *after* the previous boundary, so cached
        results over fully-closed historical windows are still exact —
        only entries whose window was open (reaching past the previous
        boundary, or unbounded) are dropped.  Two escape hatches keep
        this safe:

        * **Late deliveries.**  Parked exports can land whole epochs
          after the interval they describe; any FlowDB entry that
          arrived since the last close with an interval at or before
          the previous boundary re-opens the cached windows it overlaps.
        * **Topology.**  Reconfiguration doesn't come through here at
          all — :meth:`invalidate_cache` stays the wholesale drop for
          elastic operations, and cache keys carry the topology
          generation besides.

        Standing queries refresh after invalidation, so a subscription
        rebuild that re-executes never sees a stale entry.  Returns the
        number of cache entries dropped.
        """
        boundary = self.clock
        self.clock = max(self.clock, now)
        dropped = 0
        if self.cache is not None:
            dropped = self.cache.invalidate_open(boundary)
            for entry in self.runtime.db.entries_since(
                self._late_watermark
            ):
                if entry.interval.end <= boundary:
                    dropped += self.cache.invalidate_window(
                        entry.interval.start, entry.interval.end
                    )
        self._late_watermark = self.runtime.db.max_entry_id()
        self.subscriptions.on_epoch_closed(self.clock)
        return dropped

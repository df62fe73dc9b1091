"""Standing FlowQL queries: the planner-side subscription registry.

Dashboards and detectors re-issue the same FlowQL every epoch; the
reactive :class:`~repro.datastore.cache.QueryCache` only helps *within*
an epoch, because each close seals new data.  ``SUBSCRIBE <flowql>``
turns such a query into a *standing* one: the planner materializes its
plan's result once and then **delta-maintains** it on every epoch close
— Merge of the newly sealed partitions into the materialized view
instead of re-reading (and re-shipping) the whole window.

Correctness contract — a delta is identical to a cold re-execution of
the same query, because it *is* one.  Cold reads and standing queries
run one window fold (:mod:`repro.flows.fold`): FlowDB entries merged in
``(interval.start, location)`` order on the cloud route; per-site folds
merged in sorted site order on the federated route.  A subscription
keeps each window's :class:`~repro.flows.fold.WindowFold` between
closes and advances it through the cold path's own code, which folds
only the sources past the fold's prefix — new epochs only ever arrive
at the tail.  Standing queries over the same windows share one set of
folds, so a boundary folds (and ships) each window once.  Everything
else is a *rebuild*: drop the folds and run the cold path once.
Rebuild triggers, by ``reason``:

* ``generation`` — a topology change (join/leave/split/merge/migrate);
* ``route-changed`` — the query now plans to another route or level;
* ``uncovered`` — the query did not plan at an earlier close;
* ``entry-prefix`` / ``partition-prefix`` — a folded source is gone or
  moved (retention, expiration, restart recovery re-ids entries);
* ``replica-served`` / ``privacy-guard`` / ``alternative-coverage`` —
  the cold read served trees outside the site folds (a root replica, a
  privacy-degraded export, another level covering an unreachable
  store), so the fold answers its close but cannot be continued;
* ``degraded`` — a read failed, at the last materialization or
  mid-delta.

Ordinary closes never rebuild.  ``init`` marks only a subscription's
first materialization.

Updates are typed (:class:`SubscriptionUpdate`), sequence-numbered, and
kept in a bounded ring per subscription, which is what makes the
serving plane's long-poll ``/v1/subscribe`` route cursor-resumable: a
reconnecting client replays from its cursor, or resyncs to the latest
snapshot when the gap outgrew the ring (every update carries the full
result, so a resync loses history, never correctness).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)
from collections import deque

from repro.errors import FlowQLPlanningError, WireSchemaError
from repro.flowql.ast import FlowQLQuery
from repro.flowql.executor import FlowQLResult, apply_operator
from repro.flowql.parser import parse
from repro.flows.tree import Flowtree
from repro.flows.fold import WindowFold
from repro.query.plan import (
    ROUTE_CLOUD,
    ROUTE_FEDERATED,
    Degradation,
    QueryPlan,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.query.planner import FederatedQueryPlanner

#: ``repro_subscribe_*`` metric family names
ACTIVE = "repro_subscribe_active"
UPDATES_TOTAL = "repro_subscribe_updates_total"
REFRESH_SECONDS = "repro_subscribe_refresh_seconds"
SHIPPED_BYTES_TOTAL = "repro_subscribe_shipped_bytes_total"
REBUILDS_TOTAL = "repro_subscribe_rebuilds_total"

#: refresh-latency buckets: sub-millisecond deltas up to full rebuilds
_REFRESH_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: updates kept per subscription for cursor resume
HISTORY = 64

_subscription_ids = itertools.count(1)

#: update modes
MODE_INIT = "init"
MODE_DELTA = "delta"
MODE_REBUILD = "rebuild"


@dataclass(frozen=True)
class SubscriptionUpdate:
    """One epoch's push for one standing query.

    Every update is a *snapshot*: ``result`` is the query's complete
    current answer (identical to what a cold execution at the same
    boundary returns), so a client that missed updates only needs the
    latest one.  ``mode`` records how the snapshot was produced
    (``init`` for the first materialization, ``delta`` for an
    incremental merge, ``rebuild`` for every later from-scratch one) and
    ``shipped_bytes`` what the refresh moved across the fabric — the
    two numbers the subscribe benchmark compares against re-execution.
    """

    subscription_id: str
    seq: int
    epoch: float
    generation: int
    mode: str
    result: FlowQLResult
    route: str
    shipped_bytes: int = 0
    changed: bool = True
    degraded: bool = False

    def to_wire(self) -> dict:
        return {
            "subscription_id": self.subscription_id,
            "seq": self.seq,
            "epoch": self.epoch,
            "generation": self.generation,
            "mode": self.mode,
            "result": self.result.to_wire(),
            "route": self.route,
            "shipped_bytes": self.shipped_bytes,
            "changed": self.changed,
            "degraded": self.degraded,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "SubscriptionUpdate":
        try:
            return cls(
                subscription_id=data["subscription_id"],
                seq=int(data["seq"]),
                epoch=float(data["epoch"]),
                generation=int(data["generation"]),
                mode=data["mode"],
                result=FlowQLResult.from_wire(data["result"]),
                route=data.get("route", ROUTE_FEDERATED),
                shipped_bytes=int(data.get("shipped_bytes", 0)),
                changed=bool(data.get("changed", True)),
                degraded=bool(data.get("degraded", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WireSchemaError(
                f"bad SubscriptionUpdate on the wire: {exc}"
            )


def _broken(folds: List[WindowFold]) -> Optional[str]:
    """Why the first of ``folds`` that cannot be continued can't."""
    return next((fold.broken for fold in folds if fold.broken), None)


class _Window:
    """The folds of one list of query windows at the last boundary they
    were advanced to, with the window trees they gave."""

    def __init__(
        self,
        folds: List[WindowFold],
        trees: List[Flowtree],
        boundary: object,
        degraded: bool,
    ) -> None:
        self.folds = folds
        self.trees = trees
        self.boundary = boundary
        self.degraded = degraded


class Subscription:
    """One standing query and its delta-maintained state."""

    def __init__(
        self,
        subscription_id: str,
        query: FlowQLQuery,
        text: str,
        registry: "SubscriptionRegistry",
    ) -> None:
        self.id = subscription_id
        self.query = query
        self.text = text
        self._registry = registry
        self.active = True
        self.seq = 0
        self.updates: Deque[SubscriptionUpdate] = deque(maxlen=HISTORY)
        self.callbacks: List[Callable[[SubscriptionUpdate], None]] = []
        self.callback_errors = 0
        #: one kept fold per window (FROM, then VS), shared with every
        #: standing query over the same windows; None until the
        #: query materializes, and again while it does not plan
        self.folds: Optional[List[WindowFold]] = None
        self.generation = -1
        self.route: Optional[str] = None
        self.level: Optional[str] = None
        self.last_result: Optional[FlowQLResult] = None
        #: lifetime counters (census / benchmark)
        self.delta_refreshes = 0
        self.rebuilds = 0
        self.shipped_bytes_total = 0

    # -- consumer API --------------------------------------------------------

    def latest(self) -> Optional[SubscriptionUpdate]:
        """The most recent update (None before materialization)."""
        with self._registry._lock:
            return self.updates[-1] if self.updates else None

    def updates_since(
        self, cursor: int
    ) -> Tuple[List[SubscriptionUpdate], bool]:
        """Updates with ``seq > cursor``; ``(updates, resynced)``.

        When the cursor has fallen out of the ring, returns whatever
        the ring still holds with ``resynced=True`` — the first update
        is then a snapshot newer than the gap, not its continuation.
        """
        with self._registry._lock:
            pending = [u for u in self.updates if u.seq > cursor]
            resynced = bool(
                pending
                and cursor > 0
                and pending[0].seq != cursor + 1
            )
            return pending, resynced

    def cancel(self) -> None:
        """Deregister: no further updates are produced."""
        self._registry.cancel(self.id)

    def on_update(
        self, callback: Callable[[SubscriptionUpdate], None]
    ) -> None:
        """Register an in-process callback fired per published update."""
        self.callbacks.append(callback)


class SubscribeMetrics:
    """``repro_subscribe_*`` families; a no-op shell when obs is off."""

    def __init__(self, obs) -> None:
        self.enabled = obs.enabled
        if not self.enabled:
            return
        registry = obs.registry
        self.active = registry.gauge(
            ACTIVE, "Standing queries currently registered"
        )
        self.updates = registry.counter(
            UPDATES_TOTAL,
            "Subscription updates published, by mode "
            "(init, delta, rebuild)",
            ("mode",),
        )
        self.refresh_seconds = registry.histogram(
            REFRESH_SECONDS,
            "Per-subscription refresh latency at each epoch close",
            buckets=_REFRESH_BUCKETS,
        )
        self.shipped = registry.counter(
            SHIPPED_BYTES_TOTAL,
            "Fabric bytes moved by subscription refreshes",
        )
        self.rebuilds = registry.counter(
            REBUILDS_TOTAL,
            "Full view rebuilds, by reason (generation, route-changed, "
            "uncovered, entry-prefix, partition-prefix, replica-served, "
            "privacy-guard, alternative-coverage, degraded)",
            ("reason",),
        )

    def published(
        self, mode: str, seconds: float, shipped_bytes: int
    ) -> None:
        if not self.enabled:
            return
        self.updates.labels(mode=mode).inc()
        self.refresh_seconds.labels().observe(seconds)
        if shipped_bytes:
            self.shipped.labels().inc(shipped_bytes)

    def rebuild(self, reason: str) -> None:
        if not self.enabled:
            return
        self.rebuilds.labels(reason=reason).inc()

    def set_active(self, count: int) -> None:
        if not self.enabled:
            return
        self.active.labels().set(count)


class SubscriptionRegistry:
    """Every standing query of one planner, refreshed at epoch closes."""

    def __init__(self, planner: "FederatedQueryPlanner") -> None:
        self.planner = planner
        self._subscriptions: Dict[str, Subscription] = {}
        #: (generation, route, level, sites, windows) -> the folds every
        #: standing query over those windows shares
        self._windows: Dict[tuple, _Window] = {}
        #: serializes fold work; taken before ``_lock``, never after it
        self._refresh_lock = threading.RLock()
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self.metrics = SubscribeMetrics(planner.runtime.obs)
        #: lifetime census (the benchmark and ``/healthz`` read these)
        self.updates_published = 0
        self.rebuilds = 0
        self.delta_refreshes = 0
        self.shipped_bytes_total = 0
        self.refresh_seconds_total = 0.0

    def __len__(self) -> int:
        return len(self._subscriptions)

    # -- registration --------------------------------------------------------

    def register(
        self,
        flowql: Union[str, FlowQLQuery],
        on_update: Optional[
            Callable[[SubscriptionUpdate], None]
        ] = None,
        now: Optional[float] = None,
    ) -> Subscription:
        """Register one standing query and materialize it once.

        Accepts ``SUBSCRIBE SELECT ...`` or bare ``SELECT ...`` text
        (or a parsed query).  When the hierarchy holds no matching data
        yet, the subscription stays pending and materializes at the
        first close that covers it.
        """
        query = parse(flowql) if isinstance(flowql, str) else flowql
        text = flowql if isinstance(flowql, str) else ""
        if query.subscribe:
            query = replace(query, subscribe=False)
        subscription = Subscription(
            f"sub-{next(_subscription_ids)}", query, text, self
        )
        if on_update is not None:
            subscription.on_update(on_update)
        now = self.planner.clock if now is None else now
        with self._refresh_lock, self._lock:
            self._subscriptions[subscription.id] = subscription
            try:
                self._refresh(subscription, now, object())
            except FlowQLPlanningError:
                pass  # nothing to materialize yet; retry at each close
            self.metrics.set_active(len(self._subscriptions))
        return subscription

    def get(self, subscription_id: str) -> Optional[Subscription]:
        with self._lock:
            return self._subscriptions.get(subscription_id)

    def cancel(self, subscription_id: str) -> bool:
        with self._cond:
            subscription = self._subscriptions.pop(subscription_id, None)
            if subscription is None:
                return False
            subscription.active = False
            self.metrics.set_active(len(self._subscriptions))
            self._cond.notify_all()
            return True

    # -- the epoch hook ------------------------------------------------------

    def on_epoch_closed(self, now: float) -> int:
        """Refresh every standing query; returns updates published.

        Runs inside the runtime's ``close_epoch`` (and on restart
        recovery), after rollup/export so the newly sealed partitions
        and FlowDB entries are visible.
        """
        boundary = object()
        published = 0
        with self._refresh_lock:
            with self._lock:
                subscriptions = list(self._subscriptions.values())
            for subscription in subscriptions:
                if not subscription.active:
                    continue
                try:
                    self._refresh(subscription, now, boundary)
                    published += 1
                except FlowQLPlanningError:
                    # the query does not plan right now (no coverage
                    # after a leave/restart, or no data yet): stay
                    # pending and retry at the next boundary
                    subscription.folds = None
            with self._lock:
                kept = [s.folds for s in self._subscriptions.values()]
            self._windows = {
                key: window
                for key, window in self._windows.items()
                if any(window.folds is folds for folds in kept)
            }
        return published

    # -- refresh machinery ---------------------------------------------------

    def _refresh(
        self, subscription: Subscription, now: float, boundary: object
    ) -> None:
        started = time.perf_counter()
        query = subscription.query
        planner = self.planner
        plan = planner.plan(query)
        generation = planner._topology_generation()
        windows = tuple(
            (spec.start, spec.end) for spec in planner._windows(query)
        )
        key = (generation, plan.route, plan.level, tuple(query.sites), windows)
        window, shipped = self._advance(key, query, plan, now, boundary)
        if subscription.seq == 0:
            reason = None
        elif generation != subscription.generation:
            reason = "generation"
        elif subscription.folds is None:
            reason = "uncovered"
        elif (plan.route, plan.level) != (
            subscription.route, subscription.level
        ):
            reason = "route-changed"
        else:
            reason = _broken(subscription.folds)
        subscription.folds = window.folds
        subscription.generation = generation
        subscription.route = plan.route
        subscription.level = plan.level
        if subscription.seq == 0:
            mode = MODE_INIT
        elif reason is None:
            mode = MODE_DELTA
            subscription.delta_refreshes += 1
            self.delta_refreshes += 1
        else:
            mode = MODE_REBUILD
            self.metrics.rebuild(reason)
            subscription.rebuilds += 1
            self.rebuilds += 1
        trees = window.trees
        tree = trees[0] if len(trees) == 1 else trees[0].diff(trees[1])
        self._publish(
            subscription,
            apply_operator(tree, query),
            now,
            generation,
            mode,
            plan.route,
            shipped,
            degraded=window.degraded,
            started=started,
        )

    def _advance(
        self,
        key: tuple,
        query: FlowQLQuery,
        plan: QueryPlan,
        now: float,
        boundary: object,
    ) -> Tuple["_Window", int]:
        """The folds of ``key``'s windows at this boundary, and the bytes
        moved to get them there.

        Kept folds continue through the cold path's own code; folds that
        cannot be continued are dropped and the cold path runs once from
        empty.  Every standing query over the same windows shares the
        result, so each boundary folds a window once.
        """
        window = self._windows.get(key)
        if window is not None and window.boundary is boundary:
            return window, 0
        if window is not None and _broken(window.folds) is None:
            trees, shipped = self._fold(
                query, plan, window.folds, now, Degradation()
            )
            if _broken(window.folds) is None:
                window.trees = trees
                window.boundary = boundary
                return window, shipped
        planner = self.planner
        folds = [planner._new_fold() for _ in planner._windows(query)]
        degradation = Degradation()
        trees, shipped = self._fold(query, plan, folds, now, degradation)
        window = _Window(folds, trees, boundary, degradation.is_degraded)
        self._windows[key] = window
        return window, shipped

    def _fold(
        self,
        query: FlowQLQuery,
        plan: QueryPlan,
        folds: List[WindowFold],
        now: float,
        degradation: Degradation,
    ) -> Tuple[List[Flowtree], int]:
        """Advance each window's fold exactly as a cold execution of
        ``query`` folds it; returns the window trees and bytes shipped."""
        planner = self.planner
        trees: List[Flowtree] = []
        shipped = 0
        for fold, spec in zip(folds, planner._windows(query)):
            if plan.route == ROUTE_CLOUD:
                trees.append(
                    planner.runtime.db.fold_window(
                        fold, query.sites or None, spec.start, spec.end
                    )
                )
                continue
            window_plan = QueryPlan(
                route=plan.route,
                window=(spec.start, spec.end),
                level=plan.level,
                sites=list(plan.sites),
            )
            trees.append(
                planner._assemble(
                    window_plan, query, spec, now, degradation, fold
                )
            )
            shipped += window_plan.shipped_bytes
        return trees, shipped

    def _publish(
        self,
        subscription: Subscription,
        result: FlowQLResult,
        now: float,
        generation: int,
        mode: str,
        route: str,
        shipped: int,
        degraded: bool,
        started: float,
    ) -> None:
        elapsed = time.perf_counter() - started
        with self._cond:
            subscription.seq += 1
            changed = (
                subscription.last_result is None
                or result.to_wire()
                != subscription.last_result.to_wire()
            )
            update = SubscriptionUpdate(
                subscription_id=subscription.id,
                seq=subscription.seq,
                epoch=now,
                generation=generation,
                mode=mode,
                result=result.copy(),
                route=route,
                shipped_bytes=shipped,
                changed=changed,
                degraded=degraded,
            )
            subscription.updates.append(update)
            subscription.last_result = result
            subscription.shipped_bytes_total += shipped
            self.updates_published += 1
            self.shipped_bytes_total += shipped
            self.refresh_seconds_total += elapsed
            self.metrics.published(mode, elapsed, shipped)
            self._cond.notify_all()
        for callback in list(subscription.callbacks):
            try:
                callback(update)
            except Exception:  # noqa: BLE001 - apps must not kill closes
                subscription.callback_errors += 1

    # -- blocking consumers (the serving plane's long-poll) ------------------

    def wait_for(
        self,
        subscription_id: str,
        cursor: int,
        timeout_s: float,
    ) -> Tuple[List[SubscriptionUpdate], bool, bool]:
        """Block until updates past ``cursor`` exist (or timeout).

        Returns ``(updates, resynced, known)`` — ``known=False`` means
        the subscription does not exist (or was cancelled while
        waiting).
        """
        deadline = time.monotonic() + max(0.0, timeout_s)
        with self._cond:
            while True:
                subscription = self._subscriptions.get(subscription_id)
                if subscription is None:
                    return [], False, False
                pending, resynced = subscription.updates_since(cursor)
                if pending:
                    return pending, resynced, True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], False, True
                self._cond.wait(timeout=remaining)

    # -- introspection -------------------------------------------------------

    def census(self) -> dict:
        """A JSON-able snapshot (plane ``/healthz``, CLI)."""
        with self._lock:
            return {
                "active": len(self._subscriptions),
                "updates_published": self.updates_published,
                "delta_refreshes": self.delta_refreshes,
                "rebuilds": self.rebuilds,
                "shipped_bytes_total": self.shipped_bytes_total,
                "subscriptions": {
                    sub.id: {
                        "query": sub.text or sub.query.select.name,
                        "seq": sub.seq,
                        "route": sub.route,
                        "delta_refreshes": sub.delta_refreshes,
                        "rebuilds": sub.rebuilds,
                        "shipped_bytes": sub.shipped_bytes_total,
                    }
                    for sub in self._subscriptions.values()
                },
            }

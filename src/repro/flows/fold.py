"""One query window folded into one tree.

The paper's combination property lets any set of sites and epochs
collapse into one queryable tree (Merge + Compress).  *How* a window
collapses is a single decision, made here for every reader of the
window — cold FlowQL on either route, the planner's ``window_tree``
drilldown, and standing queries:

* **Sources** are taken in a fixed order: FlowDB entries by
  ``(interval.start, location)`` on the cloud route; window partitions
  per store label in catalog order on the federated route.
* **Site folds.**  Each ``(site, aggregator)`` fold starts as a copy of
  its first partition, keeps that partition's node budget, and merges
  the rest in order.
* **The window tree.**  Cloud entries merge, in order, into a fresh
  tree under the root's ``merge_node_budget``; federated site folds
  merge into such a tree sorted by site, then aggregator.  A lone site
  fold that fits the budget *is* the window tree: absorbing it into an
  empty tree would only copy it.

A :class:`WindowFold` remembers the sources it has folded (its
*prefix*), and :meth:`WindowFold.advance` hands back only the sources
past it.  A standing query that keeps its folds between epoch closes
therefore performs exactly the merges a cold read of the same window
performs — identity by construction, compression points included.
What a cold read serves outside the site folds (root replicas,
privacy-degraded exports, other levels' coverage of an unreachable
store) still lands in the window tree but *breaks* the fold: it answers
this boundary and cannot be continued.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
)

from repro.flows.tree import Flowtree

#: the source label of the cloud route's single FlowDB entry stream
CLOUD = ""


def fold_trees(trees: Sequence[Flowtree]) -> Flowtree:
    """A copy of the first tree (keeping its node budget) with the rest
    merged in order: a site fold, the partial a store ships, or a
    recombined run of stored partitions."""
    folded = trees[0].copy()
    for tree in trees[1:]:
        folded.merge(tree)
    return folded


class WindowFold:
    """The resumable fold of one query window into one tree."""

    def __init__(self, budget: Optional[int]) -> None:
        #: the window tree's node budget (the root's ``merge_node_budget``)
        self.budget = budget
        #: label -> source ids folded so far, in fold order
        self.prefix: Dict[str, List[Hashable]] = {}
        #: federated route: label -> aggregator -> site fold
        self.sites: Dict[str, Dict[str, Flowtree]] = {}
        #: label -> trees merged into the window tree outside the site
        #: folds, in read order
        self.served: Dict[str, List[Flowtree]] = {}
        #: why this fold cannot be continued (None while it can)
        self.broken: Optional[str] = None
        self._tree: Optional[Flowtree] = None

    def advance(
        self,
        sources: Mapping[str, Sequence],
        source_id: Callable[[object], Hashable],
    ) -> Dict[str, list]:
        """Step the prefix to ``sources``; returns, by label in sorted
        order, the sources past it — the only ones left to fold.

        New sources only ever arrive at a label's tail.  When a folded
        source is gone or moved instead (expiration, a restart re-ids
        entries, a rewritten catalog), the fold is marked broken and
        nothing is returned.
        """
        for label, folded in self.prefix.items():
            current = sources.get(label, ())[: len(folded)]
            if [source_id(source) for source in current] != folded:
                self.broken = (
                    "entry-prefix" if label == CLOUD else "partition-prefix"
                )
                return {}
        fresh: Dict[str, list] = {}
        for label in sorted(sources):
            items = sources[label]
            rest = items[len(self.prefix.get(label, ())):]
            self.prefix[label] = [source_id(source) for source in items]
            if rest:
                fresh[label] = rest
        return fresh

    def merge(self, trees: Iterable[Flowtree]) -> None:
        """Cloud route: merge sources, in order, into the window tree."""
        for tree in trees:
            if self._tree is None:
                self._tree = self._fresh(tree)
            self._tree.merge(tree)

    def fold(
        self, label: str, aggregator: str, trees: Sequence[Flowtree]
    ) -> Flowtree:
        """Extend one site fold by ``trees``, in order.

        Returns what the store ships for them: the new site fold itself,
        or — when extending an existing one — the fold of just these
        trees (a lone tree as it is; only its size is read).
        """
        self._tree = None
        groups = self.sites.setdefault(label, {})
        site = groups.get(aggregator)
        if site is None:
            groups[aggregator] = site = fold_trees(trees)
            return site
        for tree in trees:
            site.merge(tree)
        return trees[0] if len(trees) == 1 else fold_trees(trees)

    def serve(self, label: str, tree: Flowtree, reason: str) -> None:
        """Merge ``tree`` into the window tree outside the site folds."""
        self._tree = None
        self.served.setdefault(label, []).append(tree)
        if self.broken is None:
            self.broken = reason

    def discard(self, label: str) -> None:
        """Drop what one label contributed (its read failed midway)."""
        self._tree = None
        self.sites.pop(label, None)
        self.served.pop(label, None)
        self.prefix.pop(label, None)

    def trees(self) -> List[Flowtree]:
        """Every tree the window tree merges, in merge order."""
        ordered: List[Flowtree] = []
        for label in sorted(self.sites.keys() | self.served.keys()):
            ordered.extend(self.served.get(label, ()))
            groups = self.sites.get(label, {})
            ordered.extend(groups[agg] for agg in sorted(groups))
        return ordered

    @property
    def tree(self) -> Flowtree:
        """The window tree (recomputed after a site fold moved)."""
        if self._tree is None:
            trees = self.trees()
            if len(trees) == 1 and not self.served and (
                self.budget is None or trees[0].node_count <= self.budget
            ):
                self._tree = trees[0]
            else:
                self._tree = self._fresh(trees[0])
                for tree in trees:
                    self._tree.merge(tree)
        return self._tree

    def _fresh(self, like: Flowtree) -> Flowtree:
        return Flowtree(
            like.policy, node_budget=self.budget, metric=like.metric
        )

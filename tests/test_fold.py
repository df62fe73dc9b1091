"""The window fold: the one merge order cold reads and standing queries
share, and the prefix bookkeeping that lets a kept fold continue."""

from __future__ import annotations

from types import SimpleNamespace

from repro.flows.tree import Flowtree
from repro.flows.fold import CLOUD, WindowFold, fold_trees


def tree_of(policy, flows, budget=4096):
    tree = Flowtree(policy, node_budget=budget)
    tree.ingest(flows)
    return tree


def source(pid):
    return SimpleNamespace(pid=pid)


def ids(sources):
    return [s.pid for s in sources]


class TestAdvance:
    def test_only_sources_past_the_prefix_come_back(self):
        fold = WindowFold(None)
        first = fold.advance({"a": [source(1)], "b": []}, lambda s: s.pid)
        assert {label: ids(s) for label, s in first.items()} == {"a": [1]}
        grown = fold.advance(
            {"a": [source(1), source(2)], "b": [source(3)]},
            lambda s: s.pid,
        )
        assert {label: ids(s) for label, s in grown.items()} == {
            "a": [2], "b": [3],
        }
        assert fold.broken is None

    def test_a_vanished_source_breaks_the_fold(self):
        fold = WindowFold(None)
        fold.advance({"a": [source(1), source(2)]}, lambda s: s.pid)
        assert fold.advance({"a": [source(2)]}, lambda s: s.pid) == {}
        assert fold.broken == "partition-prefix"
        cloud = WindowFold(None)
        cloud.advance({CLOUD: [source(1)]}, lambda s: s.pid)
        cloud.advance({CLOUD: []}, lambda s: s.pid)
        assert cloud.broken == "entry-prefix"


class TestWindowTree:
    def test_resumed_site_fold_equals_a_cold_fold(
        self, policy, random_flows
    ):
        epochs = [
            tree_of(policy, random_flows(300, seed=s, epoch=s), budget=400)
            for s in range(4)
        ]
        resumed = WindowFold(65536)
        resumed.fold("r1", "ft", epochs[:2])
        shipped = resumed.fold("r1", "ft", epochs[2:])
        cold = WindowFold(65536)
        cold.fold("r1", "ft", epochs)
        assert shipped.node_count == fold_trees(epochs[2:]).node_count
        assert resumed.tree.to_dict() == cold.tree.to_dict()
        assert cold.sites["r1"]["ft"].compressions > 0

    def test_lone_site_fold_is_the_window_tree(self, policy, random_flows):
        fold = WindowFold(65536)
        site = fold.fold("r1", "ft", [tree_of(policy, random_flows(50))])
        assert fold.tree is site
        fold.fold("r2", "ft", [tree_of(policy, random_flows(50, seed=2))])
        assert fold.tree is not site
        assert fold.tree.node_budget == 65536

    def test_served_trees_merge_but_break_the_fold(
        self, policy, random_flows
    ):
        fold = WindowFold(65536)
        replica = tree_of(policy, random_flows(50))
        fold.serve("r1", replica, "replica-served")
        fold.serve("r1", replica, "privacy-guard")
        assert fold.broken == "replica-served"  # the first reason holds
        assert fold.tree is not replica  # never hand out a shared tree
        assert fold.tree.total() == replica.total() + replica.total()

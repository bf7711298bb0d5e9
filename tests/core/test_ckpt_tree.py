"""Checkpoint tree mechanics: trunk lookup, branching, release accounting,
and the memoised golden-node lookup."""

import pytest

from repro.core import CheckpointNode, CheckpointTree
from repro.core.errors import SimulationError


def make_tree(times=(0.0, 1e-6, 2e-6)):
    tree = CheckpointTree()
    tree.set_trunk([(t, f"snap@{t}") for t in times])
    return tree


class TestTrunk:
    def test_first_checkpoint_is_root(self):
        tree = make_tree()
        assert tree.root.kind == "root"
        assert tree.root.time == 0.0
        kinds = [node.kind for node in tree.trunk]
        assert kinds == ["root", "trunk", "trunk"]

    def test_trunk_is_a_chain(self):
        tree = make_tree()
        trunk = tree.trunk
        assert trunk[1].parent is trunk[0]
        assert trunk[2].parent is trunk[1]

    def test_trunk_at_picks_deepest_at_or_before(self):
        tree = make_tree()
        assert tree.trunk_at(0.0).time == 0.0
        assert tree.trunk_at(1e-6).time == 1e-6
        assert tree.trunk_at(1.5e-6).time == 1e-6
        assert tree.trunk_at(5e-6).time == 2e-6
        # Before the root: fall back to the root, never IndexError.
        assert tree.trunk_at(-1.0).time == 0.0

    def test_empty_tree_rejected(self):
        tree = CheckpointTree()
        with pytest.raises(SimulationError):
            tree.set_trunk([])
        with pytest.raises(SimulationError):
            tree.trunk_at(0.0)


class TestBranches:
    def test_branch_chain_counts(self):
        tree = make_tree()
        parent = tree.trunk_at(1e-6)
        b1 = tree.branch(parent, 1.1e-6, "s1")
        b2 = tree.branch(b1, 1.2e-6, "s2")
        b3 = tree.branch(b2, 1.4e-6, "s3")
        assert tree.branches_created == 3
        assert tree.branches_live == 3
        assert tree.stats() == {
            "trunk": 3,
            "branch_snapshots": 3,
            "branch_peak_live": 3,
        }
        # Releasing the chain head drops the whole subtree.
        assert tree.release(b1) == 3
        assert tree.branches_live == 0
        # Only the trunk child remains under the parent.
        assert all(child.kind != "branch" for child in parent.children)
        # Created/peak counters are cumulative for observability.
        assert tree.branches_created == 3
        assert tree.peak_live == 3
        assert b3.kind == "branch"

    def test_branch_before_parent_rejected(self):
        tree = make_tree()
        parent = tree.trunk_at(1e-6)
        with pytest.raises(SimulationError):
            tree.branch(parent, 0.5e-6, "too-early")

    def test_only_branches_release(self):
        tree = make_tree()
        with pytest.raises(SimulationError):
            tree.release(tree.trunk_at(0.0))

    def test_release_unindexes_memoised_nodes(self):
        tree = make_tree()
        node = tree.memoise(1.5e-6, "s")
        assert tree.release(node) == 1
        assert tree.golden_at(1.5e-6).time == 1e-6

    def test_node_repr_smoke(self):
        node = CheckpointNode(1e-6, "snap")
        assert "1e-06" in repr(node)
        tree = make_tree()
        assert "trunk=3" in repr(tree)


class TestGoldenLookup:
    def test_exact_hit_on_trunk_node(self):
        tree = make_tree()
        node = tree.golden_at(1e-6)
        assert node is tree.trunk[1]

    def test_exact_hit_on_memoised_node(self):
        tree = make_tree()
        node = tree.memoise(1.5e-6, "s1.5")
        assert node.kind == "branch"
        assert node.parent is tree.trunk[1]
        assert tree.golden_at(1.5e-6) is node
        assert tree.branches_created == 1

    def test_latest_held_node_before(self):
        tree = make_tree()
        b = tree.memoise(1.5e-6, "s1.5")
        # Between a trunk node and a later memo node: the memo node.
        assert tree.golden_at(1.7e-6) is b
        # A later trunk node beats an earlier memo node.
        assert tree.golden_at(2.5e-6) is tree.trunk[2]
        # Between the root and the next trunk node: the root.
        assert tree.golden_at(0.5e-6) is tree.root
        # Before the root: the root, never IndexError.
        assert tree.golden_at(-1.0) is tree.root

    def test_held_times_cannot_be_memoised_again(self):
        tree = make_tree()
        tree.memoise(1.5e-6, "s")
        with pytest.raises(SimulationError):
            tree.memoise(1.5e-6, "again")
        with pytest.raises(SimulationError):
            tree.memoise(1e-6, "trunk time")

    def test_lru_cap_evicts_least_recently_used(self):
        tree = CheckpointTree(max_branches=2)
        tree.set_trunk([(0.0, "root")])
        a = tree.memoise(1.0, "a")
        b = tree.memoise(2.0, "b")
        # Touch a: b becomes the least recently used.
        assert tree.golden_at(1.0) is a
        c = tree.memoise(3.0, "c")
        assert tree.golden_at(2.0) is a  # b evicted: latest held before
        assert b.parent is None and b not in tree.root.children
        assert tree.golden_at(3.0) is c
        # That lookup made c the most recently used: d evicts a.
        tree.memoise(4.0, "d")
        assert tree.golden_at(1.0) is tree.root
        assert tree.golden_at(3.0) is c

    def test_live_and_peak_accounting_through_eviction(self):
        tree = CheckpointTree(max_branches=3)
        tree.set_trunk([(0.0, "root"), (10.0, "t10")])
        for step in range(1, 9):
            tree.memoise(float(step), f"s{step}")
            assert tree.branches_live == min(step, 3)
        assert tree.branches_created == 8
        assert tree.peak_live == 3
        assert tree.stats() == {
            "trunk": 2,
            "branch_snapshots": 8,
            "branch_peak_live": 3,
        }
        # Only the three newest survive, all hanging off the root.
        held = [child.time for child in tree.root.children
                if child.kind == "branch"]
        assert sorted(held) == [6.0, 7.0, 8.0]

    def test_set_trunk_drops_the_memo(self):
        tree = make_tree()
        tree.memoise(1.5e-6, "s")
        tree.set_trunk([(0.0, "root"), (1e-6, "t")])
        assert tree.branches_live == 0
        assert tree.golden_at(1.5e-6).time == 1e-6

    def test_cap_must_be_positive(self):
        with pytest.raises(SimulationError):
            CheckpointTree(max_branches=0)

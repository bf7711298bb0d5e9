"""Checkpoint tree mechanics: trunk lookup, branching, release accounting,
the memoised golden-node lookup, and the golden record the tree restores,
walks and splices from."""

import pytest

from repro.core import CheckpointNode, CheckpointTree, Component, L0, Simulator
from repro.core.errors import SimulationError
from repro.digital import Bus, ClockGen, Counter, LFSR, ParityGen
from repro.faults import BitFlip
from repro.injection import InjectionController
from repro.obs.flightrec import FlightRecorder


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


# -- the golden record, on a real design -------------------------------------

CLOCK = 10e-9
T_END = 400e-9
TRUNK_TIMES = (0.0, 105e-9, 255e-9)


def counter_design():
    """A clocked 4-bit counter, and an LFSR feeding a parity gate."""
    sim = Simulator(dt=1e-9)
    top = Component(sim, "top")
    clk = sim.signal("clk", init=L0)
    ClockGen(sim, "ck", clk, period=CLOCK, parent=top)
    count = Bus(sim, "cnt", 4)
    Counter(sim, "counter", clk, count, parent=top)
    pattern = Bus(sim, "pat", 8, init=1)
    LFSR(sim, "lfsr", clk, pattern, parent=top)
    parity = sim.signal("parity")
    ParityGen(sim, "par", pattern, parity, parent=top)
    probes = {
        "cnt0": sim.probe(count.bits[0]),
        "cnt3": sim.probe(count.bits[3]),
        "parity": sim.probe(parity),
    }
    return sim, top, probes


def samples(trace):
    """A trace's ``(time, value)`` samples as a list."""
    return list(trace)


class GoldenRun:
    """A golden run to T_END, checkpointed at TRUNK_TIMES, and its tree."""

    def __init__(self):
        self.sim, self.top, self.probes = counter_design()
        self.sim.mark_elaboration()
        checkpoints = []
        for t in TRUNK_TIMES:
            self.sim.run(t, inclusive=False)
            checkpoints.append((t, self.sim.snapshot()))
        self.sim.run(T_END)
        self.tree = CheckpointTree()
        self.tree.set_trunk(checkpoints)
        self.tree.keep_golden()
        self.golden = {
            name: samples(trace) for name, trace in self.probes.items()
        }

    def inject(self, node, fault, until=T_END):
        """A faulty run: restore ``node``, apply ``fault``, run on."""
        self.tree.restore(node)
        with self.sim.injection_band():
            InjectionController(self.sim, self.top).apply(fault)
        self.sim.run(until, inclusive=until == T_END)

    def assert_golden_prefix(self, node):
        """Every trace holds the golden samples the node recorded."""
        lengths = dict(node.snapshot.trace_lengths)
        assert len(lengths) == len(self.probes)  # the probes are every trace
        for name, trace in self.probes.items():
            assert samples(trace) == self.golden[name][: lengths[trace]], name


class TestGoldenRestore:
    def test_after_a_run_that_recorded_fewer_samples(self):
        """A quieted probe is shorter than the node: restore refills it."""
        run = GoldenRun()
        node = run.tree.trunk[2]
        run.tree.restore(run.tree.root)
        run.sim.run(55e-9, inclusive=False)
        run.sim.signals["clk"].force(L0)  # a stuck clock quiets every probe
        run.sim.run(T_END)
        lengths = dict(node.snapshot.trace_lengths)
        assert all(
            len(trace) < lengths[trace] for trace in run.probes.values()
        )
        run.tree.restore(node)
        run.assert_golden_prefix(node)
        run.sim.run(T_END)
        assert {n: samples(t) for n, t in run.probes.items()} == run.golden

    def test_after_a_run_that_recorded_more_samples(self):
        """Faulty samples before the node are replaced, not kept."""
        run = GoldenRun()
        node = run.tree.trunk[1]
        run.inject(run.tree.root, BitFlip("top/counter.q[0]", 55e-9))
        cnt0 = run.probes["cnt0"]
        n = dict(node.snapshot.trace_lengths)[cnt0]
        before = [sample for sample in samples(cnt0) if sample[0] < node.time]
        assert len(before) > n  # the flip itself is one more toggle
        assert samples(cnt0)[:n] != run.golden["cnt0"][:n]
        run.tree.restore(node)
        run.assert_golden_prefix(node)
        run.sim.run(T_END)
        assert {n: samples(t) for n, t in run.probes.items()} == run.golden

    def test_restore_goes_through_the_simulator(self, monkeypatch):
        run = GoldenRun()
        restored = []
        original = run.sim.restore
        monkeypatch.setattr(
            run.sim, "restore",
            lambda snap: restored.append(snap) or original(snap),
        )
        node = run.tree.trunk[1]
        run.tree.restore(node)
        assert restored == [node.snapshot]
        assert run.sim.now == node.time


class TestGoldenWalk:
    def test_walks_from_the_latest_held_node_and_memoises(self, monkeypatch):
        run = GoldenRun()
        restored = []
        original = run.sim.restore
        monkeypatch.setattr(
            run.sim, "restore",
            lambda snap: restored.append(snap.time) or original(snap),
        )
        times = [135e-9, 175e-9, 255e-9]
        nodes, captured = run.tree.walk(times)
        # One restore of the trunk node at 105 ns; 175 ns continues from
        # the 135 ns capture; 255 ns is a trunk node.
        assert restored == [105e-9]
        assert captured == 2
        assert [node.time for node in nodes] == times
        assert [node.kind for node in nodes] == ["branch", "branch", "trunk"]
        assert nodes[2] is run.tree.trunk[2]
        assert run.tree.branches_created == 2
        # A second walk over the same times is all memo hits.
        again, captured = run.tree.walk(times)
        assert captured == 0
        assert again == nodes
        assert restored == [105e-9]

    def test_walks_unarmed(self):
        run = GoldenRun()
        run.sim.analog.recorder = FlightRecorder()
        _nodes, captured = run.tree.walk([135e-9])
        assert captured == 1
        assert run.sim.analog.recorder is None

    def test_captured_node_restores_like_a_straight_golden_run(self):
        run = GoldenRun()
        # Leave a faulty run behind first: the walk must not start from it.
        run.inject(run.tree.root, BitFlip("top/counter.q[2]", 35e-9))
        (node,), _captured = run.tree.walk([175e-9])
        run.tree.restore(node)
        straight_sim, _top, straight = counter_design()
        straight_sim.run(175e-9, inclusive=False)
        assert {n: samples(t) for n, t in run.probes.items()} == {
            n: samples(t) for n, t in straight.items()
        }
        run.sim.run(T_END)
        assert {n: samples(t) for n, t in run.probes.items()} == run.golden


class TestGoldenSplice:
    def test_mutant_samples_then_the_golden_tail(self):
        run = GoldenRun()
        node = run.tree.trunk[2]
        # A mutant that ran up to the node, one toggle ahead of golden.
        run.inject(
            run.tree.trunk[1], BitFlip("top/counter.q[0]", 205e-9),
            until=node.time,
        )
        mutant = {name: samples(trace) for name, trace in run.probes.items()}
        lengths = dict(node.snapshot.trace_lengths)
        cnt0 = run.probes["cnt0"]
        assert len(cnt0) == lengths[cnt0] + 1
        spliced = run.tree.splice(run.probes, node)
        assert set(spliced) == set(run.probes)
        for name, trace in run.probes.items():
            tail = run.golden[name][lengths[trace]:]
            assert tail  # every probe has samples past the node
            assert samples(spliced[name]) == mutant[name] + tail
            assert spliced[name] is not trace
        # The live traces are left as they were.
        assert {n: samples(t) for n, t in run.probes.items()} == mutant

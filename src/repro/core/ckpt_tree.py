"""Checkpoint tree: the golden restore points and the golden record.

Warm-started campaigns keep a flat list of golden snapshots; batched
execution generalises that into a *tree*:

* the **root** is the state at t=0 (the base golden checkpoint);
* **trunk** nodes are the golden-run checkpoints taken at the faults'
  injection times — the same snapshots plain warm starts restore;
* **branch** nodes hang off the trunk node at or before their time and
  hold golden states the trunk lacks: a digital bit-flip batch needs
  one at every distinct flip time (each mutant restores the node at
  exactly its flip time) and at a geometric tail of *convergence
  horizon* points (every later node doubles as a state-comparison
  reference).

A golden state at time *t* depends on *t* alone, so branch nodes are
**memoised** rather than rebuilt per batch.  :meth:`CheckpointTree.golden_at`
returns the node held at exactly *t* — trunk or memo — or else the
latest node held before *t*; :meth:`CheckpointTree.walk` runs the golden
trajectory forward from there and memoises what it captures.  The memo
keeps at most ``max_branches`` nodes (campaigns pass their
``max_checkpoints``), evicting the least recently used, so peak memory
is the cap plus the nodes of the one batch in flight.

The tree also keeps every kernel trace's golden samples:
:meth:`CheckpointTree.restore` starts each run from exactly the golden
prefix, whatever the previous run left in the traces, and
:meth:`CheckpointTree.splice` completes a re-converged mutant with the
golden tail.  Snapshots store trace *lengths*, not sample data, so a
branch snapshot's footprint is the design's state vectors — tens of
kilobytes for the digital blocks this path serves.  The tree tracks
how many were created and the peak live count so campaign
observability can report the real memory shape.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict

from .errors import SimulationError

#: Node kinds.
ROOT = "root"
TRUNK = "trunk"
BRANCH = "branch"


class CheckpointNode:
    """One restore point in the tree.

    :ivar time: simulated time the snapshot was captured at.
    :ivar snapshot: the :class:`~repro.core.snapshot.Snapshot`.
    :ivar parent: parent node (None for the root).
    :ivar kind: :data:`ROOT`, :data:`TRUNK` or :data:`BRANCH`.
    """

    __slots__ = ("time", "snapshot", "parent", "children", "kind")

    def __init__(self, time, snapshot, parent=None, kind=TRUNK):
        self.time = time
        self.snapshot = snapshot
        self.parent = parent
        self.children = []
        self.kind = kind
        if parent is not None:
            parent.children.append(self)

    def __repr__(self):
        return (
            f"<CheckpointNode {self.kind} t={self.time:.6g} "
            f"children={len(self.children)}>"
        )


class CheckpointTree:
    """Restore points organised as a tree rooted at the golden t=0 state.

    Built by the campaign runner during :meth:`prepare_warm` (trunk)
    and extended lazily by digital batches (memoised branch nodes).

    :param max_branches: ceiling on memoised branch nodes; past it the
        least recently used one is released.  None keeps them all.
    """

    def __init__(self, max_branches=None):
        if max_branches is not None and max_branches < 1:
            raise SimulationError("max_branches must be >= 1")
        self.root = None
        self._trunk = []          # CheckpointNode, ascending time
        self._trunk_times = []
        self.max_branches = max_branches
        self._memo = OrderedDict()  # time -> branch node, least recent first
        self._memo_times = []       # the memo's times, ascending
        self._golden = {}           # trace -> golden (times, values)
        self.branches_created = 0
        self.branches_live = 0
        self.peak_live = 0

    # -- trunk -------------------------------------------------------------

    def set_trunk(self, checkpoints):
        """Install the golden checkpoint spine.

        :param checkpoints: iterable of ``(time, snapshot)`` pairs in
            ascending time order; the first becomes the root.
        """
        self.root = None
        self._trunk = []
        self._trunk_times = []
        self._memo.clear()
        self._memo_times = []
        self._golden = {}
        self.branches_live = 0
        parent = None
        for time, snapshot in checkpoints:
            kind = ROOT if parent is None else TRUNK
            node = CheckpointNode(time, snapshot, parent=parent, kind=kind)
            if parent is None:
                self.root = node
            self._trunk.append(node)
            self._trunk_times.append(time)
            parent = node
        if self.root is None:
            raise SimulationError("checkpoint tree needs at least one trunk node")
        return self._trunk

    @property
    def trunk(self):
        """The trunk nodes, ascending in time."""
        return list(self._trunk)

    def trunk_at(self, time):
        """The deepest trunk node at or before ``time`` (root fallback)."""
        if not self._trunk:
            raise SimulationError("checkpoint tree has no trunk")
        index = bisect_right(self._trunk_times, time)
        return self._trunk[max(index - 1, 0)]

    # -- the golden record ---------------------------------------------------

    def keep_golden(self):
        """Keep every trace's samples as the golden record, after the
        golden run: the latest trunk node lists every trace."""
        self._golden = {
            trace: trace.copy_data()
            for trace, _length in self._trunk[-1].snapshot.trace_lengths
        }

    def restore(self, node):
        """Rewind to ``node`` through ``Simulator.restore``; each trace
        then holds the golden record's first *n* samples, *n* being the
        length the node recorded."""
        snapshot = node.snapshot
        snapshot.sim.restore(snapshot)
        for trace, length in snapshot.trace_lengths:
            trace.load_prefix(self._golden[trace], length)

    def walk(self, times):
        """Golden nodes at exactly ``times`` (ascending), and how many
        were captured: a time not held is reached by an unarmed golden
        run from the latest node held before it (restored unless the
        simulator already sits there), and memoised."""
        sim = self.root.snapshot.sim
        sim.budget = None
        sim.analog.recorder = None
        nodes = []
        captured = 0
        here = None  # the held node the simulator sits on
        for t in times:
            node = self.golden_at(t)
            if node.time != t:
                if node is not here:
                    self.restore(node)
                sim.run(t, inclusive=False)
                node = here = self.memoise(t, sim.snapshot())
                captured += 1
            nodes.append(node)
        return nodes, captured

    def splice(self, probes, node):
        """Copies of the live ``probes`` of a mutant that re-converged at
        ``node``, each continued with the golden samples past the length
        the node recorded (the mutant's own length may differ)."""
        lengths = dict(node.snapshot.trace_lengths)
        spliced = {name: trace.clone() for name, trace in probes.items()}
        for name, trace in probes.items():
            times, values = self._golden[trace]
            cut = lengths[trace]
            spliced[name].extend(times[cut:], values[cut:])
        return spliced

    # -- golden lookup -----------------------------------------------------

    def golden_at(self, time):
        """The golden node at exactly ``time``, else the latest held before.

        Searches the trunk and the memo (root fallback before t=0); a
        memoised node it returns becomes the most recently used.
        """
        node = self._memo.get(time)
        if node is None:
            node = self.trunk_at(time)
            index = bisect_left(self._memo_times, time)
            if index and self._memo_times[index - 1] > node.time:
                node = self._memo[self._memo_times[index - 1]]
        if node.kind == BRANCH:
            self._memo.move_to_end(node.time)
        return node

    def memoise(self, time, snapshot):
        """Hold the golden ``snapshot`` captured at ``time`` as a branch node.

        The node hangs off the trunk node at or before ``time``; when
        the memo is full its least recently used node is released
        first.
        """
        parent = self.trunk_at(time)
        if time in self._memo or parent.time == time:
            raise SimulationError(f"a golden node at t={time} is already held")
        if self.max_branches is not None and len(self._memo) >= self.max_branches:
            self.release(next(iter(self._memo.values())))
        node = self.branch(parent, time, snapshot)
        self._memo[time] = node
        insort(self._memo_times, time)
        return node

    # -- branches ----------------------------------------------------------

    def branch(self, parent, time, snapshot):
        """Attach a branch node under ``parent`` (trunk or branch)."""
        if time < parent.time:
            raise SimulationError(
                f"branch time {time} precedes parent checkpoint {parent.time}"
            )
        node = CheckpointNode(time, snapshot, parent=parent, kind=BRANCH)
        self.branches_created += 1
        self.branches_live += 1
        self.peak_live = max(self.peak_live, self.branches_live)
        return node

    def release(self, node):
        """Drop a branch subtree (frees its snapshots for GC)."""
        if node.kind != BRANCH:
            raise SimulationError("only branch nodes can be released")
        dropped = 0
        pending = [node]
        while pending:
            member = pending.pop()
            pending.extend(member.children)
            dropped += 1
            if self._memo.get(member.time) is member:
                del self._memo[member.time]
                self._memo_times.remove(member.time)
        if node.parent is not None:
            node.parent.children.remove(node)
        node.parent = None
        self.branches_live -= dropped
        return dropped

    def stats(self):
        """Counters for campaign observability."""
        return {
            "trunk": len(self._trunk),
            "branch_snapshots": self.branches_created,
            "branch_peak_live": self.peak_live,
        }

    def __repr__(self):
        return (
            f"<CheckpointTree trunk={len(self._trunk)} "
            f"branches={self.branches_created} live={self.branches_live}>"
        )

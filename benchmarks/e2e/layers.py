"""Per-layer self-time attribution for the end-to-end benchmark.

:class:`Tracer` wraps public layer entry points on their classes (or
modules) for the duration of one traced unit, never touching the sources:
each wrapped call is timed with ``perf_counter`` and pushed on a stack, so
a call's *self* time is its duration minus the time of the wrapped calls
it made.  Self times of all labels add up to the time spent under the
outermost wrapped calls, which is what lets the benchmark check that the
layers account for the traced wall time.

The wrappers only observe: they call the original with the original
arguments and return its result untouched.  Because they are installed on
the class before the deployment is built, bound methods cached at build
time (timer callbacks) go through them too, and identity checks such as
``type(process).deliver is Process.deliver`` still compare the same object
on both sides.

An entry point that no longer exists (renamed or removed by a later
change) is skipped and recorded in :attr:`Tracer.missing`; every metric
derived from a label whose entry points are all missing reads ``None``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (label, module, owner classes — ``None`` for module-level functions,
#: attribute).  A label's layer is the text before the first dot.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[Tuple[str, ...]], str], ...] = (
    ("sim.run", "repro.sim.engine", ("Simulator",), "run"),
    ("sim.run", "repro.sim.engine", ("Simulator",), "run_window"),
    ("core.compute", "repro.core.node", ("GRPNode",), "compute"),
    ("core.timer", "repro.core.node", ("GRPNode",), "_on_tc_expired"),
    ("core.timer", "repro.core.node", ("GRPNode",), "_on_ts_expired"),
    ("core.build", "repro.core.messages", ("GRPMessage",), "build"),
    ("core.decode", "repro.core.ancestor_list", ("AncestorList",), "from_wire"),
    ("core.ant", "repro.core.ancestor_list", ("AncestorList",), "ant"),
    ("net.broadcast", "repro.net.network", ("Network",), "broadcast"),
    ("net.broadcast", "repro.shard.world", ("ShardNetwork",), "broadcast"),
    ("net.decide", "repro.net.channel",
     ("ChannelModel", "PerfectChannel", "LossyChannel", "CollisionChannel"), "decide_batch"),
    ("net.decide", "repro.shard.channel", ("PerSenderChannel",), "decide_batch"),
    ("net.decide_fast", "repro.net.channel",
     ("ChannelModel", "PerfectChannel", "LossyChannel", "CollisionChannel"),
     "decide_batch_fast"),
    ("net.decide_fast", "repro.shard.channel", ("PerSenderChannel",), "decide_batch_fast"),
    ("net.deliver", "repro.sim.process", ("Process",), "deliver"),
    ("net.trace", "repro.sim.trace", ("TraceRecorder",), "record"),
    ("net.topology", "repro.net.network", ("Network",), "topology"),
    ("net.csr_rebuild", "repro.net.arraystate", ("ArrayLinkState",), "_rebuild"),
    ("net.csr_patch", "repro.net.arraystate", ("ArrayLinkState",), "_patch"),
    ("mobility.step", "repro.mobility.random_waypoint", ("RandomWaypointMobility",), "step"),
    ("mobility.step", "repro.mobility.sparse_waypoint", ("SparseWaypointMobility",), "step"),
    ("mobility.apply", "repro.net.network", ("Network",), "_apply_position_updates"),
    ("traffic.send", "repro.traffic.generators", ("TrafficDriver",), "send"),
    ("traffic.record_delivery", "repro.traffic.ledger", ("DeliveryLedger",), "record_delivery"),
    ("metrics.sample", "repro.metrics.collectors", ("ConfigurationSampler",), "sample_now"),
    # The sampler calls the predicates through its own module namespace.
    ("metrics.predicates", "repro.metrics.collectors", None, "evaluate_configuration"),
    ("metrics.predicates", "repro.metrics.collectors", None, "omega"),
    ("metrics.predicates", "repro.metrics.collectors", None, "continuity_violations"),
    ("metrics.predicates", "repro.metrics.collectors", None, "topological"),
    ("metrics.predicates", "repro.metrics.collectors", None, "continuity"),
    ("scenarios.build", "repro.shard.world", None, "build_scenario"),
    ("shard.build", "repro.shard.world", ("ShardWorld",), "snapshot_base"),
    ("shard.build", "repro.shard.world", ("ShardWorld",), "from_snapshot"),
    ("shard.coordinate", "repro.shard.runner", None, "_coordinate"),
    ("shard.coordinate", "repro.shard.runner", None, "_merge"),
)

#: Labels whose calls are counted as "hits" when the wrapped call returns
#: something other than ``None`` (the zero-delay fast hook answered).
HIT_LABELS = frozenset({"net.decide_fast"})


class Tracer:
    """Exclusive (self) time and call counts per label.

    A call re-entering the label of the call right above it (an override
    delegating to its base, a wrapper around a wrapper) adds its self time
    but is not counted as a second call.
    """

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()
        self.root_s = 0.0
        self.missing: set = set()
        self._present: set = set()
        self._stack: List[list] = []
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers

    def _wrap(self, fn: Callable, label: str) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        self_s, total_s, calls, hits = self.self_s, self.total_s, self.calls, self.hits
        count_hits = label in HIT_LABELS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [label, 0.0]
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[label] += dt - frame[1]
                if parent is None:
                    tracer.root_s += dt
                else:
                    parent[1] += dt
                if parent is None or parent[0] != label:
                    calls[label] += 1
                    total_s[label] += dt
                    if count_hits and result is not None:
                        hits[label] += 1

        return wrapper

    def install(self) -> "Tracer":
        """Wrap every entry point that exists; remember how to undo it."""
        for label, module_name, owners, attr in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            targets = ([module] if owners is None
                       else [getattr(module, name, None) for name in owners])
            for target in targets:
                if target is None:
                    continue
                if owners is None:
                    original = getattr(target, attr, None)
                    if not callable(original):
                        continue
                    wrapped = self._wrap(original, label)
                else:
                    # Only attributes the class defines itself: an inherited
                    # one is wrapped on the class that defines it.
                    original = vars(target).get(attr)
                    if isinstance(original, (classmethod, staticmethod)):
                        wrapped = type(original)(self._wrap(original.__func__, label))
                    elif callable(original):
                        wrapped = self._wrap(original, label)
                    else:
                        continue
                setattr(target, attr, wrapped)
                self._restore.append((target, attr, original))
                self._present.add(label)
        self.missing = {label for label, *_ in ENTRY_POINTS} - self._present
        return self

    def uninstall(self) -> None:
        """Put every original attribute back (reverse order)."""
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def reset(self) -> None:
        """Forget what was recorded so far (e.g. during set-up)."""
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.hits.clear()
        self.root_s = 0.0

    # -------------------------------------------------------------- readers

    def n_calls(self, label: str) -> Optional[int]:
        return None if label in self.missing else self.calls[label]

    def self_time(self, *labels: str) -> Optional[float]:
        if all(label in self.missing for label in labels):
            return None
        return sum(self.self_s[label] for label in labels)

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for label, v in self.self_s.items() if label.startswith(prefix))

    def layer_missing(self, layer: str) -> bool:
        prefix = layer + "."
        labels = {label for label, *_ in ENTRY_POINTS if label.startswith(prefix)}
        return labels <= self.missing

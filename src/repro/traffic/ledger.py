"""Application messages and the per-group delivery ledger.

The ledger is the measurement half of the traffic subsystem: every
application message injected by a workload generator is recorded at send time
(together with the sender's group at that instant) and again at each
delivery, and the ledger folds those observations into per-group accounting:

* **goodput** — in-group deliveries (messages and payload bytes) per second;
* **delivery ratio** — in-group deliveries over the receptions the sender's
  group promised (``|group| - 1`` per send);
* **end-to-end latency** — the distribution of (delivery time − send time)
  over in-group deliveries;
* **staleness** — how many messages of the sender's stream the receiver was
  behind at delivery (``latest seq sent − seq delivered``; 0 = fresh);
* **cross-group leakage** — deliveries to nodes outside the sender's group
  at send time (the radio broadcasts to the *vicinity*, the service scopes to
  the *group*; the gap is the leakage).

Determinism contract: the ledger draws no randomness and iterates no
unordered containers while producing rows, so two runs that deliver the same
messages in the same order produce bit-identical rows — whatever neighbour
engine (CSR link state or brute-force scan) or campaign executor produced
them.  Group rows are keyed by the group's minimum member (``min`` under
``str`` order, the same PYTHONHASHSEED-independent convention the campaign
layer uses) and emitted sorted by that key.
"""

from __future__ import annotations

import math
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.obs import current as _obs_current

__all__ = ["AppMessage", "DeliveryLedger"]


class AppMessage:
    """One application payload injected by a workload generator.

    A single instance is shared by every receiver of the broadcast (the
    network delivers the same object), so per-send allocation cost is one
    object regardless of group size.  ``group`` is the sender's group *at
    send time*; deliveries are judged against it, not against the group at
    delivery time — the service promised the group that existed when the
    application handed the message over.
    """

    __slots__ = ("kind", "sender", "seq", "send_time", "group", "size", "data")

    #: Duck-typed marker :meth:`repro.sim.process.Process.deliver` dispatches
    #: on — the sim layer must not import the traffic layer, so the payload
    #: carries its own routing flag instead of an isinstance check.
    is_app_payload = True

    def __init__(self, kind: str, sender: Hashable, seq: int, send_time: float,
                 group: FrozenSet[Hashable], size: int, data: Any = None):
        self.kind = kind
        self.sender = sender
        self.seq = seq
        self.send_time = send_time
        self.group = group
        self.size = size
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"AppMessage(kind={self.kind!r}, sender={self.sender!r}, "
                f"seq={self.seq}, t={self.send_time:.3f}, |group|={len(self.group)})")


class _GroupTally:
    """Per-group accumulators (one instance per distinct group key)."""

    __slots__ = ("offered", "expected", "delivered", "leaked", "bytes_delivered",
                 "latencies", "lag_total", "lag_max")

    def __init__(self) -> None:
        self.offered = 0            # messages injected by members of the group
        self.expected = 0           # promised receptions (|group| - 1 per send)
        self.delivered = 0          # in-group receptions
        self.leaked = 0             # receptions by non-members
        self.bytes_delivered = 0    # payload bytes over in-group receptions
        self.latencies: List[float] = []
        self.lag_total = 0
        self.lag_max = 0


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (deterministic).

    The rank is clamped into ``[0, len - 1]``, so a single-sample list
    returns its sample for *any* fraction and fractions at or beyond 1.0
    (or float round-up of ``fraction * len``) return the maximum instead
    of indexing past the end.
    """
    index = max(0, math.ceil(fraction * len(sorted_values)) - 1)
    return sorted_values[min(index, len(sorted_values) - 1)]


class DeliveryLedger:
    """Tracks application-message sends and deliveries, grouped by group.

    The driver calls :meth:`record_send` once per injected message and
    :meth:`record_delivery` once per reception; request/reply generators
    additionally report round trips through :meth:`record_request` /
    :meth:`record_reply`.  :meth:`group_rows` and :meth:`totals` render the
    accounting as flat dict rows for experiment tables and benchmarks.
    """

    def __init__(self) -> None:
        self._groups: Dict[Hashable, _GroupTally] = {}
        #: sender -> latest sent seq; staleness of a delivery is judged
        #: against the newest message the sender has emitted so far.
        self._latest_seq: Dict[Hashable, int] = {}
        self._pending_requests: Dict[Tuple[Hashable, int], float] = {}
        self._rtts: List[float] = []
        self.messages_sent = 0
        self.receptions = 0
        self.requests_sent = 0
        self.replies_matched = 0
        self._first_event: Optional[float] = None
        self._last_event: Optional[float] = None
        obs = _obs_current()
        self._obs = obs
        self._obs_sends = obs.registry.counter("traffic.sends") if obs else None
        self._obs_receptions = obs.registry.counter("traffic.receptions") if obs else None

    # ----------------------------------------------------------- recording

    @staticmethod
    def group_key(group: FrozenSet[Hashable]) -> Hashable:
        """Stable identifier of a group: its minimum member under str order."""
        return min(group, key=str)

    def _tally(self, group: FrozenSet[Hashable]) -> _GroupTally:
        key = self.group_key(group)
        tally = self._groups.get(key)
        if tally is None:
            tally = self._groups[key] = _GroupTally()
        return tally

    def _touch(self, time: float) -> None:
        if self._first_event is None:
            self._first_event = time
        self._last_event = time

    def record_send(self, msg: AppMessage) -> None:
        """Account one injected message against the sender's group."""
        self.messages_sent += 1
        if self._obs_sends is not None:
            self._obs_sends.inc()
        self._latest_seq[msg.sender] = msg.seq
        tally = self._tally(msg.group)
        tally.offered += 1
        tally.expected += len(msg.group) - (1 if msg.sender in msg.group else 0)
        self._touch(msg.send_time)

    def record_delivery(self, receiver: Hashable, msg: AppMessage, now: float) -> None:
        """Account one reception of ``msg`` by ``receiver`` at time ``now``."""
        self.receptions += 1
        obs = self._obs
        t0 = obs.clock() if obs is not None else 0
        tally = self._tally(msg.group)
        if receiver in msg.group:
            tally.delivered += 1
            tally.bytes_delivered += msg.size
            tally.latencies.append(now - msg.send_time)
            lag = self._latest_seq.get(msg.sender, msg.seq) - msg.seq
            tally.lag_total += lag
            if lag > tally.lag_max:
                tally.lag_max = lag
        else:
            tally.leaked += 1
        self._touch(now)
        if obs is not None:
            self._obs_receptions.inc()
            obs.record_span("ledger.record_delivery", now, t0)

    def record_request(self, requester: Hashable, request_id: int, time: float) -> None:
        """Note an outstanding request (round-trip measurement, reply pending)."""
        self.requests_sent += 1
        self._pending_requests[(requester, request_id)] = time

    def record_reply(self, requester: Hashable, request_id: int, now: float) -> None:
        """Close a round trip; only the first reply per request counts."""
        sent = self._pending_requests.pop((requester, request_id), None)
        if sent is not None:
            self.replies_matched += 1
            self._rtts.append(now - sent)

    def merge_from(self, other: "DeliveryLedger") -> None:
        """Fold another ledger's accounting into this one.

        Used by the sharded executor (:mod:`repro.shard`) to reassemble the
        single-process ledger from per-shard ledgers over disjoint node
        sets.  Every reported row is recomputed from the merged accumulators
        — latency and RTT lists are sorted before any quantile or mean — so
        the merge result is independent of shard count and merge order for
        the quantities the reports expose.  (Receiver-side staleness is
        recorded at delivery time against the *local* newest-seq table, so
        cross-shard staleness is exact only for zero-delay application
        channels.)
        """
        for key, tally in other._groups.items():
            mine = self._groups.get(key)
            if mine is None:
                mine = self._groups[key] = _GroupTally()
            mine.offered += tally.offered
            mine.expected += tally.expected
            mine.delivered += tally.delivered
            mine.leaked += tally.leaked
            mine.bytes_delivered += tally.bytes_delivered
            mine.latencies.extend(tally.latencies)
            mine.lag_total += tally.lag_total
            mine.lag_max = max(mine.lag_max, tally.lag_max)
        for sender, seq in other._latest_seq.items():
            if seq > self._latest_seq.get(sender, -1):
                self._latest_seq[sender] = seq
        self._pending_requests.update(other._pending_requests)
        self._rtts.extend(other._rtts)
        self.messages_sent += other.messages_sent
        self.receptions += other.receptions
        self.requests_sent += other.requests_sent
        self.replies_matched += other.replies_matched
        if other._first_event is not None:
            self._first_event = (other._first_event if self._first_event is None
                                 else min(self._first_event, other._first_event))
        if other._last_event is not None:
            self._last_event = (other._last_event if self._last_event is None
                                else max(self._last_event, other._last_event))

    # ----------------------------------------------------------- reporting

    def observed_span(self) -> float:
        """Time between the first and last recorded event (0 when empty)."""
        if self._first_event is None or self._last_event is None:
            return 0.0
        return self._last_event - self._first_event

    def group_rows(self) -> List[Dict[str, object]]:
        """One row per group, sorted by group key (str order)."""
        rows = []
        for key in sorted(self._groups, key=str):
            tally = self._groups[key]
            row: Dict[str, object] = {"group": str(key)}
            row.update(self._tally_row(tally))
            rows.append(row)
        return rows

    def totals(self, duration: Optional[float] = None) -> Dict[str, object]:
        """Aggregate row over every group.

        ``duration`` is the measurement window for the goodput rates; it
        defaults to the observed event span (pass the simulated duration for
        stable rates across runs that end quietly).
        """
        merged = _GroupTally()
        for tally in self._groups.values():
            merged.offered += tally.offered
            merged.expected += tally.expected
            merged.delivered += tally.delivered
            merged.leaked += tally.leaked
            merged.bytes_delivered += tally.bytes_delivered
            merged.latencies.extend(tally.latencies)
            merged.lag_total += tally.lag_total
            merged.lag_max = max(merged.lag_max, tally.lag_max)
        # Cross-group latency lists concatenate in group-key order; sorting
        # below makes the quantiles independent of that concatenation order.
        row = self._tally_row(merged, duration=duration)
        if self.requests_sent:
            row["requests"] = self.requests_sent
            row["replies"] = self.replies_matched
            if self._rtts:
                rtts = sorted(self._rtts)
                row["rtt_mean"] = sum(rtts) / len(rtts)
                row["rtt_p95"] = _percentile(rtts, 0.95)
        return row

    def _tally_row(self, tally: _GroupTally,
                   duration: Optional[float] = None) -> Dict[str, object]:
        window = duration if duration is not None else self.observed_span()
        latencies = sorted(tally.latencies)
        row: Dict[str, object] = {
            "offered": tally.offered,
            "expected": tally.expected,
            "delivered": tally.delivered,
            "delivery_ratio": (round(tally.delivered / tally.expected, 4)
                               if tally.expected else None),
            "goodput_msgs_per_s": (round(tally.delivered / window, 2)
                                   if window > 0 else None),
            "goodput_bytes_per_s": (round(tally.bytes_delivered / window, 1)
                                    if window > 0 else None),
            "latency_mean": (round(sum(latencies) / len(latencies), 5)
                             if latencies else None),
            "latency_p95": round(_percentile(latencies, 0.95), 5) if latencies else None,
            "latency_max": round(latencies[-1], 5) if latencies else None,
            "staleness_mean": (round(tally.lag_total / tally.delivered, 4)
                               if tally.delivered else None),
            "staleness_max": tally.lag_max,
            "leaked": tally.leaked,
            "leakage_ratio": (round(tally.leaked / (tally.delivered + tally.leaked), 4)
                              if (tally.delivered + tally.leaked) else None),
        }
        return row

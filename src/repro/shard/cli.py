"""Command-line front end for sharded runs: ``python -m repro.shard``.

Runs one scenario split across ``--shards`` shards (``--transport
inproc|mp``; the world is built once, ``mp`` forks a worker for every
shard but 0, which finalizes the build it inherits with the fork, then runs
shard 0 on that build in this process, and an ``inproc`` host restores a
pickled snapshot of it) and prints a deterministic summary of the merged
fingerprint.  A spec the run cannot take (``--shards`` below 1,
``--duration`` not finite and above 0, an unknown or badly typed ``--set`` /
``--traffic-set`` parameter, ``--traffic-set`` without ``--traffic``, a
traffic pattern that cannot shard) exits with code 2 before anything is
built.
Stdout carries only protocol facts — counters, a canonical fingerprint
digest, traffic totals — so two runs of the same spec (including an
observed vs. unobserved pair) produce byte-identical stdout; wall-clock
stats and the obs digest go to stderr.

``--obs`` wraps every worker in its own :class:`~repro.obs.ObsContext` and
``--obs-out PATH`` (which implies ``--obs``) writes the merged export as a
``repro-obs/v1`` JSONL file, mirroring the experiments CLI conventions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Dict, List, Optional

from repro.scenarios import Definition, format_catalog, get_scenario
from repro.traffic import get_traffic

from .runner import run_sharded
from .world import ShardSpec, ShardUnsupportedError


def _parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.shard",
        description="Run one scenario sharded across workers and print the "
                    "merged, deterministic fingerprint summary.")
    parser.add_argument("--scenario", type=str, required=False,
                        help="Scenario name from the registry (see --list-scenarios).")
    parser.add_argument("--set", dest="set_params", action="append", default=[],
                        metavar="PARAM=VALUE",
                        help="Pin a scenario parameter (repeatable).")
    parser.add_argument("--seed", type=int, default=42, help="Base RNG seed.")
    parser.add_argument("--duration", type=float, default=2.0,
                        help="Simulated seconds to run (finite, > 0).")
    parser.add_argument("--shards", type=int, default=2,
                        help="Number of shards (>= 1); mp runs shard 0 in "
                             "this process and forks shards - 1 workers.")
    parser.add_argument("--transport", choices=("inproc", "mp"), default="inproc",
                        help="Worker transport: in-process reference or one "
                             "OS process per shard.")
    parser.add_argument("--traffic", type=str, default=None,
                        help="Optional application workload name.")
    parser.add_argument("--traffic-set", dest="traffic_set_params",
                        action="append", default=[], metavar="PARAM=VALUE",
                        help="Pin a traffic parameter (repeatable).")
    parser.add_argument("--no-fingerprint", action="store_true",
                        help="Skip the full fingerprint (views/edges/report); "
                             "counters and RNG states only.")
    parser.add_argument("--obs", action="store_true",
                        help="Observe every worker under its own ObsContext "
                             "and merge the exports (digest on stderr).")
    parser.add_argument("--obs-out", type=str, default=None, metavar="PATH",
                        help="Write the merged obs export as repro-obs/v1 "
                             "JSONL (implies --obs).")
    parser.add_argument("--json", action="store_true",
                        help="Emit the summary as one canonical JSON object "
                             "instead of text lines.")
    parser.add_argument("--list-scenarios", action="store_true",
                        help="List registered scenarios and exit.")
    return parser.parse_args(argv)


def _coerce_params(definition: Definition, assignments: List[str],
                   flag: str) -> Dict[str, object]:
    """Coerce PARAM=VALUE strings against a catalog definition's schema."""
    return definition.coerce_params(dict(
        definition.split_assignment(assignment, flag) for assignment in assignments))


def _canonical(value: object) -> object:
    """Map a fingerprint fragment to a stable JSON-serializable shape."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in
                sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        # Canonicalize members recursively, then order by their JSON form
        # (members may themselves be frozensets, e.g. topology edges).
        members = [_canonical(v) for v in value]
        return sorted(members, key=lambda m: json.dumps(m, sort_keys=True))
    return value


def fingerprint_digest(fingerprint: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON form of the merged fingerprint."""
    blob = json.dumps(_canonical(fingerprint), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _summary_lines(spec: ShardSpec, transport: str, result) -> List[str]:
    fp = result.fingerprint
    lines = [
        f"sharded run: scenario={spec.scenario} seed={spec.seed} "
        f"duration={spec.duration} shards={spec.shards} "
        f"transport={transport}",
        f"events={fp['processed_events']} sent={fp['sent']} "
        f"delivered={fp['delivered']} dropped={fp['dropped']}",
        f"fingerprint={fingerprint_digest(fp)}",
    ]
    if "report" in fp:
        report = fp["report"]
        lines.append("report: " + " ".join(
            f"{key}={report[key]}" for key in sorted(report)))
    if result.traffic is not None:
        traffic = result.traffic
        lines.append(
            f"traffic: app_sent={traffic['app_sent']} "
            f"app_receptions={traffic['app_receptions']} "
            f"requests={traffic['requests']} replies={traffic['replies']}")
    return lines


def _obs_digest(merged: Dict[str, object]) -> str:
    """One-line counter + event digest for stderr."""
    counters = merged.get("counters", {})
    parts = [f"{name}={value}" for name, value in sorted(counters.items())]
    events = merged.get("events", {})
    if events:
        parts.append(f"events={events.get('count', 0)}")
        kinds = events.get("kinds", {})
        if kinds:
            parts.append("kinds=" + ",".join(
                f"{kind}:{count}" for kind, count in sorted(kinds.items())))
    return ", ".join(parts) or "no observations recorded"


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    if args.list_scenarios:
        print(format_catalog())
        return 0
    if not args.scenario:
        print("--scenario is required (see --list-scenarios)", file=sys.stderr)
        return 2
    try:
        params = _coerce_params(get_scenario(args.scenario), args.set_params, "--set")
        traffic_params = None
        if args.traffic is not None:
            traffic_params = _coerce_params(get_traffic(args.traffic),
                                            args.traffic_set_params, "--traffic-set")
        elif args.traffic_set_params:
            raise ValueError("--traffic-set requires --traffic")
        spec = ShardSpec.create(
            args.scenario, seed=args.seed, duration=args.duration,
            shards=args.shards, params=params,
            traffic=args.traffic, traffic_params=traffic_params,
            fingerprint=not args.no_fingerprint)
    except (KeyError, ValueError, ShardUnsupportedError) as exc:
        print(exc.args[0], file=sys.stderr)  # a KeyError's str() adds quotes
        return 2
    obs = bool(args.obs or args.obs_out)
    result = run_sharded(spec, transport=args.transport, obs=obs)
    if args.json:
        payload = {
            "scenario": spec.scenario,
            "seed": spec.seed,
            "duration": spec.duration,
            "shards": spec.shards,
            "transport": args.transport,
            "fingerprint_digest": fingerprint_digest(result.fingerprint),
            "events": result.fingerprint["processed_events"],
            "sent": result.fingerprint["sent"],
            "delivered": result.fingerprint["delivered"],
            "dropped": result.fingerprint["dropped"],
        }
        if "report" in result.fingerprint:
            payload["report"] = result.fingerprint["report"]
        if result.traffic is not None:
            payload["traffic"] = {
                key: result.traffic[key]
                for key in ("app_sent", "app_receptions", "requests", "replies")}
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in _summary_lines(spec, args.transport, result):
            print(line)
    # Wall-clock facts and the obs digest stay on stderr so stdout is
    # byte-identical between observed and unobserved runs of the same spec.
    stats = result.stats
    print(f"wall: build={stats['build_s']:.3f}s run={stats['run_s']:.3f}s "
          f"rounds={stats.get('rounds', '?')}", file=sys.stderr)
    if obs and result.obs is not None:
        merged = result.obs["merged"]
        print(f"obs: {_obs_digest(merged)}", file=sys.stderr, flush=True)
        if args.obs_out:
            from repro.obs import write_blob_jsonl
            write_blob_jsonl(args.obs_out, merged,
                             meta={"scenario": spec.scenario,
                                   "seed": spec.seed,
                                   "duration": spec.duration,
                                   "shards": spec.shards,
                                   "transport": args.transport,
                                   "per_shard": len(result.obs["per_shard"])})
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

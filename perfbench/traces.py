"""Turn the launcher's NDJSON span files into per-layer metrics.

A layer's self time is its spans' durations minus the part their direct
child spans cover.  Everything the operations took that no span covers is
reported as ``trace.unattributed_ms``: interpreter start, argument
parsing, HTTP framing, JSON output and process exit.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

#: Per-layer metrics, in the order BENCHMARK.json lists them, with units.
PER_LAYER = (
    ("cli.import_ms", "ms"),
    ("logic.parse_ms", "ms"),
    ("logic.parse_calls", "count"),
    ("logic.check_ms", "ms"),
    ("logic.check_calls", "count"),
    ("scenarios.build_ms", "ms"),
    ("scenarios.build_calls", "count"),
    ("scenarios.build_elements", "count"),
    ("engine.index_ms", "ms"),
    ("engine.index_calls", "count"),
    ("kripke.component_masks_ms", "ms"),
    ("kripke.component_masks_calls", "count"),
    ("engine.evaluate_ms", "ms"),
    ("engine.batches", "count"),
    ("engine.formulas", "count"),
    ("store.get_ms", "ms"),
    ("store.get_calls", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.put_ms", "ms"),
    ("store.put_calls", "count"),
    ("report.encode_ms", "ms"),
    ("report.decode_ms", "ms"),
    ("runner.run_self_ms", "ms"),
    ("runner.instance_hit_ratio", "ratio"),
    ("runner.evaluator_builds", "count"),
    ("serve.outside_run_ms", "ms"),
    ("serve.coalesced", "count"),
    ("runtime.gc_ms", "ms"),
    ("runtime.gc_collections", "count"),
    ("trace.ops", "count"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

#: Span name -> the layer prefix its self time is reported under.
_SELF_TIME = {
    "cli.import": "cli.import_ms",
    "logic.parse": "logic.parse_ms",
    "logic.check": "logic.check_ms",
    "scenarios.build": "scenarios.build_ms",
    "engine.index": "engine.index_ms",
    "kripke.component_masks": "kripke.component_masks_ms",
    "engine.evaluate": "engine.evaluate_ms",
    "store.get": "store.get_ms",
    "store.put": "store.put_ms",
    "report.encode": "report.encode_ms",
    "report.decode": "report.decode_ms",
    "runner.run": "runner.run_self_ms",
    "runner.instance": "runner.run_self_ms",
    "runner.make_evaluator": "runner.run_self_ms",
    "runtime.gc": "runtime.gc_ms",
}

_CALLS = {
    "logic.parse": "logic.parse_calls",
    "logic.check": "logic.check_calls",
    "scenarios.build": "scenarios.build_calls",
    "engine.index": "engine.index_calls",
    "kripke.component_masks": "kripke.component_masks_calls",
    "engine.evaluate": "engine.batches",
    "store.get": "store.get_calls",
    "store.put": "store.put_calls",
    "runner.make_evaluator": "runner.evaluator_builds",
    "runtime.gc": "runtime.gc_collections",
}


def read_spans(path: str) -> List[dict]:
    """The spans of one traced process (the header line is skipped)."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    return [json.loads(line) for line in lines[1:] if line]


def summarize(
    span_lists: Iterable[Sequence[dict]],
    op_ms: Sequence[float],
    latency_by_rid: Optional[Mapping[str, float]] = None,
    run_rids: Iterable[str] = (),
    coalesced: int = 0,
    overhead_pct: float = 0.0,
) -> Dict[str, float]:
    """Per-layer metrics over the traced operations.

    ``span_lists`` holds one list of spans per traced process; ``op_ms`` the
    client-side latency of every traced operation.  For the service,
    ``latency_by_rid`` maps each measured request id to its client latency,
    and only spans carrying one of those ids count; ``run_rids`` are the
    ``POST /run`` requests, whose latency outside the server's
    ``ExperimentRunner.run`` span is ``serve.outside_run_ms`` (a median per
    request, unlike the other times, which are totals).
    """
    run_rids = set(run_rids)
    metrics: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    store_found = instance_calls = instance_built = 0
    outside: List[float] = []
    for spans in span_lists:
        if latency_by_rid is not None:
            spans = [s for s in spans if s["rid"] in latency_by_rid]
        child_ms: Dict[int, float] = defaultdict(float)
        children: Dict[int, set] = defaultdict(set)
        for span in spans:
            if span["parent"] is not None:
                child_ms[span["parent"]] += (span["end"] - span["start"]) * 1000
                children[span["parent"]].add(span["name"])
        for span in spans:
            name = span["name"]
            duration = (span["end"] - span["start"]) * 1000
            metrics[_SELF_TIME[name]] += duration - child_ms[span["id"]]
            if name in _CALLS:
                metrics[_CALLS[name]] += 1
            if name == "scenarios.build" and span["extra"]:
                metrics["scenarios.build_elements"] += span["extra"]
            elif name == "engine.evaluate" and span["extra"]:
                metrics["engine.formulas"] += span["extra"]
            elif name == "store.get":
                store_found += bool(span["extra"])
            elif name == "runner.instance":
                instance_calls += 1
                instance_built += "scenarios.build" in children[span["id"]]
            elif name == "runner.run" and span["rid"] in run_rids:
                outside.append(latency_by_rid[span["rid"]] - duration)
    attributed = sum(metrics[name] for name in set(_SELF_TIME.values()))
    metrics["trace.ops"] = len(op_ms)
    metrics["trace.unattributed_ms"] = sum(op_ms) - attributed
    metrics["trace.overhead_pct"] = overhead_pct
    metrics["store.hit_ratio"] = store_found / metrics["store.get_calls"] if metrics["store.get_calls"] else 0.0
    metrics["runner.instance_hit_ratio"] = (
        (instance_calls - instance_built) / instance_calls if instance_calls else 0.0
    )
    metrics["serve.outside_run_ms"] = statistics.median(outside) if outside else 0.0
    metrics["serve.coalesced"] = coalesced
    return metrics

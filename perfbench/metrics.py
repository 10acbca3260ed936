"""The benchmark's metric tables.

``BENCHMARK.json`` at the root of the checkout is the one place that
names the workloads, the metrics, their units, directions and bounds;
:func:`load` reads it.  What that file's fixed key set cannot hold lives
here: for each per-layer metric, the layer it measures, the end-to-end
metric it should move and the workloads where the layer does most and
almost no work, plus the known defects each workload keeps visible.
``run.py --describe`` prints both joined.

Every ``*_us`` layer metric is a self time in microseconds per workload
operation of the traced run: the wrapped calls' durations minus their
wrapped children's.  Layers that do not run in a workload report 0.
"""

from __future__ import annotations

import json
import os
from typing import Dict, NamedTuple, Tuple

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


class Layer(NamedTuple):
    name: str
    layer: str
    moves: str          # the end-to-end metric(s) it should move
    busiest: str        # workload where the layer does most work
    idle: str           # workloads where it does almost none


_SERVE = "serve-nodes"
_OTHERS = "every other workload"

LAYERS: Tuple[Layer, ...] = (
    # Workload-level figures that apply to one workload only.  The
    # end-to-end set must hold on every workload and never read 0, so
    # these are reported here, from the untraced half of the traced run.
    Layer("max_rate_rps", "served path", "max_rate_rps", _SERVE, _OTHERS),
    Layer("failed_share", "whole workload", "failed_share", "serve-nodes, store-rw", "batch-ask, batch-gaps"),
    Layer("wire_bytes_per_cell", "service.protocol", "wire_bytes_per_cell", _SERVE, _OTHERS),
    Layer("write_p50_ms", "corpus.store", "write_p50_ms", "store-rw", _OTHERS),
    Layer("write_tail_ms", "corpus.store", "write_tail_ms", "store-rw", _OTHERS),
    Layer("disk_bytes_per_node", "corpus.store", "disk_bytes_per_node", "store-rw", _OTHERS),
    # service.server, service.protocol, service.client
    Layer("server.transport_us", "service.server", "latency_p50_ms, latency_tail_ms", _SERVE, _OTHERS),
    Layer("protocol.encode_us", "service.protocol", "latency_p50_ms, latency_tail_ms", _SERVE, _OTHERS),
    Layer("protocol.response_bytes", "service.protocol", "wire_bytes_per_cell", _SERVE, _OTHERS),
    Layer("client.decode_us", "service.client", "latency_p50_ms", _SERVE, _OTHERS),
    Layer("gen.late_ms", "load generator", "latency_tail_ms", _SERVE, _OTHERS),
    # service.session
    Layer("session.self_us", "service.session", "latency_p50_ms, max_rate_rps", _SERVE, _OTHERS),
    # service.admission, service.cache
    Layer("admission.admit_us", "service.admission", "latency_p50_ms", _SERVE, _OTHERS),
    Layer("admission.rejected_share", "service.admission", "failed_share, max_rate_rps", _SERVE, _OTHERS),
    Layer("cache.hit_ratio", "service.cache", "latency_p50_ms, max_rate_rps", _SERVE, _OTHERS),
    Layer("cache.lookup_us", "service.cache", "latency_p50_ms", _SERVE, _OTHERS),
    # engine.planner, engine.plans
    Layer("planner.plan_us", "engine.planner", "latency_p50_ms", _SERVE, "batch-ask, batch-gaps, store-rw"),
    Layer("plans.hit_ratio", "engine.plans", "latency_p50_ms", _SERVE, "batch-ask, batch-gaps, store-rw"),
    # corpus.executor, corpus.corpus
    Layer("executor.ipc_us", "corpus.executor", "latency_p50_ms on store-rw", "store-rw", "workloads with workers=0"),
    Layer("executor.self_us", "corpus.executor", "latency_p50_ms, throughput_cells_s", "batch-gaps", "serve-nodes"),
    Layer("executor.chunks", "corpus.executor", "latency_p50_ms", "store-rw", "workloads with workers=0"),
    Layer("executor.degraded_chunks", "corpus.executor", "failed_share", "store-rw", "workloads with workers=0"),
    Layer("executor.retries", "corpus.executor", "latency_tail_ms", "store-rw", "workloads with workers=0"),
    Layer("executor.cell_us", "corpus.executor", "throughput_cells_s on batch-gaps", "batch-gaps", "batch-ask"),
    # engine.ir
    Layer("ir.evaluate_us", "engine.ir", "throughput_cells_s, latency_p50_ms", "batch-ask", "batch-gaps"),
    Layer("ir.stack_us", "engine.ir", "throughput_cells_s, latency_p50_ms", "batch-ask", "batch-gaps"),
    # engine.index
    Layer("index.to_nodes_us", "engine.index", "latency_p50_ms on serve-nodes and store-rw", "serve-nodes, store-rw", "batch-ask"),
    Layer("index.nodes_out", "engine.index", "latency_p50_ms, wire_bytes_per_cell", "serve-nodes, store-rw", "batch-ask"),
    Layer("index.build_us", "engine.index", "setup_s", "store-rw", "batch-ask"),
    Layer("index.builds", "engine.index", "setup_s", "store-rw", "batch-ask"),
    Layer("index.packed_us", "engine.index", "latency_p50_ms on store-rw", "store-rw", "batch-ask"),
    Layer("index.repair_us", "engine.index", "write_p50_ms", "store-rw", _OTHERS),
    Layer("index.serialize_us", "engine.index", "write_p50_ms", "store-rw", _OTHERS),
    # corpus.segment, corpus.store
    Layer("segment.unpickle_us", "corpus.segment", "latency_p50_ms, write_p50_ms", "store-rw", _OTHERS),
    Layer("segment.sidecar_hit_ratio", "corpus.segment", "latency_p50_ms on store-rw", "store-rw", _OTHERS),
    Layer("store.replace_us", "corpus.store", "write_p50_ms, write_tail_ms", "store-rw", _OTHERS),
    Layer("store.append_us", "corpus.store", "write_p50_ms", "store-rw", _OTHERS),
    Layer("store.bytes_per_write", "corpus.store", "disk_bytes_per_node, write_p50_ms", "store-rw", _OTHERS),
    Layer("store.stale_windows", "corpus.store", "failed_share", "store-rw", _OTHERS),
    Layer("store.generation_lag", "corpus.store", "failed_share", "store-rw", _OTHERS),
    # engine.xpath, engine.fo, engine.walk
    Layer("xpath.select_us", "engine.xpath", "throughput_cells_s", "batch-gaps", _OTHERS),
    Layer("fo.select_us", "engine.fo", "throughput_cells_s", "batch-gaps", _OTHERS),
    Layer("fo.evaluate_us", "engine.fo", "throughput_cells_s", "batch-gaps", _OTHERS),
    Layer("walk.walk_us", "engine.walk", "throughput_cells_s", "batch-gaps", _OTHERS),
    Layer("walk.relation_us", "engine.walk", "throughput_cells_s", "batch-gaps", _OTHERS),
    # harness
    Layer("trace.overhead_pct", "harness", "n/a", "all", "none"),
    Layer("trace.unattributed_pct", "harness", "n/a", "all", "none"),
)

#: Known defects, the metric each shows in, and the ROADMAP item that
#: should move it.
KNOWN_DEFECTS: Tuple[Dict[str, str], ...] = (
    {
        "defect": "responses over MAX_FRAME fail with INTERNAL after the whole query ran",
        "workload": "serve-nodes (the capacity phase's 1024-tree window)",
        "metric": "failed_share",
        "fixed_by": "ROADMAP item 3",
    },
    {
        "defect": "a read-only handle answers from a newer generation than its token names",
        "workload": "store-rw",
        "metric": "failed_share, store.stale_windows",
        "fixed_by": "ROADMAP item 4",
    },
    {
        "defect": "executor._WORKER_LANES grows with every distinct window",
        "workload": "store-rw",
        "metric": "peak_rss_mb",
        "fixed_by": "ROADMAP item 4 (generation-scoped reader caches)",
    },
)



def load(path: str = BENCHMARK_JSON) -> dict:
    """``BENCHMARK.json``, checked to name exactly the per-layer metrics
    :data:`LAYERS` maps."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    named = [metric["name"] for metric in doc["per_layer"]]
    mapped = [layer.name for layer in LAYERS]
    if named != mapped:
        raise ValueError(
            f"{path} per_layer and metrics.LAYERS differ: "
            f"{sorted(set(named) ^ set(mapped))}"
        )
    return doc


def busiest_in(layer: Layer, workload: str) -> bool:
    """Whether ``workload`` is one the layer does most of its work in."""
    return layer.busiest == "all" or workload in layer.busiest.split(", ")

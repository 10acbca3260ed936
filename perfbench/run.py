"""The repo benchmark: four seeded workloads, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds 8 --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, measured untraced, times at the
reference speed of :mod:`speed`; with
``--trace 1`` the per-layer metrics of a separate traced replay (plus
the workload-level figures of an untraced pass).  The line before it
is a JSON ``context`` object: the calibration loop time, the tail
percentile and its sample count, failure classes and trace details.

``--smoke`` runs the same code on tiny inputs (the benchmark's own
tests use it).  ``--describe`` prints the metric tables and the known
defects each workload keeps visible.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import metrics  # noqa: E402
import speed as speeds  # noqa: E402
from common import (  # noqa: E402
    FULL,
    KERNEL_QUERIES,
    SMOKE,
    ProgramMissing,
    WrongAnswer,
    child_env,
    median,
    tail,
)

BENCHMARK = metrics.load()
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
_clock = time.perf_counter


class RunFailed(RuntimeError):
    """A child or the served program failed in a way the workload does
    not tolerate."""


# -- hosted workloads (batch-ask, batch-gaps, store-rw) ------------------------


def _host(task: str, config: dict, timeout: float = 170.0) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(common.HERE, "host.py"), task, json.dumps(config)],
        env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    payload = json.loads(lines[-1]) if lines else {}
    if "wrong_answer" in payload:
        raise WrongAnswer(payload["wrong_answer"])
    if proc.returncode != 0:
        raise RunFailed(f"host {task} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return payload


def ensure_inputs(args, sizes) -> None:
    """Build the seed's inputs and oracles unless cached (not timed)."""
    import inputs

    if args.workload == "store-rw":
        inputs.ensure_store_inputs(sizes, args.seed)
    else:
        name = {"serve-nodes": "kernel", "batch-ask": "ask", "batch-gaps": "gaps"}[args.workload]
        inputs.ensure_corpus_inputs(sizes, name)


def run_hosted(args, sizes) -> dict:
    task = "store" if args.workload == "store-rw" else "batch"
    config = {
        "workload": args.workload, "sizes": sizes.name, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "corrupt": args.corrupt_oracle,
    }
    runs = [_host(task, dict(config, setup_only=True)) for _ in range(sizes.setups - 1)]
    out = _host(task, config)
    runs.append(out)
    out["setups"] = [run["setup_s"] for run in runs]
    out["setup_s"] = median(out["setups"])
    out["raw"]["setup_s"] = median([run["setup_raw_s"] for run in runs])
    return out


# -- serve-nodes ----------------------------------------------------------------

_SERVING = re.compile(r"serving (\d+) trees on ([\w.:-]+):(\d+)")


class Server:
    """``python -m repro serve FILE… --port 0`` with its default flags."""

    def __init__(self, files: List[str]) -> None:
        os.makedirs(common.WORK, exist_ok=True)
        self.log = os.path.join(common.WORK, f"serve-{os.getpid()}.log")
        self.began = _clock()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", *files, "--port", "0"],
                env=child_env(), stdout=subprocess.PIPE, stderr=log, text=True,
            )
        line = self.proc.stdout.readline()
        match = _SERVING.search(line)
        if match is None:
            self.stop()
            with open(self.log) as log:
                raise RunFailed(f"repro serve did not start: {line!r} {log.read()[-2000:]}")
        self.host, self.port = match.group(2), int(match.group(3))
        self.peak_rss_mb = 0.0

    def stop(self) -> None:
        """Terminate, reap, and keep the server's own peak RSS."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                _, _, usage = os.wait4(self.proc.pid, 0)
                self.peak_rss_mb = usage.ru_maxrss / 1024.0
            except ChildProcessError:
                pass
            self.proc.returncode = -15
        self.proc.stdout.close()
        self.proc.wait()
        if os.path.exists(self.log):
            os.unlink(self.log)


def _frame(window) -> bytes:
    from repro.service.protocol import encode_frame

    return encode_frame({
        "op": "query",
        "queries": common.wire_queries(KERNEL_QUERIES),
        "options": {"start": window[0], "stop": window[1], "engine": "auto"},
    })


def _first_answer(server: Server, window, expected) -> float:
    """When the first query was answered (set-up ends there)."""
    import loadgen
    from repro.service.protocol import decode_payload

    sock = loadgen.connect(server.host, server.port)
    try:
        sock.sendall(_frame(window))
        payload = decode_payload(loadgen.read_body(sock))
    finally:
        sock.close()
    ended = _clock()
    if loadgen.classify(payload, window, expected) != "ok":
        raise RunFailed(f"set-up query failed: {payload.get('error')}")
    return ended


def _tally(records, windows, expected) -> dict:
    """Decode and check every response; sum cells, bytes and failures."""
    import loadgen
    from repro.service.protocol import decode_payload

    classes: Dict[str, int] = {}
    verdicts = []
    cells = wire = 0
    decode_s = 0.0
    for record, window in zip(records, windows):
        if record.error is not None:
            verdict = "transport"
        else:
            began = _clock()
            payload = decode_payload(record.body)
            decode_s += _clock() - began
            verdict = loadgen.classify(payload, window, expected)
        verdicts.append(verdict)
        classes[verdict] = classes.get(verdict, 0) + 1
        if verdict == "ok":
            cells += (window[1] - window[0]) * len(KERNEL_QUERIES)
            wire += len(record.body) + 4
    failed = sum(n for verdict, n in classes.items() if verdict != "ok")
    return {"classes": classes, "verdicts": verdicts, "cells": cells,
            "wire": wire, "failed": failed, "decode_s": decode_s}


def _rung_passes(records, tally, limit_ms: float) -> bool:
    """A rung meets the limit when at most one request in ten misses
    it — a failed or refused request always misses — and the last
    request sent completes within it (no backlog left growing)."""
    misses = sum(
        1 for record, verdict in zip(records, tally["verdicts"])
        if verdict != "ok" or record.latency * 1000.0 > limit_ms
    )
    if misses > 0.1 * len(records):
        return False
    last, verdict = max(zip(records, tally["verdicts"]), key=lambda pair: pair[0].due)
    return verdict == "ok" and last.latency * 1000.0 <= limit_ms


def run_serve(args, sizes) -> dict:
    import inputs
    import loadgen

    files = inputs.tree_files(sizes, args.seed)
    expected = loadgen.oracle_json(inputs.corpus_oracle(sizes, args.seed, "kernel"))
    if args.corrupt_oracle:
        expected[0] = [[["corrupt"]] for _ in expected[0]]
    first_window = (0, sizes.narrow)
    # The one very wide window, which overflows MAX_FRAME, goes to the
    # closed-loop capacity phase (under 1% of its requests), where it
    # costs throughput and counts as failed.  In the open-loop reference
    # phase it would stall the requests queued behind it for as long as
    # it runs, and set the latency tail by where the seed placed it.
    count = max(sizes.serve_requests, int(round(sizes.serve_rate * args.seconds)))
    reference = inputs.serve_windows(sizes, args.seed, "reference", count, 0)
    capacity = inputs.serve_windows(sizes, args.seed, "capacity", sizes.capacity_requests, 1)

    speed = speeds.Speed()
    setups = []
    server = None
    try:
        for attempt in range(sizes.setups):
            speed.sample()
            server = Server(files)
            setups.append((server.began, _first_answer(server, first_window, expected)))
            speed.sample()
            if attempt < sizes.setups - 1:
                server.stop()
        ref_records = loadgen.open_loop(
            server.host, server.port, [_frame(w) for w in reference],
            sizes.serve_rate, speed,
        )
        # The capacity loop runs in rounds with a speed probe between
        # them, while the server is idle.
        cap_frames = [_frame(w) for w in capacity]
        cap_records, cap_spans = [], []
        for low in range(0, len(cap_frames), sizes.capacity_round):
            speed.sample()
            began = _clock()
            cap_records += loadgen.closed_loop(
                server.host, server.port, cap_frames[low:low + sizes.capacity_round]
            )
            cap_spans.append((began, _clock()))
        speed.sample()
        ladder = []
        stats = None
        if args.trace:
            for rate in sizes.serve_ladder:
                rung_count = int(round(rate * sizes.ladder_seconds))
                windows = inputs.serve_windows(
                    sizes, args.seed, f"ladder-{rate:g}", rung_count, 0
                )
                records = loadgen.open_loop(
                    server.host, server.port, [_frame(w) for w in windows], rate
                )
                rung = _tally(records, windows, expected)
                passed = _rung_passes(records, rung, sizes.serve_limit_ms)
                ladder.append({"rate": rate, "passed": passed, "classes": rung["classes"]})
                if not passed:
                    break
            from repro.service import ServiceClient

            with ServiceClient(server.host, server.port) as client:
                stats = client.stats()
    finally:
        if server is not None:
            server.stop()

    ref = _tally(ref_records, reference, expected)
    cap = _tally(cap_records, capacity, expected)
    raw = [r.latency for r in ref_records]
    latencies = speed.scale_spans([(r.due, r.done) for r in ref_records])
    value, percentile, samples = tail(latencies)
    attempted = len(ref_records) + len(cap_records)
    failed = ref["failed"] + cap["failed"]
    out = {
        "setup_s": median(speed.scale_spans(setups)),
        "setups": speed.scale_spans(setups),
        "latency_p50_ms": 1000.0 * median(latencies),
        "latency_tail_ms": 1000.0 * value,
        "tail_percentile": percentile,
        "samples": samples,
        "throughput_cells_s": cap["cells"] / sum(speed.scale_spans(cap_spans)),
        "raw": {
            "setup_s": median([ended - began for began, ended in setups]),
            "latency_p50_ms": 1000.0 * median(raw),
            "latency_tail_ms": 1000.0 * tail(raw)[0],
            "throughput_cells_s": cap["cells"] / sum(e - b for b, e in cap_spans),
            "probe_ms": 1000.0 * speed.median_s(),
            "probes": len(speed.seconds),
        },
        "peak_rss_mb": server.peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failure_classes": {"reference": ref["classes"], "capacity": cap["classes"]},
    }
    if args.trace:
        rejected = stats["admission"]["rejected_inflight"] + stats["admission"]["rejected_quota"]
        admitted = stats["admission"]["admitted"]
        cache = stats.get("result_cache") or {"hits": 0, "misses": 0}
        looked = cache["hits"] + cache["misses"]
        passing = [rung["rate"] for rung in ladder if rung["passed"]]
        out["ladder"] = ladder
        out["layers"] = {
            "max_rate_rps": max(passing) if passing else 0.0,
            "failed_share": failed / attempted,
            "wire_bytes_per_cell": ref["wire"] / ref["cells"] if ref["cells"] else 0.0,
            "gen.late_ms": 1000.0 * median([r.late for r in ref_records]),
            "client.decode_us": 1e6 * ref["decode_s"] / len(ref_records),
            "admission.rejected_share": rejected / (admitted + rejected) if admitted + rejected else 0.0,
            "cache.hit_ratio": cache["hits"] / looked if looked else 0.0,
        }
        out["trace"] = _host("serve-replay", {
            "sizes": sizes.name, "seed": args.seed,
            "windows": reference[: sizes.replay_requests],
        })
    return out


# -- assembly ---------------------------------------------------------------------


def _result(workload_out: dict, trace: bool) -> dict:
    table = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    if not trace:
        values = {name: workload_out[name] for name in table}
    else:
        # Figures of the untraced pass win over the traced replay's.
        values = {name: 0.0 for name in table}
        traced = workload_out["trace"]["layers"]
        values.update({k: v for k, v in traced.items() if k in values})
        values.update(workload_out.get("layers", {}))
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in table.items()
    }


def trace_gaps(workload: str, trace: dict) -> List[str]:
    """Why the traced run cannot be trusted, if it cannot: a wrap target
    the program no longer has, or a wrapped layer that records no call
    in a workload where it does most of its work (the program reaches
    it some other way now).  Either would read as a layer time of 0."""
    gaps = [f"wrap target missing: {name}" for name in trace.get("missing", [])]
    calls = trace.get("calls", {})
    for layer in metrics.LAYERS:
        if layer.name in trace.get("wrapped", ()) and metrics.busiest_in(layer, workload):
            if not calls.get(layer.name):
                gaps.append(f"{layer.name} recorded no call on {workload}")
    return gaps


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, same code paths")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="make one oracle row wrong; the run must fail")
    parser.add_argument("--describe", action="store_true",
                        help="print the metric tables and known defects")
    args = parser.parse_args(argv)
    if args.describe:
        print(json.dumps({
            "workloads": {w["name"]: w["why"] for w in BENCHMARK["workloads"]},
            "end_to_end": BENCHMARK["end_to_end"],
            "per_layer": [
                dict(metric, **layer._asdict())
                for metric, layer in zip(BENCHMARK["per_layer"], metrics.LAYERS)
            ],
            "known_defects": list(metrics.KNOWN_DEFECTS),
        }, indent=1, ensure_ascii=False))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        common.ensure_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sizes = SMOKE if args.smoke else FULL
    ensure_inputs(args, sizes)
    cpu = speeds.pin()
    calibration = common.calibration_ms()
    correct = True
    problem = None
    try:
        if args.workload == "serve-nodes":
            out = run_serve(args, sizes)
        else:
            out = run_hosted(args, sizes)
    except WrongAnswer as exc:
        correct, problem, out = False, str(exc), None
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "profile": sizes.name,
        "calibration_ms": calibration, "cpu": cpu,
    }
    if out is None:
        context["wrong_answer"] = problem
        common.emit({"context": context})
        common.emit({"correct": False, "attempted": 1, "failed": 1, "metrics": {}})
        return 1
    for key in ("setups", "raw", "tail_percentile", "samples", "failure_classes",
                "write_tail_percentile", "write_samples", "ladder", "rss_mb"):
        if key in out:
            context[key] = out[key]
    if args.trace:
        context["trace_gaps"] = trace_gaps(args.workload, out["trace"])
        context["traced_ops"] = out["trace"].get("traced_ops")
        correct = not context["trace_gaps"]
    common.emit({"context": context})
    common.emit({
        "correct": correct,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": _result(out, bool(args.trace)),
    })
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

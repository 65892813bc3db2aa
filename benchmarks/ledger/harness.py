"""Measurement plumbing shared by every ledger workload.

Everything here observes the program from outside: wall-clock timers
around public calls, span records kept in memory, and deltas of the
counters the program already maintains (``DeviceStats``,
``BufferPoolStats``, ``SnapshotPageCache`` hits/misses, Pagelog size).
Nothing under ``src/`` is patched or edited.
"""

from __future__ import annotations

import json
import pathlib
import resource
import statistics
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError

LEDGER_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
OUT_DIR = LEDGER_DIR / "out"

#: (fewest, most) set-ups per untraced run; ``setup_s`` is their median.
#: Past the fewest, set-ups repeat while they have cost under the budget
#: in total, so an 80 ms set-up is not judged on three samples.
SETUPS = (3, 9)
SETUP_BUDGET_S = 1.5
#: seconds the calibration loop takes on this sandbox when it is quiet;
#: times are reported as if the host always ran at that speed (see
#: ``host_speed``)
NOMINAL_CALIB_S = 0.006
#: what the memory half of the calibration loop walks over
_CALIB_BUFFER = bytes(range(256)) * 900
#: ops inside the traced run's counter window
COUNTER_OPS = 6


def fixed_clock() -> str:
    """SnapIds timestamp source: wall time must not leak into inputs."""
    return "2026-01-01 00:00:00"


def load_contract() -> dict:
    """``BENCHMARK.json``: the one place metric names and units live."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10)[-1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's
    steadiness measure)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return ratio(q3 - q1, abs(median(values)))


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now (best of two, so
    a single preemption does not read as a slow host).  Half of it is
    integer arithmetic, half allocation, dict and ``struct`` work over
    a buffer: the arithmetic alone followed the host's clock but not
    its memory contention, which slows the program more than it slows
    a loop that lives in registers (README, "Host noise")."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        total = 0
        for n in range(60_000):
            total += (n * n) % 7
        seen: Dict[int, tuple] = {}
        rows: List[tuple] = []
        for offset in range(0, len(_CALIB_BUFFER) - 16, 24):
            key, value = struct.unpack_from("<qd", _CALIB_BUFFER, offset)
            rows.append((key, value, _CALIB_BUFFER[offset:offset + 12]))
            seen[key & 1023] = rows[-1]
        best = min(best, time.perf_counter() - started)
    return best


def host_speed(calib_before: float, calib_after: float) -> float:
    """Factor that scales a time measured between two calibrations to
    the nominal host.  This sandbox's speed drifts by 30 % for minutes
    at a time; the program is pure Python like the loop, and dividing
    by the loop's time took the window-to-window range of an 8 s median
    from 0.80-1.37 down to 0.93-1.03 (README, "Host noise")."""
    return NOMINAL_CALIB_S / ((calib_before + calib_after) / 2.0)


def time_calls(fn: Callable[[], object], budget_s: float = 0.15,
               min_calls: int = 5, max_calls: int = 5000) -> float:
    """Median seconds of one ``fn()`` call, sampled for ``budget_s``."""
    samples: List[float] = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < max_calls:
        started = time.perf_counter()
        fn()
        ended = time.perf_counter()
        samples.append(ended - started)
        if len(samples) >= min_calls and ended >= deadline:
            break
    return median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span recorder (single-threaded by construction: only
    the benchmark's main thread opens spans)."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[dict] = []

    @contextmanager
    def span(self, name: str, op_id: Optional[int] = None) -> Iterator[dict]:
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "name": name,
            "op_id": op_id if op_id is not None
            else (parent["op_id"] if parent else None),
            "parent": parent["id"] if parent else None,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, op_id: Optional[int] = None) -> Dict[str, float]:
        """Per span name: duration minus the part child spans cover."""
        covered: Dict[int, float] = {}
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] = covered.get(
                    record["parent"], 0.0) + record["end"] - record["start"]
        out: Dict[str, float] = {}
        for record in self.spans:
            if op_id is not None and record["op_id"] != op_id:
                continue
            own = (record["end"] - record["start"]
                   - covered.get(record["id"], 0.0))
            out[record["name"]] = out.get(record["name"], 0.0) + own
        return out

    def durations(self, name: str,
                  op_id: Optional[int] = None) -> List[float]:
        return [r["end"] - r["start"] for r in self.spans
                if r["name"] == name
                and (op_id is None or r["op_id"] == op_id)]

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Counters the program already keeps
# ---------------------------------------------------------------------------

def read_counters(main_engine, aux_engine) -> Dict[str, float]:
    """One reading of every counter the per-layer ratios are built on."""
    out: Dict[str, float] = dict.fromkeys(
        ("device_s", "random_reads", "random_writes", "log_reads",
         "log_writes"), 0.0)
    for engine in (main_engine, aux_engine):
        stats = engine.disk.stats.snapshot()
        out["random_reads"] += stats.random_reads
        out["random_writes"] += stats.random_writes
        out["log_reads"] += stats.log_reads
        out["log_writes"] += stats.log_writes
        out["device_s"] += engine.disk.simulated_seconds()
    pool = main_engine.pager.pool.stats
    cache = main_engine.retro.cache
    out["pool_hits"] = pool.hits
    out["pool_misses"] = pool.misses
    out["pool_evictions"] = pool.evictions
    out["cache_hits"] = cache.hits
    out["cache_misses"] = cache.misses
    out["pagelog_bytes"] = main_engine.retro.pagelog.size_bytes
    return out


def counter_metrics(before: Dict[str, float], after: Dict[str, float],
                    ops: int) -> Dict[str, float]:
    """Per-op layer metrics from two :func:`read_counters` readings."""
    d = {key: after[key] - before[key] for key in after}
    return {
        "storage.disk.log_writes_per_txn": ratio(d["log_writes"], ops),
        "storage.disk.random_writes_per_txn":
            ratio(d["random_writes"], ops),
        "storage.disk.log_reads_per_op": ratio(d["log_reads"], ops),
        "storage.disk.random_reads_per_op": ratio(d["random_reads"], ops),
        "storage.disk.device_s_per_op": ratio(d["device_s"], ops),
        "storage.buffer_pool.hit_rate":
            ratio(d["pool_hits"], d["pool_hits"] + d["pool_misses"]),
        "storage.buffer_pool.evictions": d["pool_evictions"],
        "retro.snapshot_cache.hit_rate":
            ratio(d["cache_hits"], d["cache_hits"] + d["cache_misses"]),
        "retro.pagelog.bytes_appended_per_txn":
            ratio(d["pagelog_bytes"], ops),
    }


# ---------------------------------------------------------------------------
# Workload protocol and the measuring loop
# ---------------------------------------------------------------------------

@dataclass
class Block:
    """What one measured block of a run observed."""

    #: wall latency of each timed op (``mechanism`` requests on
    #: ``server_mixed``)
    latencies: List[float] = field(default_factory=list)
    #: wall latency of each write transaction, where the workload has one
    txn_latencies: List[float] = field(default_factory=list)
    #: ops completed and the wall time they were measured over
    completed: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: :func:`host_speed` while the block ran
    speed: float = 1.0


class Workload:
    """One set of inputs.  Subclasses build their environment from the
    seed alone and check every op against an independent oracle."""

    name = ""
    #: seconds per measured block; a calibration runs between blocks
    BLOCK_S = 0.25

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release the environment; idempotent."""
        raise NotImplementedError

    def op(self) -> Tuple[float, bool]:
        """Run one op; returns (timed seconds, oracle agreed)."""
        raise NotImplementedError

    def run_block(self, deadline: float) -> Block:
        """Closed loop of one caller until ``deadline``."""
        block = Block()
        while True:
            block.attempted += 1
            seconds, ok = self.op()
            block.latencies.append(seconds)
            block.busy_s += seconds
            block.completed += 1
            if not ok:
                block.failed += 1
            if time.perf_counter() >= deadline:
                return block

    def verify(self) -> Tuple[int, int]:
        """End-of-run checks: (attempted, failed)."""
        return 0, 0

    def engines(self):
        """(main, aux) storage engines whose counters describe the run."""
        raise NotImplementedError

    def layers(self, tracer: Tracer, budget_s: float) -> Dict[str, float]:
        """Traced pass + layer probes: per-layer metric name -> value."""
        raise NotImplementedError


@dataclass
class Measured:
    blocks: List[Block]

    @property
    def latencies(self) -> List[float]:
        """Raw wall latencies, in run order."""
        return [s for block in self.blocks for s in block.latencies]

    @property
    def attempted(self) -> int:
        return sum(block.attempted for block in self.blocks)

    @property
    def failed(self) -> int:
        return sum(block.failed for block in self.blocks)

    @property
    def completed(self) -> int:
        return sum(block.completed for block in self.blocks)

    def op_p50_s(self) -> float:
        """Median op latency at nominal host speed."""
        return median([s * block.speed for block in self.blocks
                       for s in block.latencies])

    def ops_per_s(self) -> float:
        return ratio(self.completed, sum(block.busy_s * block.speed
                                         for block in self.blocks))

    def calib_s(self) -> float:
        return median([NOMINAL_CALIB_S / block.speed
                       for block in self.blocks])

    def drift_ratio(self) -> float:
        """Raw latency late in the run over early in the run."""
        quarter = max(1, len(self.blocks) // 4)
        first = [s for b in self.blocks[:quarter] for s in b.latencies]
        last = [s for b in self.blocks[-quarter:] for s in b.latencies]
        return ratio(median(last), median(first))


def measure(workload: Workload, seconds: float) -> Measured:
    """Closed-loop blocks for ``seconds``, a calibration between blocks
    (callers run the warm-up op first)."""
    blocks: List[Block] = []
    end = time.perf_counter() + seconds
    calib = calibrate()
    while time.perf_counter() < end:
        block = workload.run_block(
            min(end, time.perf_counter() + workload.BLOCK_S))
        after = calibrate()
        block.speed = host_speed(calib, after)
        calib = after
        blocks.append(block)
    return Measured(blocks)


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    samples: int
    #: metric name -> value, units come from BENCHMARK.json
    metrics: Dict[str, float]

    @property
    def correct(self) -> bool:
        return self.failed == 0


def run_untraced(workload: Workload, seed: int, seconds: float,
                 setups: Tuple[int, int] = SETUPS) -> RunResult:
    """The end-to-end run: repeated set-up, measured blocks, checks."""
    fewest, most = setups
    built: List[float] = []  # seconds per set-up, at nominal host speed
    while len(built) < fewest or (
            len(built) < most and sum(built) < SETUP_BUDGET_S):
        if built:
            workload.close()
        calib = calibrate()
        started = time.perf_counter()
        workload.setup(seed)
        elapsed = time.perf_counter() - started
        built.append(elapsed * host_speed(calib, calibrate()))
    try:
        workload.op()  # untimed warm-up: lazy set-up and oracles
        measured = measure(workload, seconds)
        checked, check_failed = workload.verify()
    finally:
        workload.close()
    return RunResult(
        workload=workload.name, seed=seed, trace=False,
        attempted=measured.attempted + checked,
        failed=measured.failed + check_failed,
        samples=len(measured.latencies),
        metrics={
            "op_p50_ms": measured.op_p50_s() * 1e3,
            "ops_per_s": measured.ops_per_s(),
            "setup_s": median(built),
        },
    )


def run_traced(workload: Workload, seed: int, seconds: float) -> RunResult:
    """The per-layer run: counter readings around a fixed number of ops
    (so every count repeats exactly for a seed, however fast the host
    is), a short untraced reference block, then the workload's traced
    pass and probes."""
    tracer = Tracer()
    workload.setup(seed)
    try:
        workload.op()  # untimed warm-up, outside the counter window
        before = read_counters(*workload.engines())
        counted_failed = sum(
            0 if workload.op()[1] else 1 for _ in range(COUNTER_OPS))
        after = read_counters(*workload.engines())
        metrics = counter_metrics(before, after, COUNTER_OPS)
        measured = measure(workload, seconds * 0.3)
        layer = workload.layers(tracer, seconds * 0.7)
        checked, check_failed = workload.verify()
    finally:
        workload.close()
    traced_p50 = median(tracer.durations("op.integrated"))
    metrics.update({
        "bench.op_p50_raw_s": median(measured.latencies),
        "bench.op_p90_s": p90(measured.latencies),
        "bench.calib_s": measured.calib_s(),
        "bench.peak_rss_mb": peak_rss_mb(),
        "bench.drift_ratio": measured.drift_ratio(),
        "bench.samples": float(len(measured.latencies)),
        "bench.trace_overhead_ratio":
            ratio(traced_p50, median(measured.latencies)),
    })
    metrics.update(layer)
    tracer.write(OUT_DIR / f"trace-{workload.name}.jsonl")
    return RunResult(
        workload=workload.name, seed=seed, trace=True,
        attempted=COUNTER_OPS + measured.attempted + checked,
        failed=counted_failed + measured.failed + check_failed,
        samples=len(measured.latencies), metrics=metrics,
    )


def render(result: RunResult, contract: dict) -> dict:
    """The driver's result object; rejects names the contract lacks so
    BENCHMARK.json and the code cannot drift apart silently."""
    specs = contract["per_layer" if result.trace else "end_to_end"]
    known = {spec["name"] for spec in specs}
    unknown = sorted(set(result.metrics) - known)
    if unknown:
        raise WorkloadError(
            f"metrics missing from BENCHMARK.json: {', '.join(unknown)}")
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        # A per-layer metric the workload's path never touches reads 0.
        "metrics": {
            spec["name"]: {
                "value": float(result.metrics.get(spec["name"], 0.0)),
                "unit": spec["unit"],
            }
            for spec in specs
        },
    }


def print_result(result: RunResult, payload: dict) -> None:
    kind = "per-layer (traced)" if result.trace else "end-to-end"
    print(f"# {result.workload} seed={result.seed} {kind}: "
          f"{result.samples} timed ops, {result.attempted} checks "
          f"attempted, {result.failed} failed")
    for name, entry in payload["metrics"].items():
        print(f"{result.workload:15s} {name:44s} "
              f"{entry['value']:.6g} {entry['unit']}")
    print(json.dumps(payload))

"""Command line of the RQL ledger.

Driver form (one workload, one process; the last stdout line is the
result object ``BENCHMARK.json`` describes)::

    python3 benchmarks/ledger/run.py --workload scan_agg --seed 1 \\
        --seconds 10 --trace 0

All workloads, several seeds, results kept for ``compare``::

    python3 benchmarks/ledger/run.py run --seed 1 --runs 10 --out a.json
    python3 benchmarks/ledger/run.py compare a.json b.json

The script puts the repository root and ``src/`` on ``sys.path`` itself,
so it needs no ``PYTHONPATH``; without ``src/`` beside it the import of
the program fails and the exit code is non-zero.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import Dict, Optional, Sequence

_ROOT = pathlib.Path(__file__).resolve().parents[2]
for _entry in (_ROOT, _ROOT / "src"):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

from repro.errors import WorkloadError  # noqa: E402

from benchmarks.ledger import harness  # noqa: E402
from benchmarks.ledger.compare import compare_files  # noqa: E402
from benchmarks.ledger.workloads import WORKLOADS  # noqa: E402

#: ``run --quick``: one set-up and one short pass per workload, for the
#: smoke test
QUICK_SECONDS = 1.0


def run_one(name: str, seed: int, seconds: float, trace: bool,
            contract: dict, quick: bool = False) -> dict:
    workload = WORKLOADS[name]()
    if trace:
        result = harness.run_traced(workload, seed, seconds)
    else:
        result = harness.run_untraced(
            workload, seed, seconds,
            setups=(1, 1) if quick else harness.SETUPS)
    payload = harness.render(result, contract)
    harness.print_result(result, payload)
    return payload


def run_in_child(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> dict:
    """One measured run in a process of its own, as the driver makes
    them: a run must not inherit the heap of the runs before it."""
    command = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)
    sys.stdout.write(done.stdout)
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise WorkloadError(
            f"{name} seed {seed} exited {done.returncode} without a result")
    return json.loads(lines[-1])


def run_all(seed: int, runs: int, seconds: float, quick: bool,
            out: Optional[pathlib.Path], contract: dict) -> int:
    """Every workload, untraced then traced, ``runs`` seeds each; prints
    each end-to-end metric's spread and writes one results file."""
    results: Dict[str, dict] = {}
    failed = 0
    for name in WORKLOADS:
        entry = results[name] = {
            "end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0}
        for n in range(runs):
            for trace in (False, True):
                payload = run_in_child(name, seed + n, seconds, trace, quick)
                entry["attempted"] += payload["attempted"]
                entry["failed"] += payload["failed"]
                series = entry["per_layer" if trace else "end_to_end"]
                for metric, value in payload["metrics"].items():
                    series.setdefault(metric, []).append(value["value"])
        failed += entry["failed"]
    print("# spread of each end-to-end metric over "
          f"{runs} seeds (IQR / median; steady = under a third of bound)")
    for name, entry in results.items():
        for spec in contract["end_to_end"]:
            values = entry["end_to_end"][spec["name"]]
            print(f"{name:15s} {spec['name']:12s} "
                  f"median {harness.median(values):.6g} {spec['unit']:4s} "
                  f"spread {harness.spread(values):.4f} "
                  f"bound {spec['bound']}")
    document = {"seed": seed, "runs": runs, "seconds": seconds,
                "workloads": results}
    path = out or harness.OUT_DIR / f"ledger-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(f"# wrote {path}")
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    contract = harness.load_contract()
    if args and args[0] == "compare":
        parser = argparse.ArgumentParser(prog="ledger compare")
        parser.add_argument("before", type=pathlib.Path)
        parser.add_argument("after", type=pathlib.Path)
        opts = parser.parse_args(args[1:])
        return compare_files(opts.before, opts.after, contract)
    if args and args[0] == "run":
        parser = argparse.ArgumentParser(prog="ledger run")
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--runs", type=int, default=1)
        parser.add_argument("--seconds", type=float,
                            default=float(contract["run_seconds"]))
        parser.add_argument("--quick", action="store_true")
        parser.add_argument("--out", type=pathlib.Path)
        opts = parser.parse_args(args[1:])
        seconds = QUICK_SECONDS if opts.quick else opts.seconds
        return run_all(opts.seed, opts.runs, seconds, opts.quick, opts.out,
                       contract)
    parser = argparse.ArgumentParser(prog="ledger")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one set-up only (smoke test)")
    opts = parser.parse_args(args)
    payload = run_one(opts.workload, opts.seed, opts.seconds,
                      bool(opts.trace), contract, opts.quick)
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

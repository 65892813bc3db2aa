"""The RQL ledger: the repository's benchmark.

Six workloads, three end-to-end metrics and a per-layer attribution, all
measured from outside the program (public calls and the counters it
already returns).  ``BENCHMARK.json`` at the repository root records
the contract; ``README.md`` in this directory explains every choice.

Entry points::

    python3 benchmarks/ledger/run.py --workload scan_agg --seed 1 \\
        --seconds 10 --trace 0         # one measured run (driver form)
    python3 benchmarks/ledger/run.py run --seed 1 --runs 10
    python3 benchmarks/ledger/run.py compare out/a.json out/b.json
"""

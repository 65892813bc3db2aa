"""Smoke test of the ledger (``pytest benchmarks/ledger -q``; tier-1
collects ``tests/`` only, so this never runs there).

One ``run --quick`` over all six workloads, then same-seed / other-seed
traced runs of four workloads for the exact-count property.
"""

import json
import re

import pytest

from benchmarks.ledger import harness, run
from benchmarks.ledger.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: counts that depend on how many ops the host got through, not on the seed
SPEED_DEPENDENT = {"bench.samples"}
#: true zeros: the default buffer pool holds every workload's database
#: (the paper's memory-resident configuration), so nothing is evicted or
#: read back from the database file
ZERO_EVERYWHERE = {"storage.buffer_pool.evictions",
                   "storage.disk.random_reads_per_op"}


@pytest.fixture(scope="module")
def contract():
    return harness.load_contract()


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    code = run.main(["run", "--quick", "--seed", "5", "--out", str(out)])
    with open(out, encoding="utf-8") as handle:
        return code, json.load(handle)


def test_contract_names_and_units(contract):
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    for spec in contract["end_to_end"] + contract["per_layer"]:
        assert NAME.match(spec["name"]), spec
        assert spec["unit"] and spec["better"] in ("lower", "higher")
    assert any(s["name"] == "setup_s" for s in contract["end_to_end"])


def test_quick_run_emits_every_metric_and_fails_nothing(quick, contract):
    code, document = quick
    assert code == 0
    assert list(document["workloads"]) == list(WORKLOADS)
    for name, entry in document["workloads"].items():
        assert entry["failed"] == 0, name
        assert entry["attempted"] > 0, name
        for kind in ("end_to_end", "per_layer"):
            expected = [spec["name"] for spec in contract[kind]]
            assert list(entry[kind]) == expected, (name, kind)
        for metric, values in entry["end_to_end"].items():
            assert all(v > 0 for v in values), (name, metric)


def test_each_layer_metric_is_measured_somewhere(quick, contract):
    _, document = quick
    unmeasured = {
        spec["name"] for spec in contract["per_layer"]
        if not any(any(entry["per_layer"][spec["name"]])
                   for entry in document["workloads"].values())}
    assert unmeasured == ZERO_EVERYWHERE


def _counts(name, seed, contract):
    result = harness.run_traced(WORKLOADS[name](), seed, 1.0)
    units = {s["name"]: s["unit"] for s in contract["per_layer"]}
    assert result.failed == 0
    return {metric: value for metric, value in result.metrics.items()
            if units[metric] in ("count", "sim_s")
            and metric not in SPEED_DEPENDENT}


@pytest.mark.parametrize("name",
                         ["point_history", "table_fold", "update_history",
                          "view_refresh"])
def test_counts_repeat_for_a_seed_and_move_with_it(name, contract):
    first = _counts(name, 11, contract)
    assert first and first == _counts(name, 11, contract)
    assert first != _counts(name, 12, contract)

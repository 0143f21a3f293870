"""Smoke test of the benchmark harness on tiny inputs (desk preset, few slots).

    python3 -m pytest bench/test_smoke.py -q

It is not part of the repository's test suite (pytest's testpaths is tests/).
"""

import json
from pathlib import Path

import pytest

import run

assert run.use_sources()

from workloads import WORKLOADS  # noqa: E402  (needs src/ on sys.path)


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    inputs, res, result = run.run_benchmark(WORKLOADS[name](small=True), 0, 0, trace)
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _drop_last_cdf_row(out_dir):
    p = Path(out_dir) / "sinr_cdf.csv"
    p.write_text("".join(p.read_text().splitlines(keepends=True)[:-1]))


def _drop_reward_row(out_dir):
    p = Path(out_dir) / "reward_trace.csv"
    p.write_text("".join(p.read_text().splitlines(keepends=True)[:-1]))


def _nudge_oracle_qos(out_dir):
    p = Path(out_dir) / "oracle_qos.csv"
    lines = p.read_text().splitlines(keepends=True)
    head, qos = lines[3].rsplit(",", 1)
    lines[3] = f"{head},{float(qos) * (1 + 1e-6)!r}\n"
    p.write_text("".join(lines))


@pytest.mark.parametrize("name, corrupt", [
    ("learn_static", _drop_reward_row),
    ("oracle_paper", _nudge_oracle_qos),
    ("walk_ground", _drop_last_cdf_row),
])
def test_corrupted_output_counts_as_failure(name, corrupt):
    class Corrupted(WORKLOADS[name]):
        def run(self, inputs, out_dir):
            result = super().run(inputs, out_dir)
            corrupt(out_dir)
            return result

    _, res, result = run.run_benchmark(Corrupted(small=True), 0, 0, False)
    assert result["failed"] == result["attempted"] >= run.MIN_REPS
    assert not result["correct"]

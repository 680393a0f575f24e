"""Fast self-test of the benchmark harness at toy sizes.

    python3 -m pytest perfbench -q

One book per workload, traced and untraced.  Checks that every metric
BENCHMARK.json names is emitted, that span self times never exceed the
wall time of the operation that caused them, that each workload bypasses
the layers it should, and that no tracing wrapper outlives its run.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def _toy(name, trace):
    return run.run(name, 3, 0, trace, workloads.TOY, setup_reps=1,
                   max_books=1)


def test_workloads_match_benchmark_json():
    assert NAMES == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name):
    result, _ = _toy(name, 0)
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(math.isfinite(m["value"]) and m["value"] > 0
               for m in metrics.values())
    assert result["attempted"] >= 1
    tracing.assert_untraced()


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_layer_metric(name):
    result, record = _toy(name, 1)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    tracing.assert_untraced()

    spans = [tracing.Span(*row[:5], points=row[5]) for row in record["spans"]]
    own, _ = tracing.self_times(spans, record["speed_pauses"])
    per_op = [0.0] * len(record["ops"])
    for span, t in zip(spans, own):
        assert t >= 0.0
        per_op[span.op] += t
    for total, op in zip(per_op, record["ops"]):
        assert total <= op[2]

    if name == "basket_book":
        assert metrics["fft_pricer.premium_transform.calls"] == 0
        assert metrics["boundary.critical_price_approx.calls"] == 0
        assert metrics["mellin_core.lgamma_complex.points"] > 0
    else:
        assert metrics["mellin_core.lgamma_complex.points"] == 0
        assert metrics["fft_pricer.premium_transforms_per_quote"] == 1.0


def test_refused_basket_market_falls_back_for_the_rest_of_the_market():
    # tau = 0.25 with one vol near 0.15: the default N = 2^9 grid is refused
    spec = workloads._basket_spec(0.0478419, [0.0710058, 0.0187854],
                                  [0.1905524, 0.1571937], -0.443842, 0.25)
    book = workloads.BasketBook(0, workloads.TOY)
    grid_kw = {}
    ops = [workloads.Op("quote", "basket_put", None) for _ in range(2)]
    first = book._market_quote(spec, [46.992917, 49.996478], 2**9, grid_kw,
                               ops[0])
    second = book._market_quote(spec, [53.002194, 58.502693], 2**9, grid_kw,
                                ops[1])
    assert ops[0].refused.startswith("ImagResidualTooLarge")
    assert ops[1].refused == ""
    assert grid_kw == {"delta_target": workloads.FALLBACK_DELTA}
    # the N = 2^10 default-grid prices of the same quotes
    assert abs(first - 3.5885577) < 1e-5
    assert abs(second - 0.0128373) < 1e-5


def test_missing_package_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "amer_book", "--seed", "1",
                     "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""

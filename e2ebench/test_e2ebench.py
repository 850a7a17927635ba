"""Tests of the end-to-end benchmark at quick scale.

    python3 -m pytest -q e2ebench
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from inputs import SHAPES, write_inputs
from spans import Span, Tracer, covered, layer_self_seconds, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _span(i, name, start, end, parent=0, thread=1):
    return Span(i, name, start, end, parent, "t", thread)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span(1, "bench.unit", 0.0, 10.0),
        _span(2, "core.sampler.step", 1.0, 3.0, parent=1),
        _span(3, "core.sampler.step", 2.0, 5.0, parent=1),  # overlaps span 2
        _span(4, "serve.engine.membership", 8.0, 12.0, parent=1),  # ends past its parent
        _span(5, "core.kernels.phi_gradient_sum", 1.5, 2.5, parent=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (4.0 + 2.0))  # [1,5] and [8,10]
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)
    layers = layer_self_seconds(spans)
    assert layers["bench.unit"] == pytest.approx(4.0)
    assert layers["core.sampler"] == pytest.approx(4.0)
    assert layers["core.kernels"] == pytest.approx(1.0)
    assert sum(layers.values()) == pytest.approx(sum(own.values()))
    assert covered([(0, 1), (0.5, 2), (3, 4)], 0.0, 10.0) == pytest.approx(3.0)


def test_wrap_records_nested_spans_and_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.outer
    tracer = Tracer("t")
    tracer.wrap(Layer, "outer", "core.sampler.outer")
    tracer.wrap(Layer, "inner", "core.kernels.inner", on_call=lambda r, *a: tracer.count("calls"))
    assert Layer().outer() == 2
    tracer.restore()
    assert Layer.outer is original
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["core.kernels.inner"].parent == by_name["core.sampler.outer"].id
    assert by_name["core.sampler.outer"].parent == 0
    assert tracer.counters["calls"] == 1
    off = Tracer("t", enabled=False)
    off.wrap(Layer, "outer", "x.y")
    assert Layer.outer is original and not off.spans


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_same_seed_writes_identical_inputs(tmp_path, workload):
    def files(d):
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    write_inputs(workload, 5, 3.0, tmp_path / "a", quick=True)
    write_inputs(workload, 5, 3.0, tmp_path / "b", quick=True)
    write_inputs(workload, 6, 3.0, tmp_path / "c", quick=True)
    a, b, c = files(tmp_path / "a"), files(tmp_path / "b"), files(tmp_path / "c")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["e2ebench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(SHAPES)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    assert all(NAME.match(n) for n in all_names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in metrics:
        assert m["better"] in ("lower", "higher")
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_workload_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "3", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert detail["env"]["kernel_backend"] and detail["env"]["nproc"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _session_members(sid: int) -> list[str]:
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue
        fields = text.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid:  # field 6 of stat: session id
            out.append(text.split(")", 1)[0] + ")")
    return out


def test_no_process_outlives_the_run():
    # detect-mp starts two workers and, through shared memory, the
    # multiprocessing resource tracker; none may be left, not even a zombie.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "detect-mp", "--seed", "2",
         "--seconds", "3", "--trace", "0", "--quick"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    assert proc.wait(timeout=170) == 0
    assert _session_members(proc.pid) == []

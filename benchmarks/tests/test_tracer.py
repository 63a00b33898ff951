"""Tests of the benchmark's span recorder on synthetic spans and a fake package.

Run with: python3 -m pytest benchmarks/tests
"""
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from tracer import Hook, Span, Tracer, install, self_times, summarize, union_length  # noqa: E402


def spans(*rows):
    """Spans from (name, start, end, parent) rows."""
    return [Span(name, start, end, parent=parent, job="j") for name, start, end, parent in rows]


def test_union_merges_overlaps_and_clips_to_parent():
    assert union_length([(1, 4), (3, 6)], 0, 10) == 5
    assert union_length([(1, 2), (3, 4)], 0, 10) == 2
    assert union_length([(-5, 2), (8, 20)], 0, 10) == 4
    assert union_length([(2, 3), (1, 5)], 0, 10) == 4
    assert union_length([], 0, 10) == 0


def test_self_time_subtracts_union_of_direct_children():
    s = spans(
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),   # overlaps b: the union of a and b is [1, 6]
        ("b", 3.0, 6.0, 0),
        ("leaf", 1.5, 2.5, 1),  # nested in a: counts against a, not again against root
        ("c", 8.0, 9.0, 0),
    )
    assert self_times(s) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 1])


def test_summarize_counts_calls_work_and_keys():
    s = spans(("f", 0.0, 2.0, None), ("f", 3.0, 4.0, None), ("g", 0.5, 1.0, 0))
    s[0].count, s[1].count = 7, 5
    s[1].key = "dense"
    stats = summarize(s)
    assert stats["f"].calls == 2
    assert stats["f"].total_s == pytest.approx(3.0)
    assert stats["f"].self_s == pytest.approx(2.5)
    assert stats["f"].count == 12
    assert stats["f[dense]"].calls == 1 and stats["f[dense]"].total_s == pytest.approx(1.0)
    assert stats["g"].calls == 1


def test_summarize_filters_by_job():
    s = spans(("f", 0.0, 1.0, None), ("f", 1.0, 3.0, None))
    s[1].job = "other"
    assert summarize(s, job="other")["f"].total_s == pytest.approx(2.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_wrapper_records_nesting_counts_keys_and_callbacks():
    tracer = Tracer(clock=FakeClock())

    def solve(f, steps, method="dense"):
        return sum(f(i) for i in range(steps))

    traced = tracer.wrap(solve, "m.solve", Hook(count="steps", key="method", callback="m.f"))
    tracer.job = "job1"
    assert traced(lambda i: i, 3) == 3
    outer = tracer.spans[0]
    assert (outer.name, outer.count, outer.key, outer.job) == ("m.solve", 3, "dense", "job1")
    inner = tracer.spans[1:]
    assert [sp.name for sp in inner] == ["m.f"] * 3
    assert all(sp.parent == 0 for sp in inner)
    stats = summarize(tracer.spans)
    # Each clock read advances 1: the outer span lasts 7 ticks, its 3 children 1 tick each.
    assert stats["m.solve"].self_s == pytest.approx(7 - 3)
    assert stats["m.f"].calls == 3


def test_wrapper_closes_span_when_the_call_raises():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "m.boom")()
    assert tracer.spans[0].end > tracer.spans[0].start
    assert tracer._open == []


@pytest.fixture
def fake_package(monkeypatch):
    """pkg.lib defines draw(); pkg.user imports it by name, as clab's modules do."""
    pkg = types.ModuleType("pkg")
    lib = types.ModuleType("pkg.lib")
    user = types.ModuleType("pkg.user")

    def draw(seed, index=1):
        return index

    draw.__module__ = "pkg.lib"
    lib.draw = draw
    lib.__all__ = ["draw", "gone"]
    user.draw = draw
    user.use = lambda: user.draw(0, [1, 2, 3])
    for name, module in (("pkg", pkg), ("pkg.lib", lib), ("pkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return lib, user, draw


def test_install_rebinds_every_imported_copy(fake_package):
    lib, user, draw = fake_package
    tracer = Tracer()
    wrapped = install(tracer, "pkg", ["lib", "missing"], {"lib.draw": Hook(size="index"), "lib.gone": Hook()})
    assert wrapped == {"lib.draw"}  # neither the missing module nor lib.gone
    assert user.use() == [1, 2, 3]
    assert lib.draw is user.draw is not draw
    assert lib.draw(0, 7) == 7  # a scalar index is one draw
    assert summarize(tracer.spans)["lib.draw"].count == 3 + 1


def test_layer_metrics_mark_missing_targets_absent():
    tracer = Tracer()
    values, absent = layers.metrics(tracer, wrapped={"cli.main"})
    assert "cli.main.self_s" not in absent
    assert "qcore.integrate_tdse.steps" in absent
    assert set(values) == {name for name, _unit, _span in layers.LAYER_METRICS}
    assert all(v == 0 for v in values.values())


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import run
    import workloads

    assert [m["name"] for m in spec["per_layer"]] == list(run.layer_units())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(workloads.JOB_NAMES) == sorted(
        job.name for build in workloads.WORKLOADS.values() for job in build(0, HERE.parent)
    )


def test_hash_store_keys_by_job_plan_and_keeps_other_entries(tmp_path):
    import run
    import workloads

    path = tmp_path / "hashes.json"
    seed0, seed1 = workloads.build("montecarlo", 0, HERE.parent), workloads.build("montecarlo", 1, HERE.parent)
    first = run.HashStore(path, seed0)
    first.hashes["compare_demo"] = "a"
    first.save()
    other = run.HashStore(path, seed1)
    assert other.key != first.key and other.hashes == {}
    other.hashes["compare_demo"] = "b"
    other.save()
    assert run.HashStore(path, seed0).hashes == {"compare_demo": "a"}
    assert run.HashStore(path, seed1).hashes == {"compare_demo": "b"}

"""Tests of the benchmark itself: determinism, self-time arithmetic, restore.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import sys
import types

import pytest

import layers
import workloads
from tracing import CALLS, SELF, V_EVALS, Tracer


def small(name):
    """The workload at delta 1.0: a few dozen tours per variant."""
    ctx = workloads.setup(name)
    return dataclasses.replace(ctx, workload=dataclasses.replace(ctx.workload, delta=1.0))


def without_cpu_seconds(path):
    report = json.loads(path.read_text())
    for tour in report["tours"]:
        del tour["cpu_seconds"]
    return report


def test_tours_workload_gives_identical_report_at_1_and_2_workers(tmp_path):
    ctx = small("bench-toy")
    one = workloads.run_op(ctx, 7, 1, tmp_path / "w1")
    two = workloads.run_op(ctx, 7, 2, tmp_path / "w2")
    assert one.signature == two.signature
    for variant in ctx.workload.variants:
        traces = f"traces-{variant}.csv"
        assert (tmp_path / "w1" / traces).read_bytes() == (tmp_path / "w2" / traces).read_bytes()
        report = f"report-{variant}.json"
        assert without_cpu_seconds(tmp_path / "w1" / report) == \
            without_cpu_seconds(tmp_path / "w2" / report)


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.mod: root -> (a -> leaf, b -> leaf), calls through module globals."""
    mod = types.ModuleType("fakepkg.mod")
    exec(
        "def leaf():\n    return 1\n"
        "def a():\n    return leaf()\n"
        "def b():\n    return leaf()\n"
        "def root():\n    return a() + b()\n",
        vars(mod),
    )
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)
    return mod


def test_self_time_arithmetic_on_hand_built_span_tree(fake_package):
    # Clock readings in call order: root [0, 10] covers a [1, 4] and b [5, 9];
    # a covers leaf [2, 3], b covers leaf [6, 8].
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0])
    tracer = Tracer(package="fakepkg", clock=lambda: next(ticks))
    with tracer:
        tracer.op_id = 1
        for name in ("root", "a", "b"):
            tracer.wrap_function("fakepkg.mod", name, name)
        tracer.wrap_function("fakepkg.mod", "leaf", "leaf", record=False, counts_v_eval=True)
        assert fake_package.root() == 2
    totals = tracer.totals[1]
    assert {n: t[SELF] for n, t in totals.items()} == {
        "root": 10.0 - 3.0 - 4.0, "a": 3.0 - 1.0, "b": 4.0 - 2.0, "leaf": 1.0 + 2.0}
    assert {n: t[V_EVALS] for n, t in totals.items()} == {"root": 2, "a": 1, "b": 1, "leaf": 2}
    assert totals["leaf"][CALLS] == 2

    spans = tracer.spans()
    names = [str(spans["names"][i]) for i in spans["name_id"]]
    assert names == ["root", "a", "b"]  # leaf calls are summed, not recorded
    assert spans["parent"].tolist() == [-1, 0, 0]
    assert spans["self"].tolist() == [3.0, 2.0, 2.0]
    assert (spans["end"] - spans["start"]).tolist() == [10.0, 3.0, 4.0]


def package_bindings():
    """Identity snapshot of every attribute of nrst's modules and their classes."""
    snap = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "nrst" or mod_name.startswith("nrst.")):
            continue
        for key, value in vars(mod).items():
            snap[(mod_name, key)] = id(value)
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    snap[(mod_name, key, attr)] = id(member)
    return snap


def test_traced_pass_restores_every_wrapped_attribute(tmp_path):
    ctx = small("bench-toy")
    before = package_bindings()
    tracer = Tracer()
    with tracer:
        tracer.op_id = 1
        layers.install(tracer)
        assert package_bindings() != before
        traced = workloads.run_op(ctx, 7, 1, tmp_path / "traced")
    assert package_bindings() == before

    with pytest.raises(RuntimeError), Tracer() as failing:
        layers.install(failing)
        raise RuntimeError("traced code failed")
    assert package_bindings() == before

    plain = workloads.run_op(ctx, 7, 1, tmp_path / "plain")
    assert plain.signature == traced.signature
    metrics = layers.layer_metrics(tracer, [traced], [plain], [plain], 1)
    assert list(metrics) == list(layers.UNITS)
    assert metrics["st_kernels.run_tour.calls"] == traced.tours
    assert tracer.summed("model.potential")[CALLS] == traced.run_v_evals

"""A model's run program: compiled once per model object, shared by its runs.

Every run of a model reads the program that ``engine._compile`` makes
through ``model.derived``, and builds only its own cells, streams and
counts from it.  These tests run one model object many times, runs alive
at once included, and compare each report with the same run on a copy of
the model whose cache is empty.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from iotdraw import (
    COLLECT, FreshnessPolicy, ModuleRegistry, register_module, run_simulation,
)
from iotdraw import engine
from iotdraw.cli import main
from iotdraw.model import PlatformTier

from conftest import MODELS_DIR
from test_reference_engine import simulated_models

FRESH = str(MODELS_DIR / "freshness_demo.iot")
PADOVA = str(MODELS_DIR / "padova_fw.iot")
SINKS = ("collect", "stream", "none")


def _devices(model):
    return sorted(p.name for p in model.platforms if p.tier is PlatformTier.DEVICE)


def _run(model, case, registry=None):
    """What a run of ``case`` on ``model`` reports, its log text included."""
    seed, max_age, halt_on, overrides, sink = case
    streamed = []
    chosen = {"collect": COLLECT, "stream": streamed.extend, "none": None}[sink]
    report = run_simulation(model, FreshnessPolicy(max_age), halt_on, seed=seed, sink=chosen,
                            distance_overrides=overrides, registry=registry)
    log = report.log_text if sink == "collect" else "".join(streamed)
    return (report.counts, report.residual_mah, report.lifetimes, report.final_tick,
            report.halted_by, log)


def _shared_runs(model, cases):
    """Every case run on ``model`` itself: first all at once, each later case started
    by the sink of the one before it while that run is going, then one by one."""
    nested = {}

    def run_nested(index):
        if index == len(cases):
            return
        seed, max_age, halt_on, overrides, _ = cases[index]
        streamed, started = [], []

        def sink(texts):
            streamed.extend(texts)
            if not started:  # the next case runs while this one is alive
                started.append(True)
                run_nested(index + 1)

        report = run_simulation(model, FreshnessPolicy(max_age), halt_on, seed=seed, sink=sink,
                                distance_overrides=overrides)
        if not started:  # a run with no plans and no modules never calls its sink
            run_nested(index + 1)
        nested[index] = (report.counts, report.residual_mah, report.lifetimes,
                         report.final_tick, report.halted_by, "".join(streamed))

    run_nested(0)
    return [nested[index] for index in range(len(cases))], [_run(model, case) for case in cases]


def _assert_no_leak(model, cases):
    alive, in_turn = _shared_runs(model, cases)
    for case, first, second in zip(cases, alive, in_turn):
        fresh = copy.deepcopy(model)
        assert "_derived" not in vars(fresh)  # its cache is empty
        expected = _run(fresh, case)
        assert second == expected, case
        streamed = _run(copy.deepcopy(model), case[:4] + ("stream",))
        assert first == streamed, case


@st.composite
def cases(draw, model):
    devices = _devices(model)
    distance = st.floats(1.0, 50.0)
    return draw(st.lists(st.tuples(
        st.none() | st.integers(0, 2**64 - 1),
        st.integers(0, 5),
        st.sets(st.sampled_from(devices)),
        st.none() | st.dictionaries(st.sampled_from(devices), distance, max_size=2),
        st.sampled_from(SINKS)), min_size=2, max_size=4))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_runs_of_one_model_object_share_no_state(data):
    model = data.draw(simulated_models())
    _assert_no_leak(model, data.draw(cases(model)))


def test_freshness_demo_runs_share_no_state(freshness_model):
    model = dataclasses.replace(freshness_model)  # its own cache
    sensor = "level_sensor_1"
    _assert_no_leak(model, [
        (None, 2, {sensor}, {sensor: 20.5}, "none"),
        (7, 0, set(), None, "collect"),
        (7, 4, {sensor}, {sensor: 3.0}, "stream"),
        (None, 1, set(), {sensor: 44.0}, "collect"),
        (1, 2, {sensor}, {sensor: 20.5}, "none"),
    ])


def test_padova_runs_share_no_state(padova_model):
    short = dataclasses.replace(padova_model, sim_config=dataclasses.replace(
        padova_model.sim_config, simulation_time=3000))
    sensor = "water_sensor_1"
    _assert_no_leak(short, [
        (3, 1, set(), None, "collect"),
        (None, 0, {sensor}, {sensor: 5.0}, "none"),
        (3, 2, set(), {sensor: 40.0}, "stream"),
        (11, 0, {sensor}, None, "collect"),
    ])


def test_a_hook_that_runs_its_snapshots_model_leaves_the_run_alone(padova_model):
    # The hook runs while the outer run is set up and not yet ticked.
    model = dataclasses.replace(padova_model, sim_config=dataclasses.replace(
        padova_model.sim_config, simulation_time=3000))
    (name,) = [module.module for module in model.sim_config.execution_modules]
    inner = (5, 1, {"water_sensor_1"}, {"water_sensor_1": 30.0}, "collect")
    expected_inner = _run(copy.deepcopy(model), inner)
    seen = []

    def hook(snapshot):
        assert snapshot.model is model
        seen.append(_run(snapshot.model, inner))
        return "hooked"

    outer = (9, 2, set(), None, "collect")
    got = _run(model, outer, registry=register_module(ModuleRegistry(), name, hook))
    assert seen == [expected_inner]
    expected = _run(copy.deepcopy(model), outer,
                    registry=register_module(ModuleRegistry(), name, lambda snapshot: "hooked"))
    assert got == expected


def test_copies_of_a_run_model_start_with_an_empty_cache(freshness_model):
    model = dataclasses.replace(freshness_model)
    run_simulation(model, sink=None)
    assert "_derived" in vars(model)
    for fresh in (copy.deepcopy(model), copy.copy(model), dataclasses.replace(model)):
        assert "_derived" not in vars(fresh)


@pytest.fixture()
def compiled(monkeypatch) -> list:
    """The models ``engine._compile`` is called on, in call order."""
    calls, compile_program = [], engine._compile

    def counting(model):
        calls.append(model)
        return compile_program(model)

    monkeypatch.setattr(engine, "_compile", counting)
    return calls


def test_a_max_age_sweep_compiles_its_model_once(compiled, capsys):
    assert main(["lifetime", FRESH, "--device", "level_sensor_1",
                 "--sweep-max-age", "0,1,2,4", "--rounds", "30"]) == 0
    assert "(30 rounds per value)" in capsys.readouterr().out
    assert len(compiled) == 1


def test_an_interval_sweep_compiles_each_variant_model_once(compiled, capsys):
    assert main(["lifetime", PADOVA, "--device", "water_sensor_1",
                 "--sweep-interval", "2,4,8", "--rounds", "3"]) == 0
    capsys.readouterr()
    assert len(compiled) == 3
    assert len({id(model) for model in compiled}) == 3


def test_a_second_run_of_a_model_compiles_nothing(compiled, freshness_model):
    model = dataclasses.replace(freshness_model)
    first = run_simulation(model, FreshnessPolicy(1), sink=None)
    assert compiled == [model]
    second = run_simulation(model, FreshnessPolicy(1), halt_on={"level_sensor_1"}, seed=4,
                            distance_overrides={"level_sensor_1": 12.0})
    assert compiled == [model]
    assert first.counts and second.counts

"""Discrete-event execution: timing, caching, draining, determinism."""

import pytest

from iotdraw import (
    FreshnessPolicy, ModelError, SampleStream, eval_condition,
    per_request_drain_mah, run_simulation,
)
from iotdraw.engine import EventKind
from iotdraw.model import ConditionExpr, ConstantSource, TraceSource, UniformSource
from iotdraw.rng import SplitMix64, derive_seed

from conftest import alarmed_model, tiny_model


def events_of(report, kind):
    return [e for e in report.events if e.kind == kind.value]


def test_interval_two_fires_five_times_in_eleven_ticks():
    report = run_simulation(tiny_model(sim_time=10, interval=2))
    requests = events_of(report, EventKind.PERIODIC_REQUEST)
    assert [e.tick for e in requests] == [1, 3, 5, 7, 9]
    assert report.counts["PeriodicRequest"] == 5


def test_interval_one_fires_every_tick():
    report = run_simulation(tiny_model(sim_time=4, interval=1))
    requests = events_of(report, EventKind.PERIODIC_REQUEST)
    assert [e.tick for e in requests] == [0, 1, 2, 3, 4]


def test_interval_longer_than_horizon_never_fires():
    report = run_simulation(tiny_model(sim_time=4, interval=6))
    assert report.counts.get("PeriodicRequest", 0) == 0
    assert report.final_tick == 4


def test_trace_samples_cycle():
    report = run_simulation(tiny_model(sim_time=10, interval=2,
                                       data="trace [5, 10, 20, 40]"))
    samples = events_of(report, EventKind.SENSE_SAMPLE)
    values = [float(e.detail.split()[0].split("=")[1]) for e in samples]
    assert values == [5.0, 10.0, 20.0, 40.0, 5.0]


def test_cache_serves_within_max_age():
    model = tiny_model(sim_time=9, interval=1)
    report = run_simulation(model, freshness=FreshnessPolicy(1))
    # senses at even ticks, cache hits at odd ticks
    assert [e.tick for e in events_of(report, EventKind.SENSE_SAMPLE)] == [0, 2, 4, 6, 8]
    assert [e.tick for e in events_of(report, EventKind.CACHE_HIT)] == [1, 3, 5, 7, 9]
    hit = events_of(report, EventKind.CACHE_HIT)[0]
    assert "age=1" in hit.detail


def test_cache_disabled_by_default():
    report = run_simulation(tiny_model(sim_time=9, interval=1))
    assert report.counts.get("CacheHit", 0) == 0
    assert report.counts["SenseSample"] == 10


def test_cache_hits_cost_no_energy():
    model = tiny_model(sim_time=9, interval=1)
    plain = run_simulation(model)
    cached = run_simulation(model, freshness=FreshnessPolicy(1))
    per = per_request_drain_mah(model.platform("probe_1").energy, 10.0)
    assert plain.residual_mah["probe_1"] == pytest.approx(100.0 - 10 * per, rel=1e-12)
    assert cached.residual_mah["probe_1"] == pytest.approx(100.0 - 5 * per, rel=1e-12)


def test_battery_bookkeeping_matches_event_log():
    model = tiny_model(sim_time=20, interval=3)
    report = run_simulation(model)
    senses = report.counts["SenseSample"]
    profile = model.platform("probe_1").energy
    expected = profile.residual_energy_mah
    from iotdraw import drain, initial_battery, sense_energy, transmit_energy
    state = initial_battery(profile)
    for _ in range(senses):
        state = drain(state, profile, sense_energy(profile))
        state = drain(state, profile, transmit_energy(profile, 10.0))
    assert report.residual_mah["probe_1"] == state.residual_mah  # bit-exact


def test_depletion_event_and_lifetime():
    # capacity for exactly three full requests above the 5 mAh cutoff
    per = 1.5000012e-4
    model = tiny_model(sim_time=30, interval=2, capacity=5 + 3.5 * per)
    report = run_simulation(model)
    assert report.lifetimes["probe_1"] == 7  # 4th request, at tick 2*4-1
    depleted = events_of(report, EventKind.DEVICE_DEPLETED)
    assert len(depleted) == 1 and depleted[0].tick == 7
    assert not report.halted_on_depletion


def test_stop_on_depletion_halts_the_run():
    per = 1.5000012e-4
    model = tiny_model(sim_time=30, interval=2, capacity=5 + 3.5 * per)
    report = run_simulation(model, halt_on={"probe_1"})
    assert report.halted_on_depletion
    assert report.final_tick == 7
    assert report.events[-1].kind == "DeviceDepleted"
    with pytest.raises(ModelError, match="hub"):
        run_simulation(model, halt_on={"probe_1", "hub"})


def test_depleted_device_stops_serving():
    per = 1.5000012e-4
    model = tiny_model(sim_time=30, interval=2, capacity=5 + 3.5 * per)
    report = run_simulation(model)
    requests = events_of(report, EventKind.PERIODIC_REQUEST)
    failed = [e for e in requests if "failed:provider-depleted" in e.detail]
    assert [e.tick for e in failed] == [9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29]
    # the battery never drops below where depletion caught it
    assert report.counts["SenseSample"] == 4


def test_fresh_cache_outlives_the_device():
    per = 1.5000012e-4
    model = tiny_model(sim_time=6, interval=1, capacity=5 + 0.5 * per)
    report = run_simulation(model, freshness=FreshnessPolicy(100))
    # one sense depletes the battery; every later request is a cache hit
    assert report.counts["SenseSample"] == 1
    assert report.counts["CacheHit"] == 6
    assert not any("failed" in e.detail
                   for e in events_of(report, EventKind.PERIODIC_REQUEST))


def test_device_without_link_cannot_serve():
    from iotdraw import parse_model
    from conftest import tiny_text
    text = tiny_text(sim_time=4, interval=1)
    start = text.index('link "probe_1"')
    end = text.index("}", text.index("distance_m")) + 1
    model = parse_model(text[:start] + text[end:], "<nolink>")
    assert not isinstance(model, list)
    report = run_simulation(model)
    requests = events_of(report, EventKind.PERIODIC_REQUEST)
    assert all("failed:no-route" in e.detail for e in requests)
    assert report.counts.get("SenseSample", 0) == 0
    assert report.residual_mah["probe_1"] == 100.0


# events ---------------------------------------------------------------------


def test_event_request_piggybacks_on_periodic_samples():
    model = alarmed_model(sim_time=5, interval=1, data="trace [30, 5]",
                          condition="level > 20")
    report = run_simulation(model)
    # samples 30,5,30,5,30,5: the threshold fires on ticks 0,2,4
    assert [e.tick for e in events_of(report, EventKind.EVENT_REQUEST)] == [0, 2, 4]
    actuations = events_of(report, EventKind.ACTUATION)
    assert [e.tick for e in actuations] == [0, 2, 4]
    assert all(e.subject == "bell_1" for e in actuations)
    assert report.residual_mah["bell_1"] == 1000.0  # actuation drains nothing


def test_event_evaluates_cached_values_too():
    model = alarmed_model(sim_time=3, interval=1, data="trace [30]",
                          condition="level > 20")
    report = run_simulation(model, freshness=FreshnessPolicy(10))
    # one sense then cache hits, but the alarm still fires every tick
    assert report.counts["SenseSample"] == 1
    assert [e.tick for e in events_of(report, EventKind.EVENT_REQUEST)] == [0, 1, 2, 3]


def test_event_below_threshold_stays_quiet():
    model = alarmed_model(sim_time=5, interval=1, data="trace [10]",
                          condition="level > 20")
    report = run_simulation(model)
    assert report.counts.get("EventRequest", 0) == 0
    assert report.counts.get("Actuation", 0) == 0


def test_event_detail_names_condition_and_value():
    model = alarmed_model(sim_time=1, interval=1, data="trace [30]",
                          condition="level > 20")
    report = run_simulation(model)
    event = events_of(report, EventKind.EVENT_REQUEST)[0]
    assert "condition=level > 20" in event.detail
    assert "value=30.0" in event.detail


def test_eval_condition_operators():
    assert eval_condition(ConditionExpr("x", ">", 1.0), {"x": 2.0})
    assert eval_condition(ConditionExpr("x", "<=", 2.0), {"x": 2.0})
    assert eval_condition(ConditionExpr("x", "=", 2.0), {"x": 2.0})
    assert eval_condition(ConditionExpr("x", "!=", 1.0), {"x": 2.0})
    assert not eval_condition(ConditionExpr("x", "<", 2.0), {"x": 2.0})
    with pytest.raises(ModelError):
        eval_condition(ConditionExpr("y", ">", 1.0), {"x": 2.0})


# determinism ----------------------------------------------------------------


def test_same_seed_means_identical_runs():
    model = tiny_model(sim_time=50, interval=1, data="uniform(0, 30)")
    first = run_simulation(model, seed=11)
    second = run_simulation(model, seed=11)
    assert first.events == second.events
    assert first.events_csv() == second.events_csv()
    assert first.residual_mah == second.residual_mah


def test_different_seed_changes_samples():
    model = tiny_model(sim_time=50, interval=1, data="uniform(0, 30)")
    first = run_simulation(model, seed=11)
    second = run_simulation(model, seed=12)
    assert first.events != second.events


def test_source_seed_pins_samples_regardless_of_run_seed():
    model = tiny_model(sim_time=20, interval=1, data="uniform(0, 30) seed 42")
    first = run_simulation(model, seed=1)
    second = run_simulation(model, seed=2)
    assert first.events == second.events


def test_seed_defaults_to_model_config():
    model = tiny_model(sim_time=20, interval=1, data="uniform(0, 30)", rng_seed=77)
    implicit = run_simulation(model)
    explicit = run_simulation(model, seed=77)
    assert implicit.events == explicit.events


def test_record_events_off_keeps_counts():
    model = tiny_model(sim_time=10, interval=2)
    quiet = run_simulation(model, record_events=False)
    loud = run_simulation(model)
    assert quiet.events == ()
    assert quiet.counts == loud.counts
    assert quiet.residual_mah == loud.residual_mah


def test_event_log_ticks_never_decrease():
    model = alarmed_model(sim_time=30, interval=2, data="uniform(0, 40)",
                          condition="level > 20")
    report = run_simulation(model, freshness=FreshnessPolicy(1), seed=5)
    ticks = [e.tick for e in report.events]
    assert ticks == sorted(ticks)
    assert all(0 <= t <= 30 for t in ticks)


# sample streams --------------------------------------------------------------


def test_sample_stream_kinds():
    constant = SampleStream(ConstantSource(7.5), fallback_seed=1)
    assert [constant.next() for _ in range(3)] == [7.5, 7.5, 7.5]

    trace = SampleStream(TraceSource((1.0, 2.0)), fallback_seed=1)
    assert [trace.next() for _ in range(5)] == [1.0, 2.0, 1.0, 2.0, 1.0]

    seeded = SampleStream(UniformSource(0.0, 30.0, seed=42), fallback_seed=999)
    reference = SplitMix64(42)
    for _ in range(10):
        value = seeded.next()
        assert value == reference.uniform(0.0, 30.0)
        assert 0.0 <= value <= 30.0

    unseeded = SampleStream(UniformSource(0.0, 30.0), fallback_seed=1234)
    reference = SplitMix64(1234)
    assert unseeded.next() == reference.uniform(0.0, 30.0)


def test_device_streams_are_decorrelated():
    # two devices sharing a run seed must not draw the same values
    a = SampleStream(UniformSource(0.0, 1.0), derive_seed(9, "source", "dev_a"))
    b = SampleStream(UniformSource(0.0, 1.0), derive_seed(9, "source", "dev_b"))
    assert [a.next() for _ in range(5)] != [b.next() for _ in range(5)]


# execution modules -----------------------------------------------------------


def test_declared_module_runs_once_before_tick_zero(padova_model):
    import dataclasses
    short = dataclasses.replace(
        padova_model,
        sim_config=dataclasses.replace(padova_model.sim_config, simulation_time=10))
    report = run_simulation(short, seed=1, record_events=True)
    outputs = report.module_outputs
    assert list(outputs) == ["DeploymentScenarios"]
    lines = outputs["DeploymentScenarios"].splitlines()
    assert lines[0] == "id,assignment,availability,response_time_ms"
    assert len(lines) == 31
    module_events = events_of(report, EventKind.MODULE_OUTPUT)
    assert len(module_events) == 1
    assert module_events[0].tick == 0
    assert report.events[0].kind == "ModuleOutput"


def test_unknown_module_aborts_before_any_tick():
    from iotdraw import parse_model
    from conftest import tiny_text
    text = tiny_text().replace('rng_seed = 0', """rng_seed = 0
  execution_module {
    module = "NoSuchAnalysis"
  }""")
    model = parse_model(text, "<badmod>")
    assert not isinstance(model, list)
    with pytest.raises(ModelError, match="NoSuchAnalysis"):
        run_simulation(model)

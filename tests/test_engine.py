"""Discrete-event execution: timing, caching, draining, determinism."""

import copy
import dataclasses
import math
import pickle
import re
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from iotdraw import (
    COLLECT, FreshnessPolicy, ModelError, SampleStream, SimulationReport, lifetime_closed_form,
    parse_model, per_request_drain_mah, predicted_lifetime, run_simulation, sense_energy,
)
from iotdraw.energy import drain_mah, joules_to_mah
from iotdraw.engine import _LANES, _OPS, EventKind, _cut, _matches, _outputs, _packed
from iotdraw.model import CONDITION_OPS, ConditionExpr, ConstantSource, TraceSource, UniformSource
from iotdraw.rng import SplitMix64, _mix64, derive_seed

from conftest import (
    ALARMED_TEMPLATE, MODELS_DIR, SECOND_SENSOR, alarmed_model, tiny_model, tiny_text,
)

PER = 1.5000012e-4  # mAh of one sense + transmit on the fixture devices


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
    from iotdraw import sense_energy, transmit_energy
    residual = expected
    for _ in range(senses):
        for joules in (sense_energy(profile), transmit_energy(profile, 10.0)):
            residual, _ = drain_mah(residual, profile.depletion_threshold_mah,
                                    joules_to_mah(joules, profile.supply_voltage_v))
    assert report.residual_mah["probe_1"] == residual  # bit-exact


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


def test_halt_names_the_device_that_ended_the_run(two_sensor_file):
    from iotdraw import load_model
    report = run_simulation(load_model(two_sensor_file), halt_on={"level_sensor_1"},
                            sink=None)
    assert report.lifetimes["level_sensor_2"] == 199  # depleted first, halted nothing
    assert report.halted_by == "level_sensor_1" and report.final_tick == 399
    assert "ran ticks 0..399 of 50000 (halted when level_sensor_1 depleted)" in report.to_text()


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


def test_distance_override_needs_a_link(no_link_file):
    from iotdraw import initial_state, load_model
    state = initial_state(load_model(no_link_file), distance_overrides={"level_sensor_1": 10.0})
    assert state.devices["level_sensor_1"].transmit_mah is None


@pytest.mark.parametrize("distance", ["5", math.nan, True], ids=["text", "nan", "bool"])
def test_a_distance_override_is_checked_without_a_link(no_link_file, distance):
    # A device without a link is given no distance, but a bad one is refused all the same.
    from iotdraw import load_model
    with pytest.raises(ModelError, match="^transmit distance must be finite and positive: "):
        run_simulation(load_model(no_link_file), sink=None,
                       distance_overrides={"level_sensor_1": distance})


@pytest.mark.parametrize("seed", [1.5, True, "7"], ids=["float", "bool", "text"])
def test_a_run_seed_must_be_a_whole_number(seed):
    # A float or text seed was accepted when no source drew from it, and a bool always.
    with pytest.raises(ModelError, match=f"^seed must be a whole number, got {re.escape(repr(seed))}$"):
        run_simulation(tiny_model(sim_time=5, interval=1), seed=seed)


def test_a_distance_override_must_name_a_device():
    model = tiny_model(sim_time=5, interval=1)
    for overrides, names in (({"typo": 5.0}, "typo"), ({"hub": 3.0}, "hub"),
                             ({"probe_1": 5.0, "zz": 1.0, "hub": 2.0}, "hub, zz")):
        for sink in (None, COLLECT):
            with pytest.raises(ModelError, match=f"^cannot override the distance of {names}: "
                                                 "not a device$"):
                run_simulation(model, sink=sink, distance_overrides=overrides)


@pytest.mark.parametrize("distance", [math.nan, math.inf, 0.0, -4.0])
def test_a_distance_that_is_not_finite_and_positive_is_refused(distance):
    # Unchecked, a NaN distance drains its device to 0 at tick 0: NaN fails every comparison.
    model = tiny_model(sim_time=5, interval=1)
    refused = "transmit distance must be finite and positive"
    for sink in (None, COLLECT):
        with pytest.raises(ModelError, match=refused):
            run_simulation(model, sink=sink, distance_overrides={"probe_1": distance})
    with pytest.raises(ModelError, match=refused):
        predicted_lifetime(model, "probe_1", distance_m=distance)


def test_a_second_device_sharing_a_name_is_refused_before_any_run(freshness_model):
    # Built in code: the model refuses a repeated name, as the parser does.
    first = freshness_model.platform("level_sensor_1")
    energy = dataclasses.replace(first.energy, battery_capacity_mah=50.0, residual_energy_mah=50.0)
    with pytest.raises(ModelError) as refused:
        dataclasses.replace(freshness_model, platforms=freshness_model.platforms + (
            dataclasses.replace(first, energy=energy),))
    assert [(issue.message, issue.subject, issue.span) for issue in refused.value.issues] == [
        ("duplicate identifier: platform 'level_sensor_1'", "level_sensor_1", None)]


def test_a_negative_max_age_is_refused():
    with pytest.raises(ModelError) as refused:
        FreshnessPolicy(-1)
    assert type(refused.value) is ModelError
    assert str(refused.value) == "max age cannot be negative: -1"


def test_uniform_bounds_out_of_order_are_refused():
    with pytest.raises(ValueError) as refused:
        SplitMix64(1).uniform(2, 1)
    assert type(refused.value) is ValueError
    assert str(refused.value) == "uniform bounds out of order: [2, 1]"


def test_log_text_that_is_not_a_record_is_refused_with_its_offset():
    report = run_simulation(tiny_model(sim_time=2, interval=1))
    broken = dataclasses.replace(report, log_text=report.log_text + "not a record\n")
    with pytest.raises(ValueError) as refused:
        broken.events
    assert type(refused.value) is ValueError
    assert str(refused.value) == f"no event-log record at offset {len(report.log_text)}"


def test_a_report_is_a_frozen_dataclass(monkeypatch):
    from iotdraw import engine
    model = alarmed_model(sim_time=30, interval=2, data="uniform(0, 40)", condition="level > 20")
    report = run_simulation(model, FreshnessPolicy(1), seed=5)
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(SimulationReport)}
    built = SimulationReport(**fields)  # through the dataclass's own __init__
    assert vars(report) == vars(built) and report == built
    assert repr(report) == repr(built)
    assert report == run_simulation(model, FreshnessPolicy(1), seed=5)
    assert report != run_simulation(model, FreshnessPolicy(1), seed=6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.final_tick = 3
    changed = dataclasses.replace(report, final_tick=3)
    assert changed.final_tick == 3 and changed.counts == report.counts
    assert changed.events_csv() == report.events_csv()
    # ``events`` is parsed from the log's text once, on first access.
    parsed = []
    monkeypatch.setattr(engine, "_rows", lambda text: parsed.append(text) or ("row",))
    assert "events" not in vars(report) and not parsed
    assert report.events == report.events == ("row",)
    assert parsed == [report.log_text]
    monkeypatch.undo()
    for copied in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert copied == report and copied is not report
        assert copied.events_csv() == report.events_csv()
    fresh = run_simulation(model, FreshnessPolicy(1), seed=5)
    for copied in (pickle.loads(pickle.dumps(fresh)), copy.deepcopy(fresh)):
        assert copied.events == built.events != ()


def test_eval_condition_operators():
    assert _OPS[">"](2.0, 1.0)
    assert _OPS["<="](2.0, 2.0)
    assert _OPS["="](2.0, 2.0)
    assert _OPS["!="](2.0, 1.0)
    assert not _OPS["<"](2.0, 2.0)
    assert set(_OPS) == set(CONDITION_OPS)
    # a condition on a field the delivered message lacks never fires
    quiet = alarmed_model(condition="depth > -1")
    assert run_simulation(quiet).counts.get("EventRequest", 0) == 0


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
    quiet = run_simulation(model, sink=None)
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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), bounds=st.one_of(
    st.just((0.0, 0.0)),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: (x, x)),
    st.tuples(st.floats(-1e6, 0.0), st.floats(-1e6, 0.0)).map(sorted),
    st.tuples(st.floats(allow_nan=False, allow_infinity=False),
              st.floats(allow_nan=False, allow_infinity=False)).map(sorted)
    .filter(lambda b: math.isfinite(b[1] - b[0]))))
def test_the_inlined_draw_is_rng_uniform_bit_for_bit(seed, bounds):
    from iotdraw.engine import _build_plans, initial_state
    lo, hi = bounds
    model = tiny_model(sim_time=999, interval=1, capacity=1000)
    probe = dataclasses.replace(model.platform("probe_1"), data_source=UniformSource(lo, hi, seed))
    model = dataclasses.replace(model, platforms=tuple(
        probe if p.name == "probe_1" else p for p in model.platforms))
    (fire,) = _build_plans(initial_state(model), [].append)
    assert fire.__qualname__ == "_sense_kernel.<locals>.fire"
    drawn = [e.detail.split()[0] for e in events_of(run_simulation(model), EventKind.SENSE_SAMPLE)]
    reference = SplitMix64(seed)
    assert drawn == [f"value={reference.uniform(lo, hi)!r}" for _ in range(1000)]


@pytest.mark.parametrize("max_age", [0, 1, 3])
def test_a_counts_only_run_without_watchers_moves_the_stream_once_per_sense(max_age, monkeypatch):
    from iotdraw import engine
    from iotdraw.engine import _build_plans, initial_state
    model = tiny_model(sim_time=999, interval=1, capacity=1000, data="uniform(-5, 30) seed 11")
    state = initial_state(model, freshness=FreshnessPolicy(max_age))
    cell = state.devices["probe_1"]
    # No condition reads an output, so only the reading a cache keeps is drawn.
    if not max_age:
        cell.stream.next = None  # the kernel binds the stream's draw when it binds the plan
    (fire,) = _build_plans(state, None)
    assert fire.__qualname__ == "_sense_kernel.<locals>.fire"
    monkeypatch.setattr(engine, "_matches", None)
    reference, drawn, now = SplitMix64(11), [], 0
    # One batch, then several: some start on a fresh cache, and 10..10 draws nothing at max age 3.
    for stop in (0, 9, 10, 57, 999):
        now = fire(now, stop)
        while len(drawn) < state.counts["SenseSample"]:
            drawn.append(reference.uniform(-5.0, 30.0))
        assert cell.stream.rng.state == reference.state, stop
        assert cell.cached_value == (drawn[-1] if max_age else None), stop
    assert now == 1000
    assert len(drawn) == len(range(0, 1000, max_age + 1))


_OUTPUTS = 2**64 - 1  # the largest SplitMix64 output, the uniform draw's divisor


def _read(lo, hi, z):
    return lo + (hi - lo) * (z / _OUTPUTS)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_OUTPUT = st.integers(0, _OUTPUTS)


@st.composite
def cut_cases(draw):
    lo, hi = draw(st.one_of(
        _FINITE.map(lambda x: (x, x)),
        st.tuples(st.floats(-1e6, 0.0), st.floats(-1e6, 0.0)).map(sorted),
        st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)).map(sorted),
        st.tuples(_FINITE, _FINITE).map(sorted).filter(lambda b: math.isfinite(b[1] - b[0]))))
    limit = draw(st.one_of(st.sampled_from([lo, hi]), _OUTPUT.map(lambda z: _read(lo, hi, z)),
                           st.floats(allow_nan=False)))
    return lo, hi, limit, draw(st.lists(_OUTPUT, max_size=8))


@settings(max_examples=300, deadline=None)
@given(case=cut_cases())
def test_a_condition_holds_on_one_range_of_outputs(case):
    lo, hi, limit, outputs = case
    for op in CONDITION_OPS:
        first, end, inside = _cut(lo, hi, op, limit)
        edges = [e + d for e in (first, end) for d in (-1, 0, 1) if 0 <= e + d <= _OUTPUTS]
        for z in {0, 1, _OUTPUTS - 1, _OUTPUTS, *edges, *outputs}:
            assert ((first <= z < end) is inside) == _OPS[op](_read(lo, hi, z), limit), (op, z)


_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment


@st.composite
def output_ranges(draw):
    """The ranges of outputs of all six conditions on one uniform source, and ranges
    that are empty, start at 0, end at 2**64, or hold off the range (``!=``)."""
    lo, hi = sorted(draw(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))))
    limit = draw(st.one_of(st.sampled_from([lo, hi]), st.floats(-60.0, 60.0)))
    # Bounds with every bit in play, as well as the simple ones hypothesis favours.
    bound = st.one_of(st.integers(0, 2**64), st.integers(0, 2**64 - 1).map(_mix64))
    first, end = sorted((draw(bound), draw(bound)))
    return [*(_cut(lo, hi, op, limit) for op in CONDITION_OPS),
            (first, first, True), (0, end, True), (first, 2**64, True), (first, end, False)]


@settings(max_examples=100, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(1, _GAMMA).map(lambda d: 2**64 - d)),
       n=st.sampled_from([0, 1, _LANES - 1, _LANES, _LANES + 1, 3 * _LANES + 7]),
       cuts=output_ranges(), data=st.data())
def test_the_packed_count_matches_a_scalar_loop(seed, n, cuts, data):
    outputs = [_mix64((seed + i * _GAMMA) % 2**64) for i in range(1, n + 1)]
    if outputs:  # ranges that hold one output exactly, or start just past it
        for z in data.draw(st.lists(st.sampled_from(outputs), max_size=3)):
            cuts = [*cuts, (z, z + 1, True), (z + 1, 2**64, True)]
    expected = [sum((first <= z < end) is inside for z in outputs) for first, end, inside in cuts]
    assert _matches(seed, n, cuts) == expected


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
       n=st.sampled_from([0, 1, 255, 256, 1023, 1024, 1025, 2049]))
def test_the_packed_outputs_are_the_generator_outputs_in_order(seed, n):
    reference = SplitMix64(seed)
    expected = [reference.next_u64() for _ in range(n)]
    assert list(_outputs(seed, n)) == expected
    # Chunk by chunk, as _matches reads them: the low 64 bits of each lane in turn.
    chunks = list(_packed(seed, n))
    full, rest = divmod(n, _LANES)
    assert [lanes for lanes, _, _ in chunks] == [_LANES] * full + [rest] * (rest > 0)
    for lanes, ones, _ in chunks:
        assert ones == sum(1 << 128 * i for i in range(lanes))
    assert [z >> 128 * i & 2**64 - 1 for lanes, _, z in chunks for i in range(lanes)] == expected


def test_an_int_beyond_float_range_is_a_model_error():
    # The model keeps every bound and threshold a finite float, so _cut never overflows.
    with pytest.raises(ModelError, match="^condition threshold must be finite, got an integer"):
        ConditionExpr("x", ">", 10**400)
    for lo, hi in ((0, 10**400), (10**400, 10**400), (-10**5000, 0)):
        with pytest.raises(ModelError, match="^uniform "):
            UniformSource(lo, hi)


@pytest.mark.parametrize("op", CONDITION_OPS)
def test_a_non_finite_span_or_threshold_is_refused(op):
    # Either would let a reading or a limit be inf or NaN, outside [lo, hi].
    text = ALARMED_TEMPLATE.format(sim_time=7, interval=1, capacity=100, rng_seed=0,
                                   data="uniform(-1e308, 1e308) seed 42", condition=f"level {op} 0")
    (diagnostic,) = parse_model(text, "<alarmed>")
    assert diagnostic.code == "syntax"
    assert diagnostic.message == ("uniform range [-1e+308, 1e+308] is too wide: "
                                  "hi - lo must be finite")
    with pytest.raises(ModelError, match="is too wide"):
        UniformSource(-1e308, 1e308, 42)
    for threshold in (math.nan, math.inf, -math.inf):
        with pytest.raises(ModelError, match="^condition threshold must be finite, got "):
            ConditionExpr("level", op, threshold)


@pytest.mark.parametrize("halt", [False, True])
@pytest.mark.parametrize("interval", [1, 2, 3])
@pytest.mark.parametrize("max_age", [0, 1, 3])
def test_a_long_watched_run_keeps_the_same_report_without_a_log(max_age, interval, halt):
    # Thousands of senses in one batch, so a counts-only run counts whole chunks of
    # packed outputs; the probe depletes mid-run when it senses every interval-1 tick.
    model = alarmed_model(sim_time=36_000, interval=interval, capacity=5 + 7000 * PER,
                          data="uniform(0, 40)")
    halt_on = {"probe_1"} if halt else ()
    loud = run_simulation(model, FreshnessPolicy(max_age), halt_on)
    quiet = run_simulation(model, FreshnessPolicy(max_age), halt_on, sink=None)
    assert loud.counts["SenseSample"] >= 5000
    assert loud.counts["EventRequest"] > 0
    for attribute in ("counts", "residual_mah", "lifetimes", "final_tick", "halted_by"):
        assert getattr(quiet, attribute) == getattr(loud, attribute), attribute


@pytest.mark.parametrize("max_age", [0, 2])
def test_alarms_on_the_device_that_a_sense_depletes_fail_without_a_log_too(max_age):
    # The watcher actuates the probe it reads, so from the sense that depletes
    # the probe on, its alarms fail and actuate nothing.
    text = ALARMED_TEMPLATE.format(sim_time=400, interval=1, capacity=5 + 100.5 * PER, rng_seed=0,
                                   data="uniform(0, 40)", condition="level > 20")
    model = parse_model(text.replace('provider_interface = "Bell"', 'provider_interface = "Probe"'),
                        "<self-alarmed>")
    loud = run_simulation(model, FreshnessPolicy(max_age))
    quiet = run_simulation(model, FreshnessPolicy(max_age), sink=None)
    assert loud.lifetimes["probe_1"] is not None
    assert loud.counts["Actuation"] < loud.counts["EventRequest"]
    for attribute in ("counts", "residual_mah", "lifetimes", "final_tick"):
        assert getattr(quiet, attribute) == getattr(loud, attribute), attribute


def test_a_linkless_polled_device_is_counted_in_closed_form(padova_model, monkeypatch):
    from iotdraw import engine
    model = dataclasses.replace(padova_model, networks=tuple(
        link for link in padova_model.networks if "water_sensor_1" not in link.endpoints))
    loud = run_simulation(model)
    assert loud.counts == {"ModuleOutput": 1, "PeriodicRequest": 525_600}
    assert all(e.detail.endswith("status=failed:no-route")
               for e in events_of(loud, EventKind.PERIODIC_REQUEST))

    def unfired_kernel(*args):
        def fire(now, stop):
            raise AssertionError(f"the plan fired over ticks {now}..{stop}")
        return fire

    # Counted in closed form: the plan is taken off the schedule at tick 0.
    monkeypatch.setattr(engine, "_generic_kernel", unfired_kernel)
    quiet = run_simulation(model, sink=None)
    assert quiet.to_text() == loud.to_text()
    for attribute in ("counts", "residual_mah", "lifetimes", "final_tick", "halted_by",
                      "module_outputs"):
        assert getattr(quiet, attribute) == getattr(loud, attribute), attribute


def _counting_spent(monkeypatch) -> list:
    """Wrap ``engine._spent`` so that each call appends its arguments to the returned list."""
    from iotdraw import engine
    calls, spent = [], engine._spent
    monkeypatch.setattr(engine, "_spent", lambda *args: calls.append(args) or spent(*args))
    return calls


@pytest.mark.parametrize("max_age", [0, 2])
def test_the_kernel_that_finds_its_plan_spent_hands_it_over(max_age, monkeypatch):
    # Three interval-1 sensors, each on its own device; the second depletes on its 100th sense.
    first = ((MODELS_DIR / "freshness_demo.iot").read_text(encoding="utf-8")
             .replace("simulation_time = 50000", "simulation_time = 2000")
             .replace("capacity_mah = 5.06", "capacity_mah = 100"))
    second = SECOND_SENSOR.replace("capacity_mah = 5.03", f"capacity_mah = {5 + 99.5 * PER!r}")
    third = (SECOND_SENSOR.replace('2"', '3"').replace("2Client", "3Client").replace("_2", "_3")
             .replace("capacity_mah = 5.03", "capacity_mah = 100"))
    model = parse_model(first + second + third, "<three_sensors>")
    assert not isinstance(model, list), [d.render() for d in model]
    calls = _counting_spent(monkeypatch)
    quiet = run_simulation(model, FreshnessPolicy(max_age), sink=None)
    assert quiet.lifetimes == {"level_sensor_1": None, "level_sensor_2": 99 * (max_age + 1),
                               "level_sensor_3": None}
    # Once per plan before tick 0: the sense kernels hand a spent plan over without asking.
    assert len(calls) <= 3
    loud = run_simulation(model, FreshnessPolicy(max_age))
    for attribute in ("counts", "residual_mah", "lifetimes", "final_tick"):
        assert getattr(quiet, attribute) == getattr(loud, attribute), attribute


LINKLESS_SECOND_SENSOR = (SECOND_SENSOR[:SECOND_SENSOR.index('link "level_sensor_2"')]
                          + SECOND_SENSOR[SECOND_SENSOR.index('contract "RequestLevelSensor2"'):
                                          SECOND_SENSOR.index('application "TankWatch2"')])


@pytest.mark.parametrize("components", ['["Monitor", "Monitor2"]', '["Monitor2", "Monitor"]'])
@pytest.mark.parametrize("max_age", [0, 2])
def test_a_plan_spent_from_tick_0_is_counted_up_to_the_halt(max_age, components):
    # Monitor2 polls a device with no link, so its plan is spent from tick 0;
    # the run halts when Monitor's sensor depletes.
    from iotdraw.engine import _build_plans, _handed_over, initial_state
    text = ((MODELS_DIR / "freshness_demo.iot").read_text(encoding="utf-8")
            .replace('components = ["Monitor"]', f"components = {components}")
            + LINKLESS_SECOND_SENSOR)
    model = parse_model(text, "<linkless_second_sensor>")
    assert not isinstance(model, list), [d.render() for d in model]
    assert _handed_over in _build_plans(initial_state(model), None)
    quiet = run_simulation(model, FreshnessPolicy(max_age), {"level_sensor_1"}, sink=None)
    loud = run_simulation(model, FreshnessPolicy(max_age), {"level_sensor_1"})
    for attribute in ("counts", "residual_mah", "lifetimes", "final_tick", "halted_by"):
        assert getattr(quiet, attribute) == getattr(loud, attribute), attribute
    # A plan declared after the halting plan does not fire on the halting tick.
    after = components.index("Monitor2") > components.index('"Monitor"')
    assert quiet.final_tick == 399 * (max_age + 1)
    assert quiet.counts["PeriodicRequest"] == 2 * (quiet.final_tick + 1) - after
    if not max_age:
        assert quiet.counts["PeriodicRequest"] == (799 if after else 800)


RINGER = """
component "Ringer" {
  cpu_demand_cycles = 500
  requires_software = ["jboss"]
  requires = ["Probe"]
  periodic "RingBell" {
    interval_ticks = 3
  }
}
"""


@pytest.mark.parametrize("halt", [False, True])
@pytest.mark.parametrize("components", ['["Watcher", "Ringer"]', '["Ringer", "Watcher"]'])
@pytest.mark.parametrize("max_age", [0, 2])
def test_an_actuating_plan_on_a_device_that_another_plan_depletes(max_age, components, halt,
                                                                   monkeypatch):
    # Ringer's contract only actuates the probe that Watcher's senses deplete, so from
    # then on each of its firings fails and only counts itself.
    text = ALARMED_TEMPLATE.format(sim_time=600, interval=1, capacity=5 + 100.5 * PER, rng_seed=0,
                                   data="uniform(0, 40)", condition="level > 20")
    text = (text.replace('provider_interface = "Bell"', 'provider_interface = "Probe"')
            .replace('components = ["Watcher"]', f"components = {components}") + RINGER)
    model = parse_model(text, "<ringer>")
    assert not isinstance(model, list), [d.render() for d in model]
    halt_on = {"probe_1"} if halt else ()
    calls = _counting_spent(monkeypatch)
    quiet = run_simulation(model, FreshnessPolicy(max_age), halt_on, sink=None)
    lifetime = quiet.lifetimes["probe_1"]
    assert lifetime == 100 * (max_age + 1)
    # Once per plan, and once per firing of Ringer's up to the first that finds it spent.
    assert len(calls) <= 2 + lifetime // 3 + 2
    loud = run_simulation(model, FreshnessPolicy(max_age), halt_on)
    assert any(e.subject == "Ringer" and e.detail.endswith("provider-depleted")
               for e in loud.events) is not halt
    for attribute in ("counts", "residual_mah", "lifetimes", "final_tick", "halted_by"):
        assert getattr(quiet, attribute) == getattr(loud, attribute), attribute



# A second application whose plan senses bell_1 through a port of its own.
BELL_LEVEL_PORT = """  service "BellLevelPort" {
    interface = "BellLevel"
    protocol = "CoAP"
  }
  service "BellPort" {"""
DRAINER = """
contract "RequestBellLevel" {{
  provider_interface = "BellLevel"
  consumer_interface = "BellLevelClient"
  task "ReadBell" = sense
  message "BellLevelData" {{
    field "charge" = number
  }}
}}

component "Drainer" {{
  cpu_demand_cycles = 500
  requires_software = ["jboss"]
  requires = ["BellLevel"]
  periodic "ReadBell" {{
    interval_ticks = 2
  }}
}}

application "{name}" {{
  region = (1.0, 2.0)
  components = ["Drainer"]
}}
"""


@pytest.mark.parametrize("drain_app", ["DrainApp", "AaDrainApp"])  # declared after or before
@pytest.mark.parametrize("max_age", [0, 1, 3])
def test_a_watcher_on_a_device_that_another_sense_plan_depletes(max_age, drain_app):
    # Watcher's alarms ring bell_1, which Drainer's senses deplete: from then on
    # they fail and actuate nothing, in a logged run and a counts-only one alike.
    from iotdraw.engine import _build_plans, initial_state
    text = ALARMED_TEMPLATE.format(sim_time=1500, interval=1, capacity=2000, rng_seed=0,
                                   data="uniform(0, 40)", condition="level > 20")
    text = (text.replace("capacity_mah = 1000", f"capacity_mah = {5 + 150.5 * PER!r}")
            .replace('  service "BellPort" {', BELL_LEVEL_PORT) + DRAINER.format(name=drain_app))
    model = parse_model(text, "<drained-bell>")
    assert not isinstance(model, list), [d.render() for d in model]
    for log in ([].append, None):
        assert {fire.__qualname__.split(".")[0]
                for fire in _build_plans(initial_state(model), log)} == {"_sense_kernel"}
    loud = run_simulation(model, FreshnessPolicy(max_age))
    quiet = run_simulation(model, FreshnessPolicy(max_age), sink=None)
    bell = loud.lifetimes["bell_1"]
    assert bell is not None and loud.lifetimes["probe_1"] is None
    alarms = events_of(loud, EventKind.EVENT_REQUEST)
    assert any(e.tick < bell for e in events_of(loud, EventKind.ACTUATION))
    assert any(e.tick > bell and e.detail.endswith("status=failed:provider-depleted")
               for e in alarms)
    assert 0 < loud.counts["Actuation"] < len(alarms)
    for attribute in ("counts", "residual_mah", "lifetimes", "final_tick"):
        assert getattr(quiet, attribute) == getattr(loud, attribute), attribute


@pytest.mark.parametrize("interval", [1, 2])
@pytest.mark.parametrize("max_age", [0, 3])
def test_a_sense_cost_on_a_tie_drains_alike_without_a_log(max_age, interval):
    # At 2.5 V, 49 mA for 62 ms, a sense costs an odd number of half grid steps of
    # [1, 2), so each sense in that binade rounds half to even, and which way
    # depends on the residual.  The battery then drains through four more binades.
    sense_every = (max_age // interval + 1) * interval  # ticks
    text = (tiny_text(sim_time=1200 * sense_every, interval=interval, capacity=1.9,
                      data="uniform(0, 30)")
            .replace("supply_voltage_v = 3", "supply_voltage_v = 2.5")
            .replace("depletion_threshold_mah = 5", "depletion_threshold_mah = 0.1")
            .replace("current_ma = 25", "current_ma = 49")
            .replace("duration_ms = 10", "duration_ms = 62"))
    model = parse_model(text, "<tie>")
    assert not isinstance(model, list), [d.render() for d in model]
    profile = model.platform("probe_1").energy
    half_steps = math.ldexp(joules_to_mah(sense_energy(profile), 2.5), 53)
    assert half_steps == int(half_steps) and int(half_steps) % 2 == 1
    loud = run_simulation(model, FreshnessPolicy(max_age), sink=COLLECT)
    quiet = run_simulation(model, FreshnessPolicy(max_age), sink=None)
    assert loud.lifetimes["probe_1"] is not None and loud.residual_mah["probe_1"] < 0.125
    assert ({name: residual.hex() for name, residual in quiet.residual_mah.items()}
            == {name: residual.hex() for name, residual in loud.residual_mah.items()})
    assert quiet.lifetimes == loud.lifetimes
    assert quiet.counts == loud.counts

# execution modules -----------------------------------------------------------


def test_declared_module_runs_once_before_tick_zero(padova_model):
    import dataclasses
    short = dataclasses.replace(
        padova_model,
        sim_config=dataclasses.replace(padova_model.sim_config, simulation_time=10))
    report = run_simulation(short, seed=1, sink=COLLECT)
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


# properties -------------------------------------------------------------------


def two_sensor_model(sim_time, intervals, capacities):
    """freshness_demo.iot plus SECOND_SENSOR, with both request intervals and batteries set."""
    first = (MODELS_DIR / "freshness_demo.iot").read_text(encoding="utf-8")
    first = (first.replace("simulation_time = 50000", f"simulation_time = {sim_time}")
             .replace("interval_ticks = 1", f"interval_ticks = {intervals[0]}")
             .replace("capacity_mah = 5.06", f"capacity_mah = {capacities[0]!r}"))
    second = (SECOND_SENSOR.replace("interval_ticks = 1", f"interval_ticks = {intervals[1]}")
              .replace("capacity_mah = 5.03", f"capacity_mah = {capacities[1]!r}"))
    model = parse_model(first + second, "<two_sensors>")
    assert not isinstance(model, list), [d.render() for d in model]
    return model


@st.composite
def engine_runs(draw):
    """A small model whose batteries may deplete mid-run, with a freshness window and halt set."""
    family = draw(st.sampled_from(["tiny", "alarmed", "two_sensors"]))
    sim_time = draw(st.integers(min_value=0, max_value=300))
    interval = st.integers(min_value=1, max_value=7)
    capacity = st.integers(min_value=1, max_value=6000).map(lambda n: 5 + n / 100 * PER)
    if family == "tiny":
        model = tiny_model(sim_time=sim_time, interval=draw(interval), capacity=draw(capacity),
                           data=draw(st.sampled_from(["trace [5, 10, 20, 40]", "uniform(0, 30)",
                                                      "constant(25)"])))
    elif family == "alarmed":
        model = alarmed_model(sim_time=sim_time, interval=draw(interval),
                              capacity=draw(capacity),
                              data=draw(st.sampled_from(["trace [30, 5, 25]", "uniform(0, 40)"])))
    else:
        model = two_sensor_model(sim_time, (draw(interval), draw(interval)),
                                 (draw(capacity), draw(capacity)))
    devices = sorted(p.name for p in model.platforms if p.tier.value == "device")
    halt_on = draw(st.sets(st.sampled_from(devices)))
    return model, FreshnessPolicy(draw(st.integers(min_value=0, max_value=6))), halt_on


@settings(max_examples=80, deadline=None)
@given(run=engine_runs())
def test_counts_only_runs_match_recording_runs(run):
    model, freshness, halt_on = run
    loud = run_simulation(model, freshness, halt_on)
    quiet = run_simulation(model, freshness, halt_on, sink=None)
    for attribute in ("counts", "residual_mah", "lifetimes", "final_tick",
                      "halted_on_depletion", "halted_by"):
        assert getattr(quiet, attribute) == getattr(loud, attribute), attribute
    assert len(loud.events) == sum(loud.counts.values())
    # Each periodic request fires at k-1, 2k-1, ...; a halt may cut the last tick short.
    fired = defaultdict(list)
    for event in events_of(loud, EventKind.PERIODIC_REQUEST):
        fired[event.subject].append(event.tick)
    for component in model.all_components():
        if component.periodic_request is None:
            continue
        k = component.periodic_request.interval_ticks
        expected = list(range(k - 1, loud.final_tick + 1, k))
        if fired[component.name] != expected:
            assert loud.halted_on_depletion and expected[-1] == loud.final_tick
            assert fired[component.name] == expected[:-1]


@settings(max_examples=60, deadline=None)
@given(voltage=st.integers(min_value=15, max_value=50), current=st.integers(1, 50),
       duration=st.integers(1, 50), packet=st.integers(1, 16), e_elec=st.integers(10, 100),
       e_amp=st.integers(10, 200), exponent=st.integers(2, 4),
       threshold=st.integers(0, 1000), requests=st.floats(0.5, 300.0),
       interval=st.integers(1, 9))
def test_simulated_lifetime_within_one_interval_of_closed_form(
        voltage, current, duration, packet, e_elec, e_amp, exponent, threshold, requests,
        interval):
    def model(capacity):
        text = (tiny_text(sim_time=3000, interval=interval, capacity=capacity)
                .replace("supply_voltage_v = 3", f"supply_voltage_v = {voltage / 10}")
                .replace("depletion_threshold_mah = 5", f"depletion_threshold_mah = {threshold / 100}")
                .replace("current_ma = 25", f"current_ma = {current}")
                .replace("duration_ms = 10", f"duration_ms = {duration}")
                .replace("packet_kb = 2", f"packet_kb = {packet / 4}")
                .replace("e_elec_nj_per_bit = 50", f"e_elec_nj_per_bit = {e_elec}")
                .replace("e_amp_pj_per_bit_m = 100", f"e_amp_pj_per_bit_m = {e_amp}")
                .replace("loss_exponent = 2", f"loss_exponent = {exponent}"))
        parsed = parse_model(text, "<profile>")
        assert not isinstance(parsed, list), [d.render() for d in parsed]
        return parsed

    probe = model(threshold / 100 + 1).platform("probe_1").energy
    per = per_request_drain_mah(probe, 10.0)
    drawn = model(repr(threshold / 100 + requests * per))
    profile = drawn.platform("probe_1").energy
    predicted = lifetime_closed_form(profile, 10.0, interval)
    report = run_simulation(drawn, halt_on={"probe_1"}, sink=None)
    # In exact arithmetic the run depletes on request ceil(budget / per),
    # at tick interval * that - 1: one tick before the closed form when the
    # budget is a whole number of requests, interval - 1 ticks after it
    # otherwise.  Near a whole number, the closed form's division and the
    # run's one-cost-at-a-time subtraction may each round to the other side,
    # which puts them one more request apart.
    ratio = (profile.residual_energy_mah - profile.depletion_threshold_mah) / per
    slack = interval if abs(ratio - round(ratio)) < 1e-4 else 0
    assert -1 <= report.lifetimes["probe_1"] - predicted <= interval - 1 + slack


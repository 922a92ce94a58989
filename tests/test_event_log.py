"""The event log's CSV text: how a record is quoted, what the sink writes, and how
many records a run hands a streaming sink at once."""

import csv
import dataclasses
import functools
import io

from hypothesis import given, settings, strategies as st

from iotdraw import (
    FreshnessPolicy, csv_event_sink, default_registry, parse_model, register_module,
    run_simulation,
)
from iotdraw.engine import _BATCH_FIRINGS, _line

from conftest import MODELS_DIR, SECOND_SENSOR, tiny_text

# Fields built from pieces that need quoting, pieces that do not, and nothing.
fields = st.lists(st.sampled_from(["", ",", '"', "\r", "\n", "\r\n", "a", "x=1", " "]),
                  max_size=4).map("".join)
plain_fields = st.text(st.characters(exclude_characters=',"\r\n'), max_size=12)
rows = st.tuples(st.integers(-10, 10**7), fields, fields, fields)
plain_rows = st.tuples(st.integers(0, 10**7), plain_fields, plain_fields, plain_fields)
batches = st.lists(st.lists(rows | plain_rows, max_size=8), max_size=6)
HEADER = ("tick", "kind", "subject", "detail")


def _record(row):
    """One record as ``csv.writer`` writes it with a ``\\r\\n`` terminator, which
    quotes every field holding ``\\r`` or ``\\n``, ended by ``\\n`` instead."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(row)
    return buffer.getvalue()[:-2] + "\n"


def _written_by_csv_writer(batches):
    return "".join(_record(row) for row in [HEADER, *(row for batch in batches for row in batch)])


def _written_by_sink(texts):
    buffer = io.StringIO()
    sink = csv_event_sink(buffer)
    for batch in texts:
        sink(batch)
    return buffer.getvalue()


@functools.cache
def _empty_report():
    text = (MODELS_DIR / "freshness_demo.iot").read_text(encoding="utf-8")
    return run_simulation(parse_model(text.replace("simulation_time = 50000", "simulation_time = 0")))


def _rendered(batches):
    return [[_line(*row) for row in batch] for batch in batches]


@settings(max_examples=150, deadline=None)
@given(batches=batches)
def test_the_sink_writes_what_csv_writer_writes(batches):
    assert _written_by_sink(_rendered(batches)) == _written_by_csv_writer(batches)


@settings(max_examples=200, deadline=None)
@given(batch=st.lists(rows | plain_rows, max_size=12))
def test_one_batch_or_a_batch_per_row_write_the_same(batch):
    expected = _written_by_csv_writer([batch])
    (lines,) = _rendered([batch])
    assert _written_by_sink([lines]) == expected
    assert _written_by_sink([["".join(lines)]]) == expected
    assert _written_by_sink([[line] for line in lines]) == expected


@settings(max_examples=150, deadline=None)
@given(batch=st.lists(rows | plain_rows, max_size=12))
def test_the_rendered_text_reads_back_as_the_rows(batch):
    text = "".join(_line(*row) for row in batch)
    parsed = list(csv.reader(io.StringIO(text, newline="")))
    assert parsed == [[str(tick), kind, subject, detail] for tick, kind, subject, detail in batch]
    assert dataclasses.replace(_empty_report(), log_text=text).events == tuple(batch)


def test_a_batch_with_one_row_that_needs_quoting_is_quoted_like_csv_writer():
    batch = [(0, "ModuleOutput", "DeploymentScenarios", "line one\nline two, with a comma"),
             (1, "PeriodicRequest", "Monitor", "task=read provider=probe"),
             (1, "SenseSample", "probe", 'value="quoted"'),
             (2, "SenseSample", "pro\rbe", "value=1.0")]
    assert _written_by_sink(_rendered([batch])) == _written_by_csv_writer([batch])
    assert _written_by_sink(_rendered([batch[1:]])) == _written_by_csv_writer([batch[1:]])


def test_names_with_a_comma_or_a_carriage_return_read_back_whole():
    text = (MODELS_DIR / "freshness_demo.iot").read_text(encoding="utf-8")
    model = parse_model(text.replace('"level_sensor_1"', '"level\rsensor_1"')
                        .replace('"Monitor"', '"Monitor, main"'))
    for max_age in (0, 1):
        report = run_simulation(model, FreshnessPolicy(max_age))
        records = list(csv.reader(io.StringIO(report.events_csv(), newline="")))
        assert records == [list(HEADER)] + [[str(event.tick), *event[1:]] for event in report.events]
        assert len(report.events) == sum(report.counts.values())
        assert {event.subject for event in report.events} == {"level\rsensor_1", "Monitor, main"}


def test_a_module_output_longer_than_the_csv_field_limit_reads_back():
    output = 'scenario, "quoted"\n' * 12000  # 240,000 characters, past csv's default limit
    text = tiny_text(sim_time=10, interval=2).replace("rng_seed = 0", """rng_seed = 0
  execution_module {
    module = "Long"
  }""")
    registry = register_module(default_registry(), "Long", lambda snapshot: output)
    report = run_simulation(parse_model(text, "<long>"), registry=registry)
    assert report.events[0] == (0, "ModuleOutput", "Long", output)
    limit = csv.field_size_limit(len(output) + 2)
    try:
        records = list(csv.reader(io.StringIO(report.events_csv(), newline="")))
    finally:
        csv.field_size_limit(limit)
    assert records == [list(HEADER)] + [[str(event.tick), *event[1:]] for event in report.events]
    assert len(report.events) == sum(report.counts.values())


def test_a_streaming_sink_gets_at_most_the_cap_of_firings_at_once():
    text = (MODELS_DIR / "padova_fw.iot").read_text(encoding="utf-8")
    model = parse_model(text.replace("simulation_time = 1051200", "simulation_time = 20000"))
    handed = []
    report = run_simulation(model, sink=lambda texts: handed.append("".join(texts)))
    assert "".join(handed) == run_simulation(model).log_text
    records = [list(csv.reader(io.StringIO(batch, newline=""))) for batch in handed]
    assert records[0] == [record for record in records[0] if record[1] == "ModuleOutput"]
    requests = [sum(record[1] == "PeriodicRequest" for record in batch) for batch in records[1:]]
    assert max(requests) == _BATCH_FIRINGS  # the cap is reached, and never passed
    assert sum(requests) == report.counts["PeriodicRequest"] == 10000
    # A firing logs its request, a sample, and at most an alarm and its actuation.
    assert max(len(batch) for batch in records) <= 4 * _BATCH_FIRINGS


def test_a_streaming_sink_gets_at_most_the_cap_of_firings_of_one_plan_among_two():
    # Two plans on their own devices, at intervals 1 and 700: the first plan's batches
    # between the second's firings reach the cap.  The first device depletes on the way,
    # and with a cache some firings are hits.  Each hand-over is one batch of one plan.
    text = (MODELS_DIR / "freshness_demo.iot").read_text(encoding="utf-8") + SECOND_SENSOR.replace(
        "interval_ticks = 1", "interval_ticks = 700")
    model = parse_model(text.replace("simulation_time = 50000", "simulation_time = 2000"))
    for max_age in (0, 2):
        handed = []
        report = run_simulation(model, FreshnessPolicy(max_age),
                                sink=lambda texts: handed.append("".join(texts)))
        assert "".join(handed) == run_simulation(model, FreshnessPolicy(max_age)).log_text
        assert report.lifetimes["level_sensor_1"] is not None
        records = [list(csv.reader(io.StringIO(batch, newline=""))) for batch in handed]
        plans = [{record[2] for record in batch if record[1] == "PeriodicRequest"}
                 for batch in records]
        assert max(len(names) for names in plans) == 1 < len(set().union(*plans))
        requests = [sum(record[1] == "PeriodicRequest" for record in batch) for batch in records]
        assert max(requests) == _BATCH_FIRINGS  # the cap is reached, and never passed
        assert sum(requests) == report.counts["PeriodicRequest"]


MODULE = """rng_seed = 0
  execution_module {
    module = "DeploymentScenarios"
  }"""
PERIODIC = """  periodic "ReadProbe" {
    interval_ticks = 5
  }
"""


def test_a_run_in_which_no_plan_fires_hands_the_sink_its_module_rows_once():
    # The only plan first fires at tick 4, past the horizon of 2; without a periodic
    # request there is no plan at all.  Either way the run hands the sink one list,
    # after its scheduler loop, holding the tick-0 module rows alone.
    text = tiny_text(sim_time=2, interval=5).replace("rng_seed = 0", MODULE)
    assert PERIODIC in text
    for model in (parse_model(text), parse_model(text.replace(PERIODIC, ""))):
        buffer, handed = io.StringIO(), []
        run_simulation(model, sink=csv_event_sink(buffer))
        assert buffer.getvalue() == run_simulation(model).events_csv()
        report = run_simulation(model, sink=lambda texts: handed.append("".join(texts)))
        assert report.counts == {"ModuleOutput": 1}
        assert len(handed) == 1
        assert [record[1] for record in csv.reader(io.StringIO(handed[0], newline=""))] == [
            "ModuleOutput"]

"""The event-log sink: what it writes, and how many rows a run hands it at once."""

import csv
import io

from hypothesis import given, settings, strategies as st

from iotdraw import csv_event_sink, parse_model, run_simulation
from iotdraw.engine import _BATCH_FIRINGS

from conftest import MODELS_DIR

# Fields built from pieces that need quoting, pieces that do not, and nothing.
fields = st.lists(st.sampled_from(["", ",", '"', "\r", "\n", "\r\n", "a", "x=1", " "]),
                  max_size=4).map("".join)
plain_fields = st.text(st.characters(exclude_characters=',"\r\n'), max_size=12)
rows = st.tuples(st.integers(-10, 10**7), fields, fields, fields)
plain_rows = st.tuples(st.integers(0, 10**7), plain_fields, plain_fields, plain_fields)
batches = st.lists(st.lists(rows | plain_rows, max_size=8), max_size=6)


def _written_by_csv_writer(batches):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("tick", "kind", "subject", "detail"))
    for batch in batches:
        writer.writerows(batch)
    return buffer.getvalue()


def _written_by_sink(batches):
    buffer = io.StringIO()
    sink = csv_event_sink(buffer)
    for batch in batches:
        sink(batch)
    return buffer.getvalue()


@settings(max_examples=150, deadline=None)
@given(batches=batches)
def test_the_sink_writes_what_csv_writer_writes(batches):
    assert _written_by_sink(batches) == _written_by_csv_writer(batches)


@settings(max_examples=200, deadline=None)
@given(batch=st.lists(rows | plain_rows, max_size=12))
def test_one_batch_or_a_batch_per_row_write_the_same(batch):
    expected = _written_by_csv_writer([batch])
    assert _written_by_sink([batch]) == expected
    assert _written_by_sink([[row] for row in batch]) == expected


def test_a_batch_with_one_row_that_needs_quoting_is_quoted_like_csv_writer():
    batch = [(0, "ModuleOutput", "DeploymentScenarios", "line one\nline two, with a comma"),
             (1, "PeriodicRequest", "Monitor", "task=read provider=probe"),
             (1, "SenseSample", "probe", 'value="quoted"')]
    assert _written_by_sink([batch]) == _written_by_csv_writer([batch])
    assert _written_by_sink([batch[1:]]) == _written_by_csv_writer([batch[1:]])


def test_a_streaming_sink_gets_at_most_the_cap_of_firings_at_once():
    text = (MODELS_DIR / "padova_fw.iot").read_text(encoding="utf-8")
    model = parse_model(text.replace("simulation_time = 1051200", "simulation_time = 20000"))
    handed = []
    report = run_simulation(model, sink=lambda rows: handed.append(list(rows)))
    assert [row for batch in handed for row in batch] == list(run_simulation(model).events)
    assert handed[0] == [row for row in handed[0] if row.kind == "ModuleOutput"]
    requests = [sum(row.kind == "PeriodicRequest" for row in batch) for batch in handed[1:]]
    assert max(requests) == _BATCH_FIRINGS  # the cap is reached, and never passed
    assert sum(requests) == report.counts["PeriodicRequest"] == 10000
    # A firing logs its request, a sample, and at most an alarm and its actuation.
    assert max(len(batch) for batch in handed) <= 4 * _BATCH_FIRINGS

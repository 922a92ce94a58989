"""Command-line behavior: commands, seeds, files, exit codes."""

import contextlib
import csv
import io
import os
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import iotdraw
from iotdraw import (
    SystemSnapshot, default_registry, enumerate_deployments, evaluate_scenarios,
    rank_scenarios, validate_model,
)
from iotdraw.cli import main
from iotdraw.model import (
    Application, Component, GeoLocation, IoTSystemModel, MessageType, NetworkLink, Platform,
    PlatformTier, ServiceContract, ServicePort, Task, TaskKind,
)

from conftest import MODELS_DIR, tiny_text

PADOVA = str(MODELS_DIR / "padova_fw.iot")
FRESH = str(MODELS_DIR / "freshness_demo.iot")


@pytest.fixture()
def unseeded_model(tmp_path):
    """A model whose samples depend on the run seed."""
    target = tmp_path / "unseeded.iot"
    target.write_text(tiny_text(sim_time=30, interval=1, data="uniform(0, 30)"),
                      encoding="utf-8")
    return str(target)


def test_validate_ok(capsys):
    assert main(["validate", PADOVA]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_validate_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.iot"
    bad.write_text(tiny_text().replace('periodic "ReadProbe"', 'periodic "Bogus"'),
                   encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "unknown-task" in out


def test_validate_refuses_a_uniform_range_too_wide_for_a_float(tmp_path, capsys):
    wide = tmp_path / "wide.iot"
    text = Path(FRESH).read_text(encoding="utf-8")
    wide.write_text(text.replace("uniform(0, 30) seed 42", "uniform(-1e308, 1e308) seed 42"),
                    encoding="utf-8")
    assert main(["validate", str(wide)]) == 1
    assert "uniform range [-1e+308, 1e+308] is too wide" in capsys.readouterr().err


def test_validate_csv_output(tmp_path, capsys):
    bad = tmp_path / "bad.iot"
    bad.write_text(tiny_text().replace('periodic "ReadProbe"', 'periodic "Bogus"'),
                   encoding="utf-8")
    report_file = tmp_path / "findings.csv"
    assert main(["validate", str(bad), "--csv", str(report_file)]) == 1
    lines = report_file.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "severity,code,message,file,line"
    assert len(lines) >= 2


def test_parse_failure_exits_one(tmp_path, capsys):
    broken = tmp_path / "broken.iot"
    broken.write_text('system "x" { nonsense = 1 }', encoding="utf-8")
    assert main(["validate", str(broken)]) == 1
    err = capsys.readouterr().err
    assert "nonsense" in err


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.iot")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_a_model_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.iot"
    bad.write_bytes(b'system "a\xff" {}')
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"cannot read {bad}:" in err and "Traceback" not in err


def test_an_integer_too_long_to_read_exits_one(tmp_path, capsys):
    model = tmp_path / "long.iot"
    model.write_text(tiny_text(rng_seed="7" * 5000), encoding="utf-8")
    assert main(["validate", str(model)]) == 1
    assert "[syntax] rng_seed has too many digits" in capsys.readouterr().err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["rank", PADOVA])  # --by is required
    assert exit_info.value.code == 2


@pytest.mark.parametrize("argv, option", [
    (["lifetime", FRESH, "--device", "level_sensor_1", "--sweep-max-age", "0,1",
      "--rounds", "-3"], "--rounds"),
    (["lifetime", FRESH, "--device", "level_sensor_1", "--rounds", "0"], "--rounds"),
    (["simulate", FRESH, "--max-age", "-1"], "--max-age"),
    (["simulate", FRESH, "--max-age", "soon"], "--max-age"),
    (["lifetime", FRESH, "--device", "level_sensor_1", "--sweep-interval", "0"],
     "--sweep-interval"),
    (["lifetime", FRESH, "--device", "level_sensor_1", "--sweep-interval", "2,0,4"],
     "--sweep-interval"),
    (["lifetime", FRESH, "--device", "level_sensor_1", "--sweep-max-age=-1"], "--sweep-max-age"),
    (["lifetime", FRESH, "--device", "level_sensor_1", "--sweep-max-age", "1,,2"],
     "--sweep-max-age"),
    (["lifetime", FRESH, "--device", "level_sensor_1", "--sweep-max-age", "1,"],
     "--sweep-max-age"),
    (["lifetime", FRESH, "--device", "level_sensor_1", "--sweep-max-age", "1,1"],
     "--sweep-max-age"),
    (["lifetime", FRESH, "--device", "level_sensor_1", "--sweep-interval", "2,3,2"],
     "--sweep-interval"),
])
def test_out_of_range_options_exit_two(argv, option, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert option in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    source_root = str(Path(iotdraw.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "iotdraw", "validate", PADOVA],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.rstrip().endswith("ok")


def test_simulate_prints_summary(capsys):
    assert main(["simulate", FRESH, "--max-age", "1", "--stop-on-depletion"]) == 0
    out = capsys.readouterr().out
    assert "(halted when level_sensor_1 depleted)" in out
    assert "depleted at tick 798" in out


def test_simulate_writes_event_log(tmp_path, capsys):
    log = tmp_path / "events.csv"
    assert main(["simulate", FRESH, "--stop-on-depletion", "--log", str(log)]) == 0
    lines = log.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "tick,kind,subject,detail"
    assert any("SenseSample" in line for line in lines)


def test_simulate_log_replaces_the_file_only_when_the_run_succeeds(tmp_path, capsys):
    log = tmp_path / "events.csv"
    log.write_text("old log\n", encoding="utf-8")
    assert main(["simulate", FRESH, "--stop-on-depletion", "--log", str(log)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {log}\n")
    assert log.read_text(encoding="utf-8").startswith("tick,kind,subject,detail\n")
    assert os.listdir(tmp_path) == ["events.csv"]  # no temporary file left behind


def test_a_replaced_log_keeps_its_permissions(tmp_path, capsys):
    log = tmp_path / "events.csv"
    log.write_text("old log\n", encoding="utf-8")
    log.chmod(0o600)
    assert main(["simulate", FRESH, "--stop-on-depletion", "--log", str(log)]) == 0
    assert stat.S_IMODE(log.stat().st_mode) == 0o600
    assert log.read_text(encoding="utf-8").startswith("tick,kind,subject,detail\n")
    fresh = tmp_path / "fresh.csv"
    umask = os.umask(0o022)
    try:
        assert main(["simulate", FRESH, "--stop-on-depletion", "--log", str(fresh)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o644  # a new file: 0o666 less the umask


def test_failed_run_leaves_the_old_log_alone(tmp_path, capsys):
    model = tmp_path / "badmod.iot"
    model.write_text(tiny_text().replace("rng_seed = 0", """rng_seed = 0
  execution_module {
    module = "NoSuchAnalysis"
  }"""), encoding="utf-8")
    log = tmp_path / "events.csv"
    log.write_text("old log\n", encoding="utf-8")
    assert main(["simulate", str(model), "--log", str(log)]) == 1
    assert "NoSuchAnalysis" in capsys.readouterr().err
    assert log.read_text(encoding="utf-8") == "old log\n"
    assert sorted(os.listdir(tmp_path)) == ["badmod.iot", "events.csv"]


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_log_exits_two_before_the_run(where, tmp_path, monkeypatch, capsys):
    target = tmp_path / "missing" / "events.csv" if where == "missing_dir" else tmp_path

    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr("iotdraw.cli.run_simulation", no_run)
    assert main(["simulate", FRESH, "--log", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write {target}" in captured.err
    assert os.listdir(tmp_path) == []


def test_a_symlinked_log_is_written_through_the_link(tmp_path, capsys):
    plain = tmp_path / "plain.csv"
    assert main(["simulate", FRESH, "--stop-on-depletion", "--log", str(plain)]) == 0
    (tmp_path / "logs").mkdir()
    target = tmp_path / "logs" / "events.csv"
    target.write_text("old log\n", encoding="utf-8")
    link = tmp_path / "events.csv"
    link.symlink_to(target)
    assert main(["simulate", FRESH, "--stop-on-depletion", "--log", str(link)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {link}\n")
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == plain.read_bytes()
    assert os.listdir(tmp_path / "logs") == ["events.csv"]  # no temporary file left behind


def test_a_symlinked_csv_is_written_through_the_link(tmp_path, capsys):
    target = tmp_path / "scenarios.csv"
    link = tmp_path / "link.csv"
    link.symlink_to(target)  # dangling until the table is written
    assert main(["deployments", PADOVA, "--csv", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8").startswith("id,assignment,")


def test_a_fifo_log_stays_a_fifo_and_delivers_the_whole_log(tmp_path, capsys):
    plain = tmp_path / "plain.csv"
    assert main(["simulate", FRESH, "--stop-on-depletion", "--log", str(plain)]) == 0
    fifo = tmp_path / "events.fifo"
    os.mkfifo(fifo)
    received = []

    def read():
        with open(fifo, "rb") as handle:
            received.append(handle.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        assert main(["simulate", FRESH, "--stop-on-depletion", "--log", str(fifo)]) == 0
    finally:
        reader.join(timeout=60)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert received == [plain.read_bytes()]
    assert sorted(os.listdir(tmp_path)) == ["events.fifo", "plain.csv"]


def test_simulate_log_is_not_held_in_memory(tmp_path, capsys):
    model = tmp_path / "padova.iot"
    text = Path(PADOVA).read_text(encoding="utf-8")
    model.write_text(text.replace("simulation_time = 1051200", "simulation_time = 20000"),
                     encoding="utf-8")
    log = tmp_path / "events.csv"
    tracemalloc.start()
    try:
        assert main(["simulate", str(model), "--log", str(log)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "ran ticks 0..20000 of 20000" in capsys.readouterr().out
    assert peak < log.stat().st_size / 4, (peak, log.stat().st_size)


def test_simulate_seed_beats_environment(unseeded_model, tmp_path, monkeypatch, capsys):
    def log_with(args, name):
        path = tmp_path / name
        assert main(["simulate", unseeded_model, "--log", str(path)] + args) == 0
        capsys.readouterr()
        return path.read_text(encoding="utf-8")

    monkeypatch.setenv("IOTDRAW_SEED", "2222")
    from_env = log_with([], "env.csv")
    overridden = log_with(["--seed", "1111"], "flag.csv")
    monkeypatch.delenv("IOTDRAW_SEED")
    from_flag = log_with(["--seed", "1111"], "flag2.csv")
    from_model = log_with([], "model.csv")

    assert overridden == from_flag  # --seed wins over the environment
    assert from_env != from_flag
    assert from_model != from_env  # model seed (0) differs from env seed


def test_bad_environment_seed_exits_two(unseeded_model, monkeypatch, capsys):
    monkeypatch.setenv("IOTDRAW_SEED", "lots")
    assert main(["simulate", unseeded_model]) == 2
    assert "IOTDRAW_SEED" in capsys.readouterr().err


def test_deployments_lists_and_counts(capsys):
    assert main(["deployments", PADOVA]) == 0
    out = capsys.readouterr().out
    assert "30 deployment scenario(s)" in out
    assert out.splitlines()[0].startswith("Scenario 1: Analytics>Michigan")


def test_deployments_rank_and_csv(tmp_path, capsys):
    table = tmp_path / "scenarios.csv"
    assert main(["deployments", PADOVA, "--rank", "availability",
                 "--csv", str(table)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("Scenario 1:")
    lines = table.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "id,assignment,availability,response_time_ms"
    assert len(lines) == 31


def test_rank_command(capsys):
    assert main(["rank", PADOVA, "--by", "response-time"]) == 0
    out = capsys.readouterr().out
    assert "best first by response-time" in out
    first = out.splitlines()[0]
    assert "response_time_ms=" in first


def test_lifetime_report(capsys):
    assert main(["lifetime", PADOVA, "--device", "water_sensor_1"]) == 0
    out = capsys.readouterr().out
    assert "predicted lifetime: 399998 ticks" in out
    assert "measured lifetime: 399999 ticks" in out


def test_lifetime_halts_on_the_asked_device(two_sensor_file, capsys):
    # level_sensor_2 depletes at tick 199; the run must go on to level_sensor_1's
    assert main(["lifetime", two_sensor_file, "--device", "level_sensor_1"]) == 0
    out = capsys.readouterr().out
    assert "predicted lifetime: 399 ticks" in out
    assert "measured lifetime: 399 ticks" in out


def test_lifetime_of_a_device_with_no_link(no_link_file, capsys):
    assert main(["lifetime", no_link_file, "--device", "level_sensor_1"]) == 0
    out = capsys.readouterr().out
    assert "predicted lifetime: no depletion (it has no link, so every request fails)" in out
    assert "measured lifetime: not depleted by tick 50000" in out

    assert main(["lifetime", no_link_file, "--device", "level_sensor_1",
                 "--sweep-max-age", "0", "--rounds", "2"]) == 0
    out = capsys.readouterr().out
    assert "max_age_ticks=0: never depleted within the horizon  (2 round(s) outlived" in out


def test_lifetime_unknown_device_exits_one(capsys):
    assert main(["lifetime", PADOVA, "--device", "toaster"]) == 1
    assert capsys.readouterr().err


def test_lifetime_sweep_csv(tmp_path, capsys):
    table = tmp_path / "sweep.csv"
    assert main(["lifetime", FRESH, "--device", "level_sensor_1",
                 "--sweep-max-age", "0,1", "--rounds", "3", "--seed", "4",
                 "--csv", str(table)]) == 0
    out = capsys.readouterr().out
    assert "max_age_ticks=0" in out and "max_age_ticks=1" in out
    lines = table.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "parameter,mean_lifetime_ticks,stddev"
    assert len(lines) == 3


def test_lifetime_sweeps_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["lifetime", FRESH, "--device", "level_sensor_1",
              "--sweep-max-age", "0,1", "--sweep-interval", "1,2"])
    assert exit_info.value.code == 2


def test_sweep_values_must_be_integers(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["lifetime", FRESH, "--device", "level_sensor_1",
              "--sweep-interval", "1,x"])
    assert exit_info.value.code == 2


# Names holding what CSV must quote, and the assignment field's own separators.
_AWKWARD_NAME = st.text(alphabet=',"\r\n;=> xy', min_size=1, max_size=4)


def _awkward_model(hub, fog, spare, consumer, provider):
    """Four deployments of two components over three named platforms.

    ``consumer`` needs the Svc that ``provider`` offers; ``provider`` needs
    the Hub port on ``hub``, one link from ``fog``.  ``spare`` has no link
    and a port whose interface no contract declares, a validation error.
    """
    here = GeoLocation(0.0, 0.0)

    def platform(name, tier, *services):
        return Platform(name, tier, here, cpu_frequency_ghz=2.0, provided_software=frozenset("s"),
                        mtbf_hours=1000.0, mttr_hours=3.0, services=services)

    return IoTSystemModel(
        "awkward",
        platforms=(platform(hub, PlatformTier.CLOUD, ServicePort("hub_port", "Hub", "HTTP")),
                   platform(fog, PlatformTier.FOG),
                   platform(spare, PlatformTier.CLOUD, ServicePort(spare, "Loose", "HTTP"))),
        networks=(NetworkLink(*sorted((hub, fog)), "IP", 1.5, 10.0),),
        applications=(Application("app", here, (
            Component(consumer, required_software=frozenset("s"), required_interfaces=("Svc",)),
            Component(provider, 500.0, frozenset("s"), ("Hub",),
                      ServicePort("svc_port", "Svc", "HTTP")))),),
        contracts=tuple(ServiceContract(f"Use{i}", i, f"{i}Client",
                                        (Task(f"Call{i}", TaskKind.COMPUTE),), MessageType(i))
                        for i in ("Hub", "Svc")))


def _records(text):
    return list(csv.reader(io.StringIO(text, newline="")))


def _scenario_records(scenarios):
    return [["id", "assignment", "availability", "response_time_ms"]] + [
        [str(s.id), ";".join(f"{c}={p}" for c, p in s.assignment),
         "" if s.availability is None else repr(s.availability),
         "" if s.response_time_ms is None else repr(s.response_time_ms)] for s in scenarios]


@settings(max_examples=60, deadline=None)
@given(names=st.lists(_AWKWARD_NAME, min_size=5, max_size=5, unique=True), path=_AWKWARD_NAME)
def test_every_csv_the_cli_writes_reads_back_field_for_field(names, path):
    model = _awkward_model(*names)
    listed = enumerate_deployments(model)
    assert len(listed) == 4
    ranked = rank_scenarios(evaluate_scenarios(model), "availability")
    report = validate_model(model, path=path)
    assert not report.ok
    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(iotdraw.cli, "_load", lambda _: model)  # no model file can hold " or \n
        table = os.path.join(scratch, "table.csv")

        def written(argv, status):
            assert main([*argv, "--csv", table]) == status
            with open(table, encoding="utf-8", newline="") as handle:
                return _records(handle.read())

        assert written(["deployments", path], 0) == _scenario_records(listed)
        assert written(["rank", path, "--by", "availability"], 0) == _scenario_records(ranked)
        assert written(["validate", path], 1) == [["severity", "code", "message", "file", "line"]] + [
            [d.severity, d.code, d.message, path, "1"] for d in report.diagnostics]
    hook = default_registry().resolve("DeploymentScenarios")
    assert _records(hook(SystemSnapshot(model, 0, {}))) == _scenario_records(listed)

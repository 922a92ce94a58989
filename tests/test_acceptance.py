"""End-to-end acceptance checks, one per release criterion.

Each test prints a single [PASS]/[FAIL] line on the real stdout so the
criterion tally survives output capturing.  Expected numbers are frozen
from hand calculations; comments next to each assertion show the
arithmetic.
"""

import dataclasses
import math
import random
import time
from contextlib import contextmanager

import pytest

from iotdraw import (
    DeploymentScenario, DeviceEnergyProfile, ModelError,
    default_registry, enumerate_deployments, evaluate_scenarios,
    joules_to_mah, lifetime_closed_form, lifetime_sweep, parse_model,
    per_request_drain_mah, rank_scenarios, register_module, run_simulation,
    scenario_availability, scenarios_to_csv,
    sense_energy, serialize_model, transmit_energy,
)
from iotdraw.model import ExecutionModuleDecl, PlatformTier

from conftest import (
    alarmed_model, random_placement_model, reference_availability,
    reference_response_time, reference_scenarios, thousand_scenario_model, tiny_model,
)


@contextmanager
def scored(capfd, number, label):
    verdict = "PASS"
    try:
        yield
    except BaseException:
        verdict = "FAIL"
        raise
    finally:
        with capfd.disabled():
            print(f"[{verdict}] criterion {number:02d}: {label}", flush=True)


def built(text):
    model = parse_model(text, "<acceptance>")
    assert not isinstance(model, list), [d.render() for d in model]
    return model


def reshaped(model, **config_changes):
    config = dataclasses.replace(model.sim_config, **config_changes)
    return dataclasses.replace(model, sim_config=config)


REFERENCE_PROFILE = DeviceEnergyProfile(
    battery_capacity_mah=100.0,
    residual_energy_mah=100.0,
    supply_voltage_v=3.0,
    sense_current_ma=25.0,
    sense_duration_ms=10.0,
    packet_kb=2.0,
    e_elec_nj_per_bit=50.0,
    e_amp_pj_per_bit_m=100.0,
    loss_exponent_n=2,
    depletion_threshold_mah=5.0,
)


def test_criterion_01_energy_formulas(capfd):
    with scored(capfd, 1, "sensing and radio energy formulas"):
        # 2 kb * 3 V * 25 mA * 10 ms = 1.5e-3 J
        assert sense_energy(REFERENCE_PROFILE) == pytest.approx(
            1.5e-3, rel=1e-12)
        # 2000 bits * 50 nJ + 2000 bits * 10^2 m * 100 pJ = 1.2e-4 J
        assert transmit_energy(REFERENCE_PROFILE, 10.0) == pytest.approx(
            1.2e-4, rel=1e-12)
        # 3600 J at 1 V through the 0.000277778 Wh/J constant
        assert joules_to_mah(3600.0, 1.0) == pytest.approx(
            1000.0008, rel=1e-12)


def availability_fixture():
    return built("""
system "avail" {}
cloud "P" { mtbf_hours = 99 mttr_hours = 1 provides_software = ["pa"] }
cloud "Q" { mtbf_hours = 98 mttr_hours = 2 provides_software = ["qb"] }
component "A" { requires_software = ["pa"] }
component "B" { requires_software = ["qb"] }
application "app" { components = ["A", "B"] }
""")


def test_criterion_02_availability_product(capfd):
    with scored(capfd, 2, "availability product over distinct platforms"):
        model = availability_fixture()
        scenarios = enumerate_deployments(model)
        assert [s.assignment for s in scenarios] == [(("A", "P"), ("B", "Q"))]
        # 99/100 * 98/100, exact in floating point
        assert scenario_availability(model, scenarios[0]) == 0.9702
        both_on_p = DeploymentScenario(id=1, assignment=(("A", "P"), ("B", "P")))
        # the shared platform counts once: 99/100
        assert scenario_availability(model, both_on_p) == 0.99


def response_fixture():
    return built("""
system "resp" {}
cloud "Front" { cpu_ghz = 1 provides_software = ["front"] }
cloud "Back" { cpu_ghz = 3 provides_software = ["backend"] }
link "Front" <-> "Back" { protocol = "HTTP" latency_ms = 50 }
contract "UseCalc" {
  provider_interface = "Calc" consumer_interface = "CalcClient"
  task "RunCalc" = compute
}
component "Caller" { requires_software = ["front"] requires = ["Calc"] }
component "Calculator" {
  cpu_demand_cycles = 3500 requires_software = ["backend"]
  service "calc" { interface = "Calc" protocol = "HTTP" }
}
application "app" { components = ["Caller", "Calculator"] }
""")


def test_criterion_03_response_time(capfd, padova_model):
    with scored(capfd, 3, "response time with processing delay"):
        model = response_fixture()
        scenarios = enumerate_deployments(model)
        assert len(scenarios) == 1
        measured = evaluate_scenarios(model)[0].response_time_ms
        # 50 ms hop + 3500 cycles / 3 GHz = 50.0011667 ms
        assert measured == pytest.approx(50.0011667, abs=1e-6)
        assert measured == pytest.approx(50.0 + 3500.0 / 3.0e9 * 1000.0,
                                         rel=1e-12)
        # device-provider flavor: four hops of 162 ms plus a 10 ms sense each
        all_cloud = evaluate_scenarios(padova_model)[0]
        assert all_cloud.assignment_map() == dict.fromkeys(
            ("Analytics", "FloodAPI", "FloodMonitor"), "Michigan")
        assert all_cloud.response_time_ms == pytest.approx(688.0, abs=1e-9)


def test_criterion_04_enumeration_matches_brute_force(capfd, padova_model):
    with scored(capfd, 4, "deployment enumeration matches brute force"):
        start = time.perf_counter()
        scenarios = enumerate_deployments(padova_model)
        assert time.perf_counter() - start < 1.0
        assert len(scenarios) == 30
        assert [s.id for s in scenarios] == list(range(1, 31))
        hosts = len([p for p in padova_model.platforms
                     if p.tier is not PlatformTier.DEVICE])
        components = len(list(padova_model.all_components()))
        assert hosts ** components == 125  # shortlist of 30 out of 125

        in_bounds = 0
        for seed in range(15):
            model = random_placement_model(seed)
            if (len(list(model.all_components())) <= 5
                    and len(model.platforms) <= 6):
                in_bounds += 1
            mine = [(s.id, s.assignment_map()) for s in
                    enumerate_deployments(model)]
            assert mine == reference_scenarios(model)
        assert in_bounds >= 8  # the stated size class is well represented


def test_criterion_05_ranking_matches_brute_force(capfd, padova_model):
    with scored(capfd, 5, "ranking matches brute-force ordering"):
        for model in [padova_model] + [random_placement_model(s)
                                       for s in range(6)]:
            evaluated = evaluate_scenarios(model)
            if not evaluated:
                continue
            for scenario in evaluated:
                mapping = scenario.assignment_map()
                assert scenario.availability == pytest.approx(
                    reference_availability(model, mapping), rel=1e-9)
                expected_rt = reference_response_time(model, mapping)
                if math.isinf(expected_rt):
                    assert math.isinf(scenario.response_time_ms)
                else:
                    assert scenario.response_time_ms == pytest.approx(
                        expected_rt, rel=1e-9)
            by_avail = rank_scenarios(evaluated, "availability")
            assert [s.id for s in by_avail] == [
                s.id for s in sorted(evaluated,
                                     key=lambda s: (-s.availability, s.id))]
            best = max(s.availability for s in evaluated)
            assert by_avail[0].availability == best
            assert by_avail[0].id == min(
                s.id for s in evaluated if s.availability == best)
            by_response = rank_scenarios(evaluated, "response-time")
            assert [s.id for s in by_response] == [
                s.id for s in sorted(evaluated,
                                     key=lambda s: (s.response_time_ms, s.id))]
            assert by_response[0].response_time_ms == min(
                s.response_time_ms for s in evaluated)


def drained_device_model(rnd):
    """A one-device model with randomized energy parameters.

    The battery capacity is computed backwards from a whole-request
    budget plus a fraction, so the depletion point is never on a float
    knife edge.
    """
    interval = rnd.randint(1, 5)
    distance = rnd.uniform(2.0, 60.0)
    requests = rnd.randint(50, 500) + rnd.uniform(0.25, 0.75)
    threshold = rnd.uniform(1.0, 10.0)
    supply_voltage = rnd.uniform(1.8, 5.0)
    sense_current = rnd.uniform(5.0, 50.0)
    sense_duration = rnd.uniform(1.0, 30.0)
    packet = rnd.uniform(0.5, 8.0)
    e_elec = rnd.uniform(10.0, 200.0)
    e_amp = rnd.uniform(50.0, 500.0)
    loss_exponent = rnd.choice([2, 3, 4])

    def assemble(capacity, sim_time):
        return built(f"""
system "drain" {{ simulation_time = {sim_time} }}
fog "hub" {{ provides_software = ["jboss"] }}
device "probe_1" {{
  battery {{
    capacity_mah = {capacity!r}
    supply_voltage_v = {supply_voltage!r}
    depletion_threshold_mah = {threshold!r}
  }}
  sense {{ current_ma = {sense_current!r} duration_ms = {sense_duration!r} }}
  transmit {{
    packet_kb = {packet!r}
    e_elec_nj_per_bit = {e_elec!r}
    e_amp_pj_per_bit_m = {e_amp!r}
    loss_exponent = {loss_exponent}
  }}
  data = constant(7)
  service "ProbePort" {{ interface = "Probe" protocol = "CoAP" }}
}}
link "probe_1" <-> "hub" {{ protocol = "CoAP" latency_ms = 1 distance_m = {distance!r} }}
contract "RequestProbe" {{
  provider_interface = "Probe" consumer_interface = "ProbeClient"
  task "ReadProbe" = sense
}}
component "Watcher" {{
  requires_software = ["jboss"] requires = ["Probe"]
  periodic "ReadProbe" {{ interval_ticks = {interval} }}
}}
application "app" {{ components = ["Watcher"] }}
""")

    probe = assemble(threshold + 1.0, 10)
    per = per_request_drain_mah(probe.platform("probe_1").energy, distance)
    capacity = threshold + per * requests
    profile = dataclasses.replace(probe.platform("probe_1").energy,
                                  battery_capacity_mah=capacity,
                                  residual_energy_mah=capacity)
    closed = lifetime_closed_form(profile, distance, interval)
    model = assemble(capacity, closed + 3 * interval + 10)
    return model, closed, interval


def test_criterion_06_lifetime_tracks_closed_form(capfd):
    with scored(capfd, 6, "simulated lifetime tracks the closed form"):
        start = time.perf_counter()
        rnd = random.Random(606)
        for _ in range(50):
            model, closed, interval = drained_device_model(rnd)
            report = run_simulation(model, halt_on={"probe_1"},
                                    sink=None)
            measured = report.lifetimes["probe_1"]
            assert measured is not None
            assert abs(measured - closed) <= interval, (measured, closed)
        assert time.perf_counter() - start < 5.0


def test_criterion_07_slower_rates_extend_lifetime(capfd, freshness_model):
    with scored(capfd, 7, "slower request rates extend lifetime"):
        start = time.perf_counter()
        table = lifetime_sweep(freshness_model, "level_sensor_1",
                               intervals=[2, 4, 6], rounds=30, seed=11)
        means = [row.mean for row in table.rows]
        assert all(m is not None for m in means)
        assert means[0] < means[1] < means[2]
        assert time.perf_counter() - start < 10.0


def test_criterion_08_freshness_extends_lifetime(capfd, freshness_model):
    with scored(capfd, 8, "freshness caching extends lifetime by 40%"):
        start = time.perf_counter()
        table = lifetime_sweep(freshness_model, "level_sensor_1",
                               max_ages=[1, 2], rounds=30, seed=17)
        low, high = [row.mean for row in table.rows]
        assert low is not None and high is not None
        assert high >= 1.4 * low
        assert time.perf_counter() - start < 10.0


def test_criterion_09_scale_run(capfd):
    with scored(capfd, 9, "thousand-scenario model ranks in time"):
        start = time.perf_counter()
        model = thousand_scenario_model()
        assert len(model.platforms) == 50
        evaluated = evaluate_scenarios(model)
        assert len(evaluated) == 1024
        by_avail = rank_scenarios(evaluated, "availability")
        by_response = rank_scenarios(evaluated, "response-time")
        assert time.perf_counter() - start < 5.0
        assert by_avail[0].availability == max(s.availability
                                               for s in evaluated)
        assert by_response[0].response_time_ms == min(s.response_time_ms
                                                      for s in evaluated)
        assert all(math.isfinite(s.response_time_ms) for s in evaluated)


def test_criterion_10_determinism_and_round_trip(capfd, padova_model,
                                                 freshness_model):
    with scored(capfd, 10, "seeded runs repeat and models round-trip"):
        unseeded = tiny_model(sim_time=40, interval=1, data="uniform(0, 30)")
        first = run_simulation(unseeded, seed=123).events_csv()
        second = run_simulation(unseeded, seed=123).events_csv()
        assert first == second
        assert run_simulation(unseeded, seed=124).events_csv() != first

        short = reshaped(padova_model, simulation_time=400)
        assert (run_simulation(short).events_csv()
                == run_simulation(short).events_csv())

        fixtures = [padova_model, freshness_model, tiny_model(),
                    alarmed_model()]
        generated = [random_placement_model(seed) for seed in range(6)]
        for model in fixtures + generated:
            again = parse_model(serialize_model(model), "<round-trip>")
            assert not isinstance(again, list)
            assert again == model


def test_criterion_11_interval_two_trace(capfd):
    with scored(capfd, 11, "interval-2 horizon-10 trace fires 5 requests"):
        report = run_simulation(tiny_model(sim_time=10, interval=2))
        fired = [e.tick for e in report.events if e.kind == "PeriodicRequest"]
        assert fired == [1, 3, 5, 7, 9]
        assert report.counts["PeriodicRequest"] == 5


def test_criterion_12_hooks_leave_run_undisturbed(capfd, padova_model):
    with scored(capfd, 12, "analysis hooks leave the run undisturbed"):
        short = reshaped(padova_model, simulation_time=60)
        bare = run_simulation(reshaped(short, execution_modules=()))
        with_builtin = run_simulation(short)
        assert [e for e in with_builtin.events if e.kind != "ModuleOutput"] \
            == list(bare.events)
        assert with_builtin.residual_mah == bare.residual_mah
        assert with_builtin.module_outputs["DeploymentScenarios"] \
            == scenarios_to_csv(enumerate_deployments(padova_model))

        calls = []

        def peek(snapshot):
            calls.append(snapshot.tick)
            snapshot.residual_energy_mah.clear()  # must not leak into the run
            return "peeked"

        probed = reshaped(short, execution_modules=(
            ExecutionModuleDecl(module="BatteryPeek"),))
        registry = register_module(default_registry(), "BatteryPeek", peek)
        report = run_simulation(probed, registry=registry)
        assert calls == [0]
        assert report.residual_mah == bare.residual_mah
        assert report.module_outputs["BatteryPeek"] == "peeked"

        missing = reshaped(short, execution_modules=(
            ExecutionModuleDecl(module="MissingHook"),))
        with pytest.raises(ModelError, match="MissingHook"):
            run_simulation(missing)

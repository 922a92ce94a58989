"""Execution-module registry, snapshots, and the built-in analyses."""

import pytest

from iotdraw import (
    ModelError, default_registry, enumerate_deployments, evaluate_scenarios,
    initial_state, rank_scenarios, register_module,
    run_simulation, scenarios_to_csv, take_snapshot,
)

from conftest import tiny_model


def test_default_registry_carries_builtins():
    registry = default_registry()
    assert registry.names() == ["AvailabilityAnalysis", "DeploymentScenarios",
                                "ResponseTimeAnalysis"]


def test_default_registry_is_fresh_each_time():
    first = default_registry()
    register_module(first, "Probe", lambda snapshot: "hi")
    assert "Probe" not in default_registry().names()


def test_register_rejects_duplicates_and_blank_names():
    registry = default_registry()
    with pytest.raises(ModelError):
        register_module(registry, "DeploymentScenarios", lambda s: "")
    with pytest.raises(ModelError):
        register_module(registry, "", lambda s: "")


def test_unknown_module_names_the_known_ones():
    registry = default_registry()
    with pytest.raises(ModelError, match="DeploymentScenarios"):
        registry.resolve("Nope")


def test_invoke_module_passes_the_snapshot():
    seen = {}

    def probe(snapshot):
        seen["tick"] = snapshot.tick
        seen["devices"] = sorted(snapshot.residual_energy_mah)
        return "probed"

    registry = register_module(default_registry(), "Probe", probe)
    model = tiny_model(sim_time=3)
    snapshot = take_snapshot(initial_state(model))
    assert registry.resolve("Probe")(snapshot) == "probed"
    assert seen == {"tick": 0, "devices": ["probe_1"]}


def test_snapshot_is_isolated_from_the_run():
    model = tiny_model(sim_time=3)
    state = initial_state(model)
    snapshot = take_snapshot(state)
    assert snapshot.model is state.model
    assert snapshot.model == state.model
    snapshot.residual_energy_mah["probe_1"] = -1.0
    assert state.devices["probe_1"].residual_mah == 100.0


def test_builtin_outputs_match_direct_calls(padova_model):
    registry = default_registry()
    state = initial_state(padova_model)
    snapshot = take_snapshot(state)

    enumeration = registry.resolve("DeploymentScenarios")(snapshot)
    assert enumeration == scenarios_to_csv(enumerate_deployments(padova_model))

    availability = registry.resolve("AvailabilityAnalysis")(snapshot)
    expected = scenarios_to_csv(rank_scenarios(
        evaluate_scenarios(padova_model), "availability"))
    assert availability == expected

    response = registry.resolve("ResponseTimeAnalysis")(snapshot)
    expected = scenarios_to_csv(rank_scenarios(
        evaluate_scenarios(padova_model), "response-time"))
    assert response == expected


def test_hooks_do_not_disturb_the_simulation():
    from conftest import tiny_text
    from iotdraw import parse_model

    text = tiny_text(sim_time=10, interval=2).replace("rng_seed = 0", """rng_seed = 0
  execution_module {
    module = "Meddler"
  }""")
    model = parse_model(text, "<meddle>")
    assert not isinstance(model, list)

    def meddler(snapshot):
        snapshot.residual_energy_mah.clear()
        return "meddled"

    registry = register_module(default_registry(), "Meddler", meddler)
    with_hook = run_simulation(model, registry=registry)
    plain = run_simulation(tiny_model(sim_time=10, interval=2))
    assert with_hook.module_outputs == {"Meddler": "meddled"}
    assert with_hook.residual_mah == plain.residual_mah
    # apart from the module line, both runs saw the same history
    assert [e for e in with_hook.events if e.kind != "ModuleOutput"] == list(plain.events)


def test_hook_invoked_exactly_once():
    from conftest import tiny_text
    from iotdraw import parse_model

    text = tiny_text(sim_time=10, interval=1).replace("rng_seed = 0", """rng_seed = 0
  execution_module {
    module = "Counter"
  }""")
    model = parse_model(text, "<count>")
    assert not isinstance(model, list)
    calls = []
    registry = register_module(default_registry(), "Counter",
                               lambda s: calls.append(s) or "counted")
    report = run_simulation(model, registry=registry)
    assert len(calls) == 1
    assert report.counts["ModuleOutput"] == 1

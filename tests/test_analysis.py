"""Deployment enumeration, scenario metrics, ranking, lifetime sweeps."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from iotdraw import (
    DeploymentScenario, ModelError, device_periodic_component,
    enumerate_deployments, evaluate_scenarios, lifetime_sweep, parse_model,
    per_request_drain_mah, platform_availability, predicted_lifetime, rank_scenarios,
    scenario_availability, scenario_text, scenarios_to_csv,
)
from iotdraw.validate import dependency_edges, edge_table, eligible_hosts

from conftest import (
    random_placement_model, reference_availability, reference_edge_costs,
    reference_response_time, reference_scenarios, thousand_scenario_model, tiny_text,
)


def test_enumeration_matches_reference_on_random_models():
    nonempty = 0
    for seed in range(20):
        model = random_placement_model(seed)
        mine = enumerate_deployments(model)
        truth = reference_scenarios(model)
        assert [(s.id, s.assignment_map()) for s in mine] == truth, f"seed {seed}"
        nonempty += bool(truth)
    assert nonempty >= 5  # the generator must exercise the non-trivial side


def assert_metrics_match_reference(model, scenarios):
    for scenario in scenarios:
        assignment = scenario.assignment_map()
        assert scenario.availability == pytest.approx(
            reference_availability(model, assignment), rel=1e-9)
        expected = reference_response_time(model, assignment)
        if math.isinf(expected):
            assert math.isinf(scenario.response_time_ms)
        else:
            assert scenario.response_time_ms == pytest.approx(expected, rel=1e-9)


def test_metrics_match_reference_on_random_models():
    for seed in range(20):
        model = random_placement_model(seed)
        assert_metrics_match_reference(model, evaluate_scenarios(model))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=20, max_value=2**32))
def test_enumeration_and_metrics_match_reference_beyond_fixed_seeds(seed):
    model = random_placement_model(seed)
    scenarios = evaluate_scenarios(model)
    assert [(s.id, s.assignment_map()) for s in scenarios] == reference_scenarios(model)
    assert_metrics_match_reference(model, scenarios)


def test_fixture_has_thirty_scenarios(padova_model):
    scenarios = enumerate_deployments(padova_model)
    assert len(scenarios) == 30
    assert [s.id for s in scenarios] == list(range(1, 31))
    hosts_used = {name: set() for name in ("Analytics", "FloodAPI", "FloodMonitor")}
    for scenario in scenarios:
        for component, platform in scenario.assignment:
            hosts_used[component].add(platform)
    assert hosts_used["Analytics"] == {"Michigan", "Stuttgart"}
    assert hosts_used["FloodAPI"] == {"Michigan", "Stuttgart", "fog_1", "fog_2", "fog_3"}
    assert hosts_used["FloodMonitor"] == {"Michigan", "fog_1", "fog_2"}


def test_fixture_first_scenario_is_all_michigan(padova_model):
    first = enumerate_deployments(padova_model)[0]
    assert first.assignment == (("Analytics", "Michigan"), ("FloodAPI", "Michigan"),
                                ("FloodMonitor", "Michigan"))


def test_fixture_response_time_value(padova_model):
    scenarios = evaluate_scenarios(padova_model)
    all_michigan = scenarios[0]
    # each of the four service dependencies crosses Michigan -> fog_1 ->
    # device (162 ms) and waits out the 10 ms sensing
    assert all_michigan.response_time_ms == pytest.approx(688.0, abs=1e-9)


def test_fixture_availability_value(padova_model):
    scenarios = evaluate_scenarios(padova_model)
    assert scenarios[0].availability == pytest.approx((2000 / 2002), rel=1e-12)


def test_availability_counts_each_platform_once(padova_model):
    shared = DeploymentScenario(1, (("a", "Michigan"), ("b", "Michigan")))
    split = DeploymentScenario(2, (("a", "Michigan"), ("b", "Stuttgart")))
    av_m = platform_availability(padova_model.platform("Michigan"))
    av_s = platform_availability(padova_model.platform("Stuttgart"))
    assert scenario_availability(padova_model, shared) == pytest.approx(av_m, rel=1e-12)
    assert scenario_availability(padova_model, split) == pytest.approx(av_m * av_s,
                                                                       rel=1e-12)


# Client (CoAP) consumes Provider (HTTP).  Both need software "x": a, b and
# far carry it, c does not.  a and b are clouds one link apart, so the
# protocols cannot be bridged between them; far has no link at all.
HAND_BUILT_TEXT = """
system "hand_built" {}
cloud "a" { cpu_ghz = 2 provides_software = ["x"] mtbf_hours = 1000 mttr_hours = 10 }
cloud "b" { cpu_ghz = 4 provides_software = ["x"] mtbf_hours = 1500 mttr_hours = 5 }
cloud "c" { cpu_ghz = 1 provides_software = ["y"] mtbf_hours = 800 mttr_hours = 40 }
cloud "far" { cpu_ghz = 1 provides_software = ["x"] mtbf_hours = 900 mttr_hours = 9 }
link "a" <-> "b" { protocol = "IP" latency_ms = 5.5 }
link "a" <-> "c" { protocol = "IP" latency_ms = 7.25 }
contract "UseSvc" { provider_interface = "Svc" consumer_interface = "SvcClient"
  task "Call" = compute }
contract "Publish" { provider_interface = "Out" consumer_interface = "OutClient"
  task "Emit" = compute }
component "Client" { requires_software = ["x"] requires = ["Svc"]
  service "ClientOut" { interface = "Out" protocol = "CoAP" } }
component "Provider" { cpu_demand_cycles = 3000 requires_software = ["x"]
  service "P" { interface = "Svc" protocol = "HTTP" } }
application "app" { components = ["Client", "Provider"] }
"""


def test_hand_built_scenarios_score_every_pair_the_same_way():
    model = parse_model(HAND_BUILT_TEXT, "<hand-built>")
    assert not isinstance(model, list), [d.render() for d in model]
    # Only co-located placements pass the protocol rule.
    assert [s.assignment for s in enumerate_deployments(model)] == [
        (("Client", "a"), ("Provider", "a")), (("Client", "b"), ("Provider", "b")),
        (("Client", "far"), ("Provider", "far"))]
    # The edge's table holds the allowed pairs only: not a>b, routable but with
    # no fog to bridge the protocols, not far>a, unreachable, and nothing on c,
    # which lacks the software.
    (edge,) = dependency_edges(model)
    table = edge_table(model, edge)
    assert ("a", "b") not in table and ("far", "a") not in table
    assert not any("c" in pair for pair in table)
    assert table == {(host, host): 3000 / (ghz * 1e9) * 1000.0
                     for host, ghz in (("a", 2), ("b", 4), ("far", 1))}


def test_each_edge_table_maps_exactly_the_allowed_pairs_to_their_cost():
    left_out = 0
    for seed in range(40):
        model = random_placement_model(seed)
        truth = reference_edge_costs(model)
        edges = dependency_edges(model)
        assert {(edge.consumer, edge.interface) for edge in edges} == truth.keys(), seed
        for edge in edges:
            table, expected = edge_table(model, edge), truth[edge.consumer, edge.interface]
            assert table.keys() == expected.keys(), (seed, edge.consumer, edge.interface)
            for pair, cost in expected.items():
                assert table[pair] == pytest.approx(cost, rel=1e-12), (seed, edge.consumer, pair)
            pairs = len(eligible_hosts(model, model.component(edge.consumer)))
            if edge.provider_kind == "component":
                pairs *= len(eligible_hosts(model, model.component(edge.provider)))
            left_out += len(table) < pairs
    assert left_out  # some eligible pairs are not allowed, and their edges leave them out


def test_a_scenario_on_an_unknown_platform_is_a_model_error(padova_model):
    nowhere = DeploymentScenario(1, (("Analytics", "Nowhere"), ("FloodAPI", "Nowhere"),
                                     ("FloodMonitor", "Nowhere")))
    with pytest.raises(ModelError, match="^unknown platform: 'Nowhere'$"):
        scenario_availability(padova_model, nowhere)


@pytest.mark.parametrize("make_model", [thousand_scenario_model,
                                        lambda: random_placement_model(19)],
                         ids=["criterion-09", "placement-seed-19"])
def test_deployment_work_is_bounded_by_eligible_host_pairs(monkeypatch, make_model):
    """Route and protocol checks run once per eligible (edge, consumer host,
    provider host) triple, however many candidates the pools multiply to.

    The criterion-09 consumers have no service port, so only their route
    look-ups are counted there; placement seed 19 checks protocols.
    """
    import iotdraw.analysis
    import iotdraw.validate
    from iotdraw.validate import dependency_edges, eligible_hosts

    model = make_model()
    calls = {"check_protocol_bridge": 0, "route_between": 0}
    for name in calls:
        original = getattr(iotdraw.validate, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (iotdraw.validate, iotdraw.analysis):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    evaluated = evaluate_scenarios(model)
    assert evaluated
    triples = 0
    for edge in dependency_edges(model):
        consumers = len(eligible_hosts(model, model.component(edge.consumer)))
        providers = (len(eligible_hosts(model, model.component(edge.provider)))
                     if edge.provider_kind == "component" else 1)
        triples += consumers * providers
    assert calls["check_protocol_bridge"] <= triples
    assert calls["route_between"] <= triples


def test_rank_by_availability(padova_model):
    scenarios = evaluate_scenarios(padova_model)
    ranked = rank_scenarios(scenarios, "availability")
    expected = sorted(scenarios, key=lambda s: (-s.availability, s.id))
    assert [s.id for s in ranked] == [s.id for s in expected]
    assert ranked[0].assignment_map() == {"Analytics": "Michigan",
                                          "FloodAPI": "Michigan",
                                          "FloodMonitor": "Michigan"}


def test_rank_by_response_time(padova_model):
    scenarios = evaluate_scenarios(padova_model)
    ranked = rank_scenarios(scenarios, "response-time")
    expected = sorted(scenarios, key=lambda s: (s.response_time_ms, s.id))
    assert [s.id for s in ranked] == [s.id for s in expected]
    values = [s.response_time_ms for s in ranked]
    assert values == sorted(values)


def test_rank_ties_keep_ascending_id():
    scenarios = [
        DeploymentScenario(3, (("a", "x"),), availability=0.9, response_time_ms=1.0),
        DeploymentScenario(1, (("a", "y"),), availability=0.9, response_time_ms=1.0),
        DeploymentScenario(2, (("a", "z"),), availability=0.95, response_time_ms=2.0),
    ]
    assert [s.id for s in rank_scenarios(scenarios, "availability")] == [2, 1, 3]
    assert [s.id for s in rank_scenarios(scenarios, "response-time")] == [1, 3, 2]


def test_rank_rejects_unevaluated_scenarios():
    bare = [DeploymentScenario(1, (("a", "x"),))]
    with pytest.raises(ModelError):
        rank_scenarios(bare, "availability")
    with pytest.raises(ModelError):
        rank_scenarios([], "coolness")


def test_scenario_text_and_csv(padova_model):
    scenarios = evaluate_scenarios(padova_model)[:2]
    line = scenario_text(scenarios[0])
    assert line.startswith("Scenario 1: Analytics>Michigan, FloodAPI>Michigan, "
                           "FloodMonitor>Michigan")
    csv_text = scenarios_to_csv(scenarios)
    lines = csv_text.splitlines()
    assert lines[0] == "id,assignment,availability,response_time_ms"
    assert lines[1].startswith("1,Analytics=Michigan;FloodAPI=Michigan;"
                               "FloodMonitor=Michigan,")
    # metrics stay empty before evaluation
    bare_csv = scenarios_to_csv(enumerate_deployments(padova_model)[:1])
    assert bare_csv.splitlines()[1].endswith(",,")


@pytest.mark.parametrize("availability, response, tail, fields", [
    (None, None, "", ",,"),
    (0.1 + 0.2, None, "  [availability=0.30000000000000004]", ",0.30000000000000004,"),
    (None, 1e-07, "  [response_time_ms=1e-07]", ",,1e-07"),
    (0.5, 12.25, "  [availability=0.5 response_time_ms=12.25]", ",0.5,12.25"),
], ids=["unscored", "availability", "response-time", "scored"])
def test_a_scenario_shows_each_figure_it_has(availability, response, tail, fields):
    scenario = DeploymentScenario(7, (("A", "x"), ("B", "y")), availability, response)
    assert scenario_text(scenario) == f"Scenario 7: A>x, B>y{tail}"
    assert scenarios_to_csv([scenario]) == (
        f"id,assignment,availability,response_time_ms\n7,A=x;B=y{fields}\n")


def test_a_scenario_without_rendered_texts_renders_its_assignment(padova_model):
    # The search stores ``rendered``; a scenario built by hand, or copied by
    # ``dataclasses.replace``, renders its assignment when asked, to the same text.
    searched = evaluate_scenarios(padova_model)
    for scenario in (searched[0], searched[13], searched[-1]):
        assert "rendered" in vars(scenario)
        by_hand = DeploymentScenario(scenario.id, scenario.assignment, scenario.availability,
                                     scenario.response_time_ms)
        for copy in (by_hand, dataclasses.replace(scenario)):
            assert "rendered" not in vars(copy)
            assert scenario_text(copy) == scenario_text(scenario)
            assert scenarios_to_csv([copy]) == scenarios_to_csv([scenario])
        # A copy with another assignment renders that one, not its parent's.
        moved = dataclasses.replace(scenario, assignment=(("A", "x"),))
        assert moved.assignment_texts() == ("A>x", "A=x") and moved != scenario
        assert scenarios_to_csv([moved]).splitlines()[1].startswith(f"{scenario.id},A=x,")


# The search scores and renders as it goes ----------------------------------


def _oracle_scores(model, assignment):
    """Availability multiplied in platform-name order, response time summed in edge order."""
    availability = 1.0
    for name in sorted(set(assignment.values())):
        availability *= platform_availability(model.platform(name))
    total = 0.0
    for edge in dependency_edges(model):
        provider = assignment[edge.provider] if edge.provider_kind == "component" else edge.provider
        total += edge_table(model, edge)[assignment[edge.consumer], provider]
    return availability, total


def _plain_text(scenario):
    pairs = ", ".join(f"{c}>{p}" for c, p in scenario.assignment)
    if scenario.availability is None:
        return f"Scenario {scenario.id}: {pairs}"
    return (f"Scenario {scenario.id}: {pairs}  [availability={scenario.availability!r} "
            f"response_time_ms={scenario.response_time_ms!r}]")


def _plain_row(scenario):
    assignment = ";".join(f"{c}={p}" for c, p in scenario.assignment)
    if scenario.availability is None:
        return f"{scenario.id},{assignment},,"
    return f"{scenario.id},{assignment},{scenario.availability!r},{scenario.response_time_ms!r}"


def _fallbacks(model, scenarios):
    """Which of the search's leaf fallbacks the model needs: (late edge, hosts out of order)."""
    order = {c.name: depth for depth, c in enumerate(sorted(model.all_components(),
                                                             key=lambda c: c.name))}
    placed_by, late = -1, False
    for edge in dependency_edges(model):
        consumer = order[edge.consumer]
        provider = order[edge.provider] if edge.provider_kind == "component" else -1
        late = late or provider > consumer or max(consumer, provider) < placed_by
        placed_by = max(placed_by, consumer, provider)
    first_use = [list(dict.fromkeys(p for _, p in s.assignment)) for s in scenarios]
    return late, any(hosts != sorted(hosts) for hosts in first_use)


def assert_search_scores_and_renders_bit_for_bit(model):
    """The search's scores equal the oracle's, with ``==``."""
    searched = evaluate_scenarios(model)
    listed = enumerate_deployments(model)
    assert [(s.id, s.assignment) for s in searched] == [(s.id, s.assignment) for s in listed]
    for s in searched:
        assert (s.availability, s.response_time_ms) == _oracle_scores(model, s.assignment_map())
    for scenarios in (searched, listed):
        assert [scenario_text(s) for s in scenarios] == [_plain_text(s) for s in scenarios]
        assert scenarios_to_csv(scenarios).split("\n")[1:] == [_plain_row(s) for s in scenarios] + [""]
        copies = [dataclasses.replace(s) for s in scenarios]  # rendered on demand, not searched
        assert [scenario_text(c) for c in copies] == [scenario_text(s) for s in scenarios]
        assert scenarios_to_csv(copies) == scenarios_to_csv(scenarios)
    return _fallbacks(model, searched)


def test_the_search_scores_bit_for_bit_on_random_models():
    seen = set()
    for seed in range(40):
        late, out_of_order = assert_search_scores_and_renders_bit_for_bit(
            random_placement_model(seed))
        seen |= {"late edge"} if late else set()
        seen |= {"hosts out of order"} if out_of_order else set()
    assert seen == {"late edge", "hosts out of order"}  # both leaf fallbacks ran


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=40, max_value=2**32))
def test_the_search_scores_bit_for_bit_beyond_fixed_seeds(seed):
    assert_search_scores_and_renders_bit_for_bit(random_placement_model(seed))


# Components sort a, b, c, d, but the application lists them c, d, a, b, so
# the edges from c and d come first and a's edge to b, placed later than a,
# is added after them.  a only fits on "z", so the first of b, c and d placed
# on "m" uses a host that sorts before one already used.  With these costs,
# adding the terms in placement order instead changes one scenario's sum.
FALLBACK_TEXT = """
system "fallbacks" {}
cloud "m" { cpu_ghz = 2.9 provides_software = ["y"] mtbf_hours = 1013 mttr_hours = 7.1 }
cloud "z" { cpu_ghz = 3.7 provides_software = ["x", "y"] mtbf_hours = 1511 mttr_hours = 4.3
  service "hub" { interface = "Hub" protocol = "HTTP" } }
link "m" <-> "z" { protocol = "IP" latency_ms = 1.3 }
contract "UseSvc" { provider_interface = "Svc" consumer_interface = "SvcClient"
  task "Call" = compute }
contract "UseHub" { provider_interface = "Hub" consumer_interface = "HubClient"
  task "Poll" = compute }
component "a" { requires_software = ["x"] requires = ["Svc", "Hub"] }
component "b" { cpu_demand_cycles = 7777 requires_software = ["y"]
  service "P" { interface = "Svc" protocol = "HTTP" } }
component "c" { requires_software = ["y"] requires = ["Hub"] }
component "d" { requires_software = ["y"] requires = ["Svc"] }
application "app" { components = ["c", "d", "a", "b"] }
"""


def test_the_search_scores_bit_for_bit_through_both_leaf_fallbacks():
    model = parse_model(FALLBACK_TEXT, "<fallbacks>")
    assert not isinstance(model, list), [d.render() for d in model]
    assert len(enumerate_deployments(model)) == 8
    assert assert_search_scores_and_renders_bit_for_bit(model) == (True, True)


# lifetime -------------------------------------------------------------------


def test_predicted_lifetime_fixture_value(padova_model):
    assert predicted_lifetime(padova_model, "water_sensor_1") == 399998


def test_per_request_mah_fixture_value(padova_model):
    profile = padova_model.platform("water_sensor_1").energy
    assert per_request_drain_mah(profile, 10.0) == pytest.approx(1.5000012e-4, rel=1e-12)
    with pytest.raises(ModelError):
        predicted_lifetime(padova_model, "fog_1", 10.0)  # not a device: no request cost


def test_device_periodic_component_resolution(padova_model):
    assert device_periodic_component(padova_model, "water_sensor_1").name == "FloodMonitor"
    with pytest.raises(ModelError):
        device_periodic_component(padova_model, "fog_1")
    with pytest.raises(ModelError):
        device_periodic_component(padova_model, "alarm_1")


def test_device_with_two_periodic_consumers_is_ambiguous():
    text = tiny_text().replace('components = ["Watcher"]',
                               'components = ["Watcher", "Watcher2"]')
    text += """
component "Watcher2" {
  cpu_demand_cycles = 100
  requires_software = ["jboss"]
  requires = ["Probe"]
  periodic "ReadProbe" {
    interval_ticks = 3
  }
}
"""
    model = parse_model(text, "<two>")
    assert not isinstance(model, list)
    with pytest.raises(ModelError, match="exactly one"):
        device_periodic_component(model, "probe_1")


def test_interval_sweep_lifetimes_increase(freshness_model):
    table = lifetime_sweep(freshness_model, "level_sensor_1",
                           intervals=[1, 2, 4], rounds=5, seed=1)
    assert table.parameter_name == "interval_ticks"
    means = [row.mean for row in table.rows]
    assert all(m is not None for m in means)
    assert means[0] < means[1] < means[2]
    assert all(row.depleted_rounds == 5 for row in table.rows)


def test_max_age_sweep_scales_lifetime_exactly(freshness_model):
    table = lifetime_sweep(freshness_model, "level_sensor_1",
                           max_ages=[0, 1, 2], rounds=4, seed=2)
    base, doubled, tripled = (row.mean for row in table.rows)
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)
    assert tripled == pytest.approx(3.0 * base, rel=1e-12)


def test_sweep_reports_censored_rounds(freshness_model):
    table = lifetime_sweep(freshness_model, "level_sensor_1",
                           max_ages=[200], rounds=2, seed=3)
    row = table.rows[0]
    assert row.mean is None
    assert row.depleted_rounds == 0
    assert "horizon" in row.note


def test_sweep_halts_on_the_swept_device(two_sensor_file):
    from iotdraw import load_model
    # the second sensor depletes at tick 199 without ending any round
    table = lifetime_sweep(load_model(two_sensor_file), "level_sensor_1",
                           max_ages=[0, 1], rounds=3)
    assert [(row.depleted_rounds, row.note) for row in table.rows] == [(3, ""), (3, "")]
    assert all(row.mean >= 365 for row in table.rows)


def test_sweep_rejects_repeated_values(freshness_model):
    # a repeated value would run its rounds twice and report them as one row each
    with pytest.raises(ModelError, match="repeat"):
        lifetime_sweep(freshness_model, "level_sensor_1", max_ages=[1, 1], rounds=3)
    with pytest.raises(ModelError, match="repeat"):
        lifetime_sweep(freshness_model, "level_sensor_1", intervals=[2, 4, 2], rounds=1)


def test_sweep_refuses_an_empty_list_of_values(freshness_model):
    with pytest.raises(ModelError) as refused:
        lifetime_sweep(freshness_model, "level_sensor_1", max_ages=[])
    assert (type(refused.value) is ModelError
            and str(refused.value) == "sweep needs at least one parameter value")


def test_a_model_without_an_application_has_no_deployments(freshness_model):
    model = dataclasses.replace(freshness_model, applications=())
    assert enumerate_deployments(model) == []
    assert enumerate_deployments(model, scored=True) == []


def test_sweep_gives_no_radio_to_a_device_with_no_link(no_link_file):
    from iotdraw import load_model
    # every request fails for want of a route, as in a plain run, so no round depletes
    table = lifetime_sweep(load_model(no_link_file), "level_sensor_1", max_ages=[0], rounds=2)
    assert [(row.mean, row.depleted_rounds) for row in table.rows] == [(None, 0)]


def test_sweep_does_not_mutate_the_model(freshness_model):
    before = freshness_model.component("Monitor").periodic_request.interval_ticks
    lifetime_sweep(freshness_model, "level_sensor_1", intervals=[2], rounds=1, seed=0)
    assert freshness_model.component("Monitor").periodic_request.interval_ticks == before


def test_an_interval_sweep_runs_all_rounds_of_a_value_on_one_model(freshness_model, monkeypatch):
    # Each value's model is built once, so its derived facts (routes) are worked out once.
    from iotdraw import analysis
    real, models = analysis.run_simulation, []

    def run(model, **options):
        models.append(model)
        return real(model, **options)

    monkeypatch.setattr(analysis, "run_simulation", run)
    lifetime_sweep(freshness_model, "level_sensor_1", intervals=[1, 2], rounds=3, seed=5)
    assert len(models) == 6 and len({id(model) for model in models}) == 2


def test_sweep_argument_validation(freshness_model):
    with pytest.raises(ModelError):
        lifetime_sweep(freshness_model, "level_sensor_1")
    with pytest.raises(ModelError):
        lifetime_sweep(freshness_model, "level_sensor_1",
                       intervals=[1], max_ages=[1])
    with pytest.raises(ModelError):
        lifetime_sweep(freshness_model, "level_sensor_1", intervals=[0])
    with pytest.raises(ModelError):
        lifetime_sweep(freshness_model, "fog_hub", intervals=[1])
    with pytest.raises(ModelError, match="round"):
        lifetime_sweep(freshness_model, "level_sensor_1", max_ages=[0], rounds=0)
    # A count of ticks is an int: a float one printed a row of its own.
    with pytest.raises(ModelError, match=r"interval_ticks must be a whole number of ticks, got 1\.5"):
        lifetime_sweep(freshness_model, "level_sensor_1", intervals=[1.5], rounds=2)
    with pytest.raises(ModelError, match=r"max_age_ticks must be a whole number of ticks, got 0\.5"):
        lifetime_sweep(freshness_model, "level_sensor_1", max_ages=[0.5], rounds=2)
    # Rounds and the seed are whole numbers too: a bool ran one round, the rest a bare TypeError.
    for arguments, refused in ((dict(rounds="3"), "rounds must be a whole number, got '3'"),
                               (dict(rounds=True), "rounds must be a whole number, got True"),
                               (dict(seed=1.5), r"seed must be a whole number, got 1\.5"),
                               (dict(seed="7"), "seed must be a whole number, got '7'")):
        with pytest.raises(ModelError, match=f"^{refused}$"):
            lifetime_sweep(freshness_model, "level_sensor_1", max_ages=[0], **arguments)


@pytest.mark.parametrize("sweep, message", [
    (dict(intervals=[4, 0]), "request interval must be at least 1 tick"),
    (dict(max_ages=[0, -1]), "max age cannot be negative: -1"),
    (dict(intervals=[True]), "PeriodicRequest.interval_ticks must be a number, got True"),
], ids=["interval-0", "max-age-minus-1", "interval-bool"])
def test_a_sweep_value_is_checked_by_what_it_builds_before_any_run(
        freshness_model, monkeypatch, sweep, message):
    from iotdraw import analysis

    def run_simulation(*args, **kwargs):
        raise AssertionError("a sweep ran before refusing a value")
    monkeypatch.setattr(analysis, "run_simulation", run_simulation)
    with pytest.raises(ModelError) as refused:
        lifetime_sweep(freshness_model, "level_sensor_1", rounds=2, **sweep)
    assert str(refused.value) == message


def test_sweep_csv_shape(freshness_model):
    table = lifetime_sweep(freshness_model, "level_sensor_1",
                           max_ages=[0, 1], rounds=2, seed=4)
    lines = table.to_csv().splitlines()
    assert lines[0] == "parameter,mean_lifetime_ticks,stddev"
    assert len(lines) == 3
    assert lines[1].startswith("0,")
    assert lines[2].startswith("1,")


def test_sweep_same_seed_reproduces(freshness_model):
    first = lifetime_sweep(freshness_model, "level_sensor_1",
                           intervals=[1, 2], rounds=3, seed=5)
    second = lifetime_sweep(freshness_model, "level_sensor_1",
                            intervals=[1, 2], rounds=3, seed=5)
    assert first == second

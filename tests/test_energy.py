"""Battery and radio energy accounting.

The reference numbers here were worked out by hand from the model
definitions and are frozen: sense energy is packet size times voltage
times current times duration, transmission energy is the electronics
term plus the amplifier term scaled by distance to the loss exponent,
and the charge conversion goes through watt-hours at the rounded
0.000277778 Wh/J constant.
"""

import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from iotdraw import (
    DeviceEnergyProfile, ModelError, joules_to_mah, lifetime_closed_form, per_request_drain_mah,
    sense_energy, transmit_energy,
)
from iotdraw import energy
from iotdraw.energy import drain_mah, drain_senses_mah

REL = 1e-12


def profile(**overrides):
    base = dict(
        battery_capacity_mah=35.0,
        residual_energy_mah=35.0,
        supply_voltage_v=3.0,
        sense_current_ma=25.0,
        sense_duration_ms=10.0,
        packet_kb=2.0,
        e_elec_nj_per_bit=50.0,
        e_amp_pj_per_bit_m=100.0,
        loss_exponent_n=2,
        depletion_threshold_mah=5.0,
    )
    base.update(overrides)
    return DeviceEnergyProfile(**base)


def test_sense_energy_reference_value():
    # 2 kb * 3 V * 25 mA * 10 ms = 1.5 mJ
    assert sense_energy(profile()) == pytest.approx(1.5e-3, rel=REL)


def test_transmit_energy_reference_value():
    # 2000 bits: electronics 2000*50 nJ = 1e-4 J, amplifier
    # 2000*100 pJ*10^2 = 2e-5 J
    assert transmit_energy(profile(), 10.0) == pytest.approx(1.2e-4, rel=REL)


def test_transmit_scales_with_loss_exponent():
    close = transmit_energy(profile(loss_exponent_n=3), 2.0)
    # amplifier term: 2000*100e-12*8 = 1.6e-6, electronics 1e-4
    assert close == pytest.approx(1e-4 + 1.6e-6, rel=REL)


def test_joules_to_mah_reference_value():
    # one watt-hour of energy at one volt, through the rounded constant
    assert joules_to_mah(3600.0, 1.0) == pytest.approx(1000.0008, rel=REL)


def test_per_request_drain_reference_value():
    # (1.5e-3 + 1.2e-4) J at 3 V
    assert per_request_drain_mah(profile(), 10.0) == pytest.approx(1.5000012e-4, rel=REL)


def test_transmit_rejects_nonpositive_distance():
    # NaN compares false with everything, so ``distance <= 0`` alone lets it through.
    for distance in (0.0, -3.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ModelError, match="transmit distance must be finite and positive"):
            transmit_energy(profile(), distance)


def test_drain_subtracts_and_flags_depletion():
    p = profile()
    residual, depleted = drain_mah(p.residual_energy_mah, p.depletion_threshold_mah)
    assert residual == 35.0 and not depleted
    one_request = joules_to_mah(sense_energy(p) + transmit_energy(p, 10.0), p.supply_voltage_v)
    residual, depleted = drain_mah(residual, p.depletion_threshold_mah, one_request)
    assert residual == pytest.approx(35.0 - 1.5000012e-4, rel=REL)
    assert not depleted


def test_drain_depletes_at_threshold_not_zero():
    # drop just past the 5 mAh cutoff
    joules = 0.11 / 1000.0 / 0.000277778 * 3.0
    residual, depleted = drain_mah(5.1, 5.0, joules_to_mah(joules, 3.0))
    assert depleted
    assert residual < 5.0 + 1e-9
    assert residual > 0.0


def test_drain_clamps_at_zero():
    residual, depleted = drain_mah(0.001, 5.0, joules_to_mah(1000.0, 3.0))
    assert residual == 0.0
    assert depleted


def one_at_a_time(residual, threshold, sense, transmit, limit):
    """The specification of ``drain_senses_mah``: ``drain_mah`` once per sense, up to
    ``limit`` senses or through the one that depletes the device."""
    senses = 0
    while senses < limit:
        residual, depleted = drain_mah(residual, threshold, sense, transmit)
        senses += 1
        if depleted:
            break
    return senses, residual.hex()


def drained(residual, threshold, sense, transmit, limit):
    senses, residual = drain_senses_mah(residual, threshold, sense, transmit, limit)
    return senses, residual.hex()


def half_steps(count, binade_floor):
    """``count`` halves of the grid spacing of the binade that starts at ``binade_floor``:
    a tie there when ``count`` is odd."""
    return count * binade_floor * 2.0 ** -53


@st.composite
def drains(draw):
    """A residual, two costs, a threshold and a limit.  The costs are mostly whole
    or half grid steps of the residual's binade or finer, ties included, or any
    float of that size, so that a binade holds at most about 2**scale senses."""
    exponent = draw(st.integers(-1130, 12))  # down through the subnormals
    residual = math.ldexp(draw(st.integers(2 ** 52, 2 ** 53 - 1)), exponent)
    top = math.frexp(residual)[1] if residual else -1074  # residual < 2**top
    grid = max(top - 53, -1074)
    scale = draw(st.integers(2, 11))

    def cost():
        kind = draw(st.sampled_from(["steps", "any", "zero", "odd"]))
        if kind == "steps":
            steps = draw(st.integers(0, 2 ** (54 - scale)))
            return math.ldexp(steps, grid - 1 - draw(st.integers(0, 2)))
        if kind == "any":
            return draw(st.floats(0.0, math.ldexp(1.0, top - scale)))
        if kind == "odd":  # negative, infinite, NaN or at least the residual
            return draw(st.floats())
        return 0.0

    sense, transmit = cost(), cost()
    threshold = draw(st.one_of(
        st.just(0.0),
        st.floats(0.0, residual),  # mostly off the grid
        st.integers(0, 2 ** 53 - 1).map(lambda n: math.ldexp(n, grid)).filter(
            lambda t: t <= residual),  # on it
    ))
    return residual, threshold, sense, transmit, draw(st.integers(1, 3000))


@settings(max_examples=300, deadline=None)
@given(case=drains())
def test_a_batch_drain_is_the_per_sense_drain_bit_for_bit(case):
    assert drained(*case) == one_at_a_time(*case)


@pytest.mark.parametrize("residual, threshold, sense, transmit, limit", [
    # ties: an odd number of half steps of the binade's grid, in [32, 64) or lower
    (35.0, 5.0, half_steps(2 ** 45 + 1, 32.0), 1e-3, 10 ** 4),
    (35.0, 5.0, half_steps(2 ** 45 + 1, 32.0), half_steps(2 ** 41 + 3, 32.0), 10 ** 4),
    (35.0, 5.0, 1e-3, half_steps(2 ** 46 + 5, 4.0), 10 ** 4),
    (33.0, 0.0, half_steps(1, 32.0), half_steps(3, 32.0), 5000),
    # zero costs, and costs below half a grid step
    (35.0, 5.0, 0.0, 0.0, 5000),
    (35.0, 5.0, half_steps(1, 16.0), half_steps(1, 16.0), 5000),
    (35.0, 5.0, 0.0, half_steps(0.99, 32.0), 5000),
    # costs at or above half the binade floor, and above it
    (35.0, 0.0, 16.0, 1.0, 100),
    (35.0, 0.0, 32.0, 0.0, 100),
    (63.0, 1.0, 0.5, 31.5, 100),
    (35.0, 0.0, 40.0, 0.0, 100),
    # a sense whose exact difference falls just below the binade's floor, where
    # the grid is finer: 32 - 0.3 steps rounds to 32 - 0.5 steps, not to 32
    (33.0, 0.0, math.ldexp(2 ** 40 + 0.3, -47), 0.0, 200),
    (33.0, 0.0, 2.0 ** -7, math.ldexp(0.3, -47), 200),
    # clamps to 0 with threshold 0, landing on 0 exactly and passing it
    (1.0, 0.0, 0.25, 0.25, 100),
    (1.0, 0.0, 0.3, 0.3, 100),
    (1.0, 0.0, 0.0, 0.3, 100),
    # thresholds on the grid, reached exactly, and off it
    (35.0, 34.0, 0.25, 0.25, 100),
    (35.0, 33.0, 2.0 ** -10, 2.0 ** -11, 10 ** 4),
    (35.0, 33.0 + 2.0 ** -50, 2.0 ** -10, 2.0 ** -11, 10 ** 4),
    (35.0, 5.0 + 2.0 ** -60, 2.0 ** -7, 3e-4, 10 ** 4),
    # subnormal residuals, and a residual that drains from the lowest binade into them
    (math.ldexp(1000, -1074), 0.0, math.ldexp(3, -1074), math.ldexp(5, -1074), 1000),
    (math.ldexp(1000, -1074), math.ldexp(7, -1074), math.ldexp(1, -1074), 0.0, 1000),
    (math.ldexp(2 ** 52 + 12345, -1074), 0.0, math.ldexp(2 ** 44 + 7, -1074),
     math.ldexp(2 ** 41, -1074), 1000),
    # one sense at most
    (35.0, 5.0, 0.125, 1e-3, 1),
    (35.0, 5.0, 0.0, 0.0, 1),
    # a residual that starts at or below the threshold
    (5.0, 5.0, 0.1, 0.1, 100),
    (4.0, 5.0, 0.0, 0.0, 100),
    (0.0, 0.0, 0.0, 0.0, 100),
])
def test_a_batch_drain_matches_the_per_sense_drain_on_built_cases(
        residual, threshold, sense, transmit, limit):
    case = residual, threshold, sense, transmit, limit
    assert drained(*case) == one_at_a_time(*case)


@pytest.mark.parametrize("residual, sense, transmit", [
    (35.0, 0.0, 0.0),
    (35.0, half_steps(0.5, 32.0), half_steps(0.5, 32.0)),
    # on the binade's floor, where a sense still rounds back to where it started
    (32.0, 1e-15, 0.0),
])
def test_a_drain_that_never_moves_runs_to_the_limit(residual, sense, transmit, monkeypatch):
    # Costs that round to no grid step leave the residual where it is for good.
    calls = []
    monkeypatch.setattr(energy, "drain_mah", lambda *args: calls.append(args) or drain_mah(*args))
    limit = 10 ** 6
    assert drain_senses_mah(residual, 5.0, sense, transmit, limit) == (limit, residual)
    assert len(calls) <= 1


def test_a_batch_drain_takes_a_few_steps_per_binade(monkeypatch):
    # 100,000 senses from 35 to 5 mAh cross four binades: [32, 64) down to [4, 8).
    case = 35.0, 5.0, 2.0 ** -13, 1.7e-4, 10 ** 6
    expected = one_at_a_time(*case)
    calls = []
    monkeypatch.setattr(energy, "drain_mah", lambda *args: calls.append(args) or drain_mah(*args))
    assert drained(*case) == expected
    assert expected[0] > 100_000 and len(calls) <= 2 * 4


def test_lifetime_closed_form_counts_whole_requests():
    # budget sits halfway between 200 and 201 requests
    per = per_request_drain_mah(profile(), 10.0)
    p = profile(battery_capacity_mah=5.0 + 200.5 * per,
                residual_energy_mah=5.0 + 200.5 * per)
    assert lifetime_closed_form(p, 10.0, 3) == 600


def test_lifetime_closed_form_rounds_down():
    per = per_request_drain_mah(profile(), 10.0)
    p = profile(battery_capacity_mah=5.0 + 200.7 * per,
                residual_energy_mah=5.0 + 200.7 * per)
    assert lifetime_closed_form(p, 10.0, 4) == 800


def test_lifetime_closed_form_uses_residual_not_capacity():
    per = per_request_drain_mah(profile(), 10.0)
    p = profile(battery_capacity_mah=35.0, residual_energy_mah=5.0 + 10.5 * per)
    assert lifetime_closed_form(p, 10.0, 2) == 20


@pytest.mark.parametrize("interval", [1.5, 2.0, True, "3", None],
                         ids=["fraction", "float", "bool", "text", "none"])
def test_lifetime_closed_form_refuses_an_interval_that_is_not_a_whole_number(interval):
    # 1.5 gave 598.5 ticks and True ran as one tick.
    refused = f"^interval must be a whole number of ticks, got {re.escape(repr(interval))}$"
    with pytest.raises(ModelError, match=refused):
        lifetime_closed_form(profile(), 10.0, interval)


@pytest.mark.parametrize("interval", [0, -3])
def test_lifetime_closed_form_refuses_an_interval_below_one_tick(interval):
    with pytest.raises(ModelError, match=f"^interval must be at least 1 tick: {interval}$"):
        lifetime_closed_form(profile(), 10.0, interval)


@pytest.mark.parametrize("voltage", [True, "3.0", None], ids=["bool", "text", "none"])
def test_joules_to_mah_refuses_a_voltage_that_is_not_a_number(voltage):
    # True converted as 1 V, and text raised a bare TypeError.
    refused = f"^voltage must be a number, got {re.escape(repr(voltage))}$"
    with pytest.raises(ModelError, match=refused):
        joules_to_mah(1.0, voltage)


@pytest.mark.parametrize("voltage", [0.0, -1.0, math.nan])
def test_joules_to_mah_refuses_a_voltage_that_is_not_positive(voltage):
    with pytest.raises(ModelError, match=f"^voltage must be positive: {voltage}$"):
        joules_to_mah(1.0, voltage)


def test_drain_monotonic_in_distance():
    rnd = random.Random(20260819)
    for _ in range(200):
        p = profile(
            packet_kb=rnd.uniform(0.5, 8.0),
            e_elec_nj_per_bit=rnd.uniform(10.0, 100.0),
            e_amp_pj_per_bit_m=rnd.uniform(10.0, 200.0),
            loss_exponent_n=rnd.choice([2, 3, 4]),
            supply_voltage_v=rnd.uniform(1.8, 5.0),
        )
        d1 = rnd.uniform(1.0, 40.0)
        d2 = d1 + rnd.uniform(0.1, 40.0)
        assert per_request_drain_mah(p, d2) > per_request_drain_mah(p, d1)


def test_mah_conversion_is_linear():
    rnd = random.Random(7)
    for _ in range(100):
        joules = rnd.uniform(1e-6, 10.0)
        volts = rnd.uniform(1.0, 12.0)
        a = joules_to_mah(joules, volts)
        b = joules_to_mah(2.0 * joules, volts)
        assert b == pytest.approx(2.0 * a, rel=1e-12)
        assert a == pytest.approx(1000.0 * joules * 0.000277778 / volts, rel=1e-12)


def test_profile_invariants():
    with pytest.raises(Exception):
        profile(battery_capacity_mah=0.0)
    with pytest.raises(Exception):
        profile(residual_energy_mah=40.0)  # above capacity
    with pytest.raises(Exception):
        profile(depletion_threshold_mah=35.0)  # not below capacity
    with pytest.raises(Exception):
        profile(supply_voltage_v=0.0)

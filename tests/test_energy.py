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

import pytest

from iotdraw import (
    DeviceEnergyProfile, joules_to_mah, lifetime_closed_form, per_request_drain_mah,
    sense_energy, transmit_energy,
)
from iotdraw.energy import drain_mah

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
        loss_exponent_n=2.0,
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
    close = transmit_energy(profile(loss_exponent_n=3.0), 2.0)
    # amplifier term: 2000*100e-12*8 = 1.6e-6, electronics 1e-4
    assert close == pytest.approx(1e-4 + 1.6e-6, rel=REL)


def test_joules_to_mah_reference_value():
    # one watt-hour of energy at one volt, through the rounded constant
    assert joules_to_mah(3600.0, 1.0) == pytest.approx(1000.0008, rel=REL)


def test_per_request_drain_reference_value():
    # (1.5e-3 + 1.2e-4) J at 3 V
    assert per_request_drain_mah(profile(), 10.0) == pytest.approx(1.5000012e-4, rel=REL)


def test_transmit_rejects_nonpositive_distance():
    with pytest.raises(Exception):
        transmit_energy(profile(), 0.0)


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


def test_drain_monotonic_in_distance():
    rnd = random.Random(20260819)
    for _ in range(200):
        p = profile(
            packet_kb=rnd.uniform(0.5, 8.0),
            e_elec_nj_per_bit=rnd.uniform(10.0, 100.0),
            e_amp_pj_per_bit_m=rnd.uniform(10.0, 200.0),
            loss_exponent_n=float(rnd.choice([2, 3, 4])),
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

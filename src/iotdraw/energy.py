"""First-order energy accounting for battery-powered devices.

Sensing cost is the supply voltage times the sense current over the
sense duration, scaled by the packet size in kilobits; transmission cost
is the radio-electronics energy per bit plus the amplifier energy per
bit scaled by distance to the path-loss exponent.  All inputs keep their
customary units (kb, V, mA, ms, nJ/bit, pJ/bit/m^n) and are converted to
SI inline, so every figure in a profile reads exactly like a datasheet.

Battery charge is tracked in mAh.  Joules convert through watt-hours
using the rounded constant 0.000277778 Wh/J; the rounding is kept
deliberately so that results line up digit-for-digit with hand
calculations done with the same constant.
"""

from __future__ import annotations

import math

from .model import DeviceEnergyProfile, ModelError

WH_PER_JOULE = 0.000277778


def sense_energy(profile: DeviceEnergyProfile) -> float:
    """Energy in joules for one sensing operation of ``packet_kb`` kilobits."""
    return (profile.packet_kb
            * profile.supply_voltage_v
            * (profile.sense_current_ma * 1e-3)
            * (profile.sense_duration_ms * 1e-3))


def transmit_energy(profile: DeviceEnergyProfile, distance_m: float) -> float:
    """Energy in joules to radio one packet over ``distance_m`` meters."""
    if distance_m <= 0:
        raise ModelError(f"transmit distance must be positive: {distance_m}")
    bits = profile.packet_kb * 1000.0
    return (bits * (profile.e_elec_nj_per_bit * 1e-9)
            + bits * distance_m ** profile.loss_exponent_n * (profile.e_amp_pj_per_bit_m * 1e-12))


def joules_to_mah(joules: float, voltage_v: float) -> float:
    """Convert joules to milliamp-hours at the given supply voltage."""
    if voltage_v <= 0:
        raise ModelError(f"voltage must be positive: {voltage_v}")
    return 1000.0 * (joules * WH_PER_JOULE) / voltage_v


def drain_mah(residual_mah: float, threshold_mah: float,
              *costs_mah: float) -> tuple[float, bool]:
    """Subtract expenditures in mAh one at a time, clamping at empty.

    Returns the residual charge and whether the device is depleted: it
    is once the residual falls to the depletion threshold or below, and
    from then on its service is considered unavailable.
    """
    for cost in costs_mah:
        residual_mah = residual_mah - cost
        residual_mah = residual_mah if residual_mah > 0.0 else 0.0
    return residual_mah, residual_mah <= threshold_mah


def per_request_drain_mah(profile: DeviceEnergyProfile, distance_m: float) -> float:
    """Charge consumed by one full request: sense once, transmit once."""
    total = sense_energy(profile) + transmit_energy(profile, distance_m)
    return joules_to_mah(total, profile.supply_voltage_v)


def lifetime_closed_form(profile: DeviceEnergyProfile, distance_m: float,
                         interval_ticks: int) -> int | None:
    """Predicted ticks until depletion for one request every ``interval_ticks``.

    Counts how many whole requests fit into the charge budget above the
    depletion threshold, then scales by the request interval.  Returns
    None when a request costs nothing, since the lifetime is unbounded
    then.  A simulated run lands within one interval of this figure,
    except where the budget is within rounding of a whole number of
    requests: the run subtracts each cost in turn, so it can land one
    interval later still.
    """
    if interval_ticks < 1:
        raise ModelError(f"interval must be at least 1 tick: {interval_ticks}")
    per_request = per_request_drain_mah(profile, distance_m)
    if per_request <= 0.0:
        return None
    budget = profile.residual_energy_mah - profile.depletion_threshold_mah
    return interval_ticks * math.floor(budget / per_request)

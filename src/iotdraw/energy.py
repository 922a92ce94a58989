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

``drain_mah`` is the drain's specification: each cost is subtracted in
turn and the residual clamped at 0.  ``drain_senses_mah`` runs many
senses of the same two costs and gives the same count and the same
residual, bit for bit, in a few steps per binade of the residual rather
than one per sense: inside a binade, doubles lie on a grid of fixed
spacing, so each sense moves the residual the same whole number of
grid steps (IEEE 754-2019 section 4.3.1; Goldberg, ACM Computing
Surveys, 1991).
"""

from __future__ import annotations

import math

from .model import DeviceEnergyProfile, ModelError, _number, _require_whole

WH_PER_JOULE = 0.000277778


def sense_energy(profile: DeviceEnergyProfile) -> float:
    """Energy in joules for one sensing operation of ``packet_kb`` kilobits."""
    return (profile.packet_kb
            * profile.supply_voltage_v
            * (profile.sense_current_ma * 1e-3)
            * (profile.sense_duration_ms * 1e-3))


def require_distance(distance_m: float) -> None:
    """Refuse a transmit distance that is not a finite, positive number."""
    if not (_number(distance_m) and 0.0 < distance_m < math.inf):  # NaN fails it too
        raise ModelError(f"transmit distance must be finite and positive: {distance_m!r}")


def transmit_energy(profile: DeviceEnergyProfile, distance_m: float) -> float:
    """Energy in joules to radio one packet over ``distance_m`` meters."""
    require_distance(distance_m)
    bits = profile.packet_kb * 1000.0
    return (bits * (profile.e_elec_nj_per_bit * 1e-9)
            + bits * distance_m ** profile.loss_exponent_n * (profile.e_amp_pj_per_bit_m * 1e-12))


def joules_to_mah(joules: float, voltage_v: float) -> float:
    """Convert joules to milliamp-hours at the given supply voltage."""
    if not _number(voltage_v):
        raise ModelError(f"voltage must be a number, got {voltage_v!r}")
    if not voltage_v > 0:  # NaN fails it too
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


def _units(cost: float, exponent: int) -> tuple[int, int]:
    """``cost`` in units of ``2**exponent``, rounded to the nearest, and the mask that
    rounds a difference to even: ``~1`` when the cost lies exactly halfway between
    two counts, the lower being the count, else ``-1``."""
    scaled = math.ldexp(cost, -exponent)
    whole = math.floor(scaled)
    fraction = scaled - whole
    return (whole + 1, -1) if fraction > 0.5 else (whole, ~1 if fraction == 0.5 else -1)


def drain_senses_mah(residual_mah: float, threshold_mah: float, sense_mah: float,
                     transmit_mah: float, limit: int) -> tuple[int, float]:
    """Run up to ``limit`` senses, each ``drain_mah(residual, threshold, sense,
    transmit)``, through the one that depletes the device: how many ran, and
    the residual after them, bit for bit, in a few steps per binade.

    The doubles of a binade ``[2**(e-1), 2**e)`` lie on a grid of spacing
    ``u = 2**(e-53)``.  While the exact difference stays in the binade,
    subtracting a cost ``c`` from a grid value moves it ``round(c/u)`` steps
    down, or, when ``c/u`` ends in exactly one half, to whichever of its two
    neighbours has an even significand (IEEE 754 round half to even).  So
    from the second sense in a binade on, each sense moves the residual the
    same number of steps, and the senses that stay in the binade and above
    the threshold are taken in one step.  The sense that leaves the binade or
    depletes the device runs as ``drain_mah`` itself, and so does any sense
    with a cost that is negative, not finite or not below the residual; a
    sense that leaves the residual unchanged leaves it so for good.  Below
    ``2**-1022`` subtraction is exact and the grid is finer than the doubles,
    which changes no result.
    """
    senses = 0
    while senses < limit:
        if (0.0 <= sense_mah < residual_mah and 0.0 <= transmit_mah < residual_mah
                and threshold_mah < residual_mah < math.inf):
            exponent = math.frexp(residual_mah)[1] - 53
            sense, sense_even = _units(sense_mah, exponent)
            transmit, transmit_even = _units(transmit_mah, exponent)
            # ``first`` after one sense; a tie's parity is settled after it
            units = int(math.ldexp(residual_mah, -exponent))
            first = (((units - sense) & sense_even) - transmit) & transmit_even
            step = first - ((((first - sense) & sense_even) - transmit) & transmit_even)
            # the lowest value a sense may leave in the binade and above the threshold
            bar = math.ldexp(threshold_mah, -exponent) if threshold_mah > 0.0 else 0.0
            low = math.floor(bar) + 1 if bar > 1 << 52 else (1 << 52) + 1
            if first >= low:
                run = limit - senses
                if step:
                    run = min(run, (first - low) // step + 1)
                residual_mah = math.ldexp(first - (run - 1) * step, exponent)
                senses += run
                if senses == limit:
                    break
                # the next sense would leave the binade or deplete the device
        before = residual_mah
        residual_mah, depleted = drain_mah(residual_mah, threshold_mah, sense_mah, transmit_mah)
        senses += 1
        if depleted:
            break
        if residual_mah == before:  # so it stays: the drain depends on the residual alone
            return limit, residual_mah
    return senses, residual_mah


def transmit_drain_mah(profile: DeviceEnergyProfile, distance_m: float) -> float:
    """Charge consumed by one transmission over ``distance_m`` meters."""
    return joules_to_mah(transmit_energy(profile, distance_m), profile.supply_voltage_v)


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
    _require_whole(interval_ticks, "interval", "ticks")
    if interval_ticks < 1:
        raise ModelError(f"interval must be at least 1 tick: {interval_ticks}")
    per_request = per_request_drain_mah(profile, distance_m)
    if per_request <= 0.0:
        return None
    budget = profile.residual_energy_mah - profile.depletion_threshold_mah
    return interval_ticks * math.floor(budget / per_request)

"""The benchmark's workloads: their inputs, CLI commands and output oracles.

Every workload is built from the workload seed alone.  An op runs the
workload's commands through ``iotdraw.cli.main``; ``check`` then returns
the list of ways the op's output is wrong (empty when it is right).  At
``DEFAULT_SEED`` the stdout and every written file must match the
SHA-256 digests in ``GOLDEN``, recorded from the seed commit; at any
seed the seed-independent invariants must hold as well.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
from pathlib import Path

from scale_model import generate

DEFAULT_SEED = 42
PADOVA_MODEL = "models/padova_fw.iot"
FRESHNESS_MODEL = "models/freshness_demo.iot"
PADOVA_LOG_TICKS = 200_000  # a 30 MB log: enough for the log to dominate peak memory
SWEEP_MAX_AGES = (0, 1, 2, 4)
SWEEP_ROUNDS = 30
SCALE_FREE = 14  # 2^14 candidate placements
SCALE_BLOCKED = 2  # 2^12 of them feasible

GOLDEN = {
    "padova_sim": {
        "stdout": "73fcce59bf40477768869b97cde53193f32c8cf5c0166c3552425e7013c571d8"},
    "padova_log": {
        "stdout": "4110d13463f6a0dd87cf66876db9478bf8529b31ef1d4a81c727ee35cef65ce4",
        "padova_log.csv": "de2c3a4122a3cceebcc11883318226360ccf9a7533cd076ad617a7b62837aac9"},
    "deploy_scale": {
        "stdout": "4ebc8d8b36de46592ee8ab580e8d8ed24e4506d6ea4bd07919733fb8ecb48b67",
        "scenarios.csv": "c9462f70b260400bc7c6cfaee0f4c31bde526f544ffafa92861fd1826a67bf9a"},
    "freshness_sweep": {
        "stdout": "34a0324725fbf73c6eedafdf655795c75e8634045504fa469be73587202a4e9b"},
}


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# SplitMix64 and seed derivation as pinned in docs/determinism.md, kept
# apart from the program's own copy so the oracle does not trust it.
_MASK = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _uniform_stream(seed: int, lo: float, hi: float):
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        yield lo + (hi - lo) * (_mix64(state) / _MASK)


def _derive_seed(master: int, *parts) -> int:
    state = _mix64(master & _MASK)
    for part in parts:
        if isinstance(part, str):
            token = 0xCBF29CE484222325
            for byte in part.encode("utf-8"):
                token = (token ^ byte) * 0x100000001B3 & _MASK
        else:
            token = part & _MASK
        state = _mix64(state ^ token)
    return state


def _replace_once(text: str, old: str, new: str) -> str:
    if text.count(old) != 1:
        raise ValueError(f"expected exactly one {old!r} in the model")
    return text.replace(old, new)


def _counts(line: str) -> dict[str, int]:
    if not line.startswith("events: "):
        return {}
    return {k: int(v) for k, v in (kv.split("=") for kv in line[len("events: "):].split())}


class Workload:
    name = ""
    outputs: tuple[str, ...] = ()  # file names the op writes into the work directory

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return f"{self.workdir}/{name}"

    def setup(self) -> dict:
        """Write the inputs; return the workload sizes."""
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Work the oracle needs once per process; not part of set-up time."""

    def invariants(self, stdout: str) -> list[str]:
        raise NotImplementedError

    def work_units(self, stdout: str) -> float:
        """Simulated ticks, or candidate placements, that one op covers."""
        raise NotImplementedError

    def check(self, stdout: str) -> list[str]:
        problems = self.invariants(stdout)
        if self.seed == DEFAULT_SEED:
            golden = GOLDEN[self.name]
            digests = {"stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
            for name in self.outputs:
                digests[name] = sha256_file(self.path(name))
            problems += [f"{key} digest {digests[key]} differs from the seed commit's"
                         for key in golden if digests[key] != golden[key]]
        return problems


class PadovaSim(Workload):
    """``simulate`` on the flood-warning model; the seed replaces the sensor's stream seed."""

    name = "padova_sim"
    horizon = 1_051_200
    sensor, threshold, lo, hi = "water_sensor_1", 20.0, 0.0, 40.0  # from the model file

    def setup(self) -> dict:
        text = Path(PADOVA_MODEL).read_text(encoding="utf-8")
        text = _replace_once(text, "data = uniform(0, 40) seed 42",
                             f"data = uniform(0, 40) seed {self.seed}")
        text = _replace_once(text, "simulation_time = 1051200",
                             f"simulation_time = {self.horizon}")
        Path(self.path("padova.iot")).write_text(text, encoding="utf-8")
        return {"model": PADOVA_MODEL, "simulation_ticks": self.horizon + 1}

    def commands(self) -> list[list[str]]:
        return [["simulate", self.path("padova.iot"), "--seed", str(self.seed)]]

    def prepare(self) -> None:
        from iotdraw.analysis import predicted_lifetime
        from iotdraw.modelfmt import load_model
        self.predicted = predicted_lifetime(load_model(self.path("padova.iot")), self.sensor)
        self._alarms: dict[int, int] = {}

    def alarms(self, samples: int) -> int:
        """Alarms the first ``samples`` readings raise; drawn once per count."""
        if samples not in self._alarms:
            stream = _uniform_stream(self.seed, self.lo, self.hi)
            self._alarms[samples] = sum(next(stream) > self.threshold for _ in range(samples))
        return self._alarms[samples]

    def work_units(self, stdout: str) -> float:
        return self.horizon + 1

    def invariants(self, stdout: str) -> list[str]:
        lines = stdout.splitlines()
        if len(lines) < 5:
            return [f"short output: {stdout!r}"]
        problems = []
        if lines[0] != f"simulation 'padova_fw': ran ticks 0..{self.horizon} of {self.horizon}":
            problems.append(f"bad header {lines[0]!r}")
        counts = _counts(lines[1])
        requests = (self.horizon + 1) // 2  # interval 2 fires at ticks 1, 3, 5, ...
        if counts.get("PeriodicRequest") != requests:
            problems.append(f"PeriodicRequest {counts.get('PeriodicRequest')} != {requests}")
        sensor = next((l for l in lines if l.startswith(f"device {self.sensor}:")), "")
        if "depleted at tick" in sensor:
            depleted = int(sensor.split("depleted at tick ")[1].split()[0])
            if abs(depleted - self.predicted) > 2:
                problems.append(f"depleted at {depleted}, closed form {self.predicted}")
            samples, depletions = (depleted + 1) // 2, 1
        else:
            samples, depletions = requests, 0
            if self.horizon > self.predicted + 2:
                problems.append("sensor outlived its closed-form lifetime")
        alarms = self.alarms(samples)
        expected = {"PeriodicRequest": requests, "SenseSample": samples,
                    "EventRequest": alarms, "Actuation": alarms, "ModuleOutput": 1}
        if depletions:
            expected["DeviceDepleted"] = 1
        if counts != expected:
            problems.append(f"counts {counts} != {expected}")
        if "device alarm_1: residual 1000 mAh" not in lines:
            problems.append("alarm battery changed")
        return problems


class PadovaLog(PadovaSim):
    """The same run over a shorter horizon, writing every event to a CSV log."""

    name = "padova_log"
    horizon = PADOVA_LOG_TICKS
    outputs = ("padova_log.csv",)

    def commands(self) -> list[list[str]]:
        return [super().commands()[0] + ["--log", self.path("padova_log.csv")]]

    def invariants(self, stdout: str) -> list[str]:
        problems = super().invariants(stdout)
        log = self.path("padova_log.csv")
        if not stdout.endswith(f"wrote {log}\n"):
            problems.append("log not reported as written")
        with open(log, newline="", encoding="utf-8") as handle:
            rows = sum(1 for _ in csv.reader(handle))
        events = sum(_counts(stdout.splitlines()[1]).values())
        if rows != events + 1:
            problems.append(f"log has {rows} rows for {events} events")
        return problems


class DeployScale(Workload):
    """``validate`` then ``deployments --rank response-time --csv`` on a generated space."""

    name = "deploy_scale"
    outputs = ("scenarios.csv",)

    def setup(self) -> dict:
        self.model = generate(self.seed, SCALE_FREE, SCALE_BLOCKED)
        Path(self.path("deploy_scale.iot")).write_text(self.model.text, encoding="utf-8")
        return {"free_components": SCALE_FREE, "blocked_alternates": SCALE_BLOCKED,
                "candidates": self.model.candidates, "feasible": self.model.feasible}

    def commands(self) -> list[list[str]]:
        model = self.path("deploy_scale.iot")
        return [["validate", model],
                ["deployments", model, "--rank", "response-time",
                 "--csv", self.path("scenarios.csv")]]

    def work_units(self, stdout: str) -> float:
        return self.model.candidates

    def invariants(self, stdout: str) -> list[str]:
        m = self.model
        lines = stdout.splitlines()
        problems = []
        if lines[:1] != [f"model '{m.name}': ok"]:
            problems.append(f"validation: {lines[:1]}")
        if lines[-2:] != [f"{m.feasible} deployment scenario(s)",
                          f"wrote {self.path('scenarios.csv')}"]:
            problems.append(f"summary: {lines[-2:]}")
        with open(self.path("scenarios.csv"), newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        if len(rows) != m.feasible or len(lines) != m.feasible + 3:
            problems.append(f"{len(rows)} CSV rows, {len(lines)} lines for {m.feasible} feasible")
            return problems
        times = [float(row[3]) for row in rows]
        if not math.isclose(times[0], m.best_response_ms, rel_tol=1e-9):
            problems.append(f"best response {times[0]} != closed form {m.best_response_ms}")
        if any(a > b for a, b in zip(times, times[1:])):
            problems.append("scenarios not ordered by response time")
        blocked = set(m.blocked_hosts)
        if any(pair.split("=")[1] in blocked for row in rows for pair in row[1].split(";")):
            problems.append("a scenario uses an infeasible host")
        return problems


class FreshnessSweep(Workload):
    """``lifetime --sweep-max-age`` on the one-sensor model: 120 runs that halt on depletion."""

    name = "freshness_sweep"
    device = "level_sensor_1"

    def setup(self) -> dict:
        return {"model": FRESHNESS_MODEL, "max_ages": list(SWEEP_MAX_AGES),
                "rounds": SWEEP_ROUNDS, "runs": SWEEP_ROUNDS * len(SWEEP_MAX_AGES)}

    def commands(self) -> list[list[str]]:
        return [["lifetime", FRESHNESS_MODEL, "--device", self.device,
                 "--sweep-max-age", ",".join(map(str, SWEEP_MAX_AGES)),
                 "--rounds", str(SWEEP_ROUNDS), "--seed", str(self.seed)]]

    def prepare(self) -> None:
        from iotdraw.analysis import predicted_lifetime
        from iotdraw.modelfmt import load_model
        model = load_model(FRESHNESS_MODEL)
        # The sweep's per-round distances, drawn as docs/determinism.md pins them.
        distances = [next(_uniform_stream(_derive_seed(self.seed, "distance", r), 1.0, 50.0))
                     for r in range(SWEEP_ROUNDS)]
        self.base = statistics.fmean(predicted_lifetime(model, self.device, distance_m=d)
                                     for d in distances)

    def _means(self, stdout: str) -> dict[int, float]:
        means = {}
        for line in stdout.splitlines()[1:]:
            key, _, rest = line.strip().partition(": mean ")
            means[int(key.split("=")[1])] = float(rest.split()[0])
        return means

    def work_units(self, stdout: str) -> float:
        # A run that depletes at tick t simulates ticks 0..t; means print to 0.1 tick.
        return sum(SWEEP_ROUNDS * (mean + 1) for mean in self._means(stdout).values())

    def invariants(self, stdout: str) -> list[str]:
        lines = stdout.splitlines()
        want = (f"lifetime of {self.device!r} against max_age_ticks "
                f"({SWEEP_ROUNDS} rounds per value)")
        if lines[:1] != [want] or len(lines) != 1 + len(SWEEP_MAX_AGES) or "(" in "".join(lines[1:]):
            return [f"unexpected sweep output {stdout!r}"]
        problems = []
        means = self._means(stdout)
        for max_age, mean in means.items():
            # Caching stretches the effective interval to max_age + 1 ticks.
            interval = max_age + 1
            expected = interval * self.base
            if abs(mean - expected) > interval + 0.05:
                problems.append(f"max_age {max_age}: mean {mean} vs closed form {expected:.1f}")
        if sorted(means) != sorted(SWEEP_MAX_AGES):
            problems.append("sweep rows do not match the requested values")
        return problems


WORKLOADS = {w.name: w for w in (PadovaSim, PadovaLog, DeployScale, FreshnessSweep)}

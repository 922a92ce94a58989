"""Record semantics: each record class the package exports behaves as a frozen dataclass.

Equality and hashing follow the fields in order, ``repr`` is the dataclass
format, ``dataclasses.fields`` and ``dataclasses.replace`` work, fields
cannot be assigned or deleted, and copies compare equal.  Every instance
comes from the shipped models or from what the package makes of them.
"""

import copy
import dataclasses
import functools
import inspect
import pickle

import pytest

from iotdraw import (
    ConditionExpr, ConstantSource, EventRequest, FreshnessPolicy, SimulationState, analysis,
    diagnostics, engine, evaluate_scenarios, extmod, initial_state, lifetime_sweep,
    load_model, model, parse_model, run_simulation, single_source_routes, take_snapshot,
    TraceSource, task_binding, validate, validate_model,
)
from iotdraw.model import ExecutionModuleDecl, ModelError
from iotdraw.validate import dependency_edges

from conftest import MODELS_DIR

MODULES = (model, diagnostics, engine, analysis, validate, extmod)


def record_classes() -> set[type]:
    # SimulationState is the state of one run, which changes as it runs: not a record.
    return {cls for module in MODULES for name, cls in vars(module).items()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and not name.startswith("_") and dataclasses.is_dataclass(cls)
            and cls is not SimulationState}


def _reachable(obj):
    """Every record reachable from ``obj`` through fields, tuples and frozensets."""
    if dataclasses.is_dataclass(obj):
        yield obj
        for field in dataclasses.fields(obj):
            yield from _reachable(getattr(obj, field.name))
    elif isinstance(obj, (tuple, frozenset)):
        for item in obj:
            yield from _reachable(item)


@functools.cache
def samples() -> dict[type, tuple]:
    """Two unequal instances of each record class, the first from a shipped model."""
    padova_text = (MODELS_DIR / "padova_fw.iot").read_text(encoding="utf-8")
    padova = load_model(MODELS_DIR / "padova_fw.iot")
    fresh = load_model(MODELS_DIR / "freshness_demo.iot")
    traced = parse_model((MODELS_DIR / "freshness_demo.iot").read_text(encoding="utf-8")
                         .replace("uniform(0, 30) seed 42", "trace [4, 5.5]"))
    found: list = []
    for root in (padova, fresh, traced):
        found += _reachable(root)
    condition = ConditionExpr("level_cm", "<=", 5.5)
    found += [ConstantSource(1.5), ExecutionModuleDecl("Other", code="custom"), condition,
              EventRequest("SoundAlarm", condition), TraceSource((1.0,))]
    for text in (padova_text + "\nbogus", padova_text.replace('cpu_ghz = 3', 'cpu_ghz = 0')):
        found += parse_model(text, "padova_fw.iot")  # a Diagnostic, with its SourceSpan
    found += [d.span for d in found if isinstance(d, diagnostics.Diagnostic)]
    try:
        dataclasses.replace(padova, platforms=padova.platforms[:2] * 2)
    except ModelError as refused:
        found += refused.issues
    found += [validate_model(padova, "padova_fw.iot"), validate_model(traced)]
    for task in ("MonitorWater", "SoundAlarm"):
        binding = task_binding(padova, task)
        found += [binding, binding.provider]
    found += dependency_edges(padova)
    found += single_source_routes(padova, "Michigan").values()
    found += evaluate_scenarios(padova)[:2]
    for rounds in (2, 3):
        table = lifetime_sweep(fresh, "level_sensor_1", max_ages=[0, 2], rounds=rounds)
        found += [table, *table.rows]
    found += [FreshnessPolicy(0), FreshnessPolicy(2)]
    found += [run_simulation(fresh, sink=None), run_simulation(fresh, FreshnessPolicy(2), sink=None)]
    found += [take_snapshot(initial_state(padova)), take_snapshot(initial_state(fresh))]
    pairs: dict[type, list] = {}
    for record in found:
        kept = pairs.setdefault(type(record), [])
        if len(kept) < 2 and all(record != other for other in kept):
            kept.append(record)
    return {cls: tuple(kept) for cls, kept in pairs.items()}


def test_every_record_class_has_two_samples():
    assert {cls: len(samples()[cls]) for cls in record_classes()} == dict.fromkeys(
        record_classes(), 2)


@pytest.mark.parametrize("cls", sorted(record_classes(), key=lambda cls: cls.__qualname__),
                         ids=lambda cls: cls.__qualname__)
def test_a_record_behaves_as_a_frozen_dataclass(cls, monkeypatch):
    record, other = samples()[cls]
    fields = dataclasses.fields(cls)
    names = [field.name for field in fields]
    assert dataclasses.is_dataclass(record)
    assert names == list(cls.__annotations__) == list(cls.__match_args__)
    values = tuple(getattr(record, name) for name in names)

    # Equality and hashing follow the fields in order.
    twin = cls(*values)
    assert twin == record and not twin != record and twin is not record
    assert record != other and not record == other
    assert record != values and not record == values
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected == hash(twin)

    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__qualname__}({shown})"

    parameters = inspect.signature(cls).parameters
    assert list(parameters) == names
    for field in fields:
        default = parameters[field.name].default
        if field.default is not dataclasses.MISSING:
            assert default is field.default
        elif field.default_factory is not dataclasses.MISSING:
            assert repr(default) == "<factory>"
        else:
            assert default is inspect.Parameter.empty

    # ``replace`` builds through the constructor, so its checks run again.
    checked = []
    if "__post_init__" in vars(cls):
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self: checked.append(self) or check(self))
    same = dataclasses.replace(record)
    assert same == record and same is not record
    changes = {name: getattr(other, name) for name in names
               if getattr(record, name) != getattr(other, name)}
    changed = dataclasses.replace(record, **changes)
    assert changed == other and changed is not other
    if "__post_init__" in vars(cls):
        assert checked == [same, changed]
    monkeypatch.undo()

    for name in [*names, "not_a_field"]:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field {name!r}$"):
            setattr(record, name, getattr(other, name, None))
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field {name!r}$"):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values

    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert copied == record and copied is not record and type(copied) is cls

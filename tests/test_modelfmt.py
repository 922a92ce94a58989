"""Model text parsing, diagnostics, and canonical serialization."""

import math
import re
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from iotdraw import load_model, modelfmt, parse_model, serialize_model
from iotdraw.diagnostics import Diagnostic
from iotdraw.model import (
    CONDITION_OPS, FIELD_KINDS, Application, Component, ConditionExpr, ConstantSource,
    DeviceEnergyProfile, EventRequest, ExecutionModuleDecl, GeoLocation, IoTSystemModel,
    MessageField, MessageType, ModelError, NetworkLink, PeriodicRequest, PhysicalEntity,
    Platform, PlatformTier, ServiceContract, ServicePort, SimConfig, Task, TaskKind,
    TraceSource, UniformSource,
)
from iotdraw.modelfmt import condition_from_text

from conftest import ALARMED_TEMPLATE, MODELS_DIR, tiny_text


def parsed(text):
    model = parse_model(text, "<test>")
    assert not isinstance(model, list), [d.render() for d in model]
    return model


def diagnostics(text):
    result = parse_model(text, "<test>")
    assert isinstance(result, list) and result
    return result


def test_parse_minimal_system():
    model = parsed('system "m" { simulation_time = 5 }')
    assert model.name == "m"
    assert model.sim_config.simulation_time == 5
    assert model.sim_config.tick_seconds == 60.0  # default


def test_missing_system_block():
    diags = diagnostics('entity "e" { location = (1, 2) }')
    assert "system" in diags[0].message


def test_unknown_key_reports_position():
    diags = diagnostics('system "m" {\n  wibble = 3\n}')
    assert diags[0].span.line == 2
    assert "wibble" in diags[0].message
    assert diags[0].code == "syntax"


def test_duplicate_scalar_key_rejected():
    diags = diagnostics('system "m" { simulation_time = 1 simulation_time = 2 }')
    assert "simulation_time" in diags[0].message


def test_comments_and_number_forms():
    model = parsed("""
system "m" {  # trailing comment
  simulation_time = 10
  tick_seconds = 1.5e2  # scientific notation
}
# a lone comment line
""")
    assert model.sim_config.tick_seconds == 150.0


def test_build_errors_come_back_as_diagnostics():
    text = tiny_text().replace('attached_to = "post_1"', 'attached_to = "ghost"')
    diags = diagnostics(text)
    assert any(d.code == "build" and "ghost" in d.message for d in diags)


def test_trace_and_uniform_sources():
    model = parsed(tiny_text(data="trace [1, 2, 3]"))
    source = model.platform("probe_1").data_source
    assert isinstance(source, TraceSource)
    assert source.values == (1.0, 2.0, 3.0)

    model = parsed(tiny_text(data="uniform(0, 30) seed 42"))
    source = model.platform("probe_1").data_source
    assert isinstance(source, UniformSource)
    assert (source.lo, source.hi, source.seed) == (0.0, 30.0, 42)

    model = parsed(tiny_text(data="uniform(-5, 5)"))
    source = model.platform("probe_1").data_source
    assert source.seed is None
    assert source.lo == -5.0


def test_string_must_stay_on_one_line():
    diags = diagnostics('system "m\n" {}')
    assert diags[0].code == "syntax"


def test_unterminated_block():
    diags = diagnostics('system "m" { simulation_time = 1 ')
    assert diags[0].code == "syntax"


def test_interval_must_be_integer():
    diags = diagnostics(tiny_text().replace("interval_ticks = 2",
                                            "interval_ticks = 2.5"))
    assert any("integer" in d.message for d in diags)


@pytest.mark.parametrize("text, message, column", [
    (tiny_text(data="uniform(5, 1)"), "uniform bounds out of order", 10),
    (tiny_text(data="trace []"), "trace source needs at least one value", 10),
    ('system "m" {\n  execution_module { }\n}', "needs a module name", 20),
    (tiny_text().replace('task "ReadProbe"', 'task ""'), "task needs a name", 8),
], ids=["uniform-bounds", "empty-trace", "no-module", "unnamed-task"])
def test_rejected_values_come_back_as_diagnostics(text, message, column):
    diags = diagnostics(text)
    assert diags[0].code == "syntax"
    assert message in diags[0].message
    assert diags[0].span.column == column


@pytest.mark.parametrize("number", ["1e999", "-1e999"])
def test_numbers_too_large_for_a_float_are_rejected(number):
    text = tiny_text().replace("latency_ms = 2", f"latency_ms = {number}")
    diags = diagnostics(text)
    assert diags[0].code == "syntax" and "too large" in diags[0].message
    line = text.splitlines().index(f"  latency_ms = {number}") + 1
    assert (diags[0].span.line, diags[0].span.column) == (line, 16)  # the number token

    event = ALARMED_TEMPLATE.format(sim_time=10, interval=1, capacity=100, rng_seed=0,
                                    data="trace [30, 5]", condition=f"level > {number}")
    diags = diagnostics(event)
    assert diags[0].code == "syntax" and "threshold must be finite" in diags[0].message
    with pytest.raises(ModelError, match="threshold must be finite"):
        condition_from_text(f"level > {number}")


def test_grammar_quotes_exactly_the_keywords_the_parser_accepts(monkeypatch, models_dir):
    doc = (Path(__file__).resolve().parents[1] / "docs" / "model-language.md").read_text("utf-8")
    commented = doc.split("## Grammar", 1)[1].split("```")[1]
    grammar = re.sub(r"#.*", "", commented)
    quoted = set(re.findall(r'"([A-Za-z_]+)"', grammar))

    # Every key each block offers, whether or not a text uses it ...
    keys = set()
    read_block = modelfmt._Parser.read_block

    def spy(self, block, rows=(), special=None, fields=None):
        keys.update(key for key, *_ in rows)
        keys.update(key.rstrip("*") for key in special or {})
        return read_block(self, block, rows, special, fields)

    monkeypatch.setattr(modelfmt._Parser, "read_block", spy)
    texts = [(models_dir / "padova_fw.iot").read_text("utf-8"), tiny_text()]
    for text in texts:
        parsed(text)
    # ... plus the block keywords and data sources these texts use, and the kinds.
    words = {t.text for text in texts for t in modelfmt._lex(text) if t.kind == "ident"}
    assert quoted == keys | words | {kind.value for kind in TaskKind} | set(FIELD_KINDS)

    # Each key's comment gives its default, as the serializer writes the row
    # table's default, or marks it required: its row default is then a
    # placeholder the constructor rejects.
    documented = {}
    production = None
    for line in commented.splitlines():
        if match := re.match(r"(\w+)\s*:=", line):
            production = match[1]
        if key := re.search(r'"(\w+)" "="', line):
            note = re.fullmatch(r"default (.+)|(required)", line.rsplit(";", 1)[-1].split("#")[-1].strip())
            assert note, line
            documented[production, key[1]] = note[1] or note[2]
    tables = {"system_attr": modelfmt._SYSTEM_ROWS, "em_attr": modelfmt._EXECUTION_MODULE_ROWS,
              "entity_attr": modelfmt._ENTITY_ROWS, "platform_attr": modelfmt._DEVICE_ROWS,
              "service": modelfmt._SERVICE_ROWS, "link_attr": modelfmt._LINK_ROWS,
              "contract_attr": modelfmt._CONTRACT_ROWS, "application": modelfmt._APPLICATION_ROWS,
              "component_attr": (modelfmt._COMPONENT_ROWS + modelfmt._PERIODIC_ROWS
                                 + modelfmt._EVENT_ROWS),
              **dict(modelfmt._ENERGY_BLOCKS)}
    expected = {("platform_attr", "data"): modelfmt._fmt_source(modelfmt._DEFAULT_SOURCE)}
    for production, rows in tables.items():
        for key, _, kind, default in rows:
            if documented.get((production, key)) == "required":
                assert not default, (production, key)
                expected[production, key] = "required"
            elif default is None:
                expected[production, key] = "none"
            else:  # a point's default is a pair until it is built
                value = GeoLocation(*default) if kind == "point" else default
                expected[production, key] = modelfmt._WRITERS[kind](value)
    assert documented == expected


# conditions ----------------------------------------------------------------


def test_condition_operators_and_aliases():
    assert condition_from_text("level > 20") == ConditionExpr("level", ">", 20.0)
    assert condition_from_text("level>=3.5") == ConditionExpr("level", ">=", 3.5)
    assert condition_from_text("level == 7") == ConditionExpr("level", "=", 7.0)
    assert condition_from_text("level ≤ 2") == ConditionExpr("level", "<=", 2.0)
    assert condition_from_text("level ≠ 0") == ConditionExpr("level", "!=", 0.0)
    with pytest.raises(ModelError):
        condition_from_text("level >")
    with pytest.raises(ModelError):
        condition_from_text("20 > level")


# serialization -------------------------------------------------------------


def test_serialize_is_a_fixpoint(models_dir):
    for name in ("padova_fw.iot", "freshness_demo.iot"):
        model = load_model(models_dir / name)
        once = serialize_model(model)
        again = serialize_model(parsed(once))
        assert once == again


def test_round_trip_preserves_the_model(models_dir):
    for name in ("padova_fw.iot", "freshness_demo.iot"):
        model = load_model(models_dir / name)
        assert parsed(serialize_model(model)) == model


def test_canonical_form_prints_integral_floats_bare(freshness_model):
    text = serialize_model(freshness_model)
    assert "uniform(0, 30) seed 42" in text
    assert "tick_seconds = 60\n" in text
    assert "capacity_mah = 5.06" in text


def test_canonical_block_order(padova_model):
    text = serialize_model(padova_model)
    first_index = {kw: text.index(kw) for kw in
                   ("system ", "entity ", "interface ", "cloud ", "link ",
                    "contract ", "component ", "application ")}
    order = sorted(first_index, key=first_index.get)
    assert order == ["system ", "entity ", "interface ", "cloud ", "link ",
                     "contract ", "component ", "application "]


def test_serialized_names_are_sorted(padova_model):
    text = serialize_model(padova_model)
    assert text.index('"alarm_1"') < text.index('"fog_1"') < text.index('"water_sensor_1"')


def test_load_model_reads_files(tmp_path):
    target = tmp_path / "m.iot"
    target.write_text(tiny_text(), encoding="utf-8")
    model = load_model(target)
    assert not isinstance(model, list)
    assert model.name == "tiny"


# round trip over generated models ----------------------------------------

# Quoted strings hold anything but a double quote or a line break.
_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs"), blacklist_characters='"'),
                max_size=6)
_NAME = _TEXT.filter(bool)
_NUMBER = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_POINT = st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0))
_SOURCE = st.one_of(
    st.builds(ConstantSource, _NUMBER),
    st.builds(lambda bounds, seed: UniformSource(*bounds, seed),
              st.tuples(_NUMBER, _NUMBER).map(sorted).filter(lambda b: math.isfinite(b[1] - b[0])),
              st.none() | st.integers(0, 2**64)),
    st.builds(lambda values: TraceSource(tuple(values)), st.lists(_NUMBER, min_size=1, max_size=4)),
)


def _names(low, high):
    return st.lists(_NAME, min_size=low, max_size=high, unique=True)


@st.composite
def models(draw) -> IoTSystemModel:
    """Random canonical models that use every key of the language."""
    pool = draw(_names(2, 5))

    def port(name):
        return ServicePort(name, draw(st.sampled_from(pool)), draw(_NAME))

    def point():
        return GeoLocation(*draw(_POINT))

    config = SimConfig(
        simulation_time=draw(st.integers(0, 10**9)), tick_seconds=draw(_POSITIVE),
        rng_seed=draw(st.integers(-2**63, 2**64)),
        execution_modules=tuple(ExecutionModuleDecl(draw(_NAME), draw(_TEXT), draw(_TEXT))
                                for _ in range(draw(st.integers(0, 2)))))
    entities = [PhysicalEntity(name, point()) for name in draw(_names(0, 3))]

    platforms = []
    for name in draw(_names(1, 5)):
        tier = draw(st.sampled_from(PlatformTier))
        device = {}
        if tier is PlatformTier.DEVICE:
            capacity = draw(_POSITIVE)
            device["energy"] = DeviceEnergyProfile(
                battery_capacity_mah=capacity, residual_energy_mah=capacity,
                supply_voltage_v=draw(_POSITIVE), sense_current_ma=draw(_POSITIVE),
                sense_duration_ms=draw(_POSITIVE), packet_kb=draw(_POSITIVE),
                e_elec_nj_per_bit=draw(_NON_NEGATIVE), e_amp_pj_per_bit_m=draw(_NON_NEGATIVE),
                loss_exponent_n=draw(st.integers(1, 6)),
                depletion_threshold_mah=draw(st.floats(0.0, capacity, exclude_max=True)))
            device["data_source"] = draw(_SOURCE)
            if entities:
                device["attached_to"] = draw(st.none() | st.sampled_from([e.name for e in entities]))
        platforms.append(Platform(
            name, tier, point(), cpu_frequency_ghz=draw(_POSITIVE),
            provided_software=frozenset(draw(st.lists(_TEXT, max_size=3))),
            mtbf_hours=draw(_POSITIVE), mttr_hours=draw(_NON_NEGATIVE),
            services=tuple(port(service) for service in draw(_names(0, 2))), **device))

    pairs = list(combinations(sorted(p.name for p in platforms), 2))
    links = [NetworkLink(*pair, protocol=draw(_NAME), latency_ms=draw(_NON_NEGATIVE),
                         distance_m=draw(_POSITIVE))
             for pair in (draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4))
                          if pairs else [])]

    contracts = []
    for name in draw(_names(0, 3)):
        provider, consumer = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2,
                                           unique=True))
        contracts.append(ServiceContract(
            name, provider, consumer,
            tasks=tuple(Task(task, draw(st.sampled_from(TaskKind))) for task in draw(_names(1, 3))),
            message_type=MessageType(
                draw(st.sampled_from([f"{name}Message"]) | _NAME),
                tuple(MessageField(f, draw(st.sampled_from(FIELD_KINDS)))
                      for f in draw(_names(0, 3))))))

    condition = st.builds(ConditionExpr, st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True),
                          st.sampled_from(CONDITION_OPS), _NUMBER)
    components = [Component(
        name, mean_cpu_demand_cycles=draw(_POSITIVE),
        required_software=frozenset(draw(st.lists(_TEXT, max_size=3))),
        required_interfaces=tuple(sorted(set(draw(st.lists(st.sampled_from(pool), max_size=3))))),
        provided_service=draw(st.none() | st.just(name).map(port)),
        periodic_request=draw(st.none() | st.builds(PeriodicRequest, _TEXT, st.integers(1, 10**6))),
        event_request=draw(st.none() | st.builds(EventRequest, _TEXT, condition)))
        for name in draw(_names(1, 4))]

    # Every component belongs to exactly one application, in a drawn order.
    app_names = draw(_names(1, len(components)))
    owners = [draw(st.sampled_from(app_names)) for _ in components]
    applications = [Application(app, point(), tuple(draw(st.permutations(
                        [c for c, owner in zip(components, owners) if owner == app]))))
                    for app in app_names if app in owners]

    def by_name(items):
        return tuple(sorted(items, key=lambda item: item.name))

    return IoTSystemModel(
        draw(_TEXT), platforms=by_name(platforms),
        networks=tuple(sorted(links, key=lambda l: (l.endpoint_a, l.endpoint_b))),
        applications=by_name(applications), contracts=by_name(contracts),
        physical_entities=by_name(entities),
        interfaces=tuple(sorted(pool)) if draw(st.booleans()) else (), sim_config=config)


@settings(max_examples=200, deadline=None)
@given(model=models())
def test_round_trip_over_generated_models(model):
    text = serialize_model(model)
    assert parsed(text) == model
    assert serialize_model(parsed(text)) == text


# the front end under perturbed and edited text ----------------------------

# A tokenizer of the test's own: strings, comments, the arrow, punctuation,
# and any other run of non-space characters.  Text inserted at the start of
# one of these tokens never splits a token, a string or a comment.
_TOKENS = re.compile(r'"[^"\n]*"|#[^\n]*|<->|[{}=()\[\],]|[^\s{}=()\[\],"#]+')
_FRONT_END_TEXTS = {"padova": (MODELS_DIR / "padova_fw.iot").read_text("utf-8"), "tiny": tiny_text()}
# Text that changes nothing at a token boundary: spaces, tabs, comments, line ends.
_FILLERS = (" ", "\t", " \t  ", "\n", "\r\n", " # a comment\n", "\t# holds \"@\" and {\n")
# One stray piece of text, and where in it the parser must stop.
_STRAYS = (("@", 0), (" zz_unknown = 1 ", 1))
# Digit strings beyond Python's default int-string limit of 4,300 digits.
_LONG_NUMBERS = ("7" * 5000, "-" + "1" * 4301, "9" * 4400 + ".5", "0." + "3" * 5000, "1e" + "9" * 5000)


def _plain_position(text, at):
    """Line and column of offset ``at``: only a line feed ends a line, and a tab is one column."""
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(_FRONT_END_TEXTS)), crlf=st.booleans(),
       stray=st.sampled_from(_STRAYS))
def test_syntax_diagnostics_count_positions_by_the_plain_rule(data, name, crlf, stray):
    text = _FRONT_END_TEXTS[name]
    if crlf:
        text = text.replace("\n", "\r\n")
    starts = [m.start() for m in _TOKENS.finditer(text) if m.group()[0] != "#"] + [len(text)]
    fill = data.draw(st.dictionaries(st.integers(0, len(starts) - 1), st.sampled_from(_FILLERS),
                                     max_size=12))
    where = data.draw(st.integers(0, len(starts) - 1))
    filled, perturbed, last = "", "", 0
    for index, start in enumerate(starts):
        piece = text[last:start] + fill.get(index, "")
        filled += piece
        perturbed += piece
        if index == where:
            at = len(perturbed) + stray[1]
            perturbed += stray[0]
        last = start
    filled += text[last:]
    perturbed += text[last:]

    assert parse_model(filled, "<test>") == parse_model(_FRONT_END_TEXTS[name], "<test>")
    diags = parse_model(perturbed, "<test>")
    assert isinstance(diags, list) and len(diags) == 1 and diags[0].code == "syntax", diags
    assert (diags[0].span.line, diags[0].span.column) == _plain_position(perturbed, at)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(_FRONT_END_TEXTS)))
def test_parse_model_returns_a_model_or_diagnostics_under_token_edits(data, name):
    tokens = [m.group() for m in _TOKENS.finditer(_FRONT_END_TEXTS[name])]
    if data.draw(st.booleans()):  # a number token made too long to read
        numbers = [i for i, token in enumerate(tokens) if token[-1].isdigit() and token[0] not in '"#']
        tokens[data.draw(st.sampled_from(numbers))] = data.draw(st.sampled_from(_LONG_NUMBERS))
    pool = st.sampled_from(sorted(set(tokens)) + ["@", "-", "<", '"', "{", "}"]) | st.sampled_from(
        _LONG_NUMBERS)
    edits = st.tuples(st.sampled_from(("insert", "delete", "replace")), st.integers(0, len(tokens)), pool)
    for op, index, new in data.draw(st.lists(edits, max_size=4)):
        index = min(index, len(tokens) - 1)
        if op == "insert":
            tokens.insert(index, new)
        elif op == "delete":
            del tokens[index]
        else:
            tokens[index] = new
    result = parse_model("\n".join(tokens), "<test>")
    assert isinstance(result, IoTSystemModel) or (
        isinstance(result, list) and result and all(isinstance(d, Diagnostic) for d in result))


@pytest.mark.parametrize("text, digits", [
    (tiny_text(rng_seed="7" * 5000), "7" * 5000),
    (tiny_text(interval="-" + "1" * 4301), "-" + "1" * 4301),
    (tiny_text(data="uniform(0, 1) seed " + "3" * 5000), "3" * 5000),
], ids=["rng_seed", "interval_ticks", "uniform-seed"])
def test_an_integer_too_long_to_read_is_a_syntax_diagnostic(text, digits):
    diags = diagnostics(text)
    assert len(diags) == 1 and diags[0].code == "syntax"
    assert "too many digits" in diags[0].message
    assert (diags[0].span.line, diags[0].span.column) == _plain_position(text, text.index(digits))

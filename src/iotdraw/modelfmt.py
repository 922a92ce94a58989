"""The textual model language: parsing and canonical serialization.

A model file is a flat sequence of named blocks over a closed keyword
set; identifiers are double-quoted, ``#`` starts a line comment, and
attribute order inside a block is free.  The full grammar lives in
docs/model-language.md.  Unknown keys are hard errors so that typos
surface at parse time instead of silently skewing an analysis.

Each block's ``key = value`` attributes are listed once, in the row
tables below; the parser and the serializer both work from them.

``serialize_model`` writes a canonical form: blocks sorted by category
and then by name, two-space indentation, numbers rendered without a
trailing ``.0`` when integral.  Parsing the canonical form reproduces
the model exactly, and serializing again is byte-stable.
"""

from __future__ import annotations

import math
import re
from functools import partial
from operator import attrgetter
from types import SimpleNamespace

from .diagnostics import ERROR, Diagnostic, SourceSpan
from .model import (
    FIELD_KINDS, ApplicationDecl, Component, ComponentDecl, ConditionExpr, ConstantSource,
    ContractDecl, DataSource, Declarations, EnergyDecl, EntityDecl, EventRequest,
    ExecutionModuleDecl, InterfaceDecl, IoTSystemModel, LinkDecl, MessageField, ModelError,
    PeriodicRequest, Platform, PlatformDecl, PlatformTier, ServiceContract, ServicePort,
    SystemDecl, Task, TaskKind, TraceSource, UniformSource, build_system, format_number,
)

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+|\#[^\n]*)
  | (?P<string>"[^"\n]*")
  | (?P<number>-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct><->|[{}=()\[\],])
""", re.VERBOSE)

_CONDITION_RE = re.compile(
    r"^\s*(?P<field>[A-Za-z_][A-Za-z0-9_]*)\s*"
    r"(?P<op><=|>=|!=|==|≤|≥|≠|<|>|=)\s*"
    r"(?P<value>-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*$")

_OP_ALIASES = {"==": "=", "≤": "<=", "≥": ">=", "≠": "!="}

_TASK_KINDS = tuple(k.value for k in TaskKind)

# --------------------------------------------------------------------------
# The attribute keys of each block, as (key, attribute, kind) rows in
# canonical order.  The parser reads a key's value into that attribute of
# the block's declaration record; the serializer writes the same attribute
# of the built model object, skipping None.  ``_Parser.read_value`` reads
# each kind and ``_WRITERS`` writes it.  A "set" is written sorted and a
# "list" in its own order; a "condition" is read as text and checked once
# its block closes.

_SYSTEM_ROWS = (
    ("simulation_time", "simulation_time", "int"),
    ("tick_seconds", "tick_seconds", "number"),
    ("rng_seed", "rng_seed", "int"),
)
_EXECUTION_MODULE_ROWS = (
    ("module", "module", "string"),
    ("language", "language", "string"),
    ("code", "code", "string"),
)
_ENTITY_ROWS = (("location", "location", "point"),)
_PLATFORM_ROWS = (
    ("location", "location", "point"),
    ("cpu_ghz", "cpu_frequency_ghz", "number"),
    ("provides_software", "provided_software", "set"),
    ("mtbf_hours", "mtbf_hours", "number"),
    ("mttr_hours", "mttr_hours", "number"),
)
_DEVICE_ROWS = _PLATFORM_ROWS + (("attached_to", "attached_to", "string"),)
# A device's energy sub-blocks; every row fills its one EnergyDecl.
_ENERGY_BLOCKS = (
    ("battery", (
        ("capacity_mah", "battery_capacity_mah", "number"),
        ("supply_voltage_v", "supply_voltage_v", "number"),
        ("depletion_threshold_mah", "depletion_threshold_mah", "number"),
    )),
    ("sense", (
        ("current_ma", "sense_current_ma", "number"),
        ("duration_ms", "sense_duration_ms", "number"),
    )),
    ("transmit", (
        ("packet_kb", "packet_kb", "number"),
        ("e_elec_nj_per_bit", "e_elec_nj_per_bit", "number"),
        ("e_amp_pj_per_bit_m", "e_amp_pj_per_bit_m", "number"),
        ("loss_exponent", "loss_exponent_n", "int"),
    )),
)
_SERVICE_ROWS = (
    ("interface", "interface", "string"),
    ("protocol", "protocol", "string"),
)
_LINK_ROWS = (
    ("protocol", "protocol", "string"),
    ("latency_ms", "latency_ms", "number"),
    ("distance_m", "distance_m", "number"),
)
_CONTRACT_ROWS = (
    ("provider_interface", "provider_interface", "string"),
    ("consumer_interface", "consumer_interface", "string"),
)
_COMPONENT_ROWS = (
    ("cpu_demand_cycles", "mean_cpu_demand_cycles", "number"),
    ("requires_software", "required_software", "set"),
    ("requires", "required_interfaces", "set"),
)
_PERIODIC_ROWS = (("interval_ticks", "interval_ticks", "int"),)
_EVENT_ROWS = (("condition", "condition", "condition"),)
_APPLICATION_ROWS = (
    ("region", "region", "point"),
    ("components", "component_names", "list"),
)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


class _ParseAbort(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(diagnostic.message)


def _lex(text: str, path: str) -> list[_Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise _ParseAbort(Diagnostic(ERROR, f"unexpected character {text[pos]!r}",
                                         SourceSpan(path, line, col), code="syntax"))
        kind = match.lastgroup
        raw = match.group()
        if kind != "ws":
            tokens.append(_Token(kind, raw, line, col))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = match.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    """Single-pass recursive descent over the token list."""

    def __init__(self, tokens: list[_Token], path: str):
        self.tokens = tokens
        self.pos = 0
        self.path = path

    # -- token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def span(self, token: _Token) -> SourceSpan:
        return SourceSpan(self.path, token.line, token.column)

    def fail(self, message: str, token: _Token | None = None):
        token = token or self.peek()
        raise _ParseAbort(Diagnostic(ERROR, message, self.span(token), code="syntax"))

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> _Token:
        token = self.peek()
        if token.kind != kind or (text is not None and token.text != text):
            expected = what or (repr(text) if text else kind)
            found = token.text or "end of input"
            self.fail(f"expected {expected}, found {found!r}")
        return self.advance()

    def accept(self, kind: str, text: str | None = None) -> _Token | None:
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.advance()
        return None

    def build(self, token: _Token, make, *args, **kwargs):
        """``make(*args, **kwargs)``, its rejection reported at ``token``."""
        try:
            return make(*args, **kwargs)
        except ModelError as exc:
            self.fail(str(exc), token)

    # -- value readers

    def read_string(self, what: str) -> str:
        token = self.expect("string", what=what)
        return token.text[1:-1]

    def read_number(self) -> float:
        token = self.expect("number", what="a number")
        value = float(token.text)
        if not math.isfinite(value):
            self.fail(f"number {token.text!r} is too large to represent", token)
        return value

    def read_int(self, what: str) -> int:
        token = self.expect("number", what=what)
        if any(ch in token.text for ch in ".eE"):
            self.fail(f"{what} must be an integer, found {token.text!r}", token)
        return int(token.text)

    def read_pair(self) -> tuple[float, float]:
        self.expect("punct", "(")
        first = self.read_number()
        self.expect("punct", ",")
        second = self.read_number()
        self.expect("punct", ")")
        return (first, second)

    def read_list(self, read_item) -> list:
        self.expect("punct", "[")
        items = []
        if not self.accept("punct", "]"):
            items.append(read_item())
            while self.accept("punct", ","):
                items.append(read_item())
            self.expect("punct", "]")
        return items

    def read_value(self, kind: str, key: str):
        """The ``= value`` after ``key``, read as a row kind."""
        self.expect("punct", "=")
        if kind == "int":
            return self.read_int(key)
        if kind == "number":
            return self.read_number()
        if kind == "point":
            return self.read_pair()
        if kind in ("set", "list"):
            return self.read_list(lambda: self.read_string("a quoted name"))
        return self.read_string(key)  # "string", and "condition" as its text

    def read_data_source(self) -> DataSource:
        token = self.expect("ident", what="a data source (constant, uniform, or trace)")
        if token.text == "constant":
            self.expect("punct", "(")
            value = self.read_number()
            self.expect("punct", ")")
            return self.build(token, ConstantSource, value)
        if token.text == "uniform":
            lo, hi = self.read_pair()
            seed = self.read_int("seed") if self.accept("ident", "seed") else None
            return self.build(token, UniformSource, lo, hi, seed)
        if token.text == "trace":
            return self.build(token, TraceSource, tuple(self.read_list(self.read_number)))
        self.fail(f"unknown data source {token.text!r}", token)

    def read_entry(self, what: str, kinds) -> tuple[_Token, str]:
        """A ``STRING = kind`` entry (a task or a message field), checked against ``kinds``."""
        name = self.expect("string", what=f"a {what} name")
        self.expect("punct", "=")
        kind = self.expect("ident", what=f"a {what} kind")
        if kind.text not in kinds:
            self.fail(f"unknown {what} kind {kind.text!r}", kind)
        return name, kind.text

    # -- block machinery

    def read_block(self, block: str, rows=(), target=None, special: dict | None = None):
        """Read ``{ ... }`` up to the closing brace.

        Each row's key sets its attribute on ``target``; ``special`` maps
        the block's other keys to handlers.  Special keys ending in "*" may
        repeat; all other keys may not.
        """
        handlers = {key: partial(self._set, target, attr, kind, key) for key, attr, kind in rows}
        handlers.update(special or {})
        self.expect("punct", "{")
        seen: set[str] = set()
        while not self.accept("punct", "}"):
            token = self.peek()
            if token.kind == "eof":
                self.fail(f"unterminated {block} block")
            if token.kind != "ident":
                self.fail(f"expected an attribute name in {block} block, found {token.text!r}")
            key = token.text
            handler = handlers.get(key) or handlers.get(key + "*")
            if handler is None:
                self.fail(f"unknown key {key!r} in {block} block", token)
            if key in handlers:  # scalar: single occurrence
                if key in seen:
                    self.fail(f"duplicate key {key!r} in {block} block", token)
                seen.add(key)
            self.advance()
            handler()

    def _set(self, target, attr: str, kind: str, key: str) -> None:
        setattr(target, attr, self.read_value(kind, key))

    def read_service_port(self) -> ServicePort:
        name_token = self.expect("string", what="a service name")
        port = SimpleNamespace(interface="", protocol="")
        self.read_block("service", _SERVICE_ROWS, port)
        return self.build(name_token, ServicePort, name_token.text[1:-1], **vars(port))

    # -- top-level blocks

    def parse(self) -> Declarations:
        decls = Declarations()
        readers = {
            "system": lambda: setattr(decls, "system", self.parse_system()),
            "entity": lambda: decls.entities.append(self.parse_entity()),
            "interface": lambda: decls.interfaces.append(self.parse_interface()),
            "contract": lambda: decls.contracts.append(self.parse_contract()),
            "component": lambda: decls.components.append(self.parse_component()),
            "application": lambda: decls.applications.append(self.parse_application()),
            "link": lambda: decls.links.append(self.parse_link()),
        }
        for tier in PlatformTier:
            readers[tier.value] = lambda tier=tier: decls.platforms.append(self.parse_platform(tier))
        while (token := self.peek()).kind != "eof":
            if token.kind != "ident":
                self.fail(f"expected a block keyword, found {token.text!r}")
            read = readers.get(token.text)
            if read is None:
                self.fail(f"unknown block keyword {token.text!r}", token)
            if token.text == "system" and decls.system is not None:
                self.fail("duplicate 'system' block", token)
            self.advance()
            read()
        if decls.system is None:
            self.fail("expected a 'system' block", self.tokens[0])
        return decls

    def parse_system(self) -> SystemDecl:
        name_token = self.expect("string", what="a system name")
        decl = SystemDecl(name=name_token.text[1:-1], span=self.span(name_token))

        def execution_module():
            module = SimpleNamespace(module="", language="python", code="builtin")
            brace = self.peek()
            self.read_block("execution_module", _EXECUTION_MODULE_ROWS, module)
            decl.execution_modules.append(self.build(brace, ExecutionModuleDecl, **vars(module)))

        self.read_block("system", _SYSTEM_ROWS, decl, {"execution_module*": execution_module})
        return decl

    def parse_entity(self) -> EntityDecl:
        name_token = self.expect("string", what="an entity name")
        decl = EntityDecl(name=name_token.text[1:-1], span=self.span(name_token))
        self.read_block("entity", _ENTITY_ROWS, decl)
        return decl

    def parse_interface(self) -> InterfaceDecl:
        name_token = self.expect("string", what="an interface name")
        self.expect("punct", "{")
        self.expect("punct", "}")
        return InterfaceDecl(name_token.text[1:-1], self.span(name_token))

    def parse_platform(self, tier: PlatformTier) -> PlatformDecl:
        name_token = self.expect("string", what="a platform name")
        decl = PlatformDecl(name=name_token.text[1:-1], tier=tier, span=self.span(name_token))
        special = {"service*": lambda: decl.services.append(self.read_service_port())}
        rows = _PLATFORM_ROWS
        if tier is PlatformTier.DEVICE:
            rows = _DEVICE_ROWS
            decl.energy = EnergyDecl()
            for block, block_rows in _ENERGY_BLOCKS:
                special[block] = partial(self.read_block, block, block_rows, decl.energy)

            def data():
                self.expect("punct", "=")
                decl.data_source = self.read_data_source()

            special["data"] = data
        self.read_block(tier.value, rows, decl, special)
        return decl

    def parse_contract(self) -> ContractDecl:
        name_token = self.expect("string", what="a contract name")
        decl = ContractDecl(name=name_token.text[1:-1], span=self.span(name_token))

        def task():
            name, kind = self.read_entry("task", _TASK_KINDS)
            decl.tasks.append(self.build(name, Task, name.text[1:-1], TaskKind(kind)))

        def field():
            name, kind = self.read_entry("field", FIELD_KINDS)
            decl.message_fields.append(self.build(name, MessageField, name.text[1:-1], kind))

        def message():
            decl.message_name = self.read_string("a message name")
            self.read_block("message", special={"field*": field})

        self.read_block("contract", _CONTRACT_ROWS, decl, {"task*": task, "message": message})
        return decl

    def parse_component(self) -> ComponentDecl:
        name_token = self.expect("string", what="a component name")
        decl = ComponentDecl(name=name_token.text[1:-1], span=self.span(name_token))

        def service():
            decl.provided_service = self.read_service_port()

        def periodic():
            request = SimpleNamespace(task=self.read_string("a task name"), interval_ticks=0)
            self.read_block("periodic", _PERIODIC_ROWS, request)
            decl.periodic_request = self.build(name_token, PeriodicRequest, **vars(request))

        def event():
            task = self.read_string("a task name")
            request = SimpleNamespace(condition="")
            brace = self.peek()
            self.read_block("event", _EVENT_ROWS, request)
            decl.event_request = self.build(
                brace, lambda: EventRequest(task, condition_from_text(request.condition)))

        self.read_block("component", _COMPONENT_ROWS, decl,
                        {"service": service, "periodic": periodic, "event": event})
        return decl

    def parse_application(self) -> ApplicationDecl:
        name_token = self.expect("string", what="an application name")
        decl = ApplicationDecl(name=name_token.text[1:-1], span=self.span(name_token))
        self.read_block("application", _APPLICATION_ROWS, decl)
        return decl

    def parse_link(self) -> LinkDecl:
        first = self.expect("string", what="a platform name")
        self.expect("punct", "<->")
        second = self.expect("string", what="a platform name")
        decl = LinkDecl(endpoint_a=first.text[1:-1], endpoint_b=second.text[1:-1],
                        span=self.span(first))
        self.read_block("link", _LINK_ROWS, decl)
        return decl


def condition_from_text(text: str) -> ConditionExpr:
    """Parse a threshold condition like ``level_cm > 20``; schema-agnostic."""
    match = _CONDITION_RE.match(text)
    if match is None:
        raise ModelError(f"cannot parse condition {text!r}; expected 'field op number'")
    op = _OP_ALIASES.get(match["op"], match["op"])
    threshold = float(match["value"])
    if not math.isfinite(threshold):
        raise ModelError(f"condition {text!r} has a threshold too large to represent")
    return ConditionExpr(match["field"], op, threshold)


def parse_model(text: str, path: str = "<model>") -> IoTSystemModel | list[Diagnostic]:
    """Parse model text; returns the model or the list of diagnostics.

    Syntax problems abort at the first offending token; build problems
    (duplicates, dangling references, invariant violations) are collected
    and reported together.
    """
    try:
        tokens = _lex(text, path)
        decls = _Parser(tokens, path).parse()
    except _ParseAbort as abort:
        return [abort.diagnostic]
    try:
        return build_system(decls)
    except ModelError as exc:
        fallback = SourceSpan(path, 1, 1)
        return [Diagnostic(ERROR, issue.message, issue.span or fallback, code="build")
                for issue in exc.issues]


def load_model(path: str) -> IoTSystemModel | list[Diagnostic]:
    with open(path, encoding="utf-8") as handle:
        return parse_model(handle.read(), path=str(path))


# --------------------------------------------------------------------------
# Serialization


_BY_NAME = attrgetter("name")


def _quote(text: str) -> str:
    return f'"{text}"'


def _fmt_pair(first: float, second: float) -> str:
    return f"({format_number(first)}, {format_number(second)})"


def _fmt_list(items) -> str:
    return "[" + ", ".join(items) + "]"


_WRITERS = {
    "int": str,
    "number": format_number,
    "string": _quote,
    "condition": lambda condition: _quote(condition.render()),
    "point": lambda point: _fmt_pair(point.latitude, point.longitude),
    "set": lambda names: _fmt_list(map(_quote, sorted(names))),
    "list": lambda names: _fmt_list(map(_quote, names)),
}


def _block(header: str, obj, rows, *inner: list[str]) -> list[str]:
    """``header { ... }`` as lines: ``obj``'s rows, then the ``inner`` lines, indented."""
    body = [f"{key} = {_WRITERS[kind](value)}" for key, attr, kind in rows
            if (value := getattr(obj, attr)) is not None]
    body += [line for lines in inner for line in lines]
    return [f"{header} {{", *("  " + line for line in body), "}"]


def _fmt_source(source: DataSource) -> str:
    if isinstance(source, ConstantSource):
        return f"constant({format_number(source.value)})"
    if isinstance(source, UniformSource):
        text = "uniform" + _fmt_pair(source.lo, source.hi)
        if source.seed is not None:
            text += f" seed {source.seed}"
        return text
    return "trace " + _fmt_list(map(format_number, source.values))


def _port_lines(port: ServicePort) -> list[str]:
    return _block(f"service {_quote(port.name)}", port, _SERVICE_ROWS)


def _platform_lines(platform: Platform) -> list[str]:
    rows, inner = _PLATFORM_ROWS, []
    if platform.tier is PlatformTier.DEVICE:
        rows = _DEVICE_ROWS
        inner = [_block(block, platform.energy, block_rows) for block, block_rows in _ENERGY_BLOCKS]
        inner.append([f"data = {_fmt_source(platform.data_source)}"])
    return _block(f"{platform.tier.value} {_quote(platform.name)}", platform, rows,
                  *inner, *map(_port_lines, platform.services))


def _contract_lines(contract: ServiceContract) -> list[str]:
    inner = [[f"task {_quote(task.name)} = {task.kind.value}" for task in contract.tasks]]
    message = contract.message_type
    if message.fields or message.name != f"{contract.name}Message":
        fields = [f"field {_quote(field.name)} = {field.kind}" for field in message.fields]
        inner.append(_block(f"message {_quote(message.name)}", message, (), fields))
    return _block(f"contract {_quote(contract.name)}", contract, _CONTRACT_ROWS, *inner)


def _component_lines(component: Component) -> list[str]:
    inner = []
    if component.provided_service is not None:
        inner.append(_port_lines(component.provided_service))
    if (periodic := component.periodic_request) is not None:
        inner.append(_block(f"periodic {_quote(periodic.task)}", periodic, _PERIODIC_ROWS))
    if (event := component.event_request) is not None:
        inner.append(_block(f"event {_quote(event.task)}", event, _EVENT_ROWS))
    return _block(f"component {_quote(component.name)}", component, _COMPONENT_ROWS, *inner)


def serialize_model(model: IoTSystemModel) -> str:
    """Render a model in the canonical text form (see module docstring)."""
    config = model.sim_config
    modules = [_block("execution_module", module, _EXECUTION_MODULE_ROWS)
               for module in config.execution_modules]
    blocks = [_block(f"system {_quote(model.name)}", config, _SYSTEM_ROWS, *modules)]
    blocks += [_block(f"entity {_quote(entity.name)}", entity, _ENTITY_ROWS)
               for entity in sorted(model.physical_entities, key=_BY_NAME)]
    blocks += [[f"interface {_quote(interface)} {{}}"] for interface in model.interfaces]
    blocks += [_platform_lines(platform) for platform in sorted(model.platforms, key=_BY_NAME)]
    blocks += [_block(f"link {_quote(link.endpoint_a)} <-> {_quote(link.endpoint_b)}", link, _LINK_ROWS)
               for link in sorted(model.networks, key=lambda l: (l.endpoint_a, l.endpoint_b))]
    blocks += [_contract_lines(contract) for contract in sorted(model.contracts, key=_BY_NAME)]
    blocks += [_component_lines(component)
               for component in sorted(model.all_components(), key=_BY_NAME)]
    blocks += [_block(f"application {_quote(app.name)}", app, _APPLICATION_ROWS)
               for app in sorted(model.applications, key=_BY_NAME)]
    return "\n\n".join("\n".join(lines) for lines in blocks) + "\n"

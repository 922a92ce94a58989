"""The textual model language: parsing and canonical serialization.

A model file is a flat sequence of named blocks over a closed keyword
set; identifiers are double-quoted, ``#`` starts a line comment, and
attribute order inside a block is free.  The full grammar lives in
docs/model-language.md.  Unknown keys are hard errors so that typos
surface at parse time instead of silently skewing an analysis.

The text is lexed in one pass; each token carries its offset into the
text, and ``_Parser.span`` works out a line and column from an offset
only where a diagnostic or a declaration's span needs one.

Each block's ``key = value`` attributes are listed once, with their
defaults, in the row tables below; the parser and the serializer both
work from them.  The parser reads each block into the keyword arguments
of its model constructor, and ``build_system`` resolves the names the
blocks use and constructs the model.

``serialize_model`` writes a canonical form: blocks sorted by category
and then by name, two-space indentation, numbers rendered without a
trailing ``.0`` when integral.  Parsing the canonical form reproduces
the model exactly, and serializing again is byte-stable.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from functools import partial
from operator import attrgetter
from typing import NamedTuple

from .diagnostics import ERROR, Diagnostic, SourceSpan
from .model import (
    FIELD_KINDS, Application, BuildIssue, Component, ConditionExpr, ConstantSource, DataSource,
    DeviceEnergyProfile, EventRequest, ExecutionModuleDecl, GeoLocation, IoTSystemModel,
    MessageField, MessageType, ModelError, NetworkLink, PeriodicRequest, PhysicalEntity,
    Platform, PlatformTier, ServiceContract, ServicePort, SimConfig, Task, TaskKind,
    TraceSource, UniformSource, format_number,
)

_NUMBER = r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"

# One alternative per token kind, tried in this order; "other" matches any
# character that starts no token, which ``_Parser.fail`` reports.
_TOKEN_RE = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("ws", r"[ \t\r\n]+|#[^\n]*"),
    ("string", r'"[^"\n]*"'),
    ("number", _NUMBER),
    ("ident", _IDENT),
    ("punct", r"<->|[{}=()\[\],]"),
    ("other", r"."),
)))

_CONDITION_RE = re.compile(
    rf"^\s*(?P<field>{_IDENT})\s*(?P<op><=|>=|!=|==|≤|≥|≠|<|>|=)\s*(?P<value>{_NUMBER})\s*$")

_OP_ALIASES = {"==": "=", "≤": "<=", "≥": ">=", "≠": "!="}

_TASK_KINDS = tuple(k.value for k in TaskKind)

# The categories of top-level blocks, in the order their issues are reported.
_CATEGORIES = ("system", "entity", "interface", "platform", "contract", "component",
               "application", "link")

# --------------------------------------------------------------------------
# The attribute keys of each block, as (key, attribute, kind, default) rows
# in canonical order.  The parser starts each block from its defaults and
# reads a key's value into that attribute's constructor keyword; the
# serializer writes the same attribute of the model object, skipping None.
# ``_Parser.read_value`` reads each kind and ``_WRITERS`` writes it.  A
# "set" is read into a frozenset and a "sorted" list into a sorted tuple
# without repeats, and both are written sorted; a "list" keeps its own
# order.  A "point" stays a pair until ``build_system`` makes it a
# GeoLocation.  A "condition" is read as text and checked once its block
# closes.  A required key's default is a placeholder its constructor rejects.

_SYSTEM_ROWS = (
    ("simulation_time", "simulation_time", "int", 0),
    ("tick_seconds", "tick_seconds", "number", 60.0),
    ("rng_seed", "rng_seed", "int", 0),
)
_EXECUTION_MODULE_ROWS = (
    ("module", "module", "string", ""),
    ("language", "language", "string", "python"),
    ("code", "code", "string", "builtin"),
)
_ENTITY_ROWS = (("location", "location", "point", (0.0, 0.0)),)
_PLATFORM_ROWS = (
    ("location", "location", "point", (0.0, 0.0)),
    ("cpu_ghz", "cpu_frequency_ghz", "number", 1.0),
    ("provides_software", "provided_software", "set", frozenset()),
    ("mtbf_hours", "mtbf_hours", "number", 8760.0),
    ("mttr_hours", "mttr_hours", "number", 0.0),
)
_DEVICE_ROWS = _PLATFORM_ROWS + (("attached_to", "attached_to", "string", None),)
# A device's energy sub-blocks; together their rows fill one DeviceEnergyProfile.
_ENERGY_BLOCKS = (
    ("battery", (
        ("capacity_mah", "battery_capacity_mah", "number", 100.0),
        ("supply_voltage_v", "supply_voltage_v", "number", 3.0),
        ("depletion_threshold_mah", "depletion_threshold_mah", "number", 5.0),
    )),
    ("sense", (
        ("current_ma", "sense_current_ma", "number", 25.0),
        ("duration_ms", "sense_duration_ms", "number", 10.0),
    )),
    ("transmit", (
        ("packet_kb", "packet_kb", "number", 2.0),
        ("e_elec_nj_per_bit", "e_elec_nj_per_bit", "number", 50.0),
        ("e_amp_pj_per_bit_m", "e_amp_pj_per_bit_m", "number", 100.0),
        ("loss_exponent", "loss_exponent_n", "int", 2),
    )),
)
_DEFAULT_SOURCE = ConstantSource(0.0)  # a device's ``data`` when it gives none
_SERVICE_ROWS = (
    ("interface", "interface", "string", ""),
    ("protocol", "protocol", "string", ""),
)
_LINK_ROWS = (
    ("protocol", "protocol", "string", "IP"),
    ("latency_ms", "latency_ms", "number", 0.0),
    ("distance_m", "distance_m", "number", 1.0),
)
_CONTRACT_ROWS = (
    ("provider_interface", "provider_interface", "string", ""),
    ("consumer_interface", "consumer_interface", "string", ""),
)
_COMPONENT_ROWS = (
    ("cpu_demand_cycles", "mean_cpu_demand_cycles", "number", 1.0),
    ("requires_software", "required_software", "set", frozenset()),
    ("requires", "required_interfaces", "sorted", ()),
)
_PERIODIC_ROWS = (("interval_ticks", "interval_ticks", "int", 0),)
_EVENT_ROWS = (("condition", "condition", "condition", ""),)
_APPLICATION_ROWS = (
    ("region", "region", "point", (0.0, 0.0)),
    ("components", "component_names", "list", ()),
)


def _defaults(rows) -> dict:
    return {attr: default for _, attr, _, default in rows}


class _Token(NamedTuple):
    kind: str
    text: str
    offset: int  # where the token starts in the model text


class _ParseAbort(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(diagnostic.message)


def _lex(text: str) -> list[_Token]:
    """The tokens of ``text``, whitespace and comments dropped, then an "eof" token."""
    tokens = [_Token(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text)
              if m.lastgroup != "ws"]
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    """Single-pass recursive descent over the token list."""

    def __init__(self, text: str, path: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0
        self.path = path
        self.newlines = None  # the line feeds' offsets, found when the first span is needed

    # -- token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def span(self, token: _Token) -> SourceSpan:
        """Where ``token`` starts: the one place that counts lines and columns."""
        if self.newlines is None:
            self.newlines = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect_left(self.newlines, token.offset)  # the line feeds before the token
        start = self.newlines[line - 1] if line else -1
        return SourceSpan(self.path, line + 1, token.offset - start)

    def fail(self, message: str, token: _Token | None = None):
        # A character that starts no token is reported first, wherever it is, as
        # lexing comes before parsing.  A parse that succeeds has met no such token.
        token = token or self.peek()
        for other in self.tokens:
            if other.kind == "other":
                message, token = f"unexpected character {other.text!r}", other
                break
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
        try:
            return int(token.text)
        except ValueError:  # beyond the int-string limit (sys.get_int_max_str_digits)
            self.fail(f"{what} has too many digits to read ({len(token.text)} characters)", token)

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
        if kind in ("set", "sorted", "list"):
            names = self.read_list(lambda: self.read_string("a quoted name"))
            if kind == "set":
                return frozenset(names)
            return tuple(sorted(set(names))) if kind == "sorted" else tuple(names)
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

    def read_block(self, block: str, rows=(), special: dict | None = None,
                   fields: dict | None = None) -> dict:
        """Read ``{ ... }`` up to the closing brace; return the keywords read.

        Each row's key sets its attribute in ``fields``, which starts from
        the rows' defaults when not given; ``special`` maps the block's
        other keys to handlers.  Special keys ending in "*" may repeat; all
        other keys may not.
        """
        fields = _defaults(rows) if fields is None else fields
        handlers = {key: partial(self._set, fields, attr, kind, key) for key, attr, kind, _ in rows}
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
        return fields

    def _set(self, fields: dict, attr: str, kind: str, key: str) -> None:
        fields[attr] = self.read_value(kind, key)

    def read_name(self, what: str) -> tuple[str, SourceSpan]:
        token = self.expect("string", what=what)
        return token.text[1:-1], self.span(token)

    def read_service_port(self) -> ServicePort:
        name_token = self.expect("string", what="a service name")
        port = self.read_block("service", _SERVICE_ROWS)
        return self.build(name_token, ServicePort, name_token.text[1:-1], **port)

    # -- top-level blocks: each gives (name, span of the name, constructor keywords)

    def parse(self) -> dict[str, list[tuple]]:
        """Every block the text declares, by category, in text order."""
        blocks = {category: [] for category in _CATEGORIES}
        readers = {"system": ("system", self.parse_system),
                   "entity": ("entity", self.parse_entity),
                   "interface": ("interface", self.parse_interface),
                   "contract": ("contract", self.parse_contract),
                   "component": ("component", self.parse_component),
                   "application": ("application", self.parse_application),
                   "link": ("link", self.parse_link)}
        for tier in PlatformTier:
            readers[tier.value] = ("platform", partial(self.parse_platform, tier))
        while (token := self.peek()).kind != "eof":
            if token.kind != "ident":
                self.fail(f"expected a block keyword, found {token.text!r}")
            if token.text not in readers:
                self.fail(f"unknown block keyword {token.text!r}", token)
            category, read = readers[token.text]
            if category == "system" and blocks["system"]:
                self.fail("duplicate 'system' block", token)
            self.advance()
            blocks[category].append(read())
        if not blocks["system"]:
            self.fail("expected a 'system' block", self.tokens[0])
        return blocks

    def parse_system(self):
        name, span = self.read_name("a system name")
        modules = []

        def execution_module():
            brace = self.peek()
            module = self.read_block("execution_module", _EXECUTION_MODULE_ROWS)
            modules.append(self.build(brace, ExecutionModuleDecl, **module))

        fields = self.read_block("system", _SYSTEM_ROWS, {"execution_module*": execution_module})
        return name, span, dict(fields, execution_modules=tuple(modules))

    def parse_entity(self):
        return *self.read_name("an entity name"), self.read_block("entity", _ENTITY_ROWS)

    def parse_interface(self):
        name, span = self.read_name("an interface name")
        self.expect("punct", "{")
        self.expect("punct", "}")
        return name, span, {}

    def parse_platform(self, tier: PlatformTier):
        name, span = self.read_name("a platform name")
        services = []
        special = {"service*": lambda: services.append(self.read_service_port())}
        rows = _DEVICE_ROWS if tier is PlatformTier.DEVICE else _PLATFORM_ROWS
        fields = {"tier": tier, **_defaults(rows)}
        if tier is PlatformTier.DEVICE:
            energy = fields["energy"] = {}
            for block, block_rows in _ENERGY_BLOCKS:
                energy.update(_defaults(block_rows))
                special[block] = partial(self.read_block, block, block_rows, fields=energy)
            fields["data_source"] = _DEFAULT_SOURCE

            def data():
                self.expect("punct", "=")
                fields["data_source"] = self.read_data_source()

            special["data"] = data
        self.read_block(tier.value, rows, special, fields)
        return name, span, dict(fields, services=tuple(services))

    def parse_contract(self):
        name, span = self.read_name("a contract name")
        tasks, message_fields = [], []
        message_name = ""

        def task():
            entry, kind = self.read_entry("task", _TASK_KINDS)
            tasks.append(self.build(entry, Task, entry.text[1:-1], TaskKind(kind)))

        def field():
            entry, kind = self.read_entry("field", FIELD_KINDS)
            message_fields.append(self.build(entry, MessageField, entry.text[1:-1], kind))

        def message():
            nonlocal message_name
            message_name = self.read_string("a message name")
            self.read_block("message", special={"field*": field})

        fields = self.read_block("contract", _CONTRACT_ROWS, {"task*": task, "message": message})
        message_type = MessageType(message_name or f"{name}Message", tuple(message_fields))
        return name, span, dict(fields, tasks=tuple(tasks), message_type=message_type)

    def parse_component(self):
        name_token = self.expect("string", what="a component name")
        fields = _defaults(_COMPONENT_ROWS)

        def service():
            fields["provided_service"] = self.read_service_port()

        def periodic():
            task = self.read_string("a task name")
            request = self.read_block("periodic", _PERIODIC_ROWS)
            fields["periodic_request"] = self.build(name_token, PeriodicRequest, task, **request)

        def event():
            task = self.read_string("a task name")
            brace = self.peek()
            request = self.read_block("event", _EVENT_ROWS)
            fields["event_request"] = self.build(
                brace, lambda: EventRequest(task, condition_from_text(request["condition"])))

        self.read_block("component", _COMPONENT_ROWS,
                        {"service": service, "periodic": periodic, "event": event}, fields)
        return name_token.text[1:-1], self.span(name_token), fields

    def parse_application(self):
        return *self.read_name("an application name"), self.read_block("application", _APPLICATION_ROWS)

    def parse_link(self):
        first, span = self.read_name("a platform name")
        self.expect("punct", "<->")
        second, _ = self.read_name("a platform name")
        return (first, second), span, self.read_block("link", _LINK_ROWS)


def condition_from_text(text: str) -> ConditionExpr:
    """Parse a threshold condition like ``level_cm > 20``; schema-agnostic."""
    match = _CONDITION_RE.match(text)
    if match is None:
        raise ModelError(f"cannot parse condition {text!r}; expected 'field op number'")
    op = _OP_ALIASES.get(match["op"], match["op"])
    return ConditionExpr(match["field"], op, float(match["value"]))


# --------------------------------------------------------------------------
# Resolution


_BY_NAME = attrgetter("name")


def _named(built) -> tuple:
    """The objects that were built, in name order."""
    return tuple(sorted((item for item in built if item is not None), key=_BY_NAME))


def build_system(blocks: dict[str, list[tuple]]) -> IoTSystemModel:
    """Resolve the parsed blocks into an immutable, structurally sound model.

    Checks identifier uniqueness within each category, resolves every
    name reference (entities, components, link endpoints, declared
    interfaces), and constructs each model object, whose constructor
    enforces its own invariants.  Contract-level consistency (whether
    requested tasks and interfaces are actually provided) is the
    validator's job, so models that are structurally sound but
    semantically broken can still be constructed and reported on.
    Raises :class:`ModelError` carrying every issue found.
    """
    issues: list[BuildIssue] = []
    for category in _CATEGORIES[1:-1]:  # the system is single and links have no name
        seen: set[str] = set()
        for name, span, _ in blocks[category]:
            if name in seen:
                issues.append(BuildIssue(f"duplicate identifier: {category} {name!r}", name, span))
            seen.add(name)
    entity_names, interface_names, platform_names, component_names = (
        {name for name, _, _ in blocks[category]}
        for category in ("entity", "interface", "platform", "component"))

    def guard(make, subject: str, span: SourceSpan):
        # Collect constructor rejections instead of stopping at the first.
        # The subject is named once: some messages give it already.
        try:
            return make()
        except ModelError as exc:
            for issue in exc.issues:
                named = issue.subject or not subject
                issues.append(BuildIssue(issue.message if named else f"{subject}: {issue.message}",
                                         subject, span))
            return None

    # When the model declares interfaces explicitly, every interface name
    # used by a contract or port must be among them; without declarations
    # the names are free-form and contracts introduce them implicitly.
    def check_interface_ref(name: str, subject: str, span: SourceSpan):
        if interface_names and name and name not in interface_names:
            issues.append(BuildIssue(f"dangling reference: interface {name!r} (used by {subject})",
                                     subject, span))

    entities = [guard(lambda: PhysicalEntity(name, GeoLocation(*fields["location"])), name, span)
                for name, span, fields in blocks["entity"]]

    def make_platform(name, fields):
        energy = fields.get("energy")
        if energy is not None:
            energy = DeviceEnergyProfile(residual_energy_mah=energy["battery_capacity_mah"], **energy)
        return Platform(name, **{**fields, "energy": energy,
                                 "location": GeoLocation(*fields["location"])})

    platforms = []
    for name, span, fields in blocks["platform"]:
        attached_to = fields.get("attached_to")
        if attached_to is not None and attached_to not in entity_names:
            issues.append(BuildIssue(f"dangling reference: {attached_to!r} (entity of device {name})",
                                     name, span))
            continue
        for port in fields["services"]:
            check_interface_ref(port.interface, f"platform {name}", span)
        platforms.append(guard(lambda: make_platform(name, fields), name, span))

    contracts = []
    for name, span, fields in blocks["contract"]:
        check_interface_ref(fields["provider_interface"], f"contract {name}", span)
        check_interface_ref(fields["consumer_interface"], f"contract {name}", span)
        contracts.append(guard(lambda: ServiceContract(name, **fields), name, span))

    components: dict[str, Component] = {}
    for name, span, fields in blocks["component"]:
        for interface in fields["required_interfaces"]:
            check_interface_ref(interface, f"component {name}", span)
        if (port := fields.get("provided_service")) is not None:
            check_interface_ref(port.interface, f"component {name}", span)
        built = guard(lambda: Component(name, **fields), name, span)
        if built:
            components[name] = built

    # Every component must be claimed by exactly one application.
    claimed: dict[str, str] = {}
    applications = []
    for name, span, fields in blocks["application"]:
        members = []
        for cname in fields["component_names"]:
            if cname not in component_names:
                issues.append(BuildIssue(f"dangling reference: component {cname!r} (in application {name})",
                                         name, span))
                continue
            if cname in claimed:
                issues.append(BuildIssue(
                    f"component {cname!r} belongs to both {claimed[cname]!r} and {name!r}", name, span))
                continue
            claimed[cname] = name
            if cname in components:
                members.append(components[cname])
        # An application left empty only by members already reported is
        # not built, so its own check does not report them again.
        if members or not fields["component_names"]:
            applications.append(guard(
                lambda: Application(name, GeoLocation(*fields["region"]), tuple(members)), name, span))
    for cname in sorted(component_names - set(claimed)):
        issues.append(BuildIssue(f"component {cname!r} belongs to no application", cname))

    links = []
    seen_pairs: set[frozenset[str]] = set()
    for ends, span, fields in blocks["link"]:
        for end in ends:
            if end not in platform_names:
                issues.append(BuildIssue(f"dangling reference: platform {end!r} (link endpoint)",
                                         end, span))
        if set(ends) <= platform_names:
            pair = frozenset(ends)
            if pair in seen_pairs:
                issues.append(BuildIssue(
                    f"duplicate link between {min(pair)!r} and {max(pair)!r}", ends[0], span))
                continue
            seen_pairs.add(pair)
            a, b = sorted(ends)
            built = guard(lambda: NetworkLink(a, b, **fields), f"{a}<->{b}", span)
            if built:
                links.append(built)

    (name, span, fields), = blocks["system"]
    config = guard(lambda: SimConfig(**fields), name, span)

    if issues:
        raise ModelError(issues)

    # Collections are stored in name order, so two declarations of the
    # same system compare equal no matter how the blocks were arranged.
    return IoTSystemModel(
        name=name,
        platforms=_named(platforms),
        networks=tuple(sorted(links, key=lambda l: (l.endpoint_a, l.endpoint_b))),
        applications=_named(applications),
        contracts=_named(contracts),
        physical_entities=_named(entities),
        interfaces=tuple(sorted(interface_names)),
        sim_config=config,
    )


def parse_model(text: str, path: str = "<model>") -> IoTSystemModel | list[Diagnostic]:
    """Parse model text; returns the model or the list of diagnostics.

    Syntax problems abort at the first offending token; build problems
    (duplicates, dangling references, invariant violations) are collected
    and reported together.
    """
    try:
        blocks = _Parser(text, path).parse()
    except _ParseAbort as abort:
        return [abort.diagnostic]
    try:
        return build_system(blocks)
    except ModelError as exc:
        fallback = SourceSpan(path, 1, 1)
        return [Diagnostic(ERROR, issue.message, issue.span or fallback, code="build")
                for issue in exc.issues]


def load_model(path: str) -> IoTSystemModel | list[Diagnostic]:
    with open(path, encoding="utf-8") as handle:
        return parse_model(handle.read(), path=str(path))


# --------------------------------------------------------------------------
# Serialization


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
    "sorted": lambda names: _fmt_list(map(_quote, sorted(names))),
    "list": lambda names: _fmt_list(map(_quote, names)),
}


def _block(header: str, obj, rows, *inner: list[str]) -> list[str]:
    """``header { ... }`` as lines: ``obj``'s rows, then the ``inner`` lines, indented."""
    body = [f"{key} = {_WRITERS[kind](value)}" for key, attr, kind, _ in rows
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

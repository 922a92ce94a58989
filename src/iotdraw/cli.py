"""Command-line front end.

Exit codes: 0 on success, 1 when the model itself is at fault (parse
errors, failed validation, impossible analysis requests), 2 for usage
mistakes and unreadable (or not UTF-8) or unwritable files.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import os
import stat
import sys
import tempfile

from .analysis import (
    RANK_METRICS, SWEEP_ROUNDS, enumerate_deployments, evaluate_scenarios, lifetime_sweep,
    predicted_lifetime, rank_scenarios, scenario_text, scenarios_to_csv,
)
from .engine import FreshnessPolicy, csv_event_sink, gateway_uplink, run_simulation
from .model import ModelError, PlatformTier
from .modelfmt import parse_model, read_model_text
from .validate import validate_model

SEED_ENV_VAR = "IOTDRAW_SEED"


class _DomainFailure(Exception):
    pass


class _IoFailure(Exception):
    pass


def _load(path: str):
    try:
        text = read_model_text(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise _IoFailure(f"cannot read {path}: {exc}") from None
    result = parse_model(text, path)
    if isinstance(result, list):
        raise _DomainFailure("\n".join(d.render() for d in result))
    return result


@contextlib.contextmanager
def _output(path: str | None):
    """A command's output FILE (``--csv``, ``--log``) for its work, or None without one.

    The handle is on a new file beside FILE that replaces FILE when the
    block succeeds.  FILE is followed through symlinks, so the file that
    replaces it is the link's target and the link stays a link.  The new
    file is created before the block runs, so an unwritable FILE fails
    before the work and before anything is printed.  If the block raises,
    the new file is removed and any existing FILE is left as it was.  A
    target that exists and is not a regular file, such as a FIFO or a
    device, cannot be replaced: it is written in place.  A file that is
    replaced keeps its permission bits; a new one gets ``0o666`` less the
    umask, as ``open()`` would give it.  Commands print after the block,
    so a closed stdout is never reported as FILE's fault.
    """
    if path is None:
        yield None
        return
    temp = None
    try:
        target = os.path.realpath(path)
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:  # a new file, made like a replacement with a plain open()'s mode
            umask = os.umask(0)
            os.umask(umask)
            mode = stat.S_IFREG | (0o666 & ~umask)
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if stat.S_ISREG(mode):
            fd, temp = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.", suffix=".tmp",
                                        dir=os.path.dirname(target))
        else:
            fd = os.open(target, os.O_WRONLY | os.O_TRUNC)
    except OSError as exc:
        raise _IoFailure(f"cannot write {path}: {exc.strerror or exc}") from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            if temp is not None:
                os.chmod(temp, stat.S_IMODE(mode))  # the replaced file keeps its permissions
            yield handle
        if temp is not None:
            os.replace(temp, target)
    except OSError as exc:
        raise _IoFailure(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        if temp is not None:
            with contextlib.suppress(OSError):
                os.unlink(temp)  # already gone once it has replaced ``path``


def _write(handle, text: str) -> None:
    """Write a table to its opened FILE; ``perfbench`` times the writes through this name."""
    handle.write(text)


def _wrote(path: str | None) -> None:
    """Report an output FILE once the command's result is printed."""
    if path is not None:
        print(f"wrote {path}")


def _resolve_seed(args) -> int | None:
    """--seed beats the environment, which beats the model's own seed."""
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise _IoFailure(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _int_at_least(low: int):
    """An argparse type for integers no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _int_list(low: int):
    """An argparse type for comma-separated distinct integers no smaller than ``low``."""
    item = _int_at_least(low)

    def parse(text: str) -> list[int]:
        values = [item(part) for part in text.split(",")]
        if len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"values repeat in {text!r}")
        return values
    return parse


def _cmd_validate(args) -> int:
    model = _load(args.model)
    with _output(args.csv) as out:
        report = validate_model(model, path=args.model)
        if out is not None:
            _write(out, report.to_csv())
    print(report.to_text())
    _wrote(args.csv)
    return 0 if report.ok else 1


def _cmd_simulate(args) -> int:
    model = _load(args.model)
    devices = [p.name for p in model.platforms if p.tier is PlatformTier.DEVICE]
    options = dict(freshness=FreshnessPolicy(args.max_age),
                   halt_on=devices if args.stop_on_depletion else (), seed=_resolve_seed(args))
    # The log streams to disk batch by batch and appears only if the run succeeds.
    with _output(args.log) as log:
        report = run_simulation(model, sink=None if log is None else csv_event_sink(log),
                                **options)
    print(report.to_text())
    _wrote(args.log)
    return 0


def _cmd_deployments(args) -> int:
    """Both ``deployments`` and ``rank``, which always ranks."""
    model = _load(args.model)
    with _output(args.csv) as out:
        if args.rank:
            scenarios = rank_scenarios(evaluate_scenarios(model), args.rank)
        else:
            scenarios = enumerate_deployments(model)
        if out is not None:
            _write(out, scenarios_to_csv(scenarios))
    summary = f"{len(scenarios)} deployment scenario(s)"
    if args.command == "rank":
        summary += f", best first by {args.rank}"
    print(*map(scenario_text, scenarios), summary, sep="\n")
    _wrote(args.csv)
    return 0


def _cmd_lifetime(args) -> int:
    sweeping = args.sweep_interval is not None or args.sweep_max_age is not None
    for option, value in (("--rounds", args.rounds), ("--csv", args.csv)):
        if value is not None and not sweeping:
            args.usage_error(f"{option} needs --sweep-interval or --sweep-max-age")
    model = _load(args.model)
    seed = _resolve_seed(args)
    if sweeping:
        with _output(args.csv) as out:
            table = lifetime_sweep(
                model, args.device,
                intervals=args.sweep_interval,
                max_ages=args.sweep_max_age,
                rounds=SWEEP_ROUNDS if args.rounds is None else args.rounds,
                seed=seed if seed is not None else model.sim_config.rng_seed,
            )
            if out is not None:
                _write(out, table.to_csv())
        print(table.to_text())
        _wrote(args.csv)
        return 0

    predicted = predicted_lifetime(model, args.device)
    report = run_simulation(model, halt_on={args.device}, seed=seed, sink=None)
    measured = report.lifetimes.get(args.device)
    print(f"device {args.device!r}")
    if predicted is None:
        why = ("it has no link, so every request fails"
               if gateway_uplink(model, model.platform(args.device)) is None
               else "requests cost nothing")
        print(f"  predicted lifetime: no depletion ({why})")
    else:
        print(f"  predicted lifetime: {predicted} ticks")
    if measured is None:
        print(f"  measured lifetime: not depleted by tick {report.final_tick}")
    else:
        print(f"  measured lifetime: {measured} ticks")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iotdraw",
        description="Model, check, and simulate service-oriented IoT systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model against the design rules")
    p.add_argument("model")
    p.add_argument("--csv", metavar="FILE", help="also write the findings as CSV")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("simulate", help="run the model's discrete-event simulation")
    p.add_argument("model")
    p.add_argument("--seed", type=int, help=f"override the run seed (also {SEED_ENV_VAR})")
    p.add_argument("--max-age", type=_int_at_least(0), default=0, metavar="TICKS",
                   help="serve cached sensor data up to this age (default 0: no cache)")
    p.add_argument("--stop-on-depletion", action="store_true",
                   help="halt at the first battery depletion")
    p.add_argument("--log", metavar="FILE", help="write the event log as CSV")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("deployments", help="enumerate feasible deployment scenarios")
    p.add_argument("model")
    p.add_argument("--rank", choices=RANK_METRICS, help="score and order the scenarios")
    p.add_argument("--csv", metavar="FILE", help="write the scenarios as CSV")
    p.set_defaults(handler=_cmd_deployments)

    p = sub.add_parser("rank", help="score every scenario and order by one metric")
    p.add_argument("model")
    p.add_argument("--by", dest="rank", choices=RANK_METRICS, required=True)
    p.add_argument("--csv", metavar="FILE", help="write the ranking as CSV")
    p.set_defaults(handler=_cmd_deployments)

    p = sub.add_parser("lifetime", help="predict and measure a device's battery lifetime")
    p.add_argument("model")
    p.add_argument("--device", required=True)
    sweep = p.add_mutually_exclusive_group()
    sweep.add_argument("--sweep-interval", type=_int_list(1), metavar="A,B,C",
                       help="compare request intervals (ticks)")
    sweep.add_argument("--sweep-max-age", type=_int_list(0), metavar="A,B,C",
                       help="compare freshness windows (ticks)")
    p.add_argument("--rounds", type=_int_at_least(1),
                   help=f"sweep rounds per value (default {SWEEP_ROUNDS})")
    p.add_argument("--seed", type=int, help=f"sweep seed (also {SEED_ENV_VAR})")
    p.add_argument("--csv", metavar="FILE", help="write the sweep table as CSV")
    p.set_defaults(handler=_cmd_lifetime, usage_error=p.error)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call reuses, built on the first."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except _IoFailure as failure:
        print(f"iotdraw: {failure}", file=sys.stderr)
        return 2
    except _DomainFailure as failure:
        print(str(failure), file=sys.stderr)
        return 1
    except ModelError as exc:
        print(f"iotdraw: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # The reader went away: send the rest of the output nowhere, as the
        # Python docs advise for SIGPIPE, and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)

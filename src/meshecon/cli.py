"""Command-line orchestrator.

Subcommands: eval, sweep, equilibrium, simulate, radio, validate. Parameters
come from built-in defaults, optionally replaced by --config FILE (flat
key=value or JSON; the MESHECON_CONFIG environment variable supplies a
default path), with repeatable --set KEY=VALUE overrides applied last.
The parsed invocation fully determines a run: every command is
deterministic given its flags (including --seed), and numeric output uses
full round-trip precision.

Exit codes: 0 success; 2 configuration or validation error, or a file
that cannot be read or written; 3 numeric failure; 4 solver findings (no
free-entry crossing / boundary club optimum) — findings are reported
results, not tool failures, but they get their own code so scripts can
branch on them.

Output files (--output and --trace) get the umask's mode. They are written
to a temporary name and renamed into place, so a failed command never
leaves a partial file; an existing FIFO or device is written in place. The
temporary file is created beside its target with os.open, under a random
".meshecon-" name that no file holds, with mode 0o666, which the kernel
cuts by the umask. A report goes to it as bytes, in os.write calls, and a
trace through a UTF-8 text stream on the same descriptor. A path that ends
in a symbolic link, or holds "..", is resolved first (os.path.realpath):
the temporary file goes beside the file the kernel would open and replaces
that file, so a link stays a link.

This module alone turns results into output bytes: the records hand it
data (to_json_dict, solved_points), and it writes the JSON text and the
utilities CSV table that eval, sweep and equilibrium share. The JSON text
comes from model._json_text, the one writer that params_to_json uses too:
the bytes of json.dumps(obj, indent=2, sort_keys=True) plus a newline,
built without the stdlib's pure-Python indent encoder.

main builds each command's parser once per process, in a cache keyed by
the command, and reuses it, so in-process callers pay for argparse's setup
once; any other first word (a typo, --help, none) shares the one full
parser. The handler, cmd_<command>, is looked up when the command runs, so
one wrapped or replaced after the first call still runs.

simulate loads the simulator, and numpy.random with it, on first use: the
other commands never import it, and their start-up does not pay for it.
simulate looks its names up in the simulator module each time it runs, so
a wrapped or replaced simulator function is the one it calls.
"""

import argparse
import contextlib
import csv
import functools
import io
import math
import os
import sys

from .equilibrium import compare_regimes
from .errors import NumericsError, ParamError
from .model import (
    PARAM_KEYS,
    RadioParams,
    _json_text,
    channels_per_cell,
    default_params,
    params_from_dict,
    params_to_dict,
    path_loss,
    read_params_file,
    shannon_capacity,
    validate,
)
from .regimes import REGIME_ORDER, Regime, regime_utilities

ENV_CONFIG = "MESHECON_CONFIG"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_FINDING = 4

UTILITIES_CSV_HEADER = ("regime", "n", "eu_orig", "eu_int", "eu_out", "total")


def _add_param_args(sub):
    sub.add_argument("--config", help="parameter file (key=value or JSON)")
    sub.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE", help="override one parameter (repeatable)",
    )


def _add_output_args(sub, formats=("json", "csv")):
    sub.add_argument("--format", choices=formats, default="json")
    sub.add_argument("--output", help="write here instead of stdout")


def _load_params(args):
    path = args.config or os.environ.get(ENV_CONFIG)
    if path:
        base = params_to_dict(read_params_file(path))
    else:
        base = params_to_dict(default_params())
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ParamError(f"--set expects KEY=VALUE, got {item!r}")
        key = key.strip()
        if key not in PARAM_KEYS:
            raise ParamError(f"unknown parameter key {key!r} in --set")
        try:
            base[key] = float(value)
        except ValueError as exc:
            raise ParamError(f"--set {item!r}: {exc}") from exc
    return params_from_dict(base)


_WRITE = os.O_WRONLY | os.O_CREAT | os.O_CLOEXEC  # an output file's flags


@contextlib.contextmanager
def _atomic_file(path: str):
    """A descriptor open for writing on a new temporary file beside path,
    renamed onto path when the block completes and removed when it raises.
    The file is created with mode 0o666, which the kernel cuts by the umask,
    under a random name that no file holds (O_EXCL). A special file at path
    is written in place: renaming over it would replace it. A symbolic link
    is followed: the file it names is replaced, and the link is kept."""
    if os.path.exists(path) and not os.path.isfile(path):
        fd = os.open(path, _WRITE | os.O_TRUNC, 0o666)
        try:
            yield fd
        finally:
            os.close(fd)
        return
    # realpath reads every component, about 2 % of a solve request on
    # perfbench's output paths; the text of path names the file the kernel
    # opens unless its last component is a link or a ".." may climb out of
    # a linked folder
    target = os.path.realpath(path) if ".." in path or os.path.islink(path) else path
    folder = os.path.dirname(os.path.abspath(target))
    while True:
        tmp = os.path.join(folder, ".meshecon-" + os.urandom(6).hex())
        try:
            fd = os.open(tmp, _WRITE | os.O_EXCL, 0o666)
            break
        except FileExistsError:  # a file holds that name: draw another
            pass
    try:
        try:
            yield fd
        finally:
            os.close(fd)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    data = memoryview(text.encode("utf-8"))
    with _atomic_file(output) as fd:
        while data:  # os.write may write only part of what it is given
            data = data[os.write(fd, data):]


def _report_text(fmt: str, utilities, json_obj) -> str:
    """A report in format fmt, building only that one: the JSON text of
    json_obj(), or the CSV table of the RegimeUtilities in utilities, one
    row each, under UTILITIES_CSV_HEADER."""
    if fmt == "json":
        return _json_text(json_obj())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(UTILITIES_CSV_HEADER)
    for u in utilities:
        writer.writerow([u.regime.value, *map(repr, (u.params.n, u.eu_originator,
                                                     u.eu_intermediate, u.eu_outsider, u.total))])
    return buf.getvalue()


# --------------------------------------------------------------------------
# Commands


def cmd_eval(args) -> int:
    params = validate(_load_params(args))
    results = [regime_utilities(params, regime) for regime in REGIME_ORDER]
    _emit(_report_text(args.format, results,
                       lambda: {r.regime.value: r.to_json_dict() for r in results}),
          args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.steps < 2:
        raise ParamError(f"--steps must be >= 2, got {args.steps}")
    if args.axis not in PARAM_KEYS:
        raise ParamError(f"--axis must be one of {', '.join(PARAM_KEYS)}, got {args.axis!r}")
    # a non-finite end or width would put NaN into the grid (0 * inf)
    width = args.hi - args.lo
    for flag, value in (("--lo", args.lo), ("--hi", args.hi), ("--hi - --lo", width)):
        if not math.isfinite(value):
            raise ParamError(f"{flag} must be finite, got {value!r}")
    if not (args.lo <= args.hi):
        raise ParamError(f"--lo must be <= --hi, got {args.lo!r} > {args.hi!r}")
    base = params_to_dict(_load_params(args))
    step = (args.hi - args.lo) / (args.steps - 1)
    grid = [args.lo + i * step for i in range(args.steps)]
    grid[-1] = args.hi

    results = []
    for value in grid:
        point = dict(base)
        point[args.axis] = value
        try:
            params = validate(params_from_dict(point))
        except ParamError as exc:
            raise ParamError(f"sweep point {args.axis}={value!r} is invalid: {exc}") from exc
        for regime in REGIME_ORDER:
            results.append(regime_utilities(params, regime))

    _emit(_report_text(args.format, results, lambda: [r.to_json_dict() for r in results]),
          args.output)
    return EXIT_OK


def cmd_equilibrium(args) -> int:
    report = compare_regimes(_load_params(args))  # which validates
    solved = [res.utilities for res in report.solved_points()]
    _emit(_report_text(args.format, solved, report.to_json_dict), args.output)
    return EXIT_FINDING if report.has_findings() else EXIT_OK


def cmd_simulate(args) -> int:
    from .simulator import SimConfig, estimate_vs_analytic, write_event_trace

    # estimate_vs_analytic validates the whole config once, params first
    config = SimConfig(
        side=args.side,
        params=_load_params(args),
        regime=Regime(args.regime),
        trials=args.trials,
        seed=args.seed,
    )
    record = estimate_vs_analytic(config, collect_events=bool(args.trace))
    if args.trace:
        with (_atomic_file(args.trace) as fd,
              open(fd, "w", encoding="utf-8", closefd=False) as fh):
            write_event_trace(record.outcome.events, fh)
    _emit(_json_text(record.to_json_dict()), args.output)
    return EXIT_OK


def cmd_radio(args) -> int:
    radio = RadioParams(
        snr=args.snr,
        alpha=args.alpha,
        bandwidth_total=args.bt,
        user_bit_rate=args.rb,
        path_loss_constant=args.k,
        carrier_frequency=args.freq,
        path_loss_exponent=args.exp,
    )
    out = {
        "shannon_capacity": shannon_capacity(radio.snr),
        "channels_per_cell": channels_per_cell(radio),
    }
    if args.dist is not None:
        out["path_loss"] = path_loss(radio, args.dist)
    _emit(_json_text(out), args.output)
    return EXIT_OK


def cmd_validate(args) -> int:
    params = validate(_load_params(args))
    _emit(_json_text({"valid": True, "params": params_to_dict(params)}), args.output)
    return EXIT_OK


# --------------------------------------------------------------------------


def _report_args(sub):  # eval and equilibrium
    _add_param_args(sub)
    _add_output_args(sub)


def _sweep_args(sub):
    _add_param_args(sub)
    _add_output_args(sub)
    sub.add_argument("--axis", required=True, help="parameter to sweep")
    sub.add_argument("--lo", type=float, required=True)
    sub.add_argument("--hi", type=float, required=True)
    sub.add_argument("--steps", type=int, required=True)


def _simulate_args(sub):
    _add_param_args(sub)
    _add_output_args(sub, formats=("json",))
    sub.add_argument("--regime", choices=[r.value for r in REGIME_ORDER],
                     default=Regime.NO_PEERING.value)
    sub.add_argument("--side", type=int, default=40)
    sub.add_argument("--trials", type=int, default=200)
    sub.add_argument("--seed", type=int, default=7)
    sub.add_argument("--trace", help="also write a per-connection CSV trace here")


def _radio_args(sub):
    _add_output_args(sub, formats=("json",))
    sub.add_argument("--snr", type=float, default=0.0)
    sub.add_argument("--alpha", type=float, default=1.0)
    sub.add_argument("--bt", type=float, default=1e6)
    sub.add_argument("--rb", type=float, default=1e4)
    sub.add_argument("--k", type=float, default=1.0)
    sub.add_argument("--freq", type=float, default=1.0)
    sub.add_argument("--exp", type=float, default=2.0)
    sub.add_argument("--dist", type=float, help="distance for the path-loss ratio")


def _validate_args(sub):
    _add_param_args(sub)
    _add_output_args(sub, formats=("json",))


# name: (help line, function adding its arguments); the handler is cmd_<name>
COMMANDS = {
    "eval": ("expected utilities for all regimes", _report_args),
    "sweep": ("utilities over a parameter grid", _sweep_args),
    "equilibrium": ("free-entry and club densities report", _report_args),
    "simulate": ("Monte Carlo run cross-checked against the closed forms", _simulate_args),
    "radio": ("radio-physics helper formulas", _radio_args),
    "validate": ("check a parameter file", _validate_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: every subcommand, or only command when given one.

    A lone subcommand is listed under a metavar naming all of them, so the
    top-level usage line, which argparse prints with errors such as
    unrecognized arguments, reads the same either way.
    """
    parser = argparse.ArgumentParser(
        prog="meshecon",
        description="Peer-to-peer relay economics: regime utilities, equilibria, simulation.",
    )
    lone = command in COMMANDS
    subs = parser.add_subparsers(
        dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}" if lone else None,
    )
    for name in [command] if lone else COMMANDS:
        help_line, add_args = COMMANDS[name]
        add_args(subs.add_parser(name, help=help_line))
    return parser


@functools.cache
def _parser(command: str | None) -> argparse.ArgumentParser:
    """build_parser(command), built once per process: main asks for the
    named command's alone, since parsing cannot reach the others, and for
    the full one (None) on any other first word."""
    return build_parser(command)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    # OSError: an unreadable --config, an unwritable --output or --trace
    except (ParamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

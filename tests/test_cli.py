import dataclasses
import io
import json
import math
import os
import stat
import tempfile

import numpy as np
import pytest

from meshecon import (
    Regime,
    default_params,
    params_to_kv,
    params_to_json,
    regime_utilities,
)
from meshecon.cli import main

CSV_HEADER = "regime,n,eu_orig,eu_int,eu_out,total"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# eval


def test_eval_json_matches_library(capsys):
    code, out, _ = run(capsys, "eval")
    assert code == 0
    blob = json.loads(out)
    assert set(blob) == {r.value for r in Regime}
    lib = regime_utilities(default_params(), Regime.NO_PEERING)
    got = blob["NO_PEERING"]
    assert abs(got["total"] - lib.total) < 1e-12
    assert got["eu_originator"] == lib.eu_originator


def test_eval_rejects_broken_assumption(capsys):
    code, _, err = run(capsys, "eval", "--set", "v=2.5")
    assert code == 2
    assert "v - u" in err


def test_eval_csv_golden_header_and_row(capsys):
    code, out, _ = run(capsys, "eval", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "NO_PEERING"
    lib = regime_utilities(default_params(), Regime.NO_PEERING)
    assert float(first[2]) == pytest.approx(lib.eu_originator, abs=1e-12)
    assert float(first[5]) == pytest.approx(lib.total, abs=1e-12)


# --------------------------------------------------------------------------
# sweep


def test_sweep_density_axis(capsys):
    code, out, _ = run(capsys, "sweep", "--axis", "n", "--lo", "10", "--hi", "500",
                       "--steps", "50", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 150
    for regime in (r.value for r in Regime):
        outsiders = [abs(float(r[4])) for r in rows if r[0] == regime]
        assert len(outsiders) == 50
        assert all(b > a for a, b in zip(outsiders, outsiders[1:]))


def test_sweep_pollution_axis_is_linear(capsys):
    code, out, _ = run(capsys, "sweep", "--axis", "w", "--lo", "0", "--hi", "0.1",
                       "--steps", "11", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    for regime in (r.value for r in Regime):
        ws = np.linspace(0, 0.1, 11)
        outs = np.array([float(r[4]) for r in rows if r[0] == regime])
        slope, intercept = np.polyfit(ws, outs, 1)
        resid = outs - (slope * ws + intercept)
        ss_res = float(np.sum(resid**2))
        ss_tot = float(np.sum((outs - outs.mean()) ** 2))
        assert 1 - ss_res / ss_tot > 1 - 1e-9


def test_sweep_rejects_single_step_and_bad_axis(capsys):
    code, _, err = run(capsys, "sweep", "--axis", "n", "--lo", "10", "--hi", "20",
                       "--steps", "1")
    assert code == 2
    assert "steps" in err
    code, _, err = run(capsys, "sweep", "--axis", "bogus", "--lo", "1", "--hi", "2",
                       "--steps", "3")
    assert code == 2


def test_sweep_reports_first_invalid_point(capsys):
    # v below u + cost(d_max) fails validation at the low end of the grid
    code, _, err = run(capsys, "sweep", "--axis", "v", "--lo", "0.5", "--hi", "10",
                       "--steps", "5")
    assert code == 2
    assert "v=0.5" in err


@pytest.mark.parametrize("lo, hi, flag", [
    ("1", "inf", "--hi must be finite, got inf"),
    ("-inf", "1", "--lo must be finite, got -inf"),
    ("1", "nan", "--hi must be finite, got nan"),
    ("-1e308", "1e308", "--hi - --lo must be finite, got inf"),
])
def test_sweep_rejects_non_finite_bounds(capsys, lo, hi, flag):
    # the grid would otherwise hold 0 * inf = nan, a point nobody asked for
    code, out, err = run(capsys, "sweep", "--axis", "n", f"--lo={lo}", f"--hi={hi}",
                         "--steps", "2")
    assert (code, out, err) == (2, "", f"error: {flag}\n")


# --------------------------------------------------------------------------
# equilibrium


def test_equilibrium_report(capsys):
    code, out, _ = run(capsys, "equilibrium")
    assert code == 0
    blob = json.loads(out)
    n_np = blob["free_entry_no_peering"]["n_star"]
    n_pc = blob["free_entry_perfcomp"]["n_star"]
    n_club = blob["club"]["n_star"]
    assert n_np < n_pc
    assert n_club < n_pc
    assert blob["club"]["total_eu_at_n_star"] > 0


def test_equilibrium_findings_exit_code(capsys):
    code, out, _ = run(capsys, "equilibrium", "--set", "w=0")
    assert code == 4
    blob = json.loads(out)
    assert blob["free_entry_no_peering"] == "NO_CROSSING"
    assert blob["club"].startswith("BOUNDARY_OPTIMUM")


# --------------------------------------------------------------------------
# simulate


def test_simulate_record_and_trace(capsys, tmp_path):
    trace = tmp_path / "events.csv"
    code, out, _ = run(capsys, "simulate", "--side", "24", "--trials", "30",
                       "--seed", "7", "--trace", str(trace))
    assert code == 0
    blob = json.loads(out)
    assert blob["analytic_baseline"] == "NO_PEERING"
    assert blob["outcome"]["trials"] == 30
    assert {r["role"] for r in blob["roles"]} == {
        "originator", "intermediate", "outsider", "total"
    }
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("trial,origin,destination,path")
    assert len(lines) - 1 == blob["outcome"]["counts"]["attempted"]


@pytest.mark.parametrize("regime", [r.value for r in Regime])
def test_simulate_trace_reuses_the_compared_run(capsys, tmp_path, monkeypatch, regime):
    import meshecon.cli as cli
    import meshecon.simulator as sim

    argv = ["simulate", "--regime", regime, "--side", "11", "--trials", "30",
            "--seed", "5", "--set", "n=5"]
    plain = tmp_path / "plain.json"
    run(capsys, *argv, "--output", str(plain))

    runs = []
    real = sim.run_instant

    def counted(*args, **kwargs):
        runs.append(kwargs.get("collect_events", False))
        return real(*args, **kwargs)
    # count a run started by the command itself as well as by the comparison
    monkeypatch.setattr(sim, "run_instant", counted)
    monkeypatch.setattr(cli, "run_instant", counted, raising=False)
    traced, trace = tmp_path / "traced.json", tmp_path / "events.csv"
    assert run(capsys, *argv, "--output", str(traced), "--trace", str(trace))[0] == 0
    assert runs == [True]  # one Monte Carlo run, traced
    monkeypatch.undo()

    # the record is the untraced record, the trace that of a separate run
    assert traced.read_bytes() == plain.read_bytes()
    reference = io.StringIO()
    params = dataclasses.replace(default_params(), n=5.0)
    config = sim.SimConfig(side=11, params=params, regime=Regime(regime),
                           trials=30, seed=5)
    sim.write_event_trace(real(config, collect_events=True).events, reference)
    assert trace.read_bytes() == reference.getvalue().encode()


def test_failed_trace_leaves_old_trace(capsys, tmp_path, monkeypatch):
    import meshecon.simulator as sim

    real = sim.write_event_trace

    def failing(events, fh):
        assert len(events) > 50
        real(events[:50], fh)
        fh.flush()
        raise OSError("disk full")
    monkeypatch.setattr(sim, "write_event_trace", failing)
    trace = tmp_path / "events.csv"
    trace.write_bytes(b"old trace\n")
    code, out, err = run(capsys, "simulate", "--side", "11", "--trials", "30",
                         "--set", "n=5", "--trace", str(trace))
    assert (code, out, err) == (2, "", "error: disk full\n")
    assert trace.read_bytes() == b"old trace\n"
    assert os.listdir(tmp_path) == ["events.csv"]  # no .meshecon-* temp file


@pytest.mark.parametrize("argv", [
    ["--regime", "NO_PEERING"],
    ["--regime", "PEERING_NO_TRANSFERS"],
    ["--regime", "PEERING_PERFECT_COMPETITION", "--set", "w=0"],
])
def test_simulate_gives_a_zero_role_one_sign(capsys, argv):
    # a role that is zero is the same zero in every number printed for it:
    # its per-trial values, their mean, the exact lattice mean and the
    # closed form, which decides the sign
    code, out, _ = run(capsys, "simulate", *argv, "--side", "21", "--trials", "30")
    assert code == 0
    record = json.loads(out)
    outcome, zero_roles = record["outcome"], []
    for row in record["roles"]:
        if row["analytic"] != 0:
            continue
        role = row["role"]
        values = [*outcome["per_trial"][role], outcome["mean"][role], row["sim_mean"],
                  row["lattice_exact"], row["analytic"]]
        assert {(v, math.copysign(1.0, v)) for v in values} == {
            (0.0, math.copysign(1.0, row["analytic"]))}, role
        zero_roles.append(role)
    assert zero_roles == (["intermediate", "outsider"] if "w=0" in argv else ["intermediate"])


def test_simulate_rejects_bad_config(capsys):
    code, _, err = run(capsys, "simulate", "--side", "10", "--trials", "30")
    assert code == 2
    assert "side" in err


def test_simulate_validates_once(capsys, monkeypatch):
    import meshecon.cli as cli
    import meshecon.model as model
    import meshecon.simulator as sim

    calls = []
    real = model.validate

    def counted(params):
        calls.append(params)
        return real(params)
    for module in (model, cli, sim):
        monkeypatch.setattr(module, "validate", counted)
    assert run(capsys, "simulate", "--side", "24", "--trials", "30")[0] == 0
    assert len(calls) == 1


SIDE_ERROR = ("side must be >= ceil(2*d_max*n)+1 = 21 to avoid torus aliasing "
              "of the d_max circle, got 10")


@pytest.mark.parametrize("argv, message", [
    # the parameters first, then side, then trials and seed, and only then
    # the comparison's own trials >= 30
    (["--set", "z=2", "--side", "10", "--trials", "0"],
     "z must lie strictly inside (0, 1), got 2.0"),
    (["--side", "10", "--trials", "0"], SIDE_ERROR),
    (["--trials", "0"], "trials must be >= 1, got 0"),
    (["--seed", "-1", "--trials", "0"], "trials must be >= 1, got 0"),
    (["--side", "21", "--trials", "29", "--seed", "-1"],
     "seed must be a 64-bit unsigned int, got -1"),
    (["--trials", "29"], "trials must be >= 30 for a usable variance estimate, got 29"),
])
def test_simulate_error_precedence(capsys, argv, message):
    assert run(capsys, "simulate", *argv) == (2, "", f"error: {message}\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("w, message", [
    # the closed form is not finite: reported before any trial runs
    ("1e307", "NO_PEERING utility is not finite at n=10.0"),
    # the closed form is finite, some trials' outsider values are not
    ("1.15e306", "NO_PEERING per-trial outsider utility is not finite"),
])
def test_simulate_refuses_non_finite_utilities(capsys, monkeypatch, w, message):
    from meshecon import simulator as sim

    real, runs = sim.run_instant, []

    def counted(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(sim, "run_instant", counted)
    argv = ["--set", f"w={w}", "--side", "21", "--trials", "30"]
    assert run(capsys, "simulate", *argv) == (3, "", f"numeric failure: {message}\n")
    assert len(runs) == (w == "1.15e306")


# --------------------------------------------------------------------------
# radio, validate


def test_radio_outputs(capsys):
    code, out, _ = run(capsys, "radio", "--snr", "3")
    assert code == 0
    blob = json.loads(out)
    assert blob["shannon_capacity"] == 2.0
    assert blob["channels_per_cell"] == 142.0
    assert "path_loss" not in blob
    code, out, _ = run(capsys, "radio", "--snr", "3", "--dist", "2")
    assert json.loads(out)["path_loss"] == 0.25


def test_radio_rejects_invalid(capsys):
    code, _, err = run(capsys, "radio", "--alpha", "2.0")
    assert code == 2


@pytest.mark.parametrize("argv, code, message", [
    (["--bt", "inf"], 2, "error: bandwidth_total must be finite, got inf\n"),
    (["--dist", "nan"], 2, "error: d must be finite, got nan\n"),
    (["--rb", "1e-320"], 3, "numeric failure: channels_per_cell is not a finite float at "),
    (["--dist", "1e-200", "--exp", "4"], 3, "numeric failure: path_loss is not a finite float at "),
    (["--freq", "1e200", "--dist", "1"], 3, "numeric failure: path_loss is not a finite float at "),
])
def test_radio_refuses_non_finite_inputs_and_results(capsys, argv, code, message):
    # stdout stays empty: no Infinity, which is not JSON, and no traceback
    got, out, err = run(capsys, "radio", *argv)
    assert (got, out) == (code, "")
    assert err.startswith(message)


@pytest.mark.parametrize("beta", ["400", "1000", "1.000000000000001"])
def test_cost_laws_whose_samples_round_evaluate_and_solve(capsys, beta):
    code, out, _ = run(capsys, "eval", "--set", f"cost_beta={beta}")
    assert code == 0
    roles = [r[k] for r in json.loads(out).values()
             for k in ("eu_originator", "eu_intermediate", "eu_outsider", "total")]
    assert np.isfinite(roles).all()
    assert run(capsys, "equilibrium", "--set", f"cost_beta={beta}")[0] == 0


def test_validate_refuses_cost_d_max_underflowing_to_zero(capsys):
    assert run(capsys, "validate", "--set", "n=2e162", "--set", "d_max=1e-162") == (
        2, "", "error: cost(d_max) underflows to 0: 1.0 * 1e-162**2.0\n")


def test_validate_command(capsys, tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(params_to_kv(default_params()))
    code, out, _ = run(capsys, "validate", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["valid"] is True

    cfg.write_text("n=10\n")
    code, _, err = run(capsys, "validate", "--config", str(cfg))
    assert code == 2
    assert "missing" in err

    code, _, err = run(capsys, "validate", "--config", str(tmp_path / "absent.cfg"))
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["validate", "--set", "v=inf"], "v must be finite, got inf"),
    (["eval", "--set", "w=inf"], "w must be finite, got inf"),
    (["simulate", "--set", "n=inf"], "n must be finite, got inf"),
    (["validate", "--set", "d_max=1e300"], "cost(d_max) overflows"),
    (["simulate", "--set", "n=1e308"], "2*d_max*n overflows"),
])
def test_non_finite_or_overflowing_params_are_config_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["eval", "--set", "n=1e308"],
    ["sweep", "--axis", "n", "--lo", "1e307", "--hi", "1e308", "--steps", "2"],
    ["equilibrium", "--set", "n=1.79e308", "--set", "d_max=6e-309", "--set", "cost_beta=1.01"],
])
def test_overflowing_densities_are_one_numeric_failure_line(capsys, argv):
    # valid parameters whose role terms overflow; under the suite's
    # error::RuntimeWarning filter a numpy warning would raise out of main
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    if argv[0] == "equilibrium":
        assert "is not finite: n = Y/d_max = inf with d_max=6e-309" in err


def test_overflow_template_evaluates_as_its_y_and_cost_scale(capsys):
    # pi d_max^2 underflows and pi n^2 overflows, but Y = n d_max = 1.074 is
    # an ordinary relay-free template: the roles equal those at n = Y and
    # d_max = 1 with the same c(d_max); equilibrium still exits 3, as n* =
    # Y*/d_max overflows (test_overflowing_densities_are_one_numeric_failure_line)
    overflow = ["--set", "n=1.79e308", "--set", "d_max=6e-309", "--set", "cost_beta=1.01"]
    code, out, err = run(capsys, "eval", *overflow)
    assert (code, err) == (0, "")
    same = ["--set", f"n={1.79e308 * 6e-309!r}", "--set", f"cost_a={6e-309 ** 1.01!r}",
            "--set", "cost_beta=1.01"]
    code, want, _ = run(capsys, "eval", *same)
    assert code == 0
    got, want = json.loads(out), json.loads(want)
    for entry in (*got.values(), *want.values()):
        del entry["params"]
    assert got == want
    assert got["NO_PEERING"]["total"] == 0.2600022461340635
    assert got["PEERING_PERFECT_COMPETITION"]["eu_intermediate"] == 0.0


def test_json_config_rejects_booleans(capsys, tmp_path):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({**json.loads(params_to_json(default_params())),
                               "cost_a": True}))
    code, out, err = run(capsys, "validate", "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: cost_a must be a number, got True\n")


# --------------------------------------------------------------------------
# config plumbing and output handling


def test_config_file_json_and_overrides(capsys, tmp_path):
    cfg = tmp_path / "params.json"
    cfg.write_text(params_to_json(default_params()))
    code, out, _ = run(capsys, "eval", "--config", str(cfg), "--set", "w=0.02")
    assert code == 0
    blob = json.loads(out)
    assert blob["NO_PEERING"]["params"]["w"] == 0.02


def test_config_env_var(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "params.cfg"
    text = params_to_kv(default_params()).replace("w=0.01", "w=0.03")
    cfg.write_text(text)
    monkeypatch.setenv("MESHECON_CONFIG", str(cfg))
    code, out, _ = run(capsys, "eval")
    assert code == 0
    assert json.loads(out)["NO_PEERING"]["params"]["w"] == 0.03


def test_set_rejects_unknown_key(capsys):
    code, _, err = run(capsys, "eval", "--set", "gamma=1")
    assert code == 2
    assert "gamma" in err


def test_output_file_written_atomically(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, _, _ = run(capsys, "eval", "--output", str(target))
    assert code == 0
    assert json.loads(target.read_text())
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".meshecon-")]
    assert leftovers == []


def test_output_file_gets_the_umask_mode(capsys, tmp_path):
    target = tmp_path / "out.json"
    old = os.umask(0o022)
    try:
        code, _, _ = run(capsys, "eval", "--output", str(target))
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o644


def test_output_to_a_fifo_is_written_in_place(capsys, tmp_path):
    # renaming over a special file would replace it, as it once replaced
    # /dev/null when run as root; a FIFO in tmp_path shows the same safely
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open
    try:
        code, out, _ = run(capsys, "eval", "--output", str(fifo))
        received = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert (code, out) == (0, "")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]
    assert received.decode() == run(capsys, "eval")[1]


@pytest.mark.parametrize("flag, argv", [
    ("--output", ["validate"]),
    ("--trace", ["simulate", "--side", "11", "--trials", "30", "--set", "n=5"]),
])
@pytest.mark.parametrize("elsewhere", [False, True])
def test_output_through_a_symlink_replaces_the_file_it_names(capsys, tmp_path, monkeypatch,
                                                             flag, argv, elsewhere):
    # a link beside its file (relative), and one to a file in another folder
    # (absolute); the temporary file is made beside the file it replaces, as
    # a rename onto another file system would fail
    plain = tmp_path / "plain"
    assert run(capsys, *argv, flag, str(plain))[0] == 0
    folder = tmp_path / "elsewhere" if elsewhere else tmp_path
    folder.mkdir(exist_ok=True)
    target = folder / "target"
    target.write_bytes(b"old bytes\n")
    link = tmp_path / "link"
    link.symlink_to(target if elsewhere else "target")
    folders = []
    real_mkstemp = tempfile.mkstemp

    def mkstemp(**kwargs):
        folders.append(kwargs["dir"])
        return real_mkstemp(**kwargs)
    monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
    code, _, _ = run(capsys, *argv, flag, str(link))
    assert code == 0
    assert folders == [os.path.realpath(folder)]
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == plain.read_bytes()
    leftovers = [p for p in (*tmp_path.iterdir(), *folder.iterdir())
                 if p.name.startswith(".meshecon-")]
    assert leftovers == []


def test_output_after_a_linked_folder_and_dotdot_goes_where_the_kernel_puts_it(
        capsys, tmp_path, monkeypatch):
    # link/.. is the parent of the folder the link names, not tmp_path as the
    # text reads; the temporary file is made there too, so a rename between
    # file systems is never asked for
    real = tmp_path / "real"
    (real / "folder").mkdir(parents=True)
    (tmp_path / "link").symlink_to(real / "folder")
    folders = []
    real_mkstemp = tempfile.mkstemp

    def mkstemp(**kwargs):
        folders.append(kwargs["dir"])
        return real_mkstemp(**kwargs)
    monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
    code, out, _ = run(capsys, "validate", "--output", os.path.join(tmp_path, "link", "..", "out"))
    assert (code, out) == (0, "")
    assert folders == [os.path.realpath(real)]
    assert (real / "out").read_text() == run(capsys, "validate")[1]
    assert not (tmp_path / "out").exists()


def test_no_partial_output_on_error(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, _, _ = run(capsys, "eval", "--set", "v=2.5", "--output", str(target))
    assert code == 2
    assert not target.exists()


@pytest.mark.parametrize("flag", ["--output", "--config"])
def test_unusable_path_is_a_config_error(capsys, tmp_path, flag):
    folder = tmp_path / "folder"
    folder.mkdir()
    code, out, err = run(capsys, "eval", flag, str(folder))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(folder) in err
    assert os.listdir(tmp_path) == ["folder"]  # no .meshecon-* temp file
    assert os.listdir(folder) == []


def _package_env():
    """The environment with this test run's meshecon first on PYTHONPATH, so
    a subprocess imports the same package whether or not it is installed."""
    import meshecon

    src = os.path.dirname(os.path.dirname(os.path.abspath(meshecon.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


@pytest.fixture
def fresh_parsers():
    """main's parser cache, empty at the start and emptied again at the end,
    so that no parser built under a patch outlives it."""
    from meshecon import cli

    cli._parser.cache_clear()
    yield cli._parser
    cli._parser.cache_clear()


def _parse_exit(capsys, parser, argv):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("tail", [["--help"], ["--bogus"], ["stray"], ["--format", "xml"]])
@pytest.mark.parametrize("command", ["eval", "sweep", "equilibrium", "simulate", "radio", "validate"])
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, command, tail):
    # help, the subcommand's errors and the top-level usage line that
    # unrecognized arguments print
    from meshecon.cli import build_parser

    argv = [command, *tail]
    assert (_parse_exit(capsys, build_parser(command), argv)
            == _parse_exit(capsys, build_parser(), argv))


def test_main_builds_only_the_named_command(capsys, monkeypatch, fresh_parsers):
    from meshecon.cli import COMMANDS

    added = []
    for name, (help_line, add_args) in list(COMMANDS.items()):
        def recording(sub, name=name, add_args=add_args):
            added.append(name)
            add_args(sub)
        monkeypatch.setitem(COMMANDS, name, (help_line, recording))
    assert run(capsys, "radio", "--snr", "3")[0] == 0
    assert added == ["radio"]
    with pytest.raises(SystemExit):
        main(["--help"])
    assert added == ["radio", *COMMANDS]


def test_main_builds_each_parser_once(capsys, monkeypatch, fresh_parsers):
    from meshecon.cli import COMMANDS

    # the emptied cache makes main build every parser afresh
    runs = dict.fromkeys(COMMANDS, 0)
    for name, (help_line, add_args) in list(COMMANDS.items()):
        def counted(sub, name=name, add_args=add_args):
            runs[name] += 1
            add_args(sub)
        monkeypatch.setitem(COMMANDS, name, (help_line, counted))
    calls = [["eval"], ["sweep", "--axis", "w", "--lo", "0", "--hi", "1", "--steps", "2"],
             ["equilibrium"], ["simulate", "--side", "21", "--trials", "30"],
             ["radio"], ["validate"]]
    for _ in range(3):
        for argv in calls:
            assert main(argv) == 0
    assert runs == dict.fromkeys(runs, 1)
    for argv in (["bogus"], ["--help"], [], ["bogus"], ["--help"]):
        with pytest.raises(SystemExit):
            main(argv)
    # the full parser once more, whatever the first word outside COMMANDS
    assert runs == dict.fromkeys(runs, 2)


def test_a_reused_parser_keeps_no_state_from_the_last_call(capsys, tmp_path):
    from meshecon.cli import build_parser, cmd_eval

    out = tmp_path / "out.csv"
    assert run(capsys, "eval", "--set", "n=20", "--set", "w=0.5", "--format", "csv",
               "--output", str(out))[0] == 0
    assert out.read_text().startswith(CSV_HEADER)
    code, reused, _ = run(capsys, "eval")
    assert code == cmd_eval(build_parser("eval").parse_args(["eval"])) == 0
    assert reused == capsys.readouterr().out
    assert json.loads(reused)["NO_PEERING"]["params"]["n"] == default_params().n


def test_a_handler_replaced_after_the_first_call_runs(capsys, monkeypatch):
    from meshecon import cli

    assert run(capsys, "eval")[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.format) or 0)
    assert run(capsys, "eval", "--format", "csv") == (0, "", "")
    assert seen == ["csv"]


@pytest.mark.parametrize("argv, code", [(["bogus"], 2), (["--help"], 0)])
def test_words_outside_commands_share_the_full_parser(capsys, fresh_parsers, argv, code):
    from meshecon import cli

    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == (
            _parse_exit(capsys, cli.build_parser(), argv))
        assert exc.value.code == code
        assert fresh_parsers.cache_info().currsize == 1


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_reused_parser_wraps_help_to_the_current_width(capsys, monkeypatch, fresh_parsers,
                                                       argv):
    from meshecon import cli

    monkeypatch.setenv("COLUMNS", "80")
    wide = _parse_exit(capsys, cli.build_parser(argv[0]), argv)
    with pytest.raises(SystemExit):
        main(argv)  # builds the cached parser at width 80
    assert capsys.readouterr().out == wide[1]
    monkeypatch.setenv("COLUMNS", "40")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    narrow = _parse_exit(capsys, cli.build_parser(argv[0]), argv)
    assert (exc.value.code, captured.out, captured.err) == narrow
    assert narrow[1] != wide[1]


def test_module_entry_point_subprocess():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "meshecon", "radio", "--snr", "3"],
        capture_output=True, text=True, env=_package_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["shannon_capacity"] == 2.0


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency; importing it made up most of the
    # CLI's start-up time. numpy.polynomial, which gives the annulus rule's
    # nodes, is loaded on the first peering evaluation, not on import
    import subprocess
    import sys

    code = ("import sys, meshecon.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.startswith('numpy.polynomial')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_package_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_commands_other_than_simulate_leave_the_simulator_unloaded():
    # simulate imports the simulator, and numpy.random with it, when it runs;
    # the other commands' start-up and work never load either
    import subprocess
    import sys

    code = ("import contextlib, io, sys\n"
            "from meshecon.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(argv) for argv in (['eval'], ['equilibrium'], ['validate'],\n"
            "             ['sweep', '--axis', 'n', '--lo', '10', '--hi', '20', '--steps', '3'],\n"
            "             ['radio', '--snr', '3'])]\n"
            "print(codes, [m for m in ('numpy.random', 'meshecon.simulator') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_package_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0] []"


def test_simulate_in_a_fresh_interpreter_matches_in_process(capsys):
    # this process has loaded the simulator already; only a fresh interpreter
    # runs simulate's own import of it
    import subprocess
    import sys

    argv = ["simulate", "--side", "21", "--trials", "30"]
    proc = subprocess.run([sys.executable, "-m", "meshecon", *argv], capture_output=True,
                          env=_package_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, *argv)
    assert (code, proc.stdout) == (0, out.encode())


def test_equilibrium_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call, about 1 MiB of resident
    # memory that the equilibrium command has no use for
    import subprocess
    import sys

    code = ("import contextlib, io, sys\n"
            "from meshecon.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['equilibrium'])\n"
            "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_package_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_reruns_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "simulate", "--side", "24", "--trials", "30", "--seed", "9",
        "--output", str(a))
    run(capsys, "simulate", "--side", "24", "--trials", "30", "--seed", "9",
        "--output", str(b))
    assert a.read_bytes() == b.read_bytes()

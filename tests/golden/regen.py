"""Rewrite manifest.json: the CLI's bytes on a fixed set of requests.

Each request is one in-process `meshecon.cli.main` call. The manifest keeps
its argv, exit code, stderr text and the sha256 of its stdout, of its
--output file and of its --trace file (null when none was written). tests/test_golden.py replays
every request and compares. The digests depend on numpy's build (its log
and power differ from math's in the last bit on some inputs), so the
manifest records the numpy and Python versions it was made with.

Regenerate only when a change means to move bytes, and list in CHANGES.md
which requests moved and why:

    python tests/golden/regen.py

It prints every entry that differs from the one it replaces: the argv, the
old and new exit codes, and which digests or stderr changed.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"
OUTPUT = "golden-output.txt"  # --output target, relative to the working directory
TRACE = "golden-trace.csv"  # simulate's --trace target, likewise
ENVIRONMENT = {"COLUMNS": "80"}  # argparse wraps its usage lines to this width
UNSET = ("MESHECON_CONFIG",)
# --config files in the working directory: name and text
CONFIGS = {
    # the default parameters with n given twice, once as 10 and once as 12
    "duplicate-key.json": '{"n": 10.0, "n": 12.0, "d_max": 1.0, "v": 10.0, "u": 2.0, '
                          '"w": 0.01, "z": 0.99, "cost_a": 1.0, "cost_beta": 2.0}\n',
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _take(path):
    """The sha256 of the file at path, which is then removed, or None."""
    if not os.path.exists(path):
        return None
    digest = _sha256(Path(path).read_bytes())
    os.unlink(path)
    return digest


def record(argv) -> dict:
    """One request's entry: run cli.main(argv) in the working directory,
    which must hold no OUTPUT or TRACE file, with ENVIRONMENT set and UNSET
    unset. A RuntimeWarning raised as an error names the request."""
    from meshecon.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except RuntimeWarning as exc:
            exc.add_note(f"request: {shlex.join(['meshecon', *argv])}")
            raise
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": _sha256(out.getvalue().encode()),
        "output_sha256": _take(OUTPUT),
        "trace_sha256": _take(TRACE),
        "stderr": err.getvalue(),
    }


def _sets(template):
    """--set arguments giving every parameter of template."""
    values = {"n": template.n, "d_max": template.d_max, "v": template.v, "u": template.u,
              "w": template.w, "z": template.z, "cost_a": template.cost.a,
              "cost_beta": template.cost.beta}
    return [a for key, value in values.items() for a in ("--set", f"{key}={value!r}")]


def requests() -> list:
    """The argv of every request, in manifest order."""
    from conftest import random_draws
    from meshecon import compare_regimes

    overflow = ["--set", "n=1.79e308", "--set", "d_max=6e-309", "--set", "cost_beta=1.01"]
    templates = [[], ["--set", "w=0"], overflow, ["--set", "n=1e308"]]
    templates += [_sets(p) for p, _ in random_draws(6, seed=7)]
    # templates whose comparison ends in a finding, and some that solve, other
    # than those above: the two draws share their seed's stream
    findings = solved = 0
    for p, _ in random_draws(150, seed=7, require_relay=False):
        if _sets(p) in templates:
            continue
        report = compare_regimes(p)
        if report.has_findings() and findings < 4:
            findings += 1
            templates.append(_sets(p))
        elif not report.has_findings() and solved < 2:
            solved += 1
            templates.append(_sets(p))

    argvs = []
    for sets in templates:
        for command in ("eval", "equilibrium"):
            for fmt in ("json", "csv"):
                argvs.append([command, *sets, "--format", fmt])
        argvs.append(["validate", *sets])

    sweeps = {"n": ("2.5", "40", "9"), "w": ("0", "0.05", "7"),
              "cost_beta": ("1.2", "3", "7")}
    for sets in templates[:2] + templates[4:7]:
        for axis, (lo, hi, steps) in sweeps.items():
            for fmt in ("json", "csv"):
                argvs.append(["sweep", *sets, "--axis", axis, "--lo", lo, "--hi", hi,
                              "--steps", steps, "--format", fmt])

    # every kind of output, once through --output
    with_output = [["eval"], ["eval", "--format", "csv"], ["equilibrium"],
                   ["equilibrium", "--set", "w=0", "--format", "csv"],
                   ["sweep", "--axis", "z", "--lo", "0.5", "--hi", "0.99", "--steps", "5"],
                   ["validate"], ["radio", "--snr", "3", "--dist", "2"]]
    argvs += [argv + ["--output", OUTPUT] for argv in with_output]
    argvs += [["radio"], ["radio", "--snr", "10", "--alpha", "0.5", "--exp", "3.5",
                          "--dist", "0.25"]]
    # radio inputs that are not finite, or whose results are not
    argvs += [["radio", "--bt", "inf"], ["radio", "--rb", "1e-320"],
              ["radio", "--dist", "1e-200", "--exp", "4"],
              ["radio", "--freq", "1e200", "--dist", "1"]]

    # the cost law at its edges: beta far above 1 and just above it, and a
    # cost(d_max) that underflows to 0
    for beta in ("400", "1.000000000000001"):
        argvs += [[command, "--set", f"cost_beta={beta}"] for command in ("validate", "eval")]
    argvs.append(["validate", "--set", "n=2e162", "--set", "d_max=1e-162"])
    # a club total that saturates at v from inside the bracket to its top
    argvs.append(["equilibrium", "--set", "w=0", "--set", "cost_a=5e-312",
                  "--set", "cost_beta=1.01"])
    # the solvers' longer paths, on templates not requested above: clubs
    # refined in six rounds or more, and clubs on a grid profile with several humps
    long_clubs, multimodal = [], []
    for p, _ in random_draws(300, seed=7, require_relay=False):
        club = compare_regimes(p).club
        if isinstance(club, str) or _sets(p) in templates:
            continue
        if club.diagnostics.iterations >= 6 and len(long_clubs) < 2:
            long_clubs.append(p)
        if "multimodal grid profile" in club.diagnostics.notes and len(multimodal) < 2:
            multimodal.append(p)
    argvs += [["equilibrium", *_sets(p), "--format", fmt]
              for p in long_clubs + multimodal for fmt in ("json", "csv")]
    # a pollution cost whose product with the relay count overflows a float,
    # and whose NO_PEERING roles overflow at doublings past the bracket's end
    argvs.append(["eval", "--set", "w=1e300", "--set", "n=1000"])
    argvs.append(["equilibrium", "--set", "w=1e300"])
    # comparisons that end in a solver's own NumericsError: a NO_PEERING
    # outsider that overflows at the bracket's first doubling, and free entry
    # under competitive pricing whose rounds stall an ulp from the root
    for sets in (["--set", "v=1e308", "--set", "u=1", "--set", "w=1.37e308"],
                 ["--set", "v=1e9", "--set", "w=1e6", "--set", "cost_a=1e8"]):
        argvs += [["equilibrium", *sets, "--format", fmt] for fmt in ("json", "csv")]
    # a cost(d_max) of 1e300 whose d_max**beta overflows
    argvs.append(["validate", "--set", "cost_a=1e-10", "--set", "d_max=1e10",
                  "--set", "cost_beta=31", "--set", "v=1e301"])
    # and a cost(d_max) of 3.8e296 whose d_max**(beta / 2) overflows too
    argvs.append(["validate", "--set", "d_max=1.4e154", "--set", "n=1e-153",
                  "--set", "cost_a=1e-320", "--set", "cost_beta=4", "--set", "v=1e297",
                  "--set", "u=1"])

    # simulate in every regime, at partial demand (the default z) and at full
    # demand (P(K) == 1.0), with and without --trace; one side per regime
    for regime, side in (("NO_PEERING", "41"), ("PEERING_NO_TRANSFERS", "30"),
                         ("PEERING_PERFECT_COMPETITION", "21")):
        for demand in ([], ["--set", "z=1e-12"]):
            argv = ["simulate", "--regime", regime, "--side", side, "--trials", "30", *demand]
            argvs += [argv, argv + ["--trace", TRACE]]
    # per-trial utilities whose squares overflow a float
    argvs.append(["simulate", "--set", "v=1e301", "--side", "21", "--trials", "30"])
    # per-trial utilities whose squares underflow a float
    argvs.append(["simulate", "--set", "v=1e-180", "--set", "u=1e-181", "--set", "w=1e-183",
                  "--set", "cost_a=1e-181", "--side", "21", "--trials", "30"])
    # a v or w whose products with a run's counts overflow a float, though
    # every per-node value is finite
    for sets in (["--set", "w=1e306"], ["--set", "v=1e308", "--set", "u=1"],
                 ["--regime", "PEERING_PERFECT_COMPETITION", "--set", "w=1e306"]):
        argvs.append(["simulate", *sets, "--side", "21", "--trials", "30"])
    # per-node utilities past the float range: the closed form's, and some
    # trials' outsider values where the closed form is finite
    for w in ("1e307", "1.15e306"):
        argvs.append(["simulate", "--set", f"w={w}", "--side", "21", "--trials", "30"])
    # a c(d_max) whose sum over a trial's connections overflows a float
    argvs.append(["simulate", "--set", "v=1e308", "--set", "u=1", "--set", "cost_a=1e307",
                  "--side", "21", "--trials", "30"])
    # a diagonal lattice hop longer than d_max, whose cost's d**(beta / 2) overflows
    argvs.append(["simulate", "--regime", "PEERING_PERFECT_COMPETITION", "--side", "5",
                  "--trials", "30", "--set", "d_max=1e154", "--set", "n=1.01e-154",
                  "--set", "cost_a=1e-320", "--set", "cost_beta=4", "--set", "v=1e297",
                  "--set", "u=1"])

    argvs += [
        # usage errors
        [], ["frobnicate"], ["eval", "--format", "xml"], ["sweep", "--lo", "1", "--hi", "2"],
        ["sweep", "--axis", "n", "--lo", "1", "--hi", "2", "--steps", "x"],
        ["validate", "--format", "csv"], ["eval", "--bogus"],
        # validation errors
        ["validate", "--set", "z=2"], ["eval", "--set", "n=0.5"],
        ["equilibrium", "--set", "d_max=-1"], ["eval", "--set", "foo=1"],
        ["eval", "--set", "n"], ["eval", "--set", "n=abc"], ["eval", "--set", "w=nan"],
        ["equilibrium", "--set", "cost_beta=0.5"], ["validate", "--config", "missing.cfg"],
        ["validate", "--config", "duplicate-key.json"],
        ["sweep", "--axis", "n", "--lo", "1", "--hi", "2", "--steps", "1"],
        ["sweep", "--axis", "foo", "--lo", "1", "--hi", "2", "--steps", "3"],
        ["sweep", "--axis", "n", "--lo", "3", "--hi", "2", "--steps", "3"],
        ["sweep", "--axis", "n", "--lo", "3", "--hi", "inf", "--steps", "3"],
        ["sweep", "--axis", "z", "--lo", "0.5", "--hi", "1.5", "--steps", "3"],
        ["sweep", "--axis", "n", "--lo", "1e308", "--hi", "1e308", "--steps", "2"],
        ["simulate", "--trials", "29"],
    ]
    return argvs


@contextlib.contextmanager
def environment():
    """A fresh working directory holding CONFIGS, with ENVIRONMENT set,
    UNSET unset and RuntimeWarnings raised as errors, as tests/test_golden.py's
    replay under pytest's filter raises them: a request that warns is never
    recorded."""
    saved = {key: os.environ.get(key) for key in (*ENVIRONMENT, *UNSET)}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        os.chdir(tmp)
        for name, text in CONFIGS.items():
            Path(name).write_text(text, encoding="utf-8")
        os.environ.update(ENVIRONMENT)
        for key in UNSET:
            os.environ.pop(key, None)
        try:
            yield
        finally:
            os.chdir(cwd)
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value


def moved(old, new) -> str | None:
    """A line naming how entry new differs from old, the entry it replaces
    (None for a new request), or None when they are equal."""
    argv = shlex.join(["meshecon", *new["argv"]])
    if old is None:
        return f"{argv}: new request, exit {new['exit']}"
    if old == new:
        return None
    changed = [key for key in ("stdout_sha256", "output_sha256", "trace_sha256", "stderr")
               if old.get(key) != new[key]]
    return f"{argv}: exit {old['exit']} -> {new['exit']}, changed {', '.join(changed) or 'none'}"


def main() -> None:
    import numpy as np

    with environment():
        entries = [record(argv) for argv in requests()]
    old = {}
    if MANIFEST.exists():
        old = {tuple(e["argv"]): e
               for e in json.loads(MANIFEST.read_text(encoding="utf-8"))["requests"]}
    lines = [moved(old.get(tuple(e["argv"])), e) for e in entries]
    for line in filter(None, lines):
        print(line)
    manifest = {"numpy": np.__version__, "python": platform.python_version(),
                "requests": entries}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    codes = sorted({e["exit"] for e in entries})
    print(f"{len(entries)} requests, {sum(map(bool, lines))} moved or new, "
          f"exit codes {codes}, written to {MANIFEST}")


if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]
    main()

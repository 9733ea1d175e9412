"""Self-test of the benchmark: python3 perfbench/selftest.py

1. A minimal run of each workload (its first two requests) verifies clean.
2. Verification rejects corrupted outputs, so the correctness gate is not
   vacuous: a perturbed or shifted n*, a findings marker without exit 4, a
   changed count, a shifted lattice_exact or total, a bent path, a missing
   trace row, a wrong per-node tally.
3. Traced outputs are byte-identical to untraced ones, the traced run
   reports every per_layer metric BENCHMARK.json names, and a wrapped
   function the package lacks is reported absent instead of crashing.

Exits non-zero on the first failed check.
"""

import copy
import csv
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (pins BLAS threads before numpy loads)

sys.path.insert(0, str(run.SRC))
import meshecon.cli  # noqa: E402,F401
import meshecon.regimes  # noqa: E402
import meshecon.simulator  # noqa: E402,F401
from tracer import Recorder  # noqa: E402
from workloads import WORKLOADS, check, execute  # noqa: E402


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def first_requests(name, count=2, kind=None):
    stream = WORKLOADS[name].stream(0)
    out = []
    while len(out) < count:
        r = next(stream)
        if kind is None or r.kind == kind:
            out.append(r)
    return out


def corrupted(result, workdir, edit, suffix=".out", field="output"):
    """A copy of result whose output (or trace) file went through edit()."""
    src = getattr(result, field)
    with open(src, encoding="utf-8") as fh:
        text = fh.read()
    dst = os.path.join(workdir, f"bad-{edit.__name__}{suffix}")
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write(edit(text))
    bad = copy.copy(result)
    bad.problems = []
    setattr(bad, field, dst)
    return bad


def rejects(name, result, workdir, edit, **kw):
    bad = check(WORKLOADS[name], corrupted(result, workdir, edit, **kw))
    expect(bool(bad.problems), f"{name}: verification rejects {edit.__name__}")


def json_edit(fn):
    def edit(text):
        blob = json.loads(text)
        fn(blob)
        return json.dumps(blob)
    edit.__name__ = fn.__name__
    return edit


@json_edit
def perturbed_n_star(report):
    report["free_entry_perfcomp"]["n_star"] *= 1 + 1e-6


@json_edit
def shifted_root(report):
    """Moves n* consistently everywhere, so only the oracle can notice."""
    res = report["free_entry_perfcomp"]
    res["n_star"] *= 1 + 1e-6
    res["utilities"]["params"]["n"] = res["n_star"]


@json_edit
def findings_marker(report):
    report["club"] = "BOUNDARY_OPTIMUM@2.0"


@json_edit
def changed_attempted(record):
    record["outcome"]["counts"]["attempted"] += 1


@json_edit
def shifted_lattice_exact(record):
    record["roles"][2]["lattice_exact"] *= 1 + 1e-9


@json_edit
def shifted_total(record):
    """A total off by 1e-9 of its roles' size, past the summed tolerance."""
    roles = record["roles"]
    roles[3]["lattice_exact"] += 1e-9 * sum(abs(r["lattice_exact"]) for r in roles[:3])


@json_edit
def wrong_per_node_tally(blob):
    blob["per_node_outsider_exposures"][0] += 1


def dropped_trace_row(text):
    lines = text.splitlines(keepends=True)
    return "".join(lines[:-1])


def bent_path(text):
    rows = list(csv.reader(text.splitlines()))
    for row in rows[1:]:
        nodes = row[3].split("|")
        if row[5] == "PEER" and len(nodes) > 2:
            nodes[1] = str(int(nodes[1]) + 2)
            row[3] = "|".join(nodes)
            break
    return "".join(",".join(r) + "\n" for r in rows)


def main():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        plain = {}
        for name in WORKLOADS:
            requests = first_requests(name)
            if name == "trace":
                requests = first_requests(name, 2, "cli") + first_requests(name, 1, "per_node")
            results = [check(WORKLOADS[name], execute(r, workdir, f"u-{name}")) for r in requests]
            for r in results:
                expect(not r.problems and r.units > 0,
                       f"{name}: minimal request {r.request.index} verifies {r.problems}")
            plain[name] = (requests, results)

        solve = plain["solve"][1][0]
        expect(solve.request.pinned, "solve: first request is the default template")
        rejects("solve", solve, workdir, perturbed_n_star)
        rejects("solve", solve, workdir, findings_marker)
        rejects("solve", plain["solve"][1][1], workdir, shifted_root)
        mc = plain["montecarlo"][1][0]
        rejects("montecarlo", mc, workdir, changed_attempted)
        rejects("montecarlo", mc, workdir, shifted_lattice_exact)
        rejects("montecarlo", mc, workdir, shifted_total)
        traced_cli = [r for r in plain["trace"][1] if r.request.kind == "cli"]
        peering = next(r for r in traced_cli
                       if r.request.sim["regime"] == "PEERING_PERFECT_COMPETITION")
        rejects("trace", peering, workdir, dropped_trace_row, suffix=".csv", field="trace_path")
        rejects("trace", peering, workdir, bent_path, suffix=".csv", field="trace_path")
        per_node = next(r for r in plain["trace"][1] if r.request.kind == "per_node")
        rejects("trace", per_node, workdir, wrong_per_node_tally)

        # A function a later version deletes is reported, not fatal.
        regimes = sys.modules["meshecon.regimes"]
        saved = regimes.integrate
        del regimes.integrate
        try:
            probe = Recorder()
            probe.install()
            probe.layer_metrics()
            expect("regimes.integrate" in probe.absent, "tracer: missing function reported absent")
        finally:
            regimes.integrate = saved

        recorder = Recorder()
        recorder.install()
        for name, (requests, results) in plain.items():
            for req, untraced in zip(requests, results):
                traced = execute(req, workdir, f"t-{name}")
                expect(run._same_outputs(untraced, traced),
                       f"{name}: traced output of request {req.index} is byte-identical")
        metrics = recorder.layer_metrics()
        metrics.update({k: 0.0 for k in run.import_breakdown(1)})
        metrics.update({"trace.overhead_ratio": 0.0, "trace.requests": 0.0})
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            declared = json.load(fh)
        names = {m["name"] for m in declared["per_layer"]}
        expect(names == set(metrics),
               f"per_layer metrics match BENCHMARK.json (missing {names - set(metrics)}, "
               f"undeclared {set(metrics) - names})")
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        expect(all(run._layer_unit(k) == units[k] for k in names),
               "per_layer units match BENCHMARK.json")
        e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        expect(e2e == run.END_TO_END_UNITS, "end_to_end metrics and units match BENCHMARK.json")
        expect({w["name"] for w in declared["workloads"]} <= set(WORKLOADS),
               "BENCHMARK.json workloads all exist")
    print("selftest passed")


if __name__ == "__main__":
    main()

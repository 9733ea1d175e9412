"""Benchmark for meshecon, driven through its CLI the way users call it.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from a checkout: the package is imported from src/, as the unit tests
do, and nothing is installed. One closed-loop client in this single process
sends each request after the previous one returns: meshecon.cli.main(argv)
with --output to a file (or, for trace's per-node requests,
simulator.run_instant). BLAS is pinned to one thread and the process starts
no worker threads. One warm-up request precedes the timed loop and is not
counted.

Each workload sends a fixed list of requests drawn from --seed. --trace 0
sends the whole list once per pass, pass after pass, while another pass
fits in --seconds (at least three passes). A fixed probe loop runs between
requests, and every time is scaled to the reference host's speed by the
probes around it (see probe.py); a request's latency is the median
of its scaled passes. It reports the end-to-end metrics. --trace 1 runs
the list untraced twice, then again with tracer.Recorder installed, checks
that all passes wrote identical bytes, and reports the per-layer metrics
and the tracing overhead. Every output is verified after the timed region
against oracle.py. The last line of stdout is one JSON object; the exit
code is non-zero when any output fails verification. Inputs, latencies,
problems and provenance go to perfbench/out/.
"""

import os

# Single-threaded BLAS, set before numpy is first imported in this process
# and inherited by every interpreter it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import probe, scale  # noqa: E402
from tracer import Recorder  # noqa: E402
from workloads import WORKLOADS, check, execute  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 3
SETUP_PER_PASS = 2
IMPORTTIME_RUNS = 3
IMPORT_GROUPS = ("scipy", "numpy", "meshecon", "other")
TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MiB", "req_p50_ms": "ms",
    "req_tail_ms": "ms", "work_per_s": "items/s",
}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _python(*args):
    return subprocess.run(
        [sys.executable, *args], env=_child_env(), cwd=ROOT, capture_output=True,
        text=True, check=True, timeout=TIMEOUT_S,
    )


def measure_setup(runs: int) -> list:
    """Seconds from starting a fresh interpreter until `import meshecon.cli`
    returns, on the system-wide monotonic clock, as (raw, scaled) pairs.
    The same interpreter then runs the probe five times, after the import
    returns, and its median scales that sample."""
    code = ("import time, meshecon.cli; "
            "done = time.clock_gettime(time.CLOCK_MONOTONIC); "
            "import statistics, sys; sys.path.insert(0, sys.argv[1]); import probe; "
            "print(done, statistics.median(probe.probe() for _ in range(5)))")
    samples = []
    for _ in range(runs):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done, probe_s = map(float, _python("-c", code, str(HERE)).stdout.split()[-2:])
        samples.append((done - t0, scale(done - t0, probe_s)))
    return samples


def import_breakdown(runs: int) -> dict:
    """Median self import time per top-level package, from -X importtime in
    fresh interpreters."""
    per_group = {g: [] for g in IMPORT_GROUPS}
    for _ in range(runs):
        stderr = _python("-X", "importtime", "-c", "import meshecon.cli").stderr
        groups = Counter()
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            groups[top if top in IMPORT_GROUPS else "other"] += int(self_us)
        for g in IMPORT_GROUPS:
            per_group[g].append(groups[g] / 1000)
    return {f"setup.import_ms.{g}": statistics.median(v) for g, v in per_group.items()}


def provenance() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=TIMEOUT_S)
        sha = got.stdout.strip() if got.returncode == 0 else None
    return {
        "git_sha": sha, "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "cpu_count": os.cpu_count(), "machine": platform.machine(),
        "blas_threads": 1,
    }


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least ten samples beyond
    it, and that percentile. With 20 or fewer samples that percentile would
    not be above the median, so the maximum is reported instead."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _same_bytes(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if not (os.path.exists(a) and os.path.exists(b)):
        return os.path.exists(a) == os.path.exists(b)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def _same_outputs(a, b) -> bool:
    return _same_bytes(a.output, b.output) and _same_bytes(a.trace_path, b.trace_path)


def _remove_outputs(result):
    for path in (result.output, result.trace_path):
        if path and os.path.exists(path):
            os.remove(path)


def _output_bytes(result) -> int:
    return sum(os.path.getsize(p) for p in (result.output, result.trace_path)
               if p and os.path.exists(p))


# --------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    workload = WORKLOADS[name]
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
            "provenance": provenance()}
    if traced:
        info["imports_ms"] = import_breakdown(IMPORTTIME_RUNS)

    sys.path.insert(0, str(SRC))
    import meshecon.cli  # noqa: F401  (execute() looks modules up at call time)
    import meshecon.simulator  # noqa: F401

    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(traced)}-{os.getpid()}"
    workdir = OUT / f"work-{tag}"
    workdir.mkdir()
    try:
        requests = workload.requests(seed)
        execute(requests[0], str(workdir), "warm")
        if traced:
            # Two untraced passes and one traced pass over the same requests,
            # so counts repeat exactly for a seed.
            results = []
            _pass(requests, results, str(workdir))
            _pass(requests, results, str(workdir))
            metrics = _traced_pass(requests, results, str(workdir), OUT / f"{tag}-spans.csv.gz", info)
        else:
            results = _timed_passes(requests, str(workdir), seconds, info)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for r in results:
            check(workload, r)
        if not traced:
            metrics = _end_to_end(results, info, rss_mb, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in results if r.problems)
    info["requests"] = [
        {**r.request.record(), "exit_code": r.exit_code, "seconds": r.seconds,
         "repeats": r.repeats, "scaled": r.scaled, "units": r.units, "problems": r.problems}
        for r in results
    ]
    info["metrics"] = metrics
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)

    n = len(results)
    print(f"workload {name}, seed {seed}, trace {int(traced)}: {n} requests after "
          f"1 warm-up, {failed} failed (fail_frac {failed / n:.4g}); record {tag}.json")
    if "repeat_ratio" in info:
        print(f"  {info['passes']} passes; later passes / first pass, median over "
              f"requests: {info['repeat_ratio']:.3f} (well below 1 means state carried "
              "between calls)")
    for r in results:
        for p in r.problems[:3]:
            print(f"  request {r.request.index}: {p}", file=sys.stderr)
    for key, m in metrics.items():
        note = info.get("notes", {}).get(key, "")
        print(f"  {key:42s} {m['value']:>16.6g} {m['unit']:8s} {note}")
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def _timed_passes(requests, workdir, seconds, info) -> list:
    """Send the list pass after pass while another pass still fits in
    --seconds, and at least MIN_PASSES times. Set-up is sampled before each
    of the first MIN_PASSES passes, so its samples are spread over the run
    too."""
    results, setup = [], []
    spent, passes = 0.0, 0
    while passes < MIN_PASSES or spent * (passes + 1) / passes <= seconds:
        if passes < MIN_PASSES:
            setup += measure_setup(SETUP_PER_PASS)
        t0 = time.perf_counter()
        _pass(requests, results, workdir)
        spent += time.perf_counter() - t0
        passes += 1
    info["passes"] = passes
    info["setup_samples_s"] = [raw for raw, _ in setup]
    info["setup_scaled_s"] = [scaled for _, scaled in setup]
    return results


def _pass(requests, results, workdir):
    """Send every request once. A probe runs between consecutive requests,
    and each time is also kept scaled by the probes on either side of it.
    The first pass fills results; a later pass must write the same bytes."""
    first_pass = not results
    before = probe()
    for i, request in enumerate(requests):
        got = execute(request, workdir, "u" if first_pass else "v")
        after = probe()
        scaled = scale(got.seconds, (before + after) / 2)
        before = after
        if first_pass:
            got.scaled.append(scaled)
            results.append(got)
            continue
        r = results[i]
        r.repeats.append(got.seconds)
        r.scaled.append(scaled)
        if not _same_outputs(r, got):
            r.problems.append("a repeated request wrote different bytes")
        _remove_outputs(got)


def _end_to_end(results, info, rss_mb, workload) -> dict:
    """A request's latency is the median over passes of its scaled times.
    The host slows by up to 2x in spells of seconds to minutes, and the
    probes on either side of a request slow with it, so scaled times follow
    the program rather than the neighbours."""
    latencies = [statistics.median(r.scaled) for r in results]
    tail_s, pct = tail(latencies)
    n = len(latencies)
    info["repeat_ratio"] = statistics.median(
        statistics.median(r.scaled[1:]) / r.scaled[0] for r in results)
    info["notes"] = {
        "setup_s": f"median of {len(info['setup_scaled_s'])} fresh interpreters",
        "req_p50_ms": f"n={n}, median of {info['passes']} passes each",
        "req_tail_ms": f"p{pct:.1f}, n={n}",
        "work_per_s": f"{workload.throughput} ({workload.unit} per second), n={n}",
    }
    values = {
        "setup_s": statistics.median(info["setup_scaled_s"]),
        "peak_rss_mb": rss_mb,
        "req_p50_ms": 1000 * statistics.median(latencies),
        "req_tail_ms": 1000 * tail_s,
        "work_per_s": sum(r.units for r in results) / sum(latencies),
    }
    info["tail_percentile"] = pct
    info["fail_frac"] = sum(1 for r in results if r.problems) / n
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _traced_pass(requests, untraced, workdir, spans_path, info) -> dict:
    recorder = Recorder()
    recorder.install()
    traced = []
    for request in requests:
        recorder.request = request.index
        traced.append(execute(request, workdir, "t"))
    recorder.write_spans(spans_path)

    for u, t in zip(untraced, traced):
        if not _same_outputs(u, t):
            u.problems.append("traced output differs from untraced output")
        if u.request.kind == "cli":
            recorder.counts["cli.bytes_out"] += _output_bytes(t)
    values = recorder.layer_metrics()
    values.update(info["imports_ms"])
    untraced_s = sum(min(r.seconds, *r.repeats) for r in untraced)
    values["trace.overhead_ratio"] = sum(r.seconds for r in traced) / untraced_s
    values["trace.requests"] = float(len(requests))
    info["absent"] = recorder.absent
    info["notes"] = {"simulator.table_bytes": "computed from array sizes",
                     **{k: "absent" for k in recorder.absent}}
    return {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(values.items())}


def _layer_unit(name: str) -> str:
    if name.endswith("ms") or ".import_ms." in name:
        return "ms"
    if name.endswith(("bytes", "bytes_out")):
        return "bytes"
    if name.endswith(("share", "ratio", "per_utility")):
        return "ratio"
    return "count"


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload, each in its own fresh process; one combined result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "meshecon" / "cli.py").is_file():
        print(f"error: no meshecon sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

"""The workloads: seeded request streams, execution and output checks.

Each workload turns --seed into an endless stream of requests. Streams come
in rounds drawn as a Latin hypercube (montecarlo: one per regime): every
parameter range is cut into as many strata as the hypercube has points,
and each round visits every stratum once, so any seed gives nearly the
same mix of cheap and expensive requests and the run-to-run spread of a
median reflects the program, not the draw. A run sends the first `count`
requests of the stream, whole rounds, in every pass; the count is fixed, so
the mix does not depend on how fast the host runs. Every input is valid by
construction (oracle.valid_template); nothing is dropped after the fact, so
an input the program fails on counts as a failure.

The program sees only the generated inputs: parameter files, CLI flags and,
for trace's per-node requests, a SimConfig.
"""

import csv
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import oracle

ROUND = 8


@dataclass
class Request:
    """One call into meshecon: a CLI invocation or a library call."""

    index: int
    kind: str                   # "cli" or "per_node"
    args: list                  # CLI arguments before --config/--output/--trace
    template: dict              # parameter file written for --config
    sim: dict | None = None     # regime, side, trials, seed of a simulation
    trace: bool = False         # simulate --trace
    pinned: bool = False        # default template, checked against the pins

    def record(self) -> dict:
        return {"index": self.index, "kind": self.kind, "args": self.args,
                "template": self.template, "sim": self.sim, "trace": self.trace}


@dataclass
class Result:
    request: Request
    exit_code: int | None
    seconds: float
    output: str
    trace_path: str | None = None
    error: str | None = None
    repeats: list = field(default_factory=list)   # seconds of later passes
    scaled: list = field(default_factory=list)    # every pass at reference speed
    units: float = 0.0
    problems: list = field(default_factory=list)


def _strata(rng, rows, dims):
    """Latin hypercube in [0, 1): each column hits every 1/rows stratum once."""
    ranks = np.argsort(rng.random((dims, rows)), axis=1).T
    return (ranks + rng.random((rows, dims))) / rows


def _template(u) -> dict:
    """A valid template from six unit draws; v clears v - u > c(d_max)."""
    u = [float(x) for x in u]
    d_max = 0.5 + 1.5 * u[0]
    a = 0.1 * 50 ** u[1]
    beta = 1.3 + 1.7 * u[2]
    t = {
        "n": 10.0 / d_max, "d_max": d_max, "v": 0.0, "u": 1.0,
        "w": 10 ** (-3 + 2 * u[3]), "z": 0.9 + 0.099 * u[4],
        "cost_a": a, "cost_beta": beta,
    }
    t["v"] = t["u"] + a * d_max**beta * (1.1 + 1.9 * u[5])
    return t


def _checked(template: dict) -> dict:
    if not oracle.valid_template(template):
        raise ValueError(f"generator produced an invalid template: {template}")
    return template


# --------------------------------------------------------------------------
# Execution


def write_config(req: Request, workdir: str) -> str:
    path = os.path.join(workdir, f"cfg-{req.index}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(req.template, fh)
    return path


def execute(req: Request, workdir: str, tag: str) -> Result:
    """Run one request; only the call into meshecon is timed."""
    output = os.path.join(workdir, f"{tag}-{req.index}.out")
    trace_path = os.path.join(workdir, f"{tag}-{req.index}.csv") if req.trace else None
    if req.kind == "per_node":
        return _execute_per_node(req, output)
    argv = [*req.args, "--config", write_config(req, workdir), "--output", output]
    if trace_path:
        argv += ["--trace", trace_path]
    main = sys.modules["meshecon.cli"].main
    error = None
    t0 = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a failed request is counted, the run goes on
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return Result(req, code, seconds, output, trace_path, error)


def _execute_per_node(req: Request, output: str) -> Result:
    model = sys.modules["meshecon.model"]
    sim = sys.modules["meshecon.simulator"]
    regimes = sys.modules["meshecon.regimes"]
    s = req.sim
    error = None
    outcome = None
    t0 = time.perf_counter()
    try:
        config = sim.SimConfig(
            side=s["side"], params=model.params_from_dict(req.template),
            regime=regimes.Regime(s["regime"]), trials=s["trials"], seed=s["seed"],
        )
        outcome = sim.run_instant(config, collect_per_node=True)
    except Exception as exc:  # a failed request is counted, the run goes on
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if outcome is not None:
        blob = {"outcome": outcome.to_json_dict(),
                "per_node_outsider_exposures": list(outcome.per_node_outsider_exposures)}
        with open(output, "w", encoding="utf-8") as fh:
            json.dump(blob, fh, sort_keys=True)
    return Result(req, 0 if outcome is not None else None, seconds, output, None, error)


def check(workload, result: Result) -> Result:
    """Add work units and problems; any exception is itself a problem."""
    if result.error:
        result.problems.append(result.error)
        return result
    try:
        problems = workload.verify(result)
        if not problems:
            result.units = workload.units(result)
    except Exception as exc:  # malformed output must fail the check, not the run
        problems = [f"verification raised {type(exc).__name__}: {exc}"]
    result.problems += problems
    return result


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    count = 0   # requests in a run: whole rounds, so every stratum is hit

    def requests(self, seed) -> list:
        return list(itertools.islice(self.stream(seed), self.count))


# --------------------------------------------------------------------------
# solve: meshecon equilibrium --config <template>


class Solve(Workload):
    name = "solve"
    unit = "template"
    throughput = "solves_per_s"
    STRATA = 24
    count = 1 + STRATA   # the default template, then one round

    def stream(self, seed):
        """The default template, then rounds of 24 templates drawn as one
        Latin hypercube over the six parameters."""
        rng = np.random.default_rng([1, seed])
        yield Request(0, "cli", ["equilibrium"], dict(oracle.DEFAULT_TEMPLATE), pinned=True)
        index = 1
        while True:
            for u in _strata(rng, self.STRATA, 6):
                yield Request(index, "cli", ["equilibrium"], _checked(_template(u)))
                index += 1

    def units(self, result):
        return 1.0

    def verify(self, result):
        code = result.exit_code
        if code not in (0, 4):
            return [f"exit code {code} (findings exit 4, success 0)"]
        report = _load(result.output)
        problems = []
        keys = ("free_entry_no_peering", "free_entry_perfcomp", "club")
        findings = [k for k in keys if isinstance(report[k], str)]
        if (code == 4) != bool(findings):
            problems.append(f"exit code {code} but findings {findings}")
        template = result.request.template
        for key, regime in (("free_entry_no_peering", "NO_PEERING"),
                            ("free_entry_perfcomp", "PEERING_PERFECT_COMPETITION")):
            res = report[key]
            if isinstance(res, str):
                if res != "NO_CROSSING":
                    problems.append(f"{key}: unexpected marker {res!r}")
                continue
            problems += _check_solution(key, regime, res, template)
            # n* is a root: the oracle's total there is zero to the tests' 1e-8.
            total = oracle.total_utility(regime, dict(template, n=res["n_star"]))
            if abs(total) > oracle.UTILITY_TOL:
                problems.append(f"{key}: oracle total {total!r} at n*={res['n_star']!r}")
        club = report["club"]
        if isinstance(club, str):
            if not club.startswith("BOUNDARY_OPTIMUM@"):
                problems.append(f"club: unexpected marker {club!r}")
        else:
            regime = "PEERING_PERFECT_COMPETITION"
            problems += _check_solution("club", regime, club, template)
            ref = oracle.total_utility(regime, dict(template, n=club["n_star"]))
            if abs(club["total_eu_at_n_star"] - ref) > oracle.UTILITY_TOL:
                problems.append(f"club: total {club['total_eu_at_n_star']!r} != oracle {ref!r}")
            if not club["total_eu_at_n_star"] >= 0:
                problems.append("club: negative member utility")
        if result.request.pinned:
            problems += _check_pins(report)
        return problems


def _check_solution(key, regime, res, template):
    problems = []
    u = res["utilities"]
    if res["regime"] != regime or u["regime"] != regime:
        problems.append(f"{key}: regime {res['regime']!r}")
    if u["total"] != u["eu_originator"] + u["eu_intermediate"] + u["eu_outsider"]:
        problems.append(f"{key}: total is not the sum of the roles")
    if res["total_eu_at_n_star"] != u["total"]:
        problems.append(f"{key}: total_eu_at_n_star differs from utilities.total")
    if u["params"]["n"] != res["n_star"]:
        problems.append(f"{key}: utilities evaluated away from n*")
    for k, v in template.items():
        if k != "n" and u["params"][k] != v:
            problems.append(f"{key}: parameter {k} changed to {u['params'][k]!r}")
    return problems


def _check_pins(report):
    problems = []
    pins = (
        ("free_entry_no_peering", oracle.FREE_ENTRY_NO_PEERING, oracle.PIN_TOL_NO_PEERING),
        ("free_entry_perfcomp", oracle.FREE_ENTRY_PERFCOMP, oracle.PIN_TOL_PERFCOMP),
        ("club", oracle.CLUB_DENSITY, oracle.PIN_TOL_CLUB_DENSITY),
    )
    for key, pin, tol in pins:
        res = report[key]
        if isinstance(res, str) or abs(res["n_star"] - pin) >= tol:
            problems.append(f"default template: {key} misses the pin {pin!r}")
    club = report["club"]
    if not isinstance(club, str) and abs(club["total_eu_at_n_star"] - oracle.CLUB_VALUE) > oracle.UTILITY_TOL:
        problems.append("default template: club value misses the pin")
    return problems


# --------------------------------------------------------------------------
# montecarlo: meshecon simulate, the simulator fast path


class MonteCarlo(Workload):
    name = "montecarlo"
    unit = "node x trial"
    throughput = "node_trials_per_s"
    trials = 200
    STRATA = 35
    count = 3 * STRATA

    def stream(self, seed):
        """Rounds of 105, the regimes taking turns. For each regime, side is
        cut into 35 strata from 23 to 200 and each stratum is hit once; n is
        stratified too, over [10, 80] cut where ceil(2 d_max n) + 1 would
        pass side. Lattice size drives a request's cost, so every seed gets
        nearly the same spread of sizes."""
        rng = np.random.default_rng([4, seed])
        d_max = oracle.DEFAULT_TEMPLATE["d_max"]
        index = 0
        while True:
            draws = [_strata(rng, self.STRATA, 2) for _ in oracle.REGIMES]
            for k in range(self.STRATA):
                for regime, u in zip(oracle.REGIMES, draws):
                    side = int(23 + (201 - 23) * u[k, 0])
                    n_max = min(80.0, (side - 1) / (2 * d_max))
                    n = 10.0 + (n_max - 10.0) * float(u[k, 1])
                    template = _checked(dict(oracle.DEFAULT_TEMPLATE, n=n))
                    sim = {"regime": regime, "side": side, "trials": self.trials,
                           "seed": int(rng.integers(2**63))}
                    args = ["simulate", "--regime", regime, "--side", str(side),
                            "--trials", str(self.trials), "--seed", str(sim["seed"])]
                    yield Request(index, "cli", args, template, sim=sim)
                    index += 1

    def units(self, result):
        s = result.request.sim
        return float(s["side"] * s["side"] * s["trials"])

    def verify(self, result):
        if result.exit_code != 0:
            return [f"exit code {result.exit_code}"]
        record = _load(result.output)
        req = result.request
        problems = _check_outcome(record["outcome"], req)
        exact = oracle.lattice_means(req.sim["regime"], req.template)
        # The roles nearly cancel in the total (9.50 - 9.51 = -0.014 for
        # NO_PEERING at n = 24.5), so the total is held to the roles'
        # tolerance summed, the bound for a sum of terms each within it.
        magnitude = {role: abs(v) for role, v in exact.items()}
        magnitude["total"] = sum(magnitude.values())
        exact["total"] = sum(exact.values())
        for row in record["roles"]:
            role = row["role"]
            tol = max(oracle.LATTICE_ABS_TOL, oracle.LATTICE_REL_TOL * magnitude[role])
            if not abs(row["lattice_exact"] - exact[role]) <= tol:
                problems.append(f"{role}: lattice_exact {row['lattice_exact']!r} "
                                f"!= oracle {exact[role]!r}")
            # Pure Monte Carlo noise: within 5 SE, or exact when SE is 0.
            mean, se, ref = row["sim_mean"], row["sim_se"], row["lattice_exact"]
            if (mean != ref) if se == 0.0 else abs(mean - ref) >= 5 * se:
                problems.append(f"{role}: sim mean {mean!r} is 5 SE or more from {ref!r}")
        return problems


def _check_outcome(outcome, req):
    problems = []
    counts = outcome["counts"]
    if counts["attempted"] != counts["direct"] + counts["peered"]:
        problems.append(f"attempted != direct + peered: {counts}")
    for key in ("side", "trials", "seed"):
        if outcome[key] != req.sim[key]:
            problems.append(f"outcome {key} {outcome[key]!r} != requested {req.sim[key]!r}")
    if outcome["regime"] != req.sim["regime"]:
        problems.append(f"outcome regime {outcome['regime']!r}")
    return problems


# --------------------------------------------------------------------------
# trace: simulate --trace and per-node tallies, the per-connection paths


EVENT_HEADER = ["trial", "origin", "destination", "path", "hop_lengths", "choice",
                "net_utility", "transfers_paid"]


class Trace(Workload):
    name = "trace"
    unit = "connection"
    throughput = "events_per_s"
    count = 6 * ROUND
    trials = 30
    # Seconds per connection on the unmodified package (2-CPU x86-64 VM),
    # so every request class costs about TARGET_S; PERFCOMP paths grow
    # with n, hence the n / 6 factor there.
    TARGET_S = 0.12
    COST = {("NO_PEERING", "cli"): 23e-6, ("NO_PEERING", "per_node"): 19.5e-6,
            ("PEERING_PERFECT_COMPETITION", "cli"): 71e-6 / 6,
            ("PEERING_PERFECT_COMPETITION", "per_node"): 58e-6 / 6}

    def stream(self, seed):
        """Per round: NO_PEERING and PERFCOMP, each twice as simulate --trace
        and twice as run_instant(collect_per_node=True). n in [4, 8] and
        the expected connection count (TARGET_S of work, +-20%) are
        stratified; side starts at its minimum and z is set so that
        side^2 * trials * P(K) hits that count."""
        rng = np.random.default_rng([5, seed])
        index = 0
        while True:
            for slot, u in enumerate(_strata(rng, ROUND, 2).tolist()):
                regime = ("NO_PEERING", "PEERING_PERFECT_COMPETITION")[slot % 2]
                kind = "cli" if slot % 4 < 2 else "per_node"
                n = 4.0 + 4.0 * u[0]
                per_conn = self.COST[regime, kind] * (n if regime != "NO_PEERING" else 1)
                conns = self.TARGET_S / per_conn * (0.8 + 0.4 * u[1])
                side = math.ceil(2 * n) + 1  # d_max = 1
                while conns / (side * side * self.trials) > 0.9:
                    side += 1
                p_conn = conns / (side * side * self.trials)
                z = (1 - p_conn) ** (1 / _lattice_count(n))
                template = _checked(dict(oracle.DEFAULT_TEMPLATE, n=n, z=z))
                sim = {"regime": regime, "side": side, "trials": self.trials,
                       "seed": int(rng.integers(2**63))}
                args = ["simulate", "--regime", regime, "--side", str(side),
                        "--trials", str(self.trials), "--seed", str(sim["seed"])]
                yield Request(index, kind, args, template, sim=sim, trace=kind == "cli")
                index += 1

    def units(self, result):
        return float(_load(result.output)["outcome"]["counts"]["attempted"])

    def verify(self, result):
        if result.exit_code != 0:
            return [f"exit code {result.exit_code}"]
        req = result.request
        blob = _load(result.output)
        outcome = blob["outcome"]
        problems = _check_outcome(outcome, req)
        if req.kind == "per_node":
            exposures = blob["per_node_outsider_exposures"]
            side = req.sim["side"]
            if len(exposures) != side * side:
                problems.append(f"{len(exposures)} per-node tallies for {side * side} nodes")
            if sum(exposures) != outcome["pollution_events"]:
                problems.append(f"per-node exposures sum to {sum(exposures)}, "
                                f"pollution_events is {outcome['pollution_events']}")
            return problems
        return problems + _check_event_trace(result.trace_path, req, outcome)


def _check_event_trace(path, req, outcome):
    side = req.sim["side"]
    n = req.template["n"]
    d_max = req.template["d_max"]
    straight, diagonal = 1 / n, math.sqrt(2) / n
    peering = req.sim["regime"] == "PEERING_PERFECT_COMPETITION"
    problems = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != EVENT_HEADER:
            return ["trace header"]
        rows = 0
        for row in reader:
            rows += 1
            if len(problems) > 5:
                continue
            origin, dest = int(row[1]), int(row[2])
            nodes = [int(x) for x in row[3].split("|")]
            hops = [float(x) for x in row[4].split("|")]
            choice = row[5]
            if nodes[0] != origin or nodes[-1] != dest or len(hops) != len(nodes) - 1:
                problems.append(f"row {rows}: path does not run origin -> destination")
                continue
            if choice == "DIRECT":
                di, dj = _torus_delta(origin, dest, side)
                if len(nodes) != 2 or not oracle.close(hops[0], math.hypot(di, dj) / n, 1e-12, 0.0) \
                        or hops[0] > d_max * (1 + 1e-12):
                    problems.append(f"row {rows}: bad direct hop {row[3]} {row[4]}")
                continue
            if choice != "PEER" or not peering:
                problems.append(f"row {rows}: choice {choice!r} under {req.sim['regime']}")
                continue
            for a, b, h in zip(nodes[:-1], nodes[1:], hops):
                di, dj = _torus_delta(a, b, side)
                step = max(abs(di), abs(dj))
                want = diagonal if di and dj else straight
                if step != 1 or not oracle.close(h, want, 1e-12, 0.0):
                    problems.append(f"row {rows}: hop {a}->{b} of {h!r} is not an 8-neighbour step")
                    break
    if rows != outcome["counts"]["attempted"]:
        problems.append(f"{rows} trace rows, {outcome['counts']['attempted']} attempted")
    return problems


def _lattice_count(n):
    """Lattice nodes other than the origin within n * d_max = n spacings."""
    reach = int(n)
    return sum(1 for i in range(-reach, reach + 1) for j in range(-reach, reach + 1)
               if 0 < i * i + j * j <= n * n)


def _torus_delta(a, b, side):
    half = side // 2
    ai, aj = divmod(a, side)
    bi, bj = divmod(b, side)
    return (bi - ai + half) % side - half, (bj - aj + half) % side - half


WORKLOADS = {w.name: w for w in (Solve(), MonteCarlo(), Trace())}

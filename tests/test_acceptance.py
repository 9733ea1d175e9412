"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; without
-s the detail still appears for any failing criterion.
"""

import filecmp
import time

import numpy as np

from meshecon import (
    Choice,
    Regime,
    SimConfig,
    build_lattice,
    channels_per_cell,
    competitive_price,
    estimate_vs_analytic,
    free_entry_density,
    club_optimal_density,
    congestion_scaling_exponent,
    hop_distance,
    intermediate_best_response,
    intermediate_count,
    leapfrog_profitable,
    leapfrog_threshold,
    nodes_within,
    originator_choice,
    originator_savings,
    path_loss,
    RadioParams,
    run_instant,
    shannon_capacity,
    social_cost,
    total_eu,
    value_added,
)
from meshecon.cli import main as cli_main
from conftest import make_params, random_draws
import oracles

PERFCOMP = Regime.PEERING_PERFECT_COMPETITION
DEFAULTS = make_params()


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>3} {name}: {status}" + (f" ({detail})" if detail else ""))


def test_c01_peering_dominance():
    t0 = time.time()
    margins = []
    for p, d in random_draws(200, seed=101):
        direct = social_cost(p, d, "direct")
        full = social_cost(p, d, "full_peering")
        margins.append((direct - full) / direct)
    elapsed = time.time() - t0
    ok = all(m >= 1e-12 for m in margins) and elapsed < 1.0
    report(1, "peering lowers total cost on every draw", ok,
           f"min rel margin {min(margins):.3e}, {elapsed:.2f}s")
    assert min(margins) >= 1e-12
    assert elapsed < 1.0


def test_c02_value_added_positive():
    t0 = time.time()
    values = []
    for p, d in random_draws(200, seed=101):
        hop = hop_distance(p, d)
        assert nodes_within(p, hop) > 0  # relay circles sit above the clamp
        values.append(value_added(p, d))
    boundary = value_added(make_params(beta=1.0, w=0.0), 0.5)
    elapsed = time.time() - t0
    ok = all(v > 0 for v in values) and boundary == 0.0 and elapsed < 1.0
    report(2, "relay value added positive, zero on linear boundary", ok,
           f"min VA {min(values):.3e}, boundary {boundary!r}, {elapsed:.2f}s")
    assert min(values) > 0
    assert boundary == 0.0
    assert elapsed < 1.0


def test_c03_compensation_feasibility():
    t0 = time.time()
    gaps = []
    for p, d in random_draws(200, seed=101):
        gaps.append(
            originator_savings(p, d)
            - intermediate_count(p, d) * competitive_price(p, d)
        )
    elapsed = time.time() - t0
    ok = all(g > 0 for g in gaps) and elapsed < 1.0
    report(3, "savings cover full relay compensation", ok,
           f"min net gain {min(gaps):.3e}, {elapsed:.2f}s")
    assert min(gaps) > 0
    assert elapsed < 1.0


def test_c04_congestion_scaling_exponents():
    t0 = time.time()
    ns = [50.0, 100.0, 200.0, 400.0]
    slope_np = congestion_scaling_exponent(DEFAULTS, Regime.NO_PEERING, ns)
    slope_pc = congestion_scaling_exponent(DEFAULTS, PERFCOMP, ns)
    elapsed = time.time() - t0
    ok = abs(slope_np - 2) <= 0.15 and abs(slope_pc - 1) <= 0.15 and elapsed < 10
    report(4, "congestion grows ~n^2 direct, ~n with relaying", ok,
           f"exponents {slope_np:.4f} / {slope_pc:.4f}, {elapsed:.2f}s")
    assert abs(slope_np - 2) <= 0.15
    assert abs(slope_pc - 1) <= 0.15
    assert elapsed < 10


def test_c05_free_entry_ordering():
    t0 = time.time()
    res_np = free_entry_density(DEFAULTS, Regime.NO_PEERING)
    res_pc = free_entry_density(DEFAULTS, PERFCOMP)
    fresh_np = abs(total_eu(DEFAULTS, res_np.n_star, Regime.NO_PEERING))
    fresh_pc = abs(total_eu(DEFAULTS, res_pc.n_star, PERFCOMP))
    ratio = res_pc.n_star / res_np.n_star
    elapsed = time.time() - t0
    ok = (fresh_np <= 1e-8 and fresh_pc <= 1e-8 and res_pc.n_star > res_np.n_star
          and ratio > 1.5 and elapsed < 30)
    report(5, "free entry admits far more nodes with priced relaying", ok,
           f"n*={res_np.n_star:.4f} vs {res_pc.n_star:.4f}, ratio {ratio:.2f}, "
           f"residuals {fresh_np:.1e}/{fresh_pc:.1e}, {elapsed:.2f}s")
    assert fresh_np <= 1e-8 and fresh_pc <= 1e-8
    assert res_pc.n_star > res_np.n_star
    assert ratio > 1.5
    assert elapsed < 30


def test_c06_club_restricts_entry_with_surplus():
    t0 = time.time()
    club = club_optimal_density(DEFAULTS)
    free = free_entry_density(DEFAULTS, PERFCOMP)
    elapsed = time.time() - t0
    ok = club.n_star < free.n_star and club.total_eu_at_n_star > 0 and elapsed < 30
    report(6, "club admits fewer nodes and members keep a surplus", ok,
           f"n_club {club.n_star:.4f} < n* {free.n_star:.4f}, "
           f"member utility {club.total_eu_at_n_star:.4f}, {elapsed:.2f}s")
    assert club.n_star < free.n_star
    assert club.total_eu_at_n_star > 0
    assert elapsed < 30


def _mc_table(regime, n, side, seeds, trials=200):
    rows = []
    params = make_params(n=n)
    for seed in seeds:
        cfg = SimConfig(side=side, params=params, regime=regime,
                        trials=trials, seed=seed)
        rec = estimate_vs_analytic(cfg)
        rows.append((seed, rec))
    return rows


ROLES = ("originator", "intermediate", "outsider")


def _lattice_offset(params, regime):
    """Exact lattice-minus-continuum gap of each role, taken from the
    independent oracles only (loop enumeration minus midpoint quadrature,
    both fed the fields of params), never from the package's
    lattice_exact_means."""
    args = dict(n=params.n, d_max=params.d_max, v=params.v, w=params.w,
                z=params.z, a=params.cost.a, beta=params.cost.beta)
    lattice = oracles.lattice_oracle(regime=regime, **args)
    closed = oracles.eu_oracle(regime, **args)
    return {role: lattice[role] - c for role, c in zip(ROLES, closed)}


def test_c07a_monte_carlo_matches_closed_forms_no_peering():
    """The criterion as first written, each role's simulator mean within 3
    standard errors of the continuum closed form at n=10, side=40,
    trials=200, seeds {7,8,9}, cannot hold: the outsider's exact lattice
    expectation sits 0.0613 (about 35 SE) below the closed form, and
    test_simulation_matches_exact_enumeration holds the seed-8 run within 5
    SE of that lattice expectation. The criterion is replaced, not met, by
    two checks:

    1. Band. The same runs must sit within 3 SE of the package's closed
       form plus the lattice offset from tests/oracles.py. The package's
       closed form is pinned to the oracle's, so this is in effect the
       simulator against the exact lattice expectation; what it adds is
       that the package's closed form enters the reference (a 1 % change
       of the outsider's moves it by about 8.5 SE).
    2. Limit. Pooled over the seeds, each role's relative bias
       |sim - closed form| / |closed form| must be zero at both densities
       or smaller at n=20 (side 41) than at n=10: the package's closed form
       is the large-network limit of the package's simulated economy.

    The outsider offset at n=10 is lattice counting, not sampling noise.
    With K = 316 lattice offsets within d_max, N = pi*(n*d_max)^2 - 1 =
    313.16, mean lattice circle count m = 162.28 (receiver and its whole
    ring included) and P the demand probability, it splits exactly as
      ties on the receiver's ring   -w P(K) (m - (K+1)/2)   -0.0362
      Gauss-circle count            -w P(K) (K - N)/2       -0.0136
      receiver counted, -1 in N(x)  -w P(K)                 -0.0096
      demand P(K) vs P(N)           -w (P(K)-P(N)) (N-1)/2  -0.0019
    (the clamp of N(x) at 0 adds +0.00002). The Gauss term alone is about
    8 SE and belongs to the square lattice, not to how its nodes are
    counted; other node geometries are not ruled out (ROADMAP item 4)."""
    t0 = time.time()
    offset = _lattice_offset(make_params(n=10.0), "NO_PEERING")
    runs = {n: _mc_table(Regime.NO_PEERING, n, side, (7, 8, 9))
            for n, side in ((10.0, 40), (20.0, 41))}
    gaps = []
    print()
    for seed, rec in runs[10.0]:
        for role in ROLES:
            rc = rec.role(role)
            gap = rc.bias - offset[role]
            gaps.append((abs(gap) <= 3 * rc.sim_se, seed, role, gap))
            z = gap / rc.sim_se if rc.sim_se else 0.0
            print(
                f"  NO_PEERING seed={seed} {role:12s} sim {rc.sim_mean:+.6f} "
                f"se {rc.sim_se:.6f} closed-form {rc.analytic:+.6f} "
                f"offset {offset[role]:+.6f} z-raw {rc.z:+7.2f} z {z:+6.2f}"
            )
    rel_bias = {}
    for n, rows in runs.items():
        for role in ROLES:
            pooled = np.mean([rec.role(role).sim_mean for _, rec in rows])
            analytic = rows[0][1].role(role).analytic
            bias = abs(pooled - analytic)
            rel_bias[(role, n)] = bias / abs(analytic) if bias else 0.0
    within = all(ok for ok, *_ in gaps)
    shrinks = {
        role: rel_bias[(role, 20.0)] < rel_bias[(role, 10.0)]
        or rel_bias[(role, 20.0)] == rel_bias[(role, 10.0)] == 0.0
        for role in ROLES
    }
    elapsed = time.time() - t0
    ok = within and all(shrinks.values()) and elapsed < 300
    report("7a", "Monte Carlo within 3 SE of closed form + lattice offset, "
           "relative bias shrinks with density (no peering)", ok,
           "relative bias n=10->20: "
           + ", ".join(f"{r} {rel_bias[(r, 10.0)]:.2e}->{rel_bias[(r, 20.0)]:.2e}"
                       for r in ROLES)
           + f", {elapsed:.1f}s")
    if not ok:
        print(
            "  Criterion: at n=10 each mean within 3 SE of closed form + "
            "offset, offset = oracles.lattice_oracle - oracles.eu_oracle "
            "(outsider -0.0613: ties -0.0362, Gauss circle -0.0136, "
            "receiver -0.0096, demand -0.0019); and the pooled relative bias "
            "against the closed form zero or smaller at n=20 than at n=10. "
            "A failing band means the simulator or the closed form moved "
            "away from its oracle; a failing ratio means the closed form is "
            "no longer the large-network limit of the simulator."
        )
    assert elapsed < 300
    assert within, [g for g in gaps if not g[0]]
    assert all(shrinks.values()), rel_bias


def test_c07b_perfcomp_discretization_bias_shrinks():
    """Doubling the density from n=10 to n=20 must shrink the measured
    bias of each role's simulator mean against the closed forms."""
    t0 = time.time()
    bias = {}
    print()
    for n, side in ((10.0, 40), (20.0, 41)):
        rows = _mc_table(PERFCOMP, n, side, (7, 8, 9))
        for role in ("originator", "intermediate", "outsider"):
            pooled = np.mean([rec.role(role).sim_mean for _, rec in rows])
            analytic = rows[0][1].role(role).analytic
            lattice = rows[0][1].role(role).lattice_exact
            bias[(role, n)] = abs(pooled - analytic)
            print(
                f"  PERFCOMP n={n:<4} {role:12s} pooled sim {pooled:+.6f} "
                f"closed-form {analytic:+.6f} lattice-exact {lattice:+.6f} "
                f"|bias| {bias[(role, n)]:.6f}"
            )
    elapsed = time.time() - t0
    shrinks = {
        role: bias[(role, 20.0)] < bias[(role, 10.0)]
        for role in ("originator", "intermediate", "outsider")
    }
    ok = all(shrinks.values()) and elapsed < 300
    report("7b", "discretization bias shrinks when density doubles", ok,
           ", ".join(f"{r}: {bias[(r,10.0)]:.4f}->{bias[(r,20.0)]:.4f}"
                     for r in shrinks) + f", {elapsed:.1f}s")
    if not ok:
        print(
            "  Every greedy lattice hop spans one cell and charges 3 nodes "
            "(straight) or 7 nodes (diagonal) at every density, while the "
            "closed form charges pi*(n*D)^2 - 2 per hop (1.88 at n=10, "
            "d=d_max, falling to pi-2 as n grows); the lattice hop count is "
            "the Chebyshev distance, not n*d - 1. The per-hop gap is "
            "density-independent and the number of hops grows with n, so the "
            "outsider (and total) discretization bias grows rather than "
            "shrinks. The simulator itself tracks the exact lattice "
            "expectation at both densities."
        )
    assert elapsed < 300
    assert all(shrinks.values()), bias


def test_c08_incentive_logic():
    t0 = time.time()
    # unpriced peering collapses: zero peered connections
    cfg_nt = SimConfig(side=40, params=DEFAULTS, regime=Regime.PEERING_NO_TRANSFERS,
                       trials=20, seed=7)
    out_nt = run_instant(cfg_nt)
    no_unpriced_peering = out_nt.connections_peered == 0

    # at the competitive price every multi-hop connection peers and every
    # relay accepts; nearest-neighbor destinations stay direct
    cfg_pc = SimConfig(side=40, params=DEFAULTS, regime=PERFCOMP, trials=3, seed=7)
    out_pc = run_instant(cfg_pc, collect_events=True)
    lat = build_lattice(cfg_pc)
    peer_when_relayable = True
    relays_accept = out_pc.connections_refused == 0
    nearest_direct = True
    saw_nearest = 0
    for ev in out_pc.events:
        d = oracles.torus_distance(lat.side, lat.spacing, ev.origin, ev.destination)
        if intermediate_count(DEFAULTS, d) >= 1 and ev.choice.mode is not Choice.PEER:
            peer_when_relayable = False
        if ev.choice.mode is Choice.PEER:
            # each relay is paid the marginal cost of its own hop, so the
            # transfers must cover the relays' transmission costs in full
            relay_costs = sum(DEFAULTS.cost(h) for h in ev.hop_lengths[1:])
            if not ev.transfers_paid >= relay_costs:
                relays_accept = False
        if abs(d - 0.1) < 1e-12:
            saw_nearest += 1
            if ev.choice.mode is not Choice.DIRECT:
                nearest_direct = False
    # the same holds for the closed-form best responses on a distance grid
    analytic_ok = originator_choice(DEFAULTS, 0.1, 0.0).mode is Choice.DIRECT
    for d in np.linspace(0.3, 1.0, 15):
        d = float(d)
        price = competitive_price(DEFAULTS, d)
        analytic_ok &= originator_choice(DEFAULTS, d, price).mode is Choice.PEER
        analytic_ok &= intermediate_best_response(DEFAULTS, d, price)
    elapsed = time.time() - t0
    ok = (no_unpriced_peering and peer_when_relayable and relays_accept
          and nearest_direct and saw_nearest > 0 and analytic_ok and elapsed < 60)
    report(8, "free riding kills unpriced peering; pricing restores it", ok,
           f"unpriced peered={out_nt.connections_peered}, "
           f"priced events={len(out_pc.events)}, nearest-direct seen={saw_nearest}, "
           f"{elapsed:.1f}s")
    assert no_unpriced_peering
    assert peer_when_relayable and relays_accept and nearest_direct
    assert saw_nearest > 0 and analytic_ok
    assert elapsed < 60


def test_c09_leapfrog_threshold():
    t0 = time.time()
    ok = True
    for d in np.linspace(0.31, 1.0, 40):
        d = float(d)
        ok &= not leapfrog_profitable(DEFAULTS, d, competitive_price(DEFAULTS, d))
        ok &= leapfrog_profitable(DEFAULTS, d, leapfrog_threshold(DEFAULTS, d) * (1 + 1e-6))
    elapsed = time.time() - t0
    report(9, "coalition leapfrogging starts strictly above c(2D)", ok and elapsed < 1,
           f"{elapsed:.2f}s")
    assert ok
    assert elapsed < 1.0


def test_c10_radio_formulas_exact():
    t0 = time.time()
    radio = RadioParams(snr=3.0, alpha=1.0, bandwidth_total=1e6, user_bit_rate=1e4,
                        path_loss_constant=1.0, carrier_frequency=1.0,
                        path_loss_exponent=2.0)
    cap = shannon_capacity(3.0)
    chans = channels_per_cell(radio)
    loss = path_loss(radio, 2.0)
    elapsed = time.time() - t0
    ok = cap == 2.0 and chans == 142.0 and loss == 0.25 and elapsed < 1
    report(10, "radio formulas exact", ok,
           f"capacity {cap}, channels {chans}, loss {loss}, {elapsed:.2f}s")
    assert cap == 2.0
    assert chans == 142.0
    assert loss == 0.25
    assert elapsed < 1.0


def test_c11_cli_determinism(tmp_path):
    t0 = time.time()
    commands = {
        "eval_json": ["eval"],
        "eval_csv": ["eval", "--format", "csv"],
        "sweep": ["sweep", "--axis", "n", "--lo", "10", "--hi", "30", "--steps", "3",
                  "--format", "csv"],
        "equilibrium": ["equilibrium"],
        "simulate": ["simulate", "--side", "24", "--trials", "30", "--seed", "9"],
        "radio": ["radio", "--snr", "3", "--dist", "2"],
        "validate": ["validate"],
    }
    identical = {}
    for name, argv in commands.items():
        first = tmp_path / f"{name}.1"
        second = tmp_path / f"{name}.2"
        assert cli_main(argv + ["--output", str(first)]) == 0
        assert cli_main(argv + ["--output", str(second)]) == 0
        identical[name] = filecmp.cmp(first, second, shallow=False)
    elapsed = time.time() - t0
    ok = all(identical.values()) and elapsed < 60
    report(11, "CLI reruns are byte-identical", ok,
           f"{sum(identical.values())}/{len(identical)} commands, {elapsed:.1f}s")
    assert all(identical.values()), identical
    assert elapsed < 60

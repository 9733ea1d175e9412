import dataclasses
import math

import numpy as np
import pytest

from meshecon import (
    Choice,
    ConnectionChoice,
    NumericsError,
    ParamError,
    Regime,
    SimConfig,
    build_lattice,
    estimate_vs_analytic,
    lattice_exact_means,
    regime_utilities,
    run_instant,
)
import meshecon.simulator
from conftest import make_params
import oracles

PERFCOMP = Regime.PEERING_PERFECT_COMPETITION
NOTRANS = Regime.PEERING_NO_TRANSFERS


def config(defaults=None, side=40, regime=Regime.NO_PEERING, trials=50, seed=7, **kw):
    params = make_params(**kw) if kw else (defaults or make_params())
    return SimConfig(side=side, params=params, regime=regime, trials=trials, seed=seed)


# --------------------------------------------------------------------------
# configuration and lattice geometry


def test_config_validation(defaults):
    with pytest.raises(ParamError, match="side"):
        config(side=20).validated()  # needs ceil(2*10*1)+1 = 21
    with pytest.raises(ParamError, match="trials"):
        config(trials=0).validated()
    with pytest.raises(ParamError, match="seed"):
        config(seed=-1).validated()
    with pytest.raises(ParamError, match="seed"):
        config(seed=2**64).validated()
    assert config(side=21).validated()


@pytest.mark.parametrize("field, value", [
    ("side", 24.5), ("side", 24.0), ("side", True),
    ("trials", 2.5), ("trials", True),
    ("seed", 1.5), ("seed", True), ("seed", np.float64(7.0)),
])
def test_config_rejects_non_integer_fields(field, value):
    with pytest.raises(ParamError, match=f"{field} must be an integer"):
        dataclasses.replace(config(), **{field: value}).validated()


def test_config_accepts_numpy_integers():
    cfg = config(side=np.int64(21), trials=np.int32(2), seed=np.uint64(2**63))
    assert cfg.validated() is cfg
    assert run_instant(cfg).connections_attempted > 0


def test_side_check_shared_by_config_and_lattice():
    from meshecon.simulator import Lattice

    text = ("side must be >= ceil(2*d_max*n)+1 = 21 to avoid torus aliasing "
            "of the d_max circle, got 20")
    with pytest.raises(ParamError) as from_config:
        config(side=20).validated()
    with pytest.raises(ParamError) as from_lattice:
        Lattice(20, make_params())
    assert str(from_config.value) == str(from_lattice.value) == text
    assert Lattice(21, make_params()).side == 21


def test_side_bound_keeps_the_float_tally_product_exact():
    import tracemalloc

    from meshecon.simulator import Lattice

    # every partial sum of run_instant's float64 tally product is an integer
    # below side**4, exact while that stays below 2**53
    assert 9741**4 < 2**53 <= 9742**4
    text = ("side must be <= 9741 so that side**4 < 2**53 keeps the float64 "
            "tally product exact, got 9742")
    with pytest.raises(ParamError) as from_config:
        config(side=9742).validated()
    with pytest.raises(ParamError) as from_lattice:
        Lattice(9742, make_params())
    assert str(from_config.value) == str(from_lattice.value) == text
    tracemalloc.start()
    try:
        assert config(side=9741).validated()
        assert Lattice(9741, make_params()).n_nodes == 9741**2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # nothing of side^2 entries is allocated


def test_lattice_basic_geometry():
    # 100 nodes on a 1x1 torus at spacing 0.1; d_max small enough to fit
    cfg = config(side=10, d_max=0.45)
    lat = build_lattice(cfg)
    assert lat.n_nodes == 100
    a = 0  # node (0, 0); node (i, j) is i * 10 + j
    distance = lambda b: oracles.torus_distance(lat.side, lat.spacing, a, b)
    assert distance(1) == pytest.approx(0.1)
    assert distance(9) == pytest.approx(0.1)  # wrap
    assert distance(55) == pytest.approx(0.5 * math.sqrt(2))


def test_lattice_translation_invariant_neighborhoods():
    cfg = config(side=10, d_max=0.45)
    lat = build_lattice(cfg)
    # every node sees the same count of nodes within d_max
    counts = set()
    for node in range(lat.n_nodes):
        counts.add(sum(
            1 for other in range(lat.n_nodes)
            if other != node
            and oracles.torus_distance(lat.side, lat.spacing, node, other) <= cfg.params.d_max
        ))
    assert len(counts) == 1
    assert counts.pop() == lat.n_offsets


def test_lattice_offset_count_matches_oracle(defaults):
    lat = build_lattice(config())
    oracle = oracles.lattice_oracle(10, 1.0, 10.0, 0.01, 0.99, 1.0, 2.0, "NO_PEERING")
    assert lat.n_offsets == oracle["k"]
    assert lat.connect_prob == pytest.approx(oracle["p"], abs=1e-15)


# --------------------------------------------------------------------------
# the reference greedy router in oracles, on the default 40 x 40 torus

SIDE = 40


def node_at(i, j):
    return oracles.node_index(SIDE, i, j)


def route(origin, destination):
    return oracles.route_greedy(SIDE, origin, destination)


def test_route_straight_row():
    path = route(node_at(0, 0), node_at(0, 3))
    assert path == [node_at(0, j) for j in range(4)]  # 3 hops, 2 relays
    assert len(path) - 2 == 2


def test_route_diagonal():
    path = route(node_at(0, 0), node_at(2, 2))
    assert path == [node_at(i, i) for i in range(3)]  # 2 hops, 1 relay


def test_route_knight_offset():
    # hand enumeration: greedy from (0,0) to (1,2) steps diagonally to (1,1),
    # then straight to (1,2)
    path = route(node_at(0, 0), node_at(1, 2))
    assert path == [node_at(0, 0), node_at(1, 1), node_at(1, 2)]


def test_route_wraps_and_rejects_self():
    path = route(node_at(0, 0), node_at(0, 38))
    assert len(path) == 3  # two wrap hops, not 38 forward hops
    with pytest.raises(ValueError):
        route(5, 5)


def test_row_paths_have_n_d_hops(defaults):
    # hop count equals n*d on rows/columns, so relays = n*d - 1
    for k in (1, 4, 7, 10):
        d = k / 10
        path = route(node_at(0, 0), node_at(0, k))
        assert len(path) - 1 == round(defaults.n * d)
        assert len(path) - 2 == round(defaults.n * d) - 1


# --------------------------------------------------------------------------
# demand draws: run_instant's integers(0, K, N), then geometric(q) gaps
# between the nodes that do not connect (simulator._failing_nodes)


def test_demand_z_limits():
    rare = run_instant(config(z=0.999999, trials=1))  # P ~ 3e-4 over 1600 nodes
    assert rare.connections_attempted <= 5

    # K = 316, so z^K = 2^-316 and P == 1.0 exactly: no gap is drawn
    eager = config(z=0.5, trials=2)
    assert run_instant(eager).connections_attempted == eager.side ** 2 * eager.trials


def _failing_reference(rng, q, n_nodes):
    """The nodes that do not connect, the gaps between them drawn one at a
    time and summed in Python ints."""
    failing, position = [], -1
    while True:
        position += int(rng.geometric(q))
        if position >= n_nodes:
            return failing
        failing.append(position)


class _ShortBatches:
    """A Generator whose batched geometric draws stop after `most` values."""

    def __init__(self, rng, most):
        self.rng, self.most = rng, most

    def geometric(self, q, size):
        return self.rng.geometric(q, min(size, self.most))

    def standard_exponential(self):
        return self.rng.standard_exponential()


# q = 2**-53 is the below_full case's; q >= 1/3 takes numpy's search method
# instead of inversion
GAP_QS = [2.0**-53, 1e-4, 0.042, 0.3, 1 / 3, 0.5, 0.9]


@pytest.mark.parametrize("q", GAP_QS)
def test_gap_batches_equal_gaps_drawn_one_at_a_time(q):
    from meshecon.simulator import _failing_nodes

    for seed in range(20):
        batched = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        single = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        np.testing.assert_array_equal(
            batched.geometric(q, 50), [single.geometric(q) for _ in range(50)]
        )
        for n_nodes in (1, 2, 529, 1600):
            want = _failing_reference(np.random.default_rng([seed, n_nodes]), q, n_nodes)
            got = _failing_nodes(np.random.default_rng([seed, n_nodes]), q, n_nodes)
            assert got.dtype == np.int64 and got.tolist() == want
            # many short batches instead of one: the same nodes
            short = _ShortBatches(np.random.default_rng([seed, n_nodes]), 3)
            assert _failing_nodes(short, q, n_nodes).tolist() == want


@pytest.mark.parametrize(
    "q", [1e-300, 1e-15, 2.4e-11, 1e-6, 0.01, 0.1, 0.3, math.nextafter(1 / 3, 0), 1 / 3, 0.5])
def test_first_gap_is_the_draw_of_geometric(q):
    # below 1/3 the scalar exponential form draws what rng.geometric(q, 1)
    # draws, INT64_MAX where it passes 2^63, and leaves the stream where
    # geometric leaves it
    from meshecon.simulator import _first_gap

    for seed in range(200):
        ours, numpys = np.random.default_rng([seed, 5]), np.random.default_rng([seed, 5])
        gap = _first_gap(ours, q)
        want = numpys.geometric(q, 1)[0]
        assert (math.ceil(gap) if gap < 2.0**63 else np.iinfo(np.int64).max) == want
        assert ours.random() == numpys.random()


@pytest.mark.parametrize("q", [2.0**-53, 1e-300, 5e-324])
def test_failing_nodes_at_tiny_q_neither_hang_nor_overflow(q):
    # numpy returns INT64_MAX for a gap past its range: clipped at N + 1, it
    # marks no node (clipped at N, it would mark node N - 1 every time)
    from meshecon.simulator import _failing_nodes

    rng = np.random.default_rng(11)
    for n_nodes in (1, 1600, 40_001):
        for _ in range(200):
            assert _failing_nodes(rng, q, n_nodes).size == 0


@pytest.mark.parametrize("q", [0.01, 0.042, 1 / 3, 0.5, 0.9])
def test_failure_count_and_positions_follow_the_binomial_law(q):
    from scipy.stats import chisquare

    from meshecon.simulator import _failing_nodes

    n_nodes, trials, bins = 2000, 2000, 20
    counts = np.empty(trials)
    per_bin = np.zeros(bins)
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([2024, trial]))
        failing = _failing_nodes(rng, q, n_nodes)
        assert np.all(np.diff(failing) > 0)  # ascending, no repeats
        assert np.all((0 <= failing) & (failing < n_nodes))
        counts[trial] = failing.size
        per_bin += np.bincount(failing * bins // n_nodes, minlength=bins)
    # the count is Binomial(N, q): its sample mean within 4 standard errors,
    # its sample variance within 4 of its own (kurtosis term included)
    mean, var = n_nodes * q, n_nodes * q * (1 - q)
    assert abs(counts.mean() - mean) < 4 * math.sqrt(var / trials)
    fourth = var * (1 + 3 * (n_nodes - 2) * q * (1 - q))  # binomial 4th central moment
    se_var = math.sqrt((fourth - var**2 * (trials - 3) / (trials - 1)) / trials)
    assert abs(counts.var(ddof=1) - var) < 4 * se_var
    # positions spread uniformly over the node indices
    assert chisquare(per_bin).pvalue > 1e-3


def test_demand_distance_distribution_ks():
    # realized NO_PEERING hop lengths approach F(d) = d^2/d_max^2 as n grows
    from scipy.stats import kstest

    cfg = config(side=61, n=30.0, trials=3, seed=3)
    distances = np.array([
        ev.hop_lengths[0] for ev in run_instant(cfg, collect_events=True).events
    ])
    assert distances.size >= 10_000
    stat = kstest(distances, lambda d: np.clip(d * d, 0.0, 1.0)).statistic
    assert stat < 0.05


# --------------------------------------------------------------------------
# run_instant: exactness, determinism, accounting identities


@pytest.mark.parametrize("regime", [Regime.NO_PEERING, PERFCOMP])
def test_simulation_matches_exact_enumeration(regime):
    cfg = config(regime=regime, trials=200, seed=8)
    out = run_instant(cfg)
    oracle = oracles.lattice_oracle(10, 1.0, 10.0, 0.01, 0.99, 1.0, 2.0,
                                    "PERFCOMP" if regime is PERFCOMP else "NO_PEERING")
    for role in ("originator", "intermediate", "outsider"):
        se = out.stderr[role]
        if se == 0.0:
            assert out.mean[role] == oracle[role]
        else:
            # pure Monte Carlo noise against the exact expectation
            assert abs(out.mean[role] - oracle[role]) < 5 * se


def test_lattice_exact_means_match_oracle():
    for regime, name in ((Regime.NO_PEERING, "NO_PEERING"), (PERFCOMP, "PERFCOMP")):
        got = lattice_exact_means(config(regime=regime))
        oracle = oracles.lattice_oracle(10, 1.0, 10.0, 0.01, 0.99, 1.0, 2.0, name)
        for role in ("originator", "intermediate", "outsider"):
            assert got[role] == pytest.approx(oracle[role], rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("draw", range(16))
def test_lattice_exact_means_match_oracle_on_random_templates(draw):
    # NOTRANS plays every connection direct, so it meets the oracle's
    # NO_PEERING branch; the side only has to pass validation
    rng = np.random.default_rng([2026, draw])
    n, d_max = rng.uniform(3.0, 30.0), rng.uniform(0.4, 1.6)
    a, beta, u = rng.uniform(0.1, 5.0), rng.uniform(1.5, 3.0), 1.0
    w, z = rng.uniform(0.0, 0.1), rng.uniform(0.5, 0.999)
    v = u + a * d_max**beta * (1.0 + rng.uniform(0.1, 2.0))
    params = make_params(n=n, d_max=d_max, v=v, u=u, w=w, z=z, a=a, beta=beta)
    min_side = math.ceil(2 * d_max * n) + 1
    side = int(rng.integers(min_side, 2 * min_side))
    for regime, branch in ((Regime.NO_PEERING, "NO_PEERING"), (NOTRANS, "NO_PEERING"),
                           (PERFCOMP, "PERFCOMP")):
        got = lattice_exact_means(SimConfig(side, params, regime, trials=1, seed=0))
        oracle = oracles.lattice_oracle(n, d_max, v, w, z, a, beta, branch)
        for role in ("originator", "intermediate", "outsider"):
            assert got[role] == pytest.approx(oracle[role], rel=1e-12, abs=1e-15), (regime, role)


def test_perfcomp_outsider_gap_tends_to_the_square_lattice_limit():
    # c07b asks the PERFCOMP outsider's bias to shrink as n doubles; on the
    # square lattice its relative gap instead rises towards a constant, so
    # the absolute gap grows linearly in n. The distance to the limit must
    # shrink at each doubling, and one Richardson step (error O(1/n)) must
    # land within 1e-2 of it.
    limit = oracles.PERFCOMP_OUTSIDER_GAP_LIMIT
    gaps = []
    for n in (80.0, 160.0, 320.0):
        lattice = oracles.lattice_oracle(n, 1.0, 10.0, 0.01, 0.99, 1.0, 2.0, "PERFCOMP")
        closed = regime_utilities(make_params(n=n), PERFCOMP).eu_outsider
        gaps.append(lattice["outsider"] / closed - 1)
    distances = [abs(limit - g) for g in gaps]
    assert distances[0] > distances[1] > distances[2], gaps
    assert abs(2 * gaps[2] - gaps[1] - limit) < 1e-2, gaps


def _trial_draws(cfg, lattice, trial):
    """Trial t's destination offsets and connecting-node mask, from a fresh
    Generator(PCG64(seed).jumped(t)): integers(0, K, N), then, below
    P(K) == 1.0, the failing nodes with their gaps drawn one at a time."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed).jumped(trial))
    dest_k = rng.integers(0, lattice.n_offsets, lattice.n_nodes)
    connecting = np.ones(lattice.n_nodes, dtype=bool)
    if lattice.connect_prob < 1.0:
        connecting[_failing_reference(rng, 1.0 - lattice.connect_prob, lattice.n_nodes)] = False
    return dest_k, connecting


@pytest.mark.parametrize("regime", list(Regime))
def test_tables_hold_with_a_cost_whose_power_overflows(regime):
    # (d_max, a, n) -> (1e10 d_max, 1e-310 a, 1e-10 n) keeps the lattice and
    # a d^beta, while d**31 overflows from d = 8.8e9 on the rescaled lattice
    from meshecon.simulator import _RegimeTables

    small, big = (_RegimeTables(build_lattice(config(side=21, regime=regime, beta=31.0, v=1e301,
                                                     **kw)), regime)
                  for kw in (dict(n=10.0, d_max=1.0, a=1e300), dict(n=1e-9, d_max=1e10, a=1e-10)))
    assert np.array_equal(small.tallies, big.tallies)
    assert big.conn_cost == pytest.approx(small.conn_cost, rel=1e-14, abs=0)


def _gather_reference(cfg):
    """The per-connection tally loop the histogram replaced: gather every
    connection's table entries and sum them."""
    from meshecon.simulator import _RegimeTables

    lattice = build_lattice(cfg)
    tables = _RegimeTables(lattice, cfg.regime)
    p, n_nodes = cfg.params, lattice.n_nodes
    counts = dict(attempted=0, peered=0, refused=0, pollution=0)
    orig, inter, out = [], [], []
    for trial in range(cfg.trials):
        dest_k, connecting = _trial_draws(cfg, lattice, trial)
        sel = dest_k[connecting]
        relay_count = int(tables.relays[sel].sum())
        polluted_count = int(tables.polluted[sel].sum())
        counts["attempted"] += int(sel.size)
        counts["peered"] += int(tables.peer[sel].sum())
        counts["refused"] += int(tables.refused[sel].sum())
        counts["pollution"] += polluted_count
        orig.append((p.v * sel.size - float(np.sum(tables.conn_cost[sel]))) / n_nodes)
        inter.append(-p.w * relay_count / n_nodes)
        out.append(-p.w * polluted_count / n_nodes)
    return counts, np.array(orig), tuple(inter), tuple(out)


# the default config, z=1e-12 (P == 1.0 exactly), side at its minimum, and
# z^K = 2^-53 at K = 316, where P is the largest double below 1.0: gaps at
# q = 2**-53 are drawn, and pass the last node
CASES = {
    "default": dict(seed=41),
    "full_demand": dict(seed=42, z=1e-12),
    "min_side": dict(seed=43, side=21),
    "below_full": dict(seed=44, z=2.0 ** (-53 / 316)),
    # q = z^316 = 9.3e-7: most trials' first gap lands past the lattice, and
    # at this seed trial 1 has one failing node
    "rare_failure": dict(seed=132, z=0.957),
}


# cases at n = 25, where a NO_PEERING run sees over a hundred distinct
# circle counts, and at partial demand, with P about 0.45
DIAGNOSTIC_CASES = {
    **CASES,
    "n25": dict(seed=46, side=51, n=25.0),
    "partial": dict(seed=47, z=0.998),
    "n25_partial": dict(seed=48, side=51, n=25.0, z=0.9997),
}


def _check_case_demand(cfg, case):
    p_conn = build_lattice(cfg).connect_prob
    if case == "full_demand":
        assert p_conn == 1.0
    if case == "below_full":
        assert p_conn == math.nextafter(1.0, 0.0) < 1.0
    if case == "rare_failure":
        assert 0.0 < 1.0 - p_conn < 1e-6
        assert [(~_trial_draws(cfg, build_lattice(cfg), t)[1]).sum() for t in range(2)] == [0, 1]
    if case.endswith("partial"):
        assert 0.3 < p_conn < 0.6


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("case", list(CASES))
def test_histogram_tallies_match_gather_reference(regime, case):
    cfg = config(regime=regime, trials=20, **CASES[case])
    _check_case_demand(cfg, case)
    counts, orig, inter, out = _gather_reference(cfg)
    got = run_instant(cfg)
    if case == "full_demand":
        assert got.connections_attempted == cfg.side ** 2 * cfg.trials
    assert got.connections_attempted == counts["attempted"]
    assert got.connections_peered == counts["peered"]
    assert got.connections_direct == counts["attempted"] - counts["peered"]
    assert got.connections_refused == counts["refused"]
    assert got.pollution_events == counts["pollution"]
    assert got.per_trial["intermediate"] == inter
    assert got.per_trial["outsider"] == out
    # only the originator's float sum changes order (K terms, not one per
    # connection); float64 rounding of either order stays far inside 1e-14
    got_orig = np.array(got.per_trial["originator"])
    assert np.all(np.abs(got_orig - orig) <= 1e-14 * np.abs(orig))


@pytest.mark.parametrize("case", ["default", "below_full", "full_demand"])
def test_gaps_drawn_only_below_full_demand(monkeypatch, case):
    import meshecon.simulator as sim

    calls = []
    failing_nodes = sim._failing_nodes

    def counted(rng, q, n_nodes):
        calls.append(q)
        return failing_nodes(rng, q, n_nodes)

    cfg = config(trials=3, **CASES[case])
    plain = run_instant(cfg)
    monkeypatch.setattr(sim, "_failing_nodes", counted)
    assert run_instant(cfg) == plain
    q = 1.0 - build_lattice(cfg).connect_prob
    assert calls == ([] if case == "full_demand" else [q] * cfg.trials)


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 - 1])
def test_trial_loads_the_jumped_stream(seed, monkeypatch):
    # the state each trial of a 200-trial run loads before its first draw is
    # PCG64(seed).jumped(t); the loop's advance, t * _PCG64_JUMP modulo the
    # period 2**128, also gives jumped(t) at t = 2**32, which no run reaches
    import meshecon.simulator as sim

    jumped = [np.random.PCG64(seed).jumped(t).state for t in (*range(200), 2**32)]
    far = np.random.PCG64(seed).advance(2**32 * sim._PCG64_JUMP % 2**128)
    assert far.state == jumped[-1]

    loaded = []

    class Recording(np.random.PCG64):
        def advance(self, delta):
            super().advance(delta)
            loaded.append({**self.state, "bit_generator": "PCG64"})  # not the subclass's name
            return self

    monkeypatch.setattr(np.random, "PCG64", Recording)
    run_instant(config(trials=200, seed=seed))
    assert loaded == jumped[:200]


@pytest.mark.parametrize("regime", list(Regime))
def test_more_trials_leave_the_first_trials_as_they_were(regime):
    # trial t's stream depends on (seed, t) alone, not on the trial count
    short, long = (run_instant(config(regime=regime, trials=trials, seed=11))
                   for trials in (30, 200))
    for role, values in short.per_trial.items():
        assert long.per_trial[role][:30] == values


def _trial_loop_reference(cfg, collect_per_node=False, collect_events=False):
    """run_instant's trial loop without the reused generator, batched gaps
    and the float64 tally product: a fresh Generator(PCG64(seed).jumped(t))
    per trial, gaps drawn one at a time and an int64 (4, K) @ hist; the costs
    are summed in units of c(d_max) and the package's _outcome builds the
    SimOutcome."""
    from meshecon.simulator import _PathTables, _RegimeTables, _outcome

    lattice = build_lattice(cfg)
    tables = _RegimeTables(lattice, cfg.regime)
    n_nodes, k_offsets = lattice.n_nodes, lattice.n_offsets
    n_conn = np.empty(cfg.trials, dtype=np.int64)
    tallies = np.empty((cfg.trials, 4), dtype=np.int64)
    cost = np.empty(cfg.trials)
    c_max = cfg.params.cost(cfg.params.d_max)
    per_node = np.zeros(n_nodes, dtype=np.int64) if collect_per_node else None
    events = []
    paths = _PathTables(lattice, tables) if collect_per_node or collect_events else None
    if collect_per_node:
        images = np.zeros(paths.levels.size * n_nodes, dtype=np.int64)
    for trial in range(cfg.trials):
        dest_k, connecting = _trial_draws(cfg, lattice, trial)
        ks = dest_k[connecting]
        hist = np.bincount(ks, minlength=k_offsets)
        n_conn[trial] = ks.size
        tallies[trial] = tables.tallies @ hist
        cost[trial] = (tables.conn_cost / c_max * hist).sum()
        if paths is not None:
            origins = np.flatnonzero(connecting)
            if collect_events:
                events += paths.events(trial, origins, ks)
            if collect_per_node:
                paths.charge(images, per_node, origins, ks)
    if collect_per_node:
        paths.spread(images, per_node)
    return _outcome(cfg, n_conn, tallies, cost, per_node,
                    tuple(events) if collect_events else None)


@pytest.mark.parametrize("per_node, events", [
    (False, False), (True, False), (False, True), (True, True),
])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("case", list(CASES))
def test_trial_loop_matches_per_trial_reference(regime, case, per_node, events):
    cfg = config(regime=regime, trials=6, **CASES[case])
    _check_case_demand(cfg, case)
    got = run_instant(cfg, collect_per_node=per_node, collect_events=events)
    ref = _trial_loop_reference(cfg, per_node, events)
    assert got == ref
    assert repr(got) == repr(ref)  # -0.0 and 0.0 differ here


@pytest.mark.parametrize("regime", [PERFCOMP, Regime.NO_PEERING])
def test_float_tallies_exact_on_a_large_full_demand_lattice(regime):
    # every node connects on a 150^2 lattice with K = 15 372 offsets; under
    # NO_PEERING each connection charges its whole circle, so a trial's
    # pollution tally passes 10^8
    cfg = config(side=150, n=70.0, z=1e-12, regime=regime, trials=3, seed=45)
    assert build_lattice(cfg).connect_prob == 1.0
    got = run_instant(cfg)
    assert got == _trial_loop_reference(cfg)
    if regime is Regime.NO_PEERING:
        assert got.pollution_events > 10**8 * cfg.trials


def test_fast_path_does_no_per_connection_python_work(monkeypatch):
    import meshecon.simulator as sim

    def forbidden(*args, **kwargs):
        raise AssertionError("per-connection work on the fast path")

    monkeypatch.setattr(sim, "_PathTables", forbidden)
    out = run_instant(config(regime=PERFCOMP, trials=5, seed=3))
    assert out.connections_peered > 0


@pytest.mark.parametrize("side, n", [(21, 10.0), (40, 10.0), (42, 20.0)])
def test_path_tables_walk_matches_greedy_router(side, n):
    from types import SimpleNamespace

    from meshecon.simulator import _PathTables

    lat = build_lattice(config(side=side, n=n))
    ks = np.arange(lat.n_offsets)
    every_offset_peers = SimpleNamespace(
        peer=np.ones_like(ks), conn_cost=np.zeros(lat.n_offsets),
        relays=np.maximum(np.abs(lat.offset_di), np.abs(lat.offset_dj)) - 1,
    )
    paths = _PathTables(lat, every_offset_peers)
    # the second origin sits on the edges, so walks wrap both ways
    for origin in (0, oracles.node_index(side, side - 1, 0)):
        ti, tj = paths.walk(np.full(ks.size, origin), ks)
        oi, oj = divmod(origin, side)
        for k, nodes in enumerate((ti * side + tj).tolist()):
            dest = oracles.node_index(
                side, oi + int(lat.offset_di[k]), oj + int(lat.offset_dj[k])
            )
            path = oracles.route_greedy(side, origin, dest)
            hops = int(paths.hops[k])
            assert nodes[:hops + 1] == path
            assert set(nodes[hops:]) == {dest}  # padded with the destination
            r2 = [sum(x * x for x in oracles.wrap_delta(side, a, b))
                  for a, b in zip(path, path[1:])]
            assert paths.fields[k][0] == tuple(  # the hop lengths
                oracles.torus_distance(lat.side, lat.spacing, a, b) for a, b in zip(path, path[1:])
            )
            assert paths.charged[k].tolist() == (
                [lat.circle_count(x) for x in r2] + [0] * (paths.charged.shape[1] - hops)
            )


def _diagnostics_reference(cfg):
    """The per-connection loop the path tables replaced: each peered
    connection routed by oracles.route_greedy, each transmission's circle
    charged by one np.add.at, the receiver taken back out under PERFCOMP."""
    from meshecon.simulator import ConnectionEvent, _RegimeTables

    lattice = build_lattice(cfg)
    tables = _RegimeTables(lattice, cfg.regime)
    p, side = cfg.params, lattice.side
    per_node = np.zeros(lattice.n_nodes, dtype=np.int64)
    events = []
    for trial in range(cfg.trials):
        dest_k, connecting = _trial_draws(cfg, lattice, trial)
        for node in np.flatnonzero(connecting).tolist():
            k = int(dest_k[node])
            oi, oj = divmod(node, side)
            dest = oracles.node_index(
                side, oi + int(lattice.offset_di[k]), oj + int(lattice.offset_dj[k])
            )
            peer = bool(tables.peer[k])
            path = oracles.route_greedy(side, node, dest) if peer else [node, dest]
            hop_lengths = tuple(oracles.torus_distance(side, lattice.spacing, a, b)
                                for a, b in zip(path, path[1:]))
            events.append(ConnectionEvent(
                trial=trial,
                origin=node,
                destination=dest,
                path=tuple(path),
                hop_lengths=hop_lengths,
                choice=ConnectionChoice(
                    Choice.PEER if peer else Choice.DIRECT,
                    p.v - float(tables.conn_cost[k]),
                ),
                transfers_paid=sum(p.cost(h) for h in hop_lengths[1:]) if peer else 0.0,
            ))
            for a, b in zip(path, path[1:]):
                di, dj = oracles.wrap_delta(side, a, b)
                count = lattice.circle_count(di * di + dj * dj)
                ai, aj = divmod(a, side)
                idx = (((ai + lattice.offset_di[:count]) % side) * side
                       + (aj + lattice.offset_dj[:count]) % side)
                np.add.at(per_node, idx, 1)
                if cfg.regime is PERFCOMP:
                    per_node[b] -= 1
    return tuple(per_node.tolist()), tuple(events)


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("case", list(DIAGNOSTIC_CASES))
def test_diagnostics_match_per_connection_reference(regime, case):
    from meshecon.simulator import _PathTables, _RegimeTables

    cfg = config(regime=regime, trials=2, **DIAGNOSTIC_CASES[case])
    _check_case_demand(cfg, case)
    if case.startswith("n25") and regime is not PERFCOMP:
        lattice = build_lattice(cfg)
        assert _PathTables(lattice, _RegimeTables(lattice, cfg.regime)).levels.size > 100
    per_node, events = _diagnostics_reference(cfg)
    got = run_instant(cfg, collect_per_node=True, collect_events=True)
    assert got.per_node_outsider_exposures == per_node
    assert got.events == events


@pytest.mark.parametrize("regime", list(Regime))
def test_path_tables_build_event_fields_only_for_events(regime, monkeypatch):
    # a per-node run never reads the event fields; an events run builds each
    # offset's fields, one ConnectionChoice apiece, once for all its trials
    import meshecon.simulator as simulator

    made = []
    choice = simulator.ConnectionChoice
    monkeypatch.setattr(simulator, "ConnectionChoice", lambda *a: made.append(a) or choice(*a))
    cfg = config(regime=regime, trials=3)
    run_instant(cfg, collect_per_node=True)
    assert made == []
    run_instant(cfg, collect_events=True)
    assert len(made) == build_lattice(cfg).n_offsets


def test_bit_identical_determinism():
    cfg = config(regime=PERFCOMP, trials=40, seed=123)
    assert run_instant(cfg) == run_instant(cfg)
    different = dataclasses.replace(cfg, seed=124)
    assert run_instant(cfg) != run_instant(different)


def test_single_trial_has_no_stderr():
    out = run_instant(config(trials=1))
    assert math.isnan(out.stderr["originator"])
    assert math.isfinite(out.mean["originator"])


def test_stderr_stays_finite_where_the_squares_overflow():
    # per-trial originator utilities of order v = 1e301, whose squares
    # overflow: the standard error is that of the series in any power-of-2
    # unit that keeps them finite, exactly
    out = run_instant(config(side=21, trials=30, v=1e301))
    unit = 2.0**1000
    orig = np.array(out.per_trial["originator"]) / unit
    expected = float(orig.std(ddof=1) / math.sqrt(30)) * unit
    assert math.isfinite(expected) and out.stderr["originator"] == expected
    assert out.mean["originator"] == float(orig.mean()) * unit
    assert out.stderr["total"] == pytest.approx(expected, rel=1e-12)


def test_stderr_of_a_tiny_series_is_that_of_the_series_scaled_up():
    # per-trial utilities of order 1e-181, whose squares underflow to 0:
    # the standard error is that of the series scaled by 2^600, scaled back
    from meshecon.simulator import _mean_se

    cfg = config(side=21, trials=30, v=1e-180, u=1e-181, w=1e-183, a=1e-181)
    out = run_instant(cfg)
    for role in ("originator", "outsider"):
        series = np.array(out.per_trial[role])
        mean, se = _mean_se(np.ldexp(series, 600))
        assert se > 0 and out.stderr[role] == math.ldexp(se, -600)
        assert out.mean[role] == math.ldexp(mean, -600)
    totals = np.array(out.per_trial["originator"]) + np.array(out.per_trial["outsider"])
    assert out.stderr["total"] == math.ldexp(_mean_se(np.ldexp(totals, 600))[1], -600) > 0


@pytest.mark.parametrize("regime, big, k", [
    (Regime.NO_PEERING, {"v": 1e308, "u": 1.0}, -300),
    (Regime.NO_PEERING, {"w": 1e306}, -300),
    (PERFCOMP, {"w": 1e306}, -300),
    # the default template, scaled by 2^k, in every regime
    *((regime, {}, k) for regime in Regime for k in (-900, -300, 300, 900)),
])
def test_outcomes_stay_exact_where_v_or_w_times_a_count_overflows(regime, big, k):
    # v or w near the float maximum, whose products with a run's counts
    # overflow though every per-node value is finite: the run and the exact
    # means are those of v, u, w and the cost scaled by 2^k, scaled back;
    # and every run's are, at any k that keeps its values normal floats
    s = 2.0**k
    cfg = config(side=21, regime=regime, trials=30, **big)
    p = cfg.params
    scaled = dataclasses.replace(cfg, params=dataclasses.replace(
        p, v=p.v * s, u=p.u * s, w=p.w * s, cost=dataclasses.replace(p.cost, a=p.cost.a * s)))
    out, ref = run_instant(cfg), run_instant(scaled)
    for role in ("originator", "intermediate", "outsider"):
        assert out.per_trial[role] == tuple(x / s for x in ref.per_trial[role])
    for role in ("originator", "intermediate", "outsider", "total"):
        for stat in ("mean", "stderr"):
            got = getattr(out, stat)[role]
            assert math.isfinite(got) and got == getattr(ref, stat)[role] / s
    assert lattice_exact_means(cfg) == {r: x / s for r, x in lattice_exact_means(scaled).items()}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("regime, w, role", [
    # the closed-form outsider is finite, -1.718e308, but the lattice
    # charges more: some trials' outsider values pass the float maximum
    (Regime.NO_PEERING, 1.15e306, "outsider"),
    # every role finite, their sum past the float maximum in every trial
    (PERFCOMP, 6.2e306, "total"),
])
def test_per_trial_values_past_the_float_range_are_refused(regime, w, role):
    cfg = config(side=21, regime=regime, trials=30, w=w)
    assert math.isfinite(regime_utilities(cfg.params, regime).total)
    with pytest.raises(NumericsError) as exc:
        run_instant(cfg)
    assert str(exc.value) == f"{regime.value} per-trial {role} utility is not finite"


@pytest.mark.parametrize("regime", list(Regime))
def test_originator_costs_near_the_float_maximum_sum_in_a_unit(regime):
    # c(d_max) = 1e307, so a trial's cost sum over 441 nodes overflows a
    # float though the per-node cost does not: the means are finite and
    # within 3 SE of the run's exact expectation
    cfg = config(side=21, regime=regime, trials=30, v=1e308, u=1.0, a=1e307)
    out, exact = run_instant(cfg), lattice_exact_means(cfg)
    for role in ("originator", "intermediate", "outsider", "total"):
        assert math.isfinite(out.mean[role]) and math.isfinite(out.stderr[role])
    for role in ("originator", "intermediate", "outsider"):
        assert abs(out.mean[role] - exact[role]) <= 3 * out.stderr[role]
    assert out.mean["originator"] > 0


def test_perfcomp_intermediate_is_minus_w_per_exposure():
    cfg = config(regime=PERFCOMP, trials=30, seed=5)
    out = run_instant(cfg, collect_events=True)
    relay_exposures = sum(len(ev.path) - 2 for ev in out.events
                          if ev.choice.mode is Choice.PEER)
    nodes = cfg.side * cfg.side
    assert sum(out.per_trial["intermediate"]) * nodes == pytest.approx(
        -cfg.params.w * relay_exposures, rel=1e-12
    )


def test_no_transfers_records_zero_peering():
    out = run_instant(config(regime=NOTRANS, trials=40, seed=11))
    assert out.connections_peered == 0
    assert out.connections_refused > 0
    assert out.mean["intermediate"] == 0.0
    # forced-direct play also means the no-peering tallies coincide exactly
    direct = run_instant(config(regime=Regime.NO_PEERING, trials=40, seed=11))
    assert out.per_trial["originator"] == direct.per_trial["originator"]
    assert out.per_trial["outsider"] == direct.per_trial["outsider"]


def test_money_conservation_per_trial():
    cfg = config(regime=PERFCOMP, trials=10, seed=21)
    out = run_instant(cfg, collect_events=True)
    for trial in range(cfg.trials):
        events = [ev for ev in out.events if ev.trial == trial]
        paid = sum(ev.transfers_paid for ev in events)
        received = sum(
            sum(cfg.params.cost(h) for h in ev.hop_lengths[1:])
            for ev in events if ev.choice.mode is Choice.PEER
        )
        assert paid == received  # identical per-relay amounts, exactly


def test_event_invariants_and_table_congruence():
    cfg = config(regime=PERFCOMP, trials=5, seed=31)
    out = run_instant(cfg, collect_events=True)
    lat = build_lattice(cfg)
    assert len(out.events) == out.connections_attempted
    peered = 0
    for ev in out.events:
        assert ev.path[0] == ev.origin
        assert ev.path[-1] == ev.destination
        assert len(set(ev.path)) == len(ev.path)
        d = oracles.torus_distance(lat.side, lat.spacing, ev.origin, ev.destination)
        assert sum(ev.hop_lengths) >= d - 1e-12
        assert len(ev.path) - 1 <= 2 * cfg.params.n * d + 1e-9
        if ev.choice.mode is Choice.PEER:
            peered += 1
            # greedy path cost equals the tabulated connection cost
            assert sum(cfg.params.cost(h) for h in ev.hop_lengths) == pytest.approx(
                cfg.params.v - ev.choice.net_utility, rel=1e-12
            )
        else:
            assert len(ev.path) == 2
            assert ev.hop_lengths[0] == pytest.approx(d)
            assert ev.transfers_paid == 0.0
    assert peered == out.connections_peered


def test_straight_and_diagonal_paths_have_tight_lengths():
    cfg = config(regime=PERFCOMP, trials=3, seed=13)
    out = run_instant(cfg, collect_events=True)
    lat = build_lattice(cfg)
    seen = 0
    for ev in out.events:
        di, dj = oracles.wrap_delta(lat.side, ev.origin, ev.destination)
        if di == 0 or dj == 0 or abs(di) == abs(dj):
            seen += 1
            assert sum(ev.hop_lengths) == pytest.approx(
                oracles.torus_distance(lat.side, lat.spacing, ev.origin, ev.destination), rel=1e-12
            )
    assert seen > 0


def test_event_level_peering_beats_direct_socially():
    cfg = config(regime=PERFCOMP, trials=3, seed=17)
    out = run_instant(cfg, collect_events=True)
    lat = build_lattice(cfg)
    p = cfg.params
    checked = 0
    for ev in out.events:
        if ev.choice.mode is not Choice.PEER:
            continue
        checked += 1
        peer_cost = 0.0
        for a, b, h in zip(ev.path[:-1], ev.path[1:], ev.hop_lengths):
            di, dj = oracles.wrap_delta(lat.side, a, b)
            peer_cost += p.cost(h) + p.w * lat.circle_count(di * di + dj * dj)
        di, dj = oracles.wrap_delta(lat.side, ev.origin, ev.destination)
        direct_cost = (
            p.cost(oracles.torus_distance(lat.side, lat.spacing, ev.origin, ev.destination))
            + p.w * lat.circle_count(di * di + dj * dj)
        )
        assert peer_cost < direct_cost
    assert checked > 100


def test_pollution_symmetry_under_full_demand():
    # z -> 0 hook: every node transmits every trial; outsider exposure is
    # symmetric across nodes and its dispersion shrinks like 1/trials
    base = dict(side=9, n=4.0, d_max=1.0, z=1e-12, w=0.01)
    small = config(regime=Regime.NO_PEERING, trials=40, seed=2, **base)
    large = config(regime=Regime.NO_PEERING, trials=160, seed=2, **base)
    out_small = run_instant(small, collect_per_node=True)
    out_large = run_instant(large, collect_per_node=True)
    assert out_small.connections_attempted == 81 * 40  # P == 1.0 exactly
    per_small = np.array(out_small.per_node_outsider_exposures) / small.trials
    per_large = np.array(out_large.per_node_outsider_exposures) / large.trials
    assert per_small.mean() == pytest.approx(per_large.mean(), rel=0.05)
    assert per_large.var() < per_small.var() / 2
    assert sum(out_small.per_node_outsider_exposures) == out_small.pollution_events


@pytest.mark.parametrize("regime", list(Regime))
def test_per_node_tally_matches_fast_totals(regime):
    cfg = config(regime=regime, trials=8, seed=77)
    with_nodes = run_instant(cfg, collect_per_node=True)
    assert sum(with_nodes.per_node_outsider_exposures) == with_nodes.pollution_events
    plain = run_instant(cfg)
    assert plain.per_trial["outsider"] == with_nodes.per_trial["outsider"]


# --------------------------------------------------------------------------
# cross-validation record


def test_estimate_requires_enough_trials():
    with pytest.raises(ParamError, match="trials"):
        estimate_vs_analytic(config(trials=1))
    with pytest.raises(ParamError, match="trials"):
        estimate_vs_analytic(config(trials=29))


def test_estimate_builds_lattice_and_tables_once(monkeypatch):
    import meshecon.simulator as sim

    cfg = config(regime=PERFCOMP, trials=30, seed=19)
    calls = {}

    def counted(name):
        fn = getattr(sim, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(sim, name, wrapper)

    for name in ("validate", "build_lattice", "_RegimeTables",
                 "run_instant", "lattice_exact_means"):
        counted(name)
    rec = estimate_vs_analytic(cfg)
    # the public run_instant and lattice_exact_means are still both called
    assert calls == {"validate": 1, "build_lattice": 1, "_RegimeTables": 1,
                     "run_instant": 1, "lattice_exact_means": 1}
    monkeypatch.undo()
    exact = lattice_exact_means(cfg)
    exact["total"] = sum(exact.values())
    assert {r.role: r.lattice_exact for r in rec.roles} == exact
    assert rec.outcome == run_instant(cfg)


def test_estimate_record_structure(defaults):
    rec = estimate_vs_analytic(config(trials=60, seed=7))
    roles = {r.role for r in rec.roles}
    assert roles == {"originator", "intermediate", "outsider", "total"}
    analytic = regime_utilities(make_params(), Regime.NO_PEERING)
    assert rec.role("originator").analytic == pytest.approx(analytic.eu_originator)
    assert rec.role("intermediate").z == 0.0
    with pytest.raises(KeyError):
        rec.role("bogus")
    for r in rec.roles:
        assert r.bias == r.sim_mean - r.analytic
        assert math.isfinite(r.lattice_exact)
    blob = rec.to_json_dict()
    assert blob["analytic_baseline"] == "NO_PEERING"
    assert len(blob["roles"]) == 4


def test_role_comparison_derives_bias_z_and_flag():
    # a role's comparison stores five numbers; bias, z and flagged are read
    # from them, at a zero standard error too
    RoleComparison = meshecon.simulator.RoleComparison
    assert [f.name for f in dataclasses.fields(RoleComparison)] == [
        "role", "sim_mean", "sim_se", "analytic", "lattice_exact"]
    rc = RoleComparison("outsider", -1.0, 0.25, -1.5, -1.0)
    assert (rc.bias, rc.z, rc.flagged) == (0.5, 2.0, False)
    assert rc.to_json_dict() == {"role": "outsider", "sim_mean": -1.0, "sim_se": 0.25,
                                 "analytic": -1.5, "lattice_exact": -1.0,
                                 "bias": 0.5, "z": 2.0, "flagged": False}
    # flagged past three standard errors from lattice_exact, not at three
    assert RoleComparison("outsider", -1.0, 0.25, -1.5, -2.0).flagged
    assert not RoleComparison("outsider", -1.0, 0.25, -1.5, -1.75).flagged
    # at a zero standard error z is an infinity of the bias's sign, or 0.0
    # for none, and any gap from lattice_exact is flagged
    rows = [RoleComparison("total", 2.0, 0.0, analytic, 2.0) for analytic in (1.0, 3.0, 2.0)]
    assert [r.z for r in rows] == [math.inf, -math.inf, 0.0]
    assert not any(r.flagged for r in rows)
    assert RoleComparison("total", 2.0, 0.0, 2.0, math.nextafter(2.0, 3.0)).flagged


def test_estimate_flags_a_role_more_than_three_standard_errors_out(monkeypatch):
    # exact means planted 3.2 SE from the run's originator mean and 2.9 SE
    # from its outsider mean: the first is flagged, the second is not
    cfg = config(side=21, regime=PERFCOMP, trials=30)
    out = run_instant(cfg)
    shift = {"originator": 3.2, "intermediate": 0.0, "outsider": 2.9}
    monkeypatch.setattr(meshecon.simulator, "lattice_exact_means", lambda config, _built: {
        role: out.mean[role] + k * out.stderr[role] for role, k in shift.items()})
    rec = estimate_vs_analytic(cfg)
    assert all(rec.role(role).sim_se > 0 for role in shift)
    assert rec.role("originator").flagged
    assert not rec.role("intermediate").flagged and not rec.role("outsider").flagged
    assert rec.flags == ("originator", "total") == tuple(rec.to_json_dict()["flags"])


def test_estimate_notrans_compares_against_realized_play():
    rec = estimate_vs_analytic(config(regime=NOTRANS, trials=60, seed=7))
    assert rec.analytic_baseline is Regime.NO_PEERING
    assert rec.outcome.connections_peered == 0


def test_estimate_simulation_consistent_with_lattice_expectation():
    # the MC mean must sit within noise of the exact lattice expectation;
    # any discrepancy against the continuum closed form beyond that is
    # model discretization, not sampling error
    rec = estimate_vs_analytic(config(trials=200, seed=9))
    for r in rec.roles:
        if r.sim_se > 0:
            assert abs(r.sim_mean - r.lattice_exact) < 5 * r.sim_se
            assert r.z == r.bias / r.sim_se  # z stays against the closed form
    # the outsider sits ~39 SE from the closed form (the deterministic
    # lattice offset) but within noise of lattice_exact, so nothing is flagged
    assert abs(rec.role("outsider").z) > 30
    assert rec.flags == ()
    assert not any(r.flagged for r in rec.roles)

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from meshecon import (
    BoundaryOptimum,
    DensityBracket,
    EquilibriumKind,
    NoCrossing,
    NumericsError,
    ParamError,
    Regime,
    club_optimal_density,
    compare_regimes,
    congestion_scaling_exponent,
    default_bracket,
    free_entry_density,
    regime_utilities,
    total_eu,
)
import meshecon.equilibrium
import meshecon.regimes
from meshecon.cli import main
from meshecon.equilibrium import (
    BRACKET_CAP,
    DENSITY_TOL,
    MAX_ROUNDS,
    REFINE_POINTS,
    RESIDUAL_TOL,
    _SCALING_N_VALUES,
    _scan,
)
from meshecon.regimes import DEFAULT_TOL, utility_arrays
from conftest import random_draws
import oracles

PERFCOMP = Regime.PEERING_PERFECT_COMPETITION


@pytest.fixture
def utility_calls(monkeypatch):
    """Record (regime, densities, tol) for every utility_arrays call, under
    both names the solvers and regime_utilities look it up by."""
    calls = []

    def spy(template, regime, densities, tol=DEFAULT_TOL):
        calls.append((regime, np.array(densities, dtype=float).reshape(-1), tol))
        return utility_arrays(template, regime, densities, tol)

    monkeypatch.setattr(meshecon.equilibrium, "utility_arrays", spy)
    monkeypatch.setattr(meshecon.regimes, "utility_arrays", spy)
    return calls


# --------------------------------------------------------------------------
# total_eu


def test_total_eu_no_peering_matches_closed_form(defaults):
    got = total_eu(defaults, 10.0, Regime.NO_PEERING)
    assert got == pytest.approx(float(oracles.no_peering_total_mp(10)), abs=1e-9)
    got_pc = total_eu(defaults, 10.0, PERFCOMP)
    assert got_pc == pytest.approx(float(oracles.perfcomp_total_mp(10)), abs=1e-9)


def test_total_eu_without_pollution_is_positive_increasing(defaults):
    p = dataclasses.replace(defaults, w=0.0)
    for regime in Regime:
        vals = [total_eu(p, n, regime) for n in (2.0, 5.0, 10.0, 30.0, 100.0)]
        assert all(v > 0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_total_eu_peering_dominates_no_peering_across_bracket(defaults):
    for n in np.linspace(3.0, 64.0, 15):
        assert total_eu(defaults, float(n), PERFCOMP) >= total_eu(
            defaults, float(n), Regime.NO_PEERING
        )


# --------------------------------------------------------------------------
# free entry


def test_free_entry_no_peering_matches_root_oracle(defaults):
    res = free_entry_density(defaults, Regime.NO_PEERING)
    assert res.kind is EquilibriumKind.FREE_ENTRY
    assert abs(res.n_star - oracles.FREE_ENTRY_NO_PEERING) < 1e-7
    assert abs(res.diagnostics.residual) <= 1e-9
    # fresh evaluation at the root stays within the reporting tolerance
    assert abs(total_eu(defaults, res.n_star, Regime.NO_PEERING)) <= 1e-8


def test_free_entry_perfcomp_matches_root_oracle(defaults):
    res = free_entry_density(defaults, PERFCOMP)
    assert abs(res.n_star - oracles.FREE_ENTRY_PERFCOMP) < 1e-6
    assert abs(res.diagnostics.residual) <= 1e-9


def test_free_entry_ordering_and_explicit_bracket(defaults):
    res_np = free_entry_density(
        defaults, Regime.NO_PEERING, DensityBracket(11.0, 2000.0)
    )
    res_pc = free_entry_density(defaults, PERFCOMP, DensityBracket(11.0, 2000.0))
    assert res_pc.n_star > res_np.n_star
    assert abs(res_np.n_star - oracles.FREE_ENTRY_NO_PEERING) < 1e-7
    assert abs(res_pc.n_star - oracles.FREE_ENTRY_PERFCOMP) < 1e-6


def test_free_entry_without_pollution_reports_no_crossing(defaults):
    with pytest.raises(NoCrossing):
        free_entry_density(dataclasses.replace(defaults, w=0.0), Regime.NO_PEERING)


def test_free_entry_deterministic(defaults):
    a = free_entry_density(defaults, Regime.NO_PEERING)
    b = free_entry_density(defaults, Regime.NO_PEERING)
    assert a == b


@pytest.mark.parametrize("regime", [Regime.NO_PEERING, PERFCOMP])
def test_free_entry_passes_tol_to_every_evaluation(defaults, regime, utility_calls):
    free_entry_density(defaults, regime, tol=1e-6)
    assert len(utility_calls) > 2  # bracket, scan, refinement, final point
    assert [tol for _, _, tol in utility_calls] == [1e-6] * len(utility_calls)


def _largest_downcrossing(grid, values):
    cells = np.flatnonzero((values[:-1] > 0) & (values[1:] <= 0))
    return (float(grid[cells[-1]]), float(grid[cells[-1] + 1])) if len(cells) else None


@pytest.mark.parametrize("regime", [Regime.NO_PEERING, PERFCOMP])
def test_free_entry_refinement_contract(defaults, regime):
    templates = [defaults] + [p for p, _ in random_draws(20, seed=31)]
    for t in templates:
        grid, values = _scan(t, regime, default_bracket(t, regime), DEFAULT_TOL)
        cell = _largest_downcrossing(grid, values)
        if cell is None:
            with pytest.raises(NoCrossing):
                free_entry_density(t, regime)
            continue
        res = free_entry_density(t, regime)
        assert abs(res.diagnostics.residual) <= RESIDUAL_TOL
        assert res.diagnostics.residual == res.total_eu_at_n_star
        assert cell[0] <= res.n_star <= cell[1]
        assert res.diagnostics.iterations <= MAX_ROUNDS


def test_club_refinement_contract(defaults):
    templates = [defaults] + [p for p, _ in random_draws(20, seed=31)]
    solved = 0
    for t in templates:
        try:
            res = club_optimal_density(t)
        except BoundaryOptimum:
            continue
        solved += 1
        assert 0 < res.diagnostics.residual <= DENSITY_TOL  # b - a
        # at the top of the hump, totals DENSITY_TOL apart differ by less than
        # their rounding: repeated evaluations within +-DENSITY_TOL of n_star
        # scatter by up to 3e-15 relative, so allow 1e-14 of the total
        slack = 1e-14 * abs(res.total_eu_at_n_star)
        for neighbor in (res.n_star - DENSITY_TOL, res.n_star + DENSITY_TOL):
            assert res.total_eu_at_n_star >= total_eu(t, neighbor, PERFCOMP) - slack
    assert solved >= 10


def test_free_entry_stall_guard_raises(defaults, utility_calls):
    # no |total| is below a negative residual_tol, so the guard must end the
    # k-section (residual_tol=0 would be met by an exact 0.0 total, which the
    # default template reaches at n = 698.1395333957213, 1 ulp from the root)
    with pytest.raises(NumericsError, match="stalled"):
        free_entry_density(defaults, PERFCOMP, residual_tol=-1.0)
    rounds = [d for _, d, _ in utility_calls if len(d) == REFINE_POINTS]
    assert len(rounds) == MAX_ROUNDS


def test_free_entry_stall_maps_to_cli_exit_3(monkeypatch, capsys):
    stalling = functools.partial(free_entry_density, residual_tol=-1.0)
    monkeypatch.setattr(meshecon.equilibrium, "free_entry_density", stalling)
    assert main(["equilibrium"]) == 3
    assert "stalled" in capsys.readouterr().err


def test_bracket_validation(defaults):
    with pytest.raises(ParamError):
        DensityBracket(0.5, 100.0).validate_for(defaults)  # n_lo <= 1/d_max
    with pytest.raises(ParamError):
        DensityBracket(30.0, 20.0).validate_for(defaults)
    with pytest.raises(ParamError):
        DensityBracket(2.0, 20.0, grid_points=1).validate_for(defaults)


@pytest.mark.parametrize("regime", list(Regime))
def test_batched_evaluation_bit_identical_to_single(defaults, regime):
    # every density the solvers evaluate in a batch (scan grid, bracket
    # doublings, scaling densities) must give exactly the roles and total of
    # a one-density regime_utilities call, or signs could disagree between
    # the scan and the refinement
    for t in [defaults] + [p for p, _ in random_draws(3, seed=13)]:
        bracket = default_bracket(t, regime)
        n_hi = 4 / t.d_max  # scalar reference for the doubling rule
        while total_eu(t, n_hi, regime) >= 0 and n_hi < BRACKET_CAP:
            n_hi = min(2 * n_hi, BRACKET_CAP)
        assert bracket.n_hi == n_hi
        grid, totals = _scan(t, regime, bracket, DEFAULT_TOL)
        doublings = [4 / t.d_max]
        while doublings[-1] < BRACKET_CAP:
            doublings.append(min(2 * doublings[-1], BRACKET_CAP))
        scaling = [x / t.d_max for x in _SCALING_N_VALUES]
        # the relayed annulus opens at n d_max = 2
        edge = 2 / t.d_max
        relay_edge = [edge, math.nextafter(edge, 0), math.nextafter(edge, math.inf),
                      (2 - 1e-9) / t.d_max, (2 + 1e-9) / t.d_max]
        assert all(len(r) == 0 for r in utility_arrays(t, regime, []))
        for densities in (grid, doublings, scaling, relay_edge):
            roles = utility_arrays(t, regime, densities)
            for k, n in enumerate(densities):
                one = regime_utilities(t.with_n(float(n)), regime)
                got = tuple(float(r[k]) for r in roles)
                assert got == (one.eu_originator, one.eu_intermediate, one.eu_outsider)
                assert sum(got) == one.total
                if densities is grid:
                    assert totals[k] == one.total


def test_default_bracket_contains_root(defaults):
    br = default_bracket(defaults, Regime.NO_PEERING)
    assert br.n_lo == 2.0
    assert br.n_lo < oracles.FREE_ENTRY_NO_PEERING < br.n_hi


# --------------------------------------------------------------------------
# club optimum


def test_club_optimum_matches_argmax_oracle(defaults):
    res = club_optimal_density(defaults)
    n_star, value = oracles.club_argmax_mp()
    assert res.kind is EquilibriumKind.CLUB_OPTIMUM
    assert abs(res.n_star - n_star) < 1e-5
    assert res.total_eu_at_n_star == pytest.approx(value, abs=1e-8)
    assert res.total_eu_at_n_star > 0
    assert res.diagnostics.notes == ()  # unimodal on the scan grid


def test_club_optimum_beats_grid_neighbors(defaults):
    res = club_optimal_density(defaults)
    br = res.diagnostics
    grid = np.linspace(br.n_lo, br.n_hi, br.grid_points)
    step = grid[1] - grid[0]
    for neighbor in (res.n_star - step, res.n_star + step):
        assert res.total_eu_at_n_star >= total_eu(defaults, float(neighbor), PERFCOMP)


def test_club_below_free_entry_with_positive_surplus(defaults):
    club = club_optimal_density(defaults)
    free = free_entry_density(defaults, PERFCOMP)
    assert club.n_star < free.n_star
    assert club.total_eu_at_n_star > free.total_eu_at_n_star
    assert abs(free.total_eu_at_n_star) <= 1e-8


def test_club_without_pollution_hits_boundary(defaults):
    with pytest.raises(BoundaryOptimum) as err:
        club_optimal_density(dataclasses.replace(defaults, w=0.0))
    assert err.value.side == "high"


# --------------------------------------------------------------------------
# congestion scaling


def test_scaling_exponents_match_closed_form(defaults):
    ns = [50.0, 100.0, 200.0, 400.0]
    got_np = congestion_scaling_exponent(defaults, Regime.NO_PEERING, ns)
    got_pc = congestion_scaling_exponent(defaults, PERFCOMP, ns)
    # independent fit on the closed-form outsider magnitudes
    out_np = [abs(float(-0.01 * oracles._p_mp(n)
                        * (oracles.mp.pi * n * n / 2 - 1
                           + 1 / (2 * oracles.mp.pi * n * n)))) for n in ns]
    fit_np = np.polyfit(np.log(ns), np.log(out_np), 1)[0]
    assert got_np == pytest.approx(fit_np, abs=1e-6)
    assert 1.85 <= got_np <= 2.15
    assert 0.85 <= got_pc <= 1.15


def test_scaling_linear_in_pollution_cost(defaults):
    base = regime_utilities(defaults, Regime.NO_PEERING).eu_outsider
    doubled = regime_utilities(
        dataclasses.replace(defaults, w=0.02), Regime.NO_PEERING
    ).eu_outsider
    assert doubled == pytest.approx(2 * base, rel=1e-12)


def test_scaling_preconditions(defaults):
    with pytest.raises(ParamError, match=">= 4"):
        congestion_scaling_exponent(defaults, Regime.NO_PEERING, [50, 100, 200])
    with pytest.raises(ParamError, match="unsaturated"):
        congestion_scaling_exponent(defaults, Regime.NO_PEERING, [3, 50, 100, 200])
    with pytest.raises(ParamError, match="zero"):
        congestion_scaling_exponent(
            dataclasses.replace(defaults, w=0.0), Regime.NO_PEERING,
            [50, 100, 200, 400],
        )


# --------------------------------------------------------------------------
# comparison report


def test_compare_regimes_consistency(defaults):
    report = compare_regimes(defaults)
    assert not report.has_findings()
    fe_np = report.free_entry_no_peering
    fe_pc = report.free_entry_perfcomp
    club = report.club
    assert fe_np.n_star < fe_pc.n_star
    assert club.n_star < fe_pc.n_star
    assert club.total_eu_at_n_star > 0
    assert 1.85 <= report.scaling_no_peering <= 2.15
    assert 0.85 <= report.scaling_perfcomp <= 1.15
    assert len(report.leapfrog_profile) > 0
    for d, threshold, price in report.leapfrog_profile:
        assert price < threshold  # c(D) < c(2D)


def test_compare_regimes_shares_one_competitive_scan(defaults, utility_calls):
    n_lo = 2 / defaults.d_max
    doublings = [2 * n_lo]
    while doublings[-1] < BRACKET_CAP:
        doublings.append(min(2 * doublings[-1], BRACKET_CAP))
    bracket = default_bracket(defaults, PERFCOMP)
    grid = np.linspace(bracket.n_lo, bracket.n_hi, bracket.grid_points)
    utility_calls.clear()
    compare_regimes(defaults)
    pc = [d for r, d, _ in utility_calls if r is PERFCOMP]
    assert sum(np.array_equal(d, doublings) for d in pc) == 1
    assert sum(np.array_equal(d, grid) for d in pc) == 1
    # one-density calls: only the final regime_utilities of free entry and club
    assert sum(len(d) == 1 for d in pc) == 2


def test_compare_regimes_json_round_trip(defaults):
    report = compare_regimes(defaults)
    assert json.loads(report.to_json()) == report.to_json_dict()
    rows = report.csv_rows()
    assert rows[0] == ["regime", "n", "eu_orig", "eu_int", "eu_out", "total"]
    assert len(rows) == 4  # header + three solved points


def test_compare_regimes_markers_without_pollution(defaults):
    report = compare_regimes(dataclasses.replace(defaults, w=0.0))
    assert report.has_findings()
    assert report.free_entry_no_peering == "NO_CROSSING"
    assert report.free_entry_perfcomp == "NO_CROSSING"
    assert report.club.startswith("BOUNDARY_OPTIMUM")
    assert report.scaling_no_peering.startswith("UNDEFINED")
    blob = json.loads(report.to_json())
    assert blob["free_entry_no_peering"] == "NO_CROSSING"

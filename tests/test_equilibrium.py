import csv
import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from meshecon import (
    BoundaryOptimum,
    EquilibriumKind,
    EquilibriumResult,
    NoCrossing,
    NumericsError,
    ParamError,
    Regime,
    RegimeComparison,
    club_optimal_density,
    compare_regimes,
    competitive_price,
    congestion_scaling_exponent,
    default_bracket,
    free_entry_density,
    leapfrog_threshold,
    regime_utilities,
    total_eu,
    validate,
)
import meshecon.cli
import meshecon.equilibrium
import meshecon.regimes
from meshecon.cli import main
from meshecon.equilibrium import (
    BRACKET_CAP,
    DENSITY_TOL,
    GRID_POINTS,
    MAX_ROUNDS,
    REFINE_POINTS,
    RESIDUAL_TOL,
    _CLUB_RUNGS,
    _DOUBLINGS,
    _FREE_ENTRY_RUNGS,
    _SCALING_Y_VALUES,
    _club_steps,
    _drive,
    _free_entry_steps,
    _leapfrog_profile,
    _no_peering_net_value,
    _no_peering_root,
    _refine_steps,
    _replayed,
    _replayed_array,
    _scaling_fit,
    _scaling_steps,
    _scan,
)
from meshecon.model import _combine
from meshecon.regimes import _roles, utility_arrays
from conftest import make_params, random_draws
from test_regimes import valid_cost_laws
import oracles

PERFCOMP = Regime.PEERING_PERFECT_COMPETITION


@pytest.fixture
def utility_calls(monkeypatch):
    """Record (regime, Y = n d_max values) for every evaluation of the roles,
    under both names the solvers and utility_arrays look it up by."""
    calls = []

    def spy(template, regime, y):
        calls.append((regime, y.copy()))
        return _roles(template, regime, y)

    monkeypatch.setattr(meshecon.equilibrium, "_roles", spy)
    monkeypatch.setattr(meshecon.regimes, "_roles", spy)
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
    assert abs(res.n_star - oracles.FREE_ENTRY_NO_PEERING) <= math.ulp(oracles.FREE_ENTRY_NO_PEERING)
    assert (res.diagnostics.iterations, res.diagnostics.notes) == (0, ("closed-form root",))
    assert abs(res.diagnostics.residual) <= 1e-9
    # fresh evaluation at the root stays within the reporting tolerance
    assert abs(total_eu(defaults, res.n_star, Regime.NO_PEERING)) <= 1e-8


def _no_peering_root_check(template):
    """1 when free entry without peering solves template, with n* within 4
    ulps of the closed-form root; 0 on a finding, whose bracket then holds
    no root."""
    root = oracles.no_peering_root(template)
    try:
        res = free_entry_density(template, Regime.NO_PEERING)
    except NoCrossing as exc:
        assert not exc.n_lo * (1 + 1e-9) < root < exc.n_hi * (1 - 1e-9)
        return 0
    assert abs(res.n_star - root) <= 4 * math.ulp(root), (res.n_star, root)
    return 1


def test_free_entry_no_peering_is_the_closed_form_root(defaults):
    templates = [defaults] + [p for p, _ in random_draws(200, seed=7, require_relay=False)]
    assert sum(map(_no_peering_root_check, templates)) == len(templates)


@st.composite
def no_peering_roots(draw):
    """Templates of valid_cost_laws whose w puts the NO_PEERING root at a Y
    drawn from 1 to BRACKET_CAP, in the bracket or below it."""
    template = draw(valid_cost_laws())
    s = math.pi * (10.0 ** draw(st.floats(0.0, math.log10(BRACKET_CAP))))**2
    net = template.v - 2 * template.cost(template.d_max) / (template.cost.beta + 2)
    w = net / (s / 2 + 1 / (2 * s) - 1)
    assume(1e-300 <= w <= 1e300)
    return dataclasses.replace(template, w=w)


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(valid_cost_laws() | no_peering_roots())
def test_free_entry_no_peering_is_the_closed_form_root_over_the_valid_region(template):
    try:
        _no_peering_root_check(template)
    except NumericsError as exc:
        # with v near the float maximum and the root below Y = 4, the
        # outsider role overflows at the bracket's upper end
        assert "utility is not finite" in str(exc)


# v, c(d_max) and w from 2^512 up, where model._combine takes a role in a
# power-of-2 unit (model._unit), or in the ordinary range below it
_TERM_SCALES = st.just(2.0**512) | st.floats(2.0**512, 1e308) | st.floats(1e-300, 1e300)


@st.composite
def large_terms(draw):
    """Templates whose v, c(d_max) = cost_a (d_max = 1) and w are each drawn
    from _TERM_SCALES, w = 0 included, with beta anywhere in (1, 1000]."""
    return make_params(v=draw(_TERM_SCALES), a=draw(_TERM_SCALES),
                       w=draw(st.just(0.0) | _TERM_SCALES),
                       beta=draw(st.floats(1.0, 1000.0, exclude_min=True)))


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(valid_cost_laws() | large_terms())
def test_no_peering_net_value_is_the_originator_of_a_basis_at_y_one(template):
    # v' from the originator's constant rows is, bit for bit, the originator
    # role at P = 1 of a NO_PEERING basis evaluated at Y = 1, which
    # _no_peering_root formed before
    basis = meshecon.regimes._basis(template, Regime.NO_PEERING, np.ones(1))
    originator = float(_combine(template, 1.0, *basis[1:])[0, 0])
    assert _no_peering_net_value(template).hex() == originator.hex()
    # without pollution the total never falls to zero: no root
    assert _no_peering_root(dataclasses.replace(template, w=0.0)) is None


def test_free_entry_perfcomp_matches_root_oracle(defaults):
    res = free_entry_density(defaults, PERFCOMP)
    assert abs(res.n_star - oracles.FREE_ENTRY_PERFCOMP) < 1e-6
    assert abs(res.diagnostics.residual) <= 1e-9


def test_free_entry_ordering(defaults):
    res_np = free_entry_density(defaults, Regime.NO_PEERING)
    res_pc = free_entry_density(defaults, PERFCOMP)
    assert res_pc.n_star > res_np.n_star
    assert abs(res_np.n_star - oracles.FREE_ENTRY_NO_PEERING) <= math.ulp(oracles.FREE_ENTRY_NO_PEERING)
    assert abs(res_pc.n_star - oracles.FREE_ENTRY_PERFCOMP) < 1e-6


def test_free_entry_without_pollution_reports_no_crossing(defaults):
    with pytest.raises(NoCrossing):
        free_entry_density(dataclasses.replace(defaults, w=0.0), Regime.NO_PEERING)


def test_free_entry_deterministic(defaults):
    a = free_entry_density(defaults, Regime.NO_PEERING)
    b = free_entry_density(defaults, Regime.NO_PEERING)
    assert a == b


def _largest_downcrossing(grid, values):
    cells = np.flatnonzero((values[:-1] > 0) & (values[1:] <= 0))
    return (float(grid[cells[-1]]), float(grid[cells[-1] + 1])) if len(cells) else None


@pytest.mark.parametrize("regime", [Regime.NO_PEERING, PERFCOMP])
def test_free_entry_refinement_contract(defaults, regime):
    templates = [defaults] + [p for p, _ in random_draws(20, seed=31)]
    for t in templates:
        grid, roles, _ = _scan(t, regime)  # in Y = n d_max
        cell = _largest_downcrossing(grid / t.d_max, sum(roles))
        if cell is None:
            with pytest.raises(NoCrossing):
                free_entry_density(t, regime)
            continue
        res = free_entry_density(t, regime)
        assert abs(res.diagnostics.residual) <= RESIDUAL_TOL
        assert res.diagnostics.residual == res.total_eu_at_n_star
        assert cell[0] <= res.n_star <= cell[1]
        assert res.diagnostics.iterations <= MAX_ROUNDS


def test_free_entry_ignores_an_exact_zero_no_positive_total_precedes(defaults):
    # the default NO_PEERING scan ends below zero; an exact 0.0 planted at
    # its last point follows a negative total, so it is no downcrossing
    regime = Regime.NO_PEERING
    grid, roles, bracket = _scan(defaults, regime)
    values = sum(roles)
    assert values[-2] < 0 and values[-1] < 0
    planted = roles.copy()
    planted[:, -1] = 0.0
    plain = _drive(defaults, regime, _free_entry_steps(defaults, regime, (grid, roles, bracket)))
    got = _drive(defaults, regime, _free_entry_steps(defaults, regime, (grid, planted, bracket)))
    assert got.n_star == plain.n_star < grid[-1]


def test_club_refinement_contract(defaults):
    templates = [defaults] + [p for p, _ in random_draws(20, seed=31)]
    solved = 0
    for t in templates:
        try:
            res = club_optimal_density(t)
        except BoundaryOptimum:
            continue
        solved += 1
        # b - a, which DENSITY_TOL bounds in Y = n d_max
        assert 0 < res.diagnostics.residual <= DENSITY_TOL / t.d_max
        # at the top of the hump, totals DENSITY_TOL apart in Y differ by less
        # than their rounding: repeated evaluations within that distance of
        # n_star scatter by up to 3e-15 relative, so allow 1e-14 of the total
        slack = 1e-14 * abs(res.total_eu_at_n_star)
        step = DENSITY_TOL / t.d_max
        for neighbor in (res.n_star - step, res.n_star + step):
            assert res.total_eu_at_n_star >= total_eu(t, neighbor, PERFCOMP) - slack
    assert solved >= 10


def _round(xs, estimate, rungs, template=None):
    """The densities a refinement round evaluates, and what it returns when
    each density's roles are (n, 0, 0), as arrays: the densities and their
    (3, m) role columns."""
    steps = _refine_steps(template or make_params(), PERFCOMP,
                          [(x, x, (x, 0.0, 0.0)) for x in xs], estimate, rungs)
    new = np.array(next(steps))
    with pytest.raises(StopIteration) as stop:
        steps.send(np.vstack([new, 0 * new, 0 * new]))
    cell = stop.value.value
    assert all(total == sum(r) for _, total, r in cell)
    return new, (np.array([x for x, _, _ in cell]), np.array([r for _, _, r in cell]).T)


def test_refinement_round_places_a_ladder_around_the_estimate():
    # the outermost densities halfway from the estimate to each end
    new, (xs, rs) = _round([1.0, 3.0], 1.5, _FREE_ENTRY_RUNGS)
    assert len(new) == REFINE_POINTS and new[REFINE_POINTS // 2] == 1.5
    assert (new[0], new[-1]) == (1.25, 2.25)
    assert np.all(np.diff(xs) > 0) and sorted(xs.tolist()) == sorted([1.0, 3.0, *new])
    assert np.array_equal(rs[0], xs)
    # the club's known argmax is not evaluated again, even as the estimate
    new, (xs, rs) = _round([1.0, 1.5, 3.0], 1.5, _CLUB_RUNGS)
    assert len(new) == REFINE_POINTS - 1 and 1.5 not in new
    assert np.array_equal(rs[0], xs) and len(xs) == REFINE_POINTS + 2
    # an estimate an ulp from an end leaves no room for the ladder on its side
    new, _ = _round([1.0, 2.0], math.nextafter(2.0, 0), _FREE_ENTRY_RUNGS)
    assert np.all(np.diff(new) > 0) and 1.0 < new[0] and new[-1] < 2.0
    # in a cell of 2^20 ulps the three innermost rungs fall below the floor of
    # 6, 4 and 2 ulps of the upper end; the outer ones are exact powers of 2
    ulp = math.ulp(1.0)
    new, _ = _round([1.0, 1.0 + 2**20 * ulp], 1.0 + 2**19 * ulp, _FREE_ENTRY_RUNGS)
    ladder = [2**18, 2**14, 2**10, 2**6, 6, 4, 2]
    assert ((new - (1.0 + 2**19 * ulp)) / ulp).tolist() == [-k for k in ladder] + [0] + ladder[::-1]


def test_refinement_round_spaces_a_narrow_cell_evenly():
    # eight ulps hold no ladder of distinct densities: REFINE_POINTS evenly
    # spaced ones, repeats included, which the stall guard counts on
    a = 10.0
    cell = [a, a + 8 * math.ulp(a)]
    new, _ = _round(cell, a + 4 * math.ulp(a), _FREE_ENTRY_RUNGS)
    assert np.array_equal(new, np.linspace(*cell, REFINE_POINTS + 2)[1:-1])


def test_refinement_round_places_densities_that_replay():
    # at a d_max whose quotients do not all round back, a ladder's densities
    # and the evenly spaced ones of an 8-ulp cell are each the Y that its
    # n = Y/d_max gives back
    t = make_params(d_max=1.0442042321164045)
    ulp = math.ulp(7.0)
    for cell, estimate in (([10.0, 11.0], 10.3), ([7.0, 7.0 + 8 * ulp], 7.0 + 4 * ulp)):
        new, _ = _round(cell, estimate, _FREE_ENTRY_RUNGS, t)
        assert [y for y in new.tolist() if y / t.d_max * t.d_max != y] == []


def _replays_alike(ys, d_max):
    """_replayed_array on the array ys is _replayed on its floats, element for
    element, bit for bit, and no RuntimeWarning escapes it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _replayed_array(ys, d_max)
    assert [y.hex() for y in got.tolist()] == [y.hex() for y in _replayed(ys.tolist(), d_max)]
    return got


@settings(max_examples=300, deadline=None, database=None)
@given(st.floats(-300.0, 300.0), st.floats(2.0, BRACKET_CAP, exclude_min=True))
def test_replayed_array_replays_a_scan_grid_as_replayed_does(log_d_max, y_hi):
    _replays_alike(np.linspace(2.0, y_hi, GRID_POINTS), 10.0**log_d_max)


def test_replayed_array_keeps_densities_whose_quotient_overflows_or_is_zero():
    # Y/d_max overflows from Y = 1.8e308 * d_max: the grid's upper part keeps Y
    grid = np.linspace(2.0, BRACKET_CAP, GRID_POINTS)
    got = _replays_alike(grid, 1e-304)
    assert got[-1] == BRACKET_CAP and BRACKET_CAP / 1e-304 == math.inf > 2.0 / 1e-304
    # Y/d_max underflows to 0 at tiny Y: those keep Y, and Y = 0 stays 0
    tiny = np.linspace(0.0, 1e-300, GRID_POINTS)
    got = _replays_alike(tiny, 1e30)
    assert got[1] == tiny[1] and tiny[1].item() / 1e30 == 0.0 and got[0] == 0.0


def test_free_entry_stall_guard_raises(defaults, utility_calls, monkeypatch):
    # no |total| is below a negative RESIDUAL_TOL, so the guard must end the
    # k-section (RESIDUAL_TOL=0 would be met by an exact 0.0 total, which the
    # default template reaches at n = 698.1395333957213, 1 ulp from the root)
    monkeypatch.setattr(meshecon.equilibrium, "RESIDUAL_TOL", -1.0)
    with pytest.raises(NumericsError, match="stalled"):
        free_entry_density(defaults, PERFCOMP)
    rounds = [d for _, d in utility_calls if len(d) == REFINE_POINTS]
    assert len(rounds) == MAX_ROUNDS


def test_club_refines_past_thirty_rounds_on_a_flat_hump():
    # a pollution cost of 3e-18 leaves the hump near Y = 9e4 so flat that the
    # parabola's vertex narrows the cell little per round: it reaches
    # DENSITY_TOL in 33 rounds, which the round limit must allow
    club = club_optimal_density(make_params(v=200.0, u=1.0, w=3e-18, z=0.75, a=64.0, beta=3.9))
    assert 30 < club.diagnostics.iterations < MAX_ROUNDS
    assert club.diagnostics.residual <= DENSITY_TOL


def test_free_entry_stall_maps_to_cli_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(meshecon.equilibrium, "RESIDUAL_TOL", -1.0)
    assert main(["equilibrium"]) == 3
    assert "stalled" in capsys.readouterr().err


@pytest.mark.parametrize("regime", list(Regime))
def test_batched_evaluation_bit_identical_to_single(defaults, regime):
    # every Y = n d_max the solvers evaluate in a batch (scan grid, bracket
    # doublings, scaling densities) must give exactly the roles of a
    # one-density evaluation, or signs could disagree between the scan and
    # the refinement; utility_arrays likewise at the densities n = Y / d_max
    def single(t, y):
        return _roles(t, regime, np.array([y]))[:, 0]

    for t in [defaults] + [p for p, _ in random_draws(3, seed=13)]:
        y_hi = 4.0  # scalar reference for the doubling rule
        while sum(single(t, y_hi)) >= 0 and y_hi < BRACKET_CAP:
            y_hi = min(2 * y_hi, BRACKET_CAP)
        assert default_bracket(t, regime) == (2 / t.d_max, y_hi / t.d_max)
        grid, scanned, _ = _scan(t, regime)
        doublings = [4.0]
        while doublings[-1] < BRACKET_CAP:
            doublings.append(min(2 * doublings[-1], BRACKET_CAP))
        # the relayed annulus opens at Y = 2
        relay_edge = [2.0, math.nextafter(2.0, 0), math.nextafter(2.0, math.inf),
                      2 - 1e-9, 2 + 1e-9]
        assert all(len(r) == 0 for r in utility_arrays(t, regime, []))
        for ys in (grid, doublings, _SCALING_Y_VALUES, relay_edge):
            batch = _roles(t, regime, np.asarray(ys))
            if ys is grid:
                assert np.array_equal(batch, scanned)
            densities = [y / t.d_max for y in ys]
            roles = utility_arrays(t, regime, densities)
            assert roles.shape == (3, len(ys))
            for k, n in enumerate(densities):
                assert batch[:, k].tolist() == single(t, ys[k]).tolist()
                one = regime_utilities(t.with_n(float(n)), regime)
                got = tuple(float(r[k]) for r in roles)
                assert got == (one.eu_originator, one.eu_intermediate, one.eu_outsider)
                assert sum(got) == one.total


def test_results_report_the_default_bracket(defaults):
    # the scan grid's ends are the bracket, in every result and finding;
    # w=0 templates have no crossing and a club optimum on the high edge
    templates = [defaults, dataclasses.replace(defaults, w=0.0)]
    templates += [p for p, _ in random_draws(40, seed=5)]
    seen = {"solved": 0, "no_crossing": 0}

    def check(template, regime, solve):
        bracket = default_bracket(template, regime)
        try:
            res = solve()
        except NoCrossing as exc:
            seen["no_crossing"] += 1
            assert (exc.regime, exc.n_lo, exc.n_hi) == (regime, *bracket)
            return
        except BoundaryOptimum:
            return
        if isinstance(res, str):  # a compare_regimes finding marker
            return
        seen["solved"] += 1
        assert res.regime is regime
        assert (res.diagnostics.n_lo, res.diagnostics.n_hi) == bracket
        assert res.diagnostics.to_json_dict()["grid_points"] == GRID_POINTS

    for t in templates:
        for regime in (Regime.NO_PEERING, PERFCOMP):
            check(t, regime, lambda: free_entry_density(t, regime))
        check(t, PERFCOMP, lambda: club_optimal_density(t))
        report = compare_regimes(t)
        check(t, Regime.NO_PEERING, lambda: report.free_entry_no_peering)
        check(t, PERFCOMP, lambda: report.free_entry_perfcomp)
        check(t, PERFCOMP, lambda: report.club)
    assert seen["solved"] >= 100 and seen["no_crossing"] >= 2


def test_result_fields_are_its_utilities(defaults):
    for res in compare_regimes(defaults).solved_points():
        assert [f.name for f in dataclasses.fields(res)] == ["kind", "utilities",
                                                             "diagnostics"]
        u = res.utilities
        assert (res.regime, res.n_star, res.total_eu_at_n_star) == (
            u.regime, u.params.n, u.total)
        blob = res.to_json_dict()
        assert (blob["regime"], blob["n_star"], blob["total_eu_at_n_star"]) == (
            u.regime.value, u.params.n, u.total)


def test_default_bracket_contains_root(defaults):
    n_lo, n_hi = default_bracket(defaults, Regime.NO_PEERING)
    assert n_lo == 2.0
    assert n_lo < oracles.FREE_ENTRY_NO_PEERING < n_hi


def test_bracket_checks_only_the_doublings_up_to_its_end(defaults):
    # at w = 1e300 the NO_PEERING total is negative from Y = 4 up, and its
    # roles overflow from Y = 16384 up, past the bracket's end
    t = dataclasses.replace(defaults, w=1e300)
    assert not np.isfinite(_roles(t, Regime.NO_PEERING, np.array([16384.0]))).all()
    assert default_bracket(t, Regime.NO_PEERING) == (2.0, 4.0)
    with pytest.raises(NoCrossing):
        free_entry_density(t, Regime.NO_PEERING)
    assert compare_regimes(t).free_entry_no_peering == "NO_CROSSING"


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


def test_club_optimum_within_half_the_tolerance_of_the_argmax_oracle(defaults):
    n_star, _ = oracles.club_argmax_mp()
    assert abs(club_optimal_density(defaults).n_star - n_star) <= DENSITY_TOL / 2


def test_club_optimum_beats_grid_neighbors(defaults):
    res = club_optimal_density(defaults)
    br = res.diagnostics
    grid = np.linspace(br.n_lo, br.n_hi, GRID_POINTS)
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


def test_club_total_saturating_before_the_bracket_top_is_a_boundary_optimum():
    # w = 0 and a cost of about 5e-312: the total reaches v = 10 inside the
    # bracket and stays there, so the grid's first maximum is no interior optimum
    p = make_params(w=0.0, a=5e-312, beta=1.01)
    assert [total_eu(p, n, PERFCOMP) for n in (40.0, 1e3, 1e4)] == [10.0] * 3
    with pytest.raises(BoundaryOptimum) as err:
        club_optimal_density(p)
    assert (err.value.side, err.value.n_boundary, err.value.value) == ("high", BRACKET_CAP, 10.0)


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


def test_scaling_slope_matches_numpy_polyfit(defaults):
    # the closed-form least-squares slope against numpy's fit of the same points
    fits = 0
    for t in [defaults] + [p for p, _ in random_draws(40, seed=7)]:
        ns = [y / t.d_max for y in _SCALING_Y_VALUES]
        for regime in (Regime.NO_PEERING, PERFCOMP):
            try:
                got = congestion_scaling_exponent(t, regime, ns)
            except ParamError:
                continue
            outs = utility_arrays(t, regime, ns)[2]
            fits += 1
            want = np.polyfit(np.log(ns), np.log(np.abs(outs)), 1)[0]
            assert got == pytest.approx(want, rel=1e-14, abs=0)
    assert fits >= 60


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


def test_scaling_refuses_demand_below_the_saturation_bound(defaults):
    # z^N(Y = 10) = 0.05, so P = 0.95 at the lowest density: above 0.9, but
    # not above SCALING_MIN_P = 0.99
    t = dataclasses.replace(defaults, z=0.05 ** (1 / (100 * math.pi - 1)))
    with pytest.raises(ParamError, match="unsaturated"):
        congestion_scaling_exponent(t, Regime.NO_PEERING, [10, 20, 40, 80])


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


def test_leapfrog_profile_length_depends_only_on_relay_reach(defaults):
    # n * (3/n) rounds below 3 at about 5 % of club densities; the profile
    # must not lose its first row to that rounding
    rounded_below = 0
    for template in [defaults] + [p for p, _ in random_draws(40, seed=7)]:
        report = compare_regimes(template)
        if not isinstance(report.club, EquilibriumResult):
            continue
        n, d_max = report.club.n_star, template.d_max
        rounded_below += n * (3 / n) < 3
        assert len(report.leapfrog_profile) == (12 if n * d_max > 3 else 0)
        ds = [d for d, _, _ in report.leapfrog_profile]
        assert ds == sorted(ds) and all(n * d - 2 >= 1 for d in ds)
        p_club = template.with_n(n)
        assert list(report.leapfrog_profile) == [
            (d, leapfrog_threshold(p_club, d), competitive_price(p_club, d)) for d in ds
        ]
        if ds:
            assert ds[-1] == d_max
    assert rounded_below > 0


def test_compare_regimes_shares_one_competitive_scan(defaults, utility_calls):
    # the calls evaluate Y = n d_max; d_max is 1 on the default template
    doublings = [4.0]
    while doublings[-1] < BRACKET_CAP:
        doublings.append(min(2 * doublings[-1], BRACKET_CAP))
    scaling = list(_SCALING_Y_VALUES)
    grid = np.linspace(*default_bracket(defaults, PERFCOMP), GRID_POINTS)
    utility_calls.clear()
    report = compare_regimes(defaults)
    pc = [d for r, d in utility_calls if r is PERFCOMP]
    # the scaling densities ride in each regime's one doubling call, and
    # without peering free entry's one call is that call, with Y = 2 and the
    # closed-form root
    y_star = report.free_entry_no_peering.n_star
    for regime, batch in ((Regime.NO_PEERING, doublings + [2.0, y_star] + scaling),
                          (PERFCOMP, doublings + scaling)):
        assert sum(np.array_equal(d, batch) for r, d in utility_calls if r is regime) == 1
    assert [r for r, _ in utility_calls].count(Regime.NO_PEERING) == 1
    # the doubling call has evaluated the grid's last density, the bracket's end
    assert sum(np.array_equal(d, grid[:-1]) for d in pc) == 1
    # free entry takes its result from the round that found n*, and the club
    # reports the best density a round evaluated: no call evaluates one density
    assert not [d for _, d in utility_calls if len(d) == 1]
    assert sum(report.club.n_star in d.tolist() for d in pc) == 1
    # 9 when the club reported its last cell's midpoint from a call of its
    # own, 12 with free entry's scan and rounds without peering, 20 with
    # evenly spaced rounds, 31 when the solvers ran one after another
    assert len(utility_calls) == 8


def test_compare_regimes_evaluates_each_density_once_in_few_calls(defaults, utility_calls):
    # the doubling call evaluates the scan grid's last density, and the club
    # carries its argmax from round to round and reports the last one
    calls, evaluated = [], []
    for t in [defaults] + [p for p, _ in random_draws(20, seed=31)]:
        utility_calls.clear()
        compare_regimes(t)
        calls.append(len(utility_calls))
        evaluated.append(sum(len(d) for _, d in utility_calls))
        for regime in (Regime.NO_PEERING, PERFCOMP):
            densities = np.concatenate([d for r, d in utility_calls if r is regime]).tolist()
            assert len(set(densities)) == len(densities)
    assert np.mean(calls) <= 6.4 and np.mean(evaluated) <= 315


def test_compare_regimes_builds_one_basis_per_evaluation_call(defaults, monkeypatch):
    # every step's density goes through _lockstep: no basis is built outside
    # an evaluation call, the NO_PEERING root's v' included
    counts = {"basis": 0, "roles": 0}

    def counted(name, real):
        def spy(*args):
            counts[name] += 1
            return real(*args)
        return spy

    basis_spy = counted("basis", meshecon.regimes._basis)
    monkeypatch.setattr(meshecon.regimes, "_basis", basis_spy)
    monkeypatch.setattr(meshecon.equilibrium, "_basis", basis_spy, raising=False)
    monkeypatch.setattr(meshecon.equilibrium, "_roles", counted("roles", _roles))
    for i, t in enumerate([defaults] + [p for p, _ in random_draws(20, seed=31)]):
        counts.update(basis=0, roles=0)
        compare_regimes(t)
        assert counts["basis"] == counts["roles"]
        if i == 0:
            assert counts == {"basis": 8, "roles": 8}  # 9 bases when v' took one


def test_club_roles_equal_a_one_density_call_at_its_density(defaults, utility_calls):
    # the club's density was evaluated in a batch, which moves no bit: its
    # roles are those of a call on its density Y* alone, which utility_arrays
    # makes at n*, since n* d_max rounds back to Y*
    solved = round_trips = 0
    for t in [defaults] + [p for p, _ in random_draws(20, seed=31)]:
        utility_calls.clear()
        club = compare_regimes(t).club
        if not isinstance(club, EquilibriumResult):
            continue
        solved += 1
        (y_star,) = {y for r, d in utility_calls if r is PERFCOMP for y in d.tolist()
                     if y / t.d_max == club.n_star}
        alone = _roles(t, PERFCOMP, np.array([y_star]))[:, 0].tolist()
        u = club.utilities
        assert [u.eu_originator, u.eu_intermediate, u.eu_outsider] == alone
        if club.n_star * t.d_max == y_star:
            round_trips += 1
            assert utility_arrays(t, PERFCOMP, [club.n_star])[:, 0].tolist() == alone
    assert solved >= 15 and round_trips == solved


def test_steps_place_only_densities_that_replay(defaults, utility_calls):
    # besides the bracket's doublings, its lower end Y = 2 and the scaling
    # fit's fixed Y, every density a comparison evaluates is the Y that its
    # n = Y/d_max gives back
    fixed = {*_DOUBLINGS, 2.0, *_SCALING_Y_VALUES}
    for t in [defaults] + [p for p, _ in random_draws(20, seed=31)]:
        utility_calls.clear()
        compare_regimes(t)
        ys = {y for _, d in utility_calls for y in d.tolist()} - fixed
        assert [y for y in ys if y / t.d_max * t.d_max != y] == []


@pytest.mark.parametrize("seed", [31, 7, 11])
def test_reported_densities_replay(defaults, seed):
    # every density a step places is one that its n = Y/d_max gives back, so
    # the roles at a printed n* are the reported ones, bit for bit
    def bits(u):
        return [x.hex() for x in (u.eu_originator, u.eu_intermediate, u.eu_outsider, u.total)]

    solved = 0
    for t in [defaults] + [p for p, _ in random_draws(60, seed=seed)]:
        for res in compare_regimes(t).solved_points():
            solved += 1
            again = regime_utilities(res.utilities.params, res.regime)
            assert bits(again) == bits(res.utilities)
            assert res.total_eu_at_n_star.hex() == again.total.hex()
    assert solved >= 150


def test_club_reports_the_best_total_of_its_last_cell(defaults, utility_calls):
    # the last cell is the club's density and the nearest densities it
    # evaluated on either side; no total of the three beats the reported one
    solved = 0
    for seed in (31, 7, 11):
        for t in [defaults] + [p for p, _ in random_draws(60, seed=seed)]:
            utility_calls.clear()
            try:
                club = club_optimal_density(t)
            except BoundaryOptimum:
                continue
            solved += 1
            ys = sorted({y for _, d in utility_calls for y in d.tolist()})
            (i,) = [i for i, y in enumerate(ys) if y / t.d_max == club.n_star]
            for y in ys[i - 1 : i + 2]:
                total = sum(_roles(t, PERFCOMP, np.array([y]))[:, 0].tolist())
                assert club.total_eu_at_n_star >= total
    assert solved >= 150


def test_free_entry_takes_at_most_three_rounds(defaults):
    # a regula-falsi estimate lands close enough to the root that a rung of
    # the ladder around it meets RESIDUAL_TOL within three rounds
    solved = 0
    for t in [defaults] + [p for p, _ in random_draws(20, seed=31)]:
        for regime in (Regime.NO_PEERING, PERFCOMP):
            try:
                res = free_entry_density(t, regime)
            except NoCrossing:
                continue
            solved += 1
            assert res.diagnostics.iterations <= 3
    assert solved >= 30


def test_equilibrium_command_validates_once(monkeypatch, capsys):
    calls = []

    def spy(params):
        calls.append(params)
        return validate(params)

    monkeypatch.setattr(meshecon.cli, "validate", spy)
    monkeypatch.setattr(meshecon.equilibrium, "validate", spy)
    assert main(["equilibrium"]) == 0
    # compare_regimes; not once more in cmd_equilibrium or per solver
    assert len(calls) == 1


def _sequential_compare(template):
    """compare_regimes composed from the public solvers, run one after
    another, each with its own evaluations."""
    validate(template)

    def attempt(solve):
        try:
            return solve()
        except NoCrossing:
            return "NO_CROSSING"
        except BoundaryOptimum as exc:
            return f"BOUNDARY_OPTIMUM@{exc.n_boundary!r}"

    fe_np = attempt(lambda: free_entry_density(template, Regime.NO_PEERING))
    fe_pc = attempt(lambda: free_entry_density(template, PERFCOMP))
    club = attempt(lambda: club_optimal_density(template))
    profile = _leapfrog_profile(template, club)

    def scaling(regime):
        # congestion_scaling_exponent at the densities whose Y are exactly the
        # comparison's: Y / d_max * d_max can miss Y by an ulp
        try:
            fit = _scaling_fit(template, _SCALING_Y_VALUES)
            return _drive(template, regime, _scaling_steps(template, regime, fit))
        except ParamError as exc:
            return f"UNDEFINED ({exc})"

    return RegimeComparison(template, fe_np, fe_pc, club, scaling(Regime.NO_PEERING),
                            scaling(PERFCOMP), profile)


def _report_texts(report):
    """The equilibrium command's JSON and CSV text for report."""
    solved = [res.utilities for res in report.solved_points()]
    return tuple(meshecon.cli._report_text(fmt, solved, report.to_json_dict)
                 for fmt in ("json", "csv"))


def _comparison_bytes(compare, template):
    try:
        report = compare(template)
    except (NumericsError, ParamError) as exc:
        return type(exc), str(exc)
    return _report_texts(report)


def test_compare_regimes_matches_sequential_solvers(defaults):
    # the exit-3 template: n = Y/d_max overflows at every Y the solvers reach
    overflow = dataclasses.replace(defaults, n=1.79e308, d_max=6e-309,
                                   cost=dataclasses.replace(defaults.cost, beta=1.01))
    templates = [defaults, dataclasses.replace(defaults, w=0.0), overflow]
    templates += [p for p, _ in random_draws(40, seed=7)]
    templates += [p for p, _ in random_draws(150, seed=7, require_relay=False)]
    kinds = {"solved": 0, "findings": 0, "errors": 0}
    for t in templates:
        got = _comparison_bytes(compare_regimes, t)
        assert got == _comparison_bytes(_sequential_compare, t)
        if isinstance(got[0], type):
            kinds["errors"] += 1
        else:
            kinds["findings" if "NO_CROSSING" in got[0] or "BOUNDARY" in got[0] else "solved"] += 1
    assert kinds["solved"] >= 100 and kinds["findings"] >= 2 and kinds["errors"] == 1


def test_densities_whose_n_overflows_raise_numerics_errors(defaults):
    # Y = n d_max = 1.074 and every Y the solvers reach have finite roles, but
    # n = Y/d_max overflows at the bracket's ends, so every solved density,
    # finding and bracket raises the NumericsError that names the lower end
    overflow = dataclasses.replace(defaults, n=1.79e308, d_max=6e-309,
                                   cost=dataclasses.replace(defaults.cost, beta=1.01))
    validate(overflow)
    for regime in Regime:
        assert np.isfinite(utility_arrays(overflow, regime, [overflow.n])).all()
    message = r"^the bracket end at Y=2\.0 is not finite: n = Y/d_max = inf with d_max=6e-309$"
    for t in (overflow, dataclasses.replace(overflow, w=0.0)):  # w = 0 has no crossing
        for solve in (lambda: default_bracket(t, PERFCOMP), lambda: club_optimal_density(t),
                      lambda: free_entry_density(t, Regime.NO_PEERING),
                      lambda: free_entry_density(t, PERFCOMP)):
            with pytest.raises(NumericsError, match=message):
                solve()


def _club_first_round(template):
    """The densities of the club's first refinement round, from its steps."""
    return next(_club_steps(template, PERFCOMP, _scan(template, PERFCOMP)))


@pytest.mark.parametrize("fe_pc_fails", [False, True])
def test_compare_regimes_raises_errors_in_sequential_order(defaults, monkeypatch, capsys,
                                                           fe_pc_fails):
    # the club's first refinement round and, in the second case, free entry's
    # second: in lockstep the club's failure comes first, in a run one solver
    # after another free entry's does
    grid, _, _ = _scan(defaults, PERFCOMP)
    club_round = _club_first_round(defaults)
    assert not set(club_round) & set(grid.tolist())  # the scan evaluates none
    planted = set(club_round)
    fe_rounds = []

    def record(template, regime, n):
        fe_rounds.append(n.copy())
        return _roles(template, regime, n)

    monkeypatch.setattr(meshecon.equilibrium, "_roles", record)
    free_entry_density(defaults, PERFCOMP)
    fe_rounds = [d for d in fe_rounds if len(d) == REFINE_POINTS]
    assert len(fe_rounds) >= 2 and not planted & set(np.concatenate(fe_rounds).tolist())
    first_failure = club_round[0]
    if fe_pc_fails:
        planted |= set(fe_rounds[1].tolist())
        first_failure = fe_rounds[1][0]

    def planted_nan(template, regime, n):
        # a non-finite intermediate role at each planted density
        roles = _roles(template, regime, n)
        if regime is PERFCOMP:
            roles[1, [x in planted for x in n.tolist()]] = np.nan
        return roles

    monkeypatch.setattr(meshecon.equilibrium, "_roles", planted_nan)
    expected = _comparison_bytes(_sequential_compare, defaults)
    assert expected[0] is NumericsError
    assert expected[1] == f"{PERFCOMP.value} utility is not finite at n={first_failure}"
    assert _comparison_bytes(compare_regimes, defaults) == expected

    monkeypatch.setattr(meshecon.cli, "compare_regimes", _sequential_compare)
    sequential = main(["equilibrium"]), capsys.readouterr()
    monkeypatch.setattr(meshecon.cli, "compare_regimes", compare_regimes)
    assert (main(["equilibrium"]), capsys.readouterr()) == sequential
    assert sequential[0] == 3


def test_a_failing_merged_round_is_not_evaluated_again(defaults, monkeypatch):
    # a NaN at one density of the club's first refinement round, which is
    # evaluated together with free entry's first round: the club meets the
    # error its own evaluation raises, and no density of that round is
    # evaluated again
    grid, _, _ = _scan(defaults, PERFCOMP)
    planted = _club_first_round(defaults)[0]
    assert planted not in grid
    calls = []

    def planted_nan(template, regime, n):
        calls.append((regime, n.tolist()))
        roles = _roles(template, regime, n)
        if regime is PERFCOMP:
            roles[1, n == planted] = np.nan
        return roles

    monkeypatch.setattr(meshecon.equilibrium, "_roles", planted_nan)
    expected = _comparison_bytes(_sequential_compare, defaults)
    assert expected == (NumericsError, f"{PERFCOMP.value} utility is not finite at n={planted}")
    calls.clear()
    assert _comparison_bytes(compare_regimes, defaults) == expected
    (at,) = [i for i, (r, n) in enumerate(calls) if r is PERFCOMP and planted in n]
    failing = calls[at][1]
    assert len(failing) == 2 * REFINE_POINTS  # free entry's round and the club's
    assert not set(failing) & {x for r, n in calls[at + 1:] if r is PERFCOMP for x in n}


# densities, as (regime, Y), at which a step routine checks the role columns
# it reads, beyond the bracket's doublings and the club and free-entry rounds
_CHECK_SITES = {
    "perfcomp scan": lambda t: (PERFCOMP, float(_scan(t, PERFCOMP)[0][5])),
    "club density": lambda t: (PERFCOMP, compare_regimes(t).club.n_star * t.d_max),
    "no-peering scaling": lambda t: (Regime.NO_PEERING, _SCALING_Y_VALUES[1]),
    "perfcomp scaling": lambda t: (PERFCOMP, _SCALING_Y_VALUES[2]),
    "no-peering root": lambda t: (Regime.NO_PEERING,
                                  compare_regimes(t).free_entry_no_peering.n_star * t.d_max),
}


@pytest.mark.parametrize("site", list(_CHECK_SITES))
def test_each_check_site_raises_as_in_a_sequential_run(defaults, monkeypatch, capsys, site):
    # a NaN role at one density the comparison evaluates once: it raises the
    # error of a run of the public solvers one after another, and the
    # command exits 3 with it (d_max is 1, so n = Y)
    regime, planted = _CHECK_SITES[site](defaults)
    calls = []

    def planted_nan(template, r, y):
        calls.append((r, y.tolist()))
        roles = _roles(template, r, y)
        if r is regime:
            roles[1, y == planted] = np.nan
        return roles

    monkeypatch.setattr(meshecon.equilibrium, "_roles", planted_nan)
    expected = _comparison_bytes(_sequential_compare, defaults)
    assert expected == (NumericsError, f"{regime.value} utility is not finite at n={planted}")
    calls.clear()
    assert _comparison_bytes(compare_regimes, defaults) == expected
    assert sum(planted in y for r, y in calls if r is regime) == 1
    assert main(["equilibrium"]) == 3
    assert capsys.readouterr().err == f"numeric failure: {expected[1]}\n"


def test_compare_regimes_json_round_trip(defaults):
    report = compare_regimes(defaults)
    json_text, csv_text = _report_texts(report)
    assert json.loads(json_text) == report.to_json_dict()
    rows = list(csv.reader(io.StringIO(csv_text)))
    assert rows[0] == ["regime", "n", "eu_orig", "eu_int", "eu_out", "total"]
    assert len(rows) == 4  # header + three solved points


def test_compare_regimes_markers_without_pollution(defaults):
    report = compare_regimes(dataclasses.replace(defaults, w=0.0))
    assert report.has_findings()
    assert report.free_entry_no_peering == "NO_CROSSING"
    assert report.free_entry_perfcomp == "NO_CROSSING"
    assert report.club.startswith("BOUNDARY_OPTIMUM")
    assert report.scaling_no_peering.startswith("UNDEFINED")
    blob = json.loads(_report_texts(report)[0])
    assert blob["free_entry_no_peering"] == "NO_CROSSING"

import csv
import dataclasses
import io
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from meshecon import (
    Choice,
    NumericsError,
    ParamError,
    Regime,
    competitive_price,
    hop_distance,
    integrate,
    intermediate_best_response,
    intermediate_count,
    leapfrog_profitable,
    leapfrog_threshold,
    nodes_within,
    originator_choice,
    originator_savings,
    price_bounds,
    regime_utilities,
    social_cost,
    utility_arrays,
    validate,
    value_added,
)
import meshecon.cli
import meshecon.regimes
from meshecon.equilibrium import BRACKET_CAP
from conftest import make_params, random_draws
import oracles


# --------------------------------------------------------------------------
# integrate


def test_integrate_polynomials():
    assert integrate(lambda x: 2 * x, 0, 1) == pytest.approx(1.0, abs=1e-9)
    assert integrate(lambda x: x * x, 0, 1) == pytest.approx(1 / 3, abs=1e-9)
    assert integrate(lambda x: 1.0, 2, 2) == 0.0


def test_integrate_pdf_times_cost_matches_midpoint_oracle(defaults):
    oracle = oracles.midpoint(lambda x: 2 * x * x * x, 0, 1)  # pdf * cost, defaults
    assert oracle == pytest.approx(0.5, abs=1e-11)
    value = integrate(lambda x: (2 * x) * defaults.cost(x), 0, 1)
    assert value == pytest.approx(oracle, abs=1e-9)


def test_integrate_input_errors():
    with pytest.raises(ParamError):
        integrate(lambda x: x, 1, 0)
    with pytest.raises(ParamError):
        integrate(lambda x: x, 0, 1, tol=0.0)
    with pytest.raises(NumericsError):
        integrate(lambda x: math.nan, 0, 1)
    with pytest.raises(NumericsError):
        integrate(lambda x: 1 / (x - 0.5) if x != 0.5 else math.inf, 0.5, 1)


# --------------------------------------------------------------------------
# expected utilities


def test_eu_no_peering_defaults_pinned(defaults):
    got = regime_utilities(defaults, Regime.NO_PEERING)
    assert got.eu_originator == pytest.approx(oracles.EU_ORIG_NO_PEERING, abs=1e-9)
    assert got.eu_intermediate == 0.0
    assert got.eu_outsider == pytest.approx(oracles.EU_OUT_NO_PEERING, abs=1e-9)
    assert got.total == got.eu_originator + got.eu_intermediate + got.eu_outsider
    orig, inter, out = oracles.eu_oracle("NO_PEERING")
    assert got.eu_originator == pytest.approx(orig, abs=1e-8)
    assert got.eu_outsider == pytest.approx(out, abs=1e-8)


def test_eu_no_peering_zero_pollution_and_zero_surplus(defaults):
    no_pollution = regime_utilities(dataclasses.replace(defaults, w=0.0), Regime.NO_PEERING)
    assert no_pollution.eu_outsider == 0.0
    # zero-surplus construction: v equals the mean connection cost; bypasses
    # validation on purpose
    boundary = regime_utilities(dataclasses.replace(defaults, v=0.5), Regime.NO_PEERING)
    assert boundary.eu_originator == pytest.approx(0.0, abs=1e-9)


def test_eu_no_transfers_defaults_match_oracle(defaults):
    got = regime_utilities(defaults, Regime.PEERING_NO_TRANSFERS)
    orig, inter, out = oracles.eu_oracle("NOTRANS")
    assert got.eu_originator == pytest.approx(orig, abs=1e-8)
    assert got.eu_intermediate == pytest.approx(inter, abs=1e-8)
    assert got.eu_outsider == pytest.approx(out, abs=1e-8)


def test_eu_no_transfers_originator_dominates_direct(defaults):
    direct = regime_utilities(defaults, Regime.NO_PEERING).eu_originator
    relayed = regime_utilities(defaults, Regime.PEERING_NO_TRANSFERS).eu_originator
    assert relayed > direct  # c(D(x)) <= c(x) pointwise


def test_eu_no_transfers_zero_pollution(defaults):
    got = regime_utilities(dataclasses.replace(defaults, w=0.0), Regime.PEERING_NO_TRANSFERS)
    assert got.eu_outsider == 0.0


def test_eu_perfcomp_defaults_match_oracle(defaults):
    got = regime_utilities(defaults, Regime.PEERING_PERFECT_COMPETITION)
    orig, inter, out = oracles.eu_oracle("PERFCOMP")
    assert got.eu_originator == pytest.approx(orig, abs=1e-8)
    assert got.eu_intermediate == pytest.approx(inter, abs=1e-8)
    assert got.eu_outsider == pytest.approx(out, abs=1e-8)


def test_eu_perfcomp_zero_pollution_zeroes_both_roles(defaults):
    got = regime_utilities(dataclasses.replace(defaults, w=0.0), Regime.PEERING_PERFECT_COMPETITION)
    assert got.eu_intermediate == 0.0
    assert got.eu_outsider == 0.0


def test_eu_perfcomp_outsider_nonpositive_in_sparse_networks():
    # at n*d_max barely above 1 most of the range has N(x) < 1; flooring the
    # receiver-exempt circle count at zero keeps outsiders from "gaining"
    p = make_params(n=1.05, d_max=1.0, v=20.0)
    validate_ok = p.v - p.u > p.cost(p.d_max)
    assert validate_ok
    got = regime_utilities(p, Regime.PEERING_PERFECT_COMPETITION)
    assert got.eu_outsider <= 0.0


def test_eu_perfcomp_originator_below_no_transfers(defaults):
    # the originator now pays I * p on top of its own hop
    free_ride = regime_utilities(defaults, Regime.PEERING_NO_TRANSFERS).eu_originator
    paying = regime_utilities(defaults, Regime.PEERING_PERFECT_COMPETITION).eu_originator
    assert paying < free_ride


def test_regime_utilities_identities():
    for p, _ in random_draws(12, seed=5):
        for regime in Regime:
            got = regime_utilities(p, regime)
            assert got.total == got.eu_originator + got.eu_intermediate + got.eu_outsider
            assert math.isfinite(got.total)
            assert got.eu_outsider <= 0.0
            if regime is Regime.NO_PEERING:
                assert got.eu_intermediate == 0.0


ORACLE_NAMES = {
    Regime.NO_PEERING: "NO_PEERING",
    Regime.PEERING_NO_TRANSFERS: "NOTRANS",
    Regime.PEERING_PERFECT_COMPETITION: "PERFCOMP",
}


@pytest.mark.parametrize("n_d_max", [
    1.5, 2.0,                              # no relay piece
    1.001 / math.sqrt(math.pi),            # just past each cut of the rule
    1.001 * math.sqrt(2 / math.pi),
    1.001 * 2,
    2000.0,
])
@pytest.mark.parametrize("regime", list(Regime))
def test_regime_utilities_match_midpoint_oracle_beyond_reference(regime, n_d_max):
    # off-default template, unvalidated (n*d_max < 1 breaks validate(), and
    # neither side calls it). The relative allowance covers the congestion term near n = 2000/d_max
    # (about -2e5), where the 1e6-sample midpoint oracle itself errs by
    # about 5e-13 relative
    kw = dict(d_max=0.7, v=10.0, w=0.03, z=0.95, a=2.0, beta=2.6)
    n = n_d_max / kw["d_max"]
    got = regime_utilities(make_params(n=n, **kw), regime)
    want = oracles.eu_oracle(ORACLE_NAMES[regime], n=n, **kw)
    roles = (got.eu_originator, got.eu_intermediate, got.eu_outsider)
    assert roles == pytest.approx(want, abs=1e-8, rel=1e-12)


PEERING = {Regime.PEERING_NO_TRANSFERS: "NOTRANS", Regime.PEERING_PERFECT_COMPETITION: "PERFCOMP"}


def _roles(p):
    return (p.eu_originator, p.eu_intermediate, p.eu_outsider)


@pytest.mark.parametrize("regime", list(PEERING))
def test_peering_intermediate_exactly_zero_without_relays(regime):
    # n d_max <= 2: no connection in range is long enough to need a relay
    d_max = 0.5
    densities = np.array([1.0001, 1.2, 1.5, 1.9, 1.999999, 2.0]) / d_max
    assert (densities * d_max <= 2.0).all()
    inter = utility_arrays(make_params(d_max=d_max, v=20.0), regime, densities)[1]
    assert [x == 0.0 for x in inter] == [True] * len(densities)


@pytest.mark.parametrize("regime", list(Regime))
def test_roles_continuous_where_the_relayed_annulus_opens(regime):
    # at Y = n d_max = 2 and an ulp to each side, on random templates moved
    # to d_max = 1 with the same c(d_max), so that n is Y: each role's step
    # there matches its slope over Y = 2 +- 1e-6 to within 4 ulps of the
    # largest role (2.8 at worst over 300 templates; the steps themselves
    # reach 6 ulps where P is steep)
    edge = [math.nextafter(2.0, 0), 2.0, math.nextafter(2.0, 3)]
    for p, _ in random_draws(100, seed=11, require_relay=False):
        t = dataclasses.replace(p, n=p.n * p.d_max, d_max=1.0,
                                cost=dataclasses.replace(p.cost, a=p.cost(p.d_max)))
        roles = utility_arrays(t, regime, edge + [2 - 1e-6, 2 + 1e-6])
        slope = (roles[:, 4] - roles[:, 3]) / 2e-6
        steps = np.diff(roles[:, :3], axis=1) - np.outer(slope, np.diff(edge))
        assert np.abs(steps).max() <= 4 * math.ulp(np.abs(roles[:, :3]).max())


@pytest.mark.parametrize("beta", [1.0001, 12.0, 200.0])
@pytest.mark.parametrize("regime", list(PEERING))
def test_peering_roles_finite_and_accurate_at_extreme_beta(regime, beta):
    # a = d_max^-beta makes c(d_max) = 1, so relay costs weigh in near
    # n d_max = 2; the annulus integrand stays bounded by c's value at D = 2/n
    d_max = 0.7
    p = make_params(d_max=d_max, w=0.03, z=0.95, a=d_max**-beta, beta=beta)
    roles = utility_arrays(p, regime, np.geomspace(1.5 / d_max, BRACKET_CAP, 60))
    assert np.isfinite(roles).all()
    for n in (1.5 / d_max, 2.1 / d_max, 2.5 / d_max, 10 / d_max, BRACKET_CAP):
        want = oracles.eu_quad_mp(PEERING[regime], n, d_max, p.v, p.w, p.z, p.cost.a, beta)
        assert _roles(regime_utilities(p.with_n(n), regime)) == pytest.approx(want, rel=1e-13, abs=0.0)


@st.composite
def valid_cost_laws(draw):
    """Templates with finite fields, a > 0, beta in (1, 1000], a cost(d_max)
    anywhere in the floats' range, 0 < cost(d_max) < inf, and v - u above it.
    w is 0 or from 1e-300 to 1e300, where the exact roles stay finite at the
    sampled Y <= 1000 (the NO_PEERING outsider, about -w pi Y^2 / 2, overflows
    from w = 1.1e302)."""
    beta = draw(st.floats(1.0, 1000.0, exclude_min=True))
    log_d_max, log_c_max = draw(st.floats(-300.0, 300.0)), draw(st.floats(-323.0, 307.0))
    log_a = log_c_max - beta * log_d_max
    assume(-323.0 < log_a < 308.0)
    d_max, a = 10.0**log_d_max, 10.0**log_a
    n = draw(st.floats(1.0, 1e6, exclude_min=True)) / d_max
    assume(d_max > 1 / n)
    try:
        c_max = a * d_max**beta
    except OverflowError:
        c_max = math.inf
    assume(0 < c_max < math.inf)
    u = draw(st.floats(1e-3, 1e3))
    v = u + c_max * draw(st.floats(1.01, 1e3))
    assume(v < math.inf and v - u > c_max)
    w = draw(st.just(0.0) | st.floats(-300.0, 300.0).map(lambda e: 10.0**e))
    return make_params(n=n, d_max=d_max, v=v, u=u, w=w,
                       z=draw(st.floats(1e-6, 1 - 1e-9)), a=a, beta=beta)


@settings(max_examples=300, deadline=None, database=None)
@given(valid_cost_laws())
# float samples of the cost on (0, d_max] underflow to 0 at beta = 400 and 1000
# and lose the convexity to rounding at beta = 1 + 1e-15
@example(make_params(beta=400.0))
@example(make_params(beta=1000.0))
@example(make_params(beta=1 + 1e-15))
# c(D) at the relay-free Y = 1.5 once overflowed where the annulus rule's weight is 0
@example(make_params(n=2.0, v=2e307, u=1.0, w=0.0, z=0.5, a=1e307, beta=11.0))
# the annulus cost sums once overflowed at Y = 1000 on a cost(d_max) of 1e304
@example(make_params(n=2.0, v=2e304, u=1.0, w=0.0, z=0.5, a=1e304, beta=1.5))
# w times the relay count at Y = 1000 once overflowed
@example(make_params(w=1e300))
def test_valid_cost_laws_give_finite_roles(template):
    assert validate(template) is template
    for regime in Regime:
        roles = utility_arrays(template, regime, [y / template.d_max for y in (1.5, 2, 10, 1000)])
        assert np.isfinite(roles).all()


@pytest.mark.parametrize("k", [-900, -300, 300, 900])
@pytest.mark.parametrize("regime", list(Regime))
def test_roles_scale_exactly_with_a_huge_cost(regime, k):
    # the roles are homogeneous of degree 1 in (v, w, a): scaling all three
    # (and u) by 2^k must scale every role by exactly 2^k; from k = 300 up,
    # cost(d_max) passes 2^512, where the sums run in units of 2^e
    p = make_params(v=10.0, w=0.01, a=1.5, beta=2.6)
    scaled = make_params(v=math.ldexp(10.0, k), u=math.ldexp(2.0, k), w=math.ldexp(0.01, k),
                         a=math.ldexp(1.5, k), beta=2.6)
    densities = np.geomspace(1.5, 1e4, 40)
    want = np.ldexp(utility_arrays(p, regime, densities), k)
    assert utility_arrays(scaled, regime, densities).tolist() == want.tolist()


@pytest.mark.parametrize("regime", list(Regime))
def test_pollution_roles_scale_exactly_with_a_huge_pollution_cost(regime):
    # the outsider role, and the intermediate role but for no-transfers
    # peering's, which adds the relay cost, are w times a role of w = 1:
    # scaling w alone by 2^1000 puts it above 2^512, where the pollution sums
    # run in units of 2^e (w times the relay count would overflow), and must
    # scale them by exactly 2^1000
    densities = np.geomspace(1.5, 1e4, 40)
    small = utility_arrays(make_params(w=0.01), regime, densities)
    big = utility_arrays(make_params(w=math.ldexp(0.01, 1000)), regime, densities)
    assert big[0].tolist() == small[0].tolist()
    assert big[2].tolist() == np.ldexp(small[2], 1000).tolist()
    if regime is not Regime.PEERING_NO_TRANSFERS:
        assert big[1].tolist() == np.ldexp(small[1], 1000).tolist()


@pytest.mark.parametrize("beta", [1.01, 1.2, 1.5, 2.0, 3.0, 6.0, 20.0])
@pytest.mark.parametrize("regime", list(Regime))
def test_term_basis_pieces_are_monotone_in_y(regime, beta):
    # per node, the cost piece B = sum_r b_r / (cost_den den_r) does not rise
    # with Y (to 1e-15 relative; its worst rise is 1.9e-16), and the
    # pollution piece Q = sum_r q_r / den_r and P do not fall
    big_y = np.geomspace(1.0, 1e5, 10_001)[1:]
    prob, _, b, q, cost_den, den = meshecon.regimes._basis(make_params(beta=beta), regime, big_y)
    cost, polluted = (b / (cost_den * den)).sum(axis=0), (q / den).sum(axis=0)
    assert np.all(cost[1:] <= cost[:-1] * (1 + 1e-15))
    assert np.all(np.diff(polluted) >= 0) and np.all(np.diff(prob) >= 0)


@pytest.mark.parametrize("beta", [1.0001, 2.0, 12.0, 200.0])
@pytest.mark.parametrize("regime", list(PEERING))
def test_annulus_rule_converged(monkeypatch, regime, beta):
    # twice the annulus rule's nodes moves no role by more than 1e-13
    # relative (1.6e-14 at worst here); a 16-node rule fails it
    d_max = 0.7
    p = make_params(d_max=d_max, w=0.03, z=0.95, a=d_max**-beta, beta=beta)
    densities = np.geomspace(1.5 / d_max, BRACKET_CAP, 60)
    rule = np.ravel(utility_arrays(p, regime, densities))
    t, wt = np.polynomial.legendre.leggauss(96)
    monkeypatch.setattr(meshecon.regimes, "_ANNULUS_RULE", (1 + t, 2 * wt))
    doubled = np.ravel(utility_arrays(p, regime, densities))
    assert doubled.tolist() == pytest.approx(rule.tolist(), rel=1e-13, abs=0.0)


def test_annulus_rule_is_numpys_leggauss_48():
    # the table is leggauss(48) bit for bit on the numpy build the golden
    # manifest was made with, and within 1 ulp of it on any other
    from golden import regen

    made_with = json.loads(regen.MANIFEST.read_text(encoding="utf-8"))["numpy"]
    t, wt = meshecon.regimes._LEGENDRE_48
    assert (len(t), len(wt)) == (meshecon.regimes.ANNULUS_NODES, 48)
    for got, want in zip((t, wt), np.polynomial.legendre.leggauss(48)):
        if np.__version__ == made_with:
            assert got.tobytes() == want.tobytes()
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
    one_plus_t, two_wt = meshecon.regimes._ANNULUS_RULE
    assert one_plus_t.tolist() == (1 + t).tolist() and two_wt.tolist() == (2 * wt).tolist()


def test_annulus_rule_is_exactly_symmetric():
    # mirroring the positive half reproduces leggauss(48) only because its
    # nodes are exactly antisymmetric and its weights exactly symmetric
    for t, wt in (meshecon.regimes._LEGENDRE_48, np.polynomial.legendre.leggauss(48)):
        assert (-t[::-1]).tolist() == t.tolist() and wt[::-1].tolist() == wt.tolist()
        assert np.all(np.diff(t) > 0) and -1 < t[0] and np.all(wt > 0)


def test_annulus_rule_matches_mpmath_roots_of_p48():
    # every node is within 1 ulp of a root of P_48. leggauss's weights are
    # not so close to 2 / ((1 - x^2) P_48'(x)^2): they are off by up to
    # 1.27e-12 relative (9 230 ulps, at the outermost nodes), and the table
    # keeps them, so the utilities keep their bits
    for t, wt, (node, weight) in zip(*meshecon.regimes._LEGENDRE_48,
                                    oracles.gauss_legendre_mp(48)):
        assert abs(mpmath.mpf(float(t)) - node) <= math.ulp(t)
        assert abs(mpmath.mpf(float(wt)) - weight) <= 1.3e-12 * weight


def test_peering_roles_match_mpmath_quadrature_oracle(defaults):
    # non-integer beta from the draws; the worst role, the no-transfers
    # intermediate at the defaults and n d_max = 14.67, is off by 4.3e-15
    for p in [defaults] + [p for p, _ in random_draws(3, seed=61)]:
        for n_d_max in (1.5, 2.5, 14.67, 1e3, 1e5):
            n = n_d_max / p.d_max
            for regime, name in PEERING.items():
                got = _roles(regime_utilities(p.with_n(n), regime))
                want = oracles.eu_quad_mp(name, n, p.d_max, p.v, p.w, p.z, p.cost.a, p.cost.beta)
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("z", [1 - 1e-6, 1 - 1e-9])
@pytest.mark.parametrize("regime", list(PEERING))
def test_peering_roles_accurate_as_z_approaches_one(regime, z):
    # every role carries the factor P = 1 - z^N, about 6e-9 at z = 1 - 1e-9
    # and n d_max = 1.5, where 1 - exp(N log z) is off by 3e-9 relative
    p = make_params(z=z)
    for n_d_max in (1.5, 2.5, 14.67, 1e3):
        n = n_d_max / p.d_max
        got = _roles(regime_utilities(p.with_n(n), regime))
        want = oracles.eu_quad_mp(PEERING[regime], n, p.d_max, p.v, p.w, p.z, p.cost.a, p.cost.beta)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", [2.5, 10.0, 14.67, 50.0, 698.14, 5000.0, 1e5])
def test_perfcomp_total_matches_antiderivative_oracle(defaults, n):
    total = sum(utility_arrays(defaults, Regime.PEERING_PERFECT_COMPETITION, [n]))[0]
    want = float(oracles.perfcomp_total_mp(n))
    assert total == pytest.approx(want, rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("regime", list(Regime))
def test_regime_utilities_non_finite_input_raises(defaults, regime):
    with pytest.raises(NumericsError, match="not finite"):
        regime_utilities(dataclasses.replace(defaults, v=math.nan), regime)


def test_utility_arrays_rejects_an_unknown_regime(defaults):
    with pytest.raises(ParamError, match="unknown regime"):
        utility_arrays(defaults, "bogus", [defaults.n])


def test_regime_utilities_serialization(defaults):
    got = regime_utilities(defaults, Regime.NO_PEERING)
    blob = json.loads(meshecon.cli._report_text("json", [got], got.to_json_dict))
    assert blob["regime"] == "NO_PEERING"
    assert blob["total"] == got.total
    assert blob["params"]["n"] == 10.0
    header, row = csv.reader(io.StringIO(meshecon.cli._report_text("csv", [got], None)))
    assert header == ["regime", "n", "eu_orig", "eu_int", "eu_out", "total"]
    assert row[0] == "NO_PEERING"
    assert float(row[1]) == 10.0
    assert float(row[5]) == got.total


# --------------------------------------------------------------------------
# best responses


def test_intermediate_best_response_threshold(defaults):
    relay_cost = defaults.cost(hop_distance(defaults, 0.5))  # c(0.125) = 0.015625
    assert relay_cost == pytest.approx(0.015625)
    assert intermediate_best_response(defaults, 0.5, 0.02) is True
    assert intermediate_best_response(defaults, 0.5, relay_cost) is True  # tie accepts
    assert intermediate_best_response(defaults, 0.5, 0.01) is False
    assert intermediate_best_response(defaults, 0.5, 0.0) is False  # free riding
    with pytest.raises(ParamError):
        intermediate_best_response(defaults, 0.5, -0.1)


def test_accept_refuse_boundary_sits_at_competitive_price():
    for p, d in random_draws(30, seed=55):
        price = competitive_price(p, d)
        assert intermediate_best_response(p, d, price) is True
        assert intermediate_best_response(p, d, price * (1 - 1e-9)) is False


def test_originator_choice_nearest_neighbor_always_direct(defaults):
    for price in (0.0, 0.01, 10.0):
        choice = originator_choice(defaults, 0.1, price)
        assert choice.mode is Choice.DIRECT
        assert choice.net_utility == pytest.approx(defaults.v - defaults.cost(0.1))


def test_originator_choice_peers_at_marginal_cost(defaults):
    p = competitive_price(defaults, 0.5)
    choice = originator_choice(defaults, 0.5, p)
    assert choice.mode is Choice.PEER
    assert choice.net_utility == pytest.approx(10.0 - 4 * 0.015625)


def test_originator_choice_direct_at_expensive_relay(defaults):
    choice = originator_choice(defaults, 0.5, defaults.cost(0.5))
    assert choice.mode is Choice.DIRECT  # 0.015625 + 3 * 0.25 > 0.25
    with pytest.raises(ParamError):
        originator_choice(defaults, 0.5, -1.0)


def test_originator_choice_tie_goes_direct(defaults):
    # at d below the relay clamp the two branches are equal for any price
    choice = originator_choice(defaults, 0.15, 0.0)
    assert choice.mode is Choice.DIRECT


# --------------------------------------------------------------------------
# social cost, value added, savings


def test_social_cost_examples(defaults):
    direct = social_cost(defaults, 0.5, "direct")
    assert direct == pytest.approx(0.25 + 0.01 * (25 * math.pi - 1))
    full = social_cost(defaults, 0.5, "full_peering")
    assert full == pytest.approx(4 * (0.015625 + 0.01 * nodes_within(defaults, 0.125)))
    assert full < direct
    with pytest.raises(ParamError):
        social_cost(defaults, 0.15, "skip_one")
    with pytest.raises(ParamError):
        social_cost(defaults, 0.5, "bogus")


def test_social_cost_peering_dominance_over_draws():
    for p, d in random_draws(60, seed=77):
        assert social_cost(p, d, "full_peering") < social_cost(p, d, "direct")


def test_value_added_examples(defaults):
    hop = hop_distance(defaults, 0.5)
    expected = (
        -2 * defaults.cost(hop) + defaults.cost(2 * hop)
        - 2 * 0.01 * nodes_within(defaults, hop) + 0.01 * nodes_within(defaults, 2 * hop)
    )
    assert value_added(defaults, 0.5) == pytest.approx(expected)
    assert value_added(defaults, 0.5) > 0
    with pytest.raises(ParamError):
        value_added(defaults, 0.15)


def test_value_added_zero_on_linear_boundary():
    # beta = 1 bypasses validation on purpose: the convexity inequality binds
    p = make_params(beta=1.0, w=0.0)
    assert value_added(p, 0.5) == 0.0


def test_value_added_positive_from_pollution_alone():
    # linear cost but convex circle counts still make a relay valuable
    p = make_params(beta=1.0, w=0.01)
    assert nodes_within(p, hop_distance(p, 0.5)) > 0
    assert value_added(p, 0.5) > 0


def test_value_added_quadratic_no_pollution_closed_form():
    p = make_params(w=0.0)
    for d in (0.3, 0.5, 0.8, 1.0):
        hop = hop_distance(p, d)
        assert value_added(p, d) == pytest.approx(2 * p.cost.a * hop * hop, rel=1e-12)
        assert value_added(p, d) > 0


def test_value_added_equals_skip_minus_full(defaults):
    for p, d in random_draws(40, seed=3):
        lhs = value_added(p, d)
        rhs = social_cost(p, d, "skip_one") - social_cost(p, d, "full_peering")
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_originator_savings_examples(defaults):
    assert originator_savings(defaults, 0.5) == pytest.approx(0.25 - 0.015625)
    assert originator_savings(defaults, 0.1) == 0.0
    assert originator_savings(defaults, 1.0) == pytest.approx(1.0 - (1 / 9) ** 2)


def test_savings_cover_compensation():
    # c(d) - c(D) >= I * c(D), strictly when I >= 1 and beta > 1
    for p, d in random_draws(60, seed=41):
        i = intermediate_count(p, d)
        assert originator_savings(p, d) > i * competitive_price(p, d)


# --------------------------------------------------------------------------
# prices, leapfrog


def test_price_bounds_and_competitive_price(defaults):
    lo, hi = price_bounds(defaults, 0.5)
    assert (lo, hi) == (pytest.approx(0.015625), pytest.approx(0.25))
    assert competitive_price(defaults, 0.5) == lo
    lo2, hi2 = price_bounds(defaults, 0.15)  # no relays: bounds collapse
    assert lo2 == hi2
    for _, d in random_draws(20, seed=9, require_relay=False):
        lo, hi = price_bounds(defaults, min(d, defaults.d_max))
        assert lo <= hi


def test_leapfrog_threshold_and_profitability(defaults):
    thr = leapfrog_threshold(defaults, 0.5)
    assert thr == pytest.approx(defaults.cost(0.25))
    assert leapfrog_profitable(defaults, 0.5, competitive_price(defaults, 0.5)) is False
    assert leapfrog_profitable(defaults, 0.5, thr) is False       # strict threshold
    assert leapfrog_profitable(defaults, 0.5, thr * 1.01) is True
    with pytest.raises(ParamError):
        leapfrog_threshold(defaults, 0.15)

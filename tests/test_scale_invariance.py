"""Scale invariance: density and radius enter the model only through
Y = n d_max, and the cost only through its scale c(d_max) = a d_max^beta.

The map (d_max, a, n) -> (lam d_max, a lam^-beta, n / lam) keeps both, so
it must leave every role, every solved Y* = n* d_max, every total and every
fitted exponent unchanged, and the comparison must reach the same findings.
They agree bit for bit where the two templates give the same floats n d_max
and c(d_max), which a power-of-two lam keeps for n d_max and, for some beta,
for c(d_max); elsewhere to a few ulps.
"""

import dataclasses

import numpy as np
import pytest

from meshecon import (
    BoundaryOptimum,
    EquilibriumResult,
    NoCrossing,
    ParamError,
    Regime,
    club_optimal_density,
    compare_regimes,
    congestion_scaling_exponent,
    default_params,
    free_entry_density,
    utility_arrays,
)
from conftest import random_draws

PERFCOMP = Regime.PEERING_PERFECT_COMPETITION
SCALES = (0.5, 2.0, 3.7)
# the largest disagreement allowed between the two templates, relative to
# the largest role; 2.3e-15 was the worst seen over 100 templates
FEW_ULPS = 16 * np.finfo(float).eps
# the club's Y* rests on totals that differ by ulps at the top of the hump,
# so an ulp in c(d_max) can move it by 1e-7 relative
CLUB_REL = 1e-6


def _rescaled(template, lam):
    """The template under (d_max, a, n) -> (lam d_max, a lam^-beta, n / lam)."""
    cost = dataclasses.replace(template.cost, a=template.cost.a * lam ** -template.cost.beta)
    return dataclasses.replace(template, n=template.n / lam, d_max=template.d_max * lam,
                               cost=cost)


def _pairs():
    """(template, its rescaled copy, lam, whether the two must agree bit for
    bit) over the draws and a w = 0 template."""
    templates = [dataclasses.replace(default_params(), w=0.0)]
    templates += [p for p, _ in random_draws(20, seed=3)]
    pairs = []
    for t in templates:
        for lam in SCALES:
            s = _rescaled(t, lam)
            exact = lam in (0.5, 2.0) and s.cost(s.d_max) == t.cost(t.d_max)
            pairs.append((t, s, lam, exact))
    assert sum(exact for *_, exact in pairs) >= 10
    return pairs


def _agree(got, want, scale, exact):
    """Whether got equals want, or is within FEW_ULPS of scale when not exact."""
    if exact:
        return np.array_equal(got, want)
    return bool((np.abs(np.subtract(got, want)) <= FEW_ULPS * scale).all())


def _scale(roles):
    """The largest role magnitude in each column of a (3, m) role array."""
    return np.abs(np.asarray(roles)).max(axis=0)


def _kind(outcome):
    """A comparison entry without the density it names: 'solved', an
    exponent, or a finding's marker."""
    if isinstance(outcome, EquilibriumResult):
        return "solved"
    if isinstance(outcome, float):
        return "exponent"
    return outcome.split("@")[0].split(" (")[0]


def test_roles_depend_on_density_and_radius_through_y_alone():
    ys = np.concatenate([np.geomspace(1.01, 1e5, 40), [2.0, 2.5, 3.0]])
    for t, s, lam, exact in _pairs():
        ns = ys / t.d_max
        for regime in Regime:
            want = utility_arrays(t, regime, ns)
            assert _agree(utility_arrays(s, regime, ns / lam), want, _scale(want), exact)


def test_solvers_find_the_same_y_and_total_on_rescaled_templates():
    solved = 0
    for t, s, lam, exact in _pairs():
        for regime in (Regime.NO_PEERING, PERFCOMP):
            try:
                want = free_entry_density(t, regime)
            except NoCrossing as exc:
                with pytest.raises(NoCrossing) as got:
                    free_entry_density(s, regime)
                ends = [x * t.d_max for x in (exc.n_lo, exc.n_hi)]
                assert _agree([x * s.d_max for x in (got.value.n_lo, got.value.n_hi)],
                              ends, max(ends), exact)
                continue
            got = free_entry_density(s, regime)
            solved += 1
            y = want.n_star * t.d_max
            assert _agree(got.n_star * s.d_max, y, y, exact)
            u = want.utilities
            scale = max(abs(u.eu_originator), abs(u.eu_intermediate), abs(u.eu_outsider))
            assert _agree(got.total_eu_at_n_star, want.total_eu_at_n_star, scale, exact)
        try:
            want = club_optimal_density(t)
        except BoundaryOptimum as exc:
            with pytest.raises(BoundaryOptimum) as got:
                club_optimal_density(s)
            assert got.value.side == exc.side
            y = exc.n_boundary * t.d_max
            assert _agree(got.value.n_boundary * s.d_max, y, y, exact)
            continue
        got = club_optimal_density(s)
        y = want.n_star * t.d_max
        if exact:
            assert got.n_star * s.d_max == y
        else:
            assert got.n_star * s.d_max == pytest.approx(y, rel=CLUB_REL, abs=0)
        total = want.total_eu_at_n_star
        assert _agree(got.total_eu_at_n_star, total, abs(total), exact)
    assert solved >= 100


def test_scaling_exponents_agree_on_rescaled_templates():
    fits = 0
    for t, s, lam, exact in _pairs():
        ns = [y / t.d_max for y in (50.0, 100.0, 200.0, 400.0)]
        for regime in Regime:
            try:
                want = congestion_scaling_exponent(t, regime, ns)
            except ParamError:
                with pytest.raises(ParamError):
                    congestion_scaling_exponent(s, regime, [n / lam for n in ns])
                continue
            got = congestion_scaling_exponent(s, regime, [n / lam for n in ns])
            fits += 1
            assert _agree(got, want, abs(want), exact)
    assert fits >= 100


def test_comparisons_reach_the_same_findings_on_rescaled_templates():
    kinds = set()
    for t, s, lam, exact in _pairs():
        want, got = compare_regimes(t), compare_regimes(s)
        for field in ("free_entry_no_peering", "free_entry_perfcomp", "club",
                      "scaling_no_peering", "scaling_perfcomp"):
            a, b = getattr(want, field), getattr(got, field)
            assert _kind(b) == _kind(a)
            kinds.add(_kind(a))
            if isinstance(a, float):
                assert _agree(b, a, abs(a), exact)
            elif _kind(a) == "BOUNDARY_OPTIMUM":  # the marker names n_boundary
                y = float(a.split("@")[1]) * t.d_max
                assert _agree(float(b.split("@")[1]) * s.d_max, y, y, exact)
    assert kinds >= {"solved", "exponent", "NO_CROSSING", "BOUNDARY_OPTIMUM", "UNDEFINED"}

"""Closed-form expected utilities, prices, and best responses per regime.

Three regimes are evaluated at a given density:

    NO_PEERING                  every connection is direct
    PEERING_NO_TRANSFERS        all nodes hypothetically relay for free
    PEERING_PERFECT_COMPETITION relays are paid the competitive price c(D)

Each regime assigns an expected utility to the three roles a node can play
for someone else's connection or its own: originator, intermediate (relay),
and outsider (suffers interference only). Expectations integrate over the
connection-distance density f(x) = 2x/d_max^2 and are scaled by the demand
probability P(N(d_max)):

    orig  NO_PEERING   P * int (v - c(x)) f dx
    out   NO_PEERING  -w P * int N(x) f dx
    orig  NOTRANS      P * int (v - c(D(x))) f dx
    int   NOTRANS     -P * int I(x) (w + c(D(x))) f dx     (hypothetical)
    out   NOTRANS     -w P * int (I(x)+1) N(D(x)) f dx
    orig  PERFCOMP     P * int (v - (I(x)+1) c(D(x))) f dx
    int   PERFCOMP    -w P * int I(x) f dx                 (price nets out cost)
    out   PERFCOMP    -w P * int (I(x)+1) max(0, N(D(x))-1) f dx

The no-transfers intermediate line aggregates the per-exposure payoff
-w - c(D) over the all-peer hypothesis, a counterfactual: a relay's best
response to a zero price is refusal, so unpriced peering never survives.

Note the outsider lines: the no-transfers form counts every node in a hop's
circle, the competitive form excludes the hop's receiving endpoint (whose
exposure is booked on the intermediate line instead). The discrepancy is
kept, not reconciled; the receiving-peer count is floored at zero so the
outsider utility can never turn positive where the continuum approximation
of N breaks down.

Evaluation is dimensionless. In lattice units y = n x, n and d_max enter
only through Y = n d_max, and the cost only through c(d_max), as
c(u d_max) = c(d_max) u^beta: each role is P (v a - c(d_max) b - w q) on a
term basis of Y, beta and z alone (_basis); u enters only validate.
utility_arrays() evaluates a regime at an array of densities n, as one
(3, m) array of the roles at Y = n d_max, and regime_utilities() is its
one-density call. Every role is an elementary closed form, clamps included,
but for the peering cost integrals int g c(D) 2y dy (g = 1, I or I + 1)
over the relayed annulus 2 < y <= Y. Those take one fixed rule in
s = log(y - 1), 48 Gauss-Legendre nodes per density (ANNULUS_NODES; Golub &
Welsch 1969), which a 96-node rule matches to 1e-13 relative. The rule is a
table of float constants, the bits of numpy's leggauss(48), so evaluating a
regime never imports numpy.polynomial; only integrate(), which nothing in
the package calls, does. Non-finite utilities raise NumericsError,
overflows too.

All operations are pure functions; nothing here holds mutable state.
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericsError, ParamError
from .model import (
    ModelParams,
    _combine,
    connect_probability_array,
    hop_distance,
    intermediate_count,
    nodes_within,
    nodes_within_array,
    params_to_dict,
)

__all__ = [
    "Regime",
    "REGIME_ORDER",
    "Choice",
    "ConnectionChoice",
    "RegimeUtilities",
    "DEFAULT_TOL",
    "gauss_nodes",
    "integrate",
    "utility_arrays",
    "regime_utilities",
    "intermediate_best_response",
    "originator_choice",
    "social_cost",
    "value_added",
    "originator_savings",
    "price_bounds",
    "competitive_price",
    "leapfrog_threshold",
    "leapfrog_profitable",
]

DEFAULT_TOL = 1e-9


class Regime(Enum):
    NO_PEERING = "NO_PEERING"
    PEERING_NO_TRANSFERS = "PEERING_NO_TRANSFERS"
    PEERING_PERFECT_COMPETITION = "PEERING_PERFECT_COMPETITION"


# Canonical ordering for reports, sweeps, and CSV output.
REGIME_ORDER = (
    Regime.NO_PEERING,
    Regime.PEERING_NO_TRANSFERS,
    Regime.PEERING_PERFECT_COMPETITION,
)


class Choice(Enum):
    DIRECT = "DIRECT"
    PEER = "PEER"


@dataclass(frozen=True)
class ConnectionChoice:
    """An originator's best response: how to connect, and the resulting
    maximized net utility."""

    mode: Choice
    net_utility: float


@dataclass(frozen=True)
class RegimeUtilities:
    """Per-role expected utilities for one regime at one parameter point.

    total is the exact float sum of the three role fields. eu_outsider is
    never positive; eu_intermediate is zero when no relaying occurs.
    """

    regime: Regime
    eu_originator: float
    eu_intermediate: float
    eu_outsider: float
    params: ModelParams

    @property
    def total(self) -> float:
        return self.eu_originator + self.eu_intermediate + self.eu_outsider

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime.value,
            "eu_originator": self.eu_originator,
            "eu_intermediate": self.eu_intermediate,
            "eu_outsider": self.eu_outsider,
            "total": self.total,
            "params": params_to_dict(self.params),
        }


# --------------------------------------------------------------------------
# Quadrature


# Large integrals cannot hit an absolute error below ~1e-13 of their own
# size in float64; integrate()'s error contract is floored there.
_REL_FLOOR = 1e-13
_MAX_SPLITS = 200


def gauss_nodes(tol: float) -> int:
    """Gauss-Legendre nodes per piece for tolerance tol: 16 for every three
    decimal digits, clamped to [16, 96] (48 at DEFAULT_TOL)."""
    if not (tol > 0):
        raise ParamError(f"tol must be > 0, got {tol!r}")
    digits = min(max(-math.log10(tol), 3.0), 18.0)
    return 16 * math.ceil(digits / 3 - 1e-9)


@functools.lru_cache(maxsize=None)
def _legendre(m: int):
    return np.polynomial.legendre.leggauss(m)


def integrate(f, lo: float, hi: float, tol: float = DEFAULT_TOL) -> float:
    """Adaptive Gauss-Legendre quadrature of a scalar f over [lo, hi].

    A piece is kept when its rules with gauss_nodes(tol) nodes and twice as
    many agree to its share of tol (or to _REL_FLOOR of the value), and is
    halved otherwise. Raises NumericsError on a non-finite sample, or when
    _MAX_SPLITS halvings cannot meet tol (a divergent integral).
    """
    if not (lo <= hi):
        raise ParamError(f"integration bounds must satisfy lo <= hi, got {lo!r} > {hi!r}")
    m = gauss_nodes(tol)
    if lo == hi:
        return 0.0

    def rule(nodes, a, b):
        total = 0.0
        for t, wt in zip(*(arr.tolist() for arr in _legendre(nodes))):
            x = (a + b) / 2 + (b - a) / 2 * t
            y = f(x)
            if not math.isfinite(y):
                raise NumericsError(f"integrand returned non-finite value {y!r} at x={x!r}")
            total += wt * y
        return (b - a) / 2 * total

    value, splits, pending = 0.0, 0, [(lo, hi, tol)]
    while pending:
        a, b, budget = pending.pop()
        fine = rule(2 * m, a, b)
        if abs(fine - rule(m, a, b)) <= max(budget, abs(fine) * _REL_FLOOR):
            value += fine
        elif splits == _MAX_SPLITS:
            raise NumericsError(f"quadrature on [{lo!r}, {hi!r}] missed tol {tol!r} "
                                f"after {_MAX_SPLITS} halvings; the integral may diverge")
        else:
            splits += 1
            pending += [(a, (a + b) / 2, budget / 2), ((a + b) / 2, b, budget / 2)]
    return value


# --------------------------------------------------------------------------
# Expected utilities per regime


# The 48-node Gauss-Legendre rule on [-1, 1] (Golub & Welsch 1969) as numpy's
# leggauss(48) gives it, which is antisymmetric in its nodes t and symmetric in
# its weights wt, bit for bit: (t, wt) at its 24 positive nodes, ascending.
# 32 nodes would already move the printed utilities by ulps.
_LEGENDRE_48_HALF = (
    (0.03238017096286937, 0.06473769681268365),
    (0.0970046992094627, 0.06446616443594982),
    (0.1612223560688917, 0.06392423858464787),
    (0.22476379039468905, 0.06311419228625373),
    (0.28736248735545555, 0.06203942315989242),
    (0.3487558862921607, 0.0607044391658936),
    (0.4086864819907167, 0.059114839698395344),
    (0.4669029047509584, 0.057277292100402916),
    (0.523160974722233, 0.05519950369998403),
    (0.5772247260839727, 0.05289018948519344),
    (0.6288673967765136, 0.0503590355538542),
    (0.6778723796326639, 0.04761665849249024),
    (0.7240341309238146, 0.04467456085669423),
    (0.7671590325157404, 0.04154508294346455),
    (0.8070662040294426, 0.0382413510658305),
    (0.8435882616243935, 0.034777222564770394),
    (0.8765720202742479, 0.031167227832798097),
    (0.9058791367155696, 0.027426509708357034),
    (0.9313866907065543, 0.023570760839324047),
    (0.9529877031604308, 0.019616160457356056),
    (0.9705915925462473, 0.015579315722943226),
    (0.9841245837228269, 0.011477234579234614),
    (0.9935301722663508, 0.007327553901276135),
    (0.9987710072524261, 0.0031533460523098414),
)


def _mirrored(half):
    """The nodes t and weights wt, ascending in t, of the rule on [-1, 1]
    whose (t, wt) pairs at its positive nodes are half."""
    t, wt = np.array(half).T
    return np.concatenate([-t[::-1], t]), np.concatenate([wt[::-1], wt])


_LEGENDRE_48 = _mirrored(_LEGENDRE_48_HALF)
# utility_arrays' annulus rule: 1 + t and 2 wt
_ANNULUS_RULE = 1 + _LEGENDRE_48[0], 2 * _LEGENDRE_48[1]
ANNULUS_NODES = len(_ANNULUS_RULE[0])


def utility_arrays(template: ModelParams, regime: Regime, densities):
    """Per-role utilities at each density, other parameters from template: a
    (3, m) array whose rows are the originator, intermediate and outsider
    roles. No entry depends on the rest of the batch. Raises NumericsError
    at the first density whose roles are not all finite."""
    n = np.asarray(densities, dtype=float).reshape(-1)
    with np.errstate(over="ignore"):
        roles = _roles(template, regime, n * template.d_max)
    _raise_not_finite(regime, n, roles)
    return roles


def _raise_not_finite(regime, y, roles, d_max=1.0):
    """Raise NumericsError at the first of the densities n = y / d_max whose
    role column in roles is not all finite, if there is one."""
    if not np.isfinite(roles).all():
        finite = np.isfinite(roles).all(axis=0)
        raise NumericsError(
            f"{regime.value} utility is not finite at n={float(np.asarray(y)[~finite][0]) / d_max}")


# A Y so large that the role terms overflow or turn NaN comes back
# non-finite, without numpy's RuntimeWarnings, for the caller's finiteness
# check to report; an overflow whose result stays finite (N log z reaching
# -inf, so P = 1) is a correct value.
@np.errstate(over="ignore", invalid="ignore")
def _roles(template, regime, big_y):
    """utility_arrays at the floats Y = n d_max, without the finiteness check."""
    return _combine(template, *_basis(template, regime, big_y))


# a: only the originator gains v; NO_PEERING's intermediate holds no term (see _combine)
_VALUE, _NO_PEERING_VALUE = np.array([[[1.0], [-0.0], [-0.0]], [[1.0], [0.0], [-0.0]]])


def _value_row(regime):
    """The regime's value row a, whose zero signs its roles take where their
    terms vanish: the simulator's lattice roles take it too."""
    return _NO_PEERING_VALUE if regime is Regime.NO_PEERING else _VALUE


def _basis(template, regime, big_y):
    """The term basis of _roles at the floats Y = n d_max, functions of Y,
    beta and z alone: P, the rows a, b and q and their denominators, as
    model._combine takes them. Distances are in units u = x / d_max, so a
    cost is c(d_max) u^beta."""
    beta = template.cost.beta
    prob = connect_probability_array(nodes_within_array(big_y, 1.0), template.z)
    b, q, den = np.zeros((3, 3) + big_y.shape)
    if regime is Regime.NO_PEERING:
        u0 = np.minimum(1 / (big_y * math.sqrt(math.pi)), 1.0)
        area = lambda u: (math.pi * big_y * big_y * u * u / 2 - 1) * u * u  # int N(u) 2u du
        b[0], q[2] = 2.0, area(1.0) - area(u0)  # int u^beta 2u du = 2 / (beta + 2)
        return prob, _value_row(regime), b, q, beta + 2, 1.0
    if regime not in REGIME_ORDER:
        raise ParamError(f"unknown regime {regime!r}")
    # In units y = n x = Y u, each role is an integral against 2y dy on [0, Y], over
    # Y^2: D = x and I = 0 on the disc y <= 2; D = x / (y - 1) and I = y - 2 on
    # the annulus, whose terms are factored in rim so they vanish when Y <= 2.
    disc, top, y2 = np.minimum(big_y, 2.0), np.maximum(big_y, 2.0), big_y * big_y
    rim = top - 2
    log_hops = np.log1p(rim)  # log(Y - 1) on the annulus
    disc_cost = 2 * (disc / big_y) ** beta * disc * disc / (beta + 2)
    # The annulus's cost integrals take the Gauss-Legendre rule in s = log(y - 1),
    # with hops = I + 1 = y - 1 at the nodes and D / d_max = (1 + 1 / hops) / Y; where
    # Y <= 2 the nodes sit at y = 2 with weight 0, and top = 2 keeps their c(D) finite.
    # The (m, nodes) arrays are three buffers, worked in place:
    # weights = (s/2 wt) hops (1 + hops) ((1 + 1 / hops) / top)^beta, in that order
    one_plus_t, two_wt = _ANNULUS_RULE
    s_half = log_hops[:, None] / 2
    hops = np.multiply(s_half, one_plus_t)
    np.exp(hops, out=hops)
    weights = np.multiply(s_half, two_wt)
    weights *= hops
    scratch = np.add(1, hops)
    weights *= scratch
    np.divide(1, hops, out=scratch)
    scratch += 1
    scratch /= top[:, None]
    scratch **= beta
    weights *= scratch

    def annulus_cost(g):  # int g c(D) 2y dy / c(d_max)
        return np.sum(np.multiply(g, weights, out=scratch), axis=1)

    relays = 2 * rim * rim * (rim + 3) / 3  # int I 2y dy
    # outsiders: int (I + 1) max(0, pi (n D)^2 - k) 2y dy, where PERFCOMP's k = 2
    # exempts each hop's receiver: (pi/2) (y^2 - k/pi)^2 on the disc past the clamp,
    # and the integral of 2 pi y^3 / (y - 1) - 2k y (y - 1) on the annulus
    k = 1 if regime is Regime.PEERING_NO_TRANSFERS else 2
    polluted = (math.pi / 2 * np.maximum(disc * disc - k / math.pi, 0.0) ** 2
                + 2 * math.pi * log_hops + rim / 3 * (
                    ((2 * math.pi - 2 * k) * rim + 15 * math.pi - 9 * k) * rim + 42 * math.pi - 12 * k))
    if regime is Regime.PEERING_NO_TRANSFERS:
        # the relays pay their own cost, the originator its first hop's
        b[0], b[1] = (disc_cost + annulus_cost(1.0)) / y2, annulus_cost(hops - 1)
    else:
        b[0] = (disc_cost + annulus_cost(hops)) / y2
    q[1], q[2] = relays, polluted
    den[0], den[1:] = 1.0, y2
    return prob, _value_row(regime), b, q, 1.0, den


def regime_utilities(params: ModelParams, regime: Regime) -> RegimeUtilities:
    """The regime's expected utilities at params.n."""
    roles = utility_arrays(params, regime, [params.n])[:, 0].tolist()
    return RegimeUtilities(regime, *roles, params)


# --------------------------------------------------------------------------
# Best responses, prices, and per-connection cost accounting


def intermediate_best_response(params: ModelParams, d: float, price: float) -> bool:
    """Whether a relay on a connection of length d accepts price per hop.

    Accept iff price >= c(D(d)): max(-w - c(D) + p, -w) resolves to relaying
    exactly when the price covers the relay cost. Ties accept, so trade
    happens at marginal cost.
    """
    if not (price >= 0):
        raise ParamError(f"price must be >= 0, got {price!r}")
    return price >= params.cost(hop_distance(params, d))


def originator_choice(params: ModelParams, d: float, price: float) -> ConnectionChoice:
    """The originator's max[v - c(d), v - c(D(d)) - I(d) p]; ties go DIRECT."""
    if not (price >= 0):
        raise ParamError(f"price must be >= 0, got {price!r}")
    direct_net = params.v - params.cost(d)
    peer_net = (
        params.v
        - params.cost(hop_distance(params, d))
        - intermediate_count(params, d) * price
    )
    if direct_net >= peer_net:
        return ConnectionChoice(Choice.DIRECT, direct_net)
    return ConnectionChoice(Choice.PEER, peer_net)


def social_cost(params: ModelParams, d: float, mode: str) -> float:
    """Total resource cost of one connection of length d.

    mode: direct        c(d) + w N(d)
          full_peering  (I+1) (c(D) + w N(D))
          skip_one      one relay skipped: (I-1) c(D) + c(2D)
                        + (I-1) w N(D) + w N(2D); needs I >= 1
    """
    i = intermediate_count(params, d)
    hop = hop_distance(params, d)
    if mode == "direct":
        return params.cost(d) + params.w * nodes_within(params, d)
    if mode == "full_peering":
        return (i + 1) * (params.cost(hop) + params.w * nodes_within(params, hop))
    if mode == "skip_one":
        if not (i >= 1):
            raise ParamError(f"skip_one requires at least one relay, I(d)={i!r}")
        return (
            (i - 1) * params.cost(hop)
            + params.cost(2 * hop)
            + (i - 1) * params.w * nodes_within(params, hop)
            + params.w * nodes_within(params, 2 * hop)
        )
    raise ParamError(f"unknown social-cost mode {mode!r}")


def value_added(params: ModelParams, d: float) -> float:
    """Welfare contribution of one willing relay, net of its own cost:
    -2 c(D) + c(2D) - 2 w N(D) + w N(2D).

    Strictly positive wherever cost or the circle count is strictly convex
    at the evaluated points; exactly zero on the linear boundary
    (beta=1, w=0). N can clamp to zero at tiny hop lengths, which zeroes the
    pollution half of the expression.
    """
    i = intermediate_count(params, d)
    if not (i >= 1):
        raise ParamError(f"value_added requires at least one relay to skip, I(d)={i!r}")
    hop = hop_distance(params, d)
    return (
        -2 * params.cost(hop)
        + params.cost(2 * hop)
        - 2 * params.w * nodes_within(params, hop)
        + params.w * nodes_within(params, 2 * hop)
    )


def originator_savings(params: ModelParams, d: float) -> float:
    """What peering saves the originator before transfers: c(d) - c(D(d)).

    Nonnegative, zero exactly when there are no intermediates; large enough
    to compensate every relay at marginal cost (c(d) >= (I+1) c(D) for
    convex cost, since (I+1) D = d).
    """
    return params.cost(d) - params.cost(hop_distance(params, d))


def price_bounds(params: ModelParams, d: float) -> tuple[float, float]:
    """Admissible per-relay prices: relay cost floor, direct-cost ceiling."""
    return (params.cost(hop_distance(params, d)), params.cost(d))


def competitive_price(params: ModelParams, d: float) -> float:
    """Marginal-cost relay price c(D(d)) — the lower bound binds under
    competition."""
    return params.cost(hop_distance(params, d))


def leapfrog_threshold(params: ModelParams, d: float) -> float:
    """Relay price above which skipping a relay (transmitting 2D) pays:
    c(2 D(d))."""
    i = intermediate_count(params, d)
    if not (i >= 1):
        raise ParamError(f"leapfrog requires at least one relay, I(d)={i!r}")
    return params.cost(2 * hop_distance(params, d))


def leapfrog_profitable(params: ModelParams, d: float, price: float) -> bool:
    """Strictly profitable only when the price rises above the threshold."""
    return price > leapfrog_threshold(params, d)

"""Reference values the benchmark checks meshecon's outputs against.

Everything here is written from the model formulas with its own arithmetic
and imports nothing from meshecon:

- midpoint quadrature with one Richardson step for the closed-form role
  utilities, split at the clamp kinks so every piece is smooth;
- a loop-based enumeration of the torus lattice for the exact expectations
  of the discrete model;
- high-precision pins for the default parameter set, evaluated once with
  mpmath from hand antiderivatives (the same pins the unit tests use).
"""

import bisect
import math

import numpy as np

# Default template: n=10, d_max=1, v=10, u=2, w=0.01, z=0.99, a=1, beta=2.
DEFAULT_TEMPLATE = {
    "n": 10.0, "d_max": 1.0, "v": 10.0, "u": 2.0, "w": 0.01, "z": 0.99,
    "cost_a": 1.0, "cost_beta": 2.0,
}
FREE_ENTRY_NO_PEERING = 24.605390388412212
FREE_ENTRY_PERFCOMP = 698.1395333957212
CLUB_DENSITY = 14.671201857430175
CLUB_VALUE = 9.693268490616516

# Tolerances the unit tests apply to the same quantities.
PIN_TOL_NO_PEERING = 1e-7
PIN_TOL_PERFCOMP = 1e-6
PIN_TOL_CLUB_DENSITY = 1e-5
UTILITY_TOL = 1e-8
LATTICE_REL_TOL = 1e-12
LATTICE_ABS_TOL = 1e-15

REGIMES = ("NO_PEERING", "PEERING_NO_TRANSFERS", "PEERING_PERFECT_COMPETITION")

_SAMPLES_PER_PIECE = 20_000


def valid_template(p: dict) -> bool:
    """The model's parameter invariants, restated (power-law cost)."""
    return (
        p["n"] > 0
        and p["d_max"] > 1 / p["n"]
        and 0 < p["z"] < 1
        and p["w"] >= 0
        and p["v"] > 0
        and p["u"] > 0
        and p["cost_a"] > 0
        and p["cost_beta"] > 1
        and p["v"] - p["u"] > p["cost_a"] * p["d_max"] ** p["cost_beta"]
    )


def _midpoint(g, lo, hi, m):
    h = (hi - lo) / m
    x = lo + (np.arange(m) + 0.5) * h
    return float(np.sum(g(x)) * h)


def _extrapolated(g, lo, hi):
    """Midpoint rule from m and 2m samples, extrapolated: (4 I_2m - I_m)/3."""
    m = _SAMPLES_PER_PIECE
    return (4 * _midpoint(g, lo, hi, 2 * m) - _midpoint(g, lo, hi, m)) / 3


def _integral(g, n, d_max):
    """Integral of g over [0, d_max], split at the clamp kinks.

    Beyond 2/n the integrand varies on the scale 1/n, so that piece is
    integrated in s = log(n x - 1), where every scale is of order one.
    """
    kinks = (1 / (n * math.sqrt(math.pi)), math.sqrt(2 / math.pi) / n)
    relay_start = 2 / n
    cuts = sorted({0.0, min(relay_start, d_max),
                   *(c for c in kinks if 0 < c < min(relay_start, d_max))})
    total = sum(_extrapolated(g, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]))
    if relay_start < d_max:
        def in_s(s):
            e = np.exp(s)
            return g((1 + e) / n) * e / n
        total += _extrapolated(in_s, 0.0, math.log(n * d_max - 1))
    return total


def role_utilities(regime: str, p: dict) -> tuple[float, float, float]:
    """(originator, intermediate, outsider) expected utilities at p."""
    n, d_max, v, w, z = p["n"], p["d_max"], p["v"], p["w"], p["z"]
    a, beta = p["cost_a"], p["cost_beta"]

    def cost(d):
        return a * d**beta

    def relays(x):
        return np.maximum(0.0, n * x - 2)

    def hop(x):
        return np.where(n * x > 2, x / np.maximum(n * x - 1, 1.0), x)

    def circle(r):
        return np.maximum(0.0, math.pi * r * r * n * n - 1)

    def pdf(x):
        return 2 * x / (d_max * d_max)

    peers = max(0.0, math.pi * d_max * d_max * n * n - 1)
    prob = 1.0 - math.exp(peers * math.log(z))

    def expect(g):
        return prob * _integral(lambda x: g(x) * pdf(x), n, d_max)

    if regime == "NO_PEERING":
        return (
            expect(lambda x: v - cost(x)),
            0.0,
            -w * expect(circle),
        )
    if regime == "PEERING_NO_TRANSFERS":
        return (
            expect(lambda x: v - cost(hop(x))),
            -expect(lambda x: relays(x) * (w + cost(hop(x)))),
            -w * expect(lambda x: (relays(x) + 1) * circle(hop(x))),
        )
    if regime == "PEERING_PERFECT_COMPETITION":
        return (
            expect(lambda x: v - (relays(x) + 1) * cost(hop(x))),
            -w * expect(relays),
            -w * expect(lambda x: (relays(x) + 1) * np.maximum(0.0, circle(hop(x)) - 1)),
        )
    raise ValueError(f"unknown regime {regime!r}")


def total_utility(regime: str, p: dict) -> float:
    return sum(role_utilities(regime, p))


# --------------------------------------------------------------------------
# Torus lattice


def lattice_means(regime: str, p: dict) -> dict:
    """Exact per-node role means of the lattice model, offset by offset.

    Every per-offset quantity depends on (|di|, |dj|) only, so one quadrant
    (di >= 1, dj >= 0) stands for all four rotations of each offset.
    """
    n, d_max, v, w, z = p["n"], p["d_max"], p["v"], p["w"], p["z"]
    a, beta = p["cost_a"], p["cost_beta"]
    limit = (n * d_max) ** 2
    reach = math.isqrt(int(limit)) + 1
    quadrant = sorted(
        (di * di + dj * dj, di, dj)
        for di in range(1, reach + 1)
        for dj in range(0, reach + 1)
        if di * di + dj * dj <= limit
    )
    radii = [q[0] for q in quadrant]

    def inside(r2):
        return 4 * bisect.bisect_right(radii, r2)

    def cost(d):
        return a * d**beta

    prob = 1.0 - math.exp(4 * len(quadrant) * math.log(z))
    straight_circle, diagonal_circle = inside(1), inside(2)
    perfcomp = regime == "PEERING_PERFECT_COMPETITION"
    orig = 0.0
    relay_total = 0
    polluted_total = 0
    for r2, di, dj in quadrant:
        d = math.sqrt(r2) / n
        direct = cost(d)
        i_cont = max(0.0, n * d - 2)
        per_hop = d / (n * d - 1) if i_cont > 0 else d
        hops = max(di, dj)
        diag = min(di, dj)
        straight = hops - diag
        if perfcomp and i_cont > 0 and direct > (i_cont + 1) * cost(per_hop):
            orig += v - (straight * cost(1 / n) + diag * cost(math.sqrt(2) / n))
            relay_total += hops - 1
            polluted_total += straight * (straight_circle - 1) + diag * (diagonal_circle - 1)
        else:
            orig += v - direct
            polluted_total += inside(r2) - (1 if perfcomp else 0)
    k = len(quadrant)
    return {
        "originator": prob * orig / k,
        "intermediate": -w * prob * relay_total / k,
        "outsider": -w * prob * polluted_total / k,
    }


def close(got: float, ref: float, rel: float, abs_: float) -> bool:
    return abs(got - ref) <= max(abs_, rel * abs(ref))


"""Independent oracles the tests check the library against.

Everything here is derived straight from the model formulas with its own
arithmetic (midpoint sums, hand antiderivatives, mpmath root finding, a
loop-based lattice enumeration) and deliberately shares no code with the
package.
"""

import math

import mpmath as mp
import numpy as np

DEFAULTS = dict(n=10.0, d_max=1.0, v=10.0, u=2.0, w=0.01, z=0.99, a=1.0, beta=2.0)


def midpoint(f, lo: float, hi: float, samples: int = 1_000_000) -> float:
    """Plain midpoint-rule quadrature on a uniform grid; f is vectorized."""
    h = (hi - lo) / samples
    x = lo + (np.arange(samples) + 0.5) * h
    return float(np.sum(f(x)) * h)


# --------------------------------------------------------------------------
# Vectorized model pieces (numpy), written from the formulas


def icount(x, n):
    return np.maximum(0.0, n * x - 2)


def hopd(x, n):
    i = icount(x, n)
    return np.where(i > 0, x / np.where(i > 0, n * x - 1, 1.0), x)


def ncirc(x, n):
    return np.maximum(0.0, math.pi * x * x * n * n - 1)


def pdf(x, d_max):
    return 2 * x / (d_max * d_max)


def p_connect(n, d_max, z):
    nbar = math.pi * d_max * d_max * n * n - 1
    return 1.0 - math.exp(nbar * math.log(z))


def eu_oracle(regime: str, n=None, d_max=None, v=None, w=None, z=None,
              a=None, beta=None, samples: int = 1_000_000):
    """Per-role expected utilities by midpoint quadrature."""
    n = DEFAULTS["n"] if n is None else n
    d_max = DEFAULTS["d_max"] if d_max is None else d_max
    v = DEFAULTS["v"] if v is None else v
    w = DEFAULTS["w"] if w is None else w
    z = DEFAULTS["z"] if z is None else z
    a = DEFAULTS["a"] if a is None else a
    beta = DEFAULTS["beta"] if beta is None else beta
    cost = lambda d: a * d**beta
    p = p_connect(n, d_max, z)
    f = lambda x: pdf(x, d_max)
    if regime == "NO_PEERING":
        orig = p * midpoint(lambda x: (v - cost(x)) * f(x), 0, d_max, samples)
        inter = 0.0
        out = -w * p * midpoint(lambda x: ncirc(x, n) * f(x), 0, d_max, samples)
    elif regime == "NOTRANS":
        orig = p * midpoint(lambda x: (v - cost(hopd(x, n))) * f(x), 0, d_max, samples)
        inter = -p * midpoint(
            lambda x: icount(x, n) * (w + cost(hopd(x, n))) * f(x), 0, d_max, samples
        )
        out = -w * p * midpoint(
            lambda x: (icount(x, n) + 1) * ncirc(hopd(x, n), n) * f(x),
            0, d_max, samples,
        )
    elif regime == "PERFCOMP":
        orig = p * midpoint(
            lambda x: (v - (icount(x, n) + 1) * cost(hopd(x, n))) * f(x),
            0, d_max, samples,
        )
        inter = -w * p * midpoint(lambda x: icount(x, n) * f(x), 0, d_max, samples)
        out = -w * p * midpoint(
            lambda x: (icount(x, n) + 1)
            * np.maximum(0.0, ncirc(hopd(x, n), n) - 1) * f(x),
            0, d_max, samples,
        )
    else:
        raise ValueError(regime)
    return orig, inter, out


# --------------------------------------------------------------------------
# Closed-form total utility at the default (a=1, beta=2, d_max=1) template,
# from hand antiderivatives, evaluated in mpmath

mp.mp.dps = 30


def _p_mp(n, z=None):
    z = mp.mpf(repr(DEFAULTS["z"] if z is None else z))
    return 1 - mp.e ** ((mp.pi * n * n - 1) * mp.log(z))


def _F(x, n):  # antiderivative of x^3/(n x - 1)
    return x**3 / (3 * n) + x**2 / (2 * n**2) + x / n**3 + mp.log(n * x - 1) / n**4


def no_peering_total_mp(n):
    n = mp.mpf(n)
    v, w = mp.mpf(10), mp.mpf("0.01")
    integral_n = mp.pi * n**2 / 2 - 1 + 1 / (2 * mp.pi * n**2)
    return _p_mp(n) * ((v - mp.mpf("0.5")) - w * integral_n)


def perfcomp_total_mp(n):
    n = mp.mpf(n)
    v, w = mp.mpf(10), mp.mpf("0.01")
    a_int = (2 / n) ** 4 / 2 + 2 * (_F(mp.mpf(1), n) - _F(2 / n, n))
    b_int = 2 * n / 3 - 2 + 8 / (3 * n**2)
    xc = mp.sqrt(2 / mp.pi) / n
    piece1 = (mp.pi * n**2 * (2 / n) ** 4 / 2 - 2 * (2 / n) ** 2) - (
        mp.pi * n**2 * xc**4 / 2 - 2 * xc**2
    )
    piece2 = 2 * mp.pi * n**2 * (_F(mp.mpf(1), n) - _F(2 / n, n)) - (
        (4 * n / 3 - 2) - (4 * n * (2 / n) ** 3 / 3 - 2 * (2 / n) ** 2)
    )
    c_int = piece1 + piece2
    return _p_mp(n) * ((v - a_int) - w * b_int - w * c_int)


def eu_quad_mp(regime: str, n, d_max, v, w, z, a, beta) -> tuple:
    """Per-role expected utilities of NOTRANS or PERFCOMP at any template, by
    mpmath tanh-sinh quadrature of the x-form integrands, cut where N(x),
    N(x) - 1 and I(x) leave their clamps. Float inputs are taken at their
    binary values, not their shortest decimals."""
    with mp.workdps(20):
        n, d_max, v, w, z, a, beta = (mp.mpf(float(t)) for t in (n, d_max, v, w, z, a, beta))
        zero = mp.mpf(0)
        prob = 1 - mp.exp((mp.pi * d_max**2 * n**2 - 1) * mp.log(z))
        cost = lambda d: a * d**beta
        relays = lambda x: max(zero, n * x - 2)
        hop = lambda x: x / (n * x - 1) if n * x > 2 else x
        circle = lambda r: max(zero, mp.pi * r * r * n * n - 1)
        cuts = [zero] + [c for c in (1 / (n * mp.sqrt(mp.pi)), mp.sqrt(2 / mp.pi) / n, 2 / n)
                         if c < d_max] + [d_max]
        expect = lambda g: mp.quad(lambda x: g(x) * 2 * x / d_max**2, cuts)
        if regime == "NOTRANS":
            roles = (prob * expect(lambda x: v - cost(hop(x))),
                     -prob * expect(lambda x: relays(x) * (w + cost(hop(x)))),
                     -w * prob * expect(lambda x: (relays(x) + 1) * circle(hop(x))))
        elif regime == "PERFCOMP":
            roles = (prob * expect(lambda x: v - (relays(x) + 1) * cost(hop(x))),
                     -w * prob * expect(relays),
                     -w * prob * expect(lambda x: (relays(x) + 1) * max(zero, circle(hop(x)) - 1)))
        else:
            raise ValueError(regime)
        return tuple(float(r) for r in roles)


def free_entry_root_mp(regime: str) -> float:
    f = no_peering_total_mp if regime == "NO_PEERING" else perfcomp_total_mp
    guess = 25 if regime == "NO_PEERING" else 700
    return float(mp.findroot(f, guess))


def no_peering_root(template) -> float:
    """The NO_PEERING free-entry density n* = Y*/d_max of any template, in
    closed form. For Y >= 1/sqrt(pi) the total is P [v' - w (s/2 - 1 + 1/(2s))]
    with s = pi Y^2 and v' = v - 2 a d_max^beta/(beta + 2), so it vanishes at
    s = A + sqrt(A^2 - 1), A = 1 + v'/w: Y* = sqrt(s/pi). Float inputs are
    taken at their binary values; inf when w = 0, where no root exists."""
    if template.w == 0:
        return math.inf
    with mp.workdps(40):
        v, w, d_max, a, beta = (mp.mpf(float(t)) for t in (
            template.v, template.w, template.d_max, template.cost.a, template.cost.beta))
        big_a = 1 + (v - 2 * a * d_max**beta / (beta + 2)) / w
        return float(mp.sqrt((big_a + mp.sqrt(big_a**2 - 1)) / mp.pi) / d_max)


def club_argmax_mp() -> tuple[float, float]:
    g = perfcomp_total_mp
    n_star = mp.findroot(lambda x: mp.diff(g, x), 14.7)
    return float(n_star), float(g(n_star))


def gauss_legendre_mp(m: int) -> list:
    """The m-node Gauss-Legendre rule on [-1, 1] at the working precision,
    as (node, weight) mpf pairs in ascending node order: the nodes are the
    roots of P_m, by Newton's method from cos(pi (k - 1/4) / (m + 1/2)), and
    a node x has weight 2 / ((1 - x^2) P_m'(x)^2). P_m and P_m' come from
    the three-term recurrence."""
    def legendre(x):
        p0, p1 = mp.mpf(1), x
        for k in range(2, m + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, m * (x * p1 - p0) / (x * x - 1)

    rule = []
    for k in range(1, m + 1):
        x = mp.cos(mp.pi * (k - mp.mpf(0.25)) / (m + mp.mpf(0.5)))
        for _ in range(50):
            p, dp = legendre(x)
            step = p / dp
            x -= step
            if abs(step) <= mp.eps:
                break
        else:
            raise ArithmeticError(f"Newton's method missed root {k} of P_{m}")
        dp = legendre(x)[1]
        rule.append((x, 2 / ((1 - x * x) * dp * dp)))
    return sorted(rule)


# Frozen high-precision pins for the default parameter set (values above,
# evaluated once at 30 digits and rounded to float).
P_DEFAULT = 0.9570344132778368
EU_ORIG_NO_PEERING = 9.09182692613945
EU_OUT_NO_PEERING = -1.493751028536115
FREE_ENTRY_NO_PEERING = 24.605390388412212
FREE_ENTRY_PERFCOMP = 698.1395333957212
CLUB_DENSITY = 14.671201857430175
CLUB_VALUE = 9.693268490616516


# --------------------------------------------------------------------------
# Loop-based lattice enumeration: exact expectations of the discrete model


def lattice_oracle(n: float, d_max: float, v: float, w: float, z: float,
                   a: float, beta: float, regime: str) -> dict:
    """Exact per-node per-role expectations on the torus lattice, computed
    offset-by-offset with plain Python loops."""
    limit = (n * d_max) ** 2
    reach = int(math.floor(math.sqrt(limit))) + 1
    offsets = []
    for di in range(-reach, reach + 1):
        for dj in range(-reach, reach + 1):
            r2 = di * di + dj * dj
            if 0 < r2 <= limit:
                offsets.append((r2, di, dj))
    offsets.sort()
    k = len(offsets)
    r2s = [o[0] for o in offsets]

    def circle_count(r2):
        import bisect
        return bisect.bisect_right(r2s, r2)

    p = 1.0 - math.exp(k * math.log(z))
    cost = lambda d: a * d**beta
    c1 = circle_count(1)
    c2 = circle_count(2)

    sum_orig = 0.0
    sum_relays = 0
    sum_polluted = 0
    n_peer = 0
    for r2, di, dj in offsets:
        d = math.sqrt(r2) / n
        direct = cost(d)
        i_cont = max(0.0, n * d - 2)
        hop = d / (n * d - 1) if i_cont > 0 else d
        peer_cost = (i_cont + 1) * cost(hop)
        hops = max(abs(di), abs(dj))
        diag = min(abs(di), abs(dj))
        straight = hops - diag
        path_cost = straight * cost(1 / n) + diag * cost(math.sqrt(2) / n)
        peers = regime == "PERFCOMP" and i_cont > 0 and direct > peer_cost
        if peers:
            n_peer += 1
            sum_orig += v - path_cost
            sum_relays += hops - 1
            sum_polluted += straight * (c1 - 1) + diag * (c2 - 1)
        else:
            sum_orig += v - direct
            if regime == "PERFCOMP":
                sum_polluted += circle_count(r2) - 1
            else:
                sum_polluted += circle_count(r2)
    return {
        "k": k,
        "p": p,
        "peer_offsets": n_peer,
        "originator": p * sum_orig / k,
        "intermediate": -w * p * sum_relays / k,
        "outsider": -w * p * sum_polluted / k,
    }


# As n grows at fixed d_max, the greedy lattice walk to a destination at
# angle theta and length d takes n d max(|cos|, |sin|) hops, n d min(...) of
# them diagonal (7 nodes charged each) and the rest straight (3 each). Over a
# uniform direction E[max] = 2 sqrt(2)/pi and E[min] = (4/pi)(1 - 1/sqrt(2)),
# so the lattice charges 3 E[max] + 4 E[min] nodes per unit of n d, where the
# closed form's (n d - 1)(pi (n D)^2 - 2) tends to (pi - 2) n d. Their ratio
# less one is the limit of the PERFCOMP outsider's relative lattice gap.
PERFCOMP_OUTSIDER_GAP_LIMIT = (
    3 * 2 * math.sqrt(2) / math.pi + 4 * (4 / math.pi) * (1 - 1 / math.sqrt(2))
) / (math.pi - 2) - 1


# --------------------------------------------------------------------------
# Step-by-step greedy router over node ids i * side + j on a side x side torus

NEIGHBOR_STEPS = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


def node_index(side: int, i: int, j: int) -> int:
    return (i % side) * side + (j % side)


def wrap_delta(side: int, origin: int, destination: int) -> tuple[int, int]:
    """Minimal-magnitude integer offset from origin to destination,
    components in [-side//2, (side-1)//2]."""
    (oi, oj), (di, dj) = divmod(origin, side), divmod(destination, side)
    half = side // 2
    return (di - oi + half) % side - half, (dj - oj + half) % side - half


def torus_distance(side: int, spacing: float, origin: int, destination: int) -> float:
    """Euclidean length of wrap_delta's offset, at the given lattice spacing."""
    return math.hypot(*wrap_delta(side, origin, destination)) * spacing


def route_greedy(side: int, origin: int, destination: int) -> list[int]:
    """Greedy 8-neighbor path: hop to the adjacent node that minimizes the
    remaining torus distance, ties to the lowest node id. The walks the
    simulator tabulates per offset are held to this one."""
    if origin == destination:
        raise ValueError("route_greedy requires origin != destination")
    path = [origin]
    while path[-1] != destination:
        assert len(path) <= 4 * side, "hop budget exceeded: torus geometry is inconsistent"
        ci, cj = divmod(path[-1], side)
        path.append(min(
            (sum(x * x for x in wrap_delta(side, c, destination)), c)
            for c in (node_index(side, ci + si, cj + sj) for si, sj in NEIGHBOR_STEPS)
        )[1])
    return path

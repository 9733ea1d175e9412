"""Discrete Monte Carlo realization of the relay-economics model.

Nodes sit on a side x side square lattice with spacing 1/n, wrapped into a
torus so every node sees the same neighborhood. The torus therefore
reproduces the infinite lattice exactly (lattice_exact_means), without edge
bias; it does not reproduce the continuum closed forms, which approximate
the lattice only in the large-network limit. ComparisonRecord reports both:
the closed form as analytic and the exact lattice expectation as
RoleComparison.lattice_exact. During one simulated instant every node
independently wants a connection with probability P(K), K being the actual
count of lattice nodes within d_max, and draws its destination uniformly
from those K nodes. Routing is greedy over the 8 lattice neighbors: hop to
whichever neighbor minimizes the remaining torus distance (ties to the
lowest node index), which walks the diagonal while both coordinates differ
and then straight down the remaining row/column. Hop lengths are therefore
always 1/n or sqrt(2)/n.

Regime rules per connection:

  NO_PEERING      the originator transmits directly.
  NOTRANS         relays refuse unpriced work, so every would-be peering
                  connection falls back to direct (counted as refused).
  PERFCOMP        the originator peers whenever the relayed path beats the
                  direct cost at the competitive price; each relay is paid
                  the marginal cost of its own outgoing hop, so a relay
                  exposure nets exactly -w (incoming-signal pollution).

Every transmission of length L charges pollution w to each other node
within torus distance L of the transmitter. Under PERFCOMP the hop's
receiving endpoint is exempt from that circle (a receiving relay's w is
booked on its intermediate account instead; the final destination's is
not booked at all); under NO_PEERING/NOTRANS the receiver is included.
This mirrors the N(D) vs N(D)-1 asymmetry of the closed-form outsider
lines. All connections within a trial are simultaneous and non-blocking:
congestion degrades utility, it never blocks a link.

Because the torus is translation invariant, every per-connection quantity
(costs, hop counts, polluted-node counts, the path relative to its origin)
is a pure function of the destination offset. The simulator precomputes
those per-offset tables once and counts each trial's connecting offsets
into a per-offset histogram; the trial's tallies are that histogram dotted
with the tables, a reduction over the K offsets rather than over the
connections. Event traces and per-node exposures shift each offset's
tabulated path to the trial's origins; the tests hold those paths to a
step-by-step greedy router kept in tests/oracles.py. A circle is a prefix
of the sorted offsets, so per-node exposures count transmitters into one
image per circle count and shift the images by the offsets once per run.
Exact per-offset expectations are exposed via lattice_exact_means() for
diagnostics. Pollution and relay tallies are integer counts scaled by w at
the end, so accumulation order cannot perturb them.

Randomness: the stream for trial t of a run is PCG64 seeded by
SeedSequence([seed, t]) and consumed as fixed node-indexed arrays, so
trials are independent and a parallel executor could not reorder draws.
Identical configs give bit-identical outcomes. The generator states of all
trials are computed in one batch (SeedSequence's hashing as uint32 arrays,
PCG64's seeding step in Python ints, trial by trial) and loaded in turn
into one PCG64; they equal what SeedSequence([seed, t]) gives, so only the
per-trial construction cost goes. A trial draws N destination indices, one
per node, then the nodes that do not connect as geometric gaps between
them: about N (1 - P(K)) draws, none where P(K) == 1.0 exactly.
"""

import csv
import functools
import math
import numbers
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericsError, ParamError
from .model import (
    ModelParams,
    _combine,
    connect_probability,
    hop_distance_array,
    intermediate_count_array,
    validate,
)
from .regimes import Choice, ConnectionChoice, Regime, _value_row, regime_utilities

__all__ = [
    "SimConfig",
    "Lattice",
    "ConnectionEvent",
    "SimOutcome",
    "RoleComparison",
    "ComparisonRecord",
    "EVENT_CSV_HEADER",
    "build_lattice",
    "run_instant",
    "estimate_vs_analytic",
    "lattice_exact_means",
    "write_event_trace",
]

ROLES = ("originator", "intermediate", "outsider")
Z_FLAG_THRESHOLD = 3.0


def _check_int(name: str, value) -> None:
    # bool is an Integral subclass but never a count or a seed
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParamError(f"{name} must be an integer, got {value!r}")


def _check_side(side: int, params: ModelParams) -> None:
    _check_int("side", side)
    reach = 2 * params.d_max * params.n
    if not math.isfinite(reach):
        raise ParamError(f"2*d_max*n overflows: d_max={params.d_max!r}, n={params.n!r}")
    min_side = math.ceil(reach) + 1
    if side < min_side:
        raise ParamError(
            f"side must be >= ceil(2*d_max*n)+1 = {min_side} to avoid "
            f"torus aliasing of the d_max circle, got {side}"
        )
    if side**4 >= 2**53:
        raise ParamError(f"side must be <= 9741 so that side**4 < 2**53 keeps the "
                         f"float64 tally product exact, got {side}")


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: lattice size, parameters, regime, trials, seed.

    side must be at least ceil(2 * d_max * n) + 1 so the d_max circle cannot
    wrap onto itself, and at most 9741 (see run_instant); seed is a 64-bit
    unsigned integer. side, trials and seed must be integers (bool is rejected).
    """

    side: int
    params: ModelParams
    regime: Regime
    trials: int
    seed: int

    def validated(self) -> "SimConfig":
        validate(self.params)
        _check_side(self.side, self.params)
        _check_int("trials", self.trials)
        _check_int("seed", self.seed)
        if self.trials < 1:
            raise ParamError(f"trials must be >= 1, got {self.trials!r}")
        if not (0 <= self.seed < 2**64):
            raise ParamError(f"seed must be a 64-bit unsigned int, got {self.seed!r}")
        return self


class Lattice:
    """Torus lattice of side^2 nodes at spacing 1/n, with the destination
    neighborhood (all lattice offsets within d_max) enumerated once.

    Offsets are sorted by (squared lattice radius, di, dj); the members of
    any circle of squared lattice radius r2 are exactly a prefix of that
    ordering, which makes polluted-node counting an integer table lookup.
    """

    def __init__(self, side: int, params: ModelParams):
        _check_side(side, params)
        self.side = side
        self.params = params
        self.spacing = 1.0 / params.n
        self.n_nodes = side * side

        # Enumerate offsets with integer r2 <= (n*d_max)^2; the comparison is
        # done in squared lattice units so circle membership is exact.
        limit = (params.d_max * params.n) ** 2
        reach = int(math.floor(math.sqrt(limit))) + 1
        span = np.arange(-reach, reach + 1)
        di, dj = np.meshgrid(span, span, indexing="ij")
        r2 = di * di + dj * dj
        keep = (r2 > 0) & (r2 <= limit)
        di, dj, r2 = di[keep], dj[keep], r2[keep]
        order = np.lexsort((dj, di, r2))
        self.offset_di = di[order]
        self.offset_dj = dj[order]
        self.offset_r2 = r2[order]
        self.n_offsets = len(self.offset_r2)
        self.connect_prob = connect_probability(params, self.n_offsets)

    def circle_count(self, r2):
        """Other nodes within squared lattice radius r2 of any node; an array
        of radii gives the array of their counts."""
        return np.searchsorted(self.offset_r2, r2, side="right")


def build_lattice(config: SimConfig) -> Lattice:
    config.validated()
    return Lattice(config.side, config.params)


# --------------------------------------------------------------------------
# Per-offset tables: everything a connection does, keyed by its destination


class _RegimeTables:
    """Per-destination-offset outcomes under one regime.

    conn_cost   what the originator gives up: c(d) direct, or the whole
                path's transmission cost when peering (first hop paid in
                kind, the rest as marginal-cost transfers to the relays)
    tallies     the integer tables below as the rows of one (4, K) float64
                array, so a trial's offset histogram gives all four counts
                in one product; every entry is an integer below N = side^2,
                held exactly, and the named tables are views of its rows,
                so a run reads them without a copy
    peer        1 if the originator chooses the relayed path, else 0
    refused     NOTRANS only: 1 if the originator wanted to peer but relays
                refuse, else 0
    relays      relay count (hops - 1) for peered connections, else 0
    polluted    nodes charged w across all of the connection's transmissions

    receiver_exempt is whether polluted takes each hop's receiving endpoint
    out of its circle: under PERFCOMP only.
    """

    peer = property(lambda self: self.tallies[0])
    refused = property(lambda self: self.tallies[1])
    relays = property(lambda self: self.tallies[2])
    polluted = property(lambda self: self.tallies[3])
    receiver_exempt = False

    def __init__(self, lattice: Lattice, regime: Regime):
        p = lattice.params
        n = p.n
        di, dj, r2 = lattice.offset_di, lattice.offset_dj, lattice.offset_r2
        # The rows are filled in place and each temporary is dropped once its
        # row is written, so that few K-length arrays are alive at once.
        self.tallies = np.zeros((4, lattice.n_offsets))
        peer, refused, relays, polluted = self.tallies
        polluted[:] = lattice.circle_count(r2)  # receiver included

        d = np.sqrt(r2) / n
        self.conn_cost = p.cost.times(1.0, d)  # direct; peered entries are replaced below
        # Originator's DIRECT/PEER best response at the competitive price,
        # evaluated on the continuum quantities at the torus distance.
        # Product order ((I+1) a) D^beta: where n d rounds just above 2 the
        # two costs differ by about an ulp, and the order decides the choice.
        wants_peer = self.conn_cost > p.cost.times(  # ties go DIRECT
            intermediate_count_array(n, d) + 1, hop_distance_array(n, d))
        del d

        if regime is Regime.PEERING_NO_TRANSFERS:
            refused[:] = wants_peer
        elif regime is Regime.PEERING_PERFECT_COMPETITION:
            peer[:] = wants_peer
            hops = np.maximum(np.abs(di), np.abs(dj))
            diag = np.minimum(np.abs(di), np.abs(dj))
            relays[:] = np.where(wants_peer, hops - 1, 0)
            straight = hops - diag
            del hops
            self.conn_cost = np.where(
                wants_peer,
                straight * p.cost(1.0 / n) + diag * p.cost(math.sqrt(2.0) / n),
                self.conn_cost,
            )
            # Receiving endpoint of each hop is exempt from its circle.
            self.receiver_exempt = True
            c1, c2 = lattice.circle_count(1), lattice.circle_count(2)
            polluted[:] = np.where(wants_peer, straight * (c1 - 1) + diag * (c2 - 1), polluted - 1)


class _PathTables:
    """Each destination offset's realized path, built for the diagnostics.

    The greedy walk in closed form: after t steps a peered connection to
    offset (di, dj) sits at (sgn(di) min(t, |di|), sgn(dj) min(t, |dj|));
    a direct one jumps to (di, dj) in one step. pos_i, pos_j hold those
    (K, H + 1) positions, padded with the destination; hops counts each
    offset's transmissions, charged[k, t] the nodes in transmission t's
    circle (0 past the last hop), levels the distinct values in charged and
    slots[k, t] where the row of charged[k, t]'s level starts in a flat
    (levels, N) image array."""

    def __init__(self, lattice: Lattice, tables: _RegimeTables):
        self.lattice, self.tables = lattice, tables
        di, dj = lattice.offset_di, lattice.offset_dj
        peer = tables.peer.astype(bool)
        self.hops = tables.relays.astype(np.int64) + 1  # a direct path has no relays
        t = np.arange(self.hops.max() + 1)
        steps = np.where(peer[:, None], t, np.minimum(t, 1) * lattice.side)
        self.pos_i = np.sign(di)[:, None] * np.minimum(steps, np.abs(di)[:, None])
        self.pos_j = np.sign(dj)[:, None] * np.minimum(steps, np.abs(dj)[:, None])
        step_i, step_j = np.diff(self.pos_i), np.diff(self.pos_j)
        self.charged = lattice.circle_count(step_i**2 + step_j**2)
        self.levels, level_of = np.unique(self.charged, return_inverse=True)
        self.slots = level_of.reshape(self.charged.shape) * lattice.n_nodes

    @functools.cached_property
    def fields(self) -> list:
        """fields[k] are a ConnectionEvent's last three fields for offset k,
        built by the first events call: per-node runs never read them."""
        p, tables, spacing = self.lattice.params, self.tables, self.lattice.spacing
        lengths = [
            tuple(math.hypot(a, b) * spacing for a, b in zip(si[:h], sj[:h])) for si, sj, h in
            zip(np.diff(self.pos_i).tolist(), np.diff(self.pos_j).tolist(), self.hops.tolist())
        ]
        return [
            (hl, ConnectionChoice(Choice.PEER if pk else Choice.DIRECT, p.v - cost),
             sum(p.cost(x) for x in hl[1:]) if pk else 0.0)
            for hl, pk, cost in zip(lengths, tables.peer.tolist(), tables.conn_cost.tolist())
        ]

    def walk(self, origins: np.ndarray, ks: np.ndarray):
        """Lattice rows and columns of the paths from node ids origins to
        offsets ks, one (H + 1)-wide row per connection."""
        side = self.lattice.side
        oi, oj = np.divmod(origins, side)
        return (oi[:, None] + self.pos_i[ks]) % side, (oj[:, None] + self.pos_j[ks]) % side

    def events(self, trial: int, origins: np.ndarray, ks: np.ndarray) -> list:
        ti, tj = self.walk(origins, ks)
        rows = (ti * self.lattice.side + tj).tolist()
        hops = self.hops.tolist()
        return [
            ConnectionEvent(trial, origin, row[hops[k]], tuple(row[:hops[k] + 1]), *self.fields[k])
            for origin, k, row in zip(origins.tolist(), ks.tolist(), rows)
        ]

    def charge(self, images, per_node, origins, ks) -> None:
        """Count each transmission at its transmitter node in images, in the
        row of its circle count; where the tables' regime exempts receivers,
        take each hop's receiving endpoint out of per_node. The padding past
        a path's end counts in the row of count 0, which charges no node."""
        ti, tj = self.walk(origins, ks)
        nodes = ti * self.lattice.side + tj
        if self.tables.receiver_exempt:
            per_node -= np.bincount(nodes[:, 1:][self.charged[ks] > 0], minlength=per_node.size)
        np.add.at(images, self.slots[ks] + nodes[:, :-1], 1)

    def spread(self, images, per_node) -> None:
        """Add the circles of the transmissions counted in images to
        per_node, consuming images. A circle of count c holds the first c
        offsets around its transmitter, so offset j is charged by the
        transmissions of count above j: after a reverse cumulative sum over
        the levels, the row of the first level above j, shifted by offset j."""
        side = self.lattice.side
        grid, out = images.reshape(-1, side, side), per_node.reshape(side, side)
        np.cumsum(grid[::-1], axis=0, out=grid[::-1])
        above = np.searchsorted(self.levels, np.arange(self.levels[-1]), side="right")
        shifts = zip(self.lattice.offset_di.tolist(), self.lattice.offset_dj.tolist())
        for row, shift in zip(above.tolist(), shifts):
            out += np.roll(grid[row], shift, axis=(0, 1))


# --------------------------------------------------------------------------
# Outcome records


@dataclass(frozen=True)
class ConnectionEvent:
    """One realized connection, for traces and event-level invariants."""

    trial: int
    origin: int
    destination: int
    path: tuple
    hop_lengths: tuple
    choice: ConnectionChoice
    transfers_paid: float


EVENT_CSV_HEADER = (
    "trial", "origin", "destination", "path", "hop_lengths", "choice",
    "net_utility", "transfers_paid",
)


@dataclass(frozen=True)
class SimOutcome:
    """Monte Carlo tallies: per-node per-role means (mean) with standard
    errors from per-trial variation (stderr), each keyed originator,
    intermediate, outsider and total; event counts; and each role's
    per-trial series (per_trial, a tuple per role). connections_direct is
    read from the stored counts.

    Standard errors are NaN for a single trial (no variance estimate).
    """

    regime: Regime
    side: int
    trials: int
    seed: int
    mean: dict
    stderr: dict
    connections_attempted: int
    connections_peered: int
    connections_refused: int
    pollution_events: int
    per_trial: dict
    per_node_outsider_exposures: tuple | None = None
    events: tuple | None = None

    @property
    def connections_direct(self) -> int:
        return self.connections_attempted - self.connections_peered

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime.value,
            "side": self.side,
            "trials": self.trials,
            "seed": self.seed,
            "mean": dict(self.mean),
            "stderr": dict(self.stderr),
            "counts": {
                "attempted": self.connections_attempted,
                "direct": self.connections_direct,
                "peered": self.connections_peered,
                "refused": self.connections_refused,
            },
            "pollution_events": self.pollution_events,
            "per_trial": {role: list(values) for role, values in self.per_trial.items()},
        }


def _mean_se(series: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of a per-trial series, taken in the exact
    power-of-2 unit of its largest magnitude where that reaches 2^511 or is
    below 2^-511, so the sums of std's squares can neither overflow nor
    underflow (ldexp also scales by 2^1024, which no float holds)."""
    exponent = math.frexp(float(np.abs(series).max()))[1]
    exponent = 0 if -511 < exponent <= 511 else exponent
    series = np.ldexp(series, -exponent)
    mean = math.ldexp(float(series.mean()), exponent)
    if not mean and np.signbit(series).all():
        mean = -0.0  # a sum of -0.0s is -0.0; numpy's mean sums from +0.0
    if len(series) < 2:
        return mean, float("nan")
    return mean, math.ldexp(float(series.std(ddof=1) / math.sqrt(len(series))), exponent)


def _baseline(regime: Regime) -> Regime:
    """The regime whose closed form a run under regime is compared with: its
    own, but NO_PEERING for NOTRANS, where relays refuse and the realized
    play is the no-peering outcome."""
    return Regime.NO_PEERING if regime is Regime.PEERING_NO_TRANSFERS else regime


def _lattice_roles(config, prob, connections, cost, relays, polluted, den=1.0):
    """The roles, over den, from the lattice's term basis: connections, the
    originators' cost in units of c(d_max), relays and polluted nodes, with
    demand probability prob and the value row of _baseline's closed form."""
    zero = np.zeros(len(cost))
    return _combine(config.params, prob,
                    np.copysign((connections, zero, zero), _value_row(_baseline(config.regime))),
                    np.array((cost, zero, zero)), np.array((zero, relays, polluted)), den=den)


def _build(config: SimConfig) -> tuple[Lattice, _RegimeTables]:
    lattice = build_lattice(config)
    return lattice, _RegimeTables(lattice, config.regime)


# --------------------------------------------------------------------------
# Per-trial streams: PCG64(SeedSequence([seed, t])) for every trial at once

# numpy's SeedSequence hash and mix constants and PCG64's 128-bit multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_WORDS = 4
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _hash(value: np.ndarray, h: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of the uint32 array value under its running hash
    constant h, and the constant's next value."""
    after = h * mult & _MASK32
    value = (value ^ np.uint32(h)) * np.uint32(after)  # wraps mod 2**32
    return value ^ (value >> 16), after


def _pcg64_states(seed: int, trials: np.ndarray) -> Iterator[dict]:
    """PCG64(SeedSequence([seed, t])).state for each t in trials, in turn.

    SeedSequence splits seed and t into 32-bit words, least significant
    first, one word for a value below 2**32 and two otherwise: at most four,
    its pool size, and a pool word with no entropy word hashes a zero. So
    the pool of every t hashes the same four columns, the seed's words, then
    t's low and high words, then zeros; its mixing and generate_state(4,
    np.uint64) run once over all trials as uint32 arrays. PCG64 seeds its
    128-bit LCG from the four 64-bit words (initstate from the first two,
    the increment from the last two) by one step from state 0, adding
    initstate, and one more step, in Python ints, one trial at a time, so
    that only one state dict is alive.
    """
    trials = np.asarray(trials, dtype=np.uint64)
    seed_words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    words = [np.full(trials.shape, w, np.uint32) for w in seed_words]
    words += [(trials & _MASK32).astype(np.uint32), (trials >> 32).astype(np.uint32)]
    words += [np.zeros(trials.shape, np.uint32)] * (_POOL_WORDS - len(words))

    pool, h = [], _INIT_A
    for word in words:
        hashed, h = _hash(word, h, _MULT_A)
        pool.append(hashed)
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                hashed, h = _hash(pool[src], h, _MULT_A)
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
                pool[dst] = mixed ^ (mixed >> 16)

    generated, h = [], _INIT_B
    for i in range(2 * _POOL_WORDS):
        value, h = _hash(pool[i % _POOL_WORDS], h, _MULT_B)
        generated.append(value.astype(np.uint64))
    # PCG's initstate and initseq, each from two of the four 64-bit words
    init_hi, init_lo, seq_hi, seq_lo = (
        (generated[2 * j + 1] << 32 | generated[2 * j]).tolist() for j in range(_POOL_WORDS)
    )
    for s_hi, s_lo, q_hi, q_lo in zip(init_hi, init_lo, seq_hi, seq_lo):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        yield {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }


def _first_gap(rng: np.random.Generator, q: float) -> float:
    """The draw of rng.geometric(q, 1), as a float whose ceiling it is. Below
    q = 1/3 numpy's geometric is ceil(-E / log1p(-q)) of one standard
    exponential E, drawn here as a scalar, without an array; the float is
    inf where numpy returns INT64_MAX. From 1/3 up numpy searches, and the
    draw is its own."""
    if q < 1 / 3:
        return -rng.standard_exponential() / math.log1p(-q)
    return float(rng.geometric(q, 1)[0])


def _failing_nodes(rng: np.random.Generator, q: float, n_nodes: int) -> np.ndarray:
    """The ascending indices of the nodes, of n_nodes, that do not connect,
    each independently with probability q > 0: the partial sums of
    rng.geometric(q) gaps, minus one, that fall below n_nodes.

    The first gap is drawn alone (_first_gap): at small q it mostly lands
    past the last node, and no node fails. The rest come in batches sized
    to reach n_nodes at the mean count plus four standard deviations, with
    more batches while they fall short; nothing is drawn after them, so the
    batch sizes move no output. numpy returns INT64_MAX for a gap past that
    range at tiny q, so each batched gap is clipped at n_nodes + 1 before
    the sum; the first is compared with n_nodes before any sum or int
    conversion.
    """
    gap = _first_gap(rng, q)
    if gap > n_nodes:  # the first position, ceil(gap) - 1, is past the last node
        return np.empty(0, dtype=np.int64)
    last = math.ceil(gap) - 1  # the latest position summed so far
    mean = n_nodes * q
    batch = min(n_nodes, int(mean + 4.0 * math.sqrt(mean)) + 1)
    batches = [np.array([last], dtype=np.int64)]
    while last < n_nodes - 1:
        gaps = np.minimum(rng.geometric(q, batch), n_nodes + 1)
        gaps[0] += last  # so that the partial sums are the positions
        batches.append(np.cumsum(gaps, out=gaps))
        last = int(gaps[-1])
    positions = batches[0] if len(batches) == 1 else np.concatenate(batches)
    return positions[:np.searchsorted(positions, n_nodes)]


def run_instant(
    config: SimConfig,
    collect_per_node: bool = False,
    collect_events: bool = False,
    *,
    _built: tuple[Lattice, _RegimeTables] | None = None,
) -> SimOutcome:
    """Simulate config.trials independent instants and tally by role.

    collect_per_node adds per-node outsider exposure counts (summed over
    trials); collect_events attaches the full ConnectionEvent list. Both
    are diagnostics, built from each offset's path in _PathTables, and
    cost time; the statistical outcome is identical with or without them.
    The exposures are counted per trial at each transmitter node, in one
    int64 image of side^2 nodes per distinct circle count, and spread once
    per run, as K shifted adds of side^2 counts, over the circles' offsets.

    Each trial's tallies come from the histogram of its connecting
    destination offsets: the integer counts as one float64 product with the
    (4, K) tables, exact because every partial sum is an integer below
    2**53, the originator's cost sum as an elementwise product summed
    without BLAS; so no byte depends on the BLAS library or its thread
    count. The trials' generator states are hashed in one batch and
    yielded in turn, and each trial loads its state into one reused PCG64.

    A trial's stream gives every node its destination offset,
    integers(0, K, N), and then, unless P(K) == 1.0, the nodes that do not
    connect, as geometric(q) gaps between them with q = 1 - P(K)
    (_failing_nodes): about N q draws instead of one uniform per node.
    Each node still fails independently with probability q, so
    lattice_exact_means stays the run's exact expectation. The diagnostics
    take the connecting nodes as origins, in ascending order.
    """
    lattice, tables = _built or _build(config)
    n_nodes = lattice.n_nodes
    k_offsets = lattice.n_offsets
    q_fail = 1.0 - lattice.connect_prob  # exact where P(K) >= 1/2

    # per trial: connections, the four tallies and the originators' cost sum in
    # units of c(d_max), which cannot overflow where the per-node cost does not
    n_conn = np.empty(config.trials, dtype=np.int64)
    tallies = np.empty((config.trials, 4), dtype=np.int64)
    cost = np.empty(config.trials)
    conn_cost = tables.conn_cost / lattice.params.cost(lattice.params.d_max)
    per_node = np.zeros(n_nodes, dtype=np.int64) if collect_per_node else None
    events: list[ConnectionEvent] = []
    paths = _PathTables(lattice, tables) if collect_per_node or collect_events else None
    # one side^2 image of transmitter counts per circle count, for spread
    images = np.zeros(paths.levels.size * n_nodes, dtype=np.int64) if collect_per_node else None
    # Each table entry is below N = side^2 (K < N, and a relayed path charges
    # at most 7 nodes per hop over at most side / 2 hops), so every partial
    # sum of tables.tallies @ hist is an integer below N^2 < 2**53
    # (_check_side): the float64 product is exact in any summation order,
    # BLAS threads included, and equals the integer one.
    bit_gen = np.random.PCG64(0)  # each trial sets its own state
    rng = np.random.Generator(bit_gen)
    failing = np.empty(0, dtype=np.int64)  # at P(K) == 1.0 every node connects

    for trial, state in enumerate(_pcg64_states(config.seed, np.arange(config.trials))):
        bit_gen.state = state
        ks = rng.integers(0, k_offsets, n_nodes)
        hist = np.bincount(ks, minlength=k_offsets)
        if q_fail > 0.0:
            failing = _failing_nodes(rng, q_fail, n_nodes)
            if failing.size:
                hist -= np.bincount(ks[failing], minlength=k_offsets)
        hist = hist.astype(np.float64)

        n_conn[trial] = n_nodes - failing.size
        tallies[trial] = tables.tallies @ hist
        cost[trial] = (conn_cost * hist).sum()

        if paths is not None:
            origins = np.delete(np.arange(n_nodes), failing)
            ks = ks[origins]
            if collect_events:
                events += paths.events(trial, origins, ks)
            if collect_per_node:
                paths.charge(images, per_node, origins, ks)

    if collect_per_node:
        paths.spread(images, per_node)
    return _outcome(config, n_conn, tallies, cost, per_node,
                    tuple(events) if collect_events else None)


def _outcome(config, n_conn, tallies, cost, per_node, events) -> SimOutcome:
    """A run's SimOutcome from its per-trial connection counts, (trials, 4)
    int64 tallies and originator cost sums in units of c(d_max), plus the
    diagnostics; a per-node value past the float range raises NumericsError."""
    n_nodes = config.side * config.side
    _, _, relays, polluted = tallies.T
    with np.errstate(over="ignore", invalid="ignore"):
        roles = _lattice_roles(config, 1.0, n_conn, cost, relays, polluted, den=n_nodes)
        series = dict(zip((*ROLES, "total"), (*roles, roles[0] + roles[1] + roles[2])))
    for role, values in series.items():
        if not np.isfinite(values).all():
            raise NumericsError(f"{config.regime.value} per-trial {role} utility is not finite")
    peered, refused, _, pollution_total = tallies.sum(axis=0).tolist()
    means, errors = zip(*map(_mean_se, series.values()))
    return SimOutcome(
        regime=config.regime,
        side=config.side,
        trials=config.trials,
        seed=config.seed,
        mean=dict(zip(series, means)),
        stderr=dict(zip(series, errors)),
        connections_attempted=int(n_conn.sum()),
        connections_peered=peered,
        connections_refused=refused,
        pollution_events=pollution_total,
        per_trial={role: tuple(series[role].tolist()) for role in ROLES},
        per_node_outsider_exposures=None if per_node is None else tuple(per_node.tolist()),
        events=events,
    )


def lattice_exact_means(
    config: SimConfig, *, _built: tuple[Lattice, _RegimeTables] | None = None
) -> dict:
    """Exact per-node expected role means of the discrete model (no Monte
    Carlo error): demand probability times the per-offset average."""
    lattice, tables = _built or _build(config)
    p = lattice.params
    cost, relays, polluted = ([np.mean(row)] for row in (
        tables.conn_cost / p.cost(p.d_max), tables.relays, tables.polluted))
    roles = _lattice_roles(config, lattice.connect_prob, [1.0], cost, relays, polluted)
    return dict(zip(ROLES, roles[:, 0].tolist()))


# --------------------------------------------------------------------------
# Cross-validation against the closed forms


@dataclass(frozen=True)
class RoleComparison:
    """One role's simulator mean and standard error beside its closed form
    and its exact lattice expectation; bias, z and flagged (see
    ComparisonRecord and estimate_vs_analytic) are read from them."""

    role: str
    sim_mean: float
    sim_se: float
    analytic: float
    lattice_exact: float

    @property
    def bias(self) -> float:
        return self.sim_mean - self.analytic

    @property
    def z(self) -> float:
        if self.sim_se > 0:
            return self.bias / self.sim_se
        return 0.0 if self.bias == 0 else math.copysign(math.inf, self.bias)

    @property
    def flagged(self) -> bool:
        gap = self.sim_mean - self.lattice_exact
        return abs(gap) > Z_FLAG_THRESHOLD * self.sim_se if self.sim_se > 0 else gap != 0

    def to_json_dict(self) -> dict:
        return {**asdict(self), "bias": self.bias, "z": self.z, "flagged": self.flagged}


@dataclass(frozen=True)
class ComparisonRecord:
    """Simulator means vs closed forms, with z-scores and measured bias.

    analytic_baseline names the closed form used: the regime's own, except
    under NOTRANS where relays refuse and the realized play is the
    no-peering outcome, so that is the comparable baseline. lattice_exact
    is the exact expectation of the discrete model itself; sim_mean differs
    from it only by Monte Carlo noise, while bias and z against the
    continuum closed form also carry the deterministic lattice offset.
    flagged and flags therefore test sim_mean against lattice_exact: a flag
    means the Monte Carlo disagrees with its own model, not that the lattice
    differs from the continuum.
    """

    outcome: SimOutcome
    analytic_baseline: Regime
    roles: tuple

    @property
    def flags(self) -> tuple:
        return tuple(rc.role for rc in self.roles if rc.flagged)

    def role(self, name: str) -> RoleComparison:
        for rc in self.roles:
            if rc.role == name:
                return rc
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome.to_json_dict(),
            "analytic_baseline": self.analytic_baseline.value,
            "roles": [rc.to_json_dict() for rc in self.roles],
            "flags": list(self.flags),
        }


def estimate_vs_analytic(config: SimConfig, *, collect_events: bool = False) -> ComparisonRecord:
    """Run the simulation and compare per-role means to the closed forms.

    Requires >= 30 trials for a usable variance estimate. bias and z are
    measured against the closed form. A role is flagged when its simulator
    mean sits more than 3 standard errors from lattice_exact, or differs
    from it at all when the standard error is zero. collect_events is
    passed to run_instant, so record.outcome.events holds the trace of the
    very run the record compares. The lattice and its tables are built once
    for the run and the exact means; building them validates config, before
    the trials check, so a config that is invalid anyway reports that first.
    The closed form is evaluated before the trials run, so that one which is
    not finite is reported without running them.
    """
    built = _build(config)
    if config.trials < 30:
        raise ParamError(
            f"trials must be >= 30 for a usable variance estimate, got {config.trials!r}"
        )
    baseline = _baseline(config.regime)
    analytic = regime_utilities(config.params, baseline)
    outcome = run_instant(config, collect_events=collect_events, _built=built)

    analytic_by_role = {
        "originator": analytic.eu_originator,
        "intermediate": analytic.eu_intermediate,
        "outsider": analytic.eu_outsider,
        "total": analytic.total,
    }
    exact = lattice_exact_means(config, _built=built)
    exact["total"] = sum(exact.values())
    return ComparisonRecord(outcome, baseline, tuple(
        RoleComparison(role, outcome.mean[role], outcome.stderr[role], analytic_by_role[role],
                       exact[role])
        for role in (*ROLES, "total")))


def write_event_trace(events, fh) -> None:
    """Write ConnectionEvents as CSV to the text stream fh, one row per
    event (debugging aid); the caller owns the file."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(EVENT_CSV_HEADER)
    for ev in events:
        writer.writerow([
            ev.trial,
            ev.origin,
            ev.destination,
            "|".join(str(i) for i in ev.path),
            "|".join(repr(h) for h in ev.hop_lengths),
            ev.choice.mode.value,
            repr(ev.choice.net_utility),
            repr(ev.transfers_paid),
        ])

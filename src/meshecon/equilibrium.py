"""Density equilibria: free entry, club optimum, and congestion scaling.

The solvers work in Y = n d_max, the one density the roles depend on (see
regimes), so the search is the same for every template: both scan one
bracket, from Y = 2 to the first doubling from 4 whose total utility is
negative (or BRACKET_CAP), at GRID_POINTS evenly spaced Y; their rounds
place Y values, DENSITY_TOL bounds the club's last cell in Y, and the
scaling fit's densities are fixed Y. n = Y / d_max is formed only for
results, diagnostics, findings and error texts. The densities the steps
place (the grid's inner points, each round's, the closed-form root) are
_replayed: each is the Y that its n gives back, fl(fl(Y/d_max) d_max), so
a result's roles are those regime_utilities gives at its printed n. The
grid's 198 inner points take the same arithmetic as one array expression,
_replayed_array.

Free entry: nodes keep joining while a marginal node's total expected
utility (originator + intermediate + outsider) is positive, so the
equilibrium density is the largest downcrossing of total utility through
zero — entry accumulates until utility hits zero from above, and any
smaller root is unstable under that dynamic. The scan's crossing is refined
in rounds: each evaluates REFINE_POINTS densities placed around the
regula-falsi root of the current cell's ends (the root itself, and toward
each end a ladder of densities, halfway there first and then geometrically
closer to the root) and keeps the cell of their largest downcrossing, until
an endpoint's residual |total utility| is within tolerance. Without peering
the total falls for every Y > 1 and its root has a closed form, which free
entry takes without a scan or rounds where the scan would find a
downcrossing: where the total is positive at Y = 2 and not at the bracket's
upper end. The root needs v', the originator's role at P = 1, which
model._combine forms from the originator's constant rows, so no term basis
is built outside an evaluation call.

Club: an entry-controlling club admits members up to the density that
maximizes the same per-node total under competitive relay pricing (not
aggregate welfare n^2 x per-node utility — the per-node sum is the club
member's objective). The scan's argmax is refined in rounds that place
REFINE_POINTS densities the same way around the vertex of the parabola
through the cell's ends and its argmax, and keep the two cells around the
round's argmax, until b - a is within tolerance. The result is the middle
density of the last cell (a, m, b), the best total evaluated, with the
roles the scan or a round evaluated and checked there. A maximum pinned to
a bracket edge is surfaced as BoundaryOptimum rather than reported as an
interior solution, since its economics are ambiguous.

Density is a continuous control throughout; "slots" map to choosing n.
A result holds the RegimeUtilities at its density and the SolverDiagnostics
(bracket, refinement rounds, residual).

Each solver is a step routine: a generator that yields the Y values it needs
next (bracket doublings, the scan grid, a refinement round, the scaling
densities) and is sent their (3, m) role array, as
utility_arrays returns it. The bracket is one step, _bracket_steps: one call
on the doublings and any riders, which picks the upper end, and the scan
returns the bracket with its grid. _lockstep groups the steps into
evaluations, whose values are bit-identical to one-density calls whatever
else the batch holds, so the grouping moves no output. A public solver
drives its steps alone, one evaluation per step. compare_regimes validates
once and makes one evaluation per round for all pending densities of a
regime: the scaling densities ride in the bracket's doubling call, as
without peering do free entry's Y = 2 and closed-form root, free entry under
competitive pricing and the club refine in lockstep on one shared scan; on
the default template that is 8 evaluations, 1 without peering. The scaling
fits' checks and centred log densities depend on no regime, and
compare_regimes makes them once (_scaling_fit); each regime's step then
takes only its outsiders' logs and the slope. A refinement carries its
densities' roles in a cell of plain floats, a list of
(Y, total, (orig, inter, out)) points sorted by Y, so each result takes its
roles from the round that evaluated its density; a point's total is summed
once, by _points, and the steps read it there. _lockstep only batches: it
evaluates a round unchecked and sends each solver its own columns, and each
step checks the columns it reads (the bracket its doublings up to its upper
end, and n = Y / d_max at both ends), raising the NumericsError
utility_arrays would raise for them. A total is finite only where its three
roles are, so where a step holds the totals (the bracket, the closed-form
riders, a round) it reads them first and checks the roles only behind a
total that is not finite. So errors surface as in a sequential run: a
solver's error waits until the solvers before it have finished.
"""

import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter, lt, mul

import numpy as np

from .errors import BoundaryOptimum, NoCrossing, NumericsError, ParamError
from .model import (ModelParams, _combine, connect_probability_array, hop_distance_array,
                    intermediate_count, nodes_within_array, params_to_dict, validate)
from .regimes import Regime, RegimeUtilities, _raise_not_finite, _roles, regime_utilities

__all__ = [
    "EquilibriumKind",
    "EquilibriumResult",
    "SolverDiagnostics",
    "RegimeComparison",
    "total_eu",
    "default_bracket",
    "free_entry_density",
    "club_optimal_density",
    "congestion_scaling_exponent",
    "compare_regimes",
]

RESIDUAL_TOL = 1e-9          # |total utility| at a reported free-entry root
DENSITY_TOL = 1e-6           # width in Y of the club optimum's last cell
BRACKET_CAP = 1e5            # ceiling on Y for automatic bracket growth
SCALING_MIN_P = 0.99         # demand saturation required for a clean exponent fit
GRID_POINTS = 200            # densities per bracket scan
REFINE_POINTS = 15           # densities per refinement round
MAX_ROUNDS = 50              # refinement round limit; a round at least halves a cell
# a round evaluates an estimate and, toward each end of the cell, densities
# at these fractions of the way there: halfway, then geometrically closer
_FREE_ENTRY_RUNGS = tuple(0.5 * 16.0**-k for k in range(REFINE_POINTS // 2))
_CLUB_RUNGS = tuple(0.5 * 4.0**-k for k in range(REFINE_POINTS // 2))
# and at least these many ulps of the cell's upper end away from the estimate
_ULPS = tuple(2.0 * k for k in range(REFINE_POINTS // 2, 0, -1))


class EquilibriumKind(Enum):
    FREE_ENTRY = "FREE_ENTRY"
    CLUB_OPTIMUM = "CLUB_OPTIMUM"


@dataclass(frozen=True)
class SolverDiagnostics:
    """The scanned bracket, refinement rounds and final residual."""

    iterations: int
    n_lo: float
    n_hi: float
    residual: float
    notes: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "grid_points": GRID_POINTS,
            "residual": self.residual,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class EquilibriumResult:
    """A solved density with the utilities prevailing there."""

    kind: EquilibriumKind
    utilities: RegimeUtilities
    diagnostics: SolverDiagnostics

    @property
    def regime(self) -> Regime:
        return self.utilities.regime

    @property
    def n_star(self) -> float:
        return self.utilities.params.n

    @property
    def total_eu_at_n_star(self) -> float:
        return self.utilities.total

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "regime": self.regime.value,
            "n_star": self.n_star,
            "total_eu_at_n_star": self.total_eu_at_n_star,
            "utilities": self.utilities.to_json_dict(),
            "diagnostics": self.diagnostics.to_json_dict(),
        }


def total_eu(template: ModelParams, n: float, regime: Regime) -> float:
    """Total per-node expected utility at density n (template's other
    parameters unchanged)."""
    return regime_utilities(template.with_n(n), regime).total


# what a step routine may end in besides a result; anything else propagates
_STEP_OUTCOMES = (NoCrossing, BoundaryOptimum, NumericsError, ParamError)


def _lockstep(template, regime, lanes):
    """Run step routines side by side and return each one's outcome: its
    return value, or the finding or error it raised.

    Each round evaluates the pending densities of every lane in one _roles
    call, unchecked, and sends each lane the columns of its own densities;
    a lane checks the columns it reads (see _evaluate).
    """
    outcomes = [None] * len(lanes)
    sends = [(i, None) for i in range(len(lanes))]  # (lane, roles)
    while True:
        batch = []
        for i, roles in sends:
            try:
                batch.append((i, lanes[i].send(roles)))
            except StopIteration as stop:
                outcomes[i] = stop.value
            except _STEP_OUTCOMES as exc:
                # kept without this frame, whose outcomes would hold exc in a cycle
                outcomes[i] = exc.with_traceback(exc.__traceback__.tb_next)
        if not batch:
            return outcomes
        ys = [y for _, d in batch for y in d] if len(batch) > 1 else batch[0][1]
        roles = _roles(template, regime, np.asarray(ys))
        sends, lo = [], 0
        for i, densities in batch:
            sends.append((i, roles[:, lo : lo + len(densities)]))
            lo += len(densities)


def _evaluate(template, regime, ys):
    """A step that yields the densities ys and returns their role columns,
    raising the NumericsError utility_arrays would at the first density
    whose roles are not all finite."""
    roles = yield ys
    _raise_not_finite(regime, ys, roles, template.d_max)
    return roles


def _drive(template, regime, steps):
    """Run one step routine alone: one evaluation per step, and its outcome
    returned or raised."""
    (outcome,) = _lockstep(template, regime, [steps])
    if isinstance(outcome, _STEP_OUTCOMES):
        raise outcome
    return outcome


def default_bracket(template: ModelParams, regime: Regime) -> tuple:
    """The bracket both solvers scan, as densities (n_lo, n_hi) = (2, Y_hi) /
    d_max, where relaying begins at Y = 2 and Y_hi is the first doubling from
    Y = 4 whose total utility is negative, or BRACKET_CAP, where a scan then
    reports no crossing rather than inventing one."""
    return _drive(template, regime, _bracket_steps(template, regime))[0]


_DOUBLINGS = [4.0]
while _DOUBLINGS[-1] < BRACKET_CAP:
    _DOUBLINGS.append(min(2 * _DOUBLINGS[-1], BRACKET_CAP))


def _bracket_steps(template, regime, riders=()):
    """default_bracket's one step in Y: one call on every doubling, then the
    riders. The upper end Y_hi is the first doubling whose total is not >= 0,
    or the last; the doublings up to it are checked, then n = Y / d_max at
    both ends. Returns the bracket (n_lo, n_hi), Y_hi, the role column there
    and the riders' columns, unchecked."""
    m = len(_DOUBLINGS)
    roles = yield _DOUBLINGS + list(riders)
    totals = sum(roles[:, :m]).tolist()
    i = next((i for i, t in enumerate(totals) if not t >= 0), m - 1)
    if not math.isfinite(sum(totals[: i + 1])):  # finite totals have finite roles
        _raise_not_finite(regime, _DOUBLINGS[: i + 1], roles[:, : i + 1], template.d_max)
    y_hi = _DOUBLINGS[i]
    for y in (2.0, y_hi):
        if not math.isfinite(y / template.d_max):
            raise NumericsError(f"the bracket end at Y={y!r} is not finite: n = Y/d_max = "
                                f"{y / template.d_max!r} with d_max={template.d_max!r}")
    return (2.0 / template.d_max, y_hi / template.d_max), y_hi, roles[:, i : i + 1], roles[:, m:]


def _scan_steps(template, regime):
    """The default bracket's grid in Y, its role arrays and the bracket. The
    grid's inner points are _replayed; its ends are the bracket's, and the
    doubling call has evaluated the last, its upper end."""
    bracket, y_hi, top, _ = yield from _bracket_steps(template, regime)
    grid = np.linspace(2.0, y_hi, GRID_POINTS)
    grid[1:-1] = _replayed_array(grid[1:-1], template.d_max)
    roles = np.concatenate(((yield from _evaluate(template, regime, grid[:-1])), top), axis=1)
    return grid, roles, bracket


def _scan(template, regime):
    """The default bracket's grid in Y, its role array and the bracket."""
    return _drive(template, regime, _scan_steps(template, regime))


def _replayed(ys, d_max):
    """The densities ys, each moved to fl(fl(Y/d_max) d_max), the Y that the
    reported n = Y/d_max gives back; a Y whose quotient is not finite or is 0
    is kept, since no n gives it back."""
    return [n * d_max if 0 < (n := y / d_max) < math.inf else y for y in ys]


def _replayed_array(ys, d_max):
    """_replayed for an array of densities, as one array expression."""
    with np.errstate(over="ignore"):
        n = ys / d_max
    return np.where((0 < n) & (n < math.inf), n * d_max, ys)


def _points(ys, roles):
    """The densities ys, a list of floats, with their role columns roles as a
    cell: a list of (Y, total, (orig, inter, out)) points of floats. The
    total is formed here once, 0.0 + orig + inter + out, so it is finite only
    where all three roles are."""
    return [(y, 0.0 + o + i + u, (o, i, u)) for y, o, i, u in zip(ys, *roles.tolist())]


_TOTAL = itemgetter(1)


def _refine_steps(template, regime, cell, estimate, rungs):
    """One refinement round in the cell, a list of points sorted by density,
    from cell[0] to cell[-1]. The round evaluates the estimate and, toward
    each end of the cell, the densities at the fractions rungs of the way
    there, kept at least two ulps apart; where those, _replayed, do not fall
    apart and in order inside the cell, REFINE_POINTS evenly spaced densities,
    _replayed, instead. It evaluates no density of the cell again, and raises
    the NumericsError utility_arrays would where a role is not finite. Returns
    the round's points, as _points forms them, with the cell's, sorted by
    density."""
    a, b = cell[0][0], cell[-1][0]
    ulp = math.ulp(b)
    # a rung lies its fraction r of the way to the end, or k ulps of b away
    # where that is farther: max(d, f), without a call per rung
    below = [estimate - (f if (f := ulp * k) > (d := (estimate - a) * r) else d)
             for r, k in zip(rungs, _ULPS)]
    above = [estimate + (f if (f := ulp * k) > (d := (b - estimate) * r) else d)
             for r, k in zip(rungs, _ULPS)]
    new = _replayed(below + [estimate] + above[::-1], template.d_max)
    if not (a < new[0] and new[-1] < b and all(map(lt, new, new[1:]))):
        new = _replayed(np.linspace(a, b, REFINE_POINTS + 2)[1:-1].tolist(), template.d_max)
    inner = [x for x, _, _ in cell[1:-1]]
    new = [x for x in new if x not in inner]
    roles = yield new
    points = _points(new, roles)
    # finite totals have finite roles; otherwise check the roles themselves
    if not math.isfinite(sum(map(_TOTAL, points))):
        _raise_not_finite(regime, new, roles, template.d_max)
    return sorted(cell + points, key=itemgetter(0))


def _solved(kind, template, regime, y_star, column, bracket, iterations, residual, notes=()):
    """The result at Y = y_star, whose roles column (orig, inter, out) was
    evaluated there, found in iterations rounds on the scan of bracket."""
    return EquilibriumResult(
        kind=kind,
        utilities=RegimeUtilities(regime, *column, template.with_n(y_star / template.d_max)),
        diagnostics=SolverDiagnostics(iterations, *bracket, residual, tuple(notes)),
    )


def free_entry_density(template: ModelParams, regime: Regime) -> EquilibriumResult:
    """Solve total utility = 0 for density under free entry.

    Without peering the root has a closed form (see _no_peering_root), taken
    when the total falls from positive at the bracket's lower end to zero or
    below at its upper end. Otherwise scans the default bracket for cells
    whose total falls from positive to zero or below, and refines the largest
    such downcrossing around regula-falsi estimates until an endpoint's
    residual |total utility| falls to RESIDUAL_TOL. Raises NoCrossing when
    the curve never passes from positive to negative inside the bracket, and
    NumericsError when MAX_ROUNDS rounds cannot meet it.
    """
    validate(template)
    if regime is Regime.NO_PEERING:
        return _drive(template, regime, _no_peering_steps(template))
    return _drive(template, regime, _free_entry_steps(template, regime, _scan(template, regime)))


# the NO_PEERING originator's rows a, b and q, which hold no density (see regimes._basis)
_NO_PEERING_ORIGINATOR = np.array([[[1.0]], [[2.0]], [[0.0]]])


def _no_peering_net_value(template):
    """v' = v - 2 c(d_max)/(beta + 2), the NO_PEERING originator's role at
    P = 1, formed by model._combine from the originator's constant rows."""
    return float(_combine(template, 1.0, *_NO_PEERING_ORIGINATOR, template.cost.beta + 2)[0, 0])


def _no_peering_root(template):
    """The NO_PEERING free-entry root in Y, _replayed, or None when w = 0 or it
    is not finite or lies above BRACKET_CAP. For Y >= 1/sqrt(pi) the total is
    P [v' - w (s/2 - 1 + 1/(2s))], s = pi Y^2, with v' = _no_peering_net_value;
    it falls to zero at s = 1 + r + sqrt(r (r + 2)), r = v'/w."""
    if template.w == 0:
        return None
    r = _no_peering_net_value(template) / template.w
    if not math.isfinite(r):
        return None
    (y_star,) = _replayed([math.sqrt((1 + r + math.sqrt(r * (r + 2))) / math.pi)], template.d_max)
    return y_star if y_star <= BRACKET_CAP else None


def _no_peering_steps(template):
    """free_entry_density's one step without peering: the bracket's call,
    with Y = 2 and the closed-form root as riders. The root is the result
    when the total falls from positive at Y = 2 to zero or below at the
    bracket's upper end, the scan's condition for a downcrossing of this
    falling total; the bracket is checked first, as the scan's is."""
    regime = Regime.NO_PEERING
    y_star = _no_peering_root(template)
    bracket, _, top, riders = yield from _bracket_steps(
        template, regime, [2.0] + ([] if y_star is None else [y_star]))
    totals = sum(riders).tolist()
    if not math.isfinite(totals[0]):
        _raise_not_finite(regime, [2.0], riders[:, :1], template.d_max)
    if y_star is None or not totals[0] > 0 >= sum(top).item():
        raise NoCrossing(regime, *bracket)
    if not math.isfinite(totals[1]):
        _raise_not_finite(regime, [y_star], riders[:, 1:], template.d_max)
    return _solved(EquilibriumKind.FREE_ENTRY, template, regime, y_star,
                   riders[:, 1].tolist(), bracket, 0, totals[1], ["closed-form root"])


def _free_entry_steps(template, regime, scanned):
    """free_entry_density's steps on a scan: its refinement rounds."""
    grid, roles, bracket = scanned
    values = sum(roles)
    cells = np.flatnonzero((values[:-1] > 0) & (values[1:] <= 0))
    if not cells.size:
        raise NoCrossing(regime, *bracket)

    # invariant: the cell's totals fa > 0 >= fb
    i = cells[-1]
    cell = _points(grid[i : i + 2].tolist(), roles[:, i : i + 2])
    iterations = 0
    while not min(abs(cell[0][1]), abs(cell[1][1])) <= RESIDUAL_TOL:
        (a, fa, _), (b, fb, _) = cell
        if iterations == MAX_ROUNDS:
            raise NumericsError(
                f"k-section stalled on {[a / template.d_max, b / template.d_max]} with "
                f"residuals {fa!r}, {fb!r} above {RESIDUAL_TOL!r}"
            )
        # the regula-falsi root of the cell's ends
        estimate = a + fa / (fa - fb) * (b - a)
        cell = yield from _refine_steps(template, regime, cell, estimate, _FREE_ENTRY_RUNGS)
        # the largest downcrossing: the first from the top
        j = next(j for j in range(len(cell) - 2, -1, -1) if cell[j][1] > 0 >= cell[j + 1][1])
        cell = cell[j : j + 2]
        iterations += 1
    k = 0 if abs(cell[0][1]) <= abs(cell[1][1]) else 1  # the first of equal residuals
    y_star, residual, column = cell[k]
    return _solved(EquilibriumKind.FREE_ENTRY, template, regime, y_star,
                   column, bracket, iterations, residual)


def club_optimal_density(template: ModelParams) -> EquilibriumResult:
    """Maximize per-node total utility under competitive peering over density.

    Grid scan of the default bracket locates the hump; rounds placed around
    parabolic estimates narrow [a, b] around the argmax m to DENSITY_TOL (at
    most MAX_ROUNDS rounds) and report m, the best total evaluated. A grid
    argmax on a bracket edge, or tied with the upper edge's total, raises
    BoundaryOptimum.
    """
    regime = Regime.PEERING_PERFECT_COMPETITION
    validate(template)
    return _drive(template, regime, _club_steps(template, regime, _scan(template, regime)))


def _club_steps(template, regime, scanned):
    """club_optimal_density's steps on a scan: its refinement rounds. The
    result is the middle density m of the last cell (a, m, b), already
    evaluated and checked."""
    grid, roles, bracket = scanned
    values = sum(roles)
    k = int(np.argmax(values))
    if k == 0:
        raise BoundaryOptimum(bracket[0], "low", float(values[0]))
    if values[k] == values[-1]:  # the top, or a plateau that reaches it
        raise BoundaryOptimum(bracket[1], "high", float(values[-1]))

    notes = []
    # a total that falls before the argmax, or rises after it
    if (values[1 : k + 1] < values[:k]).any() or (values[k + 1 :] > values[k:-1]).any():
        notes.append("multimodal grid profile")

    # the cell and its argmax, which is never at a cell end: argmax takes the
    # first of equal totals, and a cell end totals less than the argmax or
    # follows it
    cell = _points(grid[k - 1 : k + 2].tolist(), roles[:, k - 1 : k + 2])
    iterations = 0
    while cell[-1][0] - cell[0][0] > DENSITY_TOL and iterations < MAX_ROUNDS:
        iterations += 1
        cell = yield from _refine_steps(template, regime, cell, _vertex(cell), _CLUB_RUNGS)
        j = cell.index(max(cell, key=_TOTAL))  # the first of equal totals
        cell = cell[j - 1 : j + 2]
    # the best total evaluated, at a density the scan or a round has checked
    (a, _, _), (y_star, _, column), (b, _, _) = cell
    res = _solved(EquilibriumKind.CLUB_OPTIMUM, template, regime, y_star,
                  column, bracket, iterations, (b - a) / template.d_max, notes)
    if not (res.total_eu_at_n_star >= 0):
        raise NumericsError(
            f"club optimum at n={res.n_star!r} has negative member utility "
            f"{res.total_eu_at_n_star!r}; the objective should be nonnegative there"
        )
    return res


def _vertex(cell):
    """The vertex of the parabola through the cell's three points, whose
    middle total is the highest: the club's estimate. The middle density
    when the parabola is flat."""
    (a, fa, _), (m, fm, _), (b, fb, _) = cell
    p, q = (m - a) * (fm - fb), (b - m) * (fm - fa)
    return m - 0.5 * ((m - a) * p - (b - m) * q) / (p + q) if p + q > 0 else m


def congestion_scaling_exponent(template: ModelParams, regime: Regime, n_values) -> float:
    """Least-squares slope of log|outsider utility| against log density.

    Requires at least four densities, all with demand effectively saturated
    (P(N(d_max)) > 0.99) so the fit isolates the congestion term's growth.
    """
    fit = _scaling_fit(template, [float(x) * template.d_max for x in n_values])
    return _drive(template, regime, _scaling_steps(template, regime, fit))


def _scaling_fit(template, y_values):
    """congestion_scaling_exponent's checks at the floats Y = n d_max, and
    what its fit takes from them alone, the same for every regime: the
    densities, their centred logs x and the sum of x^2. The slope against
    log Y is the slope against log n."""
    if len(y_values) < 4:
        raise ParamError(f"need >= 4 densities for a fit, got {len(y_values)}")
    # compare_regimes runs this check before its bracket search: a density
    # whose N(d_max) is not finite fails it without numpy warnings, as
    # utility_arrays fails such a density
    with np.errstate(over="ignore", invalid="ignore"):
        peers = nodes_within_array(np.asarray(y_values), 1.0)
        saturated = connect_probability_array(peers, template.z) > SCALING_MIN_P
    if not saturated.all():
        raise ParamError(
            f"density n={y_values[saturated.argmin()] / template.d_max!r} leaves demand "
            f"unsaturated (P <= {SCALING_MIN_P}); the congestion fit requires large P"
        )
    x = np.log(y_values)
    x = (x - x.mean()).tolist()
    return y_values, x, math.fsum(map(mul, x, x))


def _scaling_steps(template, regime, fit):
    """congestion_scaling_exponent's one step, on a fit whose checks
    _scaling_fit has made: the outsiders' roles at its densities, and the
    slope of their log|.|."""
    y_values, x, sum_xx = fit
    outs = (yield from _evaluate(template, regime, y_values))[2]
    zero = outs == 0.0
    if zero.any():
        raise ParamError(
            f"outsider utility is zero at n={y_values[zero.argmax()] / template.d_max!r} "
            f"(w=0?); log-log fit undefined"
        )
    # the least-squares slope, with both coordinates centred; its sums are
    # fsum's correctly rounded ones, not BLAS ddot's, whose summation order
    # follows the CPU kernel it picks at run time
    y = np.log(np.abs(outs))
    return math.fsum(map(mul, x, (y - y.mean()).tolist())) / sum_xx


# --------------------------------------------------------------------------
# Regime comparison report

_SCALING_Y_VALUES = (50.0, 100.0, 200.0, 400.0)


@dataclass(frozen=True)
class RegimeComparison:
    """One-stop comparison of the regimes on a parameter template.

    Solver findings (no crossing, boundary optimum) appear as string markers
    in place of numbers. leapfrog_profile rows are (d, threshold c(2D),
    competitive price c(D)) at the club density.
    """

    params: ModelParams
    free_entry_no_peering: EquilibriumResult | str
    free_entry_perfcomp: EquilibriumResult | str
    club: EquilibriumResult | str
    scaling_no_peering: float | str
    scaling_perfcomp: float | str
    leapfrog_profile: tuple = ()

    def _solver_outcomes(self) -> tuple:
        return (self.free_entry_no_peering, self.free_entry_perfcomp, self.club)

    def has_findings(self) -> bool:
        return any(isinstance(x, str) for x in self._solver_outcomes())

    def solved_points(self):
        return [x for x in self._solver_outcomes() if isinstance(x, EquilibriumResult)]

    def to_json_dict(self) -> dict:
        def enc(x):
            if isinstance(x, EquilibriumResult):
                return x.to_json_dict()
            return x

        return {
            "params": params_to_dict(self.params),
            "free_entry_no_peering": enc(self.free_entry_no_peering),
            "free_entry_perfcomp": enc(self.free_entry_perfcomp),
            "club": enc(self.club),
            "scaling_no_peering": self.scaling_no_peering,
            "scaling_perfcomp": self.scaling_perfcomp,
            "leapfrog_profile": [
                {"d": d, "threshold": thr, "competitive_price": cp}
                for d, thr, cp in self.leapfrog_profile
            ],
        }


def _reported(outcome):
    """A solver outcome as the comparison reports it: its result, or a
    finding's marker. An error is raised."""
    if isinstance(outcome, NoCrossing):
        return "NO_CROSSING"
    if isinstance(outcome, BoundaryOptimum):
        return f"BOUNDARY_OPTIMUM@{outcome.n_boundary!r}"
    if isinstance(outcome, _STEP_OUTCOMES):
        raise outcome
    return outcome


def _leapfrog_profile(template, club) -> tuple:
    """(d, threshold c(2D), competitive price c(D)) rows at the club density,
    or no rows without a club result or a relay at d_max."""
    if not isinstance(club, EquilibriumResult):
        return ()
    p_club = template.with_n(club.n_star)
    if intermediate_count(p_club, p_club.d_max) < 1:
        return ()
    # n * (3/n) can round below 3: start at the first density whose
    # I(d) is at least 1, so all 12 rows carry a relay
    lo = min(3 / p_club.n, p_club.d_max)
    while intermediate_count(p_club, lo) < 1:
        lo = math.nextafter(lo, p_club.d_max)
    # rows are (d, leapfrog_threshold, competitive_price) from one D(d) batch
    ds = np.linspace(lo, p_club.d_max, 12)
    return tuple(
        (d, p_club.cost(2 * hop), p_club.cost(hop))
        for d, hop in zip(ds.tolist(), hop_distance_array(p_club.n, ds).tolist())
    )


def compare_regimes(template: ModelParams) -> RegimeComparison:
    """Assemble the full comparison: free-entry densities, club density,
    scaling exponents, and the leapfrog price profile at the club density.

    Errors surface as if the solvers ran one after another: free entry
    without peering, free entry under competitive pricing, the club, the
    leapfrog profile, then the two scaling fits.
    """
    validate(template)
    # the scaling fits' checks, made once for both regimes
    try:
        fit = _scaling_fit(template, _SCALING_Y_VALUES)
    except ParamError as exc:
        fit = exc

    def with_scaling(regime, steps):
        """The outcomes of steps and of the regime's scaling fit, run side by side."""
        if isinstance(fit, ParamError):
            return _lockstep(template, regime, [steps]) + [fit]
        return _lockstep(template, regime, [steps, _scaling_steps(template, regime, fit)])

    # free entry without peering takes one step, in the scaling fit's call
    fe_np, scaling_np = with_scaling(Regime.NO_PEERING, _no_peering_steps(template))
    fe_np = _reported(fe_np)
    # free entry and the club share one scan, whose doubling call carries the
    # scaling densities
    regime = Regime.PEERING_PERFECT_COMPETITION
    scanned, scaling_pc = with_scaling(regime, _scan_steps(template, regime))
    fe_pc = club = scanned
    if not isinstance(scanned, _STEP_OUTCOMES):
        fe_pc, club = _lockstep(template, regime, [_free_entry_steps(template, regime, scanned),
                                                   _club_steps(template, regime, scanned)])
    fe_pc, club = _reported(fe_pc), _reported(club)
    profile = _leapfrog_profile(template, club)

    def scaling(outcome):
        if isinstance(outcome, ParamError):
            return f"UNDEFINED ({outcome})"
        return _reported(outcome)

    return RegimeComparison(template, fe_np, fe_pc, club, scaling(scaling_np),
                            scaling(scaling_pc), profile)

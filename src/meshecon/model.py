"""Core model state and the elementary functions every regime shares.

The network is an infinite plane of nodes laid out in equally spaced rows
and columns with density n^2 per unit square (spacing 1/n). A node may
connect directly to any peer within radius d_max, or relay the connection
hop-by-hop through the nodes in between. Everything downstream — regime
utilities, equilibrium densities, the lattice simulator — is built from the
handful of functions defined here:

    intermediate_count   I(d) = max(0, n*d - 2)    relays on a peering path
    hop_distance         D(d) = d / (n*d - 1)      per-hop length, (I+1)*D = d
    nodes_within         N(d) = max(0, pi*d^2*n^2 - 1)   interference circle
    connect_probability  P(N) = 1 - z^N            demand for a connection

Each is one *_array expression; the range-checked scalar forms return .item()
of it. P is computed as -expm1(N log z), accurate where P is small.

I and N are clamped at zero: the linear/quadratic forms go negative below
d = 2/n and d = 1/(n*sqrt(pi)), and clamping keeps every integral over
[0, d_max] well defined without changing values where the large-network
approximation is meant to apply.

A small set of radio-physics helpers (Shannon capacity, channels per cell,
path loss) lives here too. They motivate the cost and pollution structure
qualitatively but do not feed the economic model. They refuse non-finite
inputs (ParamError), and a result that is not a finite float raises
NumericsError.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ParamError

__all__ = [
    "CostFunction",
    "ModelParams",
    "RadioParams",
    "PARAM_KEYS",
    "default_params",
    "validate",
    "intermediate_count",
    "hop_distance",
    "nodes_within",
    "intermediate_count_array",
    "hop_distance_array",
    "nodes_within_array",
    "connect_probability_array",
    "max_peers",
    "connect_probability",
    "shannon_capacity",
    "channels_per_cell",
    "path_loss",
    "params_to_dict",
    "params_from_dict",
    "params_to_kv",
    "params_from_kv",
    "params_to_json",
    "params_from_json",
    "read_params_file",
]


@dataclass(frozen=True)
class CostFunction:
    """Transmission cost cost(d) = a * d^beta.

    a > 0 and beta > 1 give the strictly increasing, strictly convex cost
    with cost(0) = 0 that the model requires. The two-parameter power law is
    the minimal family with those properties.
    """

    a: float
    beta: float

    def __call__(self, d: float) -> float:
        """a * d**beta at a scalar d; arrays go through times. Where d**beta
        overflows or underflows to 0, the value times gives."""
        try:
            power = d**self.beta
        except OverflowError:
            power = math.inf
        if 0 < power < math.inf:
            return self.a * power
        return float(self.times(1.0, np.float64(d)))

    def times(self, k, d):
        """k * cost(d) over an array d, elementwise as (k * a) * d**beta.
        Where d**beta overflows or underflows to 0, as (k * a) times four
        factors q = d**(beta / 4), left to right: each partial product lies
        between k * a and the result, so the product is finite wherever
        k * a * d^beta is a finite float, and inf, not an error, where not."""
        ka = k * self.a
        with np.errstate(over="ignore", under="ignore"):
            power = d**self.beta
            inside = (power > 0) & (power < math.inf)
            if inside.all():
                return ka * power
            q = d ** (self.beta / 4)
            return np.where(inside, ka * power, ka * q * q * q * q)


@dataclass(frozen=True)
class ModelParams:
    """All economic and geometric parameters in one immutable record.

    n      node density per unit length (n^2 nodes per 1x1 square)
    d_max  maximum direct-connection radius
    v      utility of connecting to the one most-desired peer
    u      utility of connecting to any other desired peer (only enters the
           v - u > cost(d_max) assumption; no utility expression uses it)
    w      pollution cost per affected node per transmission
    z      per-peer probability of NOT wanting a connection
    cost   transmission cost function of distance

    Construction does not validate; call validate() explicitly so tests can
    probe boundary and out-of-contract regions.
    """

    n: float
    d_max: float
    v: float
    u: float
    w: float
    z: float
    cost: CostFunction

    def with_n(self, n: float) -> "ModelParams":
        return ModelParams(n=n, d_max=self.d_max, v=self.v, u=self.u, w=self.w, z=self.z,
                           cost=self.cost)


def default_params() -> ModelParams:
    """Reference parameter set used throughout the docs and tests.

    Satisfies every invariant with slack: v - u = 8 > cost(d_max) = 1.
    """
    return ModelParams(
        n=10.0, d_max=1.0, v=10.0, u=2.0, w=0.01, z=0.99,
        cost=CostFunction(a=1.0, beta=2.0),
    )


def validate(params: ModelParams) -> ModelParams:
    """Check every invariant, or raise ParamError naming the field and bound
    it violates: finite fields, n > 0, d_max > 1/n, 0 < z < 1, w >= 0, v, u > 0;
    a > 0 and beta > 1, exactly when the cost a d^beta rises and is strictly
    convex; 0 < cost(d_max) < inf, so neither overflow nor underflow to 0; and
    v - u > cost(d_max). Returns params unchanged."""
    p = params
    for key, value in params_to_dict(p).items():
        _check_finite(key, value)
    if not (p.n > 0):
        raise ParamError(f"n must be > 0, got {p.n!r}")
    if not (p.d_max > 1 / p.n):
        raise ParamError(
            f"d_max must exceed 1/n = {1 / p.n!r} so the circle contains the "
            f"nearest neighbor, got d_max={p.d_max!r}"
        )
    if not (0 < p.z < 1):
        raise ParamError(f"z must lie strictly inside (0, 1), got {p.z!r}")
    if not (p.w >= 0):
        raise ParamError(f"w must be >= 0, got {p.w!r}")
    if not (p.v > 0):
        raise ParamError(f"v must be > 0, got {p.v!r}")
    if not (p.u > 0):
        raise ParamError(f"u must be > 0, got {p.u!r}")
    if not (p.cost.a > 0):
        raise ParamError(f"cost_a must be > 0, got {p.cost.a!r}")
    if not (p.cost.beta > 1):
        raise ParamError(
            f"cost_beta must be > 1 for strict convexity, got {p.cost.beta!r}"
        )
    cost_d_max = p.cost(p.d_max)
    if not (0 < cost_d_max < math.inf):
        raise ParamError(f"cost(d_max) {'overflows' if cost_d_max else 'underflows to 0'}: "
                         f"{p.cost.a!r} * {p.d_max!r}**{p.cost.beta!r}")
    if not (p.v - p.u > cost_d_max):
        raise ParamError(
            f"model requires v - u > cost(d_max): {p.v!r} - {p.u!r} = "
            f"{p.v - p.u!r} is not > {cost_d_max!r}"
        )
    return params


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ParamError(f"{name} must be finite, got {value!r}")


def _unit(x: float) -> float:
    """The exact power-of-2 unit in which sums of terms up to |x| are taken,
    so that they cannot overflow: 1 below 2^512, and from there up the unit
    that brings |x| below 2^512."""
    return 2.0 ** max(math.frexp(x)[1] - 512, 0)


def _combine(params: ModelParams, prob, a, b, q, cost_den=1.0, den=1.0):
    """The roles (originator, intermediate, outsider) as one (3, m) array,
    (P (v a - c b / cost_den) - w P q) / den with c = c(d_max), from a term
    basis: P = prob and the (3, m) rows a, b and q, which hold no v, w or c.
    Each role is taken in the power-of-2 unit of the largest of v, c and w
    that its rows hold, so that its sums cannot overflow where it does not
    and a small v is not scaled into underflow by a w it does not hold;
    scaling (v, w, c) by a power of 2 scales every role by it exactly. A
    role whose a is -0.0 is -0.0 where its terms vanish, as -w P q at w = 0."""
    c = params.cost(params.d_max)
    units = [_unit(x) for x in (params.v, c, params.w)]
    u = 1.0
    if max(units) > 1.0:
        held = np.array([np.any(row, axis=-1) for row in (a, b, q)])
        u = np.where(held.T, units, 1.0).max(axis=1, keepdims=True)
    return (prob * (params.v / u * a - c / u * b / cost_den) - params.w / u * prob * q) / den * u


# --------------------------------------------------------------------------
# Elementary functions of density and distance


def intermediate_count(params: ModelParams, d: float) -> float:
    """Expected relays on a peering connection of length d: max(0, n*d - 2).

    Continuous on purpose — it sits inside integrals. The lattice simulator
    is where hop counts become integers.
    """
    if not (0 <= d <= params.d_max):
        raise ParamError(f"d must lie in [0, d_max={params.d_max!r}], got {d!r}")
    return intermediate_count_array(params.n, d).item()


def hop_distance(params: ModelParams, d: float) -> float:
    """Per-hop length of a peering connection: d/(n*d - 1), or d itself when
    there are no intermediates (one direct hop). Satisfies (I+1)*D = d."""
    if not (d > 0):
        raise ParamError(f"d must be > 0, got {d!r}")
    if not (d <= params.d_max):
        raise ParamError(f"d must be <= d_max={params.d_max!r}, got {d!r}")
    return hop_distance_array(params.n, d).item()


def nodes_within(params: ModelParams, d: float) -> float:
    """Expected other nodes inside a transmission circle of radius d:
    max(0, pi*d^2*n^2 - 1)."""
    if not (d >= 0):
        raise ParamError(f"d must be >= 0, got {d!r}")
    return nodes_within_array(params.n, d).item()


# Array forms of I, D, N and P, the one definition of each: elementwise over
# broadcastable densities n, distances x and peer counts, without the range
# checks; the regimes, the solvers, the simulator and the scalar forms use them.


def intermediate_count_array(n, x):
    """I(x) = max(0, n*x - 2) elementwise."""
    return np.maximum(0.0, n * x - 2)


def hop_distance_array(n, x):
    """D(x) = x/(n*x - 1) where I(x) > 0, else x: n*x - 1 > 1 iff n*x - 2 > 0."""
    return x / np.maximum(n * x - 1, 1.0)


def nodes_within_array(n, x):
    """N(x) = max(0, pi*x^2*n^2 - 1) elementwise."""
    return np.maximum(0.0, math.pi * x * x * n * n - 1)


def connect_probability_array(peer_count, z):
    """P(N) = 1 - z^N elementwise, as -expm1(N log z), which keeps full
    relative accuracy where z^N is near 1."""
    return -np.expm1(peer_count * math.log(z))


def max_peers(params: ModelParams) -> float:
    """Nodes reachable without relaying: N(d_max)."""
    return nodes_within(params, params.d_max)


def connect_probability(params: ModelParams, peer_count: float) -> float:
    """Probability of wanting at least one connection among peer_count peers:
    1 - z^peer_count, computed by connect_probability_array."""
    if not (peer_count >= 0):
        raise ParamError(f"peer_count must be >= 0, got {peer_count!r}")
    return connect_probability_array(peer_count, params.z).item()


# --------------------------------------------------------------------------
# Radio physics


@dataclass(frozen=True)
class RadioParams:
    """Physical-layer parameters for the capacity and path-loss helpers.

    path_loss_exponent is the signal-decay exponent (>= 2); despite the
    conventional letter it has nothing to do with the node density n.
    """

    snr: float
    alpha: float
    bandwidth_total: float
    user_bit_rate: float
    path_loss_constant: float
    carrier_frequency: float
    path_loss_exponent: float

    def __post_init__(self):
        for name, value in vars(self).items():
            _check_finite(name, value)
            if not (value > 0 or name in ("snr", "path_loss_exponent")):
                raise ParamError(f"{name} must be > 0, got {value!r}")
        if not (self.snr >= 0):
            raise ParamError(f"snr must be >= 0, got {self.snr!r}")
        if not (0 < self.alpha <= 1):
            raise ParamError(f"alpha must lie in (0, 1], got {self.alpha!r}")
        if not (self.path_loss_exponent >= 2):
            raise ParamError(
                f"path_loss_exponent must be >= 2, got {self.path_loss_exponent!r}"
            )


def _finite_result(name: str, compute, inputs: str) -> float:
    """compute(), or NumericsError when its floats overflow, divide by 0 or end not finite."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise NumericsError(f"{name} is not a finite float at {inputs}")
    return value


def shannon_capacity(snr: float) -> float:
    """Channel capacity in bits/s/Hz: log2(1 + snr)."""
    if not (snr >= 0):
        raise ParamError(f"snr must be >= 0, got {snr!r}")
    return math.log2(1 + snr)


def channels_per_cell(radio: RadioParams) -> float:
    """Maximum simultaneous channels per cell: 1.42 * alpha * B_t / R_b."""
    # Ratio first: keeps the common whole-number cases exact in floats.
    return _finite_result("channels_per_cell", lambda: 1.42 * radio.alpha * (
        radio.bandwidth_total / radio.user_bit_rate), repr(radio))


def path_loss(radio: RadioParams, d: float) -> float:
    """Received/transmitted power ratio K / (f^2 * d^exponent)."""
    _check_finite("d", d)
    if not (d > 0):
        raise ParamError(f"d must be > 0, got {d!r}")
    return _finite_result("path_loss", lambda: radio.path_loss_constant / (
        radio.carrier_frequency**2 * d**radio.path_loss_exponent), f"{radio!r}, d={d!r}")


# --------------------------------------------------------------------------
# Serialization: flat key=value text and JSON with identical keys

PARAM_KEYS = ("n", "d_max", "v", "u", "w", "z", "cost_a", "cost_beta")


def params_to_dict(params: ModelParams) -> dict:
    return {
        "n": params.n,
        "d_max": params.d_max,
        "v": params.v,
        "u": params.u,
        "w": params.w,
        "z": params.z,
        "cost_a": params.cost.a,
        "cost_beta": params.cost.beta,
    }


def params_from_dict(data: dict) -> ModelParams:
    """A ModelParams from exactly the PARAM_KEYS; a boolean value is refused."""
    unknown = sorted(set(data) - set(PARAM_KEYS))
    if unknown:
        raise ParamError(f"unknown parameter keys: {', '.join(unknown)}")
    missing = [k for k in PARAM_KEYS if k not in data]
    if missing:
        raise ParamError(f"missing parameter keys: {', '.join(missing)}")
    for k in PARAM_KEYS:
        if isinstance(data[k], bool):  # float(True) is 1.0, but a flag is no value
            raise ParamError(f"{k} must be a number, got {data[k]!r}")
    try:
        vals = {k: float(data[k]) for k in PARAM_KEYS}
    except (TypeError, ValueError) as exc:
        raise ParamError(f"non-numeric parameter value: {exc}") from exc
    return ModelParams(
        n=vals["n"], d_max=vals["d_max"], v=vals["v"], u=vals["u"],
        w=vals["w"], z=vals["z"],
        cost=CostFunction(a=vals["cost_a"], beta=vals["cost_beta"]),
    )


def params_to_kv(params: ModelParams) -> str:
    d = params_to_dict(params)
    return "".join(f"{k}={d[k]!r}\n" for k in PARAM_KEYS)


def params_from_kv(text: str) -> ModelParams:
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParamError(f"line {lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        if key in data:
            raise ParamError(f"line {lineno}: duplicate key {key!r}")
        data[key] = value.strip()
    return params_from_dict(data)


# looked up once: the writer calls them for every value
_json_string = json.encoder.encode_basestring_ascii  # raises TypeError on a non-str
_float_repr = float.__repr__
_int_repr = int.__repr__
_isfinite = math.isfinite


def _json_value(obj, indent: str) -> str:
    """obj's JSON text as json.dumps(obj, indent=2, sort_keys=True) writes
    it, nested items starting on indent (a newline and two spaces per level
    above obj's). The stdlib's encoder runs in pure Python, one token at a
    time, whenever indent is set; this builds each container in one join.

    The stdlib tests str, None, True, False, int, float, list or tuple, dict
    in that order. No class derives from two of str, int, float, list or
    tuple, and dict, so the common types may come first here; only bool,
    an int subclass, must be caught before int."""
    if isinstance(obj, float):
        if _isfinite(obj):
            return _float_repr(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    if isinstance(obj, str):
        return _json_string(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [f"{_json_string(key)}: {_json_value(value, inner)}"
                 for key, value in sorted(obj.items())]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        items = [_json_value(item, inner) for item in obj]
        return f"[{inner}{(',' + inner).join(items)}{indent}]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return _int_repr(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(obj) -> str:
    """The JSON text every command writes, and params_to_json: the bytes of
    json.dumps(obj, indent=2, sort_keys=True) + "\\n" for str-keyed dicts,
    lists, tuples, str, int, float, bool and None, where a float subclass
    prints as a float and an int subclass as an int. Any other value, or a
    key that is not a str, raises TypeError."""
    return _json_value(obj, "\n") + "\n"


def params_to_json(params: ModelParams) -> str:
    return _json_text(params_to_dict(params))


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a key given twice is refused, as
    params_from_kv refuses it, not silently overwritten."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ParamError(f"duplicate key {key!r} in JSON parameter file")
        data[key] = value
    return data


def params_from_json(text: str) -> ModelParams:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParamError(f"invalid JSON parameter file: {exc}") from exc
    if not isinstance(data, dict):
        raise ParamError("JSON parameter file must contain an object")
    return params_from_dict(data)


def read_params_file(path) -> ModelParams:
    """Load parameters from a file, sniffing JSON vs key=value."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return params_from_json(text)
    return params_from_kv(text)

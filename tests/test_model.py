import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from meshecon import (
    CostFunction,
    NumericsError,
    ParamError,
    RadioParams,
    channels_per_cell,
    connect_probability,
    hop_distance,
    intermediate_count,
    max_peers,
    nodes_within,
    params_from_dict,
    params_from_json,
    params_from_kv,
    params_to_dict,
    params_to_json,
    params_to_kv,
    path_loss,
    read_params_file,
    shannon_capacity,
    validate,
)
from meshecon.equilibrium import BRACKET_CAP
from meshecon.model import (_json_text, _unit, connect_probability_array, hop_distance_array,
                            intermediate_count_array, nodes_within_array)
from conftest import make_params
import oracles


# --------------------------------------------------------------------------
# validate


def test_validate_accepts_defaults(defaults):
    assert validate(defaults) is defaults  # v - u = 8 > cost(d_max) = 1


def test_validate_rejects_small_connection_premium():
    with pytest.raises(ParamError, match="v - u"):
        validate(make_params(v=2.5, u=2.0))


def test_validate_rejects_a_premium_equal_to_the_cost():
    # v - u = 1 = cost(d_max): the bound is strict
    with pytest.raises(ParamError, match="v - u"):
        validate(make_params(v=3.0, u=2.0, a=1.0, d_max=1.0, beta=2.0))


def test_validate_rejects_linear_cost():
    with pytest.raises(ParamError, match="cost_beta"):
        validate(make_params(beta=1.0))


@pytest.mark.parametrize("kwargs,field", [
    (dict(n=-1.0), "n"),
    (dict(n=0.5), "d_max"),          # d_max = 1 not > 1/n = 2
    (dict(d_max=0.05), "d_max"),
    (dict(z=0.0), "z"),
    (dict(z=1.0), "z"),
    (dict(w=-0.01), "w"),
    (dict(v=0.0), "v"),
    (dict(u=-1.0), "u"),
    (dict(a=0.0), "cost_a"),
    (dict(beta=0.5), "cost_beta"),
    (dict(n=math.inf), "n must be finite"),
    (dict(d_max=math.inf), "d_max must be finite"),
    (dict(v=math.inf), "v must be finite"),
    (dict(u=math.inf), "u must be finite"),
    (dict(w=math.inf), "w must be finite"),
    (dict(a=math.inf), "cost_a must be finite"),
    (dict(beta=math.inf), "cost_beta must be finite"),
    (dict(d_max=1e300), r"cost\(d_max\) overflows"),  # float pow raises
    (dict(a=1e300, d_max=1e10, n=1.0), r"cost\(d_max\) overflows"),  # a * d^beta is inf
    (dict(n=2e162, d_max=1e-162), r"cost\(d_max\) underflows to 0"),  # (1e-162)^2 is 0
])
def test_validate_names_offending_field(kwargs, field):
    with pytest.raises(ParamError, match=field):
        validate(make_params(**kwargs))


# --------------------------------------------------------------------------
# intermediate count, hop distance


def test_intermediate_count_examples(defaults):
    assert intermediate_count(defaults, 0.5) == pytest.approx(3.0)
    assert intermediate_count(defaults, 0.2) == 0.0
    assert intermediate_count(defaults, 0.05) == 0.0   # raw -1.5 clamps to 0


def test_intermediate_count_range_errors(defaults):
    with pytest.raises(ParamError):
        intermediate_count(defaults, -0.1)
    with pytest.raises(ParamError):
        intermediate_count(defaults, 1.5)


def test_intermediate_count_monotone_in_d_and_n():
    ds = np.linspace(0.0, 1.0, 101)
    for n in (3.0, 10.0, 25.0):
        p = make_params(n=n)
        vals = [intermediate_count(p, d) for d in ds]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
    for d in (0.15, 0.4, 0.9):
        vals = [intermediate_count(make_params(n=n), d) for n in (3, 5, 10, 20, 40)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_intermediate_count_exact_above_clamp(defaults):
    for d in (0.2, 0.35, 0.8, 1.0):
        assert intermediate_count(defaults, d) == pytest.approx(10 * d - 2, abs=1e-15)


def test_hop_distance_examples(defaults):
    # D(d) = d/(n d - 1): 0.5/4, single full hop below the clamp, 1/9 at d_max
    assert hop_distance(defaults, 0.5) == pytest.approx(0.125)
    assert hop_distance(defaults, 0.2) == pytest.approx(0.2)
    assert hop_distance(defaults, 1.0) == pytest.approx(1 / 9)


def test_hop_distance_errors(defaults):
    with pytest.raises(ParamError):
        hop_distance(defaults, 0.0)
    with pytest.raises(ParamError):
        hop_distance(defaults, -0.2)
    with pytest.raises(ParamError):
        hop_distance(defaults, 1.2)


def test_hop_distance_below_distance_with_equality_iff_direct(defaults):
    for d in np.linspace(0.01, 1.0, 97):
        hop = hop_distance(defaults, float(d))
        if intermediate_count(defaults, float(d)) == 0:
            assert hop == d
        else:
            assert hop < d


def test_hop_distance_limit_near_nearest_neighbor():
    # |D(d_max) - 1/n| <= 2/(n^2 d_max) once n d_max >= 2
    for n, d_max in ((10.0, 1.0), (5.0, 0.9), (50.0, 2.0)):
        p = make_params(n=n, d_max=d_max)
        assert abs(hop_distance(p, d_max) - 1 / n) <= 2 / (n * n * d_max)


def test_full_path_length_recovers_distance(defaults):
    # (I + 1) * D = d whenever relays exist
    for d in (0.21, 0.5, 0.77, 1.0):
        i = intermediate_count(defaults, d)
        assert i > 0
        assert (i + 1) * hop_distance(defaults, d) == pytest.approx(d, rel=1e-14)


def _distances(draw, n, d_max):
    """d at 0 and d_max, n d at 1 and 2 and up to 3 ulps either side, or a
    uniform draw from [0, d_max]."""
    kind = draw(st.sampled_from(["zero", "d_max", "n d = 1", "n d = 2", "uniform"]))
    if kind == "zero":
        return 0.0
    if kind == "d_max":
        return d_max
    if kind == "uniform":
        return draw(st.floats(0.0, d_max))
    d = (1.0 if kind == "n d = 1" else 2.0) / n
    steps = draw(st.integers(-3, 3))
    for _ in range(abs(steps)):
        d = math.nextafter(d, math.copysign(math.inf, steps))
    return min(d, d_max)


@st.composite
def elementary_points(draw):
    d_max = draw(st.floats(0.05, 20.0))
    n = draw(st.floats(math.nextafter(1 / d_max, math.inf), BRACKET_CAP))
    return make_params(n=n, d_max=d_max), [_distances(draw, n, d_max) for _ in range(8)]


@settings(max_examples=300, deadline=None, database=None)
@given(elementary_points())
def test_elementary_scalars_are_their_array_forms_bit_for_bit(point):
    # I, D and N are each defined once, as the array forms; the checked
    # scalar functions must return exactly the array element, and both must
    # equal the piecewise scalar expressions written out here, including at
    # the kink n d = 2 of I and D and at n d = 1, where n d - 1 vanishes
    p, ds = point
    n, xs = p.n, np.array(ds)
    arrays = (intermediate_count_array(n, xs), hop_distance_array(n, xs),
              nodes_within_array(n, xs))
    for k, d in enumerate(ds):
        t = n * d
        i_ref = max(0.0, t - 2)
        n_ref = max(0.0, math.pi * d * d * n * n - 1)
        assert intermediate_count(p, d) == arrays[0][k] == i_ref
        assert nodes_within(p, d) == arrays[2][k] == n_ref
        if d > 0:
            d_ref = d if i_ref == 0 else d / (t - 1)
            assert hop_distance(p, d) == arrays[1][k] == d_ref
        assert type(intermediate_count(p, d)) is type(nodes_within(p, d)) is float


@settings(max_examples=200, deadline=None, database=None)
@given(elementary_points(), st.floats(1e-300, 1e3))
def test_elementary_scalars_reject_out_of_range_distances(point, excess):
    p, _ = point
    below, above = -excess, p.d_max + max(excess, math.ulp(p.d_max))
    for d in (below, above):
        with pytest.raises(ParamError) as err:
            intermediate_count(p, d)
        assert str(err.value) == f"d must lie in [0, d_max={p.d_max!r}], got {d!r}"
    for d, text in ((below, f"d must be > 0, got {below!r}"), (0.0, "d must be > 0, got 0.0"),
                    (above, f"d must be <= d_max={p.d_max!r}, got {above!r}")):
        with pytest.raises(ParamError) as err:
            hop_distance(p, d)
        assert str(err.value) == text
    with pytest.raises(ParamError) as err:
        nodes_within(p, below)
    assert str(err.value) == f"d must be >= 0, got {below!r}"


# --------------------------------------------------------------------------
# nodes within, connect probability


def test_nodes_within_examples(defaults):
    assert nodes_within(defaults, 0.5) == pytest.approx(25 * math.pi - 1)
    assert nodes_within(defaults, 1 / (10 * math.sqrt(math.pi))) == pytest.approx(0.0, abs=1e-12)
    assert nodes_within(defaults, 1.0) == pytest.approx(100 * math.pi - 1)
    assert max_peers(defaults) == nodes_within(defaults, defaults.d_max)


def test_nodes_within_clamps_and_rejects_negative(defaults):
    assert nodes_within(defaults, 0.01) == 0.0
    with pytest.raises(ParamError):
        nodes_within(defaults, -0.1)


def test_nodes_within_monotone_convex_above_clamp(defaults):
    ds = np.linspace(0.06, 1.4, 120)  # unclamped from 1/(n sqrt(pi)) ~ 0.0564
    vals = np.array([nodes_within(defaults, float(d)) for d in ds])
    assert np.all(np.diff(vals) > 0)
    assert np.all(np.diff(vals, 2) > 0)


def test_connect_probability_examples(defaults):
    assert connect_probability(defaults, 0.0) == 0.0
    p_half = make_params(z=0.5)
    assert connect_probability(p_half, 1.0) == pytest.approx(0.5, abs=1e-15)
    # pinned: 1 - 0.99^(100 pi - 1) evaluated at 30 digits
    assert connect_probability(defaults, max_peers(defaults)) == pytest.approx(
        oracles.P_DEFAULT, abs=1e-14
    )


@settings(max_examples=300, deadline=None, database=None)
@given(st.floats(0.5, 1 - 1e-12), st.lists(st.floats(0.0, 1e6), max_size=7))
@example(1 - 1e-9, [math.pi * 1.5**2 - 1])  # 1 - exp(N log z) is off by 3e-9 here
def test_connect_probability_is_its_array_form_and_accurate(z, counts):
    # P is defined once, as -expm1(N log z): the checked scalar returns the
    # array element bit for bit, and both keep full relative accuracy when P
    # is small, against -expm1 at 40 digits on the same binary inputs (a
    # subnormal P is held to its spacing instead)
    p, counts = make_params(z=z), [0.0] + counts
    batch = connect_probability_array(np.array(counts), z)
    with mp.workdps(40):
        log_z = mp.log(mp.mpf(z))
        want = [-mp.expm1(mp.mpf(c) * log_z) for c in counts]
    for k, c in enumerate(counts):
        got = connect_probability(p, c)
        assert type(got) is float and got == batch[k]
        assert abs(got - want[k]) <= max(1e-15 * abs(want[k]), math.ulp(0.0))


def test_connect_probability_increasing_concave(defaults):
    counts = np.linspace(0.0, 400.0, 81)
    vals = np.array([connect_probability(defaults, float(c)) for c in counts])
    assert np.all(np.diff(vals) > 0)
    assert np.all(np.diff(vals, 2) < 0)
    assert np.all((vals >= 0) & (vals < 1))
    with pytest.raises(ParamError):
        connect_probability(defaults, -1.0)


# --------------------------------------------------------------------------
# radio helpers


def _radio(**kw):
    base = dict(snr=0.0, alpha=1.0, bandwidth_total=1e6, user_bit_rate=1e4,
                path_loss_constant=1.0, carrier_frequency=1.0, path_loss_exponent=2.0)
    base.update(kw)
    return RadioParams(**base)


def test_shannon_capacity_examples():
    assert shannon_capacity(0.0) == 0.0
    assert shannon_capacity(1.0) == 1.0
    assert shannon_capacity(3.0) == 2.0
    with pytest.raises(ParamError):
        shannon_capacity(-0.5)


def test_channels_per_cell_examples():
    assert channels_per_cell(_radio()) == 142.0
    assert channels_per_cell(_radio(alpha=0.5)) == 71.0
    assert channels_per_cell(_radio(bandwidth_total=1e4)) == pytest.approx(1.42)


def test_path_loss_examples():
    assert path_loss(_radio(), 2.0) == 0.25
    assert path_loss(_radio(path_loss_exponent=4.0), 2.0) == 0.0625
    assert path_loss(_radio(carrier_frequency=2.0), 1.0) == 0.25
    with pytest.raises(ParamError):
        path_loss(_radio(), 0.0)


def test_radio_params_validation():
    with pytest.raises(ParamError):
        _radio(snr=-1.0)
    with pytest.raises(ParamError):
        _radio(alpha=1.5)
    with pytest.raises(ParamError):
        _radio(user_bit_rate=0.0)
    with pytest.raises(ParamError):
        _radio(path_loss_exponent=1.5)


@pytest.mark.parametrize("field", ["snr", "alpha", "bandwidth_total", "user_bit_rate",
                                   "path_loss_constant", "carrier_frequency",
                                   "path_loss_exponent"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_radio_params_refuse_non_finite_values(field, value):
    with pytest.raises(ParamError, match=f"{field} must be finite, got {value!r}"):
        _radio(**{field: value})


@pytest.mark.parametrize("d", [math.inf, math.nan])
def test_path_loss_refuses_non_finite_distance(d):
    with pytest.raises(ParamError, match=f"d must be finite, got {d!r}"):
        path_loss(_radio(), d)


@pytest.mark.parametrize("helper, radio, args", [
    (channels_per_cell, _radio(user_bit_rate=1e-320), ()),   # the ratio overflows to inf
    (path_loss, _radio(path_loss_exponent=4.0), (1e-200,)),  # d^4 underflows: divides by 0
    (path_loss, _radio(carrier_frequency=1e200), (1.0,)),    # f^2 raises OverflowError
    (path_loss, _radio(path_loss_constant=1e300), (1e-10,)),  # K / 1e-20 overflows to inf
])
def test_radio_helpers_raise_numerics_error_without_a_finite_result(helper, radio, args):
    with pytest.raises(NumericsError, match=f"{helper.__name__} is not a finite float at "):
        helper(radio, *args)


# --------------------------------------------------------------------------
# serialization


def test_params_kv_round_trip(defaults):
    text = params_to_kv(defaults)
    assert params_from_kv(text) == defaults


def test_params_json_round_trip(defaults):
    assert params_from_json(params_to_json(defaults)) == defaults
    with pytest.raises(ParamError, match="invalid JSON"):
        params_from_json("{")
    with pytest.raises(ParamError, match="must contain an object"):
        params_from_json("[]")


def _stdlib_json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_json_floats = st.one_of(
    st.floats(),
    st.floats(max_value=2.2250738585072014e-308, min_value=-2.2250738585072014e-308),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-05, 1e16]),
)
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64, max_value=2**200),
    _json_floats, st.text(st.characters(exclude_categories=())),
)
_json_values = st.recursive(_json_scalars, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.text(st.characters(exclude_categories=()), max_size=4), children,
                    max_size=4),
), max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(_json_values)
@example([])
@example({})
@example(())
@example({"b": [1.0, -0.0, 5e-324], "a": {}, "": [[], {"x": ()}]})
@example([math.nan, math.inf, -math.inf, 1e-05, 1e16, 2**64 + 1, -(2**70), True, False, None])
@example(['"quoted" \\ back\\slash', "\x00\x1f\x7f", "é ü 日本 🚀", "\ud800 lone", "\udfff"])
def test_json_text_is_the_stdlib_indent_text(value):
    assert _json_text(value) == _stdlib_json_text(value)


def test_json_text_refuses_what_the_stdlib_refuses():
    for value in (np.int64(1), {1.5}, object(), [1, {"k": np.int64(2)}], {"k": (object(),)}):
        with pytest.raises(TypeError):
            _stdlib_json_text(value)
        with pytest.raises(TypeError):
            _json_text(value)
    with pytest.raises(TypeError):  # the stdlib would write it as "1"
        _json_text({1: 0.5})


@pytest.mark.parametrize("x", [0.1, 1e16, -0.0, 5e-324, math.nan, math.inf, -math.inf])
def test_json_text_prints_numpy_floats_as_the_stdlib_does(x):
    value = {"x": np.float64(x), "xs": [np.float64(x)]}
    assert _json_text(value) == _stdlib_json_text(value)
    assert _json_text(np.float64(x)) == _stdlib_json_text(np.float64(x))


def test_params_dict_unknown_and_missing_keys(defaults):
    d = params_to_dict(defaults)
    d["extra"] = 1.0
    with pytest.raises(ParamError, match="unknown"):
        params_from_dict(d)
    del d["extra"]
    with pytest.raises(ParamError, match="non-numeric"):
        params_from_dict({**d, "cost_a": "abc"})
    del d["cost_a"]
    with pytest.raises(ParamError, match="missing"):
        params_from_dict(d)


def test_params_kv_rejects_garbage_and_duplicates():
    with pytest.raises(ParamError, match="key=value"):
        params_from_kv("n 10\n")
    with pytest.raises(ParamError, match="duplicate"):
        params_from_kv("n=10\nn=11\n")


def test_params_json_rejects_duplicates(defaults):
    # json.loads alone keeps the last of two keys: this would load n = 12
    text = params_to_json(defaults).replace('"n": 10.0', '"n": 10.0, "n": 12.0')
    assert json.loads(text)["n"] == 12.0
    with pytest.raises(ParamError, match="^duplicate key 'n' in JSON parameter file$"):
        params_from_json(text)


def test_params_kv_allows_comments_and_blank_lines(defaults):
    text = "# reference parameters\n\n" + params_to_kv(defaults)
    assert params_from_kv(text) == defaults


def test_read_params_file_sniffs_format(tmp_path, defaults):
    kv = tmp_path / "p.cfg"
    kv.write_text(params_to_kv(defaults))
    js = tmp_path / "p.json"
    js.write_text(params_to_json(defaults))
    assert read_params_file(kv) == defaults
    assert read_params_file(js) == defaults


@pytest.mark.parametrize("a,beta,inside,outside", [
    (1e-10, 31.0, 8e9, 1e10),     # d**beta overflows past about 8.8e9
    (1e300, 40.0, 1e-8, 1e-9),    # d**beta underflows to 0 below about 4e-9
])
def test_cost_function_scales_a_power_that_leaves_the_floats(a, beta, inside, outside):
    c = CostFunction(a=a, beta=beta)
    # where d**beta is a nonzero float, exactly a * d**beta
    assert c(inside) == a * inside**beta
    # past it, a d^beta to a few ulps of the exact product
    exact = float(Fraction(a) * Fraction(outside) ** int(beta))
    assert 0 < exact < math.inf
    assert abs(c(outside) - exact) <= 4 * math.ulp(exact)
    # elementwise on arrays, with numpy's power
    inner, outer = c.times(1.0, np.array([inside, outside])).tolist()
    assert inner == (a * np.array([inside]) ** beta).item()
    assert abs(outer - exact) <= 4 * math.ulp(exact)


@pytest.mark.parametrize("a,beta,d", [
    (1e-320, 4.0, 1.4e154),                     # d**beta and d**(beta/2) overflow
    (1e-320, 4.0, math.sqrt(2.0) / 1.01e-154),  # a diagonal lattice hop past d_max
    (1e-320, 2.5, 1e248),
    (1.7e308, 4.0, 1e-155),                     # d**beta underflows, the cost is subnormal
    (1.0, 4.0, 1e200),                          # the cost itself overflows: inf
    (1.0, 4.0, 1e-200),                         # and underflows: 0
])
def test_cost_function_is_the_float_of_a_d_to_the_beta(a, beta, d):
    # wherever a d^beta is a finite float, to a few ulps; inf past it, not an error
    c = CostFunction(a=a, beta=beta)
    with mp.workdps(50):
        exact = float(mp.mpf(a) * mp.mpf(d) ** beta)
    for got in (c(d), c.times(1.0, np.array([d])).item()):
        assert got == exact if exact in (0.0, math.inf) else abs(got - exact) <= 4 * math.ulp(exact)


def test_validate_accepts_a_finite_cost_whose_power_overflows():
    # 1e10**31 overflows, while cost(d_max) = 1e-10 * 1e10**31 = 1e300 < v - u
    p = make_params(a=1e-10, d_max=1e10, beta=31.0, v=1e301)
    assert validate(p) is p


def test_cost_function_basics():
    c = CostFunction(a=2.0, beta=1.5)
    assert c(0.0) == 0.0
    assert c(1.0) == 2.0
    assert c(4.0) == pytest.approx(16.0)


def test_unit_is_one_below_two_to_the_512():
    # the unit is 1 up to just below 2^512, and from there the power of 2
    # that brings a value below 2^512
    assert _unit(math.nextafter(2.0**512, 0)) == 1.0
    assert _unit(2.0**512) == 2.0
    assert _unit(2.0**513) == 4.0

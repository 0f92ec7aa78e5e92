"""Series kernel: frozen examples, independent oracles, random properties."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from severi import RatSeries, SeriesError, form_catalog


def series(*cs):
    return RatSeries(cs)


# -- independent oracles -------------------------------------------------

def exp_by_partial_sums(a: RatSeries) -> RatSeries:
    """sum_k a^k / k!, using only mul/add; k > order contributes nothing."""
    total = RatSeries.one(a.order)
    term = RatSeries.one(a.order)
    for k in range(1, a.order + 1):
        term = term * a
        total = total + term * F(1, __import__("math").factorial(k))
    return total


def revert_by_lagrange(g: RatSeries) -> RatSeries:
    """Lagrange inversion: n.[q^n] g^(-1) = [q^(n-1)] (q/g)^n."""
    M = g.order
    base = RatSeries(g.coeffs[1:]).inverse()  # q/g as a unit series
    out = [F(0), F(0)]
    power = base
    out[1] = power[0]
    for n in range(2, M + 1):
        power = power * base
        out.append(power[n - 1] / n)
    return RatSeries(out[: M + 1])


# -- reference Fraction loops: the kernels' arithmetic, one Fraction op per term

def _ref_mul(a, b):
    M = min(len(a), len(b)) - 1
    out = [F(0)] * (M + 1)
    for i in range(M + 1):
        if a[i]:
            for j in range(M + 1 - i):
                if b[j]:
                    out[i + j] += a[i] * b[j]
    return tuple(out)


def _ref_inverse(a):
    inv0 = 1 / a[0]
    out = [inv0] + [F(0)] * (len(a) - 1)
    for m in range(1, len(a)):
        s = F(0)
        for k in range(1, m + 1):
            if a[k]:
                s += a[k] * out[m - k]
        out[m] = -s * inv0
    return tuple(out)


def _ref_exp(a):
    f = [F(1)] + [F(0)] * (len(a) - 1)
    for m in range(1, len(a)):
        s = F(0)
        for k in range(1, m + 1):
            if a[k]:
                s += k * a[k] * f[m - k]
        f[m] = s / m
    return tuple(f)


def _ref_log(a):
    g = [F(0)] * len(a)
    for m in range(1, len(a)):
        s = m * a[m]
        for k in range(1, m):
            if g[k] and a[m - k]:
                s -= k * g[k] * a[m - k]
        g[m] = s / m
    return tuple(g)


def _ref_revert(g):
    # order-by-order back-substitution: [q^n] sum_k h_k.g^k = [n == 1]
    M = g.order
    powers = [RatSeries.one(M)]
    for _ in range(M):
        powers.append(powers[-1] * g)
    h = [F(0)] * (M + 1)
    for n in range(1, M + 1):
        t = F(1 if n == 1 else 0)
        for k in range(1, n):
            if h[k]:
                t -= h[k] * powers[k][n]
        h[n] = t / powers[n][n]
    return tuple(h)


def _ref_pow_rat(a: RatSeries, e) -> RatSeries:
    """a^e as exp(e.log a), the kernel's exp and log composed."""
    return (a.log() * F(e)).exp()


def _ref_compose(f, g):
    # Horner on Fractions, truncated to the common order
    M = min(len(f), len(g)) - 1
    out = [f[M]] + [F(0)] * M
    for i in range(M - 1, -1, -1):
        out = list(_ref_mul(out, g[: M + 1]))
        out[0] += f[i]
    return tuple(out)


# -- frozen examples ------------------------------------------------------

def test_add_examples():
    assert (series(1, 1) + series(1, -1)).coeffs == (F(2), F(0))
    s = series(0, 1, 1)
    assert (RatSeries([0], order=2) + s) == s
    assert (series(0, 1, 1) + series(0, 0, 1)).coeffs == (F(0), F(1), F(2))


def test_mul_examples():
    assert (series(1, 1, 0) * series(1, -1, 0)).coeffs == (F(1), F(0), F(-1))
    assert (series(0, 1, 0) * series(0, 1, 0)).coeffs == (F(0), F(0), F(1))
    square = series(1, 1, 1) * series(1, 1, 1)
    assert square.coeffs == (F(1), F(2), F(3))


def test_mul_truncates_to_min_order():
    a = RatSeries([1] * 11)
    b = RatSeries([1] * 5)
    assert (a * b).order == 4
    assert (a + b).order == 4


def test_inverse_examples():
    geo = series(1, -1, 0, 0).inverse()
    assert geo.coeffs == (F(1), F(1), F(1), F(1))
    assert RatSeries.one(3).inverse() == RatSeries.one(3)
    inv = series(1, 2, 0, 0).inverse()
    assert inv.coeffs == (F(1), F(-2), F(4), F(-8))
    assert (inv * series(1, 2, 0, 0)) == RatSeries.one(3)


def test_inverse_needs_nonzero_constant():
    with pytest.raises(SeriesError, match=r"cannot invert a series with constant term 0"):
        series(0, 1).inverse()


def test_exp_examples():
    e = RatSeries([0, 1], order=4).exp()
    assert e.coeffs == (F(1), F(1), F(1, 2), F(1, 6), F(1, 24))
    assert RatSeries([0], order=3).exp() == RatSeries.one(3)
    grown = series(0, 1, 1, 0).exp()
    assert grown.coeffs == (F(1), F(1), F(3, 2), F(7, 6))
    assert grown == exp_by_partial_sums(series(0, 1, 1, 0))


def test_exp_needs_zero_constant():
    with pytest.raises(SeriesError, match=r"exp needs constant term 0"):
        series(1, 1).exp()


def test_log_examples():
    harmonic = series(1, -1, 0, 0).inverse().log()
    assert harmonic.coeffs == (F(0), F(1), F(1, 2), F(1, 3))
    assert RatSeries.one(4).log() == RatSeries([0], order=4)
    assert series(0, 1, 5, 0, 0).exp().log().coeffs == (F(0), F(1), F(5), F(0), F(0))


def test_log_needs_unit_constant():
    with pytest.raises(SeriesError, match=r"log needs constant term 1"):
        series(2, 1).log()


def test_pow_rat_examples():
    root = RatSeries([1, 1], order=3).pow_rat(F(1, 2))
    assert root.coeffs == (F(1), F(1, 2), F(-1, 8), F(1, 16))
    assert (root * root).coeffs == (F(1), F(1), F(0), F(0))
    assert RatSeries([1, 1], order=3) ** F(1, 2) == root
    assert series(1, 7, 3).pow_rat(0) == RatSeries.one(2)


def test_pow_int_matches_repeated_mul():
    s = series(1, 2, 3, 4)
    assert s ** 3 == s * s * s
    assert s ** 0 == RatSeries.one(3)
    assert (s ** -1) == s.inverse()


def test_negative_powers_of_a_unit():
    s = series(2, 1)
    assert s ** -1 == s.inverse() == series(F(1, 2), F(-1, 4))
    assert s ** -3 == s.inverse() ** 3
    assert series(3, -1, 4, F(1, 2)) ** -2 == series(3, -1, 4, F(1, 2)).inverse() ** 2
    with pytest.raises(SeriesError, match=r"cannot invert a series with constant term 0"):
        series(0, 1, 2) ** -2


def test_pow_with_an_integral_fraction_exponent():
    s = RatSeries([2, 1], order=3)
    assert s ** F(2) == s ** 2 == series(4, 4, 1, 0)
    assert s ** F(-3) == s ** -3 == s.inverse() ** 3
    assert s ** F(0) == RatSeries.one(3)
    unit = series(1, 3, -1)
    assert unit ** F(4, 2) == unit * unit == unit.pow_rat(2)


def test_pow_rat_needs_unit_constant():
    with pytest.raises(SeriesError, match=r"rational powers need constant term 1"):
        series(2, 1).pow_rat(F(1, 2))


def test_compose_examples():
    f = series(1, 3)
    g = series(0, 1, 6)
    assert f.compose(g).coeffs == (F(1), F(3))
    assert series(1, 3, 0).compose(series(0, 1, 6)).coeffs == (F(1), F(3), F(18))
    anything = series(2, -1, 5, 7)
    assert anything.compose(RatSeries.identity(3)) == anything
    fsq = series(0, 0, 1, 0)  # u^2
    assert fsq.compose(series(0, 1, 1, 0)).coeffs == (F(0), F(0), F(1), F(2))


def test_compose_needs_positive_valuation():
    with pytest.raises(SeriesError, match=r"composition needs inner constant term 0"):
        series(1, 1).compose(series(1, 1))


def test_revert_examples():
    q = RatSeries.identity(4)
    assert q.revert() == q
    r = RatSeries([0, 1, 1], order=4).revert()
    assert r.coeffs == (F(0), F(1), F(-1), F(2), F(-5))
    assert r == revert_by_lagrange(RatSeries([0, 1, 1], order=4))


def test_revert_rejects_bad_input():
    with pytest.raises(SeriesError, match=r"reversion needs g\[0\] = 0 and g\[1\] != 0"):
        series(1, 1).revert()
    with pytest.raises(SeriesError, match=r"reversion needs g\[0\] = 0 and g\[1\] != 0"):
        series(0, 0, 1).revert()


def test_serialization_round_trip():
    s = series(F(3, 2), F(-7), F(0), F(22, 7))
    assert s.to_strings() == ["3/2", "-7", "0", "22/7"]


def test_coefficients_stay_reduced():
    s = series(F(2, 4), F(6, 4))
    assert s.coeffs == (F(1, 2), F(3, 2))
    assert s.to_strings() == ["1/2", "3/2"]


def test_index_outside_order_raises():
    with pytest.raises(IndexError):
        series(1, 2)[2]


def test_repr_shows_the_first_seven_coefficients():
    assert repr(series(1, F(1, 2))) == "RatSeries([1, 1/2]; order=1)"
    assert repr(RatSeries(range(9))) == "RatSeries([0, 1, 2, 3, 4, 5, 6, ...]; order=8)"


def test_constructor_truncates_and_refuses_bad_input():
    assert RatSeries([1, 2, 3], order=1) == series(1, 2)
    with pytest.raises(TypeError, match="got str"):
        RatSeries(["1"])
    with pytest.raises(ValueError, match="order must be >= 0"):
        RatSeries([1], order=-1)
    with pytest.raises(ValueError, match="constant term"):
        RatSeries([])


def test_foreign_operands_are_not_implemented():
    s = series(1, 2)
    for op in (lambda: s + "x", lambda: s * "x", lambda: s - "x"):
        with pytest.raises(TypeError):
            op()
    assert (s == "x") is False


# -- randomized properties ------------------------------------------------

def _random_series(rng, order, constant):
    cs = [constant] + [F(rng.randint(-3, 3)) for _ in range(order)]
    return RatSeries(cs)


def test_exp_log_round_trip_randomized():
    rng = random.Random(20120913)
    for _ in range(30):
        a = _random_series(rng, 30, F(0))
        assert a.exp().log() == a
        u = _random_series(rng, 30, F(1))
        assert u.log().exp() == u


def test_pow_additivity_randomized():
    rng = random.Random(424242)
    for _ in range(25):
        base = _random_series(rng, 20, F(1))
        p = F(rng.randint(-5, 5), rng.choice([1, 2, 3]))
        q = F(rng.randint(-5, 5), rng.choice([1, 2, 3]))
        assert base.pow_rat(p) * base.pow_rat(q) == base.pow_rat(p + q)


def test_reversion_round_trip_randomized():
    rng = random.Random(777)
    q = RatSeries.identity(18)
    for _ in range(15):
        g = RatSeries([0, 1] + [F(rng.randint(-2, 2)) for _ in range(17)])
        h = g.revert()
        assert g.compose(h) == q
        assert h.compose(g) == q


def test_mul_commutes_and_distributes_randomized():
    rng = random.Random(5)
    for _ in range(20):
        a = _random_series(rng, 15, F(rng.randint(-3, 3)))
        b = _random_series(rng, 15, F(rng.randint(-3, 3)))
        c = _random_series(rng, 15, F(rng.randint(-3, 3)))
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


# -- integer kernels against the reference loops ----------------------------

# denominators up to 10^6, with the largest primes below it drawn often,
# so the common denominator of a series is a product of large primes
_DENOMINATORS = st.one_of(
    st.sampled_from([1, 2, 3, 999_979, 999_983]), st.integers(1, 10**6)
)
_FRACTIONS = st.builds(F, st.integers(-(10**6), 10**6), _DENOMINATORS)
_SCALARS = st.one_of(st.integers(-(10**6), 10**6), _FRACTIONS)


@st.composite
def _coeff_lists(draw, min_size=1, max_size=14):
    """Coefficient lists with zero entries and, often, a run of zeros."""
    entries = st.one_of(st.just(F(0)), _FRACTIONS)
    cs = draw(st.lists(entries, min_size=min_size, max_size=max_size))
    i = draw(st.integers(0, len(cs)))
    j = draw(st.integers(i, len(cs)))
    cs[i:j] = [F(0)] * (j - i)
    return cs


def _reduced(s: RatSeries) -> bool:
    return all(
        type(c) is F and c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
        for c in s.coeffs
    )


@settings(deadline=None)
@given(_coeff_lists(), _coeff_lists())
def test_mul_kernel_matches_reference(a, b):
    # operands of different orders truncate to the smaller one
    product = RatSeries(a) * RatSeries(b)
    assert product.coeffs == _ref_mul(a, b)
    assert product.order == min(len(a), len(b)) - 1
    assert _reduced(product)


@settings(deadline=None)
@given(_coeff_lists(), _SCALARS)
def test_scalar_mul_matches_reference(a, c):
    expected = tuple(x * c for x in a)
    assert (RatSeries(a) * c).coeffs == expected
    assert (c * RatSeries(a)).coeffs == expected
    assert _reduced(RatSeries(a) * c)


@settings(deadline=None)
@given(_FRACTIONS.filter(bool), _coeff_lists(min_size=0))
def test_inverse_kernel_matches_reference(a0, rest):
    # the constant term may be negative or fractional
    a = [a0] + rest
    inv = RatSeries(a).inverse()
    assert inv.coeffs == _ref_inverse(a)
    assert _reduced(inv)


@settings(deadline=None)
@given(_coeff_lists(min_size=0))
def test_exp_kernel_matches_reference(rest):
    a = [F(0)] + rest
    e = RatSeries(a).exp()
    assert e.coeffs == _ref_exp(a)
    assert _reduced(e)


@settings(deadline=None)
@given(_coeff_lists(min_size=0))
def test_log_kernel_matches_reference(rest):
    a = [F(1)] + rest
    g = RatSeries(a).log()
    assert g.coeffs == _ref_log(a)
    assert _reduced(g)


@settings(deadline=None)
@given(
    _coeff_lists(min_size=0, max_size=30),
    st.one_of(st.just(F(0)), st.integers(-(10**6), -1).map(F), _FRACTIONS),
)
def test_pow_rat_matches_reference(rest, e):
    # orders 0..30; e = 0, a negative integer, or a fraction over up to 10^6
    a = RatSeries([1] + rest)
    p = a.pow_rat(e)
    assert p == _ref_pow_rat(a, e)
    assert p.order == a.order
    assert _reduced(p)


@settings(deadline=None)
@given(
    st.one_of(st.sampled_from([1, -1, 2, -2]), _FRACTIONS.filter(bool)),
    _coeff_lists(min_size=0, max_size=29),
)
def test_revert_matches_reference(g1, rest):
    # orders 1..30; the linear term may be negative or fractional
    g = RatSeries([0, g1] + rest)
    h = g.revert()
    assert h.coeffs == _ref_revert(g)
    assert _reduced(h)


def _reversible(order, g1, seed):
    rng = random.Random(seed)
    rest = [F(rng.randint(-9, 9), rng.choice([1, 2, 5])) for _ in range(order - 1)]
    return RatSeries([0, g1] + rest)


def _q_plus_q_to_the(k):
    return RatSeries([0, 1] + [0] * (k - 2) + [1], order=40)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: form_catalog(40).u, id="u"),
        pytest.param(lambda: _reversible(40, F(-2, 3), 40), id="g1=-2/3"),
        pytest.param(lambda: _reversible(1, F(3, 5), 1), id="order1"),
        pytest.param(lambda: _reversible(2, F(-7), 2), id="order2"),
        pytest.param(lambda: _q_plus_q_to_the(2), id="q+q^2"),
        pytest.param(lambda: _q_plus_q_to_the(7), id="q+q^7"),
        pytest.param(lambda: _q_plus_q_to_the(40), id="q+q^40"),
    ],
)
def test_revert_matches_reference_up_to_order_40(make):
    # fixed seeds; the GYZ u, a negative fractional linear term, the
    # shortest chains, and q + q^k, whose coefficients vanish in runs
    g = make()
    h = g.revert()
    assert h == revert_by_lagrange(g)
    assert _reduced(h)
    assert g.compose(h) == RatSeries.identity(g.order)


@settings(deadline=None)
@given(_coeff_lists(max_size=10), _coeff_lists(min_size=0, max_size=9))
def test_compose_matches_reference(f, rest):
    # the inner series may be longer or shorter than the outer one
    g = [F(0)] + rest
    h = RatSeries(f).compose(RatSeries(g))
    assert h.coeffs == _ref_compose(f, g)
    assert _reduced(h)


@pytest.mark.parametrize(
    "outer, inner", [(0, 0), (0, 9), (9, 0), (1, 1), (40, 40), (40, 27), (27, 40), (40, 39)]
)
def test_compose_matches_reference_up_to_order_40(outer, inner):
    # fixed seeds; the outer or the inner series may be of order 0, longer or shorter
    rng = random.Random(100 * outer + inner)
    f = [F(rng.randint(-9, 9), rng.choice([1, 2, 3, 7])) for _ in range(outer + 1)]
    g = [F(0)] + [F(rng.randint(-9, 9), rng.choice([1, 2, 5])) for _ in range(inner)]
    h = RatSeries(f).compose(RatSeries(g))
    assert h.order == min(outer, inner)
    assert h.coeffs == _ref_compose(f, g)
    assert _reduced(h)


@pytest.mark.parametrize("chi", [F(3), F(-7, 2)])
def test_compose_round_trip_through_u_at_order_40(chi):
    # f(u^-1(u)) = f for f = B3^chi.B4^(-1/2), the shape the GYZ pipeline composes
    cat = form_catalog(40)
    f = cat.b3.pow_rat(chi) * cat.b4.pow_rat(F(-1, 2))
    assert f.compose(cat.u.revert()).compose(cat.u) == f


@settings(deadline=None)
@given(_coeff_lists(), _coeff_lists(), _SCALARS)
def test_add_sub_neg_match_reference(a, b, c):
    sa, sb = RatSeries(a), RatSeries(b)
    results = [
        (sa + sb, tuple(x + y for x, y in zip(a, b))),
        (sa - sb, tuple(x - y for x, y in zip(a, b))),
        (-sa, tuple(-x for x in a)),
        (sa + c, (a[0] + c, *a[1:])),
        (c + sa, (c + a[0], *a[1:])),
        (sa - c, (a[0] - c, *a[1:])),
    ]
    for s, expected in results:
        assert s.coeffs == expected
        assert _reduced(s)


@settings(deadline=None)
@given(_coeff_lists())
def test_truncate_matches_reference_at_every_order(a):
    s = RatSeries(a)
    for order in range(len(a)):
        t = s.truncate(order)
        assert t.coeffs == tuple(a[: order + 1])
        assert _reduced(t)
        assert RatSeries(a, order=order) == t
    for order in (len(a), -1, -2):
        with pytest.raises(ValueError):
            s.truncate(order)


# -- the canonical form, seen through the public API ------------------------

def _is_canonical(s: RatSeries) -> bool:
    rebuilt = RatSeries(s.coeffs)
    return rebuilt == s and s.coeffs is s.coeffs


@settings(deadline=None)
@given(_coeff_lists(), _coeff_lists(), _SCALARS)
def test_results_are_canonical(a, b, c):
    sa, sb = RatSeries(a), RatSeries(b)
    results = [sa * sb, sa + sb, sa - sb, -sa, sa * c, sa + c]
    results += [sa.truncate(order) for order in range(len(a))]
    for s in results:
        assert _is_canonical(s)


def test_equal_coefficients_mean_equal_series():
    # truncation, sums and scalar products can drop a denominator: reduce again
    cut = RatSeries([1, F(1, 2)]).truncate(0)
    assert cut == RatSeries.one(0)
    total = RatSeries([F(1, 2), F(1, 2)]) + RatSeries([F(1, 2), F(-1, 2)])
    assert total == RatSeries([1, 0])
    assert RatSeries([F(1, 2), F(1, 3)]) == RatSeries([3, 2]) * F(1, 6)
    assert RatSeries([F(2, 3)]) * F(3, 2) == RatSeries.one(0)
    assert RatSeries([0, 0]) * F(1, 7) == RatSeries([0], order=1)
    assert RatSeries([1, 2]) != RatSeries([1, 2, 0])

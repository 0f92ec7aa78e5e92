"""The fixed series u, B3, B4, Delta against independent oracles."""

from fractions import Fraction

import pytest

from severi import RatSeries, engine, form_catalog, sigma1
from severi.forms import delta_series, u_series

# tau(n) for n = 1..12, the discriminant coefficients (Lehmer's table)
TAU = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920, 534612, -370944]


def sigma1_oracle(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def jacobi_cube(order: int) -> RatSeries:
    """prod (1-q^n)^3 = sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2}."""
    coeffs = [0] * (order + 1)
    k = 0
    while k * (k + 1) // 2 <= order:
        coeffs[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    return RatSeries(coeffs)


def b3_reference(order: int) -> RatSeries:
    """B3 = D(G2)/q: coefficient of q^m is (m+1).sigma1(m+1)."""
    return RatSeries([(m + 1) * sigma1(m + 1) for m in range(order + 1)])


def b4_reference(order: int) -> RatSeries:
    """B4 = (Delta/q).(D^2(G2)/q), where D^2(G2) has coefficient n^2.sigma1(n)."""
    delta_over_q = RatSeries(delta_series(order + 1).coeffs[1:])
    ddg2_over_q = RatSeries([(m + 1) ** 2 * sigma1(m + 1) for m in range(order + 1)])
    return delta_over_q * ddg2_over_q


def test_sigma1_against_brute_force():
    for n in range(1, 200):
        assert sigma1(n) == sigma1_oracle(n)


def test_sigma1_rejects_nonpositive():
    with pytest.raises(ValueError):
        sigma1(0)


def test_engine_q_is_the_reversion_of_u_over_u():
    # the engine checks each read with Q = q(u)/u, built by Lagrange
    # inversion in integers; here q(u) is RatSeries.revert of u(q)
    for n in range(1, 42):
        q = u_series(n).revert()
        assert q[0] == 0
        assert engine.q_over_u(n) == q.coeffs[1:], n
        assert engine.q_over_u(n) is engine.q_over_u(n)  # built once per order


def test_u_prefix():
    u = u_series(6)
    assert u.coeffs == tuple(Fraction(c) for c in [0, 1, 6, 12, 28, 30, 72])


def test_b3_prefix():
    b3 = form_catalog(6).b3
    assert [b3[m] for m in range(7)] == [1, 6, 12, 28, 30, 72, 56]


def test_u_is_q_times_b3():
    cat = form_catalog(20)
    u, b3 = cat.u, cat.b3
    shifted = RatSeries([0, *b3.coeffs[:-1]])
    assert u == shifted


def test_delta_prefix_is_tau():
    delta = delta_series(len(TAU))
    assert [delta[n] for n in range(1, len(TAU) + 1)] == TAU
    assert delta[0] == 0


def test_delta_equals_the_product_multiplied_out():
    # q . prod_{n>=1} (1 - q^n)^24 through q^40, one factor (1 - q^n) at a time
    top = 40
    coeffs = [1] + [0] * (top - 1)  # q^0 .. q^(top-1)
    for n in range(1, top):
        for _ in range(24):
            for g in range(top - 1, n - 1, -1):
                coeffs[g] -= coeffs[g - n]
    expected = [0, *coeffs]
    for order in range(1, top + 1):
        assert delta_series(order).coeffs == tuple(expected[: order + 1]), order


def test_delta_equals_q_times_jacobi_cube_to_the_eighth():
    order = 24
    cube = jacobi_cube(order - 1)
    expected = RatSeries([0, *(cube**8).coeffs])
    assert delta_series(order) == expected


def test_b4_prefix():
    b4 = form_catalog(6).b4
    assert [b4[m] for m in range(7)] == [1, -12, 0, 800, -6300, 23976, -52480]


def test_b4_from_definition():
    # independent convolution of Delta/q with the doubly differentiated sum
    order = 11
    tau = [Fraction(t) for t in TAU[: order + 1]]
    dd = [Fraction((m + 1) ** 2 * sigma1_oracle(m + 1)) for m in range(order + 1)]
    b4 = form_catalog(order).b4
    for m in range(order + 1):
        conv = sum(tau[k] * dd[m - k] for k in range(m + 1))
        assert b4[m] == conv


def test_all_coefficients_are_integers():
    cat = form_catalog(30)
    for series in (cat.u, cat.b3, cat.b4, cat.delta_form):
        for c in series.coeffs:
            assert c.denominator == 1


def test_catalog_orders_and_normalizations():
    cat = form_catalog(10)
    assert cat.order == 10
    assert cat.u.order == 10
    assert cat.b3.order == 10
    assert cat.b4.order == 10
    assert cat.delta_form.order == 10
    assert cat.u[0] == 0 and cat.u[1] == 1
    assert cat.b3[0] == 1 and cat.b4[0] == 1


def test_catalog_matches_the_reference_builds():
    for order in range(1, 41):
        cat = form_catalog(order)
        assert cat.u == u_series(order), order
        assert cat.b3 == b3_reference(order), order
        assert cat.b4 == b4_reference(order), order
        assert cat.delta_form == delta_series(order), order


def test_order_validation():
    # the catalog starts at order 0 (u = 0, B3 = B4 = 1, Delta = 0);
    # u and Delta on their own need the q term
    with pytest.raises(ValueError):
        form_catalog(-1)
    for fn in (u_series, delta_series):
        with pytest.raises(ValueError):
            fn(0)

"""Plane generating series, B1/B2 extraction, and count prediction."""

import dataclasses
import math
from collections import Counter
from fractions import Fraction

import pytest

from severi import (
    CacheStore,
    DegreeCheckFailed,
    DegreeTooSmall,
    Invariants,
    InvalidState,
    NonIntegralPrediction,
    RatSeries,
    extract_b_series,
    form_catalog,
    gyz_predict,
    log_forms,
    plane_invariants,
    relative_severi,
    severi_degree,
)
from severi import engine, forms, gyz, nodepoly
from severi.engine import node_values, pack
from severi.gyz import BSeriesSolution, plane_generating_series
from test_series import _ref_pow_rat

B1_PREFIX = [1, -1, -5, 39, -345, 2961, -24866]
B2_PREFIX = [1, 5, 2, 35, -140, 986, -6643]


def test_plane_series_order_zero(shared_cache):
    ps = plane_generating_series(5, 0, cache=shared_cache)
    assert ps == RatSeries.one(0)


def test_plane_series_order_one(shared_cache):
    # N^{d,0} + N^{d,1} u = 1 + 3(d-1)^2 q + O(q^2)
    ps = plane_generating_series(2, 1, cache=shared_cache)
    assert ps.coeffs == (Fraction(1), Fraction(3))
    ps = plane_generating_series(3, 1, cache=shared_cache)
    assert ps.coeffs == (Fraction(1), Fraction(12))


def test_plane_series_collects_u_powers(shared_cache):
    # [q^2] of sum N^{d,delta} u^delta = 6 N^{d,1} + N^{d,2}
    ps = plane_generating_series(4, 2, cache=shared_cache)
    n1 = severi_degree(4, 1, cache=shared_cache)
    n2 = severi_degree(4, 2, cache=shared_cache)
    assert ps[2] == 6 * n1 + n2


def test_plane_series_is_the_counts_composed_with_u(shared_cache):
    # the explicit sum of N^{6,delta} u^delta, built with * and +
    u = form_catalog(5).u
    total = RatSeries([0], order=5)
    u_power = RatSeries.one(5)
    for delta in range(6):
        total = total + severi_degree(6, delta, cache=shared_cache) * u_power
        u_power = u_power * u
    assert plane_generating_series(6, 5, cache=shared_cache) == total


def test_plane_series_degree_guard(shared_cache):
    # the regime starts at low_degree(3) = 3
    with pytest.raises(DegreeTooSmall):
        plane_generating_series(2, 3, cache=shared_cache)
    counts = RatSeries([severi_degree(3, delta, cache=shared_cache) for delta in range(4)])
    assert plane_generating_series(3, 3, cache=shared_cache) == counts.compose(form_catalog(3).u)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        plane_generating_series(5, -1, cache=shared_cache)


def test_extraction_by_hand_at_order_one(shared_cache):
    # two degrees give 9 l1[1] - 3d l2[1] = R_d[1]; solving the 2x2
    # system by hand for d = 2, 3 gives l1[1] = -1, l2[1] = 5
    sol = extract_b_series(1, [2, 3], cache=shared_cache)
    assert sol.logs[0][1] == -1
    assert sol.logs[1][1] == 5
    assert sol.b1[1] == -1
    assert sol.b2[1] == 5


def test_extraction_order_six(shared_cache):
    sol = extract_b_series(6, range(7, 12), cache=shared_cache)
    assert [sol.b1[m] for m in range(7)] == B1_PREFIX
    assert [sol.b2[m] for m in range(7)] == B2_PREFIX
    assert sol.integral
    assert sol.d_used == (7, 8, 9, 10, 11)


def test_extraction_is_degree_independent(shared_cache):
    a = extract_b_series(3, [4, 5, 6], cache=shared_cache)
    b = extract_b_series(3, [5, 7, 9, 11], cache=shared_cache)
    assert a.b1 == b.b1
    assert a.b2 == b.b2


def test_the_solution_holds_the_logs_it_was_solved_with(shared_cache):
    sol = extract_b_series(6, (12, 13, 14), cache=shared_cache)
    catalog = form_catalog(6)
    assert [f.name for f in dataclasses.fields(sol)] == ["order", "logs", "d_used"]
    assert sol.logs[2:] == (catalog.b3.log(), catalog.b4.log())
    assert (sol.b1, sol.b2) == (sol.logs[0].exp(), sol.logs[1].exp())


def test_series_work_per_call(shared_cache, monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("log", "exp", "revert"):
        monkeypatch.setattr(RatSeries, name, counting(name, getattr(RatSeries, name)))
    counting_catalog = counting("form_catalog", forms.form_catalog)
    for module in (forms, gyz):
        monkeypatch.setattr(module, "form_catalog", counting_catalog)
    # one catalog, log B4 once, and quadratic_log's three logs; log B3 is
    # twice the read's d^2 part composed with u, and q is u times the
    # engine's q(u)/u, so no reversion
    sol = extract_b_series(6, (12, 13, 14), cache=shared_cache)
    assert calls == {"form_catalog": 1, "log": 4}
    calls.clear()
    gyz_predict(plane_invariants(20), sol)
    assert calls == {"exp": 1}
    calls.clear()
    # quadratic_log's three logs, no catalog and no reversion; the fourth
    # degree is checked by engine.node_values without a log
    log_forms(6, cache=shared_cache)
    assert calls == {"log": 3}


def test_extraction_needs_two_degrees(shared_cache):
    with pytest.raises(ValueError):
        extract_b_series(2, [5], cache=shared_cache)


def test_extraction_degree_guard(shared_cache):
    # low_degree(4) = 3, where Block's older bound asked for order + 1 = 5
    with pytest.raises(DegreeTooSmall, match=r"^degree 2 is below low_degree\(4\) = 3; "):
        extract_b_series(4, [2, 6], cache=shared_cache)
    assert extract_b_series(4, [3, 4], cache=shared_cache).d_used == (3, 4)


def test_extraction_refuses_a_degree_that_is_not_an_integer(shared_cache):
    # int() would truncate 3.9 and 5.2 to the degrees 3 and 5
    with pytest.raises(TypeError):
        extract_b_series(2, [3.9, 5.2], cache=shared_cache)


def test_extraction_duplicate_degrees_collapse(shared_cache):
    sol = extract_b_series(1, [3, 3, 2], cache=shared_cache)
    assert sol.d_used == (2, 3)


@pytest.mark.parametrize("bad", [2, 3, 4])
def test_inconsistency_is_detected(bad):
    # at order 2 (lo = 2, K = 1) the extraction reads all of degrees 2 and 3
    # and u^2 at 4 once; u^2 at one of them off by one, after warming,
    # breaks their check with q(u)/u, whatever the requested degrees
    poisoned = CacheStore()
    extract_b_series(2, [3, 9], cache=poisoned)
    poisoned._data[pack((bad, 2, (), (bad,)))] += 1
    with pytest.raises(DegreeCheckFailed, match=r"degrees 2\.\.4 "):
        extract_b_series(2, [3, 9], cache=poisoned)


@pytest.mark.parametrize("order", range(13))
def test_log_b3_is_the_catalogs(shared_cache, order):
    # the read's check with q(u)/u makes 2.(A o u) the log of the catalog's B3
    sol = extract_b_series(order, (order + 1, order + 2), cache=shared_cache)
    assert sol.logs[2] == form_catalog(max(order, 1)).b3.truncate(order).log()


@pytest.mark.parametrize("order", range(41))
def test_q_is_the_reversion_of_u(order):
    # gyz_predict composes with u times the engine's q(u)/u; the reversion
    # it replaced is the oracle.  At (x, y, z, t) = (2, 0, 0, 0) log F is
    # log B3, so log B3 = log(1 + q) predicts the coefficients of 1 + q(u)
    zero = RatSeries([0], order=order)
    logs = (zero, zero, RatSeries([1, 1], order=order).log(), zero)
    sol = BSeriesSolution(order=order, logs=logs, d_used=())
    q = form_catalog(max(order, 1)).u.revert().truncate(order)
    assert gyz_predict(Invariants(x=2, y=0, z=0, t=0), sol) == list((q + 1).coeffs)


@pytest.mark.parametrize("m", range(1, 11))
def test_predictions_count_from_the_low_degree_on(shared_cache, m):
    # the regime _check_degree enforces: from low_degree(m) on every
    # prediction to order m is the count; below it some count is missed,
    # except by accident at m = 2, d = 1 (T_1(1) = 0 and T_2(1) = 0)
    lo = engine.low_degree(m)
    sol = extract_b_series(m, (lo, lo + 1), cache=shared_cache)
    for d in range(1, 13):
        predicted = gyz_predict(plane_invariants(d), sol)
        counts = [relative_severi(d, k, cache=shared_cache) for k in range(m + 1)]
        agree = d >= engine.low_degree(m) or (m, d) == (2, 1)
        assert (predicted == counts) == agree, (m, d)


@pytest.mark.parametrize("m", range(1, 7))
def test_a_wrong_b3_coefficient_is_inconsistent(shared_cache, monkeypatch, m):
    # B3 off by one at q^m first moves log(B3) at q^m; the extraction reads
    # log B3 off the counts, not off the catalog, so its logs do not move
    def off_by_one(order):
        catalog = forms.form_catalog(order)
        b3 = list(catalog.b3.coeffs)
        b3[m] += 1
        return dataclasses.replace(catalog, b3=RatSeries(b3))

    expected = extract_b_series(6, (7, 8), cache=shared_cache).logs
    monkeypatch.setattr(gyz, "form_catalog", off_by_one)
    assert extract_b_series(6, (7, 8), cache=shared_cache).logs == expected
    wrong = off_by_one(6).b3.truncate(6).log()
    assert next(k for k in range(7) if wrong[k] != expected[2][k]) == m


def test_a_float_order_is_invalid_state(shared_cache):
    # the read comes before u is built, so a float order fails in
    # node_values, as it does for log_forms, and not in range(); the
    # generating series checks its order before it lists the counts
    with pytest.raises(InvalidState):
        extract_b_series(2.0, (3, 4), cache=shared_cache)
    with pytest.raises(InvalidState):
        log_forms(2.0, cache=shared_cache)
    with pytest.raises(InvalidState, match="needs an int order, got 2.0"):
        plane_generating_series(5, 2.0, cache=shared_cache)


def test_extraction_makes_one_read(monkeypatch):
    # one node_values call, at the polynomial values of d = 0, 1, 2 for
    # order 6, whatever the degrees
    calls = []

    def counting(*args):
        calls.append(args[:2])
        return node_values(*args)

    for module in (engine, nodepoly):
        monkeypatch.setattr(module, "node_values", counting)
    extract_b_series(6, range(7, 12), cache=CacheStore())
    assert calls == [((0, 1, 2), 6)]


def reference_b_series(order, d_list, cache):
    """log B1 .. log B4 solved per degree, without quadratic_log.

    Each degree's residue R_d = log(plane series) - chi(d).log(B3) +
    log(B4)/2, with the plane series from plane_generating_series, is
    9.log(B1) - 3d.log(B2); the two smallest degrees solve for both, and
    every other degree must agree.
    """
    degrees = sorted(set(d_list))
    catalog = form_catalog(max(order, 1))
    log_b3, log_b4 = catalog.b3.truncate(order).log(), catalog.b4.truncate(order).log()
    residues = [
        plane_generating_series(d, order, cache=cache).log()
        - plane_invariants(d).chi * log_b3 + log_b4 * Fraction(1, 2)
        for d in degrees
    ]
    (d0, d1), (r0, r1) = degrees[:2], residues[:2]
    # subtracting the two equations eliminates log(B1)
    log_b2 = (r0 - r1) * Fraction(1, 3 * (d1 - d0))
    log_b1 = (r0 + 3 * d0 * log_b2) * Fraction(1, 9)
    for d, r in zip(degrees[2:], residues[2:]):
        assert 9 * log_b1 - 3 * d * log_b2 == r, f"degree {d} disagrees with ({d0}, {d1})"
    return log_b1, log_b2, log_b3, log_b4


@pytest.mark.parametrize("order", range(11))
def test_extraction_matches_the_two_degree_reference(shared_cache, order):
    for d_list in (
        (order + 1, order + 2), tuple(range(order + 1, order + 4)),
        (order + 3, order + 7, order + 11),
    ):
        sol = extract_b_series(order, d_list, cache=shared_cache)
        assert sol.logs == reference_b_series(order, d_list, shared_cache), d_list


def test_extraction_and_prediction_at_order_zero(shared_cache):
    sol = extract_b_series(0, [1, 2], cache=shared_cache)
    assert sol.b1 == sol.b2 == RatSeries.one(0)
    assert sol.integral
    k3 = Invariants(x=4, y=0, z=0, t=24)
    for given in (sol, _given_b_series(B1_PREFIX, B2_PREFIX)):
        assert gyz_predict(plane_invariants(5), given, order=0) == [1]
        assert gyz_predict(k3, given, order=0) == [1]


def test_prediction_reproduces_plane_counts(shared_cache):
    sol = extract_b_series(3, [4, 5, 6, 7], cache=shared_cache)
    predicted = gyz_predict(plane_invariants(9), sol)
    expected = [relative_severi(9, delta, cache=shared_cache) for delta in range(4)]
    assert predicted == expected


def test_prediction_holds_out_the_target_degree(shared_cache):
    # degree 8 is not among the extraction degrees
    sol = extract_b_series(3, [4, 5, 6, 7], cache=shared_cache)
    predicted = gyz_predict(plane_invariants(8), sol)
    assert predicted == [relative_severi(8, delta, cache=shared_cache) for delta in range(4)]


def test_prediction_below_threshold_overcounts(shared_cache):
    # the formula yields the polynomial value 75, not the true count 0
    sol = extract_b_series(3, [4, 5, 6, 7], cache=shared_cache)
    predicted = gyz_predict(plane_invariants(1), sol)
    assert predicted == [1, 0, 0, 75]
    assert severi_degree(1, 3, cache=shared_cache) == 0


def test_prediction_matches_the_recursion_across_degrees(shared_cache):
    sol = extract_b_series(6, (12, 13, 14), cache=shared_cache)
    for d in range(15, 31):
        expected = [relative_severi(d, delta, cache=shared_cache) for delta in range(7)]
        assert gyz_predict(plane_invariants(d), sol) == expected, d


def test_prediction_order_cannot_exceed_solution(shared_cache):
    sol = extract_b_series(2, [3, 4], cache=shared_cache)
    with pytest.raises(ValueError):
        gyz_predict(plane_invariants(9), sol, order=3)


def test_prediction_order_must_be_nonnegative(shared_cache):
    sol = extract_b_series(2, [3, 4], cache=shared_cache)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        gyz_predict(plane_invariants(9), sol, order=-1)


def test_invalid_invariants_rejected(shared_cache):
    sol = extract_b_series(1, [2, 3], cache=shared_cache)
    with pytest.raises(ValueError, match=r"\(1,0,9,3\) needs z \+ t = 0 \(mod 12\)"):
        gyz_predict(Invariants(x=1, y=0, z=9, t=3), sol)


def test_non_integral_prediction_is_an_error():
    # a synthetic solution with a fractional log coefficient cannot
    # produce integer counts for the plane
    b1 = RatSeries([0, Fraction(1, 7), 0]).exp()
    fake = _given_b_series(b1.coeffs, [1, 0, 0])
    assert not fake.integral
    with pytest.raises(NonIntegralPrediction):
        gyz_predict(plane_invariants(5), fake)


# -- predictions against closed forms, without plane data -------------------

def _given_b_series(b1, b2):
    """A BSeriesSolution for fixed B1, B2 prefixes, with log B3 and log B4
    from the form catalog, as extract_b_series builds them; no engine run."""
    b1, b2 = RatSeries(b1), RatSeries(b2)
    order = b1.order
    catalog = form_catalog(max(order, 1))
    logs = tuple(
        b.log() for b in (b1, b2, catalog.b3.truncate(order), catalog.b4.truncate(order))
    )
    return BSeriesSolution(order=order, logs=logs, d_used=())


def _yau_zaslow(order):
    """[q^g] prod_n (1 - q^n)^-24 for g <= order, by 24 passes of
    multiplying by each geometric series 1/(1 - q^n)."""
    coeffs = [1] + [0] * order
    for n in range(1, order + 1):
        for _ in range(24):
            for g in range(n, order + 1):
                coeffs[g] += coeffs[g - n]
    return coeffs


def test_yau_zaslow_reference_values():
    assert _yau_zaslow(8) == [1, 24, 324, 3200, 25650, 176256, 1073720, 5930496, 30178575]


def test_k3_predictions_are_the_yau_zaslow_numbers():
    # K3: K = 0 and c2 = 24, so z = y = 0 and B1, B2 drop out; the
    # g-nodal curves in |L|, L.L = 2g - 2, are counted by Yau-Zaslow
    sol = _given_b_series([1] * 9, [1] * 9)
    yz = _yau_zaslow(8)
    for g in range(1, 9):
        assert gyz_predict(Invariants(x=2 * g - 2, y=0, z=0, t=24), sol, order=g)[g] == yz[g], g


KLEIMAN_PIENE_INVARIANTS = [
    (1, 1, 9, 3), (4, -6, 9, 3), (2, 0, 0, 24), (5, -1, 8, 4),
    (0, -2, 10, 2), (7, 3, -1, 13), (10, -4, 24, 0), (3, 5, 6, -6),
]


def _linear_forms(sol):
    """a_1 .. a_order as (x, y, z, t) coefficient tuples: kappa! [u^kappa]
    of each of the solution's forms composed with q(u), here the catalog's
    u reverted, which shares no code with engine.q_over_u."""
    q = form_catalog(max(sol.order, 1)).u.revert()
    in_u = [form.compose(q) for form in sol.forms]
    return [
        tuple(math.factorial(kappa) * s[kappa] for s in in_u)
        for kappa in range(1, sol.order + 1)
    ]


def test_forms_are_the_kleiman_piene_linear_forms(shared_cache):
    # Kleiman-Piene, "Enumerating singular curves on surfaces" (1999):
    # a_1 = 3x + 2y + t, a_2 = -42x - 39y - 6z - 7t,
    # a_3 = 1380x + 1576y + 376z + 138t, read off plane data alone
    sol = extract_b_series(3, (4, 5, 6), cache=shared_cache)
    assert _linear_forms(sol) == [
        (3, 2, 0, 1), (-42, -39, -6, -7), (1380, 1576, 376, 138),
    ]


@pytest.mark.parametrize("m", range(1, 8))
def test_log_forms_are_the_plane_shadow_of_the_forms(shared_cache, m):
    # log_forms is kappa! times quadratic_log's coefficients; here the
    # extraction's X, Y, Z, T, solved from the same quadratic, are composed
    # with q and read at (x, y, z, t) = (d^2, -3d, 9, 3).  The two-degree
    # reference above keeps a path that does not go through quadratic_log
    # (test_extraction_matches_the_two_degree_reference)
    sol = extract_b_series(m, (m + 1, m + 2, m + 3), cache=shared_cache)
    shadow = [
        nodepoly.LogForm(kappa, a2=ax, a1=-3 * ay, a0=9 * az + 3 * at)
        for kappa, (ax, ay, az, at) in enumerate(_linear_forms(sol), 1)
    ]
    assert log_forms(m, cache=shared_cache) == shadow


@pytest.mark.parametrize(
    "x, y, z, t", [(49, -21, 9, 3), (10, 0, 0, 24), *KLEIMAN_PIENE_INVARIANTS]
)
def test_predictions_match_kleiman_piene(x, y, z, t):
    # n_1 = 3x + 2y + t and 2 n_2 - n_1^2 = -42x - 39y - 6z - 7t, from the
    # published B1, B2 prefixes
    inv = Invariants(x=x, y=y, z=z, t=t)
    sol = _given_b_series(B1_PREFIX[:3], B2_PREFIX[:3])
    _, n1, n2 = gyz_predict(inv, sol)
    assert n1 == 3 * x + 2 * y + t
    assert 2 * n2 - n1 * n1 == -42 * x - 39 * y - 6 * z - 7 * t
    # to order 6, the counts are the exp of the linear forms at (x, y, z, t)
    sol = _given_b_series(B1_PREFIX, B2_PREFIX)
    a = [x * ax + y * ay + z * az + t * at for ax, ay, az, at in _linear_forms(sol)]
    assert gyz_predict(inv, sol) == list(nodepoly._egf_exp(a).coeffs)


def _four_powers(inv, sol, order):
    """Reference prediction: B1^z B2^y B3^chi B4^(-nu/2) as a product of
    four rational powers, each exp(e.log), composed with the reverted u."""
    catalog = form_catalog(max(order, 1))
    product = (
        _ref_pow_rat(sol.b1.truncate(order), inv.z)
        * _ref_pow_rat(sol.b2.truncate(order), inv.y)
        * _ref_pow_rat(catalog.b3.truncate(order), inv.chi)
        * _ref_pow_rat(catalog.b4.truncate(order), Fraction(-inv.nu, 2))
    )
    return list(product.compose(catalog.u.revert()).coeffs)


def test_prediction_matches_the_product_of_four_powers():
    sol = _given_b_series(B1_PREFIX, B2_PREFIX)
    invariants = [plane_invariants(d) for d in range(1, 13)]
    invariants.append(Invariants(x=10, y=0, z=0, t=24))  # K3, genus 6
    invariants += [Invariants(*inv) for inv in KLEIMAN_PIENE_INVARIANTS]
    for inv in invariants:
        for order in range(7):
            assert gyz_predict(inv, sol, order=order) == _four_powers(inv, sol, order), (inv, order)

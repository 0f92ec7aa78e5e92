"""Acceptance gate: every shipping criterion, each with its time budget.

Run with -s to see one PASS line per criterion; any failure shows as a
FAIL line plus the usual pytest report.  A criterion may have a second
test that extends it, such as the thresholds at delta = 7 and 8.
"""

import random
import time
from fractions import Fraction

from severi import (
    RatSeries,
    bell_polynomial,
    extract_b_series,
    fit_node_polynomial,
    form_catalog,
    gyz_predict,
    log_forms,
    plane_invariants,
    reconstruct_from_log_forms,
    relative_severi,
    severi_degree,
    severi_table,
    threshold,
)
from severi.engine import CacheStore, cache_load, cache_save
from test_nodepoly import reference_log_forms


class Budget:
    """Context manager that times a criterion and prints its verdict."""

    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(
            f"{verdict} criterion {self.number}: {self.label} "
            f"({elapsed:.2f}s, budget {self.seconds}s)"
        )
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its budget: "
                f"{elapsed:.2f}s >= {self.seconds}s"
            )
        return False


def test_criterion_1_golden_counts(shared_cache):
    with Budget(1, "golden degree counts", 1):
        assert [severi_degree(1, k, cache=shared_cache) for k in range(4)] == [1, 0, 0, 0]
        assert severi_degree(2, 1, cache=shared_cache) == 3
        assert severi_degree(3, 1, cache=shared_cache) == 12
        assert severi_degree(3, 2, cache=shared_cache) == 21
        assert severi_degree(3, 3, cache=shared_cache) == 15


def test_criterion_2_polynomial_value_vs_true_count(shared_cache):
    with Budget(2, "T_3(1) = 75 while the count is 0", 30):
        poly = fit_node_polynomial(3, cache=shared_cache)
        assert poly(1) == 75
        assert severi_degree(1, 3, cache=shared_cache) == 0


def test_criterion_3_thresholds_fast(shared_cache):
    with Budget(3, "thresholds for delta = 3..6", 300):
        got = [threshold(delta, cache=shared_cache) for delta in (3, 4, 5, 6)]
        assert got == [3, 3, 4, 4]
        assert got == [delta // 2 + delta % 2 + 1 for delta in (3, 4, 5, 6)]


def test_criterion_3_thresholds_extended(shared_cache):
    with Budget(3, "thresholds for delta = 7, 8", 1800):
        assert threshold(7, cache=shared_cache) == 5
        assert threshold(8, cache=shared_cache) == 5


def test_criterion_4_log_structure(shared_cache):
    with Budget(4, "quadratic log forms, pattern, round trip, Bell oracle", 300):
        # log_forms fits each quadratic through three degrees; the reference
        # interpolates each coefficient over 13 degrees and raises
        # NotQuadratic unless it collapses, so agreement proves quadraticity
        forms = log_forms(6, cache=shared_cache)
        assert forms == reference_log_forms(6, cache=shared_cache)
        assert [f.kappa for f in forms] == [1, 2, 3, 4, 5, 6]
        for f in forms:
            assert f.a2.denominator == 1
            assert f.a1.denominator == 1 and f.a1 % 3 == 0
            assert f.a0.denominator == 1 and f.a0 % 3 == 0

        # exp/log round trip: reproduce every T_delta(d) on the fit window
        polys = [fit_node_polynomial(k, cache=shared_cache) for k in range(7)]
        for d in (8, 14, 20):  # inside the delta = 6 window d = 8..20
            rebuilt = reconstruct_from_log_forms(6, d, forms)
            assert rebuilt == [p(d) for p in polys]

        # Bell values against the set-partition definition
        def set_partitions(items):
            if not items:
                yield []
                return
            first, rest = items[0], items[1:]
            for part in set_partitions(rest):
                for i in range(len(part)):
                    yield part[:i] + [[first] + part[i]] + part[i + 1 :]
                yield [[first]] + part

        rng = random.Random(6)
        for delta in range(7):
            a = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(delta)]
            oracle = sum(
                _product(Fraction(a[len(block) - 1]) for block in part)
                for part in set_partitions(list(range(delta)))
            )
            assert bell_polynomial(delta, a) == oracle


def _product(factors):
    out = Fraction(1)
    for f in factors:
        out *= f
    return out


def test_criterion_5_b_series_extraction(shared_cache):
    with Budget(5, "extract B1, B2 from degrees 7..11 at order 6", 600):
        sol = extract_b_series(6, range(7, 12), cache=shared_cache)
        assert sol.integral
        assert sol.b1[1] == -1
        assert sol.b2[1] == 5
        assert sol.d_used == (7, 8, 9, 10, 11)


def test_criterion_6_held_out_degree_round_trip(shared_cache):
    with Budget(6, "predict degree 12 counts from degrees 7..11", 600):
        sol = extract_b_series(6, range(7, 12), cache=shared_cache)
        assert 12 not in sol.d_used
        predicted = gyz_predict(plane_invariants(12), sol)
        expected = [relative_severi(12, delta, cache=shared_cache) for delta in range(7)]
        assert predicted == expected


def test_criterion_7_series_kernel_properties():
    with Budget(7, "series kernel randomized properties at order 30", 10):
        order = 30
        rng = random.Random(30)
        cases = 0

        def rand_series(constant):
            coeffs = [Fraction(constant)] + [
                Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                for _ in range(order)
            ]
            return RatSeries(coeffs)

        for _ in range(40):  # exp/log round trips
            f = rand_series(0)
            assert f.exp().log() == f
            g = rand_series(1)
            assert g.log().exp() == g
            cases += 1

        for _ in range(30):  # pow additivity
            f = rand_series(1)
            e1 = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
            e2 = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
            assert f.pow_rat(e1) * f.pow_rat(e2) == f.pow_rat(e1 + e2)
            cases += 1

        for case in range(30):  # reversion round trips, alternating direction
            coeffs = [Fraction(0), Fraction(rng.choice([1, -1, 2, 3]))] + [
                Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                for _ in range(order - 1)
            ]
            g = RatSeries(coeffs)
            h = g.revert()
            outer, inner = (g, h) if case % 2 else (h, g)
            assert outer.compose(inner) == RatSeries.identity(order)
            cases += 1

        assert cases >= 100


def test_criterion_8_determinism_and_cache(tmp_path):
    with Budget(8, "table(10, 6): cold vs warm vs reverse order, warm >= 10x", 600):
        path = tmp_path / "severi.cache"

        cold_store = CacheStore()
        t0 = time.perf_counter()
        cold_rows = severi_table(10, 6, cache=cold_store)
        cold_time = time.perf_counter() - t0
        cache_save(cold_store, path)
        cold_bytes = path.read_bytes()

        warm_store = cache_load(path)
        t0 = time.perf_counter()
        warm_rows = severi_table(10, 6, cache=warm_store)
        warm_time = time.perf_counter() - t0
        cache_save(warm_store, path)
        warm_bytes = path.read_bytes()

        # the same grid queried in reverse order fills the store from the
        # other end; values and saved bytes must not depend on the order
        reversed_store = CacheStore()
        reversed_rows = [[0] * 7 for _ in range(10)]
        for d in range(10, 0, -1):
            for delta in range(6, -1, -1):
                reversed_rows[d - 1][delta] = severi_degree(d, delta, cache=reversed_store)
        cache_save(reversed_store, path)
        reversed_bytes = path.read_bytes()

        assert cold_rows == warm_rows == reversed_rows
        assert cold_bytes == warm_bytes == reversed_bytes
        assert warm_time < cold_time / 10, (
            f"warm run not 10x faster: cold {cold_time:.4f}s, warm {warm_time:.4f}s"
        )

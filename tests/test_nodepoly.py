"""Node polynomials, thresholds, and the exponential/log structure."""

import json
import math
import random
from fractions import Fraction

import pytest

from severi import (
    CacheStore,
    DegreeCheckFailed,
    InvalidState,
    Invariants,
    RatSeries,
    bell_polynomial,
    engine,
    fit_node_polynomial,
    log_forms,
    nodepoly,
    plane_invariants,
    reconstruct_from_log_forms,
    relative_severi,
    severi_degree,
    threshold,
    threshold_report,
)
from severi.cli import main
from severi.engine import cache_save
from severi.nodepoly import LogForm, NodePolynomial, interpolate
from test_engine import block_node_values


def set_partitions(items):
    """All set partitions, built by placing each item into existing or new blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def bell_oracle(delta, a):
    """P_delta = sum over set partitions of [delta] of prod a_{|block|}."""
    total = Fraction(0)
    for part in set_partitions(list(range(delta))):
        term = Fraction(1)
        for block in part:
            term *= Fraction(a[len(block) - 1])
        total += term
    return total


# ---------------------------------------------------------------- interpolate


def test_interpolate_constant():
    assert interpolate((5,), (7,)) == (Fraction(7),)


def test_interpolate_line():
    assert interpolate((0, 1), (3, 5)) == (Fraction(3), Fraction(2))


def test_interpolate_square():
    # d^2 through three points
    assert interpolate((1, 2, 3), (1, 4, 9)) == (
        Fraction(0),
        Fraction(0),
        Fraction(1),
    )


def test_interpolate_random_round_trip():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 7)
        coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(n)]
        xs = rng.sample(range(-12, 13), n)
        ys = [sum(c * x**j for j, c in enumerate(coeffs)) for x in xs]
        assert interpolate(tuple(xs), ys) == tuple(coeffs)


def test_interpolate_input_validation():
    with pytest.raises(ValueError):
        interpolate((), ())
    with pytest.raises(ValueError):
        interpolate((1, 2), (1,))
    with pytest.raises(ValueError):
        interpolate((1, 1), (2, 3))


# ------------------------------------------------------------ node polynomials


def test_t0_is_one(shared_cache):
    p = fit_node_polynomial(0, cache=shared_cache)
    assert p.coeffs == (Fraction(1),)
    assert p(17) == 1


def test_t1_coefficients(shared_cache):
    p = fit_node_polynomial(1, cache=shared_cache)
    assert p.coeffs == (Fraction(3), Fraction(-6), Fraction(3))
    assert len(p.coeffs) - 1 == 2
    assert p.fit_range == (3, 4, 5)
    assert p(6) == relative_severi(6, 1, cache=shared_cache)  # past the fit range


def test_t2_matches_counts_in_regime(shared_cache):
    p = fit_node_polynomial(2, cache=shared_cache)
    for d in (4, 5, 6, 7, 8, 9):
        assert p(d) == relative_severi(d, 2, cache=shared_cache)


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


# Kleiman-Piene closed forms (alg-geom/9903192), coefficients lowest degree first:
# T_2 = 3/2 (d-1)(d-2)(3d^2-3d-11)
# T_3 = 9/2 d^6 - 27d^5 + 9/2 d^4 + 423/2 d^3 - 229d^2 - 829/2 d + 525
KLEIMAN_PIENE = {
    2: _poly_mul(_poly_mul((Fraction(-3, 2), Fraction(3, 2)), (-2, 1)), (-11, -3, 3)),
    3: tuple(Fraction(c) for c in ("525", "-829/2", "-229", "423/2", "9/2", "-27", "9/2")),
}


@pytest.mark.parametrize("delta, at_delta_plus_one", [(2, 21), (3, 675)])
def test_fit_matches_kleiman_piene(shared_cache, delta, at_delta_plus_one):
    p = fit_node_polynomial(delta, cache=shared_cache)
    assert p.coeffs == KLEIMAN_PIENE[delta]
    assert p(delta + 1) == at_delta_plus_one


def test_t3_at_one_is_75_but_count_is_zero(shared_cache):
    p = fit_node_polynomial(3, cache=shared_cache)
    assert p(1) == 75
    assert severi_degree(1, 3, cache=shared_cache) == 0


def test_leading_coefficient_is_power_of_three_over_factorial(shared_cache):
    for delta in range(5):
        p = fit_node_polynomial(delta, cache=shared_cache)
        assert p.coeffs[-1] == Fraction(3**delta, math.factorial(delta))


def test_fit_rejects_negative_delta():
    with pytest.raises(ValueError):
        fit_node_polynomial(-1)


def test_fit_refuses_a_float_delta():
    store = CacheStore()
    with pytest.raises(InvalidState, match="node polynomial needs an int delta"):
        fit_node_polynomial(2.0, cache=store)
    assert len(store) == 0


def poisoned_store(delta, d=None):
    """A store whose count N^{d,delta} is off by one, d = delta + 2 unless
    given: the last degree lo + 2 that node_values reads, for delta <= 3."""
    d = delta + 2 if d is None else d
    store = CacheStore()
    store.put((d, delta, (), (d,)), severi_degree(d, delta, cache=CacheStore()) + 1)
    return store


def reference_fit(delta, cache=None):
    """T_delta interpolated from the counts at d = delta+2 .. 3delta+2, with
    the count at 3delta+3 held out: a fit that shares nothing with
    engine.node_values but the recursion."""
    xs = tuple(range(delta + 2, 3 * delta + 3))
    ys = [relative_severi(d, delta, cache=cache) for d in xs]
    poly = NodePolynomial(delta, interpolate(xs, ys), xs)
    guard = 3 * delta + 3
    assert poly(guard) == relative_severi(guard, delta, cache=cache), f"T_{delta}({guard})"
    return poly


@pytest.mark.parametrize("delta", range(7))
def test_fit_equals_the_deep_window_reference(shared_cache, delta):
    p = fit_node_polynomial(delta, cache=shared_cache)
    ref = reference_fit(delta, cache=shared_cache)
    assert (p.coeffs, p.fit_range) == (ref.coeffs, ref.fit_range)


@pytest.mark.parametrize("delta", [1, 3])
def test_fit_fails_on_a_count_off_by_one_at_degree_delta_plus_one(delta):
    # delta + 1 = lo + 1: N^{delta+1,delta} enters F_{lo+1}^2 twice over
    with pytest.raises(DegreeCheckFailed, match=f"degrees {delta}..{delta + 2} "):
        fit_node_polynomial(delta, cache=poisoned_store(delta, delta + 1))


def test_fit_checks_the_guard_point():
    # the fit's guard is the read's check with q(u)/u, which N^{5,3} at
    # lo + 2 = 5 breaks
    with pytest.raises(DegreeCheckFailed, match=r"F_3 \. F_5 \. q\(u\)/u = F_4\^2"):
        fit_node_polynomial(3, cache=poisoned_store(3))


def test_fit_refuses_a_degenerate_polynomial(monkeypatch):
    # all-zero counts keep the read's identities with q(u)/u, but the read
    # refuses a row that does not start with N^{e,0} = 1, so no fit or
    # count past lo + 2 comes out of them; the first row is at lo - 1
    monkeypatch.setattr(engine, "relative_severi", lambda d, delta, cache=None: 0)
    with pytest.raises(DegreeCheckFailed, match=r"degree 1 do not start with N\^\{e,0\} = 1"):
        fit_node_polynomial(2, cache=CacheStore())
    with pytest.raises(DegreeCheckFailed, match=r"degree 2 do not start"):
        severi_degree(20, 3, cache=CacheStore())


# ------------------------------------------------------------------ thresholds


def test_thresholds_for_small_delta(shared_cache):
    assert threshold(1, cache=shared_cache) == 1
    assert threshold(2, cache=shared_cache) == 1
    assert threshold(3, cache=shared_cache) == 3


def test_polynomial_matches_everywhere_for_delta_at_most_two(shared_cache):
    for delta in (1, 2):
        p = fit_node_polynomial(delta, cache=shared_cache)
        for d in range(1, 3 * delta + 4):
            assert p(d) == relative_severi(d, delta, cache=shared_cache)


def test_threshold_witness(shared_cache):
    rep = threshold_report(3, cache=shared_cache)
    assert rep.threshold == 3
    assert rep.witness is not None
    assert rep.witness.d == 2
    assert rep.witness.actual == severi_degree(2, 3, cache=shared_cache)
    assert rep.witness.predicted != rep.witness.actual


def test_no_witness_when_polynomial_holds_everywhere(shared_cache):
    rep = threshold_report(1, cache=shared_cache)
    assert rep.threshold == 1
    assert rep.witness is None


def test_a_mismatch_just_below_the_fit_window_is_the_witness(monkeypatch):
    # node_values checks d = lo .. lo+2, lo = 2 at delta = 2, so the scan
    # starts at lo-1
    true_degree = nodepoly.severi_degree

    def poisoned(d, delta, cache=None):
        return true_degree(d, delta, cache=cache) + (d == delta - 1)

    monkeypatch.setattr(nodepoly, "severi_degree", poisoned)
    rep = threshold_report(2, cache=CacheStore())
    assert (rep.threshold, rep.witness.d) == (2, 1)


def test_threshold_reads_each_count_once(monkeypatch):
    # the counts at degrees 6, 7 (all k), 5 (k <= K = 8) and 8 (k = 9) once
    # for T_9, then the scan's count N^{5,9}, which is the recursion's through
    # severi_degree; every root the recursion is asked for goes through
    # engine._evaluate
    true_evaluate = engine._evaluate
    reads = []

    def counting(root, cache):
        reads.append(engine.unpack(root)[:2])
        return true_evaluate(root, cache)

    monkeypatch.setattr(engine, "_evaluate", counting)
    store = CacheStore()
    assert threshold(9, cache=store) == 6
    assert sorted(reads) == sorted([(5, 9), (8, 9)] + [(5, k) for k in range(9)] + [
        (d, k) for d in range(6, 8) for k in range(10)
    ])
    assert (store.misses, store.root_count) == (30, 31)  # N^{5,9} is a state of N^{6,9}


def test_threshold_compares_counts_below_the_low_degree_only(monkeypatch):
    # lo = 7 at delta = 12: from lo on the counts are the read itself, so
    # the scan's first count is at lo-1 = 6, where it already mismatches
    true_degree = nodepoly.severi_degree
    degrees = []

    def recording(d, delta, cache=None):
        degrees.append(d)
        return true_degree(d, delta, cache=cache)

    monkeypatch.setattr(nodepoly, "severi_degree", recording)
    rep = threshold_report(12, cache=CacheStore())
    assert (rep.threshold, rep.witness.d, degrees) == (7, 6, [6])


@pytest.mark.parametrize("delta", range(3, 13))
def test_thresholds_meet_gottsches_bound(shared_cache, delta):
    # Gottsche conjectured T_delta(d) = N^{d,delta} for d >= delta/2 + 1,
    # which node_values now assumes from lo = ceil(delta/2) + 1 on; so the
    # bound is measured here with T_delta read at Block's delta..delta+3
    # against the recursion at every degree below delta.  It is sharp: the
    # count one degree below it differs
    degrees = range(delta - 1, 0, -1)
    least, witness = delta, None
    for d, values in zip(degrees, block_node_values(degrees, delta, cache=shared_cache)):
        actual = relative_severi(d, delta, cache=shared_cache)
        if values[delta] != actual:
            witness = (d, values[delta], actual)
            break
        least = d
    assert least == math.ceil(delta / 2) + 1
    assert witness[0] == least - 1
    rep = threshold_report(delta, cache=shared_cache)
    assert (rep.threshold, tuple(rep.witness)) == (least, witness)


def test_threshold_refuses_a_float_delta():
    store = CacheStore()
    with pytest.raises(InvalidState, match="threshold needs an int delta"):
        threshold_report(3.0, cache=store)
    assert len(store) == 0


def test_threshold_rejects_delta_zero():
    with pytest.raises(ValueError):
        threshold(0)


# ------------------------------------------------------------------- log forms


class NotQuadratic(RuntimeError):
    """A log-form coefficient failed to collapse to degree <= 2 in d."""


def reference_log_forms(delta_max: int, cache: CacheStore | None = None) -> list[LogForm]:
    """The forms q_kappa(d) = kappa! [u^kappa] log sum_delta T_delta(d) u^delta.

    Each coefficient of the log is a priori a polynomial of degree up to
    2.kappa in d; it is interpolated at enough points to resolve that
    degree, and everything above degree 2 must vanish exactly.
    """
    if delta_max < 1:
        raise ValueError("log forms need delta_max >= 1")
    polys = [reference_fit(delta, cache=cache) for delta in range(delta_max + 1)]
    npoints = max(4, 2 * delta_max + 1)
    ds = range(delta_max + 2, delta_max + 2 + npoints)
    logs = {}
    for d in ds:
        gen = RatSeries([p(d) for p in polys])  # in u, constant term T_0 = 1
        logs[d] = gen.log()
    out = []
    for kappa in range(1, delta_max + 1):
        factor = math.factorial(kappa)
        values = [factor * logs[d][kappa] for d in ds]
        coeffs = interpolate(tuple(ds), values)
        for power in range(3, len(coeffs)):
            if coeffs[power] != 0:
                raise NotQuadratic(
                    f"q_{kappa} has a nonzero d^{power} coefficient: {coeffs[power]}"
                )
        a0, a1, a2 = (list(coeffs) + [Fraction(0)] * 3)[:3]
        out.append(LogForm(kappa=kappa, a2=a2, a1=a1, a0=a0))
    return out


@pytest.mark.parametrize("delta_max", range(1, 7))
def test_log_forms_agree_with_the_interpolated_reference(delta_max):
    # quadratics through three degrees against the interpolation of the node
    # polynomials at 2.delta_max + 1 degrees, each on its own fresh store
    forms = log_forms(delta_max, cache=CacheStore())
    assert forms == reference_log_forms(delta_max, cache=CacheStore())


def lagrange_quadratic_log(delta, cache=None):
    """(A, B, C) through the logs of the counts at lo..lo+2 themselves and
    their Lagrange offsets at t = d - lo: the reference for the read at
    d = 0, 1, 2 in nodepoly.quadratic_log."""
    lo = engine.low_degree(delta)
    rows = engine.node_values((lo, lo + 1, lo + 2), delta, cache)
    l0, l1, l2 = (RatSeries(values).log() for values in rows)
    a = (l2 - 2 * l1 + l0) * Fraction(1, 2)
    b = l1 - l0 - (2 * lo + 1) * a
    return a, b, l0 - lo * (b + lo * a)


@pytest.mark.parametrize("delta", range(17))
def test_quadratic_log_equals_the_lagrange_read(shared_cache, delta):
    # the values at d = 0, 1, 2 are the read's power products below lo
    got = nodepoly.quadratic_log(delta, cache=shared_cache)
    assert got == lagrange_quadratic_log(delta, cache=shared_cache)


# the names say held-out degree: the poisoned count is at lo + 2, the
# last degree of the read, which q(u)/u checks

@pytest.mark.parametrize("delta_max", [1, 3])
def test_log_forms_check_the_held_out_degree(delta_max):
    with pytest.raises(DegreeCheckFailed, match=f"degrees {delta_max}..{delta_max + 2} "):
        log_forms(delta_max, cache=poisoned_store(delta_max))


@pytest.mark.parametrize("delta", [1, 3])
def test_node_values_check_the_held_out_degree(delta):
    with pytest.raises(DegreeCheckFailed, match=f"degrees {delta}..{delta + 2} "):
        engine.node_values((delta + 10,), delta, cache=poisoned_store(delta))


def run_on_a_poisoned_file(tmp_path, capsys, argv):
    """Exit code and error type of argv against a file off by one at (5, 3)."""
    path = tmp_path / "poisoned.cache"
    cache_save(poisoned_store(3), path)
    code = main(argv + ["--cache", str(path)])
    return code, json.loads(capsys.readouterr().out)["error"]["type"]


def test_logforms_cli_exits_2_on_a_held_out_mismatch(tmp_path, capsys):
    argv = ["logforms", "--deltamax", "3"]
    assert run_on_a_poisoned_file(tmp_path, capsys, argv) == (2, "DegreeCheckFailed")


@pytest.mark.parametrize("argv", [
    ["count", "--d", "10", "--delta", "3"],
    ["count", "--d", "10", "--delta", "3", "--alpha", "0", "--beta", "10,0"],
    ["table", "--dmax", "7", "--deltamax", "3"],
    ["threshold", "--delta", "3"],
    ["nodepoly", "--delta", "3"],
], ids=["count", "count-spelled-out", "table", "threshold", "nodepoly"])
def test_node_values_cli_exits_2_on_a_held_out_mismatch(tmp_path, capsys, argv):
    assert run_on_a_poisoned_file(tmp_path, capsys, argv) == (2, "DegreeCheckFailed")


@pytest.mark.parametrize("delta", range(1, 9))
def test_node_values_equal_the_log_form_reconstruction(shared_cache, delta):
    # below delta these are the values T_k(d) of the node polynomials, not counts
    forms = log_forms(delta, cache=shared_cache)
    degrees = range(1, 3 * delta + 13)
    got = engine.node_values(degrees, delta, cache=shared_cache)
    for d, values in zip(degrees, got, strict=True):
        assert values == reconstruct_from_log_forms(delta, d, forms), d


def test_first_log_form_equals_t1(shared_cache):
    forms = log_forms(1, cache=shared_cache)
    assert len(forms) == 1
    q1 = forms[0]
    assert (q1.a2, q1.a1, q1.a0) == (3, -6, 3)


def test_log_form_coefficient_pattern(shared_cache):
    for f in log_forms(4, cache=shared_cache):
        assert f.a2.denominator == 1
        assert f.a1.denominator == 1 and f.a1 % 3 == 0
        assert f.a0.denominator == 1 and f.a0 % 3 == 0


def test_log_forms_round_trip_to_polynomials(shared_cache):
    delta_max = 4
    forms = log_forms(delta_max, cache=shared_cache)
    polys = [fit_node_polynomial(k, cache=shared_cache) for k in range(delta_max + 1)]
    for d in (9, 10, 13):
        rebuilt = reconstruct_from_log_forms(delta_max, d, forms)
        assert rebuilt == [p(d) for p in polys]


def test_reconstruction_is_the_bell_polynomial_over_delta_factorial(shared_cache):
    forms = log_forms(6, cache=shared_cache)
    for d in range(8, 13):
        rebuilt = reconstruct_from_log_forms(6, d, forms)
        q = [f(d) for f in forms]
        for delta in range(7):
            assert rebuilt[delta] == bell_polynomial(delta, q) / math.factorial(delta)


def test_log_forms_input_validation():
    with pytest.raises(ValueError):
        log_forms(0)


def test_reconstruct_requires_enough_forms(shared_cache):
    forms = [LogForm(kappa=1, a2=Fraction(3), a1=Fraction(-6), a0=Fraction(3))]
    with pytest.raises(ValueError):
        reconstruct_from_log_forms(2, 5, forms)
    # three forms, but kappa = 2 is missing
    f1, _, f3 = log_forms(3, cache=shared_cache)
    with pytest.raises(ValueError, match="every kappa <= delta_max"):
        reconstruct_from_log_forms(3, 5, [f1, f1, f3])


# ------------------------------------------------------------------------ Bell


def test_bell_low_cases():
    a = [Fraction(2), Fraction(3), Fraction(5), Fraction(7)]
    assert bell_polynomial(0, []) == 1
    assert bell_polynomial(1, a) == 2
    assert bell_polynomial(2, a) == 2**2 + 3
    assert bell_polynomial(3, a) == 2**3 + 3 * 2 * 3 + 5


def test_bell_against_set_partition_oracle():
    rng = random.Random(20120913)
    for delta in range(7):
        a = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(delta)]
        assert bell_polynomial(delta, a) == bell_oracle(delta, a)


def test_bell_counts_set_partitions():
    # all arguments 1: P_delta is the Bell number
    bells = [1, 1, 2, 5, 15, 52, 203]
    for delta, b in enumerate(bells):
        assert bell_polynomial(delta, [1] * delta) == b


def test_bell_input_validation():
    with pytest.raises(ValueError):
        bell_polynomial(-1, [])
    with pytest.raises(ValueError):
        bell_polynomial(3, [1, 2])


# ------------------------------------------------------------------ invariants


def test_plane_invariants():
    inv = plane_invariants(3)
    assert (inv.x, inv.y, inv.z, inv.t) == (9, -9, 9, 3)
    assert inv.nu == 1
    assert inv.chi == 10  # (d^2 + 3d)/2 + 1 at d = 3


def test_plane_chi_formula():
    for d in range(1, 9):
        inv = plane_invariants(d)
        assert inv.chi == d * (d + 3) // 2 + 1


def test_invalid_invariants_raise():
    # z + t = 3 is not divisible by 12
    with pytest.raises(ValueError, match=r"\(2,0,1,2\) needs z \+ t = 0 \(mod 12\)"):
        Invariants(x=2, y=0, z=1, t=2)
    # x - y = 1 is odd
    with pytest.raises(ValueError, match=r"\(1,0,9,3\) needs z \+ t = 0 \(mod 12\)"):
        Invariants(x=1, y=0, z=9, t=3)
    # plane_invariants(5.0) would build (25.0, -15.0, 9, 3)
    with pytest.raises(ValueError, match=r"invariant x = 25\.0 is not an int"):
        plane_invariants(5.0)


def test_plane_invariants_rejects_nonpositive():
    with pytest.raises(ValueError):
        plane_invariants(0)

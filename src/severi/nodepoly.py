"""Node polynomials T_delta(d), thresholds, and the exp/log structure.

T_delta is the degree-2delta polynomial that equals N^{d,delta} for all
d >= lo = engine.low_degree(delta).  Every T_delta here comes from one
call of `engine.node_values`; the engine docstring's "Counts past degree
lo + 2" states that regime, the two degrees a read takes its values
from and the checks one degree outside them.  The fit interpolates its
values, the threshold scan compares them with the counts below lo, and
`quadratic_log`, which the log forms and gyz read, takes the logs of its
values at d = 0, 1, 2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .engine import CacheStore, low_degree, node_values, severi_degree
from .series import RatSeries, Scalar
from .tangency import InvalidState


def interpolate(xs: Sequence[int], ys: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Exact polynomial through (xs[i], ys[i]), as monomial coefficients.

    Newton divided differences expanded to the monomial basis, lowest
    degree first.  Data is exact, so no least squares: len(xs) points
    determine the unique polynomial of degree < len(xs).
    """
    n = len(xs)
    if n == 0 or n != len(ys):
        raise ValueError("interpolation needs matching nonempty samples")
    if len(set(xs)) != n:
        raise ValueError("interpolation nodes must be distinct")
    dd = [Fraction(y) for y in ys]
    # dd[i] becomes the order-i divided difference f[x_0..x_i]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    coeffs = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        # multiply by (x - xs[i]) and add dd[i]
        carry = Fraction(0)
        for j in range(n):
            coeffs[j], carry = carry - xs[i] * coeffs[j], coeffs[j]
        coeffs[0] += dd[i]
    return tuple(coeffs)


def _poly_eval(coeffs: Sequence[Fraction], d: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * d + c
    return acc


class NodePolynomial(NamedTuple):
    """T_delta with the degrees it was interpolated at."""

    delta: int
    coeffs: tuple[Fraction, ...]  # lowest degree first, length 2*delta + 1
    fit_range: tuple[int, ...]

    def __call__(self, d: int) -> Fraction:
        return _poly_eval(self.coeffs, d)


def fit_node_polynomial(delta: int, cache: CacheStore | None = None) -> NodePolynomial:
    """Interpolate T_delta at fit_range, d = delta+2 .. 3delta+2.

    The values come from `engine.node_values` (the engine's "Counts past
    degree lo + 2"), which counts at no other degree.  It takes the
    quadratic log's d^2 part from q(u)/u, so with N^{e,0} = 1 its [u^1]
    is -Q_1/2 = 3 and T_delta has degree 2delta, leading coefficient
    3^delta/delta!.  A float delta: InvalidState.
    """
    if not isinstance(delta, int):
        raise InvalidState(f"node polynomial needs an int delta, got {delta!r}")
    xs = range(delta + 2, 3 * delta + 3)  # listed by node_values, after its bound on delta
    coeffs = interpolate(xs, [values[delta] for values in node_values(xs, delta, cache)])
    return NodePolynomial(delta=delta, coeffs=coeffs, fit_range=tuple(xs))


class ThresholdWitness(NamedTuple):
    d: int
    predicted: int
    actual: int


class ThresholdResult(NamedTuple):
    delta: int
    threshold: int
    witness: ThresholdWitness | None  # the mismatch at threshold - 1


def threshold_report(delta: int, cache: CacheStore | None = None) -> ThresholdResult:
    """Least d* with T_delta(d) = N^{d,delta} for every d >= d*.

    T_delta(d) is read off one call of `engine.node_values`, whose values
    are the counts from lo on (module docstring).  The scan compares them
    with the counts at lo-1 down to 1 and stops at the first mismatch:
    accidental agreement below a gap does not shrink the answer.  The
    tests measure with the recursion that lo is sharp.  A float delta:
    InvalidState.
    """
    if not isinstance(delta, int):
        raise InvalidState(f"threshold needs an int delta, got {delta!r}")
    if delta < 1:
        raise ValueError("threshold needs delta >= 1")
    least = low_degree(delta)
    witness = None
    degrees = range(least - 1, 0, -1)
    for d, values in zip(degrees, node_values(degrees, delta, cache)):
        predicted = values[delta]
        actual = severi_degree(d, delta, cache=cache)
        if predicted == actual:
            least = d
        else:
            witness = ThresholdWitness(d, predicted, actual)
            break
    return ThresholdResult(delta=delta, threshold=least, witness=witness)


def threshold(delta: int, cache: CacheStore | None = None) -> int:
    return threshold_report(delta, cache=cache).threshold


class LogForm(NamedTuple):
    """q_kappa(d) = a2.d^2 + a1.d + a0, the plane shadow of a linear form."""

    kappa: int
    a2: Fraction
    a1: Fraction
    a0: Fraction

    def __call__(self, d: int) -> Fraction:
        return _poly_eval((self.a0, self.a1, self.a2), d)


def quadratic_log(delta: int, cache: CacheStore | None = None) -> tuple[RatSeries, ...]:
    """(A, B, C) with log sum_{k <= delta} T_k(d) u^k = A.d^2 + B.d + C mod
    u^(delta+1) (Tzeng, arXiv:1009.5371), through the logs l0, l1, l2 of
    the polynomial values at d = 0, 1, 2 that one call of
    `engine.node_values` returns (the engine's "Counts past degree lo + 2")."""
    l0, l1, l2 = (RatSeries(values).log() for values in node_values((0, 1, 2), delta, cache))
    a = (l2 - 2 * l1 + l0) * Fraction(1, 2)
    return a, l1 - l0 - a, l0


def log_forms(delta_max: int, cache: CacheStore | None = None) -> list[LogForm]:
    """The forms q_kappa(d) = kappa! [u^kappa] log sum_delta T_delta(d) u^delta,
    kappa! times the coefficients of `quadratic_log`."""
    if delta_max < 1:
        raise ValueError("log forms need delta_max >= 1")
    quadratic = quadratic_log(delta_max, cache)
    return [
        LogForm(kappa, *(math.factorial(kappa) * s[kappa] for s in quadratic))
        for kappa in range(1, delta_max + 1)
    ]


def _egf_exp(a: Sequence[Scalar]) -> RatSeries:
    """exp(sum a_k u^k/k!) to order len(a), with a_k = a[k-1]."""
    return RatSeries(
        [0] + [Fraction(x) / math.factorial(k) for k, x in enumerate(a, 1)]
    ).exp()


def bell_polynomial(delta: int, a: Sequence[Scalar]) -> Fraction:
    """Complete Bell polynomial P_delta = delta! [u^delta] exp(sum a_k u^k/k!)."""
    if delta < 0:
        raise ValueError("node count must be nonnegative")
    if len(a) < delta:
        raise ValueError(f"P_{delta} needs {delta} arguments, got {len(a)}")
    return _egf_exp(a[:delta])[delta] * math.factorial(delta)


def reconstruct_from_log_forms(
    delta_max: int, d: int, forms: Sequence[LogForm]
) -> list[Fraction]:
    """n_delta = P_delta(q_1(d), ..., q_delta(d))/delta! for delta <= delta_max.

    Equals [u^delta] exp(sum q_kappa(d) u^kappa/kappa!), which must
    reproduce the node-polynomial values T_delta(d).
    """
    by_kappa = {f.kappa: f for f in forms}
    if not by_kappa.keys() >= set(range(1, delta_max + 1)):
        raise ValueError("forms must cover every kappa <= delta_max")
    return list(_egf_exp([by_kappa[k](d) for k in range(1, delta_max + 1)]).coeffs)

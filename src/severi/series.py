"""Truncated formal power series with exact rational coefficients.

A series is known modulo q^(M+1) where M is its truncation order.  All
arithmetic is exact; binary operations truncate to the minimum of the
two orders so precision loss is always explicit.

A series holds integer numerators over one positive denominator,
c_k = nums[k]/den, reduced so that gcd(den, *nums) == 1.  That makes den
the lcm of the reduced denominators, so the form is canonical: equality
compares (nums, den).  Sums, products, scalar operations and
the inverse, exp and log recurrences run on Python ints and reduce once
per result; the recurrences keep the coefficients already computed over
one running denominator.  The reduced Fractions of `coeffs` are built on
first read and kept.

Composition at order M is Horner's scheme truncated by valuation: step i
multiplies at order M - i - 1, about M^3/6 coefficient products in all.
Reversion is Lagrange inversion over one rational power and a chain
truncated by valuation, also about M^3/6; rational powers are one recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class SeriesError(ValueError):
    """A series operation's precondition on its input failed."""


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def _push(nums: list[int], den: int, s: int, q: int) -> int:
    """Append s/q to the numerators over den and return the new den.

    s/q is reduced first; the list is rescaled in place only when the
    reduced denominator does not divide den.
    """
    g = gcd(s, q)
    s, q = (s // g, q // g) if q > 0 else (-s // g, -q // g)
    if den % q:
        f = q // gcd(den, q)
        nums[:] = [n * f for n in nums]
        den *= f
    nums.append(s * (den // q))
    return den


def _make(nums: Sequence[int], den: int) -> "RatSeries":
    """The series nums[k]/den, brought to its canonical form; needs den > 0."""
    g = gcd(den, *nums)
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    s = object.__new__(RatSeries)
    s._nums, s._den, s._coeffs = tuple(nums), den, None
    return s


class RatSeries:
    """A power series truncated at an explicit order, coefficients exact.

    >>> s = RatSeries([1, 1, 1])        # 1 + q + q^2, order 2
    >>> (s * s).coeffs
    (Fraction(1, 1), Fraction(2, 1), Fraction(3, 1))

    The stored form is canonical, so two series with equal coefficients
    are equal however they were built:

    >>> RatSeries([Fraction(1, 2), Fraction(1, 3)]) == RatSeries([3, 2]) * Fraction(1, 6)
    True
    """

    __slots__ = ("_nums", "_den", "_coeffs")

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None):
        cs = [_as_fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("truncation order must be >= 0")
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            else:
                cs.extend(Fraction(0) for _ in range(order + 1 - len(cs)))
        if not cs:
            raise ValueError("a series needs at least its constant term")
        # reduced Fractions over the lcm of their denominators are canonical
        den = lcm(*(c.denominator for c in cs))
        self._nums = tuple(c.numerator * (den // c.denominator) for c in cs)
        self._den, self._coeffs = den, tuple(cs)

    # -- constructors ------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "RatSeries":
        return cls([1], order=order)

    @classmethod
    def identity(cls, order: int) -> "RatSeries":
        """The series q."""
        if order < 1:
            raise ValueError("q needs order >= 1")
        return cls([0, 1], order=order)

    # -- structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        cs = self._coeffs
        if cs is None:
            den = self._den
            cs = self._coeffs = tuple(Fraction(n, den) for n in self._nums)
        return cs

    def __getitem__(self, m: int) -> Fraction:
        if not 0 <= m <= self.order:
            raise IndexError(f"coefficient {m} outside truncation order {self.order}")
        return self.coeffs[m]

    def truncate(self, order: int) -> "RatSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        return _make(self._nums[: order + 1], self._den)

    def to_strings(self) -> list[str]:
        """Coefficients as "num/den" (or "num" when the denominator is 1)."""
        return [str(c) for c in self.coeffs]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RatSeries):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:7])
        if self.order > 6:
            shown += ", ..."
        return f"RatSeries([{shown}]; order={self.order})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "RatSeries | Scalar") -> "RatSeries":
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            den = lcm(self._den, q)
            f = den // self._den
            nums = [n * f for n in self._nums]
            nums[0] += p * (den // q)
            return _make(nums, den)
        if not isinstance(other, RatSeries):
            return NotImplemented
        # zip stops at the shorter operand, the common order
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        return _make([x * fa + y * fb for x, y in zip(self._nums, other._nums)], den)

    __radd__ = __add__

    def __neg__(self) -> "RatSeries":
        return _make([-n for n in self._nums], self._den)

    def __sub__(self, other: "RatSeries | Scalar") -> "RatSeries":
        if not isinstance(other, (int, Fraction, RatSeries)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "RatSeries | Scalar") -> "RatSeries":
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _make([n * p for n in self._nums], self._den * other.denominator)
        if not isinstance(other, RatSeries):
            return NotImplemented
        M = min(self.order, other.order)
        a, b = self._nums[: M + 1], other._nums[: M + 1]
        return _make(
            [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(M + 1)],
            self._den * other._den,
        )

    __rmul__ = __mul__

    def inverse(self) -> "RatSeries":
        """Multiplicative inverse by back-substitution; needs a[0] != 0."""
        a, da = self._nums, self._den
        if a[0] == 0:
            raise SeriesError("cannot invert a series with constant term 0")
        # out_m = -(1/a_0) sum_{k=1..m} a_k.out_{m-k}, with out_j = nums[j]/den
        nums: list[int] = []
        den = _push(nums, 1, da, a[0])
        for m in range(1, len(a)):
            den = _push(nums, den, -sum(map(mul, a[1 : m + 1], nums[m - 1 :: -1])), den * a[0])
        return _make(nums, den)

    def exp(self) -> "RatSeries":
        """Formal exponential; needs a[0] = 0.

        Recurrence from f' = a'.f in q-derivative form:
        m.f_m = sum_{k=1..m} k.a_k.f_{m-k}.
        """
        a, da = self._nums, self._den
        if a[0] != 0:
            raise SeriesError("exp needs constant term 0")
        ka = [k * x for k, x in enumerate(a)]
        # f_j = nums[j]/den
        nums, den = [1], 1
        for m in range(1, len(a)):
            den = _push(nums, den, sum(map(mul, ka[1 : m + 1], nums[m - 1 :: -1])), m * da * den)
        return _make(nums, den)

    def log(self) -> "RatSeries":
        """Formal logarithm; needs a[0] = 1.

        Recurrence from a.g' = a' in q-derivative form:
        m.g_m = m.a_m - sum_{k=1..m-1} k.g_k.a_{m-k}.
        """
        a, da = self._nums, self._den
        if a[0] != da:
            raise SeriesError("log needs constant term 1")
        M = len(a) - 1
        # k.g_k = nums[k]/den
        nums, den = [0], 1
        for m in range(1, M + 1):
            s = m * a[m] * den - sum(map(mul, nums[1:m], a[m - 1 : 0 : -1]))
            den = _push(nums, den, s, da * den)
        # g_k = nums[k].(L/k) / (den.L) over L = lcm(1..M)
        L = lcm(*range(1, M + 1))
        return _make([0] + [n * (L // k) for k, n in enumerate(nums[1:], 1)], den * L)

    def pow_rat(self, e: Scalar) -> "RatSeries":
        """a^e for rational e; needs a[0] = 1.

        From P'.a = e.a'.P: m.P_m = sum_{k=1..m} ((e+1).k - m).a_k.P_{m-k}.

        >>> RatSeries([1, 1], order=3).pow_rat(Fraction(1, 2)).to_strings()
        ['1', '1/2', '-1/8', '1/16']
        """
        a, da = self._nums, self._den
        if a[0] != da:
            raise SeriesError("rational powers need constant term 1")
        e = _as_fraction(e)
        p, r = e.numerator + e.denominator, e.denominator  # e + 1 = p/r
        ka, nums, den = [k * x for k, x in enumerate(a)], [1], 1  # P_j = nums[j]/den
        for m in range(1, len(a)):
            rest = nums[m - 1 :: -1]
            s = p * sum(map(mul, ka[1 : m + 1], rest)) - r * m * sum(map(mul, a[1 : m + 1], rest))
            den = _push(nums, den, s, m * r * da * den)
        return _make(nums, den)

    def __pow__(self, e: Scalar) -> "RatSeries":
        # integer exponents, integral Fractions included, work on any series
        # (negative ones on any unit); others need constant term 1
        if isinstance(e, Fraction) and e.denominator == 1:
            e = e.numerator
        if isinstance(e, int) and e < 0:
            return self.inverse() ** -e
        if isinstance(e, int):
            result = RatSeries.one(self.order)
            base = self
            n = e
            while n:
                if n & 1:
                    result = result * base
                base = base * base
                n >>= 1
            return result
        return self.pow_rat(e)

    def compose(self, inner: "RatSeries") -> "RatSeries":
        """self(inner(q)) truncated; needs inner[0] = 0.

        >>> RatSeries([1, 1, 1]).compose(RatSeries([0, 1, 1])).coeffs
        (Fraction(1, 1), Fraction(1, 1), Fraction(2, 1))
        """
        g, a, da = inner._nums, self._nums, self._den
        if g[0] != 0:
            raise SeriesError("composition needs inner constant term 0")
        M = min(self.order, inner.order)
        out = _make(a[M : M + 1], da)
        if M:
            h = _make(g[1 : M + 1], inner._den)  # inner/q
        # Horner from the top down, out <- q.(out.h) + a_i: out is later multiplied
        # by inner^i, so it needs order M - i; __mul__ cuts h to out's M - i - 1
        for i in range(M - 1, -1, -1):
            p = out * h
            den = lcm(p._den, da)
            f = den // p._den
            out = _make([a[i] * (den // da)] + [n * f for n in p._nums], den)
        return out

    def revert(self) -> "RatSeries":
        """Compositional inverse by Lagrange inversion; needs g[0] = 0, g[1] != 0.

        With the unit u = g/(g_1.q), n.h_n = g_1^(-n).[q^(n-1)] u^(-n), split as
        u^(-(M+1)).u^(M+1-n): one rational power, then a chain of products by
        u for n = M down to 1, each cut to order n - 1.  Reverting q + q^2
        gives signed Catalan numbers:

        >>> RatSeries([0, 1, 1], order=4).revert().coeffs
        (Fraction(0, 1), Fraction(1, 1), Fraction(-1, 1), Fraction(2, 1), Fraction(-5, 1))
        """
        g, dg, M = self._nums, self._den, self.order
        if g[0] != 0 or M < 1 or g[1] == 0:
            raise SeriesError("reversion needs g[0] = 0 and g[1] != 0")
        u = _make([x * g[1] for x in g[1:]], g[1] ** 2)  # g/(g_1.q), sign-free
        t, hs = u.pow_rat(-(M + 1)), []
        for n in range(M, 0, -1):
            t = t.truncate(n - 1) * u  # u^(-n) to order n - 1
            hs.append((t._nums[n - 1] * dg**n, t._den * n * g[1] ** n))
        nums, den = [0], 1
        for s, q in reversed(hs):
            den = _push(nums, den, s, q)
        return _make(nums, den)

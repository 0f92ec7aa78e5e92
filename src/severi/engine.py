"""Memoized computation of relative Severi degrees N^{d,delta}(alpha,beta).

The count satisfies, with I = weight and |.| = size:

  N^{d,delta}(alpha,beta) =
      sum_{k: beta_k >= 1} k . N^{d,delta}(alpha+e_k, beta-e_k)
    + sum N^{d-1,delta'}(alpha',beta')
          . C(alpha,alpha') . C(beta',beta) . I^(beta'-beta)

where the second sum runs over alpha' <= alpha and beta' >= beta with
I(alpha') + I(beta') = d-1 and delta' = delta + |beta'| - |beta| - (d-1)
in the range 0 <= delta' <= (d-1)(d-2)/2.  Base cases: zero when
delta > d(d-1)/2, and the closed form

  N^{d,0}(alpha,beta) = |beta|!/prod_k beta_k! . prod_k k^beta_k

when delta = 0.  The degree-d curves through the points with the alpha
contacts form a linear system; off those contacts it meets the line in
a general linear space of binary forms of degree I(beta) and dimension
I(beta) - |beta|.  It meets the |beta|-dimensional locus of forms with
root type beta in as many points as that locus has degree, the closed
form above, whatever d and alpha are.
Degree 1 is one of these two cases.

Move-path frontier.  delta' >= 0 needs I(alpha') <= delta - I(beta), so
a state with delta < I(beta) has move terms only.  Unrolled, they run
along paths that stop at the first beta' with I(beta') <= delta.  A path
taking gamma = beta - beta' off beta is an ordering of the parts of
gamma of weight prod_k k^gamma_k; it stops first at beta' when its last
move, of order k, has I(beta') + k > delta.  Counting those orderings,

  N^{d,delta}(alpha,beta) = sum_{beta' <= beta, I(beta') <= delta}
      c_delta(beta,beta') . N^{d,delta}(alpha+gamma, beta')
  c_delta(beta,beta') = prod_k k^gamma_k . (|gamma|-1)!/prod_j gamma_j!
      . sum_{k: gamma_k >= 1, I(beta')+k > delta} gamma_k

are such a state's children.  At delta = 0 the frontier is beta' = ()
alone, with c_0 the closed form.  At delta = I(beta) - 1 it is the single
moves: each beta - e_k has I <= delta and I(beta - e_k) + k = I(beta) >
delta, so c = k, while a gamma of two or more parts has no part k >=
I(gamma) and c = 0.  A state with delta >= I(beta) reads its move terms
there.

Degeneration templates.  With gamma = beta' - beta, I(gamma) =
d-1 - I(alpha') - I(beta) and excess(gamma) = I(gamma) - |gamma|,

  delta' = budget - excess(gamma),  budget = delta - I(beta) - I(alpha'),

so 0 <= delta' <= (d-1)(d-2)/2 bounds the excess to
max(0, budget - (d-1)(d-2)/2) .. min(I(gamma), budget).  The children
of one alpha' are then fixed by (beta, I(gamma), budget, lower excess
bound) up to id(alpha'), which a state ORs into a stored template.

Evaluation is iterative (explicit work stack): the point count drops by
at least one per step, so a dependency chain has fewer than d(d+3)/2
steps (N^{30,9}: 275, 485 without the frontier) and must not touch the
native call stack.

Packed states.  The evaluation works on one int per state,
delta << 64 | id(alpha) << 32 | id(beta), where id numbers the distinct
canonical tangency sequences in order of first sight and d is read back
as I(alpha) + I(beta) from a per-id weight table.  delta is the unbounded
top field; an id that does not fit in 32 bits raises.  CacheStore keys
its table by these ints and converts at its boundary, so callers and the
cache file only ever see (d, delta, alpha, beta) tuples.

Children are read from four builders called with sequence ids:
_alpha_candidates, _frontier, _seq_sum and _template.  All but _seq_sum
are cheap views over layers that do not depend on delta or the budget,
each built once per sequence, weight and excess:

  _subsequences(ia, w)   the alpha' <= alpha of weight exactly w, read off
                         _highs(ia, cap), alpha's choices of parts of
                         order >= 2 up to weight cap
  _gammas(ib, w)         id(gamma), gamma = beta - beta', and gamma's
                         suffix sums, for the beta' of _subsequences(ib, w)
  _extensions(ib, w, e)  C(beta', beta) . I^gamma and id(beta') of the
                         beta' = beta + gamma of weight w and excess e,
                         read off _partitions(e)

_alpha_candidates(ia, whi) is the layers of weight 0..whi, lightest
first; _frontier(ib, delta) reads c_delta off each pair's suffix sum
sum_{k > delta - I(beta')} gamma_k, |gamma| and _SMOOTH[id(gamma)] =
prod_k k^gamma_k . |gamma|!/prod_j gamma_j!; _template(ib, w, budget,
e_lo) is the extensions of its excess range, delta' = budget - excess
added to each.  They are functools.cache functions whose entries are facts
about sequences, not about any store, so they are process-global and
every store shares them; a store keeps only its values.  Each builder
asserts its entries' invariants once, when it builds them, and hands its
own part lists to _seq_id, which trims them; only state_key checks a
sequence from outside.  The deep root relative_severi(30, 9) stores
41,923 states over 1,880 sequences; its four builders hold 5,384, 4,077,
7,641 and 3,008 entries and 21,600 template children, over 1,420 +
5,460, 5,423 and 2,803 layer entries.  threshold_report(9) and
fit_node_polynomial(9), which read the counts at degrees 5..8 only,
store 1,370 (164, 147, 135 and 392 builder entries over 45 + 234, 202
and 202 layer entries), and severi_degree(30, 9), which reads the same, 1,371.

Counts past degree lo + 2.  Let F_e = sum_{k <= delta} N^{e,k} u^k and
lo = low_degree(delta): ceil(delta/2) + 1 for delta >= 2, 1 for delta <= 1.
For e >= lo each coefficient is T_k(e): at e >= delta by Block
(arXiv:1006.0218), and at ceil(delta/2) + 1 <= e < delta, which first
happens at delta = 4, by Kleiman and Shende's proof of Gottsche's
threshold d >= k/2 + 1 (arXiv:1204.6254); T_0 = 1 and T_1(e) = 3(e-1)^2
hold from e = 1 on.  This is the one statement of that regime.

Gottsche's conjecture, proved by Tzeng (arXiv:1009.5371) and by Kool,
Shende and Thomas (arXiv:1010.3211), gives sum_k T_k(L) u(q)^k =
B1^{K_S^2} B2^{L.K_S} B3^{chi(L)} B4^{-chi(O)/2}, with u(q) = q.B3(q) =
sum n.sigma1(n) q^n.  On the plane chi(L) = (d^2 + 3d)/2 + 1 is the only
d^2 term, so log sum_k T_k(d) u^k is quadratic in d with d^2 part
log B3(q(u))/2 = -log(Q)/2, Q = q(u)/u and q(u) the reversion of u(q).
Two degrees fix the rest: with t = d - lo,

  F_{lo+t} = F_lo^{1-t} . F_{lo+1}^t . Q^{-t(t-1)/2}  mod u^{delta+1},

integer powers, so no log is taken.  Each F_e starts with N^{e,0} = 1,
which node_values checks on every row it counts from k = 0, and a power
P = A^n of such a series satisfies A.P' = n.A'.P, that is Miller's
recurrence m.P_m = sum_{k=1..m} ((n+1)k - m) a_k P_{m-k}, whose division
by m is exact as P has integer coefficients.  For d < lo the product
gives T_k(d), which need not be a count.  Q comes from Lagrange
inversion (q_over_u): q = u/B3(q), so [u^{m+1}] q(u) = [q^m] B3^{-(m+1)}
/ (m+1), the power read by Miller's recurrence; Q = 1 - 6u + 60u^2 -
748u^3 + ... has integer coefficients.

The counts at lo and lo + 1 are checked, coefficient by coefficient,
against counts one degree outside them that are still in the polynomial
range.  Let K (_split) be the largest k with low_degree(k) <= lo - 1:
delta - 1 for odd delta and delta = 2, delta - 2 for even delta >= 4,
none (-1) for delta <= 1.  node_values counts N^{lo-1,k} for k <= K and
N^{lo+2,k} for K < k <= delta only, and checks the formula at t = -1
and t = 2:

  F_{lo-1} . F_{lo+1} . Q = F_lo^2      mod u^{K+1},
  F_lo . F_{lo+2} . Q = F_{lo+1}^2      at u^{K+1}..u^delta,

F_{lo+2} taking its coefficients up to u^K from the formula.  A count at
lo or lo + 1 first enters each identity at its own u^k, with coefficient
1 or 2, so one wrong count at u^k breaks the identity that checks u^k;
that holds for the counts at lo - 1 and lo + 2 too.  For delta <= 1 the
second identity is the whole check, over all of F_{lo+2}.
read_degrees(delta) = lo-1..lo+2 (lo..lo+2 for delta <= 1) are the
degrees counted at.  threshold_report(9) stores 1,370 states this way;
counting and checking all of F_{lo+2} instead stores 1,663.

No read past delta = MAX_READ_DELTA = 32 starts: node_values raises
ReadTooLarge before it allocates; fresh reads at delta = 24, 28 and 32
stored 108,924, 288,530 and 717,489 states (43, 85, 216 MB; 4, 21 and
116 s on a 2-core VM).  The bound is on reads only: a count at d <= lo + 2 recurses
at any delta (N^{12,40}: 26,404 states in 0.5 s; N^{10^7+2,2.10^7} never ends).

Cache file text.  cache_load maps each sequence text of the file it
reads, as cache_save writes it ("2,0,1", "-" for ()), to its id, so a
line whose texts came up on an earlier line is read with two lookups.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import os
from itertools import accumulate, chain, count, product, repeat, zip_longest
from typing import Iterable, Iterator, Sequence

from .tangency import (
    InvalidState,
    SeveriKey,
    TangencySeq,
    canonical,
    seq_from_text,
    seq_to_text,
    state_key,
    weight,
)

CACHE_MAGIC = "SEVERI-CACHE"
CACHE_VERSION = "v1"
MAX_READ_DELTA = 32  # the deepest read node_values starts ("Counts past degree lo + 2")


class InternalInconsistency(RuntimeError):
    """A mathematical cross-check failed: a defect, not bad input (exit 2)."""


class CacheCorruption(InternalInconsistency):
    """A stored value was contradicted; mathematical truth is immutable."""


class DegreeCheckFailed(InternalInconsistency):
    """The counts at read_degrees(delta) broke N^{e,0} = 1 or one of
    node_values' identities with q(u)/u, at lo - 1 or at lo + 2."""


class ReadTooLarge(ValueError):
    """A read past delta = MAX_READ_DELTA ("Counts past degree lo + 2")."""


class VersionMismatch(ValueError):
    """Cache file carries an unsupported version tag."""


class ParseError(ValueError):
    """Cache file is empty or malformed."""


_ID_MASK = (1 << 32) - 1

# sequence id -> sequence, I(sequence), N^{d,0}(alpha, sequence); and
# sequence -> id
_SEQS: list[TangencySeq] = []
_WEIGHTS: list[int] = []
_SMOOTH: list[int] = []
_IDS: dict[TangencySeq, int] = {}


def _orderings(parts: Iterable[int]) -> int:
    """|s|!/prod s_k! . prod k^s_k: the move paths taking all of s, each
    weighted by its orders.  Binomials over the running part count, so
    the absolute root (d,) costs C(d, d) and no d!."""
    out, count = 1, 0
    for i, b in enumerate(parts):
        count += b
        out *= math.comb(count, b) * (i + 1) ** b
    return out


def _seq_id(parts: Iterable[int]) -> int:
    """The id of a sequence of nonnegative parts, trailing zeros trimmed,
    numbered on first sight.  The table builders pass their own lists;
    state_key checks what comes from outside."""
    seq = tuple(parts)
    while seq and not seq[-1]:
        seq = seq[:-1]
    sid = _IDS.get(seq)
    if sid is None:
        sid = len(_SEQS)
        if sid > _ID_MASK:
            raise OverflowError("more than 2**32 distinct tangency sequences")
        seq_weight, smooth = weight(seq), _orderings(seq)  # may raise: before any append
        _SEQS.append(seq)
        _WEIGHTS.append(seq_weight)
        _SMOOTH.append(smooth)
        _IDS[seq] = sid
    return sid


def _seq_of_text(text: str) -> TangencySeq:
    """The sequence cache_save writes as text; ValueError for any other text."""
    seq = seq_from_text(text if text != "-" else "")
    if (seq_to_text(seq) or "-") != text:
        raise ValueError(f"tangency text {text!r} is not as cache_save writes it")
    return seq


def pack(key: SeveriKey) -> int:
    """The packed state of state_key(*key): a key state_key refuses raises,
    and a non-canonical sequence packs as its canonical form."""
    _, delta, alpha, beta = state_key(*key)
    ia, ib = _IDS.get(alpha), _IDS.get(beta)
    if ia is None or ib is None:
        ia, ib = _seq_id(alpha), _seq_id(beta)
    return delta << 64 | ia << 32 | ib


def unpack(state: int) -> SeveriKey:
    """The (d, delta, alpha, beta) key of a packed state."""
    ia, ib = state >> 32 & _ID_MASK, state & _ID_MASK
    return (_WEIGHTS[ia] + _WEIGHTS[ib], state >> 64, _SEQS[ia], _SEQS[ib])


class CacheStore:
    """Memo table keyed by canonical (d, delta, alpha, beta).

    Keys are stored packed (see the module docstring): get() and put()
    take tuples, _get_state() and _put_state() packed states.  put()
    refuses a count that is not an int >= 0 (ValueError); storing another
    value for a stored key raises CacheCorruption.  The roots are the keys
    stored or found by these four: the counts callers asked for, and all
    that cache_save persists.  hits and misses count root lookups; the
    evaluation loop writes intermediate states into the table directly.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._data: dict[int, int] = {}
        self._roots: set[int] = set()

    def get(self, key: SeveriKey) -> int | None:
        return self._get_state(pack(key))

    def put(self, key: SeveriKey, value: int) -> None:
        if type(value) is not int or value < 0:
            raise ValueError(f"a count must be an int >= 0, got {value!r}")
        self._put_state(pack(key), value)

    def _get_state(self, state: int) -> int | None:
        value = self._data.get(state)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            self._roots.add(state)
        return value

    def _put_state(self, state: int, value: int) -> None:
        old = self._data.setdefault(state, value)
        if old != value:
            raise CacheCorruption(
                f"key {unpack(state)} already holds {old}, refusing to store {value}"
            )
        self._roots.add(state)

    def __len__(self) -> int:
        return len(self._data)

    def items(self) -> Iterator[tuple[SeveriKey, int]]:
        return iter(sorted((unpack(s), v) for s, v in self._data.items()))

    def roots(self) -> Iterator[tuple[SeveriKey, int]]:
        """The persisted part of the table, sorted like items()."""
        return iter(sorted((unpack(s), self._data[s]) for s in self._roots))

    @property
    def root_count(self) -> int:
        return len(self._roots)


_DEFAULT_CACHE = CacheStore()


def default_cache() -> CacheStore:
    """The process-wide memo table used when no cache is passed."""
    return _DEFAULT_CACHE


@functools.cache
def _partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n into parts >= 1, each descending: a first part
    p before each partition of n - p whose parts are at most p."""
    if n == 0:
        return ((),)
    return tuple((p, *rest) for p in range(1, n + 1)
                 for rest in _partitions(n - p) if not rest or rest[0] <= p)


@functools.cache
def _highs(ia: int, cap: int) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """(weight, high, prod_k C(alpha_k, high_k)) for the choices high of
    alpha's parts of order k >= 2 that weigh at most cap, lightest first.
    Each multiplicity is capped at cap // k, so no heavier choice of one
    order is tried."""
    highs = _SEQS[ia][1:]
    out: list[tuple[int, tuple[int, ...], int]] = []
    for high in product(*[range(min(a, cap // k) + 1) for k, a in enumerate(highs, 2)]):
        wh = sum(map(operator.mul, high, count(2)))
        if wh <= cap:
            out.append((wh, high, math.prod(map(math.comb, highs, high))))
    return tuple(sorted(out))


@functools.cache
def _subsequences(ia: int, w: int) -> tuple[tuple[int, int, int], ...]:
    """Sub-sequences alpha' <= alpha of weight exactly w, as (id(alpha'),
    w, C(alpha, alpha')) triples: a choice of the higher orders no heavier
    than w, made up to w with order-1 parts if alpha has enough.  The
    choices come from _highs at cap max(8, the power of two above w), so
    a sequence's table is built again only when w doubles."""
    a1 = (_SEQS[ia] or (0,))[0]
    out: list[tuple[int, int, int]] = []
    for wh, high, binom in _highs(ia, max(8, 1 << w.bit_length())):
        if wh > w:
            break
        if w - wh <= a1:
            out.append((_seq_id((w - wh, *high)), w, binom * math.comb(a1, w - wh)))
    return tuple(out)


@functools.cache
def _alpha_candidates(ia: int, whi: int) -> tuple[tuple[int, int, int], ...]:
    """Sub-sequences alpha' <= alpha with weight at most whi, lightest
    first: those of _alpha_candidates(ia, whi - 1), then those of weight
    whi."""
    return tuple(chain.from_iterable(map(_subsequences, repeat(ia), range(whi + 1))))


@functools.cache
def _gammas(ib: int, w: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(id(beta'), id(gamma), gamma's suffix sums sum_{k > j} gamma_k for
    j = 0..len(beta) - 1), gamma = beta - beta', for the beta' <= beta
    of weight w.  The first suffix sum is |gamma|."""
    beta = _SEQS[ib]
    out: list[tuple[int, int, tuple[int, ...]]] = []
    for ib_p, _, _ in _subsequences(ib, w):
        gamma = [b - c for b, c in zip_longest(beta, _SEQS[ib_p], fillvalue=0)]
        ends = tuple(accumulate(reversed(gamma)))[::-1]
        assert len(ends) == len(beta) and sum(_SEQS[ib_p]) + ends[0] == sum(beta)
        out.append((ib_p, _seq_id(gamma), ends))
    return tuple(out)


@functools.cache
def _frontier(ib: int, delta: int) -> tuple[tuple[int, int, int], ...]:
    """(c_delta(beta, beta'), id(gamma), id(beta')), gamma = beta - beta',
    for the beta' of the module docstring's frontier with c_delta != 0.
    A path ending at beta' of weight w ends with a part of order k > delta
    - w, so a beta' lighter than delta - len(beta) + 1 ends none."""
    out: list[tuple[int, int, int]] = []
    for w in range(max(0, delta - len(_SEQS[ib]) + 1), delta + 1):
        for ib_p, ig, ends_from in _gammas(ib, w):
            ends = ends_from[delta - w]
            if ends:
                num, den = _SMOOTH[ig] * ends, ends_from[0]
                assert num % den == 0
                out.append((num // den, ig, ib_p))
    return tuple(out)


@functools.cache
def _seq_sum(ia: int, ig: int) -> int:
    """id(alpha + gamma)."""
    return _seq_id(map(sum, zip_longest(_SEQS[ia], _SEQS[ig], fillvalue=0)))


@functools.cache
def _extensions(ib: int, w: int, excess: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Coefficients C(beta', beta) . I^gamma and ids of beta' = beta +
    gamma, where gamma has weight w and excess I(gamma) - |gamma|: one
    order-(p+1) part per part p of a partition of the excess, plus
    order-1 parts filling the weight."""
    beta = _SEQS[ib]
    coefs: list[int] = []
    ids: list[int] = []
    for mu in _partitions(excess):
        m1 = w - excess - len(mu)
        if m1 < 0:
            continue
        b2 = list(beta) + [0] * (excess + 1)
        coef = math.comb(b2[0] + m1, m1)
        b2[0] += m1
        for p in set(mu):
            r = mu.count(p)
            coef *= (p + 1) ** r * math.comb(b2[p] + r, r)
            b2[p] += r
        ib_p = _seq_id(b2)
        assert sum(_SEQS[ib_p]) == sum(beta) + w - excess
        coefs.append(coef)
        ids.append(ib_p)
    return tuple(coefs), tuple(ids)


@functools.cache
def _template(ib: int, w: int, budget: int, e_lo: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The _extensions of weight w and excess e_lo..min(w, budget), each
    child delta' << 64 | id(beta') with delta' = budget - excess."""
    coefs: list[int] = []
    lows: list[int] = []
    for excess in range(e_lo, min(w, budget) + 1):
        ecoefs, ids = _extensions(ib, w, excess)
        coefs += ecoefs
        lows += map((budget - excess << 64).__or__, ids)
    return tuple(coefs), tuple(lows)


def _transitions(state: int) -> tuple[list[int], list[int]]:
    """Weighted children of a packed state, as parallel lists of
    coefficients and children; the state's value is their dot product."""
    delta = state >> 64
    ia, ib = state >> 32 & _ID_MASK, state & _ID_MASK
    ia_w, ib_w = _WEIGHTS[ia], _WEIGHTS[ib]
    same = delta << 64
    top = delta - ib_w  # the budget at alpha' = ()
    coefs: list[int] = []
    kids: list[int] = []

    # moves (see "Move-path frontier"): the whole paths when delta < I(beta),
    # else the single moves, which are the frontier at I(beta) - 1
    for c, ig, b in _frontier(ib, delta if top < 0 else ib_w - 1):
        coefs.append(c)
        kids.append(same | _seq_sum(ia, ig) << 32 | b)

    # degenerate to degree d-1 (see "Degeneration templates"): alpha' <= alpha
    # with I(gamma) = I(alpha) - I(alpha') - 1 >= 1 and budget >= 0
    whi = min(ia_w - 1, top)
    if whi < 0:
        return coefs, kids
    # delta' <= (d-1)(d-2)/2: the lower excess bound is max(0, over - I(alpha'))
    over = top - (ia_w + ib_w - 1) * (ia_w + ib_w - 2) // 2
    for ia_p, wprime, c_alpha in _alpha_candidates(ia, whi):
        e_lo = over - wprime if over > wprime else 0
        gcoefs, lows = _template(ib, ia_w - wprime - 1, top - wprime, e_lo)
        high = ia_p << 32
        kids.extend([high | low for low in lows])
        coefs.extend([c_alpha * c for c in gcoefs] if c_alpha != 1 else gcoefs)
    return coefs, kids


def _evaluate(root: int, cache: CacheStore) -> int:
    cached = cache._get_state(root)
    if cached is not None:
        return cached
    # a reduced degree-d curve has at most d(d-1)/2 nodes (d general lines).
    # Only a root can break the bound: a move keeps (d, delta), and a
    # template's lower excess bound gives delta' <= (d-1)(d-2)/2
    d, delta = _WEIGHTS[root >> 32 & _ID_MASK] + _WEIGHTS[root & _ID_MASK], root >> 64
    if delta > d * (d - 1) // 2:
        cache._put_state(root, 0)
        return 0
    # each state is stored once, so the DFS writes the table directly;
    # only the root goes through _put_state(), which marks it for persistence.
    # The recursion is acyclic (the point count drops by one per step).
    data = cache._data
    stack = [root]
    children: dict[int, tuple[list[int], list[int]]] = {}
    while stack:
        state = stack[-1]
        if state in data:
            stack.pop()
            continue
        deps = children.pop(state, None)
        if deps is None:
            if state >> 64 == 0:
                data[state] = _SMOOTH[state & _ID_MASK]
                stack.pop()
                continue
            deps = _transitions(state)
            missing = [c for c in deps[1] if c not in data]
            if missing:
                # post-order: every state pushed above this one is stored
                # by the time it is back on top
                children[state] = deps
                stack.extend(missing)
                continue
        coefs, kids = deps
        data[state] = sum(map(operator.mul, coefs, map(data.__getitem__, kids)))
        stack.pop()
    cache._put_state(root, data[root])
    return data[root]


def relative_severi(
    d: int,
    delta: int,
    alpha: Iterable[int] = (),
    beta: Iterable[int] | None = None,
    cache: CacheStore | None = None,
) -> int:
    """N^{d,delta}(alpha,beta): nodal degree-d curves with line tangencies.

    beta defaults to the absolute choice: all of the remaining weight
    d - weight(alpha) as order-1 intersections.
    """
    if beta is None:
        alpha = canonical(alpha)
        # an alpha heavier than d leaves beta empty, which state_key rejects
        beta = [max(d - weight(alpha), 0)]
    return _evaluate(pack((d, delta, alpha, beta)), cache if cache is not None else _DEFAULT_CACHE)


def sigma1(n: int) -> int:
    """Sum of the divisors of n.

    >>> sigma1(6)
    12
    """
    if n < 1:
        raise ValueError("sigma1 is defined for positive integers")
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d
            other = n // d
            if other != d:
                total += other
    return total


def _power(a: list[int], n: int) -> list[int]:
    """a^n to the length of a, for integer a with a[0] = 1: Miller's
    recurrence ("Counts past degree lo + 2")."""
    p = [1]
    for m in range(1, len(a)):
        p.append(sum(((n + 1) * k - m) * a[k] * p[m - k] for k in range(1, m + 1)) // m)
    return p


@functools.cache
def q_over_u(size: int) -> tuple[int, ...]:
    """Q = q(u)/u mod u^size, q(u) the reversion of u(q) = q.B3(q):
    Q_m = [q^m] B3^-(m+1) / (m+1), B3_m = (m+1).sigma1(m+1)."""
    b3 = [(m + 1) * sigma1(m + 1) for m in range(size)]
    return tuple(_power(b3[:m + 1], -(m + 1))[m] // (m + 1) for m in range(size))


def low_degree(delta: int) -> int:
    """lo: the least degree from which every N^{e,k}, k <= delta, is T_k(e)
    ("Counts past degree lo + 2"): ceil(delta/2) + 1 for delta >= 2 and 1
    for delta <= 1, Gottsche's threshold, proved for the plane by Kleiman
    and Shende (arXiv:1204.6254).  Up to delta = 3 it is max(delta, 1),
    Block's d >= delta (arXiv:1006.0218)."""
    return max(1, min(delta, (delta + 1) // 2 + 1))


@functools.cache
def read_degrees(delta: int) -> range:
    """lo-1..lo+2, lo = low_degree(delta), and lo..lo+2 for delta <= 1:
    the degrees node_values counts at ("Counts past degree lo + 2")."""
    return range(max(1, (lo := low_degree(delta)) - 1), lo + 3)


def _split(delta: int) -> int:
    """K, the largest k with low_degree(k) <= lo - 1, or -1 if there is
    none: node_values checks the coefficients k <= K at degree lo - 1 and
    those above K at degree lo + 2."""
    lo = low_degree(delta)
    return sum(low_degree(k) < lo for k in range(delta)) - 1


def node_values(
    degrees: Iterable[int], delta: int, cache: CacheStore | None = None
) -> list[list[int]]:
    """[T_0(d), ..., T_delta(d)] for each d in degrees, from the counts at
    lo and lo + 1 and Q = q(u)/u, as in "Counts past degree lo + 2";
    DegreeCheckFailed unless each counted row starts with N^{e,0} = 1 and
    the counts at lo - 1 (k <= K) and at lo + 2 (k > K) are the formula's.
    A degree below lo gets the polynomial values, which need not be counts.
    Non-int input: InvalidState; delta < 0: ValueError; delta >
    MAX_READ_DELTA: ReadTooLarge, before the degrees are listed."""
    if not isinstance(delta, int):
        raise InvalidState(f"node values need an int delta, got {delta!r}")
    if delta < 0:
        raise ValueError("node count must be nonnegative")
    if delta > MAX_READ_DELTA:
        raise ReadTooLarge(f"a read at delta = {delta} is past MAX_READ_DELTA = {MAX_READ_DELTA}")
    degrees = list(degrees)
    if not all(isinstance(d, int) for d in degrees):
        raise InvalidState(f"node values need int degrees, got {degrees}")
    size, lo, split = delta + 1, low_degree(delta), _split(delta)
    ks = {lo - 1: range(split + 1), lo: range(size), lo + 1: range(size),
          lo + 2: range(split + 1, size)}
    counts = {e: [relative_severi(e, k, cache=cache) for k in row] for e, row in ks.items()}
    for e, row in ks.items():
        if 0 in row and counts[e][0] != 1:
            raise DegreeCheckFailed(f"the counts at degree {e} do not start with N^{{e,0}} = 1")

    def times(a: Sequence[int], b: Sequence[int]) -> list[int]:
        return [sum(a[k] * b[m - k] for k in range(m + 1)) for m in range(len(a))]

    f0, f1, n, q = counts[lo], counts[lo + 1], split + 1, q_over_u(size)

    def value(t: int) -> list[int]:  # F_{lo+t} mod u^{delta+1}
        return times(times(_power(f0, 1 - t), _power(f1, t)), _power(q, -t * (t - 1) // 2))

    if times(times(counts[lo - 1], f1[:n]), q[:n]) != times(f0[:n], f0[:n]):
        raise DegreeCheckFailed(f"the counts at degrees {lo - 1}..{lo + 1} break F_{lo - 1} . "
                                f"F_{lo + 1} . q(u)/u = F_{lo}^2 mod u^{n}")
    if times(times(f0, value(2)[:n] + counts[lo + 2]), q) != times(f1, f1):
        raise DegreeCheckFailed(f"the counts at degrees {lo}..{lo + 2} break F_{lo} . F_{lo + 2} . "
                                f"q(u)/u = F_{lo + 1}^2 at u^{n}..u^{delta}")
    return [value(d - lo) for d in degrees]


def severi_degree(d: int, delta: int, cache: CacheStore | None = None) -> int:
    """N^{d,delta}: delta-nodal degree-d curves through general points.

    A stored count comes back as is.  Up to the last of read_degrees(delta),
    and at delta = 0, it is the recursion's, as in relative_severi; past it,
    node_values' read, stored as a root ("Counts past degree lo + 2")."""
    state, cache = pack((d, delta, (), (d,))), cache if cache is not None else _DEFAULT_CACHE
    if delta < 1 or d < read_degrees(delta).stop:
        return _evaluate(state, cache)
    value = cache._get_state(state)
    if value is None:
        value = node_values((d,), delta, cache)[0][delta]
        cache._put_state(state, value)
    return value


def severi_table(
    dmax: int,
    deltamax: int,
    cache: CacheStore | None = None,
) -> list[list[int]]:
    """All N^{d,delta} for d <= dmax, delta <= deltamax, as rows per degree."""
    if not (isinstance(dmax, int) and isinstance(deltamax, int) and dmax >= 1 and deltamax >= 0):
        raise InvalidState(f"table needs int dmax >= 1 and deltamax >= 0: {dmax!r}, {deltamax!r}")
    return [[severi_degree(d, delta, cache=cache) for delta in range(deltamax + 1)]
            for d in range(1, dmax + 1)]


def cache_save(cache: CacheStore, path: str | os.PathLike[str]) -> None:
    """Write the store's roots, merged with the file's, as sorted lines.

    Each line reads "d delta alpha beta N" under a version header, d
    written as I(alpha) + I(beta) and "-" for an empty sequence.  A save
    takes an exclusive lock on "<path>.lock", re-reads the file under it
    with cache_load, puts the store's roots into what it read (the store's
    check raises CacheCorruption on a contradicted value, before any write)
    and writes that store's roots() through a synced temporary file in the
    same directory, so concurrent processes lose no entry."""
    import fcntl
    import tempfile

    path = os.fspath(path)
    with open(path + ".lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        merged = cache_load(path)
        for state in cache._roots:
            merged._put_state(state, cache._data[state])
        mode = 0o644  # mkstemp creates 0o600; reuse the file's mode, or this
        with contextlib.suppress(FileNotFoundError):  # no file, or one removed since
            mode = os.stat(path).st_mode & 0o777
        lines = [f"{CACHE_MAGIC} {CACHE_VERSION}"]
        for (d, delta, alpha, beta), value in merged.roots():
            alpha_text, beta_text = seq_to_text(alpha) or "-", seq_to_text(beta) or "-"
            lines.append(f"{d} {delta} {alpha_text} {beta_text} {value}")
        directory, name = os.path.split(path)
        fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=directory or ".")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
                fh.flush()
                os.fchmod(fh.fileno(), mode)
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


def cache_load(path: str | os.PathLike[str]) -> CacheStore:
    """Parse a cache file; every entry read is a root of the returned store.

    A missing file is an empty store; the store's check refuses a key given two values.
    A line must read exactly as cache_save writes it, so the round trip is
    bit-exact.  Its sequences' ids are read from a table of the texts seen
    on earlier lines of this file; a text not in it is checked, and
    entered (and its sequence interned) once its whole line is valid.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:  # no file yet, or `severi cache clear` removed it
        return CacheStore()
    except UnicodeDecodeError as exc:
        raise ParseError(f"cache file {path} is not UTF-8 text: {exc.reason}") from None
    if not lines or not lines[0].strip():
        raise ParseError(f"cache file {path} is empty")
    header = lines[0].split()
    if len(header) != 2 or header[0] != CACHE_MAGIC:
        raise ParseError(f"cache file {path} has no {CACHE_MAGIC} header")
    if header[1] != CACHE_VERSION:
        raise VersionMismatch(
            f"cache file {path} is version {header[1]}, expected {CACHE_VERSION}"
        )
    store, ids = CacheStore(), {}  # ids: sequence text -> id, this file only
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 5:
            raise ParseError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
        d_text, delta_text, alpha_text, beta_text, count_text = fields
        ia, ib = ids.get(alpha_text), ids.get(beta_text)
        try:
            if ia is None or ib is None:
                alpha, beta = _seq_of_text(alpha_text), _seq_of_text(beta_text)
                d = weight(alpha) + weight(beta)
            else:
                d = _WEIGHTS[ia] + _WEIGHTS[ib]
            if d_text != str(d) or d < 1:
                raise ValueError(f"d = {d_text!r}, not weight(alpha) + weight(beta) = {d} >= 1")
            delta, value = int(delta_text), int(count_text)
            if delta < 0 or value < 0 or str(delta) != delta_text or str(value) != count_text:
                raise ValueError(f"node count {delta_text!r} and count {count_text!r} "
                                 "must be plain nonnegative decimals")
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if ia is None or ib is None:  # the line is valid: enter its texts
            ia = ids[alpha_text] = _seq_id(alpha)
            ib = ids[beta_text] = _seq_id(beta)
        store._put_state(delta << 64 | ia << 32 | ib, value)
    return store

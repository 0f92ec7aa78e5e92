"""Recursion engine against independent combinatorial and algebraic oracles."""

import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product, zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from severi import (
    CacheStore,
    DegreeCheckFailed,
    InvalidState,
    engine,
    relative_severi,
    severi_degree,
    severi_table,
)
from severi.nodepoly import fit_node_polynomial, threshold_report
from severi.tangency import TangencySeq, canonical, state_key, weight
from test_cli import child_env


# -- oracles ---------------------------------------------------------------

def size(s: TangencySeq) -> int:
    """|s| = total number of conditions."""
    return sum(s)


def test_size():
    assert size((2,)) == 2
    assert size((0, 1)) == 1
    assert size(()) == 0


def point_count(d: int, delta: int, beta: TangencySeq) -> int:
    """Number of point conditions the counted curves pass through.

    Family dimension d(d+3)/2, one condition per node, k per assigned
    order-k tangency, k-1 per unassigned one; with I(alpha)+I(beta) = d
    this is d(d+3)/2 - delta - d + |beta|.
    """
    return d * (d + 3) // 2 - delta - d + size(beta)


def test_point_count_examples():
    assert point_count(2, 0, (2,)) == 5
    assert point_count(1, 0, (1,)) == 2
    assert point_count(2, 1, (1,)) == 3


def matchings_into_pairs(n: int) -> int:
    """Perfect matchings of n labeled points: n! / (2^(n/2) (n/2)!)."""
    assert n % 2 == 0
    return math.factorial(n) // (2 ** (n // 2) * math.factorial(n // 2))


def singular_pencil_members(degree: int, seed: int) -> int:
    """Number of singular curves in a random pencil of plane curves.

    Counted exactly: the singular members are the roots of the
    eliminant of (dF/dx, dF/dy, F) in the chart z = 1, computed by a
    Groebner basis over the rationals.  For a generic pencil this is
    the degree of the discriminant hypersurface.
    """
    sympy = pytest.importorskip("sympy")
    import random

    rng = random.Random(seed)
    x, y, t = sympy.symbols("x y t")
    monomials = [
        x ** i * y ** j
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
    ]

    def random_curve():
        return sum(rng.randint(-5, 5) * m for m in monomials)

    pencil = random_curve() + t * random_curve()
    system = [sympy.diff(pencil, x), sympy.diff(pencil, y), pencil]
    basis = sympy.groebner(system, x, y, t, order="lex")
    eliminant = [p for p in basis.exprs if p.free_symbols <= {t}]
    assert len(eliminant) == 1
    poly = sympy.Poly(eliminant[0], t)
    # generic pencils have simple roots; a repeated root would undercount
    assert sympy.degree(sympy.gcd(poly, poly.diff(t)), t) == 0
    return poly.degree()


# -- golden values ----------------------------------------------------------

def test_lines(shared_cache):
    assert [severi_degree(1, k, cache=shared_cache) for k in range(4)] == [1, 0, 0, 0]


def test_conics(shared_cache):
    assert severi_degree(2, 0, cache=shared_cache) == 1
    # a 1-nodal conic is a line pair: matchings of 4 points
    assert severi_degree(2, 1, cache=shared_cache) == matchings_into_pairs(4) == 3
    assert severi_degree(2, 2, cache=shared_cache) == 0


def test_cubics(shared_cache):
    # 2-nodal cubics are line+conic splittings of 7 points: C(7,2) choices
    # of the two points on the line; 3-nodal cubics are triangles
    assert severi_degree(3, 0, cache=shared_cache) == 1
    assert severi_degree(3, 1, cache=shared_cache) == 12
    assert severi_degree(3, 2, cache=shared_cache) == math.comb(7, 2) == 21
    assert severi_degree(3, 3, cache=shared_cache) == matchings_into_pairs(6) == 15


def test_quartics(shared_cache):
    # 5-nodal quartics: conic + two lines through 9 points, C(9,5).C(4,2)/2;
    # 6-nodal quartics: four lines through 8 points, perfect matchings
    assert severi_degree(4, 5, cache=shared_cache) == math.comb(9, 5) * math.comb(4, 2) // 2 == 378
    assert severi_degree(4, 6, cache=shared_cache) == matchings_into_pairs(8) == 105
    assert severi_degree(4, 7, cache=shared_cache) == 0


def test_maximal_node_counts_are_line_arrangements(shared_cache):
    # d lines through 2d points pair them up; one node fewer is a conic
    # through 5 of 2d + 1 points and d - 2 lines pairing the rest.  From
    # d = 9 on both recurse past MAX_READ_DELTA, up to delta = 66
    for d in range(2, 13):
        mn = d * (d - 1) // 2
        assert severi_degree(d, mn, cache=shared_cache) == matchings_into_pairs(2 * d), d
        conic_and_lines = math.comb(2 * d + 1, 5) * matchings_into_pairs(2 * d - 4)
        assert severi_degree(d, mn - 1, cache=shared_cache) == conic_and_lines, d


def test_one_node_is_discriminant_degree(shared_cache):
    # the 1-nodal count through dim-1 points is the discriminant degree,
    # counted independently on an explicit random pencil
    assert severi_degree(2, 1, cache=shared_cache) == singular_pencil_members(2, seed=11)
    assert severi_degree(3, 1, cache=shared_cache) == singular_pencil_members(3, seed=20120913)


def test_relative_degrees(shared_cache):
    assert relative_severi(2, 1, (1,), (1,), cache=shared_cache) == 3
    assert relative_severi(2, 1, (2,), (), cache=shared_cache) == 2
    assert relative_severi(1, 3, (), (1,), cache=shared_cache) == 0
    # beta defaults to the absolute case
    assert relative_severi(3, 2, cache=shared_cache) == 21
    assert relative_severi(3, 1, (1,), cache=shared_cache) == relative_severi(
        3, 1, (1,), (2,), cache=shared_cache
    )


def test_calls_without_a_store_fill_the_default_one():
    assert severi_degree(3, 2) == 21
    assert engine.default_cache().get((3, 2, (), (3,))) == 21


def _partitions_of(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions_of(n - first):
            if not rest or first >= rest[0]:
                yield (first,) + rest


def _seq_binomial(s, t):
    """Product of C(s_k, t_k); zero when t exceeds s in any order."""
    out = 1
    for i, tv in enumerate(t):
        sv = s[i] if i < len(s) else 0
        if tv > sv:
            return 0
        out *= math.comb(sv, tv)
    return out


def _seq_weighted_power(s):
    """I^s = product of k^(s_k)."""
    out = 1
    for i, v in enumerate(s):
        if v:
            out *= (i + 1) ** v
    return out


def test_seq_binomial():
    assert _seq_binomial((2, 1), (1, 1)) == 2
    assert _seq_binomial((3, 2, 1), (3, 2, 1)) == 1
    assert _seq_binomial((3,), (5,)) == 0
    assert _seq_binomial((3,), ()) == 1
    assert _seq_binomial((2,), (0, 1)) == 0  # t longer than s


def test_seq_weighted_power():
    assert _seq_weighted_power(()) == 1
    assert _seq_weighted_power((0, 2)) == 4
    assert _seq_weighted_power((1, 1)) == 2
    assert _seq_weighted_power((0, 0, 3)) == 27


def naive_relative(d, delta, alpha, beta, memo):
    """Direct transcription of the defining recursion, no pruning at all.

    Enumerates every alpha' <= alpha componentwise and every beta' >= beta
    with the weight constraint, then filters by the delta' range.  Slow
    but structurally independent of the engine's windowed enumeration.
    """
    from itertools import product

    from severi.tangency import canonical, weight

    alpha, beta = canonical(alpha), canonical(beta)
    key = (d, delta, alpha, beta)
    if key in memo:
        return memo[key]
    if delta > d * (d - 1) // 2:
        value = 0
    elif d * (d + 3) // 2 - delta - d + size(beta) < 0:
        value = 0
    elif d == 1:
        value = 1 if delta == 0 else 0
    else:
        value = 0
        for i in range(len(beta)):
            if beta[i]:
                a2 = list(alpha) + [0] * (i + 1 - len(alpha))
                a2[i] += 1
                b2 = list(beta)
                b2[i] -= 1
                value += (i + 1) * naive_relative(d, delta, a2, b2, memo)
        for alpha_p in product(*(range(a + 1) for a in alpha)):
            need = (d - 1) - weight(canonical(alpha_p)) - weight(beta)
            if need < 0:
                continue
            for parts in _partitions_of(need):
                gamma = [0] * (parts[0] if parts else 0)
                for p in parts:
                    gamma[p - 1] += 1
                gamma = tuple(gamma)
                beta_p = canonical(
                    [
                        (beta[i] if i < len(beta) else 0) + (gamma[i] if i < len(gamma) else 0)
                        for i in range(max(len(beta), len(gamma)))
                    ]
                )
                delta_p = delta + size(beta_p) - size(beta) - (d - 1)
                if not 0 <= delta_p <= (d - 1) * (d - 2) // 2:
                    continue
                value += (
                    naive_relative(d - 1, delta_p, alpha_p, beta_p, memo)
                    * _seq_binomial(alpha, canonical(alpha_p))
                    * _seq_binomial(beta_p, beta)
                    * _seq_weighted_power(gamma)
                )
    memo[key] = value
    return value


def test_matches_naive_recursion(shared_cache):
    """The windowed enumeration agrees with the unpruned formula."""
    memo = {}
    for d in range(1, 5):
        for delta in range(0, 7):
            assert severi_degree(d, delta, cache=shared_cache) == naive_relative(
                d, delta, (), (d,), memo
            ), (d, delta)
    relative_states = [
        (3, 1, (), (1, 1)),
        (3, 1, (1,), (0, 1)),
        (3, 2, (0, 1), (1,)),
        (3, 0, (0, 0, 1), ()),
        (4, 2, (1,), (1, 1)),
        (4, 3, (0, 2), ()),
        (4, 1, (), (0, 0, 0, 1)),
    ]
    for d, delta, alpha, beta in relative_states:
        assert relative_severi(d, delta, alpha, beta, cache=shared_cache) == (
            naive_relative(d, delta, alpha, beta, memo)
        ), (d, delta, alpha, beta)


def test_invalid_states_raise(shared_cache):
    with pytest.raises(InvalidState):
        relative_severi(3, 1, (1,), (1,), cache=shared_cache)
    with pytest.raises(InvalidState):
        relative_severi(2, 1, (0, 0, 2), (), cache=shared_cache)
    with pytest.raises(InvalidState):
        severi_degree(0, 0, cache=shared_cache)


@st.composite
def _states(draw, dmin=2, dmax=9, nodes=True):
    """A valid (d, delta, alpha, beta): d split into tangency orders, each
    assigned (alpha) or not (beta), and 0 <= delta <= d(d-1)/2 (delta = 0
    without nodes)."""
    d = draw(st.integers(dmin, dmax))
    delta = draw(st.integers(0, d * (d - 1) // 2)) if nodes else 0
    alpha, beta = [0] * d, [0] * d
    left = d
    while left:
        k = draw(st.integers(1, left))
        (alpha if draw(st.booleans()) else beta)[k - 1] += 1
        left -= k
    return state_key(d, delta, alpha, beta)


def _ref_alpha_candidates(alpha, wlo, whi):
    """(alpha', weight, C(alpha, alpha')) for alpha' <= alpha of weight in [wlo, whi]."""
    high = [i for i in range(1, len(alpha)) if alpha[i] > 0]
    a1 = alpha[0] if alpha else 0

    def walk(pos, wh, counts, binom):
        if pos == len(high):
            for wprime in range(max(wlo, wh), whi + 1):
                c1 = wprime - wh
                if 0 <= c1 <= a1:
                    parts = [0] * len(alpha)
                    if alpha:
                        parts[0] = c1
                    for i, c in counts.items():
                        parts[i] = c
                    yield canonical(parts), wprime, binom * math.comb(a1, c1)
            return
        i = high[pos]
        for c in range(alpha[i] + 1):
            counts[i] = c
            yield from walk(pos + 1, wh + c * (i + 1), counts, binom * math.comb(alpha[i], c))
        del counts[i]

    yield from walk(0, 0, {}, 1)


def _ref_transitions(key):
    """The engine's transitions on (d, delta, alpha, beta) tuples, as they
    were before states were packed: (coef, child) pairs."""
    d, delta, alpha, beta = key
    out = []
    for i, b in enumerate(beta):
        if b:
            a2 = list(alpha) + [0] * (i + 1 - len(alpha))
            a2[i] += 1
            b2 = list(beta)
            b2[i] -= 1
            out.append((i + 1, (d, delta, canonical(a2), canonical(b2))))
    ia = weight(alpha)
    mn_next = (d - 1) * (d - 2) // 2
    wlo = max(0, ia - d)
    whi = min(ia - 1, ia - d + delta)
    if whi < wlo:
        return out
    for alpha_p, wprime, c_alpha in _ref_alpha_candidates(alpha, wlo, whi):
        W = ia - wprime - 1
        e_hi = min(W, delta + W - (d - 1))
        e_lo = max(0, W - (mn_next + (d - 1) - delta))
        for excess in range(e_lo, e_hi + 1):
            for mu in _partitions_of(excess):
                m1 = W - excess - len(mu)
                if m1 < 0:
                    continue
                delta_p = delta + (W - excess) - (d - 1)
                coef = c_alpha
                top = mu[0] if mu else 0
                b2 = list(beta) + [0] * max(0, top + 1 - len(beta))
                if m1:
                    coef *= math.comb(b2[0] + m1, m1)
                    b2[0] += m1
                run_val = run_len = 0
                for p in mu + (-1,):
                    if p == run_val:
                        run_len += 1
                        continue
                    if run_len:
                        coef *= (run_val + 1) ** run_len
                        coef *= math.comb(b2[run_val] + run_len, run_len)
                        b2[run_val] += run_len
                    run_val, run_len = p, 1
                out.append((coef, (d - 1, delta_p, alpha_p, canonical(b2))))
    return out


def _ref_move_frontier(key):
    """_ref_transitions applied until I(beta) <= delta, as {child: coef}
    with the coefficient products summed over the move paths."""
    d, delta = key[:2]
    level, out = Counter({key: 1}), Counter()
    while level:
        below = Counter()
        for state, w in level.items():
            if weight(state[3]) <= delta:
                out[state] += w
                continue
            for coef, child in _ref_transitions(state):
                assert child[:2] == (d, delta)  # delta < I(beta) leaves only moves
                below[child] += w * coef
        level = below
    return out


def _decoded_transitions(key):
    coefs, kids = engine._transitions(engine.pack(key))
    assert len(coefs) == len(kids)
    return [(coef, engine.unpack(kid)) for coef, kid in zip(coefs, kids)]


@settings(deadline=None)
@given(_states())
def test_transitions_keep_the_point_count_invariant(key):
    d, delta, alpha, beta = key
    pc = point_count(d, delta, beta)
    for _, (d2, delta2, alpha2, beta2) in _decoded_transitions(key):
        assert weight(alpha2) + weight(beta2) == d2
        if delta < weight(beta):
            # one jump to the end of the move paths: gamma leaves beta for alpha
            gamma = [a2 - a for a2, a in zip_longest(alpha2, alpha, fillvalue=0)]
            assert (d2, delta2) == (d, delta) and min(gamma) >= 0 and size(gamma) >= 1
            assert canonical(map(sum, zip_longest(beta2, gamma, fillvalue=0))) == beta
            assert weight(beta2) <= delta
            assert point_count(d2, delta2, beta2) == pc - size(gamma)
            continue
        assert point_count(d2, delta2, beta2) == pc - 1
        if d2 == d - 1:
            # a reduced curve of degree d2 has at most d2(d2-1)/2 nodes
            assert 0 <= delta2 <= d2 * (d2 - 1) // 2
        else:
            assert (d2, delta2) == (d, delta)


def _assert_transitions_match_the_reference(key):
    got = _decoded_transitions(key)
    if key[1] < weight(key[3]):
        assert len({child for _, child in got}) == len(got)
        assert {child: coef for coef, child in got} == _ref_move_frontier(key)
    else:
        assert Counter(got) == Counter(_ref_transitions(key))


@settings(deadline=None)
@given(_states())
def test_packed_transitions_match_the_tuple_reference(key):
    _assert_transitions_match_the_reference(key)


def test_transitions_match_the_reference_on_every_small_state():
    # exhaustive up to d = 6: near d(d-1)/2 nodes the cap on delta' raises
    # the lowest excess above 0, a case random states seldom reach
    keys = [(d, delta) + key[2:]
            for d in range(1, 7)
            for key in _smooth_states(d)
            for delta in range(d * (d - 1) // 2 + 1)]
    # (alpha, beta) pairs of partitions with I(alpha) + I(beta) = d:
    # 2, 5, 10, 20, 36, 65, times d(d-1)/2 + 1 values of delta
    assert len(keys) == 1628
    for key in keys:
        _assert_transitions_match_the_reference(key)


def recursion_grid(dmax, deltamax, store):
    """Every N^{d,delta} with d <= dmax and delta <= deltamax by the
    recursion alone, which severi_degree leaves past degree lo + 2."""
    for d in range(1, dmax + 1):
        for delta in range(deltamax + 1):
            relative_severi(d, delta, cache=store)


def _table_sequences() -> list[TangencySeq]:
    """The alpha and beta of every state recursion_grid(12, 7) stores: a
    fixed set, however many sequences earlier tests interned in this
    process."""
    store = CacheStore()
    recursion_grid(12, 7, store)
    return sorted({seq for (_, _, alpha, beta), _ in store.items() for seq in (alpha, beta)})


def test_alpha_candidates_match_the_unpruned_walk():
    # every sequence of a table run, at every weight bound up to its
    # weight, cached and rebuilt without the cache, against the walk over
    # every combination of parts
    for alpha in _table_sequences():
        ia = engine._seq_id(alpha)
        for whi in range(weight(alpha) + 1):
            want = Counter(_ref_alpha_candidates(alpha, 0, whi))
            for build in (engine._alpha_candidates, engine._alpha_candidates.__wrapped__):
                got = Counter((engine._SEQS[s], w, c) for s, w, c in build(ia, whi))
                assert got == want, (alpha, whi)


def test_smooth_leaf_is_the_delta_zero_frontier():
    # at delta = 0 every move path runs to beta' = (): gamma = beta, and
    # c_0 is the coincident-root count of the closed-form leaf
    empty = engine._seq_id(())
    for beta in _table_sequences():
        if beta:
            ib = engine._seq_id(beta)
            assert engine._frontier(ib, 0) == ((engine._SMOOTH[ib], ib, empty),)


def test_single_moves_are_the_frontier_below_beta():
    # at delta = I(beta) - 1 every move path stops after one move, so the
    # frontier is k . (alpha + e_k, beta - e_k) over beta_k >= 1: the move
    # terms of a state with delta >= I(beta)
    for beta in _table_sequences():
        if not beta:
            continue
        ib = engine._seq_id(beta)
        moves = Counter()
        for i, b in enumerate(beta):
            if b:
                e_k = canonical([0] * i + [1])
                rest = canonical(list(beta[:i]) + [b - 1] + list(beta[i + 1:]))
                moves[i + 1, engine._seq_id(e_k), engine._seq_id(rest)] += 1
        assert Counter(engine._frontier(ib, weight(beta) - 1)) == moves, beta


def test_optimized_mode_computes_the_same_table():
    # the asserts live in the table builders; python -O drops them, and
    # must not change a single stored value
    script = (
        "from severi import CacheStore, relative_severi\n"
        "store = CacheStore()\n"
        "for d in range(1, 13):\n"
        "    for delta in range(8):\n"
        "        relative_severi(d, delta, cache=store)\n"
        "print(__debug__, list(store.items()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    store = CacheStore()
    recursion_grid(12, 7, store)
    assert proc.stdout == f"False {list(store.items())}\n"


def _unlayered_alpha_candidates(ia, whi):
    """The engine's _alpha_candidates before its weight layers: every
    alpha' <= alpha of weight at most whi in one pass, capped part by part."""
    a1, *highs = engine._SEQS[ia] or (0,)
    caps = [range(min(a, whi // k) + 1) for k, a in enumerate(highs, 2)]
    out = []
    for high in product(*caps):
        wh = sum(k * c for k, c in enumerate(high, 2))
        binom = math.prod(map(math.comb, highs, high))
        for c1 in range(min(whi - wh, a1) + 1):
            out.append((engine._seq_id((c1, *high)), wh + c1, binom * math.comb(a1, c1)))
    return tuple(out)


def _unlayered_frontier(ib, delta):
    """The engine's _frontier before its gamma layers: gamma, its orderings
    and its path ends worked out again for each delta."""
    out = []
    for ib_p, w_p, _ in _unlayered_alpha_candidates(ib, delta):
        gamma = [b - c for b, c in zip_longest(engine._SEQS[ib], engine._SEQS[ib_p], fillvalue=0)]
        ends = sum(g for i, g in enumerate(gamma) if w_p + i + 1 > delta)
        if ends:
            num, den = engine._orderings(gamma) * ends, sum(gamma)
            assert num % den == 0
            out.append((num // den, engine._seq_id(gamma), ib_p))
    return tuple(out)


def _unlayered_template(ib, w, budget, e_lo):
    """The engine's _template before its extension layers: every beta' of
    the excess range built again for each budget."""
    beta = engine._SEQS[ib]
    coefs, lows = [], []
    for excess in range(e_lo, min(w, budget) + 1):
        high = budget - excess << 64
        for mu in engine._partitions(excess):
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
            coefs.append(coef)
            lows.append(high | engine._seq_id(b2))
    return tuple(coefs), tuple(lows)


def test_layered_builders_match_the_unlayered_ones(monkeypatch):
    # every key that the cold deep root and a cold delta = 16 read ask of
    # the three layered builders, against the builders they replaced;
    # candidates now come lightest first, so entries compare as Counters
    keys = {name: set() for name in ("_alpha_candidates", "_frontier", "_template")}
    for name, seen in keys.items():
        build = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *key, _b=build, _s=seen: _s.add(key) or _b(*key))
    relative_severi(30, 9, cache=CacheStore())
    engine.node_values([1], 16, cache=CacheStore())
    monkeypatch.undo()
    # as many keys as a fresh process making the two reads caches
    assert [len(seen) for seen in keys.values()] == [5658, 4351, 4771]
    for key in keys["_alpha_candidates"]:
        assert Counter(engine._alpha_candidates(*key)) == Counter(_unlayered_alpha_candidates(*key)), key
    for key in keys["_frontier"]:
        assert Counter(engine._frontier(*key)) == Counter(_unlayered_frontier(*key)), key
    for key in keys["_template"]:
        got, want = engine._template(*key), _unlayered_template(*key)
        assert Counter(zip(*got)) == Counter(zip(*want)), key


_BUILDERS = ("_partitions", "_highs", "_subsequences", "_alpha_candidates", "_gammas",
             "_frontier", "_seq_sum", "_extensions", "_template")


def _fresh_builder_sizes(call):
    # the builders' caches are process-global, so only a fresh interpreter
    # shows how much one cold call makes them build
    script = (
        "from severi import CacheStore, engine, relative_severi\n"
        "from severi.nodepoly import threshold_report\n"
        "store = CacheStore()\n"
        f"{call}\n"
        f"sizes = [getattr(engine, name).cache_info().currsize for name in {_BUILDERS!r}]\n"
        "print(len(store), len(engine._SEQS), sizes)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_builders_do_the_pinned_work_in_a_fresh_process():
    # the cold deep root N^{30,9}, in the order of _BUILDERS
    assert (_fresh_builder_sizes("relative_severi(30, 9, cache=store)")
            == "41923 1880 [10, 1420, 5460, 5384, 5423, 4077, 7641, 2803, 3008]\n")


def test_threshold_builders_do_the_pinned_work_in_a_fresh_process():
    # the benchmark's cold pass, which counts at degrees 5..8 only
    assert (_fresh_builder_sizes("threshold_report(9, cache=store)")
            == "1370 46 [8, 45, 234, 164, 202, 147, 135, 202, 392]\n")


def test_tables_grown_in_either_order_give_the_same_stores():
    # the layers are process-global and grow from read to read: a read
    # made on tables another read began gives the store it gives alone
    script = (
        "import hashlib, sys\n"
        "from severi import CacheStore, relative_severi\n"
        "from severi.nodepoly import threshold_report\n"
        "jobs = {'threshold': lambda store: threshold_report(9, cache=store),\n"
        "        'deep': lambda store: relative_severi(30, 9, cache=store)}\n"
        "for name in sys.argv[1:]:\n"
        "    store = CacheStore()\n"
        "    jobs[name](store)\n"
        "    print(name, len(store), hashlib.sha256(repr(list(store.items())).encode()).hexdigest())\n"
    )
    runs = []
    for order in (("threshold", "deep"), ("deep", "threshold")):
        proc = subprocess.run(
            [sys.executable, "-c", script, *order],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(sorted(proc.stdout.splitlines()))
    assert runs[0] == runs[1]
    assert [line.split()[:2] for line in runs[0]] == [["deep", "41923"], ["threshold", "1370"]]


@given(_states())
def test_pack_round_trips(key):
    state = engine.pack(key)
    assert engine.unpack(state) == key
    assert engine.pack(engine.unpack(state)) == state


def test_pack_refuses_keys_state_key_would_not_build():
    # pack checks a key with state_key, so a non-canonical key packs as
    # the state of its canonical form, and what state_key refuses raises
    assert engine.pack((2, 0, (2, 0), ())) == engine.pack((2, 0, (2,), ()))
    assert engine.unpack(engine.pack((2, 0, (2, 0), ()))) == (2, 0, (2,), ())
    with pytest.raises(InvalidState):
        engine.pack((2, -1, (), (2,)))
    with pytest.raises(InvalidState):
        engine.pack((3, 0, (), (2,)))
    with pytest.raises(InvalidState):
        engine.pack((0, 0, (), ()))
    with pytest.raises(ValueError):
        engine.pack((1, 0, (), (3, -1)))


def test_seq_id_trims_trailing_zeros():
    sid = engine._seq_id([2, 0, 1, 0, 0])
    assert sid == engine._seq_id((2, 0, 1))
    assert engine._SEQS[sid] == (2, 0, 1)


def test_partition_table_matches_the_recursive_generator():
    for n in range(13):
        assert Counter(engine._partitions(n)) == Counter(_partitions_of(n)), n


def test_huge_node_counts_keep_distinct_keys():
    # equal modulo 2**64: a fixed-width delta field would merge them
    store = CacheStore()
    low, high = (3, 2**70, (), (3,)), (3, 2**71, (), (3,))
    assert engine.pack(low) != engine.pack(high)
    assert engine.unpack(engine.pack(high)) == high
    assert relative_severi(3, 2**70, (), (3,), cache=store) == 0
    assert relative_severi(3, 2**71, (), (3,), cache=store) == 0
    assert len(store) == 2
    assert dict(store.items()) == {low: 0, high: 0}


def test_sequence_ids_past_32_bits_raise(monkeypatch):
    class Full(list):
        def __len__(self):
            return 1 << 32

    monkeypatch.setattr(engine, "_SEQS", Full(engine._SEQS))
    unseen = (0,) * 60 + (1,)
    with pytest.raises(OverflowError):
        engine.pack((61, 0, (), unseen))


def test_states_evaluated_per_table():
    # pinned work counters: the memo sizes of a cold grid; delta = 0
    # states are closed-form leaves, and a state with delta < I(beta)
    # jumps over its move paths, so neither stores the states in between
    store = CacheStore()
    recursion_grid(10, 6, store)
    assert len(store) == 1618
    store = CacheStore()
    recursion_grid(18, 9, store)
    assert len(store) == 18542
    # severi_table reads each N^{d,delta} with d > lo + 2 off the counts at
    # degrees lo-1..lo+2, lo = ceil(delta/2) + 1, so it stores the states
    # below that band only
    store = CacheStore()
    severi_table(10, 6, cache=store)
    assert len(store) == 367
    store = CacheStore()
    severi_table(18, 9, cache=store)
    assert len(store) == 1503
    store = CacheStore()
    relative_severi(30, 9, cache=store)
    assert len(store) == 41923
    # severi_degree reads N^{30,9} off the same counts as the threshold
    store = CacheStore()
    severi_degree(30, 9, cache=store)
    assert len(store) == 1371
    # the threshold and the fit read T_9 off the counts at degrees 5..8 alone:
    # all of 6 and 7, k <= 8 at 5 and k = 9 at 8
    store = CacheStore()
    threshold_report(9, cache=store)
    assert len(store) == 1370
    store = CacheStore()
    fit_node_polynomial(9, cache=store)
    assert len(store) == 1370
    store = CacheStore()
    assert severi_degree(10**4, 0, cache=store) == 1
    assert len(store) == 1


# -- delta = 0 closed form ---------------------------------------------------

def _ref_severi(key, memo):
    """N on tuple keys by _ref_transitions, with only the recursion's own
    base cases (zero above d(d-1)/2 nodes, one line at degree 1)."""
    stack = [key]
    while stack:
        state = stack[-1]
        if state in memo:
            stack.pop()
            continue
        d, delta = state[0], state[1]
        if delta > d * (d - 1) // 2:
            memo[state] = 0
        elif d == 1:
            memo[state] = 1
        else:
            pairs = _ref_transitions(state)
            missing = [child for _, child in pairs if child not in memo]
            if missing:
                stack.extend(missing)
                continue
            memo[state] = sum(coef * memo[child] for coef, child in pairs)
        stack.pop()
    return memo[key]


def _smooth_states(d):
    """Every valid (d, 0, alpha, beta): each part of each partition of d
    assigned (alpha) or not (beta)."""
    keys = set()
    for parts in _partitions_of(d):
        for mask in range(1 << len(parts)):
            alpha, beta = [0] * d, [0] * d
            for j, p in enumerate(parts):
                (alpha if mask >> j & 1 else beta)[p - 1] += 1
            keys.add(state_key(d, 0, alpha, beta))
    return sorted(keys)


def test_smooth_states_match_naive_recursion():
    store, memo = CacheStore(), {}
    for d in range(1, 8):
        for key in _smooth_states(d):
            assert relative_severi(*key, cache=store) == naive_relative(*key, memo), key


@settings(deadline=None)
@given(_states(1, 12, nodes=False))
def test_smooth_states_match_the_reference_recursion(key):
    assert relative_severi(*key, cache=CacheStore()) == _ref_severi(key, {})


def test_states_above_smooth_leaves_match_the_reference_recursion():
    # the delta >= 1 states whose delta = 0 children are now leaves
    store, memo = CacheStore(), {}
    recursion_grid(12, 7, store)
    for key, value in store.items():
        assert value == _ref_severi(key, memo), key


def test_threshold_store_matches_the_reference_recursion():
    # every recursion state up to degree 24, then the power-read root
    store, memo = CacheStore(), {}
    relative_severi(24, 7, cache=store)
    for key, value in store.items():
        assert value == _ref_severi(key, memo), key
    root = (24, 7, (), (24,))
    assert severi_degree(24, 7, cache=CacheStore()) == _ref_severi(root, memo)


# -- genus 0 against Kontsevich ----------------------------------------------

def _kontsevich(dmax):
    """Rational plane curves of degree d through 3d-1 points, by WDVV."""
    n = [0, 1]
    for d in range(2, dmax + 1):
        n.append(sum(
            n[a] * n[d - a] * (
                a * a * (d - a) ** 2 * math.comb(3 * d - 4, 3 * a - 2)
                - a ** 3 * (d - a) * math.comb(3 * d - 4, 3 * a - 1)
            )
            for a in range(1, d)
        ))
    return n[1:]


def _getzler(dmax):
    """Irreducible genus-1 plane curves of degree d through 3d points, by
    Getzler's recursion (JAMS 1997) over the genus-0 counts N_d:

      N1_d = C(d,3)/12 . N_d + 1/9 . sum_{d1+d2=d} C(3d-1, 3d1-1)
             . d1 . d2 . (3d1-2) . N_d1 . N1_d2
    """
    n = [0] + _kontsevich(dmax)
    n1 = [0]
    for d in range(1, dmax + 1):
        n1.append(Fraction(math.comb(d, 3), 12) * n[d] + Fraction(1, 9) * sum(
            math.comb(3 * d - 1, 3 * d1 - 1) * d1 * (d - d1) * (3 * d1 - 2) * n[d1] * n1[d - d1]
            for d1 in range(1, d)
        ))
    return n1[1:]


def _irreducible(dmax, e, store):
    """(3d+e)! [y^e z^d lambda^(3d+e)] of log sum N^{d,delta} y^(g-1) z^d
    lambda^n/n!, n = 3d+g-1, g = (d-1)(d-2)/2 - delta, for d <= dmax: the
    irreducible curves of genus e + 1.

    Nodes, genus minus one and points all add over the components of a
    reducible curve, and the points are shared out among them, so the log
    keeps the irreducible curves (exponential formula).  lambda^n is fixed
    by z^d y^e, so a coefficient is N/n! at y^e z^d.  Every component has
    y-exponent g - 1 >= -1 per unit of degree or more, so a term of genus
    g > dmax - d + e + 1 cannot reach y^e below degree dmax + 1 and is left
    out.
    """
    series = []
    for d in range(1, dmax + 1):
        top = (d - 1) * (d - 2) // 2
        series.append({
            top - delta - 1: Fraction(severi_degree(d, delta, cache=store),
                                      math.factorial(3 * d + top - delta - 1))
            for delta in range(max(0, top - (dmax - d) - (e + 1)), d * (d - 1) // 2 + 1)
        })
    logs = []  # d G_d = d F_d - sum_j j G_j F_{d-j}
    for d in range(1, dmax + 1):
        acc = Counter({k: d * c for k, c in series[d - 1].items()})
        for j in range(1, d):
            for e1, a in logs[j - 1].items():
                for e2, b in series[d - j - 1].items():
                    acc[e1 + e2] -= j * a * b
        logs.append({k: c / d for k, c in acc.items()})
    return [logs[d - 1].get(e, 0) * math.factorial(3 * d + e) for d in range(1, dmax + 1)]


def test_kontsevich_reference_values():
    assert _kontsevich(6) == [1, 1, 12, 620, 87304, 26312976]


def test_irreducible_counts_match_kontsevich():
    assert _irreducible(9, -1, CacheStore()) == _kontsevich(9)


def test_irreducible_counts_match_kontsevich_to_degree_11():
    assert _irreducible(11, -1, CacheStore()) == _kontsevich(11)


def test_getzler_reference_values():
    assert _getzler(6) == [0, 0, 1, 225, 87192, 57435240]


def test_irreducible_genus_one_counts_match_getzler():
    assert _irreducible(10, 0, CacheStore()) == _getzler(10)


def test_readme_conics_tangent_to_a_line():
    assert relative_severi(2, 0, (), (0, 1), cache=CacheStore()) == 2


def test_table_shape_and_values(shared_cache):
    assert severi_table(2, 1, cache=shared_cache) == [[1, 0], [1, 3]]
    assert severi_table(1, 0, cache=shared_cache) == [[1]]
    table = severi_table(3, 3, cache=shared_cache)
    assert table[2] == [1, 12, 21, 15]
    assert all(row[0] == 1 for row in table)


def test_zero_above_maximal_nodes(shared_cache):
    for d in range(1, 5):
        mn = d * (d - 1) // 2
        assert severi_degree(d, mn + 1, cache=shared_cache) == 0
        assert severi_degree(d, mn + 5, cache=shared_cache) == 0


def test_only_roots_exceed_the_node_bound():
    # the evaluation checks delta <= d(d-1)/2 at the root alone: a move
    # keeps (d, delta) and a template child has delta' <= (d-1)(d-2)/2
    store = CacheStore()
    severi_table(10, 60, cache=store)
    roots = {key for key, _ in store.roots()}
    above = [(key, v) for key, v in store.items() if key[1] > key[0] * (key[0] - 1) // 2]
    assert above  # the table asks for counts above the bound
    assert all(key in roots and v == 0 for key, v in above)


def test_fresh_caches_agree(shared_cache):
    assert severi_degree(5, 4, cache=CacheStore()) == severi_degree(
        5, 4, cache=shared_cache
    )


def test_quintics_match_known_values(shared_cache):
    # classical counts for plane quintics, cross-checked against the
    # node-polynomial evaluations in test_nodepoly
    assert severi_degree(5, 1, cache=shared_cache) == 48
    assert severi_degree(5, 2, cache=shared_cache) == 882
    assert severi_degree(5, 10, cache=shared_cache) == matchings_into_pairs(10)


# -- counts past degree lo + 2 -----------------------------------------------

def held_out_node_values(degrees, delta, lo, cache=None):
    """[T_0(d), ..., T_delta(d)] read off the counts at degrees lo..lo+2 and
    checked at lo+3 with F_lo . F_{lo+2}^3 = F_{lo+1}^3 . F_{lo+3}, the
    quadratic log's weights at t = 3: the engine's read before q(u)/u
    replaced the fourth degree, kept as the reference for it."""
    size = delta + 1
    f = [[relative_severi(e, k, cache=cache) for k in range(size)] for e in range(lo, lo + 4)]

    def power(a, n):
        p = [1]
        for m in range(1, size):
            p.append(sum(((n + 1) * k - m) * a[k] * p[m - k] for k in range(1, m + 1)) // m)
        return p

    def times(a, b):
        return [sum(a[k] * b[m - k] for k in range(m + 1)) for m in range(size)]

    assert times(f[0], power(f[2], 3)) == times(power(f[1], 3), f[3]), f"degree {lo + 3}"
    return [times(times(power(f[0], (t - 1) * (t - 2) // 2), power(f[1], -t * (t - 2))),
                  power(f[2], t * (t - 1) // 2)) for t in (d - lo for d in degrees)]


def block_node_values(degrees, delta, cache=None):
    """The held-out read at degrees delta..delta+3, where Block
    (arXiv:1006.0218) proves every N^{e,k}, k <= delta, equals T_k(e): the
    engine's read before it moved down to Gottsche's threshold."""
    return held_out_node_values(degrees, delta, max(delta, 1), cache)


def test_the_low_degree_is_gottsches_threshold():
    # ceil(delta/2) + 1 from delta = 2 on, which is delta itself up to 3
    lows = [engine.low_degree(delta) for delta in range(14)]
    assert lows == [1, 1, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8]
    assert all(lo == math.ceil(delta / 2) + 1 for delta, lo in enumerate(lows) if delta >= 2)


@pytest.mark.parametrize("delta", range(13))
def test_node_values_equal_the_block_read(shared_cache, delta):
    # T_0(d)..T_delta(d) at every degree d <= 3.delta + 12, below lo too
    degrees = range(1, 3 * delta + 13)
    got = engine.node_values(degrees, delta, cache=shared_cache)
    assert got == block_node_values(degrees, delta, cache=shared_cache)


@pytest.mark.parametrize("delta", [*range(17), 20])
def test_node_values_equal_the_held_out_read(delta):
    # the same degrees lo..lo+2, checked by a fourth degree instead of
    # q(u)/u; delta = 20 is the deepest read the CLI fixture pins
    degrees = range(1, 3 * delta + 13)
    lo, store = engine.low_degree(delta), CacheStore()
    got = engine.node_values(degrees, delta, cache=store)
    assert got == held_out_node_values(degrees, delta, lo, cache=store)


def poisoned_recursion(monkeypatch, bad):
    """engine.relative_severi with N^bad, bad = (d, delta), off by one."""
    true_recursion = engine.relative_severi

    def poisoned(d, delta, *tangencies, cache=None):
        return true_recursion(d, delta, *tangencies, cache=cache) + ((d, delta) == bad)

    monkeypatch.setattr(engine, "relative_severi", poisoned)


@pytest.mark.parametrize("offset", [1, 2])
def test_a_count_off_by_one_above_the_low_degree_fails_the_check(monkeypatch, offset):
    # lo = 6 and K = 8 at delta = 9: u^9 of degrees 7 and 8 is checked at lo + 2
    poisoned_recursion(monkeypatch, (6 + offset, 9))
    with pytest.raises(DegreeCheckFailed, match=r"degrees 6\.\.8 break F_6 \. F_8 \. "
                                                r"q\(u\)/u = F_7\^2 at u\^9\.\.u\^9$"):
        threshold_report(9, cache=CacheStore())


@pytest.mark.parametrize("bad", [(6, 9), (7, 4)])
def test_a_count_off_by_one_in_the_read_fails_the_check(monkeypatch, bad):
    # at lo itself, and below delta: each identity holds coefficient by
    # coefficient, and N^{7,4} enters at u^4 <= u^K, checked at lo - 1 = 5
    poisoned_recursion(monkeypatch, bad)
    degrees = "5..7" if bad[1] <= 8 else "6..8"
    with pytest.raises(DegreeCheckFailed, match=f"degrees {degrees} "):
        threshold_report(9, cache=CacheStore())


# every slot the read checks, off by one: the counts at lo - 1 for k <= K
# (one k), u^delta at lo and lo + 1, and each count at lo + 2 (all k > K)
_BELOW = "the counts at degrees {0}..{2} break F_{0} . F_{2} . q(u)/u = F_{1}^2 mod u^{3}"
_ABOVE = "the counts at degrees {0}..{2} break F_{0} . F_{2} . q(u)/u = F_{1}^2 at u^{3}..u^{4}"


@pytest.mark.parametrize("bad", [(5, 4), (6, 9), (7, 9), (8, 9)])
def test_each_checked_count_at_delta_9_fails_its_check(monkeypatch, bad):
    # lo = 6, K = 8: only u^9 is counted at lo + 2
    poisoned_recursion(monkeypatch, bad)
    with pytest.raises(DegreeCheckFailed) as failed:
        engine.node_values((30,), 9, cache=CacheStore())
    below, above = _BELOW.format(5, 6, 7, 9), _ABOVE.format(6, 7, 8, 9, 9)
    assert str(failed.value) == (below if bad[1] <= 8 else above)


@pytest.mark.parametrize("bad", [(6, 7), (7, 12), (8, 12), (9, 11), (9, 12)])
def test_each_checked_count_at_delta_12_fails_its_check(monkeypatch, bad):
    # lo = 7, K = 10: u^11 and u^12 are counted at lo + 2
    poisoned_recursion(monkeypatch, bad)
    with pytest.raises(DegreeCheckFailed) as failed:
        engine.node_values((30,), 12, cache=CacheStore())
    below, above = _BELOW.format(6, 7, 8, 11), _ABOVE.format(7, 8, 9, 11, 12)
    assert str(failed.value) == (below if bad[1] <= 10 else above)


@pytest.mark.parametrize("delta, bad", [(9, (8, 8)), (9, (8, 0)), (12, (9, 10))])
def test_an_uncounted_coefficient_at_lo_plus_2_changes_nothing(monkeypatch, delta, bad):
    # k <= K at lo + 2 comes from the formula: the count is never asked for
    degrees = range(1, 3 * delta + 13)
    want = engine.node_values(degrees, delta, cache=CacheStore())
    poisoned_recursion(monkeypatch, bad)
    true_evaluate, roots = engine._evaluate, set()

    def recording(root, cache):
        roots.add(engine.unpack(root)[:2])
        return true_evaluate(root, cache)

    monkeypatch.setattr(engine, "_evaluate", recording)
    assert engine.node_values(degrees, delta, cache=CacheStore()) == want
    assert bad not in roots and (bad[0], delta) in roots


def test_the_split_is_the_last_coefficient_counted_below_lo():
    # K = delta - 1 for odd delta and delta = 2, delta - 2 for even delta >= 4
    splits = [engine._split(delta) for delta in range(14)]
    assert splits == [-1, -1, 1, 2, 2, 4, 4, 6, 6, 8, 8, 10, 10, 12]
    for delta, split in enumerate(splits):
        lo = engine.low_degree(delta)
        assert split == max((k for k in range(delta + 1) if engine.low_degree(k) < lo), default=-1)
    reads = [engine.read_degrees(delta) for delta in range(6)]
    assert reads == [range(1, 4), range(1, 4), range(1, 5), range(2, 6), range(2, 6), range(3, 7)]


@pytest.mark.parametrize("m", range(10))
def test_a_coefficient_of_q_off_by_one_fails_the_check(shared_cache, monkeypatch, m):
    true_q = engine.q_over_u

    def off_by_one(size):
        q = list(true_q(size))
        q[m] += 1
        return tuple(q)

    monkeypatch.setattr(engine, "q_over_u", off_by_one)
    # Q_m enters at u^m: checked at lo - 1 = 5 up to K = 8, at lo + 2 = 8 above
    with pytest.raises(DegreeCheckFailed, match="degrees 5..7 " if m <= 8 else "degrees 6..8 "):
        engine.node_values((30,), 9, cache=shared_cache)


@pytest.mark.parametrize("delta", range(1, 7))
def test_node_values_match_the_recursion(shared_cache, delta):
    # every k <= delta, at every degree from delta + 1 to 3.delta + 12
    degrees = range(delta + 1, 3 * delta + 13)
    got = engine.node_values(degrees, delta, cache=shared_cache)
    for d, values in zip(degrees, got, strict=True):
        assert values == [relative_severi(d, k, cache=shared_cache) for k in range(delta + 1)], d


def test_severi_degree_persists_the_root_and_the_counts_it_read():
    # on a fresh store each, against the recursion: N^{17,3} and every
    # cell d <= 16, delta <= 6 past degree lo + 2
    reference = CacheStore()
    lows = [engine.low_degree(delta) for delta in range(7)]
    cells = [(17, 3)] + [(d, delta) for delta in range(7) for d in range(lows[delta] + 3, 17)]
    for d, delta in cells:
        store = CacheStore()
        value = severi_degree(d, delta, cache=store)
        assert value == relative_severi(d, delta, cache=reference), (d, delta)
        roots = {(d, delta, (), (d,))}
        if delta:  # the counts read at degrees lo - 1 (k <= K), lo, lo + 1 and lo + 2 (k > K)
            lo = lows[delta]
            split = max((k for k in range(delta) if lows[k] < lo), default=-1)
            counted = {lo - 1: range(split + 1), lo: range(delta + 1), lo + 1: range(delta + 1),
                       lo + 2: range(split + 1, delta + 1)}
            roots |= {(e, k, (), (e,)) for e, ks in counted.items() for k in ks}
        assert {key for key, _ in store.roots()} == roots, (d, delta)


def test_severi_degree_reads_the_store_first():
    store = CacheStore()
    store.put((40, 5, (), (40,)), 7)  # not the count, but what the store says
    assert severi_degree(40, 5, cache=store) == 7
    assert (len(store), store.hits) == (1, 1)


def test_severi_degree_keeps_the_recursion_up_to_degree_lo_plus_2():
    # lo = 3 at delta = 3
    store = CacheStore()
    assert severi_degree(5, 3, cache=store) == relative_severi(5, 3, cache=CacheStore()) == 7915
    assert severi_degree(4, 0, cache=store) == 1
    assert len(store) > store.root_count == 2  # the recursion's states, two roots


def test_severi_degree_refuses_a_float_degree_in_a_fresh_process():
    # once (30,) has an id, 30.0 finds it; the float must not reach the power
    # read, nor leave a float under the int key for the next call to return
    script = (
        "from severi import CacheStore, InvalidState, engine, severi_degree\n"
        "engine._seq_id((30,))\n"
        "store = CacheStore()\n"
        "try:\n"
        "    severi_degree(30.0, 9, cache=store)\n"
        "except InvalidState:\n"
        "    print('refused', len(store))\n"
        "value = severi_degree(30, 9, cache=store)\n"
        "print(type(value).__name__, value)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused 0\nint 9379199521308524138375940\n"


def test_a_failed_registration_leaves_the_sequence_tables_aligned():
    # _orderings raising for (11,) must not leave (11,) in _SEQS and _WEIGHTS
    # without its _SMOOTH entry and id, or every later id is off by one
    script = (
        "from severi import CacheStore, engine, relative_severi\n"
        "orderings = engine._orderings\n"
        "def once(parts):\n"
        "    engine._orderings = orderings\n"
        "    raise RuntimeError('once')\n"
        "engine._orderings = once\n"
        "try:\n"
        "    relative_severi(11, 5, cache=CacheStore())\n"
        "except RuntimeError:\n"
        "    pass\n"
        "tables = (engine._SEQS, engine._WEIGHTS, engine._SMOOTH, engine._IDS)\n"
        "print(len(set(map(len, tables))), relative_severi(11, 5, cache=CacheStore()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 12886585236\n"


def test_node_values_refuse_a_negative_or_non_int_input():
    store = CacheStore()
    with pytest.raises(ValueError, match="node count must be nonnegative"):
        engine.node_values((5,), -1, cache=store)
    for degrees, delta in (((5.0,), 2), ((5, 6.5), 2), ((5,), 2.0)):
        with pytest.raises(InvalidState):
            engine.node_values(degrees, delta, cache=store)
    assert len(store) == 0  # refused before any count is read


def test_severi_table_refuses_a_float_size():
    store = CacheStore()
    for dmax, deltamax in ((6.0, 4), (6, 4.0)):
        with pytest.raises(InvalidState, match="table needs int dmax"):
            severi_table(dmax, deltamax, cache=store)
    assert len(store) == 0


@pytest.mark.parametrize("call", [
    lambda store: severi_degree(30, 9.0, cache=store),  # past lo + 2: the read
    lambda store: severi_degree(5, 9.0, cache=store),  # up to lo + 2: the recursion
    lambda store: store.get((5, 2.0, (), (5,))),
    lambda store: store.put((5, 2.0, (), (5,)), 7),
    lambda store: store.get((5, 2, (), (5.0,))),
], ids=["read", "recursion", "get", "put", "get-float-part"])
def test_a_float_in_a_key_is_an_invalid_state(call):
    # the key is checked once, by state_key inside pack, before any lookup
    store = CacheStore()
    with pytest.raises(InvalidState):
        call(store)
    assert (len(store), store.hits, store.misses) == (0, 0, 0)


def test_severi_degree_of_an_astronomical_degree():
    # N^{d,3} = T_3(d) for d >= 3 (Block); T_3 from the fit over d = 5..12
    from severi import fit_node_polynomial

    d = 10**20
    assert severi_degree(d, 3, cache=CacheStore()) == fit_node_polynomial(3)(d)

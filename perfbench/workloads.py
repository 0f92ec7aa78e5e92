"""The three workloads: seeded inputs, timed operations and their checks.

A workload runs in passes.  ``setup`` is the set-up a user pays for;
``prepare(passes)`` runs after it, in a process of its own, and writes
to the working directory whatever the passes need that is not part of
the measured job (reference answers); ``load`` reads that back in the
measuring process.  ``ops(p)`` prepares pass p outside the timed region
(fresh stores, a fresh copy of the cache file) and returns its
operations.  Each ``Op.run`` is timed; ``Op.check`` then raises
``WrongOutput`` if the result is not exact.  Inputs depend only on the
seed and the pass number, never on timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple


class WrongOutput(AssertionError):
    """The program returned a result that is not the exact answer."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongOutput(message)


class Op(NamedTuple):
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _same(pair: tuple[Any, Any]) -> None:
    lhs, rhs = pair
    expect(lhs == rhs, "the two sides of the identity differ")


class Workload:
    """What a workload without set-up, preparation or extras does."""

    def setup(self) -> None:
        pass

    def prepare(self, passes: int) -> None:
        pass

    def load(self) -> None:
        pass

    def layer_extras(self) -> dict[str, float]:
        return {}


# -- cold-threshold --------------------------------------------------------


class ColdThreshold(Workload):
    """threshold_report(delta) on a fresh CacheStore: the engine's cold path.

    The job is fixed, so the seed is accepted and unused.  Checks: the
    threshold, the fitted T_delta at its guard point against the count,
    and the closed form N^{d,1} = 3(d-1)^2 on every degree the job touches.
    """

    PASS_S = 7.5  # nominal seconds per pass on the reference machine

    def __init__(self, sev, seed: int, workdir: Path, delta: int = 9, expected: int = 6):
        self.sev = sev
        self.delta = delta
        self.expected = expected

    def ops(self, p: int) -> list[Op]:
        sev, delta = self.sev, self.delta
        store = sev.engine.CacheStore()

        def run():
            return sev.nodepoly.threshold_report(delta, cache=store)

        def check(report) -> None:
            expect(
                report.threshold == self.expected,
                f"threshold({delta}) = {report.threshold}, expected {self.expected}",
            )
            guard = 3 * delta + 3
            poly = sev.nodepoly.fit_node_polynomial(delta, cache=store)
            count = sev.engine.severi_degree(guard, delta, cache=store)
            expect(poly(guard) == count, f"T_{delta}({guard}) != N^({guard},{delta})")
            for d in range(1, guard + 1):
                n = sev.engine.severi_degree(d, 1, cache=store)
                expect(n == 3 * (d - 1) ** 2, f"N^({d},1) = {n}, expected {3 * (d - 1) ** 2}")

        return [Op("threshold", run, check)]


# -- warm-cli ---------------------------------------------------------------


def run_cli(sev, argv: list[str]) -> tuple[int, str]:
    """severi.cli.main in-process; returns the exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = sev.cli.main(argv)
    return code, out.getvalue()


def cli_queries(seed: int, p: int, dmax: int, deltamax: int, reads: int, writes: int):
    """Pass p's query stream: (kind, argv) pairs, without any --cache flag.

    Reads stay inside the pre-filled table (d <= dmax, delta <= deltamax),
    so the cache file serves them whole.  Writes are ``count`` at degrees
    dmax+1, dmax+2, ... in stream order: a state of degree D is only ever
    created by a query of degree >= D, so each write's root is uncached.
    Their node counts do not depend on the seed, so neither does the growth
    of the file; the seed places them among the reads.
    """
    rng = random.Random(f"warm-cli/{seed}/{p}")
    fit_max = min(deltamax, (dmax - 3) // 3)  # nodepoly needs d up to 3delta+3
    order = min(6, deltamax, dmax - 3)  # predict needs three degrees > order

    def read(kind: str) -> list[str]:
        if kind == "count":
            d = rng.randint(2, dmax)
            delta = rng.randint(0, min(deltamax, d * (d - 1) // 2))
            return ["count", "--d", str(d), "--delta", str(delta)]
        if kind == "table":
            return ["table", "--dmax", str(rng.randint(1, dmax)),
                    "--deltamax", str(rng.randint(0, deltamax))]
        if kind in ("nodepoly", "threshold"):
            return [kind, "--delta", str(rng.randint(1, fit_max))]
        dlist = sorted(rng.sample(range(order + 1, dmax + 1), 3))
        return ["predict", "--d", str(rng.randint(order + 1, 2 * dmax)),
                "--order", str(order), "--dlist", ",".join(map(str, dlist))]

    kinds = ("count", "table", "nodepoly", "threshold", "predict")
    stream = [("read", read(kinds[i % len(kinds)])) for i in range(reads)]
    stream += [("write", None)] * writes
    rng.shuffle(stream)
    degree = dmax
    out = []
    for kind, argv in stream:
        if kind == "write":
            degree += 1
            argv = ["count", "--d", str(degree), "--delta", str(1 + degree % 3)]
        out.append((kind, argv))
    return out


class WarmCli(Workload):
    """One closed-loop client calling severi.cli.main against a warm cache file.

    Set-up pre-fills a private cache file with ``table``; every pass starts
    from a fresh copy of it.  Each answer must equal, byte for byte, the
    answer of the same query under --no-cache, which ``prepare`` computes
    so that the measuring process never runs an uncached query.
    """

    PASS_S = 7.5

    def __init__(self, sev, seed: int, workdir: Path, dmax: int = 16, deltamax: int = 8,
                 reads: int = 15, writes: int = 5):
        self.sev = sev
        self.seed = seed
        self.dmax, self.deltamax = dmax, deltamax
        self.reads, self.writes = reads, writes
        self.prefilled = workdir / "prefilled.cache"
        self.answers_path = workdir / "answers.json"
        self.path = workdir / "severi.cache"
        self.answers: list[list[list]] = []

    def setup(self) -> None:
        argv = ["table", "--dmax", str(self.dmax), "--deltamax", str(self.deltamax),
                "--cache", str(self.prefilled)]
        code, out = run_cli(self.sev, argv)
        if code != 0:
            raise RuntimeError(f"pre-filling the cache failed with exit code {code}: {out}")

    def queries(self, p: int) -> list[tuple[str, list[str]]]:
        return cli_queries(self.seed, p, self.dmax, self.deltamax, self.reads, self.writes)

    def prepare(self, passes: int) -> None:
        """Write each pass's --no-cache answers, as [exit code, stdout] per query."""
        computed: dict[tuple[str, ...], tuple[int, str]] = {}  # writes recur in every pass

        def answer(argv: list[str]) -> tuple[int, str]:
            if tuple(argv) not in computed:
                computed[tuple(argv)] = run_cli(self.sev, argv + ["--no-cache"])
            return computed[tuple(argv)]

        answers = [[answer(argv) for _, argv in self.queries(p)] for p in range(passes)]
        self.answers_path.write_text(json.dumps(answers), encoding="utf-8")

    def load(self) -> None:
        self.answers = json.loads(self.answers_path.read_text(encoding="utf-8"))

    def ops(self, p: int) -> list[Op]:
        ops = []
        for (kind, argv), (code, expected) in zip(self.queries(p), self.answers[p], strict=True):
            def check(result, argv=argv, code=code, expected=expected) -> None:
                expect(code == 0, f"{argv} --no-cache exited with {code}")
                expect(result == (0, expected), f"{argv}: got {result}, expected {expected!r}")

            full = argv + ["--cache", str(self.path)]
            ops.append(Op(kind, lambda full=full: run_cli(self.sev, full), check))
        shutil.copyfile(self.prefilled, self.path)
        return ops

    def layer_extras(self) -> dict[str, float]:
        """Share of the persisted entries that are absolute counts N^{d,delta}."""
        store = self.sev.engine.cache_load(self.path)
        keys = [key for key, _ in store.items()]
        absolute = sum(1 for d, _, alpha, beta in keys if not alpha and beta == (d,))
        return {"engine.cache.absolute_share": absolute / len(keys)}


# -- series-kernel ------------------------------------------------------------

RANDOM_KINDS = ("exp_log", "log_exp", "inverse", "pow_add", "revert_compose", "compose_revert")
TAU = (1, -24, 252, -1472, 4830)  # Ramanujan tau(1..5): Delta = sum tau(n) q^n


def series_inputs(seed: int, p: int, order: int, per_kind: int, groups: int):
    """Pass p's inputs as plain data: random ops, then chi values for GYZ ops.

    Random series have small numerators and denominators in {1, 2, 3}; a
    series fed to log or pow_rat starts with 1, one fed to exp starts with
    0, one fed to revert starts with 0 and a nonzero linear term.
    """
    rng = random.Random(f"series-kernel/{seed}/{p}")

    def coeffs(n: int) -> list[Fraction]:
        return [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)]

    def exponent() -> Fraction:
        return Fraction(rng.choice((-5, -3, -1, 1, 3, 5)), rng.choice((2, 3)))

    randoms = []
    for kind in RANDOM_KINDS * per_kind:
        if kind in ("exp_log", "inverse"):
            args = ([Fraction(1)] + coeffs(order),)
        elif kind == "pow_add":
            args = ([Fraction(1)] + coeffs(order), exponent(), exponent())
        elif kind == "log_exp":
            args = ([Fraction(0)] + coeffs(order),)
        else:
            lead = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
            args = ([Fraction(0), lead] + coeffs(order - 1),)
        randoms.append((kind, args))
    rng.shuffle(randoms)
    # chi = (d^2 + 3d)/2 + 1 for plane degrees d, as in gyz_predict
    chis = [(d * d + 3 * d) // 2 + 1 for d in (rng.randint(8, 14) for _ in range(groups))]
    return randoms, chis


class SeriesKernel(Workload):
    """Exact RatSeries identities: random ones, then the GYZ pipeline's shapes.

    Each operation computes both sides of an identity and the check
    compares them with == on exact coefficients.
    """

    PASS_S = 6.0

    def __init__(self, sev, seed: int, workdir: Path, order: int = 30, gyz_order: int = 40,
                 per_kind: int = 15, groups: int = 6):
        self.sev = sev
        self.seed = seed
        self.order, self.gyz_order = order, gyz_order
        self.per_kind, self.groups = per_kind, groups

    def ops(self, p: int) -> list[Op]:
        RatSeries = self.sev.series.RatSeries
        randoms, chis = series_inputs(self.seed, p, self.order, self.per_kind, self.groups)
        ops = [Op(kind, self._random_run(RatSeries, kind, args), _same) for kind, args in randoms]

        n = self.gyz_order
        one, q = RatSeries.one(n), RatSeries.identity(n)
        st: dict[str, Any] = {}

        def catalog():
            st["cat"] = cat = self.sev.forms.form_catalog(n)
            return cat

        def check_catalog(cat) -> None:
            expect(cat.u.coeffs[1:] == cat.b3.coeffs[:n], "u != q.B3")
            expect(cat.delta_form.coeffs[1:6] == TAU, "Delta does not start with tau(1..5)")

        def u_revert():
            cat = st["cat"]
            st["u_inv"] = u_inv = cat.u.revert()
            return cat.u.compose(u_inv), q

        def b4_half():
            b4 = st["cat"].b4
            st["b4_half"] = h = b4.pow_rat(Fraction(-1, 2))
            return h * h * b4, one

        ops += [Op("catalog", catalog, check_catalog), Op("u_revert", u_revert, _same),
                Op("b4_half", b4_half, _same)]

        for chi in chis:
            def b3_pow(chi=chi):
                b3 = st["cat"].b3
                st[chi] = b3.pow_rat(chi)
                return st[chi], b3 ** chi

            def compose(chi=chi):
                cat = st["cat"]
                f = st[chi] * st["b4_half"]
                return f.compose(st["u_inv"]).compose(cat.u), f

            ops += [Op("b3_pow", b3_pow, _same), Op("compose", compose, _same)]
        return ops

    @staticmethod
    def _random_run(RatSeries, kind: str, args) -> Callable[[], tuple[Any, Any]]:
        f = RatSeries(args[0])
        n = f.order
        if kind == "exp_log":
            return lambda: (f.log().exp(), f)
        if kind == "log_exp":
            return lambda: (f.exp().log(), f)
        if kind == "inverse":
            return lambda: (f * f.inverse(), RatSeries.one(n))
        if kind == "pow_add":
            a, b = args[1], args[2]
            return lambda: (f.pow_rat(a) * f.pow_rat(b), f.pow_rat(a + b))
        if kind == "revert_compose":
            return lambda: (f.compose(f.revert()), RatSeries.identity(n))
        return lambda: (f.revert().compose(f), RatSeries.identity(n))


WORKLOADS = {
    "cold-threshold": ColdThreshold,
    "warm-cli": WarmCli,
    "series-kernel": SeriesKernel,
}

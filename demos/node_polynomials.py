"""Node polynomials T_delta(d) and where they start counting correctly.

For each delta there is a polynomial of degree 2*delta in d that equals
N^{d,delta} once d is large enough.  Below that threshold the
polynomial keeps producing values, they just count nothing: the fitted
T_3 gives 75 at d = 1, but a line has no three-nodal members.
"""

from __future__ import annotations

from severi import fit_node_polynomial, relative_severi, threshold_report
from severi.engine import low_degree, read_degrees


def poly_text(coeffs) -> str:
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        mono = "" if power == 0 else ("d" if power == 1 else f"d^{power}")
        terms.append(f"{'+' if c > 0 and terms else ''}{c}{mono and ' ' + mono}")
    return " ".join(terms) if terms else "0"


def main() -> None:
    print("Fitted node polynomials (exact rational coefficients):")
    for delta in range(5):
        p = fit_node_polynomial(delta)
        lo, hi = p.fit_range[0], p.fit_range[-1]
        print(f"  T_{delta}(d) = {poly_text(p.coeffs)}")
        read = read_degrees(delta)
        print(f"      fitted on d = {lo}..{hi} from the counts at d = {read[0]}..{read[-1]},"
              " checked against q(u)/u")

    print()
    print("The polynomial value vs the true count at small d, delta = 3:")
    p3 = fit_node_polynomial(3)
    for d in range(1, 7):
        actual = relative_severi(d, 3)
        mark = "" if p3(d) == actual else "   <-- polynomial overcounts"
        print(f"  d = {d}: T_3({d}) = {str(p3(d)):>6}, N^{{{d},3}} = {actual:>6}{mark}")

    print()
    print("Thresholds: least d* with T_delta(d) = N^{d,delta} for d >= d*:")
    for delta in range(1, 7):
        rep = threshold_report(delta)
        claim = ""
        if delta >= 3:
            claim = f" (= ceil(delta/2)+1 = {low_degree(delta)})"
        line = f"  delta = {delta}: threshold = {rep.threshold}{claim}"
        if rep.witness is not None:
            w = rep.witness
            line += f"; first failure at d = {w.d}: {w.predicted} vs {w.actual}"
        print(line)


if __name__ == "__main__":
    main()

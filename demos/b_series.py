"""Extract the universal series B1, B2 from plane data, then predict.

The product formula sum_delta N^{d,delta} u^delta =
B1^z B2^y B3^chi B4^(-nu/2) holds in the polynomial regime with plane
invariants (z, y) = (9, -3d).  With q(u)/u, the counts of one read at
two degrees, checked one degree outside them, pin down B1 and B2
exactly; the formula then predicts counts for a degree it never saw,
and every prediction must be an integer.
"""

from __future__ import annotations

from severi import (
    extract_b_series, form_catalog, gyz_predict, plane_invariants, relative_severi,
)
from severi.engine import read_degrees


def main() -> None:
    order = 6
    read = read_degrees(order)
    print(f"Extracting B1, B2 to order {order} from degrees {read[0]}..{read[-1]}...")
    sol = extract_b_series(order, range(7, 12))
    # logs[2] is twice the read's d^2 part composed with u
    b3 = form_catalog(order).b3.truncate(order)
    verb = "is" if sol.logs[2] == b3.log() else "is NOT"
    print(f"  consistent: the d^2 part of the plane log {verb} log(B3)/2")
    print(f"  integral:   {sol.integral}")
    print(f"  B1 = {', '.join(str(c) for c in sol.b1.coeffs)}, ...")
    print(f"  B2 = {', '.join(str(c) for c in sol.b2.coeffs)}, ...")

    print()
    print("Predicting degree 12, which the extraction never used:")
    predicted = gyz_predict(plane_invariants(12), sol)
    for delta in range(order + 1):
        actual = relative_severi(12, delta)
        status = "ok" if predicted[delta] == actual else "MISMATCH"
        print(f"  delta = {delta}: predicted {predicted[delta]:>16}, "
              f"recursion {actual:>16}  {status}")

    print()
    print("Below the polynomial threshold the formula answers a different")
    print("question: at d = 1 it returns the polynomial value, not a count.")
    predicted = gyz_predict(plane_invariants(1), sol, order=3)
    actual = [relative_severi(1, delta) for delta in range(4)]
    print(f"  formula at d = 1:  {predicted}")
    print(f"  true counts:       {actual}")


if __name__ == "__main__":
    main()

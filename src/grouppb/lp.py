"""Exact linear programming over rationals: primal simplex with Bland's rule.

Models are maximization problems with <= rows and every variable boxed to
[0, 1].  Box upper bounds become explicit rows, so the all-slack basis is
feasible from the start (all right-hand sides are non-negative) and no
phase-1 is needed.  Bland's pivoting rule guarantees termination, and exact
arithmetic means the reported vertex is a true basic solution: at most
(number of rows) variables sit strictly between their bounds.

The tableau is kept fraction-free.  Each stored row is a positive integer
multiple of the rational tableau row it stands for: a model row is scaled
once by the lcm of its denominators, a pivot replaces row_i by
row_i * p - row_i[e] * row_r (a positive multiple again, since p > 0), and
every updated row is divided by the gcd of its entries to keep the integers
small.  A row's multiplier is its entry in its basic column, where the
rational row holds 1, so a value is read out as rhs / basic entry.  The
reduced-cost row is kept on a positive multiple the same way.  Positive
scaling keeps every sign, and the ratio test compares rhs_i / a_i by
cross-multiplication, where the multipliers cancel; so every comparison
Bland's rule makes comes out as it would on the rational tableau, and the
pivots, the vertex and the iteration count are the same.

At the optimum the reduced-cost row's slack column of model row i holds that
row's dual value y_i, times the positive multiple the reduced-cost row is
kept on.  BasicSolution.duals is that slice divided by its gcd: the smallest
integer vector on the ray of y, the same whatever multiple the row ended on.
One common positive scale is all a surrogate constraint needs, since scaling
every multiplier by it scales both sides alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


@dataclass(frozen=True)
class LpRow:
    name: str
    coeffs: tuple[Fraction, ...]
    rhs: Fraction


@dataclass(frozen=True)
class LpModel:
    """max objective . x  subject to  rows (<=)  and  0 <= x <= 1."""

    var_names: tuple[str, ...]
    objective: tuple[Fraction, ...]
    rows: tuple[LpRow, ...]


@dataclass(frozen=True)
class BasicSolution:
    var_names: tuple[str, ...]
    values: tuple[Fraction, ...]
    objective: Fraction
    iterations: int
    duals: tuple[int, ...]  # one per model row, up to a common positive scale

    def fractional_vars(self) -> tuple[str, ...]:
        return tuple(
            name for name, v in zip(self.var_names, self.values) if 0 < v < 1
        )


def _integer_row(values) -> list[int]:
    """The rationals scaled by the lcm of their denominators."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _divided_by_gcd(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (an all-zero row stays)."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def simplex_solve(model: LpModel) -> BasicSolution:
    """Maximize over the box-and-rows polytope, exactly.

    Entering variable: the lowest-index negative reduced cost; leaving row:
    the ratio test with ties broken by the lowest basis variable index.  Both
    choices together are Bland's rule, so degenerate pivots cannot cycle.
    """
    n = len(model.var_names)
    m = len(model.rows)
    r = m + n

    # Tableau columns: n structural vars, r slacks, then the rhs.  Model row
    # i has slack n + i; box row i (x_i <= 1) has slack n + m + i.
    tableau = []
    for i, row in enumerate(model.rows):
        *coeffs, scale, rhs = _integer_row([*row.coeffs, Fraction(1), row.rhs])
        tableau.append(coeffs + [scale if j == i else 0 for j in range(r)] + [rhs])
    for i in range(n):
        line = [0] * (n + r + 1)
        line[i] = line[n + m + i] = line[-1] = 1
        tableau.append(line)
    reduced = [-c for c in _integer_row(model.objective)] + [0] * (r + 1)
    basis = [n + i for i in range(r)]

    iterations = 0
    while True:
        entering = next((j for j in range(n + r) if reduced[j] < 0), None)
        if entering is None:
            break
        pivot_row = None
        best_a = best_b = 0
        for i in range(r):
            a = tableau[i][entering]
            if a > 0:
                # b / a against best_b / best_a; both denominators are positive.
                b = tableau[i][-1]
                if pivot_row is None or b * best_a < best_b * a or (
                    b * best_a == best_b * a and basis[i] < basis[pivot_row]
                ):
                    pivot_row, best_a, best_b = i, a, b
        if pivot_row is None:
            raise ValueError("unbounded LP; the box constraints should prevent this")

        iterations += 1
        prow = tableau[pivot_row]
        pivot = prow[entering]
        nonzero = [(j, y) for j, y in enumerate(prow) if y]  # most of a row is zeros

        def eliminate(row: list[int], factor: int) -> list[int]:
            """row * pivot - factor * prow, divided by its gcd."""
            out = [x * pivot for x in row]
            for j, y in nonzero:
                out[j] -= factor * y
            return _divided_by_gcd(out)

        for i in range(r):
            factor = tableau[i][entering]
            if i != pivot_row and factor != 0:
                tableau[i] = eliminate(tableau[i], factor)
        factor = reduced[entering]
        if factor != 0:
            reduced = eliminate(reduced, factor)
        basis[pivot_row] = entering

    values = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            values[var] = Fraction(tableau[i][-1], tableau[i][var])
    objective = sum((c * v for c, v in zip(model.objective, values)), Fraction(0))
    return BasicSolution(
        var_names=model.var_names,
        values=tuple(values),
        objective=objective,
        iterations=iterations,
        duals=tuple(_divided_by_gcd(reduced[n : n + m])),
    )

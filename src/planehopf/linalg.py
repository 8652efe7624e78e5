"""Exact linear algebra over Fraction: Gaussian elimination."""

from __future__ import annotations

from fractions import Fraction


class SingularMatrix(ValueError):
    pass


def solve(matrix, rhs) -> list[Fraction]:
    """Solve A x = b exactly.  A is a list of rows; raises on a singular or
    inconsistent system.  Rectangular systems are accepted when the solution
    is unique."""
    m = [[Fraction(x) for x in row] + [Fraction(b)]
         for row, b in zip(matrix, rhs, strict=True)]
    nrows = len(m)
    ncols = len(matrix[0]) if nrows else 0
    row = 0
    pivots = []
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    if len(pivots) < ncols:
        raise SingularMatrix("system does not determine a unique solution")
    for r in range(row, nrows):
        if m[r][ncols]:
            raise SingularMatrix("inconsistent system")
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = m[r][ncols]
    return x

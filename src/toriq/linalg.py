"""Small exact linear algebra helpers over the rationals and the integers.

Everything here works on plain lists/tuples of ints or fractions.Fraction;
matrices are lists of rows.  Sizes are tiny (lattice rank <= 4 at the scales
this package targets), so clarity beats asymptotics.
"""

from fractions import Fraction
from math import gcd


def frac(x):
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def mat_vec(mat, vec):
    return tuple(sum(frac(a) * frac(b) for a, b in zip(row, vec)) for row in mat)


def determinant(mat):
    """Exact determinant via fraction Gaussian elimination."""
    n = len(mat)
    m = [[frac(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def invert(mat):
    """Exact inverse of a square rational matrix; raises on singular input."""
    n = len(mat)
    aug = [[frac(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def solve_square(mat, rhs):
    """Solve mat @ x = rhs for square mat; returns None when singular."""
    try:
        inv = invert(mat)
    except ValueError:
        return None
    return mat_vec(inv, rhs)


def kernel_basis(mat):
    """Basis of the rational kernel {x : mat @ x = 0} (mat rows = equations)."""
    if not mat:
        return []
    rows = [[frac(x) for x in row] for row in mat]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [a * inv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -rows[i][f]
        basis.append(tuple(vec))
    return basis


def primitive_vector(vec):
    """Scale a nonzero rational vector to a primitive integer vector."""
    fracs = [frac(x) for x in vec]
    if all(x == 0 for x in fracs):
        raise ValueError("zero vector has no primitive form")
    denom = 1
    for x in fracs:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def integer_diagonal_form(mat):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (diag, col_transform) with diag = S @ mat @ col_transform for some
    unimodular S, diag diagonal.  kernel(mat) over Z is spanned by the columns
    of col_transform at positions whose diagonal entry is zero (or beyond the
    diagonal).  No divisibility chain is enforced; ranks and unit pivots are
    still read off correctly.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [[int(x) for x in row] for row in mat]
    t = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in t:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, mult):
        a[dst] = [x + mult * y for x, y in zip(a[dst], a[src])]

    def add_col(dst, src, mult):
        for row in a:
            row[dst] += mult * row[src]
        for row in t:
            row[dst] += mult * row[src]

    k = 0
    while k < min(m, n):
        pivot = None
        for i in range(k, m):
            for j in range(k, n):
                if a[i][j] != 0:
                    if pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(k + 1, m):
                if a[i][k] != 0:
                    q = a[i][k] // a[k][k]
                    add_row(i, k, -q)
                    if a[i][k] != 0:
                        swap_rows(k, i)
                        dirty = True
            for j in range(k + 1, n):
                if a[k][j] != 0:
                    q = a[k][j] // a[k][k]
                    add_col(j, k, -q)
                    if a[k][j] != 0:
                        swap_cols(k, j)
                        dirty = True
        k += 1
    diag = [a[i][i] for i in range(min(m, n))]
    return diag, t


def lattice_map_is_surjective(mat):
    """Whether the integer matrix, as a map Z^cols -> Z^rows, is surjective."""
    m = len(mat)
    if m == 0:
        return True
    diag, _ = integer_diagonal_form(mat)
    nonzero = [d for d in diag if d != 0]
    return len(nonzero) == m and all(abs(d) == 1 for d in nonzero)


def integer_kernel_basis(mat):
    """Basis of the saturated integer kernel {x in Z^n : mat @ x = 0}."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [tuple(int(i == j) for i in range(n)) for j in range(n)]
    diag, t = integer_diagonal_form(mat)
    basis = []
    for j in range(n):
        if j >= len(diag) or diag[j] == 0:
            basis.append(tuple(t[i][j] for i in range(n)))
    return basis

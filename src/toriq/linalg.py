"""Small exact linear algebra helpers over the rationals and the integers.

Everything here works on plain lists/tuples of ints or fractions.Fraction;
matrices are lists of rows.  Sizes are tiny (lattice rank in the single
digits), so clarity beats asymptotics.

Facts about a single smooth cone (smoothness, characters vanishing on a face)
are read off its integral dual basis in ``fan``, not recomputed here.  What is
left serves the places with no cone to read from: ``invert`` builds the dual
bases, ``solve_square`` the polytope vertices, ``kernel_basis`` and
``primitive_vector`` the nef cone's extreme rays (the latter also the integer
gcd of ``forms``), ``int_or_frac`` the int-or-Fraction storage of classes and
forms, and ``lattice_map_is_surjective`` the epic check of an embedding.
"""

from fractions import Fraction
from math import gcd, lcm


def frac(x):
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def int_or_frac(x):
    """The exact value of ``x``: an int when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    f = frac(x)
    return f.numerator if f.denominator == 1 else f


def mat_vec(mat, vec):
    return tuple(sum(frac(a) * frac(b) for a, b in zip(row, vec)) for row in mat)


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
    """Scale a nonzero rational vector by a positive rational to a primitive
    integer vector."""
    denom = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (denom // x.denominator) for x in vec]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def integer_diagonal_form(mat):
    """Diagonal of S @ mat @ T for some unimodular S and T.

    No divisibility chain is enforced; ranks and unit pivots are still read
    off correctly.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [[int(x) for x in row] for row in mat]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, mult):
        a[dst] = [x + mult * y for x, y in zip(a[dst], a[src])]

    def add_col(dst, src, mult):
        for row in a:
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
    return [a[i][i] for i in range(min(m, n))]


def lattice_map_is_surjective(mat):
    """Whether the integer matrix, as a map Z^cols -> Z^rows, is surjective."""
    m = len(mat)
    if m == 0:
        return True
    nonzero = [d for d in integer_diagonal_form(mat) if d != 0]
    return len(nonzero) == m and all(abs(d) == 1 for d in nonzero)

"""Small exact linear algebra helpers over the rationals and the integers.

Everything here works on plain lists/tuples of ints or fractions.Fraction;
matrices are lists of rows.  Sizes are tiny (lattice rank in the single
digits), so clarity beats asymptotics.  Values are ``int`` where integral.

``invert``, ``solve_square``, ``kernel_basis`` and
``lattice_map_is_surjective`` share one fraction-free elimination on integer
rows.  ``invert`` builds the dual basis that starts each walk of ``fan``
over its facet graph, ``solve_square`` the vertices of a non-nef class's
polytope, ``kernel_basis`` and ``primitive_vector`` the nef cone's extreme
rays (the latter also the integer gcd of ``forms``),
``lattice_map_is_surjective`` the epic check of an embedding from the maximal
minors, and ``int_or_frac`` the int-or-Fraction storage of classes, forms and
embedding coefficients.  ``box_points`` enumerates the lattice points of a
polytope and of a truncated cone from their vertices' bounding box.
"""

from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, lcm


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


def _gauss_jordan(rows, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968), pivoting in the
    first ``ncols`` columns; each row is first scaled by the lcm of its
    denominators.  Returns the integer rows, the pivot columns and the common
    pivot d (the determinant up to sign): row i holds d at the i-th pivot
    column and 0 at the others, and the rows past the rank are 0 there."""
    a = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        a.append([x.numerator * (scale // x.denominator) for x in row])
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        pivot_row = a[r]
        d = pivot_row[c]
        for i, row in enumerate(a):
            if i != r:  # each entry is an integer minor, so the division is exact
                f = row[c]
                a[i] = [(d * x - f * y) // prev for x, y in zip(row, pivot_row)]
        pivots.append(c)
        prev = d
    return a, pivots, prev


def _divided(row, d):
    return [x // d if x % d == 0 else Fraction(x, d) for x in row]


def invert(mat):
    """Exact inverse of a square rational matrix; raises on singular input."""
    n = len(mat)
    rows, pivots, d = _gauss_jordan(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)], n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return [_divided(row[n:], d) for row in rows]


def solve_square(mat, rhs):
    """Solve mat @ x = rhs for square mat; returns None when singular."""
    n = len(mat)
    rows, pivots, d = _gauss_jordan([list(row) + [b] for row, b in zip(mat, rhs)], n)
    if len(pivots) < n:
        return None
    return tuple(_divided([row[n] for row in rows], d))


def kernel_basis(mat):
    """Basis of the rational kernel {x : mat @ x = 0} (mat rows = equations)."""
    if not mat:
        return []
    ncols = len(mat[0])
    rows, pivots, d = _gauss_jordan(mat, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = d
        for row, c in zip(rows, pivots):
            vec[c] = -row[f]
        basis.append(tuple(_divided(vec, d)))
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


def box_points(vertices, test):
    """The integer points of the vertices' bounding box that pass ``test``, in
    lexicographic order; no points for no vertices."""
    ranges = [range(ceil(min(xs)), floor(max(xs)) + 1) for xs in zip(*vertices)]
    return filter(test, product(*ranges)) if vertices else iter(())


def lattice_map_is_surjective(mat):
    """Whether the integer matrix, as a map Z^cols -> Z^rows, is surjective:
    whether its maximal minors, each the common pivot of the elimination on
    one set of columns, have gcd 1."""
    m = len(mat)
    if m == 0:
        return True
    if m > len(mat[0]):
        return False
    g = 0
    for cols in combinations(range(len(mat[0])), m):
        _, pivots, d = _gauss_jordan([[row[c] for c in cols] for row in mat], m)
        if len(pivots) == m:
            g = gcd(g, d)
            if g == 1:
                return True
    return False

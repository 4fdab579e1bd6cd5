"""Small exact linear algebra helpers over the integers and the rationals.

Matrices are lists of rows.  Sizes are tiny (lattice rank in the single
digits), so clarity beats asymptotics.

The lattice functions take integer matrices, as the lattices of a smooth fan
are integral.  ``invert``, ``solve_square``, ``kernel_basis`` and
``lattice_map_is_surjective`` share one fraction-free elimination.  ``invert``
builds the dual basis that starts each walk of ``fan`` over its facet graph,
``kernel_basis`` the nef cone's extreme rays, and
``lattice_map_is_surjective`` the epic check of an embedding from the maximal
minors.  ``solve_square`` has no library caller; it stays because perfbench's
traced runs wrap it by name.  ``lattice_points`` walks the integer points of
a bounded polyhedron, for every class search and section polytope.

``int_or_frac``, ``frac`` and ``primitive_vector`` serve the rational
coefficients of ``forms``, chart points and embedding coefficients: values are
``int`` where integral.  So ``primitive_vector`` reads an all-int vector, the
pseudo-remainders of ``forms``'s gcds, as it is, and clears denominators only
when a Fraction is present.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul


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
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of integer rows,
    pivoting in the first ``ncols`` columns.  Returns the rows, the pivot
    columns and the common pivot d (the determinant up to sign): row i holds d
    at the i-th pivot column and 0 at the others, and the rows past the rank
    are 0 there."""
    a = list(rows)
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


def invert(mat):
    """The integer inverse of a square unimodular integer matrix; raises
    ValueError on a singular or a non-unimodular one."""
    n = len(mat)
    rows, pivots, d = _gauss_jordan(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)], n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    if d * d != 1:
        raise ValueError("non-unimodular matrix has no integer inverse")
    return [[d * x for x in row[n:]] for row in rows]


def solve_square(mat, rhs):
    """Solve mat @ x = rhs for a square integer mat and integer rhs; returns
    None when singular, and int-or-Fraction entries."""
    n = len(mat)
    rows, pivots, d = _gauss_jordan([list(row) + [b] for row, b in zip(mat, rhs)], n)
    if len(pivots) < n:
        return None
    return tuple(Fraction(row[n], d) if row[n] % d else row[n] // d for row in rows)


def kernel_basis(mat, ncols):
    """Primitive integer vectors spanning the kernel {x : mat @ x = 0} of an
    integer matrix with ``ncols`` columns (rows = equations): one per free
    column, positive there and 0 at the other free columns.  With no rows it
    is the standard basis."""
    rows, pivots, d = _gauss_jordan(mat, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [0] * ncols
        vec[f] = d
        for row, c in zip(rows, pivots):
            vec[c] = -row[f]
        g = gcd(*vec) if d > 0 else -gcd(*vec)  # the sign of d makes vec[f] positive
        basis.append(tuple(x // g for x in vec))
    return basis


def primitive_vector(vec):
    """Scale a nonzero rational vector by a positive rational to a primitive
    integer vector; an all-int vector is read as it is."""
    ints = vec
    if any(type(x) is not int for x in vec):
        denom = lcm(*(x.denominator for x in vec))
        ints = [x.numerator * (denom // x.denominator) for x in vec]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def _tightened(rows):
    """The rows (a, b) of {x : <a, x> >= b}, each divided by its content with
    b rounded up, keeping the largest b per direction; None if one is 0 >= b > 0."""
    out = {}
    for a, b in rows:
        g = gcd(*a)
        if g > 1:
            a, b = tuple(x // g for x in a), -(-b // g)
        elif not g and b > 0:
            return None
        if out.get(a, b) <= b:
            out[a] = b
    return out.items()


def lattice_points(rows, rhs):
    """The integer points of the bounded polyhedron {x : <row, x> >= b}, in
    lexicographic order.  Fourier-Motzkin elimination (Schrijver, Theory of
    Linear and Integer Programming, §12.2) projects it onto each prefix of
    coordinates, tightened to keep its integer points; an integer point of
    one projection extends to the next by the integers between the rows'
    bounds on the next coordinate, so every point is reached, and no prefix
    off the projections is visited."""
    system = _tightened(zip(map(tuple, rows), rhs))
    levels = []
    for k in reversed(range(len(rows[0]) if rows else 0)):
        if system is None:
            return []
        lower = [(a[:k], a[k], b) for a, b in system if a[k] > 0]
        upper = [(a[:k], a[k], b) for a, b in system if a[k] < 0]
        levels.append((lower, upper))
        if k:  # the bounds on the first coordinate cross when its projection is empty
            system = _tightened([(a[:k], b) for a, b in system if a[k] == 0]
                                + [(tuple(d * y - c * x for x, y in zip(a, e)), d * f - c * b)
                                   for a, d, b in lower for e, c, f in upper])
    points = [] if system is None else [()]  # None only at dimension 0, with no level
    for lower, upper in reversed(levels):
        points = [p + (x,) for p in points for x in range(
            max(-((sum(map(mul, a, p)) - b) // c) for a, c, b in lower),
            min((b - sum(map(mul, a, p))) // c for a, c, b in upper) + 1)]
    return points


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

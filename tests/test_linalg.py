"""The integer elimination of ``linalg``, its surjectivity test, its box walk
and the cone-point vertices of ``polytope_lattice_points`` against the code
they replaced."""

import random
import re
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

import pytest

from toriq.classes import divisor_from_ray_coefficients, is_nef, nef_hilbert_basis
from toriq.embedding import polytope_lattice_points
from toriq.fan import product_fan, projective_space_fan
from toriq.linalg import (box_points, frac, invert, kernel_basis, lattice_map_is_surjective,
                          solve_square)


# Reference: rational Gauss-Jordan elimination, every entry a Fraction.

def mat_vec(mat, vec):
    return tuple(sum(frac(a) * frac(b) for a, b in zip(row, vec)) for row in mat)


def invert_oracle(mat):
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


def solve_square_oracle(mat, rhs):
    """Solve mat @ x = rhs for square mat; returns None when singular."""
    try:
        inv = invert_oracle(mat)
    except ValueError:
        return None
    return mat_vec(inv, rhs)


def kernel_basis_oracle(mat):
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


def polytope_lattice_points_oracle(fan, coeffs):
    """Lattice points of {m : <m, u_rho> >= -coeffs[rho]}, sorted, with the
    vertices found by solving every set of dim rays."""
    n = fan.dim
    rhs = [-frac(c) for c in coeffs]

    def inside(m):
        return all(p >= r for p, r in zip(fan.pairing(m), rhs))

    vertices = []
    for subset in combinations(range(fan.n_rays), n):
        sol = solve_square_oracle([fan.rays[i] for i in subset], [rhs[i] for i in subset])
        if sol is not None and inside(sol):
            vertices.append(sol)
    if not vertices:
        return []
    lo = [min(v[k] for v in vertices) for k in range(n)]
    hi = [max(v[k] for v in vertices) for k in range(n)]
    points = []
    for pt in product(*[range(int(l.__ceil__()), int(h.__floor__()) + 1)
                        for l, h in zip(lo, hi)]):
        if inside(pt):
            points.append(pt)
    return sorted(points)


def primitive_oracle(vec):
    """The primitive integer vector on the ray of a nonzero rational vector."""
    scale = lcm(*(x.denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    return tuple(x // gcd(*ints) for x in ints)


def assert_int_or_proper_fraction(values):
    for x in values:
        assert type(x) is int or (type(x) is Fraction and x.denominator != 1), repr(x)


def random_scalar(rng):
    return rng.randint(-3, 3) if rng.random() < 0.9 else rng.randint(-60, 60)


def random_matrix(rng, m, n):
    """An m x n integer matrix; in about half the cases a row is a multiple
    of another, a row is zero or two columns are equal."""
    mat = [[random_scalar(rng) for _ in range(n)] for _ in range(m)]
    shape = rng.randrange(6)
    if shape == 1 and m > 1:
        i, j = rng.sample(range(m), 2)
        k = random_scalar(rng)
        mat[i] = [k * x for x in mat[j]]
    elif shape == 2:
        mat[rng.randrange(m)] = [0] * n
    elif shape == 3 and n > 1:
        i, j = rng.sample(range(n), 2)
        for row in mat:
            row[i] = row[j]
    return mat


def random_unimodular(rng, n):
    """An n x n integer matrix of determinant +-1: a signed identity under
    random row additions, with its rows shuffled."""
    mat = [[rng.choice((1, -1)) * int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        k = rng.randint(-2, 2)
        mat[i] = [x + k * y for x, y in zip(mat[i], mat[j])]
    rng.shuffle(mat)
    return mat


def test_elimination_agrees_with_rational_oracle():
    """On integer matrices: ``invert`` is the oracle's inverse when that is
    integral and raises otherwise, ``solve_square`` is the oracle's solution,
    and ``kernel_basis`` is the oracle's kernel scaled to primitive vectors."""
    rng = random.Random("linalg")
    singular = non_unimodular = unimodular = rank_deficient = 0
    for _ in range(2000):
        n = rng.randint(1, 7)
        mat = random_unimodular(rng, n) if rng.random() < 0.25 else random_matrix(rng, n, n)
        try:
            expected = invert_oracle(mat)
        except ValueError:
            expected = None
        if expected is None:
            singular += 1
            with pytest.raises(ValueError, match="^singular matrix$"):
                invert(mat)
        elif any(x.denominator != 1 for row in expected for x in row):
            non_unimodular += 1
            with pytest.raises(ValueError, match="non-unimodular"):
                invert(mat)
        else:
            unimodular += 1
            got = invert(mat)
            assert got == expected
            assert all(type(x) is int for row in got for x in row)

        rhs = [random_scalar(rng) for _ in range(n)]
        got = solve_square(mat, rhs)
        assert got == (None if expected is None else mat_vec(expected, rhs))
        if got is not None:
            assert_int_or_proper_fraction(got)

        rect = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        got = kernel_basis(rect, len(rect[0]))
        assert got == [primitive_oracle(vec) for vec in kernel_basis_oracle(rect)]
        assert all(type(x) is int for vec in got for x in vec)
        rank_deficient += len(got) > max(0, len(rect[0]) - len(rect))
    assert 300 < singular < 1700 and rank_deficient > 300
    assert non_unimodular > 300 and unimodular > 300
    with pytest.raises(ValueError, match="non-unimodular"):
        invert([[2, 0], [0, 1]])
    assert kernel_basis([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


# Reference: surjectivity read off a diagonal form under unimodular row and
# column operations.

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


def lattice_map_is_surjective_oracle(mat):
    m = len(mat)
    if m == 0:
        return True
    nonzero = [d for d in integer_diagonal_form(mat) if d != 0]
    return len(nonzero) == m and all(abs(d) == 1 for d in nonzero)


def test_surjectivity_agrees_with_diagonal_form_oracle():
    assert lattice_map_is_surjective([[2, 3]])
    assert not lattice_map_is_surjective([[1, 0], [0, 2]])
    assert lattice_map_is_surjective([])
    rng = random.Random("surjective")
    verdicts = {True: 0, False: 0}
    tall = deficient = 0
    for _ in range(4000):
        m, n = rng.randint(1, 4), rng.randint(1, 7)
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.25:  # a row that is a multiple of another
            i, j = rng.sample(range(m), 2)
            k = rng.randint(-2, 2)
            mat[i] = [k * x for x in mat[j]]
        expected = lattice_map_is_surjective_oracle(mat)
        assert lattice_map_is_surjective(mat) == expected, mat
        verdicts[expected] += 1
        tall += m > n
        rank = m - len(kernel_basis([list(col) for col in zip(*mat)], m))
        deficient += rank < min(m, n)
    assert min(verdicts.values()) > 1500 and tall > 700 and deficient > 400


@pytest.fixture(scope="module")
def polytope_fans(p1, p2, p3, bl0p2, p1xp1, p2xp1, f2, hexagon):
    return [p1, p2, p3, bl0p2, p1xp1, p2xp1, f2, hexagon,
            product_fan([bl0p2, projective_space_fan(1)]),
            product_fan([f2, projective_space_fan(1)])]


def random_coefficients(rng, fan):
    """Ray coefficients of a nef class moved by a random character, or
    random small integers or rationals."""
    kind = rng.randrange(4)
    if kind == 0:
        coeffs = [0] * fan.n_rays
        for d in nef_hilbert_basis(fan):
            k = rng.randint(0, 2)
            coeffs = [c + k * a for c, a in zip(coeffs, d.ray_coefficients())]
        shift = fan.pairing([rng.randint(-2, 2) for _ in range(fan.dim)])
        return [c + s for c, s in zip(coeffs, shift)]
    if kind < 3:
        return [rng.randint(-2, 3) for _ in range(fan.n_rays)]
    return [Fraction(rng.randint(-4, 6), rng.randint(1, 3)) for _ in range(fan.n_rays)]


def test_polytope_points_agree_with_subset_oracle(polytope_fans):
    """On a nef lift the cone points are the vertices, and the points are the
    oracle's, which solves every set of dim rays for them; any other integral
    lift raises naming it not nef, and a rational one raises a TypeError."""
    rng = random.Random("polytope")
    nef = not_nef = rational = 0
    for i in range(1200):
        fan = polytope_fans[i % len(polytope_fans)]
        coeffs = random_coefficients(rng, fan)
        if any(type(c) is not int for c in coeffs):
            rational += 1
            with pytest.raises(TypeError):
                polytope_lattice_points(fan, coeffs)
        elif is_nef(divisor_from_ray_coefficients(fan, coeffs)):
            nef += 1
            got = polytope_lattice_points(fan, coeffs)
            assert got == polytope_lattice_points_oracle(fan, coeffs), (fan, coeffs)
            assert all(type(x) is int for pt in got for x in pt)
        else:
            not_nef += 1
            with pytest.raises(ValueError, match=f"^lift {re.escape(str(tuple(coeffs)))} is not nef"):
                polytope_lattice_points(fan, coeffs)
    assert nef > 250 and not_nef > 250 and rational > 250


def test_box_points_agree_with_product_oracle():
    """The box walk keeps, in order, the points of a fixed wide grid that lie
    between the vertices' least and greatest coordinates and pass the test."""
    rng = random.Random(2213)
    kept = 0
    for _ in range(60):
        dim = rng.randint(1, 3)
        vertices = [tuple(rng.randint(-8, 8) for _ in range(dim))
                    for _ in range(rng.randint(1, 4))]
        modulus = rng.randint(1, 3)

        def test(point):
            return sum(point) % modulus == 0

        lo = [min(xs) for xs in zip(*vertices)]
        hi = [max(xs) for xs in zip(*vertices)]
        expected = [p for p in product(range(-9, 10), repeat=dim)
                    if all(a <= x <= b for a, x, b in zip(lo, p, hi)) and test(p)]
        assert list(box_points(vertices, test)) == expected, vertices
        kept += len(expected)
    assert list(box_points([], lambda p: True)) == []
    assert kept >= 800

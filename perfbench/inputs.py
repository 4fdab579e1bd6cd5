"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of its ``random.Random`` (or seed), so the
same seed gives the same inputs on every commit.  Generation only calls
toriq's public functions and orders what it draws from by canonical data
(ray-indexed pairing vectors), so a change to toriq's internal enumeration
order does not change a workload.
"""

import random
from fractions import Fraction

from toriq.classes import effective_classes, length
from toriq.fan import Fan, product_fan, projective_space_fan
from toriq.forms import BinaryForm, Place, ProjPoint
from toriq.quasimap import (Quasimap, basepoints, extend_at, point_is_basepoint,
                            validate_quasimap)

def shapes():
    """The fan corpus, by name, in the order a fan_cold pass walks it."""
    p = projective_space_fan
    return {
        "p2": Fan(2, ((-1, -1), (1, 0), (0, 1)), ((0, 1), (0, 2), (1, 2))),
        "p1xp1": product_fan([p(1), p(1)]),
        "bl0p2": Fan(2, ((0, -1), (1, 0), (-1, 1), (0, 1)),
                     ((1, 3), (2, 3), (0, 2), (0, 1))),
        "f2": Fan(2, ((1, 0), (0, 1), (-1, 2), (0, -1)),
                  ((0, 1), (1, 2), (2, 3), (3, 0))),
        "p3": p(3),
        "p1xp2": product_fan([p(1), p(2)]),
        "p1^3": product_fan([p(1), p(1), p(1)]),
        "p2xp2": product_fan([p(2), p(2)]),
    }


# Invariants of each shape that no change of basis or relabelling can move:
# validity, Picard rank, primitive collection count, nef Hilbert basis size,
# Fano flag, sorted projective factor dimensions of the built target, and
# epicness of the built embedding.  test_smoke.py recomputes them from the
# un-relabelled shapes.
EXPECTED = {
    "p2": (True, 1, 1, 1, True, (2,), True),
    "p1xp1": (True, 2, 2, 2, True, (1, 1), True),
    "bl0p2": (True, 2, 2, 2, True, (1, 2), True),
    "f2": (True, 2, 2, 2, False, (1, 3), True),
    "p3": (True, 1, 1, 1, True, (3,), True),
    "p1xp2": (True, 2, 2, 2, True, (1, 2), True),
    "p1^3": (True, 3, 3, 3, True, (1, 1, 1), True),
    "p2xp2": (True, 2, 2, 2, True, (2, 2), True),
}


def factor_dims(target):
    """Sorted dimensions of the projective factors of a product target.

    Each factor's ray block ends with its -sum ray, the only ray of the block
    without a positive coordinate."""
    dims = []
    size = 0
    for ray in target.rays:
        size += 1
        if all(x <= 0 for x in ray):
            dims.append(size - 1)
            size = 0
    return tuple(sorted(dims))


def relabel(fan, rng):
    """The same fan in another lattice basis with rays and cones reordered.

    The basis change is a signed permutation followed by one elementary shear
    with coefficient +-1, so entries stay small and the cost of the fan's
    computations stays close to the original's."""
    n = fan.dim
    while True:
        basis = [[0] * n for _ in range(n)]
        for row, col in enumerate(rng.sample(range(n), n)):
            basis[row][col] = rng.choice((1, -1))
        if n > 1:
            i, j = rng.sample(range(n), 2)
            c = rng.choice((1, -1))
            basis[i] = [a + c * b for a, b in zip(basis[i], basis[j])]
        rays = [tuple(sum(b * x for b, x in zip(row, ray)) for row in basis)
                for ray in fan.rays]
        if set(rays) != set(fan.rays):
            break
    order = rng.sample(range(fan.n_rays), fan.n_rays)
    position = {old: new for new, old in enumerate(order)}
    cones = [tuple(position[i] for i in cone) for cone in fan.max_cones]
    rng.shuffle(cones)
    return Fan(n, tuple(rays[old] for old in order), tuple(cones))


def fan_corpus(seed, pass_index):
    """The relabelled corpus for one fan_cold pass, as (shape name, fan)."""
    rng = random.Random(f"fan_cold/{seed}/{pass_index}")
    return [(name, relabel(fan, rng)) for name, fan in shapes().items()]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _random_form(rng, degree, span=2):
    if degree < 0:
        return BinaryForm.zero(degree)
    coeffs = [Fraction(rng.randint(-span, span)) for _ in range(degree + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[rng.randrange(degree + 1)] = Fraction(rng.choice([1, -1, 2]))
    return BinaryForm(degree, tuple(coeffs))


class QuasimapSource:
    """Random stable one-component quasimaps to a fan, with rational basepoints.

    Follows the usual recipe: pick basepoint classes and a base class, build
    sections vanishing at the basepoints deeply enough to absorb the twists,
    twist, add two markings, and keep the result only when it validates and
    has exactly the intended basepoints."""

    def __init__(self, fan, rng):
        self.fan = fan
        self.rng = rng
        self._pools = {}

    def _effective(self, max_len, allow_zero=False):
        key = (max_len, allow_zero)
        if key not in self._pools:
            pool = [c for c in effective_classes(self.fan, max_len)
                    if allow_zero or not c.is_zero()]
            self._pools[key] = sorted(pool, key=lambda c: c.pairings)
        pool = self._pools[key]
        return self.rng.choice(pool) if pool else None

    def draw(self, max_total_length=6, attempts=120):
        for _ in range(attempts):
            q = self._attempt(max_total_length)
            if q is not None:
                return q
        raise RuntimeError("could not generate a stable quasimap")

    def _attempt(self, max_total_length):
        fan, rng = self.fan, self.rng
        n_bp = rng.randint(1, 2)
        bp_classes = []
        budget = max_total_length
        for _ in range(n_bp):
            beta = self._effective(max(budget - 1, 1))
            if beta is None:
                return None
            bp_classes.append(beta)
            budget -= length(beta)
        if budget < 0:
            return None
        gamma = self._effective(max(budget, 0), allow_zero=True)
        if gamma is None:
            return None
        bp_points = rng.sample([ProjPoint(1, z) for z in range(5)], n_bp)

        forms = []
        for rho in range(fan.n_rays):
            needed = [max(0, -b.pairings[rho]) for b in bp_classes]
            d = gamma.pairings[rho]
            if d < sum(needed):
                return None
            poly = (Fraction(1),)
            for point, m in zip(bp_points, needed):
                for _ in range(m):
                    poly = _poly_mul(poly, (-point.chart, Fraction(1)))
            filler = _random_form(rng, d - sum(needed))
            forms.append(BinaryForm.from_poly(d, _poly_mul(poly, filler.poly)))
        base = Quasimap(fan, (tuple(forms),))
        if validate_quasimap(base) or basepoints(base):
            return None
        q = base
        for point, beta in zip(bp_points, bp_classes):
            q = extend_at(q, 0, Place.of_point(point), -1 * beta)

        marks = []
        for z in range(5, 20):
            if len(marks) == 2:
                break
            mpoint = ProjPoint(1, z)
            if mpoint in bp_points or point_is_basepoint(q, 0, mpoint):
                continue
            marks.append((0, mpoint))
        if len(marks) < 2:
            return None
        q = Quasimap(fan, q.components, (), tuple(marks))
        if validate_quasimap(q):
            return None
        bps = basepoints(q)
        if len(bps) != n_bp or any(bp.place.rational_point() is None for bp in bps):
            return None
        return q

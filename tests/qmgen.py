"""Random generators for fans' quasimaps used across the test suite, the
reference chart evaluator that point comparisons are tested against, and the
oracles of the place arithmetic (division, gcds, vanishing orders, common
zeros).

Everything is driven by a seeded random.Random so failures reproduce; the
generators retry until the produced data passes validate_quasimap, which
keeps them honest about the invariants rather than constructing around them.
"""

from fractions import Fraction
from itertools import count
from math import prod

from toriq.basepoint import INF
from toriq.classes import effective_classes, length
from toriq.forms import (BinaryForm, Place, ProjPoint, _divide_out, _factor_poly,
                         _primitive_remainder, _quotient, _trim, poly_gcd, poly_mul)
from toriq.linalg import primitive_vector
from toriq.quasimap import (Quasimap, _orders_at, basepoints, extend_at, point_is_basepoint,
                            section_values, validate_quasimap)

# where random_quasimap may put a node end besides the integral points: off
# the integers, where Cox values are Fractions, and at infinity
NODE_POINTS = (ProjPoint(2, 1), ProjPoint(3, -2), ProjPoint.infinity())


class GiveUp(Exception):
    pass


def scaled(form, factor):
    """The form with every coefficient multiplied by ``factor``."""
    return BinaryForm(form.degree, tuple(factor * c for c in form.coeffs))


def with_components(q, components):
    """q with its components replaced, each given as an iterable of forms."""
    return Quasimap._unchecked(q.fan, tuple(map(tuple, components)), q.nodes, q.markings)


def orders_at(forms, place):
    """The scan's per-ray orders (``_orders_at``) of the forms at a place,
    read as the sections of one component."""
    return _orders_at(Quasimap._unchecked(None, (tuple(forms),), (), ()), 0, place)


def chart_point(fan, cone, values):
    """The point with the given Cox values in the chart of maximal cone
    ``cone``, which must hold their zero set, as ``(cone, coordinates)``: the
    coordinates are the dual basis characters prod v^e, as Fractions.  Charted
    in one cone, two tuples are one point of the target exactly when these
    pairs are equal."""
    rows = fan.exponent_matrix(fan.max_cones[cone])
    return cone, tuple(prod(Fraction(v) ** e for v, e in zip(values, exps) if e) for exps in rows)


def evaluate(q, comp, point):
    """The target point of a quasimap at a point of one component, charted in
    the first maximal cone that holds the zero set of its Cox values;
    ValueError at a basepoint, where no cone holds it."""
    values = section_values(q, comp, point)
    zero = {i for i, v in enumerate(values) if v == 0}
    cone = next((i for i, c in enumerate(q.fan.max_cones) if zero <= set(c)), None)
    if cone is None:
        raise ValueError(f"cannot evaluate at {point}: the point is a basepoint")
    return chart_point(q.fan, cone, values)


_POOLS = {}  # (fan, max_len, allow_zero) -> the classes a draw picks from


def _effective_pool(fan, max_len, allow_zero):
    key = (fan, max_len, allow_zero)
    pool = _POOLS.get(key)
    if pool is None:
        pool = _POOLS[key] = tuple(c for c in effective_classes(fan, max_len)
                                   if allow_zero or not c.is_zero())
    return pool


def random_effective_class(fan, rng, max_len, allow_zero=False, at_least=None):
    """A random effective class of length <= ``max_len``; with ``at_least``,
    one whose pairings are each at least the given ones."""
    pool = _effective_pool(fan, max_len, allow_zero)
    if at_least is not None:
        pool = [c for c in pool if all(d >= n for d, n in zip(c.pairings, at_least))]
    if not pool:
        raise GiveUp(f"no effective classes of length <= {max_len}")
    return rng.choice(pool)


def random_form(rng, degree, value=None, at=None, span=2):
    """Random form of the given degree; optionally forces f(at) = value."""
    if degree < 0:
        return BinaryForm.zero(degree)
    if value is None:
        coeffs = [Fraction(rng.randint(-span, span)) for _ in range(degree + 1)]
        if all(c == 0 for c in coeffs):
            coeffs[rng.randrange(degree + 1)] = Fraction(rng.choice([1, -1, 2]))
        return BinaryForm(degree, tuple(coeffs))
    value = Fraction(value)
    c = at.chart
    if degree == 0:
        return BinaryForm.constant(value)
    rest = [Fraction(rng.randint(-span, span)) for _ in range(degree)]
    if value == 0 and all(x == 0 for x in rest):
        rest[rng.randrange(degree)] = Fraction(1)
    if c is None:  # the value at infinity is the top coefficient
        return BinaryForm.from_poly(degree, tuple(rest) + (value,))
    # f = value + (z - c) * g
    poly = tuple([value]) if not rest else tuple(
        [value - c * rest[0]]
        + [rest[i] - c * rest[i + 1] for i in range(len(rest) - 1)]
        + [rest[-1]]
    )
    return BinaryForm.from_poly(degree, poly)


def _section_tuple(fan, rng, beta, prescribed=None, attempts=60):
    """Random per-ray sections of the given class; ``prescribed`` optionally
    fixes the value tuple at one point."""
    from toriq.fan import primitive_collections

    for _ in range(attempts):
        forms = []
        ok = True
        for rho in range(fan.n_rays):
            d = beta.pairings[rho]
            if prescribed is None:
                if d < 0:
                    forms.append(BinaryForm.zero(d))
                else:
                    forms.append(random_form(rng, d))
                continue
            point, values = prescribed
            if d < 0:
                if values[rho] != 0:
                    ok = False
                    break
                forms.append(BinaryForm.zero(d))
            else:
                forms.append(random_form(rng, d, value=values[rho], at=point))
        if not ok:
            continue
        vanishing = {i for i, f in enumerate(forms) if f.is_zero}
        if any(set(pc) <= vanishing for pc in primitive_collections(fan)):
            continue
        return tuple(forms)
    raise GiveUp("could not build a section tuple for the requested class")


def random_quasimap(fan, rng, max_components=3, max_total_length=8, markings=2,
                    attempts=80):
    """A random valid quasimap on a small tree; not necessarily stable."""
    for _ in range(attempts):
        try:
            k = rng.randint(1, max_components)
            budget = max_total_length
            classes = []
            for i in range(k):
                cap = max(budget - (k - 1 - i), 1)
                beta = random_effective_class(fan, rng, cap)
                classes.append(beta)
                budget -= length(beta)
                if budget < 0:
                    raise GiveUp("length budget exceeded")
            parents = [None] + [rng.randrange(i) for i in range(1, k)]
            fresh = count()

            comps = [None] * k
            comps[0] = _section_tuple(fan, rng, classes[0])
            node_specs = []
            used_points = {0: set()}
            q_partial = None
            for child in range(1, k):
                parent = parents[child]
                for _ in range(20):
                    ppoint = rng.choice(NODE_POINTS + (ProjPoint(1, next(fresh)),))
                    if ppoint not in used_points.get(parent, set()):
                        break
                parent_tuple = comps[parent]
                values = tuple(f.value_at(ppoint) for f in parent_tuple)
                zero = {i for i, v in enumerate(values) if v == 0}
                from toriq.fan import primitive_collections

                if any(set(pc) <= zero for pc in primitive_collections(fan)):
                    raise GiveUp("node lands on a basepoint of the parent")
                cpoint = rng.choice(NODE_POINTS + (ProjPoint(1, next(fresh)),))
                comps[child] = _section_tuple(fan, rng, classes[child],
                                              prescribed=(cpoint, values))
                used_points.setdefault(parent, set()).add(ppoint)
                used_points.setdefault(child, set()).add(cpoint)
                node_specs.append(((parent, ppoint), (child, cpoint)))

            marks = []
            for _ in range(markings):
                comp = rng.randrange(k)
                for _ in range(30):
                    mpoint = ProjPoint(1, next(fresh))
                    if mpoint in used_points.get(comp, set()):
                        continue
                    probe = Quasimap(fan, tuple(comps))
                    if point_is_basepoint(probe, comp, mpoint):
                        continue
                    used_points.setdefault(comp, set()).add(mpoint)
                    marks.append((comp, mpoint))
                    break
                else:
                    raise GiveUp("no room for a marking")

            q = Quasimap(fan, tuple(comps), tuple(node_specs), tuple(marks))
            if validate_quasimap(q):
                continue
            return q
        except GiveUp:
            continue
    raise GiveUp("random_quasimap ran out of attempts")


def random_stable_quasimap(fan, rng, max_total_length=6, attempts=120):
    """A stable quasimap on one component with rational basepoints only.

    The base class is drawn among all effective classes of the remaining
    length, and an attempt whose base class cannot absorb the basepoint
    classes is dropped.  When every attempt is dropped so, as on the hexagon,
    whose (-1)-curves pair -1 with a ray, a second round draws the base class
    among those that absorb them; on a fan where the first round succeeds,
    the seeded draws do not depend on the second."""
    for absorbing in (False, True):
        for _ in range(attempts):
            try:
                return _stable_attempt(fan, rng, max_total_length, absorbing)
            except GiveUp:
                continue
    raise GiveUp("random_stable_quasimap ran out of attempts")


def _stable_attempt(fan, rng, max_total_length, absorbing):
    n_bp = rng.randint(1, 2)
    bp_classes = []
    budget = max_total_length
    for _ in range(n_bp):
        beta = random_effective_class(fan, rng, max(budget - 1, 1))
        bp_classes.append(beta)
        budget -= length(beta)
    if budget < 0:
        raise GiveUp("length budget exceeded")
    absorbed = [sum(max(0, -b.pairings[rho]) for b in bp_classes) for rho in range(fan.n_rays)]
    gamma = random_effective_class(fan, rng, max(budget, 0), allow_zero=True,
                                   at_least=absorbed if absorbing else None)
    bp_points = rng.sample([ProjPoint(1, z) for z in range(5)], n_bp)

    # base map sections vanish at each basepoint enough to absorb the twist
    forms = []
    for rho in range(fan.n_rays):
        needed = [max(0, -b.pairings[rho]) for b in bp_classes]
        d = gamma.pairings[rho]
        if d < sum(needed):
            raise GiveUp("the base class does not absorb the basepoint classes")
        poly = (Fraction(1),)
        for point, m in zip(bp_points, needed):
            for _ in range(m):
                poly = poly_mul(poly, (-point.chart, Fraction(1)))
        free = d - sum(needed)
        filler = random_form(rng, free)
        forms.append(BinaryForm.from_poly(d, poly_mul(poly, filler.poly)))
    base = Quasimap(fan, (tuple(forms),))
    if validate_quasimap(base) or basepoints(base):
        raise GiveUp("the base map is invalid or has basepoints")
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
        raise GiveUp("no room for two markings")
    q = Quasimap(fan, q.components, (), tuple(marks))
    if validate_quasimap(q):
        raise GiveUp("the twisted quasimap is invalid")
    bps = basepoints(q)
    if len(bps) != n_bp or any(bp.place.rational_point() is None for bp in bps):
        raise GiveUp("the basepoints are not the intended rational ones")
    return q


def random_order_vector(fan, rng, max_order=4, inf_prob=0.25):
    """A random valid order vector (vanishing set contains no primitive collection)."""
    from toriq.basepoint import INF, OrderVector
    from toriq.fan import primitive_collections

    while True:
        orders = tuple(
            INF if rng.random() < inf_prob else rng.randint(0, max_order)
            for _ in range(fan.n_rays)
        )
        vanishing = {i for i, o in enumerate(orders) if o is INF}
        if any(set(pc) <= vanishing for pc in primitive_collections(fan)):
            continue
        return OrderVector(fan, orders)


# Oracles of the place arithmetic of ``forms``: its differential tests and the
# reference basepoint scan of test_quasimap check it against these.  Euclid
# over the rationals, as forms did it before its gcd ran over the integers.
def poly_divmod_oracle(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv = Fraction(1) / b[-1]
    while len(a) >= len(b) and any(x != 0 for x in a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        coef = a[-1] * inv
        q[shift] = coef
        for i, x in enumerate(b):
            a[shift + i] -= coef * x
        a.pop()
    return _trim(q), _trim(a)


def poly_gcd_oracle(a, b):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, poly_divmod_oracle(a, b)[1]
    if a:
        inv = Fraction(1) / a[-1]
        a = tuple(x * inv for x in a)
    return a


# The gcd as forms took it before its constant and linear fast paths: the
# primitive pseudo-remainder sequence on every pair.
def poly_gcd_prs_oracle(a, b):
    a, b = _trim(a), _trim(b)
    a = primitive_vector(a) if a else a
    b = primitive_vector(b) if b else b
    while b:
        a, b = b, _primitive_remainder(a, b)
    if a and a[-1] != 1:
        a = tuple(_quotient(x, a[-1]) for x in a)
    return a


# The vanishing order at a place as forms took it before division by a
# rational place went synthetic: repeated long division by the place
# polynomial.
def ord_at_oracle(form, place):
    if form.is_zero:
        return None
    if place.at_infinity:
        return form.degree - form.poly_degree
    count = 0
    rem = form.poly
    while True:
        q, r = poly_divmod_oracle(rem, place.coeffs)
        if r:
            return count
        count += 1
        rem = q


# The common zeros as forms took them before the scan's kernels were fused:
# the nonzero forms listed first, a gcd per form up to the first constant one,
# every place factored, and a second pass for infinity.
def common_zero_places_oracle(forms):
    nonzero = [f for f in forms if not f.is_zero]
    if not nonzero:
        raise ValueError("all forms vanish identically")
    g = None
    for f in nonzero:
        g = f.poly if g is None else poly_gcd(g, f.poly)
        if len(g) == 1:
            break
    places = []
    if g and len(g) > 1:
        _, factors = _factor_poly(g)
        places.extend(Place.finite(c) for c, _ in factors)
    if all(f.degree - f.poly_degree > 0 for f in nonzero):
        places.append(Place.infinity())
    return places


# The per-ray orders as the scan took them before its one-loop kernel: one
# vanishing order per form, dispatched on the place, INF for a zero form.
def orders_at_oracle(secs, place):
    out = []
    for f in secs:
        if f.is_zero:
            out.append(INF)
        elif place.at_infinity:
            out.append(f.degree - f.poly_degree)
        else:
            out.append(_divide_out(f.poly, place.coeffs)[1])
    return tuple(out)

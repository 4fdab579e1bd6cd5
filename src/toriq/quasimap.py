"""Quasimaps from trees of rational curves to a smooth complete toric target.

A quasimap is a tuple of exact binary forms per ray on each component, plus
nodes and markings.  Two quasimaps on one curve are equal exactly when each
component's section tuples differ by an element of the torus G that the target
is the quotient by, so equality needs no basepoint scan.  Points of the target
are compared as Cox values up to G, never charted: node ends, and ratios of
sections, are compared cross-multiplied, as products of powers with integer
exponents, so no value is inverted.  The public constructor normalises its
parts once; a quasimap rebuilt from a built one (``Quasimap._unchecked``)
reuses them.
"""

from operator import index

from .basepoint import INF, OrderVector, _locate_degree
from .classes import CurveClass
from .fan import (_cone_table, _degenerate_collections, _first_cone, _sorted_collections,
                  is_connected, require_valid)
from .forms import _divide_out, common_zero_places
from .record import Record


class Quasimap(Record):
    # components: per component, a tuple of BinaryForm, one per ray;
    # nodes: ((comp, ProjPoint), (comp, ProjPoint)) pairs; markings: (comp, ProjPoint) pairs
    _fields = ("fan", "components", "nodes", "markings")

    def __init__(self, fan, components, nodes=(), markings=()):
        self.__dict__.update(
            fan=fan,
            components=tuple(tuple(sec) for sec in components),
            nodes=tuple(((index(a), pa), (index(b), pb)) for (a, pa), (b, pb) in nodes),
            markings=tuple((index(c), p) for c, p in markings),
        )

    @property
    def n_components(self):
        return len(self.components)

    def sections(self, comp):
        return self.components[comp]

    def component_degree_vector(self, comp):
        return tuple(f.degree for f in self.components[comp])


class BasepointPlace(Record):
    _fields = ("component", "place", "orders", "degree")


def section_values(q, comp, point):
    return tuple(f.value_at(point) for f in q.sections(comp))


def _chart_cone(fan, values):
    """Index of the first maximal cone that holds the zero set of the Cox
    values, or None when there is none: the values are taken at a basepoint."""
    return _first_cone(fan, {i for i, v in enumerate(values) if v == 0})


def _cross_equal(rows, pairs):
    """Whether prod x^e = prod y^e over the (x, y) pairs for each row e,
    cross-multiplied; x and y are nonzero wherever e < 0."""
    for exps in rows:
        lhs = rhs = 1
        for (x, y), e in zip(pairs, exps):
            if e:
                a, b = (x, y) if e > 0 else (y, x)
                lhs *= a ** abs(e)
                rhs *= b ** abs(e)
        if lhs != rhs:
            return False
    return True


def _same_point(fan, idx, v, other_idx, w):
    """Whether two ends, each a cone index holding the zero set of its Cox
    values, are one point of the target: the cones agree and so do the chart
    coordinates there, compared cross-multiplied (zero values have exponent 0
    or 1 in that chart).  A ``None`` cone, a basepoint, is no point."""
    return idx is not None and idx == other_idx and \
        _cross_equal(_cone_table(fan)[idx][3], list(zip(v, w)))


def _zero_rays(secs):
    """The rays whose sections vanish identically."""
    return frozenset(i for i, f in enumerate(secs) if f.is_zero)


def _orders_at(q, comp, place):
    """Per-ray vanishing orders of one component at a place, INF for zero:
    read off the degrees at infinity, else counted by ``_divide_out``."""
    secs = q.sections(comp)
    if place.at_infinity:
        return tuple([f.degree - len(f.poly) + 1 if f.poly else INF for f in secs])
    coeffs = place.coeffs
    return tuple([_divide_out(f.poly, coeffs)[1] if f.poly else INF for f in secs])


def _absorbs(orders, beta):
    """Whether orders at a place (``_orders_at``) stay nonnegative when the
    sections are twisted there by ``beta``: each finite order plus its pairing."""
    return all(o is INF or o + d >= 0 for o, d in zip(orders, beta.pairings))


def _nondegenerate_zero_rays(q, comp):
    """The zero rays of one component; ValueError when they are degenerate."""
    zeros = _zero_rays(q.sections(comp))
    degenerate = zeros and _degenerate_collections(q.fan, zeros)  # none without zero rays
    if degenerate:
        raise ValueError(f"component {comp} vanishes on the primitive collection {degenerate[0]}")
    return zeros


def component_basepoints(q, comp):
    """Basepoint places of one component, sorted, with order vectors and degrees.

    Conjugate basepoints sharing an irreducible minimal polynomial over the
    rationals are reported as one place; degree bookkeeping weights them by
    the place degree.  The places are each primitive collection's common
    zeros; the records are unchecked, as a degenerate component raises first.
    """
    fan = q.fan
    zeros = _nondegenerate_zero_rays(q, comp)
    secs = q.sections(comp)
    places = set()
    for pc in _sorted_collections(fan):
        places.update(common_zero_places([secs[i] for i in pc]))
    if not places:
        return ()
    out = []
    for place in sorted(places, key=lambda p: p.sort_key()):
        vector = OrderVector._unchecked(fan, _orders_at(q, comp, place))
        beta, _ = _locate_degree(fan, vector.orders, zeros, first=True)
        out.append(BasepointPlace._unchecked(comp, place, vector, beta))
    return tuple(out)


def basepoints(q):
    """All basepoint places with their order vectors and degrees, sorted by
    component, then place: the per-component scans, concatenated."""
    return tuple(bp for comp in range(q.n_components)
                 for bp in component_basepoints(q, comp))


def point_is_basepoint(q, comp, point):
    return _chart_cone(q.fan, section_values(q, comp, point)) is None


def validate_quasimap(q):
    """Check all quasimap invariants; returns a list of violations."""
    fan = q.fan
    report = []
    try:
        require_valid(fan)
    except ValueError as exc:
        return [str(exc)]
    if q.n_components == 0:
        return ["a quasimap needs at least one component"]
    for comp, secs in enumerate(q.components):
        if len(secs) != fan.n_rays:
            report.append(f"component {comp} does not have one section per ray")
    if report:
        return report

    for comp in range(q.n_components):
        degs = q.component_degree_vector(comp)
        try:
            CurveClass(fan, degs)
        except ValueError:
            report.append(
                f"component {comp} degrees {degs} violate the ray relations"
            )
        for pc in _degenerate_collections(fan, _zero_rays(q.sections(comp))):
            report.append(
                f"component {comp} is degenerate: sections of the primitive "
                f"collection {pc} all vanish identically"
            )
    if report:
        return report

    # tree shape
    edges = [(a, b) for (a, _), (b, _) in q.nodes]
    for a, b in edges:
        if not (0 <= a < q.n_components and 0 <= b < q.n_components):
            return ["node references a missing component"]
        if a == b:
            return ["a node cannot join a component to itself"]
    if len(edges) != q.n_components - 1:
        report.append("the dual graph is not a tree (wrong node count)")
    elif not is_connected(q.n_components, edges):
        report.append("the dual graph is not connected")
    if report:
        return report

    special = {}
    for (a, pa), (b, pb) in q.nodes:
        special.setdefault(a, []).append(pa)
        special.setdefault(b, []).append(pb)
    for comp, point in q.markings:
        if not 0 <= comp < q.n_components:
            return ["marking references a missing component"]
        special.setdefault(comp, []).append(point)
    for comp, pts in special.items():
        if len(set(pts)) != len(pts):
            report.append(f"special points on component {comp} are not distinct")

    # one evaluation per special point: a marking needs only the cone test,
    # node ends are compared below in integers
    evaluated = []
    for comp, point in list(q.markings) + [e for n in q.nodes for e in n]:
        values = section_values(q, comp, point)
        cone = _chart_cone(fan, values)
        if cone is None:
            report.append(f"special point {point} on component {comp} is a basepoint")
        evaluated.append((cone, values))
    if report:
        return report

    ends = evaluated[len(q.markings):]
    for i, ((a, _), (b, _)) in enumerate(q.nodes):
        if not _same_point(fan, *ends[2 * i], *ends[2 * i + 1]):
            report.append(
                f"node between components {a} and {b} does not glue: the two "
                "branches evaluate to different points"
            )
    return report


def degrees(q):
    """Total and per-component curve classes of a valid quasimap, unchecked:
    ``validate_quasimap`` has checked each component's class."""
    per_comp = tuple(
        CurveClass._derived(q.fan, q.component_degree_vector(c)) for c in range(q.n_components)
    )
    total = per_comp[0]
    for beta in per_comp[1:]:
        total = total + beta
    return total, per_comp


def extend_at(q, comp, place, beta):
    """Twist one component at one place by minus the given class (local
    extension), shifting only the sections with a nonzero pairing."""
    new, secs = list(q.components), list(q.components[comp])
    for rho, d in enumerate(beta.pairings):
        if d:
            secs[rho] = secs[rho].shift(place, -d)
    new[comp] = tuple(secs)
    return Quasimap._unchecked(q.fan, tuple(new), q.nodes, q.markings)


def _twist_away(q, bps):
    """``q`` twisted at each of the given basepoint places by its degree."""
    out = q
    for bp in bps:
        out = extend_at(out, bp.component, bp.place, bp.degree)
    return out


def regular_extension(q):
    """The basepoint-free quasimap obtained by twisting away every basepoint."""
    return _twist_away(q, basepoints(q))


def special_point_count(q, comp):
    count = sum(1 for c, _ in q.markings if c == comp)
    for (a, _), (b, _) in q.nodes:
        count += (a == comp) + (b == comp)
    return count


def stability(q, mode="quasimap"):
    """Stability of the quasimap (all components rational, genus zero).

    In quasimap mode a component with fewer than two special points fails and
    one with exactly two needs nonzero degree.  In map mode the input must be
    basepoint-free and the stability is Kontsevich's: a component of class
    zero needs at least three special points.
    """
    _, per_comp = degrees(q)
    if mode == "quasimap":
        for comp in range(q.n_components):
            k = -2 + special_point_count(q, comp)
            if k < 0:
                return False
            if k == 0 and per_comp[comp].is_zero():
                return False
        return True
    if mode == "map":
        if basepoints(q):
            raise ValueError("map-mode stability needs a basepoint-free quasimap")
        return _map_stable(q, per_comp)
    raise ValueError(f"unknown stability mode {mode!r}")


def _map_stable(q, per_comp):
    """Kontsevich stability of a quasimap already known to be basepoint-free,
    with component classes ``per_comp``: every component has a nonzero class
    or at least three special points."""
    return all(not per_comp[comp].is_zero() or special_point_count(q, comp) >= 3
               for comp in range(q.n_components))


def _orthogonal_characters(fan, rays):
    """Pairing vectors of a basis of the characters vanishing on ``rays``.

    The dual basis of a maximal cone sigma containing ``rays`` is a basis of
    the character lattice, so its members m_k with sigma_k not in ``rays``
    span the characters vanishing on them: the rows of E_sigma at those k.
    """
    idx = _first_cone(fan, rays)
    if idx is None:
        raise ValueError(f"the rays {tuple(sorted(rays))} lie in no cone: "
                         "sections vanishing on all of them are degenerate")
    _, sigma, _, rows = _cone_table(fan)[idx]
    return [exps for ray, exps in zip(sigma, rows) if ray not in rays]


def same_morphism_sections(fan, first, second):
    """Whether two section tuples on one rational component are related by
    the torus G (the same morphism when they are basepoint-free).

    The tuples must have equal degrees and be proportional ray by ray, so they
    share their basepoints, with the ratios killed by every character
    orthogonal to the identically-vanishing rays.  A tuple whose vanishing
    rays lie in no cone is degenerate and raises ValueError.
    """
    zero1 = _zero_rays(first)
    zero2 = _zero_rays(second)
    if zero1 != zero2:
        return False
    characters = _orthogonal_characters(fan, zero1)
    ratios = []  # per ray, the ratio g/f as the pair (g_lead, f_lead)
    for rho, (f, g) in enumerate(zip(first, second)):
        if f.degree != g.degree:
            return False
        if rho in zero1:  # no character sees a zero ray
            ratios.append((1, 1))
            continue
        fp, gp = f.poly, g.poly
        if len(fp) != len(gp):
            return False
        u, v = gp[-1], fp[-1]
        if any(c * u != d * v for c, d in zip(fp, gp)):
            return False
        ratios.append((u, v))
    return _cross_equal(characters, ratios)


def _node_key(node):
    (a, pa), (b, pb) = node
    ka = (a, pa.sort_key())
    kb = (b, pb.sort_key())
    return (ka, kb) if ka <= kb else (kb, ka)


def same_curve(q1, q2):
    if q1.n_components != q2.n_components:
        return False
    if sorted(map(_node_key, q1.nodes)) != sorted(map(_node_key, q2.nodes)):
        return False
    return q1.markings == q2.markings


def equal_quasimaps(q1, q2):
    """Equality of quasimaps on a common curve: G-related section tuples on
    every component (``same_morphism_sections``).  A degenerate component
    raises ValueError, q1's before q2's."""
    if q1.fan != q2.fan:
        raise ValueError("quasimaps to different targets are incomparable")
    if not same_curve(q1, q2):
        raise ValueError("quasimaps on different curves are incomparable")
    for q in (q1, q2):
        for comp in range(q.n_components):
            _nondegenerate_zero_rays(q, comp)
    return all(same_morphism_sections(q1.fan, first, second)
               for first, second in zip(q1.components, q2.components))

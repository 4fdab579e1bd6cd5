"""Toric closed embeddings given by one monomial per target ray.

The data is the exponent multi-index and a nonzero rational coefficient for
each ray of the target fan.  The module computes the induced maps on divisor
and curve classes, decides epicness exactly, builds epic embeddings into
products of projective spaces from the nef Hilbert basis (valid, epic and
covering every chart by construction, so the builder checks none of it),
transports quasimaps along an embedding, and enumerates fibres of that
transport.

The chart-cover test below is the workhorse: a source chart is covered by a
target chart when the monomials away from the target cone are invertible on
the source chart and each source chart coordinate is the pullback of one
target chart character, found by lookup on its pairings with the source
cone's rays.  Covered charts make the embedding a closed immersion and let
us invert it on section data exactly.  The chart data is integral and free
of the coefficients: they act as a torus automorphism of the target, applied
by ``apply_ibar`` and divided out of each target section when a chart is
inverted.
"""

from fractions import Fraction
from functools import cache
from itertools import product
from operator import index

from .basepoint import INF, _cone_table, _locate_degree
from .classes import (CurveClass, ample_functional, anchor_rays,
                      divisor_from_ray_coefficients, effective_classes,
                      enumeration_degree, nef_hilbert_basis)
from .fan import (_cone_sets, dual_basis, memo, primitive_collections, product_fan,
                  projective_space_fan, remember, require_valid)
from .forms import BinaryForm, _quotient, poly_mul
from .linalg import box_points, int_or_frac, lattice_map_is_surjective
from .quasimap import (Quasimap, _absorbs, _first_cone, _orders_at, _twist_away, basepoints,
                       degrees, extend_at, same_morphism_sections, validate_quasimap)
from .record import Record


class EmbeddingSpec(Record):
    """Monomial lift data of a toric closed embedding: per target ray a
    coefficient and an exponent vector over the source rays."""

    _fields = ("source", "target", "coeffs", "exponents")

    def __init__(self, source, target, coeffs, exponents):
        self.__dict__.update(
            source=source, target=target, coeffs=tuple(map(int_or_frac, coeffs)),
            exponents=tuple(tuple(map(index, exp)) for exp in exponents))


@memo
def _fixed_point_zeros(emb):
    """Per source maximal cone, the target rays whose monomials vanish at its
    fixed point: those whose exponent vector meets the cone."""
    return tuple(frozenset(tau for tau, exp in enumerate(emb.exponents)
                           if any(exp[rho] for rho in cone))
                 for cone in emb.source.max_cones)


def _pull_back_character(emb, w):
    """Pull back the target character with pairings ``w`` against the target
    rays: its pairings against the source rays, as a tuple."""
    v = [0] * emb.source.n_rays
    for tau, w_tau in enumerate(w):
        if w_tau:
            for rho, e in enumerate(emb.exponents[tau]):
                v[rho] += w_tau * e
    return tuple(v)


def validate_embedding(emb):
    """Check the embedding data; returns the list of violations."""
    report = []
    try:
        require_valid(emb.source)
        require_valid(emb.target)
    except ValueError as exc:
        return [str(exc)]
    n_src = emb.source.n_rays
    if len(emb.coeffs) != emb.target.n_rays or len(emb.exponents) != emb.target.n_rays:
        return ["one coefficient and one exponent vector per target ray is required"]
    for tau, (c, exp) in enumerate(zip(emb.coeffs, emb.exponents)):
        if c == 0:
            report.append(f"coefficient of target ray {tau} vanishes")
        if len(exp) != n_src:
            report.append(f"exponent vector of target ray {tau} has the wrong length")
        elif any(e < 0 for e in exp):
            report.append(f"exponent vector of target ray {tau} has negative entries")
    if report:
        return report

    # degree compatibility: target characters must pull back to source
    # characters, that is to principal divisors sum v_rho D_rho (class zero);
    # checking the dual basis of one cone, a basis of them, suffices
    for w in emb.target.exponent_matrix(emb.target.max_cones[0]):
        if any(divisor_from_ray_coefficients(emb.source, _pull_back_character(emb, w)).coords):
            return ["degree data is incompatible: a target character does not pull "
                    "back to a source character"]

    # base-locus condition: at each source fixed point the vanishing monomials
    # lie in a target cone; the target primitive collections only name a failure
    bad = [(cone, zeros) for cone, zeros in zip(emb.source.max_cones, _fixed_point_zeros(emb))
           if _first_cone(emb.target, zeros) is None]
    for pc in primitive_collections(emb.target) if bad else ():
        cone = next((cone for cone, zeros in bad if pc <= zeros), None)
        if cone is not None:
            report.append(
                f"monomials of the target primitive collection {tuple(sorted(pc))} "
                f"have a common zero on the chart of source cone {cone}"
            )
    return report


@memo
def require_valid_embedding(emb):
    violations = validate_embedding(emb)
    if violations:
        raise ValueError("invalid embedding: " + "; ".join(violations))
    return emb


@memo
def pullback_matrix(emb):
    """Matrix of the pullback on divisor classes, target anchor basis to source."""
    require_valid_embedding(emb)
    cols = []
    for tau in anchor_rays(emb.target):
        d = pullback_pic(emb, tau)
        cols.append(d.coords)
    rank_src = len(anchor_rays(emb.source))
    return tuple(tuple(col[i] for col in cols) for i in range(rank_src))


def pullback_pic(emb, tau):
    """Pullback of the class of the target boundary divisor at ray ``tau``."""
    return divisor_from_ray_coefficients(emb.source, emb.exponents[tau])


def pushforward_curves(emb, beta):
    """Pushforward of a source curve class, by the projection formula.  It is a
    class by construction, since a valid embedding pulls target characters
    back to characters."""
    require_valid_embedding(emb)
    pairings = tuple(
        sum(e * d for e, d in zip(emb.exponents[tau], beta.pairings))
        for tau in range(emb.target.n_rays)
    )
    return CurveClass._derived(emb.target, pairings)


def epic_check(emb):
    """Whether the pullback is surjective on Picard lattices (equivalently the
    pushforward is injective on curve classes)."""
    return lattice_map_is_surjective([list(row) for row in pullback_matrix(emb)])


@memo
def chart_cover(emb):
    """Per source maximal cone, the target charts that cover it.

    Each entry carries the target cone index and one lift per ray of the
    source cone.  The lift of the chart coordinate dual to that ray is one
    target chart character (a row of the target cone's exponent matrix),
    given as its exponent vector over the target rays: the first whose
    pullback is that coordinate.  On the smooth source cone a character is
    fixed by its pairings with the cone's rays, and a sum of regular
    characters is a coordinate only when it has a single term, so the lift
    is found by lookup.  The monomial coefficients play no part.  Empty
    lists mean the chart test fails for that cone.
    """
    require_valid_embedding(emb)
    src, tgt = emb.source, emb.target
    coordinates = [tuple(int(j == k) for j in range(src.dim)) for k in range(src.dim)]
    cover = {}
    for si, (scone, zeros) in enumerate(zip(src.max_cones, _fixed_point_zeros(emb))):
        entries = []
        for ti, _, tcone_set, rows in _cone_table(tgt):
            # the monomials off the target cone must be units at the fixed point
            if not zeros <= tcone_set:
                continue
            # each target character pulls back to a source character, as
            # require_valid_embedding checked; its pairings with the cone's
            # rays are its coordinates in the cone's dual basis, and they are
            # nonnegative: the monomials off the target cone miss those rays
            found = {}
            for w in rows:
                v = _pull_back_character(emb, w)
                found.setdefault(tuple(v[i] for i in scone), w)
            lifts = tuple(found.get(e) for e in coordinates)
            if None not in lifts:
                entries.append({"target_cone": ti, "lifts": lifts})
        cover[si] = tuple(entries)
    return cover


def covers_all_charts(emb):
    return all(chart_cover(emb)[si] for si in range(len(emb.source.max_cones)))


def polytope_lattice_points(fan, coeffs):
    """Lattice points of {m : <m, u_rho> >= -coeffs[rho]}, sorted, for an
    integral lift on a valid smooth complete fan.  It is nef exactly when each
    cone point m_sigma lies in the polytope, and then the m_sigma are the
    vertices (Cox-Little-Schenck, Thm 6.1.7, Prop 6.1.10); else it raises."""
    n = fan.dim
    rhs = [-index(c) for c in coeffs]

    def inside(m):
        return all(p >= r for p, r in zip(fan.pairing(m), rhs))

    vertices = [tuple(sum(rhs[i] * m[k] for i, m in zip(sigma, basis)) for k in range(n))
                for sigma in fan.max_cones for basis in (dual_basis(fan, sigma),)]
    for sigma, m in zip(fan.max_cones, vertices):
        if not inside(m):
            raise ValueError(f"lift {tuple(coeffs)} is not nef: the cone point of {sigma} "
                             "lies outside its polytope")
    return list(box_points(vertices, inside))


def build_epic_embedding(fan):
    """Epic closed embedding into a product of projective spaces: per class D
    of the nef Hilbert basis, with lift d, one factor whose coordinates are
    the lattice points m of D's polytope, the monomial of exponents d + <m, u>.

    It is valid, epic and covers every chart by construction (Cox-Little-
    Schenck, ch. 6): the polytope's vertex at a cone sigma is m_sigma, its
    edge from there along the dual basis vector m_k has length D.C for the
    wall curve C opposite sigma_k, and a nonzero nef class has two or more
    lattice points.
    - Valid: each exponent is >= 0, and two of them differ by a character.
      At sigma's fixed point only y_{m_sigma} is nonzero in each factor, so
      the zero set lies in a target cone.
    - Covers every chart: the coordinate dual to sigma_k is y_{m_sigma+m_k} /
      y_{m_sigma} in any factor whose class meets C; the basis sums to
      ``ample_functional``, which meets every wall curve.
    - Epic: a factor's target divisors pull back to its class, and the basis
      generates Pic, because the nef cone is full-dimensional.
    Its verdict is stored here, and the target's tables (verdict, dual bases,
    primitive collections) by ``product_fan`` and ``projective_space_fan``.
    """
    require_valid(fan)
    ample_functional(fan)  # raises on non-projective input
    space = cache(projective_space_fan)  # one P^n per n, so each is validated once
    factors, coeffs, exponents = [], [], []
    for d in nef_hilbert_basis(fan):
        lift = d.ray_coefficients()
        points = polytope_lattice_points(fan, lift)
        factors.append(space(len(points) - 1))
        for m in points:
            exponents.append(tuple(c + p for c, p in zip(lift, fan.pairing(m))))
            coeffs.append(1)
    emb = EmbeddingSpec(fan, product_fan(factors), tuple(coeffs), tuple(exponents))
    remember(emb, f"{__name__}.require_valid_embedding", emb)
    return emb


def apply_ibar(emb, q):
    """Transport a quasimap along the embedding (same curve, monomial sections)."""
    require_valid_embedding(emb)
    if q.fan != emb.source:
        raise ValueError("quasimap target does not match the embedding source")
    new_components = []
    for comp in range(q.n_components):
        secs = q.sections(comp)
        out = []
        for tau in range(emb.target.n_rays):
            exp = emb.exponents[tau]
            degree = sum(e * f.degree for e, f in zip(exp, secs))
            if any(e > 0 and f.is_zero for e, f in zip(exp, secs)):
                out.append(BinaryForm.zero(degree))
                continue
            poly = (emb.coeffs[tau],)
            for e, f in zip(exp, secs):
                for _ in range(e):
                    poly = poly_mul(poly, f.poly)
            out.append(BinaryForm.from_poly(degree, poly))
        new_components.append(tuple(out))
    return Quasimap._unchecked(emb.target, tuple(new_components), q.nodes, q.markings)


def _factored_sections(emb, secs):
    """Per target ray, the unit and places of the section divided by its
    monomial coefficient, or None for a zero section."""
    out = []
    for c, f in zip(emb.coeffs, secs):
        if f.is_zero:
            out.append(None)
        else:
            u, places = f.factor()
            out.append((_quotient(u, c), places))
    return out


def _invert_component(emb, secs):
    """Source section tuple whose image is the given basepoint-free target
    tuple on one component, or None when no chart inversion applies."""
    src, tgt = emb.source, emb.target
    factored = _factored_sections(emb, secs)
    zeros = frozenset(tau for tau, fac in enumerate(factored) if fac is None)
    all_places = {p for fac in factored if fac for p in fac[1]}
    for si, scone in enumerate(src.max_cones):
        for entry in chart_cover(emb)[si]:
            # a target chart's coordinates carry a zero section to a negative
            # power exactly when that section's ray is off the chart's cone: a
            # ray off a cone of a simplicial fan pairs negatively with some
            # vector of the cone's dual basis, and a ray in it with none
            if not zeros <= _cone_sets(tgt)[entry["target_cone"]]:
                continue
            # unit and per-place orders of each source chart coordinate, read
            # off the target sections through its lift; a lift positive at a
            # zero section makes the coordinate vanish
            orders = {p: [0] * src.n_rays for p in all_places}
            units = [1] * src.n_rays
            vanishing = set()
            for rho, lift in zip(scone, entry["lifts"]):
                if any(lift[tau] > 0 for tau in zeros):
                    vanishing.add(rho)
                    continue
                for tau, e in enumerate(lift):
                    if e:
                        u, places = factored[tau]
                        units[rho] *= u ** e if e > 0 else Fraction(u) ** e
                        for p, mult in places.items():
                            orders[p][rho] += e * mult

            # the vanishing rays lie in the source cone, so they are not
            # degenerate and every place's orders have a witnessing cone
            shifts = []
            for vec in orders.values():
                for rho in vanishing:
                    vec[rho] = INF
                beta_p, _ = _locate_degree(src, tuple(vec), frozenset(vanishing), first=True)
                shifts.append(beta_p.pairings)

            # the orders less the shift are the c_k >= 0 of the witnessing cone
            sections = [None] * src.n_rays
            for rho in range(src.n_rays):
                if rho in vanishing:
                    continue
                poly = (1,)
                degree = 0
                for (p, vec), shift in zip(orders.items(), shifts):
                    e = vec[rho] - shift[rho]
                    degree += e * p.degree
                    if not p.at_infinity:
                        for _ in range(e):
                            poly = poly_mul(poly, p.coeffs)
                sections[rho] = BinaryForm.from_poly(degree, tuple(units[rho] * c for c in poly))

            # a zero section takes the degree its cone's relation forces; at the
            # cone's other rays it holds, as the lifts and the shifts are classes
            for rho, row in zip(scone, src.exponent_matrix(scone)):
                if rho in vanishing:
                    coord = sum(sections[r].degree * row[r] for r in range(src.n_rays)
                                if r not in vanishing)
                    sections[rho] = BinaryForm.zero(-coord)
            return tuple(sections)
    return None


def invert_through_charts(emb, extension):
    """The source quasimap through which the given valid basepoint-free
    quasimap factors, found by chart inversion; None when no chart applies or
    the candidate's image is another map.

    The image check certifies the rest.  The candidate has the extension's
    nodes and markings and its zero sections in a cone.  Its degrees are a
    class: the image's are, and a chart's lifts pull back to a basis of the
    characters.  If ``emb`` covers every source chart it is injective on
    points, so the nodes glue, and a candidate basepoint of degree beta != 0
    at a cone sigma would give the image one of degree iota_* beta != 0: a
    ray off sigma with beta_rho > 0 lies in a monomial off a target cone
    covering sigma, or the lifts would put it in sigma.  Other embeddings
    keep the full check.
    """
    comps = tuple(_invert_component(emb, secs) for secs in extension.components)
    if None in comps:
        return None
    candidate = Quasimap._unchecked(emb.source, comps, extension.nodes, extension.markings)
    if not covers_all_charts(emb) and (validate_quasimap(candidate) or basepoints(candidate)):
        return None
    pairs = zip(apply_ibar(emb, candidate).components, extension.components)
    return candidate if all(same_morphism_sections(emb.target, *p) for p in pairs) else None


def _quasimap_sort_key(q):
    return tuple(
        tuple((f.degree, f.coeffs) for f in q.sections(c)) for c in range(q.n_components)
    )


@memo
def fibre_class_pool(emb, cap):
    """The nonzero effective source classes of degree at most ``cap`` (see
    ``enumeration_degree``), grouped by the pairings of their pushforward, in
    enumeration order."""
    require_valid_embedding(emb)
    pool = {}
    for c in effective_classes(emb.source, cap):
        if not c.is_zero():
            pool.setdefault(pushforward_curves(emb, c).pairings, []).append(c)
    return {pairings: tuple(classes) for pairings, classes in pool.items()}


def fibre_enumeration(emb, q, beta, length_cap=None):
    """All source quasimaps of class ``beta`` mapping to ``q`` along the embedding.

    Works place by place: the regular extension must factor through the source
    (by chart inversion) as some f.  Each basepoint then keeps the pool classes
    with the right pushforward whose pairings, added to f's orders there, stay
    nonnegative; every assignment of kept classes with the right total is
    materialized by twisting f.  The pool holds the classes of degree at most
    ``length_cap``; by default that is beta's own degree, which no basepoint
    class exceeds, so a smaller cap may leave preimages out.
    """
    require_valid_embedding(emb)
    if q.fan != emb.target:
        raise ValueError("quasimap target does not match the embedding target")
    if pushforward_curves(emb, beta).pairings != degrees(q)[0].pairings:
        raise ValueError("the quasimap's degree is not the pushforward of the class")
    bps = basepoints(q)
    extension = _twist_away(q, bps)
    f = invert_through_charts(emb, extension)
    if f is None:
        return ()
    f_total, _ = degrees(f)

    cap = enumeration_degree(beta) if length_cap is None else length_cap
    pool = fibre_class_pool(emb, cap)

    per_place = []
    for bp in bps:
        orders = _orders_at(f, bp.component, bp.place)
        matches = [c for c in pool.get(bp.degree.pairings, ()) if _absorbs(orders, c)]
        if not matches:
            return ()
        per_place.append(matches)

    results = []
    for assignment in product(*per_place):
        total = f_total
        for bp, c in zip(bps, assignment):
            total = total + bp.place.degree * c
        if total.pairings != beta.pairings:
            continue
        out = f
        for bp, c in zip(bps, assignment):
            out = extend_at(out, bp.component, bp.place, -1 * c)
        results.append(out)
    results.sort(key=_quasimap_sort_key)
    return tuple(results)

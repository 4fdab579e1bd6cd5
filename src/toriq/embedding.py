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

Fibres invert the image itself, never its regular extension: a chart
coordinate is a character, which pairs to 0 with every curve class, so
twisting a basepoint away leaves it unchanged.  A section that a lift reads
has its basepoint places divided out to the scan's orders, and only the rest
is factored.  The inversion is certified on its chart, with no transport
back, against the extension's zero rays, degrees and free chart rows, all
read off the image (see ``invert_through_charts``).
"""

from fractions import Fraction
from itertools import product
from math import prod
from operator import index

from .basepoint import INF, _locate_degree
from .classes import (CurveClass, ample_functional, anchor_rays,
                      divisor_from_ray_coefficients, effective_classes,
                      enumeration_degree, nef_hilbert_basis)
from .fan import (_cone_sets, _cone_table, memo, primitive_collections,
                  product_fan, projective_space_fan, remember, require_valid)
from .forms import BinaryForm, Place, _divide_out, _factor_poly, _multiply_in, _quotient, poly_mul
from .linalg import int_or_frac, lattice_map_is_surjective, lattice_points
from .quasimap import (Quasimap, _absorbs, _zero_rays, basepoints, degrees, extend_at,
                       validate_quasimap)
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
    # lie in a target cone, that is they hold no target primitive collection
    fixed_points = list(zip(emb.source.max_cones, _fixed_point_zeros(emb)))
    for pc in primitive_collections(emb.target):
        cone = next((cone for cone, zeros in fixed_points if pc <= zeros), None)
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
    integral lift on a valid complete fan, whose rays make the polytope bounded."""
    return lattice_points(fan.rays, [-index(c) for c in coeffs])


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
    Its verdict is stored here, so a built embedding is never validated; its
    target computes its own tables on first use, like any fan.
    """
    require_valid(fan)
    ample_functional(fan)  # raises on non-projective input
    factors, coeffs, exponents = [], [], []
    for d in nef_hilbert_basis(fan):
        lift = d.ray_coefficients()
        points = polytope_lattice_points(fan, lift)
        factors.append(projective_space_fan(len(points) - 1))
        for m in points:
            exponents.append(tuple(c + p for c, p in zip(lift, fan.pairing(m))))
            coeffs.append(1)
    emb = EmbeddingSpec(fan, product_fan(factors), tuple(coeffs), tuple(exponents))
    remember(emb, f"{__name__}.require_valid_embedding", emb)
    return emb


@memo
def _sparse_exponents(emb):
    """Per target ray, the (source ray, exponent) pairs of its monomial with
    a positive exponent."""
    return tuple(tuple((rho, e) for rho, e in enumerate(exp) if e) for exp in emb.exponents)


def _power_product(c, factors):
    """The polynomial c * prod p^e over the (polynomial, exponent) pairs; a
    coefficient of 1 is not multiplied in."""
    poly = None if c == 1 else (c,)
    for p, e in factors:
        for _ in range(e):
            poly = p if poly is None else poly_mul(poly, p)
    return (1,) if poly is None else poly


def apply_ibar(emb, q):
    """Transport a quasimap along the embedding (same curve, monomial sections);
    a monomial that is one source ray with coefficient 1 passes its section."""
    require_valid_embedding(emb)
    if q.fan != emb.source:
        raise ValueError("quasimap target does not match the embedding source")
    table = _sparse_exponents(emb)
    new_components = []
    for secs in q.components:
        out = []
        for c, row in zip(emb.coeffs, table):
            if c == 1 and len(row) == 1 and row[0][1] == 1:
                out.append(secs[row[0][0]])
                continue
            degree = sum(e * secs[rho].degree for rho, e in row)
            if any(secs[rho].is_zero for rho, _ in row):
                out.append(BinaryForm.zero(degree))
            else:
                poly = _power_product(c, [(secs[rho].poly, e) for rho, e in row])
                out.append(BinaryForm.from_poly(degree, poly))
        new_components.append(tuple(out))
    return Quasimap._unchecked(emb.target, tuple(new_components), q.nodes, q.markings)


def _factored_section(f, c, tau, bps):
    """Unit over the monomial coefficient ``c`` and places of the nonzero
    section ``f`` of ray ``tau``: the finite places of the scan records
    ``bps`` divided out to the scan's orders, infinity's read off the degree
    and the rest factored."""
    poly, places = f.poly, {}
    for bp in bps:
        order = bp.orders.orders[tau]
        if order and not bp.place.at_infinity:
            poly = _divide_out(poly, bp.place.coeffs, order)[0]
            places[bp.place] = order
    if f.degree >= len(f.poly):
        places[Place.infinity()] = f.degree - len(f.poly) + 1
    unit, factors = _factor_poly(poly)
    for coeffs, mult in factors:
        places[Place.finite(coeffs)] = mult
    return _quotient(unit, c), places


@memo
def _chart(emb, zeros):
    """The chart that inverts a target section tuple with zero rays ``zeros``:
    the first source cone with a covering target chart whose cone holds
    ``zeros``, as (source cone, reads, vanishing rays, free rows), or None.
    A ray vanishes when its lift is positive at a zero ray; the reads pair
    each other ray with its lift's nonzero entries.  The free rows are the
    target cone's exponent rows that are not lifts and pair to 0 with
    ``zeros``, each with its pullback to the source rays and the numerator
    and denominator of c^row = prod c_tau^row_tau.

    A target chart's coordinates carry a zero section to a negative power
    exactly when that section's ray is off the chart's cone: a ray off a cone
    of a simplicial fan pairs negatively with some vector of the cone's dual
    basis, and a ray in it with none."""
    tgt = emb.target
    for si, scone in enumerate(emb.source.max_cones):
        for entry in chart_cover(emb)[si]:
            ti, lifts = entry["target_cone"], entry["lifts"]
            if zeros <= _cone_sets(tgt)[ti]:
                vanishing = frozenset(rho for rho, lift in zip(scone, lifts)
                                      if any(lift[tau] > 0 for tau in zeros))
                reads = tuple((rho, tuple((tau, e) for tau, e in enumerate(lift) if e))
                              for rho, lift in zip(scone, lifts) if rho not in vanishing)
                free = []
                for row in _cone_table(tgt)[ti][3]:
                    if row not in lifts and not any(row[tau] for tau in zeros):
                        scale = prod(Fraction(c) ** e for c, e in zip(emb.coeffs, row))
                        free.append((row, _pull_back_character(emb, row),
                                     scale.numerator, scale.denominator))
                return scone, reads, vanishing, tuple(free)
    return None


def _invert_component(emb, secs, bps):
    """Source section tuple whose image is the given target tuple twisted
    away at its scan records ``bps`` (basepoint-free with none), with its
    order vector at each place the inversion used, keyed by place; or None
    when no chart inversion applies."""
    src = emb.source
    chart = _chart(emb, _zero_rays(secs))
    if chart is None:
        return None
    scone, reads, vanishing, _ = chart
    # numerator, denominator and per-place orders of each source chart
    # coordinate, read off the target sections through its lift: a character,
    # so the twists of the scan records, by classes, leave it as it is
    factored = {}
    orders = {bp.place: [0] * src.n_rays for bp in bps}
    nums = [1] * src.n_rays
    dens = [1] * src.n_rays
    for rho, entries in reads:
        for tau, e in entries:
            if tau not in factored:
                factored[tau] = _factored_section(secs[tau], emb.coeffs[tau], tau, bps)
            u, places = factored[tau]
            n, d = (u.numerator, u.denominator) if e > 0 else (u.denominator, u.numerator)
            nums[rho] *= n ** abs(e)
            dens[rho] *= d ** abs(e)
            for p, mult in places.items():
                orders.setdefault(p, [0] * src.n_rays)[rho] += e * mult

    # the source cone holds the vanishing rays and every ray a lift reads, so
    # it witnesses class 0 at a place with no negative order; elsewhere the
    # orders less the shift are the c_k >= 0 of the witnessing cone
    for p, vec in orders.items():
        for rho in vanishing:
            vec[rho] = INF
        if min(vec) < 0:
            shift = _locate_degree(src, tuple(vec), vanishing, first=True)[0].pairings
            vec = [o - s for o, s in zip(vec, shift)]
        orders[p] = tuple(vec)

    sections = [None] * src.n_rays
    for rho in range(src.n_rays):
        if rho in vanishing:
            continue
        poly = (1,)
        degree = 0
        for p, vec in orders.items():
            e = vec[rho]
            if e:
                degree += e * p.degree
                if not p.at_infinity:
                    poly = _multiply_in(poly, p.coeffs, e)
        num, den = nums[rho], dens[rho]
        if (num, den) != (1, 1):
            poly = tuple(_quotient(num * c, den) for c in poly)
        sections[rho] = BinaryForm.from_poly(degree, poly)

    # a zero section takes the degree its cone's relation forces; at the
    # cone's other rays it holds, as the lifts and the shifts are classes
    for rho, row in zip(scone, src.exponent_matrix(scone)):
        if rho in vanishing:
            coord = sum(sections[r].degree * row[r] for r in range(src.n_rays)
                        if r not in vanishing)
            sections[rho] = BinaryForm.zero(-coord)
    return tuple(sections), orders


def _agrees_on_chart(emb, candidate, secs, bps):
    """Whether the image of a source tuple that ``_invert_component`` built
    from the target tuple ``secs`` and its scan records ``bps`` is G-related
    to ``secs`` twisted away at them, tested on the chart of the inversion:
    (i) the monomials that meet a zero candidate section are the zero
    sections, (ii) the degrees are those of ``secs`` less the sum of place
    degree times scan class, and (iii) each free row of the target cone that
    pairs to 0 with the zero rays agrees.  A free row compares prod_tau
    (c_tau x^e_tau)^row_tau with prod_tau secs_tau^row_tau, the left side as
    c^row times the candidate to the row's pullback, the negative powers
    moved across; by (i) the pullback pairs to 0 with the zero candidate
    sections, and both sides have one degree, so the dehomogenizations are
    compared, the left scaled by c^row's numerator and the right by its
    denominator."""
    for tau, (row, g) in enumerate(zip(_sparse_exponents(emb), secs)):
        if any(candidate[rho].is_zero for rho, _ in row) != g.is_zero:
            return False
        twist = sum(bp.place.degree * bp.degree.pairings[tau] for bp in bps)
        if sum(e * candidate[rho].degree for rho, e in row) != g.degree - twist:
            return False
    for row, pulled, num, den in _chart(emb, _zero_rays(secs))[3]:
        lhs = [(f.poly, e) for f, e in zip(candidate, pulled) if e > 0]
        lhs += [(g.poly, -e) for g, e in zip(secs, row) if e < 0]
        rhs = [(f.poly, -e) for f, e in zip(candidate, pulled) if e < 0]
        rhs += [(g.poly, e) for g, e in zip(secs, row) if e > 0]
        lhs, rhs = _power_product(1, lhs), _power_product(1, rhs)
        if len(lhs) != len(rhs) or any(a * num != b * den for a, b in zip(lhs, rhs)):
            return False
    return True


def invert_through_charts(emb, q, bps=()):
    """The source quasimap f through which the regular extension of the valid
    quasimap ``q`` factors, with f's order vectors by place per component
    (``_invert_component``); None when no chart applies or f's image is
    another map.  ``bps`` are ``q``'s scan records, none when it has no
    basepoints.

    A chart coordinate is a character, which pairs to 0 with every class, so
    twisting by a scan class leaves it as it is: ``q`` and its extension have
    the same chart coordinates, and f is read off ``q`` with no extension
    built.  f is basepoint-free by construction: at each place the shift
    leaves nonzero orders only on a witnessing cone, which holds the
    vanishing rays.  Its degrees are a class: the image's are, and a chart's
    lifts pull back to a basis of the characters.  So its image is
    basepoint-free, the embedding being valid, and ``_agrees_on_chart``
    certifies on each component that it is G-related to the extension:
    (i) the zero rays are ``q``'s, which are the extension's; (ii) the degrees
    are the extension's, ``q``'s less the sum of place degree times scan
    class; (iii) each free row agrees on ``q``'s polynomials: from the
    extension's to ``q``'s, both sides of its comparison gain one power of
    each basepoint place, as sum_tau row_tau d_tau = 0 for its class d.  By
    (i) the generic points of both lie in the orbit of the cone the zero rays
    span, inside the chart; the rows of its exponent matrix that pair to 0 with the zero rays
    are a basis of the orbit's characters, and the lifts among them agree by
    construction, so by (iii) the two are one morphism, and by (ii)
    G-related.  A basepoint of f of class beta != 0 would raise its image's
    degrees by iota_* beta != 0, which (ii) refuses.  An embedding covering
    every source chart is injective on points, so f's nodes glue; on other
    embeddings ``validate_quasimap`` checks f.
    """
    per_comp = [[bp for bp in bps if bp.component == comp] for comp in range(q.n_components)]
    found = [_invert_component(emb, secs, records)
             for secs, records in zip(q.components, per_comp)]
    if None in found:
        return None
    comps, orders = zip(*found)
    candidate = Quasimap._unchecked(emb.source, comps, q.nodes, q.markings)
    if not covers_all_charts(emb) and validate_quasimap(candidate):
        return None
    triples = zip(comps, q.components, per_comp)
    return (candidate, orders) if all(_agrees_on_chart(emb, *t) for t in triples) else None


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

    A quasimap is its regular extension and its basepoint degrees: the
    extension must factor as some f, which ``invert_through_charts`` reads
    off ``q`` and its scan records, with f's orders at each basepoint.  Each
    basepoint keeps the pool classes with its pushforward whose pairings,
    added to f's orders there, stay nonnegative; each assignment of kept
    classes that totals beta with f's degrees is materialized by twisting f.
    The pool holds the classes of degree at most ``length_cap``; by default
    beta's own degree, which no basepoint class exceeds, so a smaller cap may
    leave preimages out.
    """
    require_valid_embedding(emb)
    if q.fan != emb.target:
        raise ValueError("quasimap target does not match the embedding target")
    if pushforward_curves(emb, beta).pairings != degrees(q)[0].pairings:
        raise ValueError("the quasimap's degree is not the pushforward of the class")
    bps = basepoints(q)
    found = invert_through_charts(emb, q, bps)
    if found is None:
        return ()
    f, f_orders = found

    cap = enumeration_degree(beta) if length_cap is None else length_cap
    pool = fibre_class_pool(emb, cap)

    per_place = []
    for bp in bps:
        orders = f_orders[bp.component][bp.place]
        matches = [c for c in pool.get(bp.degree.pairings, ()) if _absorbs(orders, c)]
        if not matches:
            return ()
        per_place.append(matches)

    f_total = [sum(degs) for degs in zip(*([g.degree for g in secs] for secs in f.components))]
    results = []
    for assignment in product(*per_place):
        total = f_total
        for bp, c in zip(bps, assignment):
            total = [t + bp.place.degree * d for t, d in zip(total, c.pairings)]
        if total == list(beta.pairings):
            out = f
            for bp, c in zip(bps, assignment):
                out = extend_at(out, bp.component, bp.place, -1 * c)
            results.append(out)
    results.sort(key=_quasimap_sort_key)
    return tuple(results)

import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from toriq.basepoint import INF, OrderVector, degree_at_point, length_at_point
from toriq.classes import CurveClass, effective_classes, is_effective, wall_curve_classes
from toriq.contraction import StableMapTree, contract, surjectivity_witness
from toriq.embedding import apply_ibar, build_epic_embedding, fibre_enumeration
from toriq.fan import (is_connected, primitive_collections, product_fan,
                       projective_space_fan, require_valid)
from toriq.forms import BinaryForm, Place, ProjPoint, common_zero_places
from toriq.linalg import kernel_basis, primitive_vector
from toriq.quasimap import (BasepointPlace, Quasimap, _absorbs, _chart, _chart_cone,
                            _orders_at, _orthogonal_characters, _same_point, _twist_away,
                            basepoints, component_basepoints, degrees,
                            equal_quasimaps, evaluate, extend_at, regular_extension,
                            same_curve, same_morphism_sections, section_values, stability,
                            validate_quasimap)

from qmgen import random_quasimap, random_stable_quasimap


def F(deg, *coeffs):
    return BinaryForm.from_poly(deg, coeffs)


MARKS = ((0, ProjPoint(1, 1)), (0, ProjPoint(1, 2)))


@pytest.fixture
def section_line(p2):
    # sections (0, 0, x) on the projective plane: one basepoint at [0:1]
    return Quasimap(p2, ((BinaryForm.zero(1), BinaryForm.zero(1), F(1, 1)),),
                    markings=MARKS)


@pytest.fixture
def segre_pair(p1xp1):
    q1 = Quasimap(p1xp1, ((F(2, 1), F(2, 0, 1), F(2, 0, 1), F(2, 0, 0, 1)),),
                  markings=MARKS)
    q2 = Quasimap(p1xp1, ((F(2, 0, 1), F(2, 0, 0, 1), F(2, 1), F(2, 0, 1)),),
                  markings=MARKS)
    return q1, q2


def test_validate_section_line(section_line):
    assert validate_quasimap(section_line) == []
    assert len(basepoints(section_line)) == 1


def test_validate_rejects_degenerate(p2):
    bad = Quasimap(p2, ((BinaryForm.zero(1),) * 3,), markings=MARKS)
    assert any("degenerate" in v for v in validate_quasimap(bad))


def test_validate_rejects_marking_on_basepoint(p2):
    bad = Quasimap(p2, ((BinaryForm.zero(1), BinaryForm.zero(1), F(1, 1)),),
                   markings=((0, ProjPoint.infinity()), (0, ProjPoint(1, 2))))
    assert any("basepoint" in v for v in validate_quasimap(bad))


def test_validate_rejects_bad_degree_vector(p2):
    bad = Quasimap(p2, ((F(1, 1), F(0, 1), F(0, 1)),), markings=MARKS)
    assert any("ray relations" in v for v in validate_quasimap(bad))


def test_basepoints_section_line(section_line):
    bp, = basepoints(section_line)
    assert bp.place == Place.infinity()
    assert bp.degree.pairings == (1, 1, 1)
    assert length_at_point(section_line.fan, bp.orders) == 1


def test_basepoints_segre(segre_pair):
    q1, q2 = segre_pair
    places1 = {(b.place.at_infinity, b.degree.pairings) for b in basepoints(q1)}
    assert places1 == {(False, (0, 0, 1, 1)), (True, (1, 1, 0, 0))}
    places2 = {(b.place.at_infinity, b.degree.pairings) for b in basepoints(q2)}
    assert places2 == {(False, (1, 1, 0, 0)), (True, (0, 0, 1, 1))}


def test_basepoint_free_map_has_no_places(p2):
    q = Quasimap(p2, ((F(1, 1), F(1, 0, 1), F(1, 1, 1)),), markings=MARKS)
    assert basepoints(q) == ()


def test_regular_extension_examples(section_line, segre_pair):
    ext = regular_extension(section_line)
    assert degrees(ext)[0].pairings == (0, 0, 0)
    assert basepoints(ext) == ()
    # extension is the constant point [0:0:1]
    value = evaluate(ext, 0, ProjPoint(1, 5))
    assert value.cox == (0, 0, 1)

    q1, _ = segre_pair
    diag = regular_extension(q1)
    assert [f.poly for f in diag.sections(0)] == [(1,), (0, 1), (1,), (0, 1)]
    assert regular_extension(diag) == diag


def test_degrees(section_line, segre_pair):
    q1, _ = segre_pair
    assert degrees(q1)[0].pairings == (2, 2, 2, 2)
    assert degrees(section_line)[0].pairings == (1, 1, 1)
    constant = Quasimap(section_line.fan,
                        ((F(0, 1), F(0, 2), F(0, 3)),), markings=MARKS)
    assert degrees(constant)[0].pairings == (0, 0, 0)


def test_stability_modes(p2, bl0p2, section_line):
    assert stability(section_line, "quasimap")
    ext = regular_extension(section_line)
    assert not stability(ext, "map")
    line = Quasimap(p2, ((F(1, 1), F(1, 0, 1), F(1, 1, 1)),))
    assert stability(line, "map")  # no marks, but a nonzero class
    # the exceptional curve (0, 1, 1, -1), unmarked and of anticanonical degree
    # 1: Kontsevich-stable, as every component of nonzero class is
    exceptional = Quasimap(bl0p2, ((F(0, 1), F(1, 1), F(1, 0, 1), BinaryForm.zero(-1)),))
    assert basepoints(exceptional) == ()
    assert stability(exceptional, "map") is True
    assert StableMapTree(exceptional).quasimap == exceptional
    degree_zero = Quasimap(p2, ((F(0, 1), F(0, 2), F(0, 3)),), markings=MARKS)
    assert not stability(degree_zero, "quasimap")
    with pytest.raises(ValueError):
        stability(section_line, "map")


def test_evaluate(section_line, segre_pair, p2):
    assert evaluate(section_line, 0, ProjPoint(1, 1)).cox == (0, 0, 1)
    with pytest.raises(ValueError):
        evaluate(section_line, 0, ProjPoint.infinity())
    q1, _ = segre_pair
    point = evaluate(regular_extension(q1), 0, ProjPoint(1, 1))
    assert point.cox == (1, 1, 1, 1)


def test_evaluate_scale_invariance(p2):
    q = Quasimap(p2, ((F(1, 1), F(1, 0, 1), F(1, 1, 1)),), markings=MARKS)
    a = evaluate(q, 0, ProjPoint(1, 3))
    b = evaluate(q, 0, ProjPoint(2, 6))
    assert a == b


def test_equal_quasimaps(segre_pair):
    q1, q2 = segre_pair
    assert not equal_quasimaps(q1, q2)
    assert equal_quasimaps(q1, q1)
    scaled = Quasimap(q1.fan, (tuple(f.scale(3) for f in q1.sections(0)),),
                      markings=q1.markings)
    assert equal_quasimaps(q1, scaled)


def test_equal_quasimaps_incomparable(section_line, segre_pair):
    with pytest.raises(ValueError):
        equal_quasimaps(section_line, segre_pair[0])


def test_degree_decomposition_random(p2, bl0p2, p1xp1):
    rng = random.Random(101)
    for fan in (p2, bl0p2, p1xp1):
        for _ in range(25):
            q = random_quasimap(fan, rng)
            total, per_comp = degrees(q)
            assert all(is_effective(beta) for beta in per_comp)
            ext_total, _ = degrees(regular_extension(q))
            recovered = ext_total
            for bp in basepoints(q):
                recovered = recovered + bp.place.degree * bp.degree
            assert recovered.pairings == total.pairings
            for bp in basepoints(q):
                assert is_effective(bp.degree)
                beta, _ = degree_at_point(fan, bp.orders)
                assert beta.pairings == bp.degree.pairings


def test_extension_idempotent_random(bl0p2):
    rng = random.Random(55)
    for _ in range(15):
        q = random_quasimap(bl0p2, rng)
        ext = regular_extension(q)
        assert basepoints(ext) == ()
        assert regular_extension(ext) == ext


def test_node_gluing_invariant_random(p1xp1):
    rng = random.Random(77)
    for _ in range(15):
        q = random_quasimap(p1xp1, rng, max_components=3)
        for (a, pa), (b, pb) in q.nodes:
            assert evaluate(q, a, pa) == evaluate(q, b, pb)


# validate_quasimap as it was before it evaluated each special point once: a
# basepoint test per marking and node end on the zero set of the values, then
# both ends of every node evaluated again for the gluing check.  The oracle of
# the differential test below.
def validate_quasimap_oracle(q):
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
        vanishing = frozenset(i for i, f in enumerate(q.sections(comp)) if f.is_zero)
        for pc in primitive_collections(fan):
            if pc <= vanishing:
                report.append(
                    f"component {comp} is degenerate: sections of the primitive "
                    f"collection {tuple(sorted(pc))} all vanish identically"
                )
    if report:
        return report

    edges = [(a, b) for (a, _), (b, _) in q.nodes]
    for a, b in edges:
        if not (0 <= a < q.n_components and 0 <= b < q.n_components):
            report.append("node references a missing component")
            return report
        if a == b:
            report.append("a node cannot join a component to itself")
            return report
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
            report.append("marking references a missing component")
            return report
        special.setdefault(comp, []).append(point)
    for comp, pts in special.items():
        if len(set(pts)) != len(pts):
            report.append(f"special points on component {comp} are not distinct")

    for comp, point in list(q.markings) + [e for n in q.nodes for e in n]:
        zero = {i for i, v in enumerate(section_values(q, comp, point)) if v == 0}
        if not any(zero <= set(cone) for cone in fan.max_cones):
            report.append(f"special point {point} on component {comp} is a basepoint")
    if report:
        return report

    for (a, pa), (b, pb) in q.nodes:
        if evaluate(q, a, pa) != evaluate(q, b, pb):
            report.append(
                f"node between components {a} and {b} does not glue: the two "
                "branches evaluate to different points"
            )
    return report


def broken_variants(q, rng):
    """Copies of a valid quasimap with one invariant broken in each, as
    (label, quasimap) pairs, the label ending in a part of the violation it
    is meant to cause: the sections (count, degrees, a degenerate
    component), the dual graph (node count, connectedness, missing
    components, self-nodes) and the special points (duplicates, basepoints at
    markings and node ends, nodes that do not glue)."""
    fan, comps, nodes, marks = q.fan, list(q.components), list(q.nodes), list(q.markings)
    n = q.n_components

    def free_point(comp):
        used = {p for c, p in marks if c == comp}
        used |= {p for node in nodes for c, p in node if c == comp}
        return next(ProjPoint(1, z) for z in range(100, 200) if ProjPoint(1, z) not in used)

    def with_sections(comp, secs):
        return Quasimap(fan, comps[:comp] + [tuple(secs)] + comps[comp + 1:], nodes, marks)

    def with_nodes(new_nodes):
        return Quasimap(fan, comps, new_nodes, marks)

    def with_node(i, node):
        return with_nodes(nodes[:i] + [node] + nodes[i + 1:])

    def with_marking(marking):
        return Quasimap(fan, comps, nodes, marks + [marking])

    comp = rng.randrange(n)
    secs = comps[comp]
    yield "at least one component", Quasimap(fan, (), nodes, marks)
    yield "one section per ray", with_sections(comp, secs[:-1])
    rho = rng.randrange(fan.n_rays)
    f = secs[rho]
    bumped = (BinaryForm.zero(f.degree + 1) if f.is_zero
              else BinaryForm.from_poly(f.degree + 1, f.poly))
    yield "violate the ray relations", with_sections(comp, secs[:rho] + (bumped,) + secs[rho + 1:])
    pc = rng.choice(primitive_collections(fan))
    yield "is degenerate", with_sections(
        comp, [BinaryForm.zero(f.degree) if rho in pc else f for rho, f in enumerate(secs)])

    if nodes:
        yield "wrong node count", with_nodes(nodes[:-1])
        (a, pa), _ = nodes[0]
        yield "cannot join a component to itself", with_node(0, ((a, pa), (a, free_point(a))))
    extra = ((0, free_point(0)), (n - 1, free_point(n - 1)))
    yield "wrong node count", with_nodes(nodes + [extra])
    off_curve = ((0, free_point(0)), (n, ProjPoint(1, 0)))
    yield "node references a missing component", with_nodes(nodes + [off_curve])
    yield "marking references a missing component", with_marking((n, ProjPoint(1, 0)))
    if n >= 3:
        # as many nodes as a tree needs, all of them between components 0 and 1
        pairs = [((0, ProjPoint(1, 50 + i)), (1, ProjPoint(1, 70 + i))) for i in range(n - 1)]
        yield "is not connected", with_nodes(pairs)

    for i, ((a, pa), (b, pb)) in enumerate(nodes):
        yield "does not glue", with_node(i, ((a, pa), (b, free_point(b))))
        yield "are not distinct", with_marking((a, pa))
    if marks:
        yield "are not distinct", with_marking(marks[-1])
    for bp in basepoints(q):
        point = bp.place.rational_point()
        if point is None:
            continue
        yield "marking: is a basepoint", with_marking((bp.component, point))
        for i, ((a, pa), (b, pb)) in enumerate(nodes):
            if a == bp.component:
                yield "node end: is a basepoint", with_node(i, ((a, point), (b, pb)))
            if b == bp.component:
                yield "node end: is a basepoint", with_node(i, ((a, pa), (b, point)))


def noded_basepoint_trees(p2, p1xp1, bl0p2):
    """Three trees whose middle component has a rational basepoint at z = 0
    and two nodes, at z = 1 and z = 2, to constant leaves there, so that
    moving either node end onto the basepoint breaks validation."""
    def tree(fan, secs):
        leaves = [tuple(BinaryForm.constant(v) for v in section_values(
            Quasimap(fan, (secs,)), 0, ProjPoint(1, z))) for z in (1, 2)]
        nodes = [((0, ProjPoint(1, z)), (z, ProjPoint(1, 0))) for z in (1, 2)]
        return Quasimap(fan, (secs, *leaves), nodes, [(1, ProjPoint(1, 1))])

    return [
        tree(p2, (F(2, 0, 1), F(2, 0, 0, 1), F(2, 0, 1, 1))),
        tree(p1xp1, (F(1, 0, 1), F(1, 0, 2), F(1, 1), F(1, 1, 1))),
        tree(bl0p2, (F(1, 1, 1), F(1, 0, 1), F(1, 0, 3), F(0, 1))),
    ]


def test_validation_matches_the_two_pass_oracle(p1, p2, p3, bl0p2, p1xp1, p2xp1, f2, hexagon):
    """Seeded stable quasimaps over every fan, their witnesses, random trees
    over every fan, fixed trees with a basepoint on a noded component, and
    broken copies of all of them: the same violations in the same order as
    the oracle."""
    rng = random.Random(1601)
    inputs = []
    for fan in (p1, p2, p3, bl0p2, p1xp1, p2xp1, f2, hexagon):
        for _ in range(6):
            q = random_stable_quasimap(fan, rng, max_total_length=5)
            inputs.append(q)
            if fan is not f2:
                inputs.append(surjectivity_witness(q).quasimap)
            inputs.append(random_quasimap(fan, rng, max_total_length=6))
    for q in noded_basepoint_trees(p2, p1xp1, bl0p2):
        noded = {c for node in q.nodes for c, _ in node}
        assert [(bp.component, bp.place) for bp in basepoints(q)] == [(0, Place.rational(0))]
        assert 0 in noded
        inputs.append(q)
    hits = {}
    for q in inputs:
        assert validate_quasimap(q) == validate_quasimap_oracle(q) == []
        for label, bad in broken_variants(q, rng):
            expected = validate_quasimap_oracle(bad)
            assert validate_quasimap(bad) == expected
            part = label.split(": ")[-1]
            hits[label] = hits.get(label, 0) + any(part in v for v in expected)
    assert len(hits) == 13 and min(hits.values()) >= 5, hits


def test_same_morphism_needs_the_character_condition(p2):
    f0, f1, f2 = F(1, 1), F(1, 0, 1), F(1, 1, 1)
    zero = BinaryForm.zero(1)

    def same(first, second):
        return same_morphism_sections(p2, first, second)

    # ray by ray proportional, but the ratios (1, 2, 1) are no torus element
    assert not same((f0, f1.scale(2), f2), (f0, f1, f2))
    assert same((f0.scale(2), f1.scale(2), f2.scale(2)), (f0, f1, f2))
    # with ray 0 identically zero only the character pairing (0, 1, -1) is left
    assert same((zero, f1.scale(3), f2.scale(3)), (zero, f1, f2))
    assert not same((zero, f1.scale(3), f2), (zero, f1, f2))
    with pytest.raises(ValueError, match=r"\(0, 1, 2\)"):
        same((zero,) * 3, (zero,) * 3)


def test_orthogonal_characters_of_every_face(p1, p2, p3, bl0p2, p1xp1, p2xp1, f2, hexagon):
    fans = [p1, p2, p3, bl0p2, p1xp1, p2xp1, f2, hexagon,
            product_fan([projective_space_fan(2), projective_space_fan(3)])]
    for fan in fans:
        for cone in fan.max_cones:
            for size in range(len(cone) + 1):
                for face in map(frozenset, combinations(cone, size)):
                    rows = _orthogonal_characters(fan, face)
                    assert len(rows) == fan.dim - len(face)
                    assert all(row[rho] == 0 for row in rows for rho in face)


def _reference_component_basepoints(q, comp):
    """The basepoint scan of one component, each degree read off public
    ``degree_at_point`` (which tries every maximal cone)."""
    secs = q.sections(comp)
    places = set()
    for pc in primitive_collections(q.fan):
        places.update(common_zero_places([secs[i] for i in sorted(pc)]))
    out = []
    for place in sorted(places, key=lambda p: p.sort_key()):
        orders = OrderVector(q.fan, tuple(INF if o is None else o
                                          for o in (f.ord_at(place) for f in secs)))
        beta, _ = degree_at_point(q.fan, orders)
        out.append(BasepointPlace(comp, place, orders, beta))
    return tuple(out)


def test_component_basepoints_match_a_full_witness_scan(p2, p1xp1, bl0p2, p2xp1, hexagon):
    """200 seeded quasimaps: stable ones with rational basepoints, and random
    trees whose places may have degree two or more."""
    rng = random.Random(1405)
    fans = (p2, p1xp1, bl0p2, p2xp1, hexagon)
    found = 0
    for i in range(200):
        fan = fans[i % len(fans)]
        if i % 2:
            q = random_quasimap(fan, rng, max_total_length=6)
        else:
            q = random_stable_quasimap(fan, rng, max_total_length=6)
        for comp in range(q.n_components):
            expected = _reference_component_basepoints(q, comp)
            assert component_basepoints(q, comp) == expected
            found += len(expected)
    assert found >= 100


def _outcome(fn, *args):
    """The result, or the ValueError's message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# same_morphism_sections as it was before it compared cross-multiplied: a
# Fraction ratio per ray, raised to each character's exponents.  The oracle
# of the differential test below.
def same_morphism_sections_oracle(fan, first, second):
    zero1 = frozenset(i for i, f in enumerate(first) if f.is_zero)
    zero2 = frozenset(i for i, f in enumerate(second) if f.is_zero)
    if zero1 != zero2:
        return False
    characters = _orthogonal_characters(fan, zero1)
    ratios = {}
    for rho, (f, g) in enumerate(zip(first, second)):
        if rho in zero1:
            if f.degree != g.degree:
                return False
            continue
        if f.degree != g.degree:
            return False
        fp, gp = f.poly, g.poly
        if len(fp) != len(gp):
            return False
        lam = Fraction(gp[-1], fp[-1])
        if tuple(lam * c for c in fp) != gp:
            return False
        ratios[rho] = lam
    for exps in characters:
        result = Fraction(1)
        for rho, lam in ratios.items():
            e = exps[rho]
            if e:
                result *= lam ** e
        if result != 1:
            return False
    return True


def morphism_pairs(fan, rng, count):
    """Seeded section-tuple pairs on ``fan``: the second is the first rescaled
    by an element of the torus G that the target is the quotient by (s acts on
    ray rho by the product of s_r^a_r,rho over the relations a_r among the
    rays), by per-ray scalars that are mostly not in G, or with one
    coefficient, one degree or one zero set changed.  Coefficients are ints
    and Fractions of either sign; zero sections lie on a face of a maximal
    cone, or now and then contain a primitive collection."""
    scalars = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(4))

    def form(degree):
        coeffs = [rng.choice((0, 0, 1, -1, 3, -5, Fraction(1, 3), Fraction(-7, 2)))
                  for _ in range(degree + 1)]
        coeffs[rng.randrange(degree + 1)] = rng.choice(scalars)
        return BinaryForm(degree, coeffs)

    relations = [primitive_vector(r) for r in kernel_basis([list(col) for col in zip(*fan.rays)], fan.n_rays)]
    pairs = []
    while len(pairs) < count:
        if rng.random() < 0.03:
            zero = set(rng.choice(primitive_collections(fan)))
        else:
            cone = rng.choice(fan.max_cones)
            zero = set(rng.sample(cone, rng.randint(0, len(cone))))
        first = tuple(BinaryForm.zero(d) if rho in zero else form(d)
                      for rho, d in enumerate(rng.randint(0, 3) for _ in fan.rays))
        kind = len(pairs) % 4
        if kind == 0:
            s = [Fraction(rng.choice(scalars)) for _ in relations]
            factors = [prod(x ** r[rho] for x, r in zip(s, relations)) for rho in range(fan.n_rays)]
        else:
            factors = [rng.choice(scalars) for _ in fan.rays]
        second = [f.scale(c) for f, c in zip(first, factors)]
        rho = rng.randrange(fan.n_rays)
        f = second[rho]
        if kind == 2:
            if f.is_zero:
                second[rho] = form(f.degree)
            elif rng.random() < 0.2:
                second[rho] = f.scale(0)
            else:
                k = rng.randrange(f.degree + 1)
                second[rho] = BinaryForm(f.degree, f.coeffs[:k] + (f.coeffs[k] + 1,)
                                         + f.coeffs[k + 1:])
        elif kind == 3:
            second[rho] = (BinaryForm.zero(f.degree + 1) if f.is_zero
                           else BinaryForm.from_poly(f.degree + 1, f.poly))
        pairs.append((first, tuple(second), kind))
    return pairs


def test_cross_multiplied_morphism_check_agrees_with_the_ratio_oracle(
        p1, p2, p3, bl0p2, p1xp1, p2xp1, f2, hexagon):
    rng = random.Random(1503)
    tally = {}
    for fan in (p1, p2, p3, bl0p2, p1xp1, p2xp1, f2, hexagon):
        assert any(e < 0 for cone in fan.max_cones for row in fan.exponent_matrix(cone)
                   for e in row)
        for first, second, kind in morphism_pairs(fan, rng, 160):
            expected = _outcome(same_morphism_sections_oracle, fan, first, second)
            assert _outcome(same_morphism_sections, fan, first, second) == expected
            tally[kind, expected] = tally.get((kind, expected), 0) + 1
    # rescalings by G are the same morphism; most per-ray rescalings are not
    assert tally.get((0, False), 0) == 0 and tally[0, True] > 250
    assert tally[1, True] > 50 and tally[1, False] > 150
    assert tally[2, False] > 250 and tally[3, False] > 250
    assert sum(n for (_, outcome), n in tally.items() if type(outcome) is str) > 20


# equal_quasimaps as it was before it compared section tuples by the torus
# action: the theorem that a quasimap is determined by its regular extension
# and its degree at each basepoint, used as the algorithm, with the
# extensions compared by the ratio oracle above.  The oracle of the
# differential test below.
def equal_quasimaps_oracle(q1, q2):
    if q1.fan != q2.fan:
        raise ValueError("quasimaps to different targets are incomparable")
    if not same_curve(q1, q2):
        raise ValueError("quasimaps on different curves are incomparable")
    bp1 = basepoints(q1)
    bp2 = basepoints(q2)
    if len(bp1) != len(bp2):
        return False
    for a, b in zip(bp1, bp2):
        if a.component != b.component or a.place != b.place:
            return False
        if a.degree.pairings != b.degree.pairings:
            return False
    r1 = _twist_away(q1, bp1)
    r2 = _twist_away(q2, bp2)
    return all(same_morphism_sections_oracle(q1.fan, r1.sections(c), r2.sections(c))
               for c in range(q1.n_components))


def _scaled(q, factors):
    """q with each component's sections scaled ray by ray by its factor tuple."""
    return q.with_components([tuple(f.scale(c) for f, c in zip(secs, comp_factors))
                              for secs, comp_factors in zip(q.components, factors)])


def _retwisted(q, bp, place, beta):
    """q with the basepoint ``bp`` twisted away and a basepoint of class
    ``beta`` twisted in at ``place`` instead, or None when the sections there
    do not absorb ``beta``."""
    extension = extend_at(q, bp.component, bp.place, bp.degree)
    if not _absorbs(_orders_at(extension, bp.component, place), beta):
        return None
    return extend_at(extension, bp.component, place, -1 * beta)


def equality_pairs(fan, rng, bases):
    """Seeded quasimap pairs on a common curve, from stable quasimaps and
    random trees: the second is a torus rescaling of the first (by the
    relations among the rays, on every component), a per-ray rescaling of one
    component, a rescaling with one coefficient changed, or shares the first's
    regular extension while one basepoint moves to another place or takes
    another class (and, rescaled, the same one); a quasimap without
    basepoints gets one first.  Every fourth pair has a component of one or
    both quasimaps vanish on a primitive collection, and says so."""
    scalars = (-1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))
    relations = [primitive_vector(r) for r in kernel_basis([list(col) for col in zip(*fan.rays)], fan.n_rays)]
    places = [Place.rational(z) for z in (-2, -1, Fraction(1, 2), 3, 7)]
    places += [Place.infinity(), Place.finite((1, 0, 1)), Place.finite((-2, 0, 1))]
    classes = [c for c in effective_classes(fan, 6) if not c.is_zero()]

    def torus(q):
        return _scaled(q, [[prod(x ** r[rho] for x, r in zip(s, relations))
                            for rho in range(fan.n_rays)]
                           for s in ([Fraction(rng.choice(scalars)) for _ in relations]
                                     for _ in q.components)])

    def per_ray(q):
        factors = [[1] * fan.n_rays for _ in q.components]
        factors[rng.randrange(q.n_components)] = [rng.choice(scalars) for _ in fan.rays]
        return _scaled(q, factors)

    def changed_coefficient(q):
        comps = [list(secs) for secs in torus(q).components]
        comp, rho = rng.randrange(q.n_components), rng.randrange(fan.n_rays)
        f = comps[comp][rho]
        if f.degree >= 0:
            k = rng.randrange(f.degree + 1)
            comps[comp][rho] = BinaryForm(f.degree, f.coeffs[:k] + (f.coeffs[k] + 1,)
                                          + f.coeffs[k + 1:])
        return q.with_components(comps)

    def degenerate(q):
        comps = [list(secs) for secs in q.components]
        comp = rng.randrange(q.n_components)
        for rho in rng.choice(primitive_collections(fan)):
            comps[comp][rho] = BinaryForm.zero(comps[comp][rho].degree)
        return q.with_components(comps)

    def with_basepoint(q):
        for _ in range(40):
            comp, place, beta = rng.randrange(q.n_components), rng.choice(places), rng.choice(classes)
            if _absorbs(_orders_at(q, comp, place), beta):
                return extend_at(q, comp, place, -1 * beta)
        return q

    pairs = []
    for i in range(bases):
        q = (random_stable_quasimap if i % 2 else random_quasimap)(fan, rng, max_total_length=6)
        bps = basepoints(q)
        if not bps:
            q = with_basepoint(q)
            bps = basepoints(q)
        seconds = [torus(q), per_ray(q), changed_coefficient(q)]
        if bps:
            bp = rng.choice(bps)
            same = _retwisted(q, bp, bp.place, bp.degree)
            moved = [_retwisted(q, bp, place, bp.degree) for place in places
                     if place != bp.place]
            changed = [_retwisted(q, bp, bp.place, c) for c in classes
                       if c.pairings != bp.degree.pairings]
            seconds.append(torus(same))
            for options in (moved, changed):
                options = [other for other in options if other is not None]
                if options:
                    seconds.append(rng.choice(options))
        for j, second in enumerate(seconds):
            first, broken = q, (i + j) % 4 == 0
            if broken:
                which = rng.randrange(3)
                first = degenerate(q) if which != 1 else q
                second = degenerate(second) if which != 0 else second
            pairs.append((first, second, broken))
    return pairs


def test_equality_is_determined_by_extension_and_degrees(
        p1, p2, p3, bl0p2, p1xp1, p2xp1, f2, hexagon):
    """Comparing section tuples by the torus action agrees with comparing
    regular extensions, basepoint places and the degrees there, on every
    conftest fan; each outcome, a degenerate input's ValueError included,
    occurs at least 20 times per fan."""
    rng = random.Random(1901)
    for fan in (p1, p2, p3, bl0p2, p1xp1, p2xp1, f2, hexagon):
        tally = {True: 0, False: 0, "raises": 0}
        for first, second, degenerate in equality_pairs(fan, rng, 24):
            expected = _outcome(equal_quasimaps_oracle, first, second)
            assert _outcome(equal_quasimaps, first, second) == expected
            assert not degenerate or type(expected) is str
            tally[expected if type(expected) is bool else "raises"] += 1
        assert min(tally.values()) >= 20, (fan, tally)


def test_requests_leave_no_memo_on_their_inputs(p2, p1xp1, bl0p2):
    """A reused input must not carry state from one request to the next: after
    a witness, a fibre and an analyze request, the quasimap and its forms hold
    their fields only (and each form its ``poly``)."""
    rng = random.Random(1505)
    for fan in (p2, p1xp1, bl0p2):
        emb = build_epic_embedding(fan)
        for _ in range(4):
            q = random_stable_quasimap(fan, rng, max_total_length=6)
            witness = surjectivity_witness(q)
            assert equal_quasimaps(contract(witness), q)
            fibre = fibre_enumeration(emb, apply_ibar(emb, q), degrees(q)[0])
            assert any(equal_quasimaps(element, q) for element in fibre)
            assert basepoints(q) and stability(q) is True
            assert not basepoints(regular_extension(q))
            assert set(q.__dict__) == set(Quasimap._fields)
            for sections in q.components:
                for form in sections:
                    assert set(form.__dict__) == {"degree", "coeffs", "poly"}


def test_same_point_agrees_with_the_chart_oracle(p2, p3, p1xp1, hexagon, f2):
    """Seeded Cox value tuples with zeros, negative and Fraction values: the
    integer same-point test on two (cone, values) ends agrees with equality of
    their charts.  Second tuples are torus rescalings of the first (by the
    relations among the rays, read off the wall classes), rescalings with one
    value changed, and fresh tuples; each end is charted in the first cone
    holding its zero set or in another cone that holds it."""
    rng = random.Random(1707)
    pool = (0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))
    scalars = (1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 4))
    for fan in (p2, p3, p1xp1, hexagon, f2):
        relations = [beta.pairings for beta in wall_curve_classes(fan)]
        outcomes = {True: 0, False: 0}
        for _ in range(400):
            v = tuple(rng.choice(pool) for _ in range(fan.n_rays))
            if _chart_cone(fan, v) is None:
                continue
            kind = rng.randrange(3)
            if kind == 2:
                w = tuple(rng.choice(pool) for _ in range(fan.n_rays))
            else:
                w = list(v)
                for relation in rng.sample(relations, rng.randint(1, len(relations))):
                    t = rng.choice(scalars)
                    w = [x * Fraction(t) ** a for x, a in zip(w, relation)]
                if kind == 1:
                    w[rng.randrange(fan.n_rays)] = rng.choice(pool)
                w = tuple(w)
            if _chart_cone(fan, w) is None:
                continue
            ends = []
            for values in (v, w):
                zero = {i for i, x in enumerate(values) if x == 0}
                holding = [i for i, cone in enumerate(fan.max_cones) if zero <= set(cone)]
                idx = holding[0] if rng.random() < 0.7 else rng.choice(holding)
                ends.append((idx, values))
            expected = _chart(fan, *ends[0]) == _chart(fan, *ends[1])
            assert _same_point(fan, *ends[0], *ends[1]) == expected, (fan, ends)
            outcomes[expected] += 1
        assert min(outcomes.values()) >= 40, outcomes

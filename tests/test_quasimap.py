import random
from itertools import combinations

import pytest

from toriq.basepoint import INF, OrderVector, degree_at_point
from toriq.classes import is_effective
from toriq.fan import primitive_collections, product_fan, projective_space_fan
from toriq.forms import BinaryForm, Place, ProjPoint, common_zero_places
from toriq.quasimap import (BasepointPlace, Quasimap, _orthogonal_characters,
                            basepoint_length, basepoints, component_basepoints, degrees,
                            equal_quasimaps, evaluate, regular_extension,
                            same_morphism_sections, stability, validate_quasimap)

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
    assert basepoint_length(section_line, bp) == 1


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


def test_stability_modes(p2, section_line):
    assert stability(section_line, "quasimap")
    ext = regular_extension(section_line)
    assert not stability(ext, "map")
    line = Quasimap(p2, ((F(1, 1), F(1, 0, 1), F(1, 1, 1)),))
    assert stability(line, "map")  # no marks, degree 3 against the anticanonical
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
        if i % 2 or fan is hexagon:  # no stable draw on the hexagon
            q = random_quasimap(fan, rng, max_total_length=6)
        else:
            q = random_stable_quasimap(fan, rng, max_total_length=6)
        for comp in range(q.n_components):
            expected = _reference_component_basepoints(q, comp)
            assert component_basepoints(q, comp) == expected
            found += len(expected)
    assert found >= 100

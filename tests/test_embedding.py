import gc
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import toriq
from toriq.cases import fixture_path
from toriq.classes import (CurveClass, DivisorClass, ample_functional,
                           curve_class_from_anchor, divisor_from_ray_coefficients,
                           effective_classes, enumeration_degree,
                           nef_hilbert_basis, wall_curve_classes)
from toriq.basepoint import INF, _locate_degree
from toriq.embedding import (EmbeddingSpec, _factored_section, _invert_component,
                             _pull_back_character, _quasimap_sort_key,
                             apply_ibar, build_epic_embedding,
                             chart_cover, covers_all_charts, epic_check,
                             fibre_class_pool, fibre_enumeration,
                             invert_through_charts, polytope_lattice_points,
                             pullback_pic, pushforward_curves, require_valid_embedding,
                             validate_embedding)
from toriq.fan import (Fan, dual_basis, primitive_collections, product_fan,
                       projective_space_fan, require_valid, validate_fan)
from toriq.forms import BinaryForm, Place, ProjPoint, _quotient, poly_mul
from toriq.io import load_embedding
from toriq.quasimap import (Quasimap, _absorbs, _orders_at, _twist_away, basepoints, degrees,
                            equal_quasimaps, extend_at, regular_extension,
                            same_morphism_sections, stability, validate_quasimap)

from qmgen import GiveUp, _section_tuple, random_quasimap, random_stable_quasimap, scaled
from test_symmetry import _random_map, pulled_back


def _solve_character(fan, pairings):
    """Integer character m with <m, u_rho> = pairings[rho] for all rays, or None.

    ``pairings`` are ints; the dual basis of the first cone fixes m from them."""
    sigma0 = fan.max_cones[0]
    duals = dual_basis(fan, sigma0)
    m = tuple(sum(pairings[rho] * d[k] for rho, d in zip(sigma0, duals))
              for k in range(fan.dim))
    return m if fan.pairing(m) == tuple(pairings) else None


def F(deg, *coeffs):
    return BinaryForm.from_poly(deg, coeffs)


MARKS = ((0, ProjPoint(1, 1)), (0, ProjPoint(1, 2)))


def inverted_sections(emb, secs):
    """The source sections that ``_invert_component`` finds, or None."""
    found = _invert_component(emb, secs, ())
    return None if found is None else found[0]


def inverted(emb, q):
    """The source quasimap that ``invert_through_charts`` finds, or None."""
    found = invert_through_charts(emb, q)
    return None if found is None else found[0]


@pytest.fixture
def segre(p1xp1, p3):
    return EmbeddingSpec(p1xp1, p3, (1, 1, 1, 1),
                         ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)))


@pytest.fixture
def segre_pair(p1xp1):
    q1 = Quasimap(p1xp1, ((F(2, 1), F(2, 0, 1), F(2, 0, 1), F(2, 0, 0, 1)),),
                  markings=MARKS)
    q2 = Quasimap(p1xp1, ((F(2, 0, 1), F(2, 0, 0, 1), F(2, 1), F(2, 0, 1)),),
                  markings=MARKS)
    return q1, q2


def identity_embedding(fan):
    n = fan.n_rays
    exps = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    return EmbeddingSpec(fan, fan, (1,) * n, exps)


def test_validate_segre(segre):
    assert validate_embedding(segre) == []


def test_validate_rejects_base_locus_violation(p1xp1, p3):
    # degree-compatible, but the four monomials all vanish where x = z = 0
    bad = EmbeddingSpec(p1xp1, p3, (1, 1, 1, 1),
                        ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 1, 0)))
    assert any("common zero" in v for v in validate_embedding(bad))


def test_validate_rejects_incompatible_degrees(p1xp1, p3):
    bad = EmbeddingSpec(p1xp1, p3, (1, 1, 1, 1),
                        ((1, 0, 1, 0), (1, 0, 0, 1), (1, 1, 1, 0), (1, 1, 0, 1)))
    assert any("incompatible" in v for v in validate_embedding(bad))


def test_pushforward_examples(segre, bl0p2):
    assert pushforward_curves(segre, curve_class_from_anchor(segre.source, (1, 0))).pairings == (1, 1, 1, 1)
    assert pushforward_curves(segre, curve_class_from_anchor(segre.source, (0, 1))).pairings == (1, 1, 1, 1)
    zero = CurveClass(segre.source, (0, 0, 0, 0))
    assert pushforward_curves(segre, zero).is_zero()

    emb = build_epic_embedding(bl0p2)
    S = curve_class_from_anchor(bl0p2, (1, 0))
    E = curve_class_from_anchor(bl0p2, (0, 1))
    pushed_s = pushforward_curves(emb, S)
    pushed_e = pushforward_curves(emb, E)
    # one factor sees S once and E zero times, the other the opposite
    degs_s = sorted(set(pushed_s.pairings))
    degs_e = sorted(set(pushed_e.pairings))
    assert degs_s == [0, 1] and degs_e == [0, 1]


def test_pullback_matches_monomial_exponents(segre):
    for tau in range(segre.target.n_rays):
        pulled = pullback_pic(segre, tau)
        expected = None
        for rho, e in enumerate(segre.exponents[tau]):
            if e:
                unit = tuple(int(i == rho) for i in range(segre.source.n_rays))
                term = e * divisor_from_ray_coefficients(segre.source, unit)
                expected = term if expected is None else expected + term
        assert pulled.coords == expected.coords


def test_epic_check(segre, bl0p2, p2):
    assert not epic_check(segre)
    assert epic_check(build_epic_embedding(bl0p2))
    assert epic_check(identity_embedding(p2))


def test_polytope_lattice_points(bl0p2):
    # sections of the line-pullback class: three monomials
    assert polytope_lattice_points(bl0p2, (1, 0, 0, 0)) == [(0, 0), (0, 1), (1, 1)]
    assert polytope_lattice_points(bl0p2, (0, 0, 1, 0)) == [(0, 0), (1, 0)]


def test_build_epic_embedding_bl0p2(bl0p2):
    emb = build_epic_embedding(bl0p2)
    assert validate_embedding(emb) == []
    assert covers_all_charts(emb)
    sets = set()
    start = 0
    for block_len in (2, 3):
        sets.add(frozenset(emb.exponents[start:start + block_len]))
        start += block_len
    assert sets == {
        frozenset({(0, 1, 0, 0), (0, 0, 1, 0)}),
        frozenset({(1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1)}),
    }


def test_build_epic_embedding_p2(p2):
    emb = build_epic_embedding(p2)
    assert emb.target.n_rays == 3
    assert sorted(emb.exponents) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert epic_check(emb)


def test_build_epic_embedding_hexagon(hexagon):
    emb = build_epic_embedding(hexagon)
    assert (emb.target.dim, emb.target.n_rays, len(emb.target.max_cones)) == (7, 12, 72)
    assert epic_check(emb)


# The builder as it was before it was certified by construction, kept as the
# oracle of test_builder_matches_its_checked_oracle: any nef generating set of
# the Picard group, a canonical ample class appended when the charts are not
# covered, and every property checked.

def _assemble_oracle(fan, classes):
    factors = []
    coeffs = []
    exponents = []
    for d in classes:
        lift = d.ray_coefficients()
        points = polytope_lattice_points(fan, lift)
        if len(points) < 2:
            raise ValueError(
                f"nef class {d.coords} has fewer than two sections; cannot "
                "build a projective-space factor"
            )
        factors.append(projective_space_fan(len(points) - 1))
        for m in points:
            exponents.append(tuple(c + p for c, p in zip(lift, fan.pairing(m))))
            coeffs.append(1)
    target = product_fan(factors)
    return EmbeddingSpec(fan, target, tuple(coeffs), tuple(exponents))


def build_epic_embedding_oracle(fan, generators=None):
    require_valid(fan)
    ample = ample_functional(fan)  # raises on non-projective input
    gens = list(generators) if generators is not None else list(nef_hilbert_basis(fan))
    gens = [g if isinstance(g, DivisorClass) else DivisorClass(fan, tuple(g)) for g in gens]
    emb = _assemble_oracle(fan, gens)
    require_valid_embedding(emb)
    if not covers_all_charts(emb):
        emb = _assemble_oracle(fan, gens + [ample])
        require_valid_embedding(emb)
        if not covers_all_charts(emb):
            raise RuntimeError("chart cover failed even with an ample factor; bug")
    if not epic_check(emb):
        raise ValueError("the supplied generators do not generate the Picard group")
    return emb


def _hirzebruch(a):
    return Fan(2, ((1, 0), (0, 1), (-1, a), (0, -1)), ((0, 1), (1, 2), (2, 3), (3, 0)))


def _plane_bundle(a):
    """P(O + O(a)) over the plane: the plane's rays lifted, the last with
    height a, and the two fibre rays."""
    rays = ((1, 0, 0), (0, 1, 0), (-1, -1, a), (0, 0, 1), (0, 0, -1))
    return Fan(3, rays, tuple((i, j, k) for i, j in ((0, 1), (0, 2), (1, 2)) for k in (3, 4)))


@pytest.fixture(scope="module")
def builder_fans(request):
    """Every conftest fan, F0-F4, products up to hexagon x P1 and P2 x P3,
    P(O + O(a)) over P2 for a = 0..2 and the benchmark's fan shapes, then 20
    seeded relabellings of them."""
    from test_classes import _relabelled  # test_classes imports this module

    p = projective_space_fan
    hexagon = request.getfixturevalue("hexagon")
    fans = [request.getfixturevalue(name) for name in CONFTEST_FANS]
    fans += [_hirzebruch(a) for a in range(5)]
    fans += [product_fan(f) for f in ([p(1), p(2)], [p(1)] * 3, [p(2), p(2)], [p(2), p(3)],
                                      [request.getfixturevalue("bl0p2"), p(1)], [hexagon, p(1)])]
    fans += [_plane_bundle(a) for a in range(3)]
    rng = random.Random(2403)
    return fans + [_relabelled(rng.choice(fans), rng) for _ in range(20)]


def test_builder_matches_its_checked_oracle(builder_fans):
    """The builder, which checks nothing it certifies by construction, against
    the one that checked everything: the same embedding, with no ample factor
    needed, valid, covering every chart and epic.  The cover argument's
    premise holds too: every wall curve meets some class of the basis."""
    for fan in builder_fans:
        basis = nef_hilbert_basis(fan)
        emb = build_epic_embedding(fan)
        assert emb == build_epic_embedding_oracle(fan), fan
        assert covers_all_charts(_assemble_oracle(fan, basis)), fan
        assert validate_embedding(emb) == [], fan
        assert covers_all_charts(emb) and epic_check(emb), fan
        assert all(any(d.pair(w) > 0 for d in basis) for w in wall_curve_classes(fan)), fan


def test_a_built_embedding_carries_its_verdict(builder_fans, monkeypatch):
    """The builder stores the verdict it certifies, so pushing classes forward
    and the epic check never validate a built embedding; the answers equal
    those on a copy that is validated."""
    def refuse(emb):
        raise AssertionError("a built embedding was validated")

    monkeypatch.setattr("toriq.embedding.validate_embedding", refuse)
    built = []
    for fan in builder_fans:
        emb = build_epic_embedding(fan)
        walls_pushed = [pushforward_curves(emb, w) for w in wall_curve_classes(fan)]
        built.append((emb, walls_pushed, epic_check(emb)))
    monkeypatch.undo()
    for emb, walls_pushed, epic in built:
        copy = EmbeddingSpec(emb.source, emb.target, emb.coeffs, emb.exponents)
        assert walls_pushed == [pushforward_curves(copy, w)
                                for w in wall_curve_classes(emb.source)]
        assert epic is epic_check(copy) is True


def _memo_names(fan):
    return {key[0] for key in fan.__dict__.get("_memo", {})}


@pytest.mark.parametrize("factor", [
    Fan(2, ((1, 0), (1, 2), (-1, -1)), ((0, 1), (1, 2), (0, 2))),  # cone (0, 1) not smooth
    Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2))),  # not complete
])
def test_products_with_an_invalid_factor_are_validated_from_scratch(factor):
    for factors in ([factor, projective_space_fan(1)], [projective_space_fan(2), factor]):
        fan = product_fan(factors)
        assert _memo_names(fan) == set()
        copy = Fan(fan.dim, fan.rays, fan.max_cones)
        assert validate_fan(fan) == validate_fan(copy) != []
    assert _memo_names(product_fan([])) == set()
    assert validate_fan(product_fan([])) == ["dimension must be positive"]


def test_the_epic_check_builds_no_target_cone_table(builder_fans):
    """Pushing the wall classes forward and the epic check read no table of a
    built target but its anchor rays, so the target computes nothing else;
    its verdict, asked for afterwards, is computed on first use."""
    for fan in builder_fans:
        emb = build_epic_embedding(fan)
        for w in wall_curve_classes(fan):
            pushforward_curves(emb, w)
        assert epic_check(emb), fan
        assert _memo_names(emb.target) <= {"toriq.classes.anchor_rays"}, fan
        assert validate_fan(emb.target) == [], fan


def test_build_with_generator_choice(bl0p2):
    # the generating set {S, S+L} gives a line times a 4-space, with the five
    # quadratic monomials on the big factor
    S = divisor_from_ray_coefficients(bl0p2, (0, 0, 1, 0))
    L = divisor_from_ray_coefficients(bl0p2, (1, 0, 0, 0))
    emb = build_epic_embedding_oracle(bl0p2, generators=[S, S + L])
    blocks = []
    start = 0
    for factor_rays in (2, 5):
        blocks.append(frozenset(emb.exponents[start:start + factor_rays]))
        start += factor_rays
    assert blocks[0] == frozenset({(0, 1, 0, 0), (0, 0, 1, 0)})
    assert blocks[1] == frozenset({
        (1, 0, 1, 0), (1, 1, 0, 0), (0, 0, 2, 1), (0, 1, 1, 1), (0, 2, 0, 1)
    })
    assert epic_check(emb)


def test_apply_ibar_segre(segre, segre_pair):
    q1, q2 = segre_pair
    image1 = apply_ibar(segre, q1)
    image2 = apply_ibar(segre, q2)
    assert [f.poly for f in image1.sections(0)] == \
        [(0, 1), (0, 0, 1), (0, 0, 1), (0, 0, 0, 1)]
    assert equal_quasimaps(image1, image2)
    assert degrees(image1)[0].pairings == \
        pushforward_curves(segre, degrees(q1)[0]).pairings


def test_apply_ibar_basepoint_free(segre, p1xp1):
    diag = Quasimap(p1xp1, ((F(1, 1), F(1, 0, 1), F(1, 1), F(1, 0, 1)),),
                    markings=MARKS)
    image = apply_ibar(segre, diag)
    assert basepoints(image) == ()
    assert validate_quasimap(image) == []


def test_apply_ibar_constant(segre, p1xp1):
    const = Quasimap(p1xp1, ((F(0, 1), F(0, 2), F(0, 1), F(0, 3)),), markings=MARKS)
    image = apply_ibar(segre, const)
    assert degrees(image)[0].is_zero()


def apply_ibar_oracle(emb, q):
    """Transport with every monomial multiplied out: c_tau times the product
    of the source sections to their exponents, zero when one of them is."""
    components = []
    for secs in q.components:
        out = []
        for c, exp in zip(emb.coeffs, emb.exponents):
            degree = sum(e * f.degree for f, e in zip(secs, exp))
            poly = (c,)
            for f, e in zip(secs, exp):
                for _ in range(e):
                    poly = poly_mul(poly, f.poly) if f.poly else ()
            out.append(BinaryForm.from_poly(degree, poly) if poly else BinaryForm.zero(degree))
        components.append(tuple(out))
    return Quasimap(emb.target, components, q.nodes, q.markings)


def test_apply_ibar_matches_the_product_oracle(request, p1, p2, p1xp1, p3):
    """Transport equals the multiplied-out monomials on seeded quasimaps: a
    target section passes through only for one source ray to the power 1 with
    coefficient 1, not for a square or a scaled ray."""
    scaled_identity = EmbeddingSpec(p2, p2, (2, 1, Fraction(-1, 3)),
                                    ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    square = EmbeddingSpec(p1, p1, (1, 1), ((2, 0), (0, 2)))
    scaled_segre = EmbeddingSpec(p1xp1, p3, (2, 1, Fraction(1, 3), 5),
                                 ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)))
    built = [embedding_named(request, name) for name in CONFTEST_FANS + ["segre.json"]]
    rng = random.Random(404)
    for emb in [scaled_identity, square, scaled_segre] + built:
        for _ in range(6):
            q = random_quasimap(emb.source, rng, max_components=2, max_total_length=5)
            assert apply_ibar(emb, q) == apply_ibar_oracle(emb, q)


def test_fibre_segre(segre, segre_pair):
    q1, q2 = segre_pair
    image = apply_ibar(segre, q1)
    beta = degrees(q1)[0]
    fibre = fibre_enumeration(segre, image, beta)
    assert len(fibre) == 2
    assert any(equal_quasimaps(f, q1) for f in fibre)
    assert any(equal_quasimaps(f, q2) for f in fibre)
    assert all(stability(f, "quasimap") for f in fibre)


def test_fibre_epic_is_singleton(bl0p2):
    emb = build_epic_embedding(bl0p2)
    rng = random.Random(31)
    for _ in range(10):
        q = random_quasimap(bl0p2, rng, max_components=2, max_total_length=6)
        image = apply_ibar(emb, q)
        fibre = fibre_enumeration(emb, image, degrees(q)[0])
        assert len(fibre) == 1
        assert equal_quasimaps(fibre[0], q)


def test_scaled_coefficients_round_trip(p1xp1, p3, segre_pair):
    # nonunit monomial coefficients amount to a torus automorphism of the
    # target; transport and fibre inversion must track them exactly
    from fractions import Fraction

    scaled = EmbeddingSpec(p1xp1, p3, (2, 1, Fraction(1, 3), 5),
                           ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)))
    assert validate_embedding(scaled) == []
    q1, q2 = segre_pair
    image = apply_ibar(scaled, q1)
    assert image.sections(0)[0].poly == (0, 2)
    fibre = fibre_enumeration(scaled, image, degrees(q1)[0])
    assert len(fibre) == 2
    assert any(equal_quasimaps(f, q1) for f in fibre)
    assert any(equal_quasimaps(f, q2) for f in fibre)


def test_fibre_empty_when_not_factoring(segre, p3):
    # a line in the 3-space missing the quadric image entirely
    line = Quasimap(p3, ((F(1, 1), F(1, 0, 1), F(1, 1, 1), F(1, 1, 2)),),
                    markings=MARKS)
    beta = curve_class_from_anchor(segre.source, (1, 0))
    # degree check: the line pushes to degree 1
    fibre = fibre_enumeration(segre, line, beta)
    assert fibre == ()


def test_fibre_rejects_wrong_degree(segre, segre_pair):
    q1, _ = segre_pair
    image = apply_ibar(segre, q1)
    with pytest.raises(ValueError):
        fibre_enumeration(segre, image, curve_class_from_anchor(segre.source, (1, 0)))


def test_fibre_rejects_a_quasimap_to_another_fan(segre, segre_pair):
    # q1 maps to the source; its degree (2, 2, 2, 2) equals the pushforward's
    # pairings of (1, 1), so only the fan tells it from a target quasimap
    q1, _ = segre_pair
    beta = curve_class_from_anchor(segre.source, (1, 1))
    assert pushforward_curves(segre, beta).pairings == degrees(q1)[0].pairings
    with pytest.raises(ValueError, match="does not match the embedding target"):
        fibre_enumeration(segre, q1, beta)


def test_pushforward_of_basepoint_degrees_random(segre, bl0p2):
    rng = random.Random(13)
    emb_bl = build_epic_embedding(bl0p2)
    for emb in (segre, emb_bl):
        for _ in range(12):
            q = random_quasimap(emb.source, rng, max_components=2, max_total_length=6)
            image = apply_ibar(emb, q)
            bp_q = basepoints(q)
            bp_img = basepoints(image)
            assert [(b.component, b.place) for b in bp_q] == \
                [(b.component, b.place) for b in bp_img]
            for a, b in zip(bp_q, bp_img):
                assert pushforward_curves(emb, a.degree).pairings == b.degree.pairings
            # the regular-extension square commutes
            left = regular_extension(image)
            right = apply_ibar(emb, regular_extension(q))
            assert equal_quasimaps(left, right)


def test_identity_embedding_inversion(p2):
    emb = identity_embedding(p2)
    rng = random.Random(3)
    q = random_quasimap(p2, rng, max_components=1)
    ext = regular_extension(q)
    candidate = inverted(emb, ext)
    assert candidate is not None
    for comp in range(ext.n_components):
        assert same_morphism_sections(p2, candidate.sections(comp), ext.sections(comp))


def test_chart_inversion_returns_only_a_checked_factorization(segre):
    """Seeded basepoint-free maps to P3: chart inversion builds a valid,
    basepoint-free candidate for those off the Segre quadric too, but its
    image is another map, so ``invert_through_charts`` returns None; maps on
    the quadric, images of their inversion, give that inversion back."""
    rng = random.Random(1801)
    off_quadric = 0
    for _ in range(60):
        degree = rng.randint(1, 2)
        secs = tuple(BinaryForm(degree, tuple(rng.randint(-2, 2) for _ in range(degree + 1)))
                     for _ in range(4))
        q = Quasimap(segre.target, (secs,), markings=((0, ProjPoint(1, 7)),))
        if validate_quasimap(q) or basepoints(q):
            continue
        candidate = Quasimap(segre.source, (inverted_sections(segre, secs),), (), q.markings)
        assert validate_quasimap(candidate) == [] and basepoints(candidate) == ()
        image = apply_ibar(segre, candidate)
        if same_morphism_sections(segre.target, image.sections(0), secs):
            assert inverted(segre, q) == candidate
        else:
            off_quadric += 1
            assert inverted(segre, q) is None
            assert inverted(segre, image) == candidate
    assert off_quadric >= 20


def test_chart_inversion_rejects_a_candidate_with_basepoints(segre, segre_pair, monkeypatch):
    """A valid candidate carrying a real basepoint is refused, and the fibre
    through it is then empty: on an embedding that covers every chart, the
    image check sees the basepoint, which no other check looks for."""
    import toriq.embedding

    q1, _ = segre_pair
    image = apply_ibar(segre, q1)
    extension = regular_extension(image)
    assert covers_all_charts(segre)
    assert inverted(segre, extension) is not None
    assert fibre_enumeration(segre, image, degrees(q1)[0])

    real = toriq.embedding._invert_component
    collection = primitive_collections(segre.source)[0]
    place = Place.rational(5)

    def with_basepoint(emb, secs, bps):
        sections, orders = real(emb, secs, bps)
        return tuple(f.shift(place, 1) if rho in collection else f
                     for rho, f in enumerate(sections)), orders

    candidate = Quasimap(segre.source, (with_basepoint(segre, extension.sections(0), ())[0],),
                         extension.nodes, extension.markings)
    assert validate_quasimap(candidate) == []
    assert [bp.place for bp in basepoints(candidate)] == [place]
    monkeypatch.setattr(toriq.embedding, "_invert_component", with_basepoint)
    assert inverted(segre, extension) is None
    assert fibre_enumeration(segre, image, degrees(q1)[0]) == ()


def blow_down():
    """The blow-down of P2 at x0 = x1 = 0, as an embedding into P2."""
    blowup = Fan(2, ((1, 0), (0, 1), (-1, -1), (1, 1)), ((0, 3), (1, 3), (1, 2), (0, 2)))
    return EmbeddingSpec(blowup, projective_space_fan(2), (1, 1, 1),
                         ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 0)))


def test_chart_inversion_checks_candidates_of_an_embedding_not_covering_every_chart():
    """The blow-down of the point x0 = x1 = 0 of P2 covers only the charts
    away from the exceptional curve, and is not injective on points.  Two
    lines through that point with different slopes lift to lines meeting the
    exceptional curve at different points: the image check passes, and the
    full check that such embeddings keep refuses the candidate."""
    emb = blow_down()
    blowup = emb.source
    assert validate_embedding(emb) == [] and not covers_all_charts(emb)
    node = ((0, ProjPoint(1, 0)), (1, ProjPoint(1, 0)))
    lines = tuple((F(1, 0, slope), F(1, 0, 1), F(1, 1)) for slope in (1, 2))
    extension = Quasimap(emb.target, lines, (node,), ((0, ProjPoint(1, 1)), (1, ProjPoint(1, 1))))
    assert validate_quasimap(extension) == [] and basepoints(extension) == ()
    candidate = Quasimap(blowup, [inverted_sections(emb, secs) for secs in lines],
                         extension.nodes, extension.markings)
    assert equal_quasimaps(apply_ibar(emb, candidate), extension)
    assert "does not glue" in validate_quasimap(candidate)[0]
    assert inverted(emb, extension) is None


CONFTEST_FANS = ["p1", "p2", "p3", "bl0p2", "p1xp1", "p2xp1", "f2", "hexagon"]


def embedding_named(request, name):
    """A bundled embedding fixture, or the built embedding of a conftest fan."""
    if name.endswith(".json"):
        return load_embedding(str(fixture_path(name)))
    return build_epic_embedding(request.getfixturevalue(name))


def _random_target_map(target, rng):
    """A seeded one-component map to a product of projective spaces: per
    factor a degree in 0..2, not all 0, and random forms of that degree; the
    caller drops the ones with basepoints."""
    blocks = primitive_collections(target)
    per_factor = [0] * len(blocks)
    while not any(per_factor):
        per_factor = [rng.randint(0, 2) for _ in blocks]
    secs = [None] * target.n_rays
    for block, d in zip(blocks, per_factor):
        for tau in block:
            secs[tau] = BinaryForm(d, tuple(rng.randint(-2, 2) for _ in range(d + 1)))
    return Quasimap(target, (tuple(secs),), markings=((0, ProjPoint(1, 7)),))


def test_chart_inversion_passes_the_checks_it_skips(request):
    """Differential oracle for the checks that chart inversion skips on an
    embedding covering every chart: each candidate it returns is valid and
    basepoint-free.  The inputs are regular extensions of images of seeded
    source quasimaps and seeded basepoint-free maps to the target, which lie
    off the image of the embeddings that are not onto."""
    outcomes = Counter()
    for name in CONFTEST_FANS + ["segre.json"]:
        emb = embedding_named(request, name)
        assert covers_all_charts(emb)
        rng = random.Random(f"inversion oracle {name}")
        extensions = []
        for _ in range(30):
            q = random_quasimap(emb.source, rng, max_components=3, max_total_length=5)
            extensions.append(regular_extension(apply_ibar(emb, q)))
        for _ in range(60):
            q = _random_target_map(emb.target, rng)
            if not validate_quasimap(q) and not basepoints(q):
                extensions.append(q)
        for extension in extensions:
            candidate = inverted(emb, extension)
            outcomes[name, candidate is None] += 1
            if candidate is not None:
                assert validate_quasimap(candidate) == []
                assert basepoints(candidate) == ()
    assert sum(n for (_, off), n in outcomes.items() if not off) >= 500
    assert sum(n for (_, off), n in outcomes.items() if off) >= 150


def _invert_through_charts_oracle(emb, extension):
    """``invert_through_charts`` as it was before its chart-local check: the
    candidate's image under ``apply_ibar`` is compared with the extension by
    ``same_morphism_sections`` on every target ray."""
    comps = tuple(inverted_sections(emb, secs) for secs in extension.components)
    if None in comps:
        return None
    candidate = Quasimap(emb.source, comps, extension.nodes, extension.markings)
    if not covers_all_charts(emb) and (validate_quasimap(candidate) or basepoints(candidate)):
        return None
    pairs = zip(apply_ibar(emb, candidate).components, extension.components)
    return candidate if all(same_morphism_sections(emb.target, *p) for p in pairs) else None


def test_chart_local_check_matches_the_image_oracle(request):
    """The chart-local check returns what the transport and comparison on
    every target ray returned, None included, on every conftest fan's built
    embedding, segre.json and the blow-down.  The inputs are regular
    extensions of images of seeded source quasimaps, seeded maps to the
    target, and seeded one-component tuples, images and not, with
    identically zero sections.  Every candidate that ``_invert_component``
    builds is basepoint-free, on the blow-down too, which does not cover
    every chart."""
    outcomes = Counter()
    embeddings = [embedding_named(request, name) for name in CONFTEST_FANS + ["segre.json"]]
    for emb in embeddings + [blow_down()]:
        rng = random.Random(f"chart-local check {emb.target.n_rays} {emb.source.rays}")
        extensions = []
        for _ in range(30):
            q = random_quasimap(emb.source, rng, max_components=3, max_total_length=5)
            extensions.append(regular_extension(apply_ibar(emb, q)))
        for _ in range(80):
            q = _random_target_map(emb.target, rng)
            if not validate_quasimap(q) and not basepoints(q):
                extensions.append(q)
        extensions += [Quasimap(emb.target, (secs,)) for secs in _target_tuples(emb, rng, 50)]
        for extension in extensions:
            got = inverted(emb, extension)
            assert got == _invert_through_charts_oracle(emb, extension), extension
            comps = tuple(inverted_sections(emb, secs) for secs in extension.components)
            if None not in comps:
                candidate = Quasimap(emb.source, comps, extension.nodes, extension.markings)
                assert basepoints(candidate) == (), extension
            zero = any(f.is_zero for secs in extension.components for f in secs)
            outcomes["off" if got is None else "on", "zero" if zero else "nonzero"] += 1
    assert sum(outcomes.values()) >= 1000, outcomes
    assert outcomes["off", "zero"] + outcomes["off", "nonzero"] >= 300, outcomes
    assert min(outcomes.values()) >= 50, outcomes


@pytest.mark.parametrize("name", CONFTEST_FANS + ["segre.json"])
def test_fibre_class_pool_matches_filter(request, name):
    """The indexed pool against the filter it replaced: the nonzero effective
    classes of length at most the cap whose pushforward is the degree at the
    basepoint, in enumeration order."""
    emb = embedding_named(request, name)
    for cap in range(7):
        candidates = [(pushforward_curves(emb, c).pairings, c)
                      for c in effective_classes(emb.source, cap) if not c.is_zero()]
        pool = fibre_class_pool(emb, cap)
        assert set(pool) == {pairings for pairings, _ in candidates}
        for pairings, classes in pool.items():
            assert list(classes) == [c for pushed, c in candidates if pushed == pairings]


# The chart inversion as it was before the cover stored lifts, kept as the
# oracle of test_inversion_matches_combination_oracle and
# test_chart_cover_lookup_matches_combination_search.

def _nonneg_combination(target, gens, weights):
    """Coefficients c >= 0 with sum c_j gens[j] = target, or None.

    Pairing against the interior covector ``weights`` is additive and positive
    on the usable generators, which caps the search depth."""

    def weight(vec):
        return sum(a * b for a, b in zip(vec, weights))

    target = tuple(target)
    tw = weight(target)
    if tw < 0:
        return None

    def rec(remaining, rw, start):
        if all(x == 0 for x in remaining):
            return []
        for j in range(start, len(gens)):
            gw = weight(gens[j])
            if gw <= 0 or gw > rw:
                continue
            nxt = tuple(a - b for a, b in zip(remaining, gens[j]))
            sub = rec(nxt, rw - gw, j)
            if sub is not None:
                return [j] + sub
        return None

    picks = rec(target, tw, 0)
    if picks is None:
        return None
    coeffs = [0] * len(gens)
    for j in picks:
        coeffs[j] += 1
    return coeffs


def _oracle_chart_cover(emb):
    """The chart cover with, per source chart character, the nonnegative
    combination of the pulled-back target chart characters that expresses it,
    in place of its lift."""
    src, tgt = emb.source, emb.target
    cover = {}
    for si, scone in enumerate(src.max_cones):
        scone_set = set(scone)
        interior = [sum(src.rays[i][k] for i in scone) for k in range(src.dim)]
        duals_x = dual_basis(src, scone)
        entries = []
        for ti, tcone in enumerate(tgt.max_cones):
            if any(emb.exponents[tau][rho] > 0 for tau in tgt.cone_complement(tcone)
                   for rho in scone_set):
                continue
            chars = []
            ok = True
            for w in tgt.exponent_matrix(tcone):
                v = _pull_back_character(emb, w)
                m_x = _solve_character(src, v)
                # m_x pairs to v with the source rays: regular on the chart iff
                # nonnegative on the cone's rays
                if m_x is None or any(v[i] < 0 for i in scone):
                    ok = False
                    break
                chars.append(m_x)
            if not ok:
                continue
            nonzero = [(j, g) for j, g in enumerate(chars) if any(x != 0 for x in g)]
            combos = []
            for m_i in duals_x:
                combo = _nonneg_combination(
                    m_i, [g for _, g in nonzero], interior
                )
                if combo is None:
                    break
                full = [0] * len(chars)
                for (j, _), c in zip(nonzero, combo):
                    full[j] = c
                combos.append(tuple(full))
            else:
                entries.append({"target_cone": ti, "combos": tuple(combos)})
        cover[si] = tuple(entries)
    return cover


def _factored_sections(emb, secs):
    """Per target ray, the unit and places of the section divided by its
    monomial coefficient, or None for a zero section: the whole section
    factored, as chart inversion did before it read the basepoint scan's
    places, kept as the oracles' factoring."""
    out = []
    for c, f in zip(emb.coeffs, secs):
        if f.is_zero:
            out.append(None)
        else:
            u, places = f.factor()
            out.append((_quotient(u, c), places))
    return out


def _oracle_invert_component(emb, cover, secs):
    """Chart inversion through the combinations: a unit and per-place orders
    for every target chart character, combined per source chart character."""
    src, tgt = emb.source, emb.target
    factored = _factored_sections(emb, secs)
    all_places = sorted(
        {p for fac in factored if fac for p in fac[1]},
        key=lambda p: p.sort_key(),
    )
    for si in range(len(src.max_cones)):
        scone = src.max_cones[si]
        for entry in cover[si]:
            tcone = tgt.max_cones[entry["target_cone"]]
            usable = True
            w_orders = []  # per chart character: dict place -> order, or None for zero
            w_units = []
            for exps in tgt.exponent_matrix(tcone):
                if any(e < 0 and factored[tau] is None for tau, e in enumerate(exps)):
                    usable = False
                    break
                if any(e > 0 and factored[tau] is None for tau, e in enumerate(exps)):
                    w_orders.append(None)
                    w_units.append(None)
                    continue
                orders = {p: 0 for p in all_places}
                unit = Fraction(1)
                for tau, e in enumerate(exps):
                    if e == 0:
                        continue
                    u, places = factored[tau]
                    unit *= u ** e
                    for p, mult in places.items():
                        orders[p] += e * mult
                w_orders.append(orders)
                w_units.append(unit)
            if not usable:
                continue

            # exponent data for the candidate source sections
            zeta_orders = {}
            zeta_units = {}
            vanishing = set()
            for pos, rho in enumerate(scone):
                combo = entry["combos"][pos]
                if any(c > 0 and w_orders[j] is None for j, c in enumerate(combo)):
                    vanishing.add(rho)
                    continue
                orders = {p: 0 for p in all_places}
                unit = Fraction(1)
                for j, c in enumerate(combo):
                    if c:
                        unit *= w_units[j] ** c
                        for p, o in w_orders[j].items():
                            orders[p] += c * o
                zeta_orders[rho] = orders
                zeta_units[rho] = unit

            try:
                shifts = {}
                for p in all_places:
                    vec = []
                    for rho in range(src.n_rays):
                        if rho in vanishing:
                            vec.append(INF)
                        elif rho in zeta_orders:
                            vec.append(zeta_orders[rho][p])
                        else:
                            vec.append(0)
                    beta_p, _ = _locate_degree(src, tuple(vec), frozenset(vanishing))
                    shifts[p] = beta_p
            except ValueError:
                continue

            sections = [None] * src.n_rays
            ok = True
            for rho in range(src.n_rays):
                if rho in vanishing:
                    continue
                poly = (1,)
                degree = 0
                base = zeta_orders.get(rho, {})
                for p in all_places:
                    e = base.get(p, 0) - shifts[p].pairings[rho]
                    if e < 0:
                        ok = False
                        break
                    if e == 0:
                        continue
                    degree += e * p.degree
                    if not p.at_infinity:
                        for _ in range(e):
                            poly = poly_mul(poly, p.coeffs)
                if not ok:
                    break
                unit = zeta_units.get(rho, Fraction(1))
                sections[rho] = BinaryForm.from_poly(degree, tuple(unit * c for c in poly))
            if not ok:
                continue

            if vanishing:
                consistent = True
                for rho, row in zip(scone, src.exponent_matrix(scone)):
                    coord = -sum(sections[r].degree * row[r]
                                 for r in range(src.n_rays) if r not in vanishing)
                    if rho in vanishing:
                        sections[rho] = BinaryForm.zero(coord)
                    elif coord != 0:
                        consistent = False
                        break
                if not consistent:
                    continue
            return tuple(sections)
    return None


def _target_tuples(emb, rng, count):
    """Seeded basepoint-free target section tuples on one component.

    Half are images of random source tuples, half are random target tuples,
    which are mostly not images; in both some sections are set to zero."""
    pools = {fan: effective_classes(fan, 4) for fan in (emb.source, emb.target)}
    tuples = []
    while len(tuples) < count:
        from_source = rng.random() < 0.5
        fan = emb.source if from_source else emb.target
        try:
            secs = list(_section_tuple(fan, rng, rng.choice(pools[fan])))
        except GiveUp:
            continue
        for rho in range(fan.n_rays):
            if rng.random() < 0.5:
                secs[rho] = BinaryForm.zero(secs[rho].degree)
        q = Quasimap(fan, (tuple(secs),))
        if validate_quasimap(q) or basepoints(q):
            continue
        tuples.append(apply_ibar(emb, q).sections(0) if from_source else tuple(secs))
    return tuples


def assert_cover_matches_oracle(emb):
    """The lookup's lifts are the oracle's combinations applied to the target
    chart characters, entry for entry; returns the oracle's cover."""
    tgt = emb.target
    cover = _oracle_chart_cover(emb)
    assert sorted(chart_cover(emb)) == sorted(cover)
    for si, entries in chart_cover(emb).items():
        assert [e["target_cone"] for e in entries] == [e["target_cone"] for e in cover[si]]
        for entry, old in zip(entries, cover[si]):
            rows = tgt.exponent_matrix(tgt.max_cones[entry["target_cone"]])
            assert entry["lifts"] == tuple(
                tuple(sum(c * row[tau] for c, row in zip(combo, rows))
                      for tau in range(tgt.n_rays))
                for combo in old["combos"])
    return cover


@pytest.mark.parametrize("factors", [(1, 1, 1), (2, 2), (1, 2)])
def test_chart_cover_lookup_matches_combination_search(factors):
    # products whose built targets have many projective-space factors
    emb = build_epic_embedding(product_fan([projective_space_fan(n) for n in factors]))
    cover = assert_cover_matches_oracle(emb)
    assert all(cover.values())


def test_chart_cover_of_a_non_covering_embedding(p1):
    # t -> t^2 pulls each target chart coordinate back to the square of a
    # source one, so no source chart coordinate is the pullback of a character
    square = EmbeddingSpec(p1, p1, (1, 1), ((2, 0), (0, 2)))
    assert validate_embedding(square) == []
    cover = assert_cover_matches_oracle(square)
    assert cover == {0: (), 1: ()}
    assert not covers_all_charts(square)


# References for the fixed-point zero sets: the base-locus loop over the
# target's primitive collections and the chart cover's test on the monomials
# off each target cone, both reading the monomial supports, which
# validate_embedding and chart_cover replace by one zero set per source cone.

def _supports(emb):
    return [frozenset(rho for rho, e in enumerate(exp) if e > 0) for exp in emb.exponents]


def base_locus_oracle(emb):
    supports = _supports(emb)
    report = []
    for pc in primitive_collections(emb.target):
        for cone in emb.source.max_cones:
            if not any(not (supports[tau] & set(cone)) for tau in sorted(pc)):
                report.append(
                    f"monomials of the target primitive collection {tuple(sorted(pc))} "
                    f"have a common zero on the chart of source cone {cone}")
                break
    return report


def chart_cover_support_oracle(emb):
    src, tgt = emb.source, emb.target
    supports = _supports(emb)
    coordinates = [tuple(int(j == k) for j in range(src.dim)) for k in range(src.dim)]
    cover = {}
    for si, scone in enumerate(src.max_cones):
        entries = []
        for ti, tcone in enumerate(tgt.max_cones):
            if any(supports[tau] & set(scone) for tau in tgt.cone_complement(tcone)):
                continue
            found = {}
            for w in tgt.exponent_matrix(tcone):
                v = _pull_back_character(emb, w)
                found.setdefault(tuple(v[i] for i in scone), w)
            lifts = tuple(found.get(e) for e in coordinates)
            if None not in lifts:
                entries.append({"target_cone": ti, "lifts": lifts})
        cover[si] = tuple(entries)
    return cover


def _corrupted(emb, rng):
    """One to three target rays take another exponent vector of the same
    degree: another ray's, or their own shifted by a small source character,
    which may turn negative; now and then a coefficient vanishes or an entry
    moves by one, which the earlier checks catch."""
    exps = [list(e) for e in emb.exponents]
    coeffs = list(emb.coeffs)
    for _ in range(rng.randint(1, 3)):
        tau = rng.randrange(len(exps))
        kind = rng.randrange(5)
        if kind < 2:
            same = [e for e in exps if _solve_character(
                emb.source, tuple(a - b for a, b in zip(exps[tau], e))) is not None]
            exps[tau] = list(rng.choice(same))
        elif kind < 4:
            m = [rng.randint(-1, 1) for _ in range(emb.source.dim)]
            exps[tau] = [e + v for e, v in zip(exps[tau], emb.source.pairing(m))]
        elif rng.random() < 0.5:
            coeffs[tau] = 0
        else:
            exps[tau][rng.randrange(len(exps[tau]))] += rng.choice((-1, 1))
    return EmbeddingSpec(emb.source, emb.target, coeffs, exps)


def test_fixed_point_zero_sets_match_the_support_oracles(request, p1):
    """validate_embedding's list and chart_cover's table equal the support
    oracles' on the built embeddings, segre.json, t -> t^2 and seeded
    corruptions of them."""
    square = EmbeddingSpec(p1, p1, (1, 1), ((2, 0), (0, 2)))
    bases = [embedding_named(request, name) for name in CONFTEST_FANS + ["segre.json"]]
    bases.append(square)
    rng = random.Random(2212)
    corrupted = [_corrupted(rng.choice(bases), rng) for _ in range(300)]
    reached = Counter()
    for k, emb in enumerate(bases + corrupted):
        report = validate_embedding(emb)
        if any("common zero" not in line for line in report):
            continue  # failed a check that runs before the base-locus condition
        assert report == base_locus_oracle(emb), emb
        if not report:
            assert chart_cover(emb) == chart_cover_support_oracle(emb), emb
        if k >= len(bases):
            reached["invalid" if report else "valid"] += 1
    assert reached["invalid"] >= 60 and reached["valid"] >= 20, reached


def test_factored_units_are_ints_where_integral(request):
    """The unit of each factored target section over its monomial
    coefficient is an int when integral and a Fraction only otherwise, on
    seeded tuples and on them scaled by 2/3; with no scan records, unit and
    places are the whole section's factorization."""
    types = Counter()
    for name in CONFTEST_FANS + ["segre.json"]:
        emb = embedding_named(request, name)
        for secs in _target_tuples(emb, random.Random(f"units/{name}"), 20):
            rescaled = [scaled(f, Fraction(2, 3)) for f in secs]
            for forms in (secs, rescaled):
                oracle = _factored_sections(emb, forms)
                for tau, (c, f) in enumerate(zip(emb.coeffs, forms)):
                    if not f.is_zero:
                        unit, places = _factored_section(f, c, tau, ())
                        assert (unit, places) == oracle[tau]
                        assert type(unit) is int or unit.denominator != 1, (name, unit)
                        types[type(unit)] += 1
    assert types[int] and types[Fraction], types


def test_inversion_matches_combination_oracle(request):
    """Lifts are the combinations applied to the target chart characters, and
    inverting through them gives the oracle's sections, None included."""
    outcomes = {}
    for name in CONFTEST_FANS + ["segre.json", "bl0p2_product.json"]:
        emb = embedding_named(request, name)
        tgt = emb.target
        cover = assert_cover_matches_oracle(emb)
        seen = outcomes[name] = Counter()
        for secs in _target_tuples(emb, random.Random(f"inversion/{name}"), 30):
            got = inverted_sections(emb, secs)
            assert got == _oracle_invert_component(emb, cover, secs)
            if got is None:
                seen["none"] += 1
            else:
                seen["vanishing" if any(f.is_zero for f in got) else "plain"] += 1
        assert seen["plain"] and seen["vanishing"], (name, seen)
        if tgt.dim == emb.source.dim:
            # an isomorphism has every basepoint-free tuple as an image
            assert not seen["none"], (name, seen)
    assert sum(seen["none"] for seen in outcomes.values()) > 0, outcomes


def test_fan_and_embedding_are_freed_with_their_derived_data():
    # a sheared plane that no other test builds, so no equal fan or embedding
    # was derived from before and a cache keyed on equal objects would keep it
    fan = Fan(2, ((1, 0), (1, 1), (-2, -1)), ((0, 1), (1, 2), (0, 2)))
    emb = build_epic_embedding(fan)
    nef_hilbert_basis(fan)
    refs = [weakref.ref(fan), weakref.ref(emb)]
    del fan, emb
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def _invert_component_checked(emb, secs, rejected):
    """Chart inversion as it was before its consistency check and place sort
    were dropped, kept as the oracle of
    test_inversion_matches_its_checked_oracle; each chart the check rejects
    is counted in ``rejected``."""
    src, tgt = emb.source, emb.target
    factored = _factored_sections(emb, secs)
    zeros = [tau for tau, fac in enumerate(factored) if fac is None]
    all_places = sorted(
        {p for fac in factored if fac for p in fac[1]},
        key=lambda p: p.sort_key(),
    )
    for si, scone in enumerate(src.max_cones):
        for entry in chart_cover(emb)[si]:
            tcone = tgt.max_cones[entry["target_cone"]]
            if any(row[tau] < 0 for row in tgt.exponent_matrix(tcone) for tau in zeros):
                continue
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

            shifts = []
            for vec in orders.values():
                for rho in vanishing:
                    vec[rho] = INF
                beta_p, _ = _locate_degree(src, tuple(vec), frozenset(vanishing), first=True)
                shifts.append(beta_p.pairings)

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

            if vanishing:
                consistent = True
                for rho, row in zip(scone, src.exponent_matrix(scone)):
                    coord = -sum(sections[r].degree * row[r]
                                 for r in range(src.n_rays) if r not in vanishing)
                    if rho in vanishing:
                        sections[rho] = BinaryForm.zero(coord)
                    elif coord != 0:
                        consistent = False
                        break
                if not consistent:
                    rejected[emb] += 1
                    continue
            return tuple(sections)
    return None


def test_inversion_matches_its_checked_oracle(request):
    """The consistency check chart inversion dropped never rejects a chart:
    off the vanishing rays the lifts' target divisors and the shifts are
    classes.  Nor does the order of the places change a section.  The inputs
    are seeded one-component target tuples with zero sections and the
    components of regular extensions of images of seeded source quasimaps."""
    rejected, seen = Counter(), Counter()
    for name in CONFTEST_FANS + ["segre.json"]:
        emb = embedding_named(request, name)
        rng = random.Random(f"checked inversion/{name}")
        tuples = _target_tuples(emb, rng, 30)
        for _ in range(15):
            q = random_quasimap(emb.source, rng, max_components=3, max_total_length=5)
            tuples += regular_extension(apply_ibar(emb, q)).components
        for secs in tuples:
            got = inverted_sections(emb, secs)
            assert got == _invert_component_checked(emb, secs, rejected), (name, secs)
            if got is None:
                seen["none"] += 1
            else:
                seen["vanishing" if any(f.is_zero for f in got) else "plain"] += 1
    assert not rejected, rejected
    assert seen["vanishing"] >= 200 and seen["plain"] >= 100, seen


def fibre_enumeration_oracle(emb, q, beta, length_cap=None):
    """``fibre_enumeration`` as it was before it inverted the image itself:
    the regular extension is built and inverted with its sections factored
    whole, f's orders at each basepoint are counted by division, and the
    totals are classes."""
    require_valid_embedding(emb)
    if q.fan != emb.target:
        raise ValueError("quasimap target does not match the embedding target")
    if pushforward_curves(emb, beta).pairings != degrees(q)[0].pairings:
        raise ValueError("the quasimap's degree is not the pushforward of the class")
    bps = basepoints(q)
    f = inverted(emb, _twist_away(q, bps))
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


QUADRATIC_PLACES = (Place.finite((1, 0, 1)), Place.finite((-2, 0, 1)))


def _fibre_oracle_draws(fan, rng):
    """Seeded source quasimaps for the fibre oracle: trees of up to three
    components, stable draws moved by a Möbius map per component (every
    other one sending its first basepoint to infinity), and every other one
    of those twisted on one component at a quadratic place by one of the two
    first nonzero effective classes with no negative pairing, which puts a
    basepoint of that class there."""
    draws = [random_quasimap(fan, rng, max_components=3, max_total_length=5)
             for _ in range(8)]
    for i in range(8):
        q = random_stable_quasimap(fan, rng, max_total_length=5)
        maps = [_random_map(rng) for _ in q.components]
        if i % 2 == 0:
            first = basepoints(q)[0]
            maps[first.component] = _random_map(rng, first.place.rational_point().b)
        draws.append(pulled_back(q, maps))
    twists = [c for c in effective_classes(fan, 4) if not c.is_zero() and min(c.pairings) >= 0]
    for q in draws[::2]:
        comp = rng.randrange(q.n_components)
        draws.append(extend_at(q, comp, rng.choice(QUADRATIC_PLACES), -1 * rng.choice(twists[:2])))
    return draws


def test_fibres_match_the_extension_oracle(request):
    """The fibre read off the image and its scan records is repr-equal to the
    one read off its regular extension, on seeded draws (see
    ``_fibre_oracle_draws``) through every conftest fan's built embedding,
    segre.json, bl0p2_product.json and the blow-down, which does not cover
    every chart, with three rounds of draws on segre.json, whose fibres may
    have several elements; the draws reach those, trees, basepoints at
    infinity, at non-integral places and at quadratic places."""
    seen = Counter()
    names = CONFTEST_FANS + ["segre.json", "bl0p2_product.json"]
    rounds = [(embedding_named(request, name), 3 if name == "segre.json" else 1)
              for name in names] + [(blow_down(), 1)]
    for emb, count in rounds:
        rng = random.Random(f"fibre oracle {emb.source.rays} {emb.target.n_rays}")
        for q in [q for _ in range(count) for q in _fibre_oracle_draws(emb.source, rng)]:
            image = apply_ibar(emb, q)
            beta = degrees(q)[0]
            fibre = fibre_enumeration(emb, image, beta)
            assert repr(fibre) == repr(fibre_enumeration_oracle(emb, image, beta)), q
            assert any(equal_quasimaps(f, q) for f in fibre) or not covers_all_charts(emb)
            seen["several" if len(fibre) > 1 else "one" if fibre else "none"] += 1
            seen["tree"] += q.n_components > 1
            for bp in basepoints(image):
                point = bp.place.rational_point()
                seen["quadratic" if point is None else "infinity" if point.is_infinity
                     else "fraction" if type(point.b) is Fraction else "integer"] += 1
    assert min(seen.values()) >= 5, seen
    assert seen["one"] + seen["several"] >= 100, seen


FIBRE_WITHOUT_SYMPY = """
import sys
from toriq.embedding import apply_ibar, build_epic_embedding, fibre_enumeration
from toriq.fan import projective_space_fan
from toriq.forms import BinaryForm, ProjPoint, poly_mul
from toriq.quasimap import Quasimap, degrees

def quintic(*factors):
    poly = (1,)
    for factor in factors:
        poly = poly_mul(poly, factor)
    return BinaryForm.from_poly(5, poly)

p2 = projective_space_fan(2)
z1 = (-1, 1)
secs = (quintic(z1, (2, 0, 1)), quintic(z1, z1, z1, z1, (3, 1)), quintic(z1, z1, z1, (1, 0, 1)))
q = Quasimap(p2, (secs,), markings=((0, ProjPoint(1, 7)), (0, ProjPoint(1, 9))))
assert degrees(q)[0].pairings == (5, 5, 5)
emb = build_epic_embedding(p2)
assert fibre_enumeration(emb, apply_ibar(emb, q), degrees(q)[0]) == (q,)
assert "sympy" not in sys.modules, "a fibre loaded sympy"
"""


def test_a_fibre_factors_no_basepoint_place_again():
    """A p2 quasimap of class 5 with sections (z - 1)(z^2 + 2),
    (z - 1)^4 (z + 3) and (z - 1)^3 (z^2 + 1) has one basepoint, at z = 1, of
    degree 1.  Its regular extension's sections have quartic polynomials,
    which only sympy factors; divided by z - 1 to the scan's orders, what is
    left is at most quadratic.  In a fresh process the fibre of its image is
    the quasimap itself, and sympy is never imported."""
    src = str(Path(toriq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", FIBRE_WITHOUT_SYMPY], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr

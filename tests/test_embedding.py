import gc
import random
import weakref

import pytest

from toriq.cases import fixture_path
from toriq.classes import (CurveClass, curve_class_from_anchor, divisor_class,
                           effective_classes, nef_hilbert_basis)
from toriq.embedding import (EmbeddingSpec, apply_ibar, build_epic_embedding,
                             covers_all_charts, epic_check, fibre_class_pool,
                             fibre_enumeration, invert_through_charts,
                             polytope_lattice_points, pullback_pic, pushforward_curves,
                             validate_embedding)
from toriq.fan import Fan
from toriq.forms import BinaryForm, ProjPoint
from toriq.io import load_embedding
from toriq.quasimap import (Quasimap, basepoints, degrees, equal_quasimaps,
                            regular_extension, same_morphism_sections, stability,
                            validate_quasimap)

from qmgen import random_quasimap


def F(deg, *coeffs):
    return BinaryForm.from_poly(deg, coeffs)


MARKS = ((0, ProjPoint(1, 1)), (0, ProjPoint(1, 2)))


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
                term = e * divisor_class(segre.source, rho)
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


def test_build_with_generator_choice(bl0p2):
    # the generating set {S, S+L} gives a line times a 4-space, with the five
    # quadratic monomials on the big factor
    S = divisor_class(bl0p2, 2)
    L = divisor_class(bl0p2, 0)
    emb = build_epic_embedding(bl0p2, generators=[S, S + L])
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
    candidate = invert_through_charts(emb, ext)
    assert candidate is not None
    for comp in range(ext.n_components):
        assert same_morphism_sections(p2, candidate.sections(comp), ext.sections(comp))


@pytest.mark.parametrize("name", ["p1", "p2", "p3", "bl0p2", "p1xp1", "p2xp1", "f2",
                                  "hexagon", "segre.json"])
def test_fibre_class_pool_matches_filter(request, name):
    """The indexed pool against the filter it replaced: the nonzero effective
    classes of length at most the cap whose pushforward is the degree at the
    basepoint, in enumeration order."""
    if name.endswith(".json"):
        emb = load_embedding(str(fixture_path(name)))
    else:
        emb = build_epic_embedding(request.getfixturevalue(name))
    for cap in range(7):
        candidates = [(pushforward_curves(emb, c).pairings, c)
                      for c in effective_classes(emb.source, cap) if not c.is_zero()]
        pool = fibre_class_pool(emb, cap)
        assert set(pool) == {pairings for pairings, _ in candidates}
        for pairings, classes in pool.items():
            assert list(classes) == [c for pushed, c in candidates if pushed == pairings]


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

"""Non-Fano coverage on the second Hirzebruch surface: the anticanonical
degree vanishes on the rigid section, so every bounded enumeration must fall
back to an honest ample degree.  The witness search also runs on a corpus of
non-Fano targets, where the paper proves nothing and the search's own
docstring proves that it ends; the lemma that proof rests on is checked on
the smooth toric surfaces that two star subdivisions reach from P2 and
F0-F4."""

import random
from operator import add

import pytest

from toriq.basepoint import INF, degree_at_point
from toriq.classes import (CurveClass, ample_functional, curve_class_from_anchor,
                           effective_classes, enumeration_degree, factorizations,
                           is_ample, is_fano, length, nef_hilbert_basis,
                           wall_curve_classes)
from toriq.contraction import StableMapTree, _deterministic_tail, contract, surjectivity_witness
from toriq.embedding import apply_ibar, build_epic_embedding, fibre_enumeration
from toriq.cli import main
from toriq.fan import Fan, product_fan, projective_space_fan, validate_fan
from toriq.forms import BinaryForm, Place, ProjPoint
from toriq.io import dump, quasimap_to_dict
from toriq.quasimap import (Quasimap, basepoints, degrees, equal_quasimaps, extend_at,
                            stability, validate_quasimap)

from qmgen import random_order_vector, random_stable_quasimap
from test_embedding import CONFTEST_FANS, _hirzebruch, _plane_bundle


def _surface(rays):
    """The smooth complete toric surface whose rays, in cyclic order, span
    its two-dimensional cones pairwise."""
    return Fan(2, tuple(rays), tuple((i, (i + 1) % len(rays)) for i in range(len(rays))))


def _self_intersections(rays):
    """The self-intersections D_i^2 of the toric divisors of a surface whose
    rays are in cyclic order: u_(i-1) + u_(i+1) = -D_i^2 u_i."""
    out = []
    for i, u in enumerate(rays):
        s = tuple(map(add, rays[i - 1], rays[(i + 1) % len(rays)]))
        out.append(-(s[0] // u[0] if u[0] else s[1] // u[1]))
    return tuple(out)


def _small_surfaces():
    """The smooth complete toric surfaces with at most six rays reached from
    P2 and F0-F4 by at most two star subdivisions of a cone, one per GL2(Z)
    class: the cyclic self-intersection sequence, up to rotation and
    reflection, is a complete invariant (Fulton, Introduction to Toric
    Varieties, §2.5)."""
    def key(rays):
        seq = _self_intersections(rays)
        return min(t[r:] + t[:r] for t in (seq, seq[::-1]) for r in range(len(t)))

    level = [((1, 0), (0, 1), (-1, -1))] + [((1, 0), (0, 1), (-1, a), (0, -1)) for a in range(5)]
    found = {}
    for _ in range(3):
        for rays in level:
            found.setdefault(key(rays), rays)
        level = [rays[:i + 1] + (tuple(map(add, rays[i], rays[(i + 1) % len(rays)])),)
                 + rays[i + 1:] for rays in level if len(rays) < 6 for i in range(len(rays))]
    return [_surface(rays) for rays in found.values()]


# F3, F4, F2 x P1, P(O + O(3)) over the plane and F1, F2 and F3 blown up
# where the negative section meets a fibre (self-intersections
# (-2, -1, -1, 1, 0), (-3, -1, -1, 2, 0) and (-4, -1, -1, 3, 0)): non-Fano
# targets on which seeded stable draws are fast.  The same blow-up of F4,
# (-5, -1, -1, 4, 0), is left out: its 15 draws take about 3 s, most of it
# building the curve classes of qmgen's effective-class pools, which grow
# with the ample degrees of its wall curves
NON_FANO_CORPUS = {
    "f3": _hirzebruch(3),
    "f4": _hirzebruch(4),
    "f2xp1": product_fan([_hirzebruch(2), projective_space_fan(1)]),
    "p2_bundle_3": _plane_bundle(3),
    "bl_f1": _surface(((1, 0), (1, 1), (0, 1), (-1, 1), (0, -1))),
    "bl_f2": _surface(((1, 0), (1, 1), (0, 1), (-1, 2), (0, -1))),
    "bl_f3": _surface(((1, 0), (1, 1), (0, 1), (-1, 3), (0, -1))),
}

# the non-Fano surface with six rays whose wall curves have ample degrees 1 to 10
S6 = Fan(2, ((1, 0), (1, 1), (1, 2), (0, 1), (-1, 2), (0, -1)),
         ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)))


def test_f2_is_valid_but_not_fano(f2):
    assert validate_fan(f2) == []
    assert not is_fano(f2)


def test_f2_rigid_section_has_length_zero(f2):
    rigid = curve_class_from_anchor(f2, (1, 0))
    assert rigid.pairings == (1, -2, 1, 0)
    assert length(rigid) == 0


def test_f2_cones_and_ample(f2):
    assert sorted({w.pairings for w in wall_curve_classes(f2)}) == \
        [(0, 1, 0, 1), (1, -2, 1, 0), (1, 0, 1, 2)]
    assert sorted(d.coords for d in nef_hilbert_basis(f2)) == [(0, 1), (1, 0)]
    assert is_ample(ample_functional(f2))


def test_f2_bounded_enumeration_is_finite(f2):
    classes = effective_classes(f2, 4)
    assert len(classes) == 15
    fibre = curve_class_from_anchor(f2, (0, 1))
    rigid = curve_class_from_anchor(f2, (1, 0))
    pairs = factorizations(f2, fibre + rigid)
    assert [(a.pairings, b.pairings) for a, b in pairs] == \
        [((0, 1, 0, 1), (1, -2, 1, 0))]


def test_f2_witness_round_trip(f2):
    def F(deg, *coeffs):
        return BinaryForm.from_poly(deg, coeffs)

    q = Quasimap(f2, ((F(1, 1, 1), BinaryForm.zero(-1), F(1, 2, 1), F(1, 0, 1)),),
                 markings=((0, ProjPoint(1, 5)), (0, ProjPoint(1, 7))))
    assert validate_quasimap(q) == []
    assert stability(q, "quasimap")
    assert len(basepoints(q)) == 1
    witness = surjectivity_witness(q)
    assert stability(witness.quasimap, "map")
    assert equal_quasimaps(contract(witness), q)


def test_f2_fibre_needs_no_cap(f2):
    # the default cap is the class's own ample degree; a larger one finds nothing more
    emb = build_epic_embedding(f2)
    rng = random.Random(2)
    for _ in range(10):
        q = random_stable_quasimap(f2, rng)
        beta = degrees(q)[0]
        image = apply_ibar(emb, q)
        fibre = fibre_enumeration(emb, image, beta)
        assert fibre == fibre_enumeration(emb, image, beta,
                                          length_cap=enumeration_degree(beta) + 3)
        assert any(equal_quasimaps(f, q) for f in fibre)


MARKS = ((0, ProjPoint(1, 1)), (0, ProjPoint(1, 2)))


def rigid_section_map(f2):
    """A basepoint-free map of the rigid section's class (1, -2, 1, 0) with
    two markings: its anticanonical degree is 0, but its class is not."""
    return Quasimap(f2, ((BinaryForm.from_poly(1, (1,)), BinaryForm.zero(-2),
                          BinaryForm.from_poly(1, (0, 1)), BinaryForm.constant(1)),),
                    markings=MARKS)


def test_f2_map_stability_defaults_to_the_ample_functional(f2):
    """Map mode and ``StableMapTree`` agree on a non-Fano target: a component
    of nonzero class is stable even where its anticanonical degree is 0."""
    q = rigid_section_map(f2)
    assert validate_quasimap(q) == [] and basepoints(q) == ()
    assert stability(q, "map") is True
    assert StableMapTree(q).quasimap == q

    # a constant map needs three special points, and has two
    point = Quasimap(f2, ((BinaryForm.constant(1),) * 4,), markings=MARKS)
    assert validate_quasimap(point) == [] and basepoints(point) == ()
    assert stability(point, "map") is False
    with pytest.raises(ValueError, match="not stable"):
        StableMapTree(point)


def test_descent_is_measured_by_the_ample_degree(f2, tmp_path):
    """The first of 60 draws ``random_stable_quasimap(f2, random.Random(2),
    max_total_length=8)`` whose graft does not lower the sum of the squared
    anticanonical degrees: its basepoint at z has class 2E + F, the graft
    leaves one of class F, and both have anticanonical degree 2, as the
    tail's extension has class 2E.  That class is not 0, so its ample degree
    is positive and the measure of ``surjectivity_witness``'s proof falls:
    the search finds a witness, in the library and at the CLI."""
    q = Quasimap(f2, ((BinaryForm.from_poly(2, (0, 0, -2)), BinaryForm.constant(-1),
                       BinaryForm.from_poly(2, (0, 0, -1)),
                       BinaryForm.from_poly(4, (0, -2, -1, -2, 2))),),
                 markings=((0, ProjPoint(1, 5)), (0, ProjPoint(1, 6))))
    assert validate_quasimap(q) == [] and stability(q, "quasimap")
    assert degrees(q)[0].pairings == (2, 0, 2, 4)
    (bp,) = basepoints(q)
    assert bp.degree.pairings == (2, -3, 2, 1) and length(bp.degree) == 2
    witness = surjectivity_witness(q)
    assert stability(witness.quasimap, "map") and basepoints(witness.quasimap) == ()
    assert equal_quasimaps(contract(witness), q)

    path = tmp_path / "f2_descent.json"
    dump(quasimap_to_dict(q), str(path))
    assert main(["witness", str(path)]) == 0


def test_witness_draws_on_f2_all_descend(f2):
    """Every seeded stable draw on F2 gets a witness whose contraction is the
    draw, as the lemma of ``surjectivity_witness`` proves on any projective
    target; 6 of these 60 have a graft that does not lower the sum of the
    squared anticanonical degrees, which is 0 on the rigid section."""
    rng = random.Random(2)
    for _ in range(60):
        q = random_stable_quasimap(f2, rng, max_total_length=8)
        witness = surjectivity_witness(q)
        assert equal_quasimaps(contract(witness), q)


@pytest.mark.parametrize("name", sorted(NON_FANO_CORPUS))
def test_witness_draws_on_the_non_fano_corpus_all_descend(name):
    """Every seeded stable draw on a non-Fano target gets a witness: a
    stable map whose contraction is the draw."""
    fan = NON_FANO_CORPUS[name]
    assert validate_fan(fan) == [] and not is_fano(fan)
    rng = random.Random(3)
    for _ in range(15):
        q = random_stable_quasimap(fan, rng, max_total_length=6)
        witness = surjectivity_witness(q)
        assert StableMapTree(witness.quasimap) == witness
        assert equal_quasimaps(contract(witness), q)


def test_effective_classes_have_two_positive_pairings(request):
    """On a smooth projective toric variety every nonzero effective class
    beta pairs positively with at least two toric divisors.  Take D_j . beta
    > 0 and a maximal cone sigma holding rho_j.  An ample class has a
    representative sum a_rho D_rho with a_rho = 0 on sigma and a_rho > 0 off
    it, as its support function is strictly convex (Cox-Little-Schenck,
    Toric Varieties, §6.1).  It is positive on beta, since the
    torus-invariant curves span the Mori cone (§6.3), so D_rho . beta > 0
    for some rho off sigma, which is not rho_j."""
    fans = [request.getfixturevalue(name) for name in CONFTEST_FANS]
    for fan in fans + list(NON_FANO_CORPUS.values()) + [S6]:
        for beta in effective_classes(fan, 6):
            if not beta.is_zero():
                assert sum(d > 0 for d in beta.pairings) >= 2, (fan, beta.pairings)


def test_tails_are_never_a_constant_map_twisted_at_one_place(request):
    """The lemma of ``surjectivity_witness``: the tail ``_deterministic_tail``
    builds for a basepoint of class beta never has an extension of class 0
    with exactly one basepoint.  Seeded order vectors give beta and the
    twisted host's values at the node, 0 exactly where the order is INF or
    exceeds the pairing.  Some tails do have an extension of class 0, all
    with two or more basepoints, so the lemma cannot be tightened to "every
    tail's extension has a nonzero class"."""
    surfaces = _small_surfaces()  # P2, F0-F4, 5 blow-ups with 5 rays, 15 with 6
    assert sorted(f.n_rays for f in surfaces) == [3] + [4] * 5 + [5] * 5 + [6] * 15
    assert all(validate_fan(f) == [] for f in surfaces)
    fans = (surfaces + [request.getfixturevalue(name) for name in CONFTEST_FANS]
            + list(NON_FANO_CORPUS.values()) + [S6])
    rng = random.Random(38)
    class_zero = 0
    for fan in fans:
        for _ in range(40):
            orders = random_order_vector(fan, rng)
            beta, _ = degree_at_point(fan, orders)
            if beta.is_zero():
                continue
            values = tuple(0 if o is INF or o > d else rng.choice((-2, -1, 1, 3))
                           for o, d in zip(orders.orders, beta.pairings))
            tail, _ = _deterministic_tail(values, beta, rng.randrange(4))
            assert all(not s.is_zero for s, d in zip(tail, beta.pairings) if d > 0)
            assert tuple(s.value_at(ProjPoint(1, 0)) for s in tail) == values
            bps = basepoints(Quasimap._unchecked(fan, (tail,), (), ()))
            assert all(bp.place.rational_point() not in (None, ProjPoint(1, 0)) for bp in bps)
            gamma = beta
            for bp in bps:
                gamma = gamma - bp.degree
            if gamma.is_zero():
                class_zero += 1
                assert len(bps) >= 2, (fan, beta.pairings, values)
    assert class_zero > 0


def _oda_fan():
    """Oda's smooth complete threefold that is not projective: P3's fan with
    each edge from -e1-e2-e3 to e_i subdivided by their sum, and the three
    split faces cut by diagonals that turn the same way around that ray.
    The three wall classes across the diagonals sum to 0, so no ample class
    is positive on all of them (Oda, Convex Bodies and Algebraic Geometry,
    §2.3)."""
    e, w = (0, 1, 2), (4, 5, 6)
    rays = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (0, -1, -1), (-1, 0, -1), (-1, -1, 0))
    cones = [e]
    for i in range(3):
        j = (i + 1) % 3
        cones += [(3, w[i], w[j]), (w[i], e[i], e[j]), (w[i], e[j], w[j])]
    return Fan(3, rays, tuple(tuple(sorted(c)) for c in cones))


def test_witness_refuses_a_non_projective_target(tmp_path, capsys):
    """The search's descent needs a degree positive on effective classes, so
    a target with no ample class is refused before any graft, in the
    library and at the CLI (exit 1)."""
    fan = _oda_fan()
    assert validate_fan(fan) == []
    constant = Quasimap(fan, ((BinaryForm.constant(1),) * 7,),
                        markings=((0, ProjPoint(1, 1)), (0, ProjPoint(1, 2))))
    beta = CurveClass(fan, (0, 1, 1, 0, 1, 0, 0))
    q = extend_at(constant, 0, Place.of_point(ProjPoint(1, 0)), -1 * beta)
    assert validate_quasimap(q) == [] and stability(q, "quasimap")
    assert [bp.degree for bp in basepoints(q)] == [beta]
    with pytest.raises(ValueError, match="not projective"):
        surjectivity_witness(q)

    path = tmp_path / "oda.json"
    dump(quasimap_to_dict(q), str(path))
    assert main(["witness", str(path)]) == 1
    assert "not projective" in capsys.readouterr().err

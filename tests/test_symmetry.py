"""Symmetry tests: a quasimap's invariants do not depend on the coordinate on
each of its components.  A Möbius map per component pulls the sections back
(``pulled_back``) and the node ends and markings by the inverse map; the
basepoints must move by that inverse map and keep their degrees, order
vectors and lengths, and the regular extension must be the pulled-back one.
Integer maps carry the integral basepoints of the seeded stable draws to
non-integral places and to infinity.  Nor do fibres depend on the
representative of a point under the torus G that the target is the quotient
by: scaling the image, or the source before transport, by an element of G
leaves the fibre the same up to G."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from toriq.basepoint import length_at_point
from toriq.cases import fixture_path
from toriq.embedding import apply_ibar, fibre_enumeration
from toriq.forms import BinaryForm, ProjPoint, poly_mul
from toriq.io import load_embedding
from toriq.quasimap import (Quasimap, basepoints, degrees, equal_quasimaps, regular_extension,
                            stability, validate_quasimap)

from qmgen import random_effective_class, random_stable_quasimap, scaled
from test_quasimap import basepoints_oracle


def _power(poly, k):
    out = (1,)
    for _ in range(k):
        out = poly_mul(out, poly)
    return out


def pulled_back_form(form, m):
    """The form F(X, Y) composed with (X, Y) -> (dX + cY, bX + aY) for
    m = (a, b, c, d): its dehomogenization is (cz + d)^deg p((az + b)/(cz + d)),
    so it vanishes at w exactly when the form vanishes at (aw + b)/(cw + d)."""
    a, b, c, d = m
    total = [0] * (form.degree + 1)
    for k, coef in enumerate(form.coeffs):
        if coef:
            for i, x in enumerate(poly_mul(_power((d, c), form.degree - k), _power((b, a), k))):
                total[i] += coef * x
    return BinaryForm(form.degree, total) if form.degree >= 0 else form


def pulled_back_point(point, m):
    """The point that ``m`` carries to ``point``: [ax - cy : dy - bx] for
    ``point`` = [x : y]."""
    a, b, c, d = m
    return ProjPoint(a * point.a - c * point.b, d * point.b - b * point.a)


def pulled_back(q, maps):
    """q with each component pulled back by its map."""
    def end(comp, point):
        return comp, pulled_back_point(point, maps[comp])

    return Quasimap(q.fan, [[pulled_back_form(f, m) for f in secs]
                            for secs, m in zip(q.components, maps)],
                    [(end(*e), end(*f)) for e, f in q.nodes], [end(*e) for e in q.markings])


def _random_map(rng, root=None):
    """A seeded integer map (a, b, c, d) of nonzero determinant, entries in
    -3..3; with an integer ``root``, a = c * root, so that the map carries
    infinity to ``root`` and a basepoint there pulls back to infinity."""
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if root is not None:
            c = c or 1
            a = c * root
        if a * d != b * c:
            return a, b, c, d


@pytest.mark.parametrize("name", ["p1", "p2", "p3", "bl0p2", "p1xp1", "p2xp1", "f2", "hexagon"])
def test_moebius_pullback_moves_places_and_keeps_invariants(request, name):
    """15 seeded stable draws per fan, each pulled back by a seeded integer
    Möbius map, every third one sending its first basepoint to infinity:
    still valid and as stable; basepoints at the pulled-back points with the
    same degrees, order vectors and lengths, and repr-equal to the unfused
    scan; the regular extension equal to the pulled-back one, of the same
    class."""
    fan = request.getfixturevalue(name)
    rng = random.Random(f"moebius/{name}")
    moved = Counter()
    for i in range(15):
        q = random_stable_quasimap(fan, rng, max_total_length=6)
        maps = [_random_map(rng) for _ in q.components]
        if i % 3 == 0:  # the first basepoint to infinity
            first = basepoints(q)[0]
            maps[first.component] = _random_map(rng, first.place.rational_point().b)
        p = pulled_back(q, maps)
        assert validate_quasimap(p) == []
        assert stability(p) == stability(q)
        expected = {}
        for bp in basepoints(q):
            point = pulled_back_point(bp.place.rational_point(), maps[bp.component])
            expected[bp.component, point] = bp
        bps = basepoints(p)
        assert repr(bps) == repr(basepoints_oracle(p))
        got = {(bp.component, bp.place.rational_point()): bp for bp in bps}
        assert got.keys() == expected.keys()
        for key, bp in got.items():
            assert (bp.degree, bp.orders) == (expected[key].degree, expected[key].orders)
            assert length_at_point(fan, bp.orders) == length_at_point(fan, expected[key].orders)
        extension = regular_extension(p)
        assert degrees(extension)[0] == degrees(regular_extension(q))[0]
        assert equal_quasimaps(extension, pulled_back(regular_extension(q), maps))
        for _, point in got:
            moved["infinity" if point.is_infinity else
                  "fraction" if type(point.b) is Fraction else "integer"] += 1
    assert moved["infinity"] >= 5 and moved["fraction"] >= 5, moved


def torus_scaled(q, rng):
    """q with each section of ray rho scaled by t^a_rho, for a seeded rational
    t and the pairings a of a seeded effective class of q's fan: an element of
    G, since a character pairs to 0 with every class, so the result is
    ``equal_quasimaps`` to q."""
    a = random_effective_class(q.fan, rng, 4).pairings
    t = rng.choice((2, -3, Fraction(1, 2), Fraction(-2, 3)))
    return Quasimap(q.fan, [[scaled(f, t ** d) for f, d in zip(secs, a)] for secs in q.components],
                    q.nodes, q.markings)


@pytest.mark.parametrize("name", ["segre.json", "bl0p2_product.json"])
def test_fibres_do_not_see_the_torus(name):
    """On 25 seeded stable draws: the fibre of the image scaled by an element
    of G has the unscaled fibre's size, and each of its elements is
    ``equal_quasimaps`` to exactly one of the unscaled fibre's; the fibre of
    the image of the source scaled by an element of G contains that scaled
    source."""
    emb = load_embedding(str(fixture_path(name)))
    rng = random.Random(f"torus/{name}")
    sizes = Counter()
    for _ in range(25):
        q = random_stable_quasimap(emb.source, rng, max_total_length=5)
        beta = degrees(q)[0]
        image = apply_ibar(emb, q)
        fibre = fibre_enumeration(emb, image, beta)
        moved = torus_scaled(image, rng)
        assert equal_quasimaps(moved, image)
        moved_fibre = fibre_enumeration(emb, moved, beta)
        assert len(moved_fibre) == len(fibre)
        for g in moved_fibre:
            assert sum(equal_quasimaps(g, f) for f in fibre) == 1
        source = torus_scaled(q, rng)
        assert any(equal_quasimaps(f, source)
                   for f in fibre_enumeration(emb, apply_ibar(emb, source), beta))
        sizes[len(fibre)] += 1
    assert sizes[1] >= 5, sizes
    if name == "segre.json":
        assert sizes[2] >= 3, sizes

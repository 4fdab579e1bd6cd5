"""Symmetry tests: a quasimap's invariants do not depend on the coordinate on
each of its components.  A Möbius map per component pulls the sections back
(``pulled_back``) and the node ends and markings by the inverse map; the
basepoints must move by that inverse map and keep their degrees, order
vectors and lengths, and the regular extension must be the pulled-back one.
Integer maps carry the integral basepoints of the seeded stable draws to
non-integral places and to infinity."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from toriq.basepoint import length_at_point
from toriq.forms import BinaryForm, ProjPoint, poly_mul
from toriq.quasimap import (Quasimap, basepoints, degrees, equal_quasimaps, regular_extension,
                            stability, validate_quasimap)

from qmgen import random_stable_quasimap
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

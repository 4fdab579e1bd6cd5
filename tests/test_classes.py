import random
from fractions import Fraction
from itertools import product
from math import ceil, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toriq.classes import (CurveClass, DivisorClass, _degree_functional, _dot, _in_dual,
                           _truncated_cone_lattice_points, ample_functional, anchor_rays,
                           anticanonical_class, beta_a_sigma, curve_class_from_anchor,
                           divisor_class, divisor_from_ray_coefficients,
                           effective_classes, enumeration_degree, factorizations,
                           is_ample, is_effective, is_fano, is_irreducible, is_nef,
                           length, nef_extreme_rays, nef_hilbert_basis, picard_rank,
                           relaxed_surjectivity_condition, wall_curve_classes)
from toriq.embedding import (EmbeddingSpec, _pull_back_character, apply_ibar,
                             build_epic_embedding, pushforward_curves, validate_embedding)
from toriq.fan import Fan, locate_cones, product_fan, projective_space_fan, walls
from toriq.quasimap import degrees

from qmgen import random_quasimap
from test_embedding import CONFTEST_FANS, _corrupted, _solve_character, embedding_named


def S(fan):
    return curve_class_from_anchor(fan, (1, 0))


def E(fan):
    return curve_class_from_anchor(fan, (0, 1))


def test_curve_class_rejects_bad_pairings(p2):
    with pytest.raises(ValueError):
        CurveClass(p2, (1, 0, 0))


def test_integral_class_arithmetic_stays_int(bl0p2):
    e = CurveClass(bl0p2, (0, 1, 1, -1))
    s = CurveClass(bl0p2, (1, 0, 0, 1))
    integral = [e + s, e - s, 3 * e, e * -2,
                beta_a_sigma(bl0p2, {0: 1, 2: 2}, (1, 3)),
                beta_a_sigma(bl0p2, (2, 5, 1, 7), (1, 3))]
    assert [b.pairings for b in integral] == [
        (1, 1, 1, 0), (-1, 1, 1, -2), (0, 3, 3, -3), (0, -2, -2, 2),
        (1, 2, 2, -1), (2, 1, 1, 1)]
    for beta in integral:
        assert all(type(x) is int for x in beta.pairings)
    with pytest.raises(TypeError):
        beta_a_sigma(bl0p2, {0: Fraction(1, 2), 2: Fraction(3, 2)}, (1, 3))
    flags = CurveClass(bl0p2, (True, False, False, True))
    assert flags.pairings == (1, 0, 0, 1)
    assert all(type(x) is int for x in flags.pairings)
    message = r"^pairing vector \(1, 0, 0, 0\) is not a curve class \(it pairs " \
              r"inconsistently with the ray relations\)$"
    with pytest.raises(ValueError, match=message):
        CurveClass(bl0p2, (1, 0, 0, 0))
    with pytest.raises(TypeError):
        CurveClass(bl0p2, (Fraction(1, 2), 0, 0, 0))


def test_rational_values_and_scalars_are_type_errors(bl0p2):
    """Both lattices are free, so a Fraction, even an integral one, is not a
    coordinate or a scalar, as in the constructors of fans and order vectors."""
    s = CurveClass(bl0p2, (1, 0, 0, 1))
    d = DivisorClass(bl0p2, (1, 0))
    for bad in (Fraction(1, 2), Fraction(2)):
        calls = [lambda: CurveClass(bl0p2, (bad, 0, 0, 1)),
                 lambda: DivisorClass(bl0p2, (bad, 0)),
                 lambda: beta_a_sigma(bl0p2, {0: bad, 2: 1}, (1, 3)),
                 lambda: bad * s, lambda: s * bad, lambda: bad * d, lambda: d * bad]
        for call in calls:
            with pytest.raises(TypeError):
                call()


def test_divisor_class_examples(p2, bl0p2):
    assert divisor_class(p2, 2).coords == (1,)
    assert divisor_class(p2, 0).coords == (1,)
    # basis ([D0], [D2]) on the blow-up: [D1] = S, [D3] = L - S
    assert divisor_class(bl0p2, 1).coords == (0, 1)
    assert divisor_class(bl0p2, 3).coords == (1, -1)


def test_beta_a_sigma_examples(p2, bl0p2):
    line = beta_a_sigma(p2, {2: 1}, (0, 1))
    assert line.pairings == (1, 1, 1)
    e = beta_a_sigma(bl0p2, {0: 0, 2: 1}, (1, 3))
    assert e.pairings == (0, 1, 1, -1)
    zero = beta_a_sigma(bl0p2, {0: 0, 2: 0}, (1, 3))
    assert zero.pairings == (0, 0, 0, 0)


def test_wall_classes(p2, bl0p2, p1xp1):
    assert [w.pairings for w in wall_curve_classes(p2)] == [(1, 1, 1)] * 3
    by_wall = {facet: cls.pairings
               for (facet, _), cls in zip(walls(bl0p2), wall_curve_classes(bl0p2))}
    assert by_wall == {(0,): (1, 1, 1, 0), (1,): (1, 0, 0, 1),
                       (2,): (1, 0, 0, 1), (3,): (0, 1, 1, -1)}
    assert sorted(w.pairings for w in wall_curve_classes(p1xp1)) == \
        [(0, 0, 1, 1), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 0, 0)]


def test_cone_tests(bl0p2):
    assert is_fano(bl0p2)
    s_div = divisor_class(bl0p2, 2)
    assert is_nef(s_div) and not is_ample(s_div)
    assert is_effective(CurveClass(bl0p2, (0, 0, 0, 0)))
    assert relaxed_surjectivity_condition(bl0p2, 8)
    with pytest.raises(ValueError):
        relaxed_surjectivity_condition(bl0p2, None)


def test_anticanonical_bl0p2(bl0p2):
    anti = anticanonical_class(bl0p2)
    assert anti.pair(S(bl0p2)) == 2
    assert anti.pair(E(bl0p2)) == 1
    assert is_ample(anti)


def test_nef_hilbert_basis(p2, bl0p2, p1xp1):
    assert [d.coords for d in nef_hilbert_basis(p2)] == [(1,)]
    assert sorted(d.coords for d in nef_hilbert_basis(bl0p2)) == [(0, 1), (1, 0)]
    assert sorted(d.coords for d in nef_hilbert_basis(p1xp1)) == [(0, 1), (1, 0)]


def test_length_examples(bl0p2, p2):
    assert length(E(bl0p2)) == 1
    assert length(S(bl0p2)) == 2
    assert length(S(bl0p2) + E(bl0p2)) == 3
    assert length(CurveClass(bl0p2, (0, 0, 0, 0))) == 0
    assert length(beta_a_sigma(p2, {2: 1}, (0, 1))) == 3


def test_factorizations(bl0p2, p2):
    L = S(bl0p2) + E(bl0p2)
    pairs = factorizations(bl0p2, L)
    assert [(a.pairings, b.pairings) for a, b in pairs] == \
        [((0, 1, 1, -1), (1, 0, 0, 1))]
    assert is_irreducible(bl0p2, S(bl0p2))
    assert is_irreducible(bl0p2, E(bl0p2))
    line = beta_a_sigma(p2, {2: 1}, (0, 1))
    assert factorizations(p2, line) == []
    two = 2 * line
    assert [(a.pairings, b.pairings) for a, b in factorizations(p2, two)] == \
        [((1, 1, 1), (1, 1, 1))]
    with pytest.raises(ValueError):
        factorizations(p2, CurveClass(p2, (0, 0, 0)))


def test_duality_pairing_consistency(bl0p2):
    # the anchor contraction agrees with the full pairing expansion
    for beta in wall_curve_classes(bl0p2):
        for rho in range(bl0p2.n_rays):
            d = divisor_class(bl0p2, rho)
            assert d.pair(beta) == beta.pairings[rho]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
       st.integers(0, 3))
def test_beta_a_sigma_inequalities_iff_cone_membership(a, cone_idx):
    fan = Fan(2, ((0, -1), (1, 0), (-1, 1), (0, 1)), ((1, 3), (2, 3), (0, 2), (0, 1)))
    sigma = fan.max_cones[cone_idx]
    beta = beta_a_sigma(fan, {i: a[i] for i in fan.cone_complement(sigma)}, sigma)
    u = tuple(sum(a[i] * fan.rays[i][k] for i in range(4)) for k in range(2))
    holds = all(a[i] >= beta.pairings[i] for i in sigma)
    assert holds == (cone_idx in locate_cones(fan, u))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
def test_length_additive(a, b, c, d):
    fan = Fan(2, ((0, -1), (1, 0), (-1, 1), (0, 1)), ((1, 3), (2, 3), (0, 2), (0, 1)))
    b1 = curve_class_from_anchor(fan, (a, b))
    b2 = curve_class_from_anchor(fan, (c, d))
    assert length(b1 + b2) == length(b1) + length(b2)


def test_effective_cone_matches_wall_combinations(p2, bl0p2, p1xp1, p3, p2xp1):
    # lattice points of the effective cone up to length 6 equal N-combinations
    # of the wall classes, on all bundled Fano fans
    for fan in (p2, bl0p2, p1xp1, p3, p2xp1):
        walls_anchor = sorted({w.anchor_coords for w in wall_curve_classes(fan)})
        combos = {tuple(0 for _ in walls_anchor[0])}
        frontier = {tuple(0 for _ in walls_anchor[0])}
        while frontier:
            new = set()
            for point in frontier:
                for w in walls_anchor:
                    candidate = tuple(p + x for p, x in zip(point, w))
                    beta = curve_class_from_anchor(fan, candidate)
                    if length(beta) <= 6 and candidate not in combos:
                        combos.add(candidate)
                        new.add(candidate)
            frontier = new
        cone_points = {c.anchor_coords for c in effective_classes(fan, 6)}
        assert cone_points == combos


def test_effective_nonexamples(bl0p2):
    assert not is_effective(S(bl0p2) - E(bl0p2) - E(bl0p2))
    assert is_effective(S(bl0p2) - 0 * E(bl0p2))


# Oracles: the constructions each class decision replaced, kept verbatim in
# spirit so that the one definition in classes is compared against them.

def _divisor_class_oracle(fan, rho):
    anchor = anchor_rays(fan)
    if rho in anchor:
        return DivisorClass(fan, tuple(int(i == rho) for i in anchor))
    sigma0 = fan.max_cones[0]
    row = fan.exponent_matrix(sigma0)[sigma0.index(rho)]
    return DivisorClass(fan, tuple(-row[i] for i in anchor))


def _term_sum_oracle(fan, coeffs):
    """The divisor map as a sum of scaled boundary divisor classes."""
    total = DivisorClass(fan, (0,) * len(anchor_rays(fan)))
    for i, c in enumerate(coeffs):
        if c:
            total = total + c * _divisor_class_oracle(fan, i)
    return total


def _wall_relation_oracle(fan):
    """Wall classes read off the relation u_i + u_j - sum c_rho u_rho = 0
    between the two rays off the wall and the wall's rays."""
    out = []
    for facet, (ci, cj) in walls(fan):
        extra_i = next(iter(set(fan.max_cones[ci]) - set(facet)))
        extra_j = next(iter(set(fan.max_cones[cj]) - set(facet)))
        pairings = [0] * fan.n_rays
        pairings[extra_i] = pairings[extra_j] = 1
        for rho, row in zip(fan.max_cones[ci], fan.exponent_matrix(fan.max_cones[ci])):
            if rho != extra_i:
                pairings[rho] = -row[extra_j]
        out.append(CurveClass(fan, tuple(pairings)))
    return out


def _is_nef_oracle(d):
    return all(d.pair(w) >= 0 for w in _wall_relation_oracle(d.fan))


def _is_ample_oracle(d):
    return all(d.pair(w) > 0 for w in _wall_relation_oracle(d.fan))


def _is_effective_oracle(beta):
    anchor = anchor_rays(beta.fan)
    return all(sum(c * beta.pairings[i] for c, i in zip(d.coords, anchor)) >= 0
               for d in nef_extreme_rays(beta.fan))


def _closure_cone_points(generators, is_member, functional, bound):
    if bound < 0:
        return []
    vertices = [tuple(Fraction(0) for _ in generators[0])]
    for g in generators:
        vertices.append(tuple(Fraction(bound) * x / functional(g) for x in g))
    ranges = [range(ceil(min(xs)), floor(max(xs)) + 1) for xs in zip(*vertices)]
    return [x for x in product(*ranges) if functional(x) <= bound and is_member(x)]


def _mori_oracle(fan):
    seen = []
    for beta in _wall_relation_oracle(fan):
        if beta.anchor_coords not in seen:
            seen.append(beta.anchor_coords)
    return seen


def _effective_classes_oracle(fan, bound):
    nef = nef_extreme_rays(fan)
    fun_anchor = anticanonical_class(fan).coords if is_fano(fan) else ample_functional(fan).coords

    def fun(vec):
        return sum(a * b for a, b in zip(fun_anchor, vec))

    def member(vec):
        return all(sum(c * v for c, v in zip(d.coords, vec)) >= 0 for d in nef)

    pts = _closure_cone_points(_mori_oracle(fan), member, fun, bound)
    return [curve_class_from_anchor(fan, p) for p in sorted(pts)]


def _nef_hilbert_basis_oracle(fan):
    gens = _mori_oracle(fan)
    rank = picard_rank(fan)
    extremes = nef_extreme_rays(fan)

    def fun(vec):
        return sum(sum(g[i] * vec[i] for i in range(rank)) for g in gens)

    def member(vec):
        return all(sum(g[i] * vec[i] for i in range(rank)) >= 0 for g in gens)

    cap = fun([sum(d.coords[i] for d in extremes) for i in range(rank)])
    pts = [p for p in _closure_cone_points([d.coords for d in extremes], member, fun, cap)
           if any(p)]
    basis = [p for p in pts
             if not any(fun(q) < fun(p) and any(a - b for a, b in zip(p, q))
                        and member(tuple(a - b for a, b in zip(p, q))) for q in pts)]
    return [DivisorClass(fan, p) for p in sorted(basis)]


def _factorizations_oracle(fan, beta, bound):
    keys = set()
    for part in _effective_classes_oracle(fan, min(enumeration_degree(beta) - 1, bound)):
        rest = beta - part
        if not part.is_zero() and not rest.is_zero() and _is_effective_oracle(rest):
            keys.add(tuple(sorted([part.anchor_coords, rest.anchor_coords])))
    return [(curve_class_from_anchor(fan, a), curve_class_from_anchor(fan, b))
            for a, b in sorted(keys)]


def _relabelled(fan, rng):
    """``fan`` in another lattice basis, a signed permutation of the
    coordinates followed by one shear, with its rays and cones reordered."""
    n = fan.dim
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    rays = [[s * ray[p] for p, s in zip(perm, signs)] for ray in fan.rays]
    if n > 1:
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        for ray in rays:
            ray[i] += c * ray[j]
    order = rng.sample(range(fan.n_rays), fan.n_rays)
    new_index = {old: new for new, old in enumerate(order)}
    cones = [tuple(new_index[i] for i in cone) for cone in fan.max_cones]
    rng.shuffle(cones)
    return Fan(n, tuple(tuple(rays[old]) for old in order), tuple(cones))


@pytest.fixture(scope="module")
def base_fans(request):
    p = projective_space_fan
    base = [request.getfixturevalue(name) for name in CONFTEST_FANS]
    return base + [product_fan([p(1)] * 3), product_fan([p(2), p(2)]), product_fan([p(2), p(3)])]


@pytest.fixture(scope="module")
def oracle_fans(base_fans):
    rng = random.Random(2305)
    return base_fans + [_relabelled(rng.choice(base_fans), rng) for _ in range(20)]


def _ints(values):
    return all(type(x) is int for x in values)


def test_divisor_map_and_wall_classes_match_their_oracles(oracle_fans):
    rng = random.Random(71)
    for fan in oracle_fans:
        walls_now = wall_curve_classes(fan)
        assert [w.pairings for w in walls_now] == \
            [w.pairings for w in _wall_relation_oracle(fan)]
        assert all(_ints(w.pairings) for w in walls_now)
        vectors = [tuple(int(i == rho) for i in range(fan.n_rays)) for rho in range(fan.n_rays)]
        vectors += [(1,) * fan.n_rays, (0,) * fan.n_rays]
        vectors += [tuple(rng.randint(-3, 3) for _ in range(fan.n_rays)) for _ in range(6)]
        for v in vectors:
            d = divisor_from_ray_coefficients(fan, v)
            assert d.coords == _term_sum_oracle(fan, v).coords and _ints(d.coords)
        for rho in range(fan.n_rays):
            assert divisor_class(fan, rho).coords == _divisor_class_oracle(fan, rho).coords
        with pytest.raises(ValueError, match="one coefficient per ray"):
            divisor_from_ray_coefficients(fan, (1,) * (fan.n_rays + 1))


def test_cone_tests_match_their_oracles(oracle_fans):
    rng = random.Random(72)
    for fan in oracle_fans:
        rank = picard_rank(fan)
        divisors = [divisor_class(fan, rho) for rho in range(fan.n_rays)]
        divisors += [anticanonical_class(fan)] + list(nef_hilbert_basis(fan))
        divisors += [DivisorClass(fan, tuple(rng.randint(-2, 3) for _ in range(rank)))
                     for _ in range(8)]
        for d in divisors:
            assert is_nef(d) == _is_nef_oracle(d)
            assert is_ample(d) == _is_ample_oracle(d)
        for _ in range(8):
            beta = curve_class_from_anchor(fan, tuple(rng.randint(-2, 3) for _ in range(rank)))
            assert is_effective(beta) == _is_effective_oracle(beta)


def test_enumerations_match_their_closure_oracles(oracle_fans, base_fans):
    # the integer corners bound the same boxes as the Fraction vertices, so the
    # two cones' truncations list the same points in the same order
    for fan in base_fans:
        gens = _mori_oracle(fan)
        extremes = [d.coords for d in nef_extreme_rays(fan)]
        degree = _degree_functional(fan).coords
        total = tuple(map(sum, zip(*gens)))
        for bound in range(13):
            for cone, dual, functional in ((gens, extremes, degree), (extremes, gens, total)):
                assert _truncated_cone_lattice_points(cone, dual, functional, bound) == \
                    _closure_cone_points(cone, lambda x: _in_dual(dual, x),
                                         lambda x: _dot(functional, x), bound), (fan, bound)
    for fan in oracle_fans:
        basis = nef_hilbert_basis(fan)
        assert [d.coords for d in basis] == [d.coords for d in _nef_hilbert_basis_oracle(fan)]
        assert all(_ints(d.coords) for d in basis)
        bound = 4 if picard_rank(fan) <= 2 else 3
        found = effective_classes(fan, bound)
        assert [c.pairings for c in found] == \
            [c.pairings for c in _effective_classes_oracle(fan, bound)]
        assert all(_ints(c.pairings) for c in found)
        nonzero = [beta for beta in found if not beta.is_zero()]
        for beta in nonzero[:5] + nonzero[-2:]:
            for cap in (None, 1):
                pairs = factorizations(fan, beta, bound=cap)
                oracle = _factorizations_oracle(fan, beta, bound if cap is None else cap)
                assert [(a.pairings, b.pairings) for a, b in pairs] == \
                    [(a.pairings, b.pairings) for a, b in oracle]
                assert all(_ints(a.pairings + b.pairings) for a, b in pairs)


def test_unchecked_classes_pass_the_checked_constructor(request):
    """Every class built without the ray-relation check is one."""
    rng = random.Random(73)
    for name in CONFTEST_FANS:
        fan = request.getfixturevalue(name)
        emb = build_epic_embedding(fan)
        made = list(wall_curve_classes(fan))
        for sigma in fan.max_cones:
            off = fan.cone_complement(sigma)
            made.append(beta_a_sigma(fan, {i: rng.randint(-3, 3) for i in off}, sigma))
        made += [pushforward_curves(emb, c) for c in effective_classes(fan, 3)]
        for _ in range(4):
            q = random_quasimap(fan, rng, max_components=2, max_total_length=5)
            for image in (q, apply_ibar(emb, q)):
                total, per_comp = degrees(image)
                made += [total, *per_comp]
        for beta in made:
            assert CurveClass(beta.fan, beta.pairings).pairings == beta.pairings


def test_principal_divisor_test_matches_the_character_oracle(request, p1):
    """validate_embedding's degree check, a class-zero test, agrees with
    solving for the character on seeded corruptions of built embeddings."""
    bases = [embedding_named(request, name) for name in CONFTEST_FANS + ["segre.json"]]
    bases.append(EmbeddingSpec(p1, p1, (1, 1), ((2, 0), (0, 2))))
    rng = random.Random(2212)
    incompatible = 0
    outcomes = set()
    for _ in range(300):
        emb = _corrupted(rng.choice(bases), rng)
        if any(len(e) != emb.source.n_rays or min(e) < 0 for e in emb.exponents):
            continue
        src = emb.source
        verdicts = []
        for cone in emb.target.max_cones:
            for w in emb.target.exponent_matrix(cone):
                v = _pull_back_character(emb, w)
                principal = not any(divisor_from_ray_coefficients(src, v).coords)
                assert principal == (_solve_character(src, v) is not None)
                verdicts.append(principal)
                outcomes.add(principal)
        degree_failure = any("degree data is incompatible" in line
                             for line in validate_embedding(emb))
        if 0 not in emb.coeffs:
            assert degree_failure == (not all(verdicts))
        incompatible += degree_failure
    assert incompatible >= 10 and outcomes == {True, False}

import random
import re
from itertools import combinations, product

import pytest

from toriq.basepoint import (INF, OrderVector, _locate_degree, degree_at_point,
                             is_infinite, length_at_point)
from toriq.classes import CurveClass, beta_a_sigma, curve_class_from_anchor, is_effective
from toriq.fan import (_degenerate_collections, _first_cone, primitive_collections,
                       product_fan, projective_space_fan, require_valid)
from toriq.quasimap import component_basepoints, degrees

from qmgen import random_order_vector, random_stable_quasimap, scaled, with_components


def twist_orders(fan, ord_vector, beta):
    """Orders after twisting by a curve class, or None when a value drops below 0.

    Infinite entries stay infinite.  This is the brute-force oracle primitive:
    ``beta`` is the degree at the point exactly when the twist succeeds and
    the result is a non-basepoint vector.
    """
    if not isinstance(ord_vector, OrderVector):
        ord_vector = OrderVector(fan, tuple(ord_vector))
    if not isinstance(beta, CurveClass):
        beta = CurveClass(fan, tuple(beta))
    new = []
    for o, d in zip(ord_vector.orders, beta.pairings):
        if is_infinite(o):
            new.append(INF)
            continue
        v = o - d
        if v < 0:
            return None
        new.append(v)
    return OrderVector(fan, tuple(new))


def _eligible_cones(fan, vanishing):
    return [idx for idx, cone in enumerate(fan.max_cones) if vanishing <= set(cone)]


def _scan_degree(fan, orders, vanishing):
    """Shared cone scan; ``orders`` may contain negative integers (internal use)."""
    require_valid(fan)
    qualifying = []
    classes = {}
    for idx in _eligible_cones(fan, vanishing):
        beta = beta_a_sigma(fan, orders, fan.max_cones[idx])
        if all(o >= d for o, d in zip(orders, beta.pairings)):
            qualifying.append(idx)
            classes[idx] = beta
    if not qualifying:
        raise ValueError(
            "no maximal cone admits the order vector; the fan data is corrupt"
        )
    distinct = {classes[idx].pairings for idx in qualifying}
    if len(distinct) > 1:
        raise RuntimeError(
            f"degree at a point is not unique ({sorted(distinct)}); this is a bug"
        )
    return classes[qualifying[0]], tuple(qualifying)


def is_nonbasepoint_vector(fan, ord_vector):
    """Whether some maximal cone has order zero on every ray off the cone."""
    if not isinstance(ord_vector, OrderVector):
        ord_vector = OrderVector(fan, tuple(ord_vector))
    for cone in fan.max_cones:
        if all(ord_vector.orders[i] == 0 for i in fan.cone_complement(cone)):
            return True
    return False


def expected_blowup_table():
    E, S, L = (0, 1, 1, -1), (1, 0, 0, 1), (1, 1, 1, 0)
    return [
        ((0, 1, 1, 0), E, [(1, 3), (2, 3)]),
        ((0, 1, 1, INF), E, [(1, 3), (2, 3)]),
        ((0, 1, INF, 0), E, [(2, 3)]),
        ((0, 1, INF, INF), E, [(2, 3)]),
        ((1, 0, 0, INF), S, [(1, 3), (2, 3)]),
        ((1, 0, 1, INF), S, [(2, 3)]),
        ((1, 0, INF, 1), S, [(0, 2), (2, 3)]),
        ((1, 1, 1, 0), L, [(0, 1), (0, 2), (1, 3), (2, 3)]),
        ((1, 1, 1, INF), L, [(1, 3), (2, 3)]),
        ((1, 1, INF, 0), L, [(0, 2), (2, 3)]),
        ((1, 1, INF, INF), L, [(2, 3)]),
        ((INF, 0, INF, 1), S, [(0, 2)]),
        ((INF, 1, 1, 0), L, [(0, 1), (0, 2)]),
        ((INF, 1, INF, 0), L, [(0, 2)]),
    ]


def test_blowup_table(bl0p2):
    for orders, beta_expected, cones_expected in expected_blowup_table():
        beta, witnesses = degree_at_point(bl0p2, orders)
        assert beta.pairings == beta_expected
        assert sorted(bl0p2.max_cones[i] for i in witnesses) == sorted(cones_expected)


def test_nonbasepoint_gives_zero(p2):
    beta, witnesses = degree_at_point(p2, (1, 2, 0))
    assert beta.pairings == (0, 0, 0)
    assert witnesses == (0,)


def test_order_vector_rejects_primitive_collection_vanishing(p2):
    with pytest.raises(ValueError):
        OrderVector(p2, (INF, INF, INF))
    with pytest.raises(ValueError):
        OrderVector(p2, (-1, 0, 0))


def test_length_examples(bl0p2):
    assert length_at_point(bl0p2, (0, 1, 1, 0)) == 1
    assert length_at_point(bl0p2, (1, 0, INF, 1)) == 1
    assert length_at_point(bl0p2, (0, 0, 0, 0)) == 0


def test_length_on_projective_space_is_min():
    rng = random.Random(7)
    for n in (1, 2, 3):
        fan = projective_space_fan(n)
        for _ in range(40):
            ov = random_order_vector(fan, rng)
            finite = [o for o in ov.orders if o is not INF]
            assert length_at_point(fan, ov) == min(finite)


def test_twist_examples(bl0p2):
    E = (0, 1, 1, -1)
    L = (1, 1, 1, 0)
    out = twist_orders(bl0p2, (0, 1, 1, 0), E)
    assert out.orders == (0, 0, 0, 1)
    assert is_nonbasepoint_vector(bl0p2, out)
    assert twist_orders(bl0p2, (0, 1, 1, 0), L) is None
    same = twist_orders(bl0p2, (0, 1, 1, 0), (0, 0, 0, 0))
    assert same.orders == (0, 1, 1, 0)


def test_infinity_sentinel_arithmetic():
    assert INF + 3 is INF
    assert 3 + INF is INF
    assert INF - 5 is INF
    assert INF > 10 ** 9
    assert not INF < 0
    assert min(INF, 2) == 2
    with pytest.raises(ArithmeticError):
        INF - INF


def test_infinity_sentinel_order_and_identity():
    """The order derived from ``__lt__``: INF is above every integer and
    equal only to itself, from either side, and a usable key."""
    assert INF <= INF and INF >= INF and INF == INF and not INF != INF
    assert not INF < INF and not INF > INF
    for n in (-5, 0, 3, 10 ** 30):
        assert INF > n and INF >= n and not INF <= n and not INF < n
        assert n < INF and n <= INF and not n > INF and not n >= INF
        assert INF != n and n != INF
    assert sorted([3, INF, 0]) == [0, 3, INF] and max(INF, 7) is INF
    table = {INF: "inf", 0: "zero"}
    assert table[INF] == "inf" and table[type(INF)()] == "inf"
    assert {INF, INF, 0} == {0, INF}


def oracle_box(fan, ov):
    """Box certainly containing the degree: the class is built from the finite
    orders through dual-basis pairings, so their magnitudes bound it."""
    from toriq.fan import dual_basis

    finite_sum = sum(o for o in ov.orders if o is not INF)
    magnitude = max(
        abs(sum(m * u for m, u in zip(row, fan.rays[rho])))
        for cone in fan.max_cones
        for row in dual_basis(fan, cone)
        for rho in range(fan.n_rays)
    )
    return max(1, magnitude * finite_sum)


def brute_force_degree(fan, ov, box):
    rank = fan.n_rays - fan.dim
    hits = []
    for coords in product(range(-box, box + 1), repeat=rank):
        beta = curve_class_from_anchor(fan, coords)
        twisted = twist_orders(fan, ov, beta)
        if twisted is not None and is_nonbasepoint_vector(fan, twisted):
            hits.append(beta)
    return hits


def test_oracle_equivalence(bl0p2, p1xp1):
    rng = random.Random(11)
    for fan in (bl0p2, p1xp1):
        for _ in range(25):
            ov = random_order_vector(fan, rng, max_order=3)
            hits = brute_force_degree(fan, ov, oracle_box(fan, ov))
            assert len(hits) == 1
            beta, _ = degree_at_point(fan, ov)
            assert hits[0].pairings == beta.pairings


def test_degree_is_effective_and_zero_iff_nonbasepoint(bl0p2):
    rng = random.Random(23)
    for _ in range(60):
        ov = random_order_vector(bl0p2, rng)
        beta, _ = degree_at_point(bl0p2, ov)
        assert is_effective(beta)
        assert beta.is_zero() == is_nonbasepoint_vector(bl0p2, ov)


def test_all_witnesses_agree(bl0p2, p2xp1):
    rng = random.Random(5)
    for fan in (bl0p2, p2xp1):
        for _ in range(40):
            ov = random_order_vector(fan, rng)
            # the cone-scan oracle raises RuntimeError when two witnessing
            # cones disagree, so this is exactly the uniqueness property
            _scan_degree(fan, ov.orders, ov.vanishing)
            degree_at_point(fan, ov)


def test_length_consistent_with_direct_minimum(bl0p2, p2xp1):
    rng = random.Random(9)
    for fan in (bl0p2, p2xp1):
        for _ in range(60):
            ov = random_order_vector(fan, rng)
            direct = min(
                sum(ov.orders[i] for i in fan.cone_complement(cone))
                for cone in fan.max_cones
                if ov.vanishing <= set(cone)
            )
            assert length_at_point(fan, ov) == direct


def test_point_location_agrees_with_cone_scan_oracle(p2, p1xp1, bl0p2, p2xp1, p3):
    """Same class and same witness tuple as the cone scan, on 2400 seeded
    vectors: nonnegative order vectors through ``degree_at_point``, and
    vectors with negative entries, as chart inversion passes them, through
    the shared routine.  Up to dim - 1 entries are infinite, on a face."""
    p2xp2 = product_fan([projective_space_fan(2), projective_space_fan(2)])
    rng = random.Random(2026)
    for fan in (p2, p1xp1, bl0p2, p2xp1, p3, p2xp2):
        for trial in range(400):
            negative = trial % 3 == 0
            cone = rng.choice(fan.max_cones)
            vanishing = frozenset(rng.sample(cone, rng.randint(0, fan.dim - 1)))
            low = -4 if negative else 0
            orders = tuple(INF if i in vanishing else rng.randint(low, 4)
                           for i in range(fan.n_rays))
            expected, expected_witnesses = _scan_degree(fan, orders, vanishing)
            if negative:
                beta, witnesses = _locate_degree(fan, orders, vanishing)
            else:
                beta, witnesses = degree_at_point(fan, orders)
            assert beta.pairings == expected.pairings, (fan, orders)
            assert witnesses == expected_witnesses, (fan, orders)


CONFTEST_FANS = ["p1", "p2", "p3", "bl0p2", "p1xp1", "p2xp1", "f2", "hexagon"]


@pytest.mark.parametrize("name", CONFTEST_FANS)
def test_first_witness_is_the_first_of_every_witness(name, request):
    """The scan that stops at the first witnessing cone finds the class of
    the full scan and its first witness: on order vectors with infinite
    entries through ``degree_at_point``, and on vectors with negative
    entries, as chart inversion passes them, through the full shared scan."""
    fan = request.getfixturevalue(name)
    rng = random.Random(f"first-witness/{name}")
    tied = 0
    for _ in range(150):
        ov = random_order_vector(fan, rng, inf_prob=0.3)
        beta, witnesses = degree_at_point(fan, ov)
        assert _locate_degree(fan, ov.orders, ov.vanishing, first=True) == (beta, witnesses[:1])
        tied += len(witnesses) > 1

        cone = rng.choice(fan.max_cones)
        vanishing = frozenset(rng.sample(cone, rng.randint(0, fan.dim - 1)))
        orders = tuple(INF if i in vanishing else rng.randint(-4, 4)
                       for i in range(fan.n_rays))
        beta, witnesses = _locate_degree(fan, orders, vanishing)
        assert _locate_degree(fan, orders, vanishing, first=True) == (beta, witnesses[:1])
        tied += len(witnesses) > 1
    assert tied > 10


@pytest.mark.parametrize("name", CONFTEST_FANS)
def test_degeneracy_is_lying_in_no_cone(name, request):
    """Every ray subset: it holds a primitive collection exactly when no
    maximal cone holds it, and when one does, the point location finds a
    witness for seeded integer orders off it, negative ones included.  So a
    chart inversion, whose vanishing rays lie in its source cone, never
    meets an order vector without one."""
    fan = request.getfixturevalue(name)
    rng = random.Random(f"degenerate/{name}")
    faces = 0
    for size in range(fan.n_rays + 1):
        for rays in map(frozenset, combinations(range(fan.n_rays), size)):
            degenerate = _degenerate_collections(fan, rays)
            assert (degenerate == []) == (_first_cone(fan, rays) is not None), rays
            if degenerate:
                with pytest.raises(ValueError, match="degenerate"):
                    OrderVector(fan, tuple(INF if i in rays else 0 for i in range(fan.n_rays)))
                continue
            faces += 1
            for _ in range(6):
                orders = tuple(INF if i in rays else rng.randint(-4, 4)
                               for i in range(fan.n_rays))
                beta, witnesses = _locate_degree(fan, orders, rays, first=True)
                assert len(witnesses) == 1 and rays <= set(fan.max_cones[witnesses[0]])
    assert faces > len(fan.max_cones)


def _checked(beta):
    """The class the public constructor builds from the same data; it raises
    on pairings that break the ray relations."""
    rebuilt = CurveClass(beta.fan, beta.pairings)
    assert rebuilt == beta and repr(rebuilt) == repr(beta)
    assert [type(x) for x in rebuilt.pairings] == [type(x) for x in beta.pairings]
    return rebuilt


@pytest.mark.parametrize("name", CONFTEST_FANS)
def test_derived_values_match_the_checked_constructors(name, request):
    """Classes from ``+``, ``-``, ``*`` and ``_locate_degree`` (first witness
    and every witness, negative orders included) and the scan's order vectors,
    on seeded stable quasimaps: each equals what the public constructor
    builds from the same data, which accepts it."""
    fan = request.getfixturevalue(name)
    rng = random.Random(f"derived/{name}")
    derived = []
    vectors = 0
    for _ in range(8):
        q = random_stable_quasimap(fan, rng, max_total_length=5)
        beta = degrees(q)[0]
        for bp in component_basepoints(q, 0):
            assert OrderVector(fan, bp.orders.orders) == bp.orders
            vectors += 1
            for first in (True, False):
                derived.append(_locate_degree(fan, bp.orders.orders, bp.orders.vanishing,
                                              first=first)[0])
            gamma = bp.degree
            k = rng.choice((-2, -1, 0, 3))
            derived += [beta + gamma, beta - gamma, gamma - beta, k * gamma, gamma * k]
        cone = rng.choice(fan.max_cones)
        vanishing = frozenset(rng.sample(cone, rng.randint(0, fan.dim - 1)))
        orders = tuple(INF if i in vanishing else rng.randint(-4, 4)
                       for i in range(fan.n_rays))
        for first in (True, False):
            derived.append(_locate_degree(fan, orders, vanishing, first=first)[0])
    for beta in derived:
        _checked(beta)
    assert vectors >= 8 and len(derived) >= 60


def test_classes_of_two_fans_do_not_combine(p2, p1xp1, bl0p2):
    line = CurveClass(p2, (1, 1, 1))
    fibre = CurveClass(p1xp1, (1, 1, 0, 0))
    exceptional = CurveClass(bl0p2, (0, 1, 1, -1))
    # p1xp1 and bl0p2 both have four rays
    for a, b in ((line, fibre), (fibre, exceptional), (exceptional, fibre)):
        with pytest.raises(ValueError, match="^curve classes of different fans cannot be combined$"):
            a + b
        with pytest.raises(ValueError, match="^curve classes of different fans cannot be combined$"):
            a - b
    assert fibre + CurveClass(product_fan([projective_space_fan(1)] * 2), (0, 0, 1, 1)) == \
        CurveClass(p1xp1, (1, 1, 1, 1))


def test_public_constructors_still_check(p2, bl0p2):
    with pytest.raises(ValueError, match=r"^pairing vector \(1, 0, 0\) is not a curve class "
                                         r"\(it pairs inconsistently with the ray relations\)$"):
        CurveClass(p2, (1, 0, 0))
    with pytest.raises(ValueError, match="^pairing vector length does not match the ray count$"):
        CurveClass(p2, (1, 1))
    with pytest.raises(ValueError, match="^vanishing orders must be nonnegative$"):
        OrderVector(p2, (0, -1, 2))
    with pytest.raises(ValueError, match=r"^degenerate order vector: the identically-vanishing "
                                         r"rays contain the primitive collection \(0, 1, 2\)$"):
        OrderVector(p2, (INF, INF, INF))
    with pytest.raises(ValueError, match=r"^degenerate order vector: the identically-vanishing "
                                         r"rays contain the primitive collection \(0, 3\)$"):
        OrderVector(bl0p2, (INF, 1, 2, INF))


@pytest.mark.parametrize("name", CONFTEST_FANS)
def test_scan_rejects_degenerate_components(name, request):
    """The scan's vectors skip the order-vector check, so the scan itself must
    refuse a component that vanishes on a primitive collection."""
    fan = request.getfixturevalue(name)
    rng = random.Random(f"degenerate/{name}")
    q = random_stable_quasimap(fan, rng, max_total_length=5)
    for pc in primitive_collections(fan):
        secs = tuple(scaled(f, 0) if rho in pc else f for rho, f in enumerate(q.sections(0)))
        vanishing = {rho for rho, f in enumerate(secs) if f.is_zero}
        first = next(c for c in primitive_collections(fan) if c <= vanishing)
        message = f"component 0 vanishes on the primitive collection {tuple(sorted(first))}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            component_basepoints(with_components(q, (secs,)), 0)

"""Acceptance suite: one test per criterion, exact checks, stated time caps.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import random
import time

from toriq.basepoint import INF, degree_at_point, length_at_point
from toriq.cases import blowup_order_table
from toriq.classes import curve_class_from_anchor
from toriq.contraction import (_deterministic_tail, contract, contraction_condition,
                               graft, prune, surjectivity_witness)
from toriq.embedding import (EmbeddingSpec, apply_ibar, build_epic_embedding,
                             epic_check, fibre_enumeration, pushforward_curves)
from toriq.fan import primitive_collections, product_fan, projective_space_fan
from toriq.forms import BinaryForm, ProjPoint
from toriq.quasimap import (Quasimap, basepoints, degrees, equal_quasimaps,
                            extend_at, regular_extension, section_values,
                            stability, validate_quasimap)

from qmgen import random_order_vector, random_quasimap, random_stable_quasimap

from test_basepoint import brute_force_degree, oracle_box


def F(deg, *coeffs):
    return BinaryForm.from_poly(deg, coeffs)


MARKS = ((0, ProjPoint(1, 1)), (0, ProjPoint(1, 2)))


def _report(num, label, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[acceptance] criterion {num:2d} PASS: {label}{suffix}")


def segre_data():
    p1xp1 = product_fan([projective_space_fan(1), projective_space_fan(1)])
    p3 = projective_space_fan(3)
    emb = EmbeddingSpec(p1xp1, p3, (1, 1, 1, 1),
                        ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)))
    q1 = Quasimap(p1xp1, ((F(2, 1), F(2, 0, 1), F(2, 0, 1), F(2, 0, 0, 1)),),
                  markings=MARKS)
    q2 = Quasimap(p1xp1, ((F(2, 0, 1), F(2, 0, 0, 1), F(2, 1), F(2, 0, 1)),),
                  markings=MARKS)
    return emb, q1, q2


def test_criterion_1_table_reproduction(bl0p2):
    start = time.perf_counter()
    for orders, beta_expected, cones_expected in blowup_order_table():
        beta, witnesses = degree_at_point(bl0p2, orders)
        assert beta.pairings == beta_expected
        assert sorted(bl0p2.max_cones[i] for i in witnesses) == \
            sorted(map(tuple, cones_expected))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "all 14 table rows reproduced exactly", elapsed)


def test_criterion_2_projective_space_closed_form():
    rng = random.Random(2024)
    count = 0
    for n in (1, 2, 3, 4):
        fan = projective_space_fan(n)
        for _ in range(175):
            ov = random_order_vector(fan, rng)
            beta, _ = degree_at_point(fan, ov)
            finite_min = min(o for o in ov.orders if o is not INF)
            assert beta.pairings == (finite_min,) * (n + 1)
            count += 1
    for factors in ((1, 1), (2, 1), (1, 3)):
        fan = product_fan([projective_space_fan(n) for n in factors])
        for _ in range(100):
            ov = random_order_vector(fan, rng)
            beta, _ = degree_at_point(fan, ov)
            offset = 0
            expected = []
            for n in factors:
                block = ov.orders[offset:offset + n + 1]
                d = min(o for o in block if o is not INF)
                expected.extend([d] * (n + 1))
                offset += n + 1
            assert beta.pairings == tuple(expected)
            count += 1
    assert count == 1000
    _report(2, "degree equals the factorwise order minimum on 1000 random inputs")


def test_criterion_3_blowup_closed_form(bl0p2):
    rng = random.Random(31337)
    S = curve_class_from_anchor(bl0p2, (1, 0))
    E = curve_class_from_anchor(bl0p2, (0, 1))
    for _ in range(1000):
        ov = random_order_vector(bl0p2, rng)
        o = ov.orders
        d_s = min(o[0], o[1] + o[3], o[2] + o[3])
        d_e = min(o[1], o[2])
        expected = d_s * S + d_e * E
        beta, _ = degree_at_point(bl0p2, ov)
        assert beta.pairings == expected.pairings
    _report(3, "degree equals d_S*S + d_E*E on 1000 random inputs")


def test_criterion_4_bruteforce_oracle(bl0p2, p1xp1, p3):
    rng = random.Random(404)
    start = time.perf_counter()
    fans = [p1xp1, bl0p2, p3]
    for i in range(500):
        fan = fans[i % 3]
        ov = random_order_vector(fan, rng, max_order=3)
        hits = brute_force_degree(fan, ov, oracle_box(fan, ov))
        assert len(hits) == 1
        beta, _ = degree_at_point(fan, ov)
        assert hits[0].pairings == beta.pairings
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(4, "exhaustive twist search finds exactly the degree, 500 inputs", elapsed)


def test_criterion_5_degree_decomposition(p2, bl0p2, p1xp1):
    rng = random.Random(5005)
    fans = [p2, bl0p2, p1xp1]
    for i in range(500):
        fan = fans[i % 3]
        q = random_quasimap(fan, rng, max_components=3, max_total_length=8)
        total, _ = degrees(q)
        recovered, _ = degrees(regular_extension(q))
        for bp in basepoints(q):
            recovered = recovered + bp.place.degree * bp.degree
        assert recovered.pairings == total.pairings
    _report(5, "degree = extension degree + sum of place-weighted basepoint degrees, 500 quasimaps")


def test_criterion_6_length_consistency(bl0p2, p2xp1):
    rng = random.Random(606)
    for i in range(500):
        fan = bl0p2 if i % 2 else p2xp1
        ov = random_order_vector(fan, rng)
        via_classes = length_at_point(fan, ov)
        direct = min(
            sum(ov.orders[i] for i in fan.cone_complement(cone))
            for cone in fan.max_cones
            if ov.vanishing <= set(cone)
        )
        assert via_classes == direct
    _report(6, "length via cone classes equals the direct order minimum, 500 inputs")


def test_criterion_7_segre_non_injectivity():
    emb, q1, q2 = segre_data()
    image1 = apply_ibar(emb, q1)
    image2 = apply_ibar(emb, q2)
    assert equal_quasimaps(image1, image2)
    beta = degrees(q1)[0]
    fibre = fibre_enumeration(emb, image1, beta)
    assert len(fibre) == 2
    assert any(equal_quasimaps(f, q1) for f in fibre)
    assert any(equal_quasimaps(f, q2) for f in fibre)
    _report(7, "images coincide and the fibre is exactly the two quasimaps")


def test_criterion_8_epic_builder(bl0p2):
    emb = build_epic_embedding(bl0p2)
    ray_blocks = primitive_collections(emb.target)
    sizes = [len(block) for block in ray_blocks]
    blocks = [frozenset(emb.exponents[i] for i in block) for block in ray_blocks]
    assert sorted(sizes) == [2, 3]
    assert set(blocks) == {
        frozenset({(1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1)}),
        frozenset({(0, 1, 0, 0), (0, 0, 1, 0)}),
    }
    assert epic_check(emb)
    assert not epic_check(segre_data()[0])
    _report(8, "builder gives the plane-times-line target with the expected monomials")


def test_criterion_9_family_contraction(bl0p2):
    from toriq.cases import family_contracted, family_map

    for t in range(6):
        _, overall = contraction_condition(family_map(t))
        assert overall == (t == 0)
    assert equal_quasimaps(contract(family_map(0)), family_contracted())
    _report(9, "family passes only at t=0 and contracts to the frozen quasimap")


def test_criterion_10_pushforward_compatibility(bl0p2):
    rng = random.Random(1010)
    segre = segre_data()[0]
    emb_bl = build_epic_embedding(bl0p2)
    for i in range(200):
        emb = segre if i % 2 else emb_bl
        q = random_quasimap(emb.source, rng, max_components=2, max_total_length=6)
        image = apply_ibar(emb, q)
        bp_q, bp_img = basepoints(q), basepoints(image)
        assert [(b.component, b.place) for b in bp_q] == \
            [(b.component, b.place) for b in bp_img]
        for a, b in zip(bp_q, bp_img):
            assert pushforward_curves(emb, a.degree).pairings == b.degree.pairings
        assert equal_quasimaps(regular_extension(image),
                               apply_ibar(emb, regular_extension(q)))
    _report(10, "basepoint degrees push forward and the extension square commutes, 200 quasimaps")


def test_criterion_11_surjectivity_witness(p2, bl0p2):
    rng = random.Random(1111)
    worst = 0.0
    for i in range(100):
        fan = p2 if i < 50 else bl0p2
        q = random_stable_quasimap(fan, rng, max_total_length=6)
        start = time.perf_counter()
        witness = surjectivity_witness(q)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert elapsed < 1.0
        assert stability(witness.quasimap, "map")
        assert equal_quasimaps(contract(witness), q)
    _report(11, "100 witnesses found, each verified by contraction", worst)


def test_criterion_12_graft_prune_roundtrip(p2, bl0p2, p1xp1):
    rng = random.Random(1212)
    fans = [p2, bl0p2, p1xp1]
    done = 0
    while done < 200:
        fan = fans[done % 3]
        q = random_stable_quasimap(fan, rng, max_total_length=6)
        bps = basepoints(q)
        bp = bps[done % len(bps)]
        extended = extend_at(q, bp.component, bp.place, bp.degree)
        values = section_values(extended, bp.component, bp.place.rational_point())
        tail, _ = _deterministic_tail(values, bp.degree, done % 7)
        grafted = graft(q, bp.component, bp.place, tail, ProjPoint(1, 0))
        assert validate_quasimap(grafted) == []
        back = prune(grafted, grafted.n_components - 1)
        assert equal_quasimaps(back, q)
        done += 1
    _report(12, "200 graft-then-prune surgeries return the original quasimap")

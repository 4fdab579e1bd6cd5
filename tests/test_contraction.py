import random
from fractions import Fraction

import pytest

from toriq import contraction, quasimap
from toriq.cases import family_contracted, family_map
from toriq.classes import effective_classes, length, wall_curve_classes
from toriq.contraction import (StableMapTree, Tail, _deterministic_tail, contract,
                               contraction_condition, graft, prune,
                               rational_tails, surjectivity_witness)
from toriq.fan import product_fan, projective_space_fan
from toriq.forms import BinaryForm, Place, ProjPoint, poly_mul
from toriq.quasimap import (Quasimap, basepoints, component_basepoints, degrees,
                            equal_quasimaps, extend_at, regular_extension, section_values,
                            stability, validate_quasimap)

from qmgen import (NODE_POINTS, GiveUp, _section_tuple, evaluate, random_quasimap,
                   random_stable_quasimap, scaled, with_components)
from test_quasimap import validate_quasimap_oracle


def F(deg, *coeffs):
    return BinaryForm.from_poly(deg, coeffs)


MARKS = ((0, ProjPoint(1, 1)), (0, ProjPoint(1, 2)))


def test_family_condition_only_at_zero():
    from fractions import Fraction

    samples = [Fraction(t) for t in range(6)] + [Fraction(1, 2), Fraction(-3, 7)]
    for t in samples:
        f = family_map(t)
        assert validate_quasimap(f) == []
        assert basepoints(f) == ()
        assert stability(f, "map")
        _, overall = contraction_condition(f)
        assert overall == (t == 0)


def test_family_tail_shape():
    f = family_map(0)
    tail, = rational_tails(f)
    assert tail.components == frozenset({1})
    assert tail.host == 0
    assert tail.host_point == ProjPoint(1, 0)


def test_contract_family():
    contracted = contract(family_map(0))
    assert degrees(contracted)[0].pairings == (2, 2, 2, 0)
    bp, = basepoints(contracted)
    assert bp.degree.pairings == (0, 2, 2, -2)
    assert bp.place == Place.rational(0)
    assert stability(contracted, "quasimap")
    assert equal_quasimaps(contracted, family_contracted())


def test_contract_without_tails_is_identity(p2):
    line = Quasimap(p2, ((F(1, 1), F(1, 0, 1), F(1, 1, 1)),), markings=MARKS)
    _, overall = contraction_condition(line)
    assert overall  # vacuous
    assert contract(line) == line


def test_condition_always_true_on_projective_space(p3):
    # all boundary divisors of the 3-space are nef, so any map with tails passes
    rng = random.Random(19)
    found = 0
    for _ in range(80):
        q = random_quasimap(p3, rng, max_components=2, max_total_length=8)
        if basepoints(q) or not rational_tails(q):
            continue
        found += 1
        _, overall = contraction_condition(q)
        assert overall
    assert found >= 3


def test_contract_rejects_failing_condition():
    with pytest.raises(ValueError):
        contract(family_map(1))


def test_contract_diagonal_with_two_tails(p1xp1):
    # diagonal line with tails of degree (0,1) at 0 and (1,0) at infinity
    # contracts to the first Segre-source quasimap
    diag = (F(1, 1), F(1, 0, 1), F(1, 1), F(1, 0, 1))
    tail_at_0 = (F(0, 1), BinaryForm.zero(0), F(1, 1, 1), F(1, 0, 1))
    tail_at_inf = (F(1, 0, 1), F(1, 1, 1), BinaryForm.zero(0), F(0, 1))
    q = Quasimap(
        p1xp1,
        (diag, tail_at_0, tail_at_inf),
        nodes=(((0, ProjPoint(1, 0)), (1, ProjPoint(1, 0))),
               ((0, ProjPoint.infinity()), (2, ProjPoint(1, 0)))),
        markings=MARKS,
    )
    assert validate_quasimap(q) == []
    assert stability(q, "map")
    _, overall = contraction_condition(q)
    assert overall
    out = contract(q)
    q1 = Quasimap(p1xp1, ((F(2, 1), F(2, 0, 1), F(2, 0, 1), F(2, 0, 0, 1)),),
                  markings=MARKS)
    assert equal_quasimaps(out, q1)


def test_contracted_basepoints_carry_tail_classes(bl0p2):
    f = family_map(0)
    _, per_comp = degrees(f)
    contracted = contract(f)
    bp, = basepoints(contracted)
    assert bp.degree.pairings == per_comp[1].pairings


def graft_with_deterministic_tail(q, bp, zero_start=0):
    extended = extend_at(q, bp.component, bp.place, bp.degree)
    values = section_values(extended, bp.component, bp.place.rational_point())
    tail, _ = _deterministic_tail(values, bp.degree, zero_start)
    return graft(q, bp.component, bp.place, tail, ProjPoint(1, 0))


def test_graft_prune_roundtrip_section_line(p2):
    q = Quasimap(p2, ((BinaryForm.zero(1), BinaryForm.zero(1), F(1, 1)),),
                 markings=MARKS)
    bp, = basepoints(q)
    grafted = graft_with_deterministic_tail(q, bp)
    assert validate_quasimap(grafted) == []
    assert basepoints(grafted) == ()
    assert degrees(grafted)[0].pairings == degrees(q)[0].pairings
    back = prune(grafted, 1)
    assert equal_quasimaps(back, q)


def test_graft_rejects_wrong_degrees(p2):
    q = Quasimap(p2, ((BinaryForm.zero(1), BinaryForm.zero(1), F(1, 1)),),
                 markings=MARKS)
    bp, = basepoints(q)
    with pytest.raises(ValueError):
        graft(q, bp.component, bp.place, (F(0, 1), F(0, 1), F(0, 1)),
              ProjPoint(1, 0))


def test_graft_rejects_value_mismatch(p2):
    q = Quasimap(p2, ((BinaryForm.zero(1), BinaryForm.zero(1), F(1, 1)),),
                 markings=MARKS)
    bp, = basepoints(q)
    # degrees are right but the attach values disagree with the extension
    bad_tail = (F(1, 1, 1), F(1, 2, 1), F(1, 3, 1))
    with pytest.raises(ValueError):
        graft(q, bp.component, bp.place, bad_tail, ProjPoint(1, 0))


def test_graft_rejects_a_tail_degenerate_at_the_attach_point(p2, p1xp1):
    """Tail values that vanish on a primitive collection lie in no cone: no
    point of the target, so no match for the extension."""
    q = Quasimap(p2, ((BinaryForm.zero(1), BinaryForm.zero(1), F(1, 1)),),
                 markings=MARKS)
    bp, = basepoints(q)
    # every section vanishes at the attach point [1:0], on the collection {0, 1, 2}
    tail = (F(1, 0, 1), F(1, 0, 2), F(1, 0, 3))
    with pytest.raises(ValueError, match="do not match the extension"):
        graft(q, bp.component, bp.place, tail, ProjPoint(1, 0))

    # on P1 x P1 the tail vanishes on the collection {0, 1} of the first factor
    q = Quasimap(p1xp1, ((F(1, 0, 1), F(1, 0, 1), F(0, 1), F(0, 2)),), markings=MARKS)
    bp, = basepoints(q)
    assert bp.degree.pairings == (1, 1, 0, 0)
    tail = (F(1, 0, 1), F(1, 0, 5), F(0, 1), F(0, 2))
    with pytest.raises(ValueError, match="do not match the extension"):
        graft(q, bp.component, bp.place, tail, ProjPoint(1, 0))


def test_prune_requires_unmarked_leaf():
    f = family_map(0)
    with pytest.raises(ValueError):
        prune(f, 0)  # marked component


def test_graft_needs_a_rational_place_and_prune_a_leaf(p2):
    """A basepoint at the place z^2 + 1 has no rational point to graft a tail
    at, and the middle component of a three-component chain is no leaf."""
    place = Place.finite((1, 0, 1))
    q = Quasimap(p2, ((F(3, 1, 0, 1), F(3, 0, 1, 0, 1), F(3, 1, 1, 1, 1)),), markings=MARKS)
    assert [bp.place for bp in basepoints(q)] == [place]
    with pytest.raises(ValueError, match="grafting needs a rational basepoint place"):
        graft(q, 0, place, (F(1, 0, 1), F(1, 1), F(1, 1, 1)), ProjPoint(1, 0))

    base = (F(1, 1), F(1, 0, 1), F(1, 1, 1))
    point = ProjPoint(1, 3)
    constant = tuple(F(0, v) for v in section_values(Quasimap(p2, (base,)), 0, point))
    chain = Quasimap(p2, (base, constant, constant),
                     nodes=(((0, point), (1, ProjPoint(1, 0))),
                            ((1, ProjPoint(0, 1)), (2, ProjPoint(1, 0)))),
                     markings=MARKS)
    assert validate_quasimap(chain) == []
    with pytest.raises(ValueError, match="only leaf components can be pruned"):
        prune(chain, 1)


def test_prune_degree_zero_leaf(p2):
    base = (F(1, 1), F(1, 0, 1), F(1, 1, 1))
    hostq = Quasimap(p2, (base,), markings=MARKS)
    value = section_values(hostq, 0, ProjPoint(1, 3))
    leaf = tuple(F(0, v) for v in value)
    q = Quasimap(p2, (base, leaf),
                 nodes=(((0, ProjPoint(1, 3)), (1, ProjPoint(1, 0))),),
                 markings=MARKS)
    assert validate_quasimap(q) == []
    out = prune(q, 1)
    assert out.components[0] == base


def test_prune_all_tails_matches_contract():
    f = family_map(0)
    pruned = prune(f, 1)
    assert equal_quasimaps(pruned, contract(f))


def test_witness_section_line(p2):
    q = Quasimap(p2, ((BinaryForm.zero(1), BinaryForm.zero(1), F(1, 1)),),
                 markings=MARKS)
    witness = surjectivity_witness(q)
    assert witness.quasimap.n_components == 2
    tail_class = degrees(witness.quasimap)[1][1]
    assert length(tail_class) == 3
    assert equal_quasimaps(contract(witness), q)


def test_witness_on_basepoint_free_input(p2):
    line = Quasimap(p2, ((F(1, 1), F(1, 0, 1), F(1, 1, 1)),), markings=MARKS)
    witness = surjectivity_witness(line)
    assert witness.quasimap == line


def test_witness_random_bl0p2(bl0p2):
    rng = random.Random(41)
    for _ in range(10):
        q = random_stable_quasimap(bl0p2, rng, max_total_length=5)
        witness = surjectivity_witness(q)
        assert stability(witness.quasimap, "map")
        _, overall = contraction_condition(witness)
        assert overall
        assert equal_quasimaps(contract(witness), q)


def test_witness_requires_stability(p2):
    unstable = Quasimap(p2, ((F(0, 1), F(0, 1), F(0, 2)),), markings=MARKS)
    with pytest.raises(ValueError):
        surjectivity_witness(unstable)


def test_witness_rejects_irrational_places(p1xp1):
    # common zero of both factors at z^2 + 1 = 0
    q = Quasimap(
        p1xp1,
        ((F(2, 1, 0, 1), F(2, 2, 0, 2), F(2, 1, 0, 1), F(2, 1, 1, 1)),),
        markings=MARKS,
    )
    bps = basepoints(q)
    assert any(bp.place.degree == 2 for bp in bps)
    with pytest.raises(ValueError):
        surjectivity_witness(q)


def test_witness_closing_check_rejects_a_wrong_contraction(p2):
    """The comparison that certifies a witness in the tests compares: a
    contraction with one section scaled by a factor that no torus element
    undoes is told apart from the input."""
    q = random_stable_quasimap(p2, random.Random(17), max_total_length=5)
    assert not any(f.is_zero for f in q.sections(0))
    real_contract = contraction.contract

    def scaled_contract(f):
        c = real_contract(f)
        first, *rest = c.sections(0)
        return with_components(c, ((scaled(first, 3), *rest),) + c.components[1:])

    assert equal_quasimaps(real_contract(surjectivity_witness(q)), q)
    assert not equal_quasimaps(scaled_contract(surjectivity_witness(q)), q)


def test_stable_map_tree_validation(p2):
    q = Quasimap(p2, ((BinaryForm.zero(1), BinaryForm.zero(1), F(1, 1)),),
                 markings=MARKS)
    with pytest.raises(ValueError):
        StableMapTree(q)  # has a basepoint


def _witness_targets(p2, bl0p2, p1xp1, p3):
    p1xp2 = product_fan([projective_space_fan(1), projective_space_fan(2)])
    return {"p2": p2, "bl0p2": bl0p2, "p1xp1": p1xp1, "p1xp2": p1xp2, "p3": p3}


def _seeded_stable_quasimaps(fans, count, seed):
    rng = random.Random(seed)
    names = sorted(fans)
    return [random_stable_quasimap(fans[names[i % len(names)]], rng, max_total_length=6)
            for i in range(count)]


def test_witness_passes_the_checks_it_skips(p2, bl0p2, p1xp1, p3):
    """Differential oracle for the checks the witness no longer runs: every
    seeded witness passes ``StableMapTree``'s validation and contracts back
    to its input, section for section."""
    fans = _witness_targets(p2, bl0p2, p1xp1, p3)
    grafts = 0
    for q in _seeded_stable_quasimaps(fans, 300, 2110):
        witness = surjectivity_witness(q)
        assert StableMapTree(witness.quasimap) == witness
        contracted = contract(witness)
        assert equal_quasimaps(contracted, q) and contracted == q
        grafts += witness.quasimap.n_components - q.n_components
    assert grafts >= 300


def test_carried_basepoints_match_fresh_scans(p2, bl0p2, p1xp1, p3):
    """The witness loop's carried list (the rest of the list plus a scan of
    the new tail) equals a full rescan after every graft; replaying the loop
    reproduces the witness."""
    fans = _witness_targets(p2, bl0p2, p1xp1, p3)
    steps = 0
    for q in _seeded_stable_quasimaps(fans, 200, 2024):
        work, bps, counter = q, basepoints(q), 0
        while bps:
            bp = bps[0]
            extended = extend_at(work, bp.component, bp.place, bp.degree)
            values = section_values(extended, bp.component, bp.place.rational_point())
            tail, counter = _deterministic_tail(values, bp.degree, counter)
            work = graft(work, bp.component, bp.place, tail, ProjPoint(1, 0))
            bps = bps[1:] + component_basepoints(work, work.n_components - 1)
            assert bps == basepoints(work)
            steps += 1
        assert work == surjectivity_witness(q).quasimap
    assert steps >= 200


def test_graft_glues_as_the_reference_evaluator_does(p2, bl0p2, p1xp1, p3):
    """Basepoints at [2 : 1], [3 : -2] and infinity, and tails attached there
    or at 0 whose values are the extension's, a torus rescaling of them, or
    them with one value changed: ``graft`` accepts a tail exactly when the
    reference evaluator puts both node ends at one target point, and what it
    builds passes validation and its oracle."""
    rng = random.Random(3001)
    tally = {True: 0, False: 0}
    for fan in (p2, bl0p2, p1xp1, p3):
        relations = [beta.pairings for beta in wall_curve_classes(fan)]
        twists = [c for c in effective_classes(fan, 4)
                  if not c.is_zero() and min(c.pairings) >= 0]
        for _ in range(12):
            base = regular_extension(random_stable_quasimap(fan, rng, max_total_length=5))
            point = rng.choice(NODE_POINTS)
            place = Place.of_point(point)
            q = extend_at(base, 0, place, -1 * rng.choice(twists))
            bp = next(bp for bp in basepoints(q) if bp.place == place)
            extended = extend_at(q, 0, place, bp.degree)
            values = list(section_values(extended, 0, point))
            kind = rng.randrange(3)
            if kind == 1:
                t = rng.choice((2, -3, Fraction(1, 2)))
                values = [x * t ** a for x, a in zip(values, rng.choice(relations))]
            elif kind == 2:
                values[rng.randrange(fan.n_rays)] = rng.choice((0, 1, -2, Fraction(3, 4)))
            attach = rng.choice(NODE_POINTS + (ProjPoint(1, 0),))
            try:
                tail = _section_tuple(fan, rng, bp.degree, prescribed=(attach, values))
            except GiveUp:  # a value the class forces to vanish was changed
                continue
            try:
                glued = evaluate(Quasimap(fan, (tail,)), 0, attach) == evaluate(extended, 0, point)
            except ValueError:  # the tail's values are a basepoint
                glued = False
            if glued:
                grafted = graft(q, 0, place, tail, attach)
                assert validate_quasimap(grafted) == validate_quasimap_oracle(grafted) == []
            else:
                with pytest.raises(ValueError, match="do not match the extension"):
                    graft(q, 0, place, tail, attach)
            tally[glued] += 1
    assert min(tally.values()) >= 10, tally


def _scan_lookup(q, component, place):
    """The basepoint at (component, place) found by a full scan, or None."""
    return next((b for b in basepoints(q) if b.component == component and b.place == place),
                None)


def test_graft_matches_scan_lookup(p2, bl0p2, p1xp1, p3):
    fans = _witness_targets(p2, bl0p2, p1xp1, p3)
    probes = [Place.infinity()] + [Place.rational(z) for z in range(-3, 4)]
    grafted = rejected = 0
    for q in _seeded_stable_quasimaps(fans, 60, 7):
        bps = basepoints(q)
        for bp in bps:
            extended = extend_at(q, bp.component, bp.place, bp.degree)
            values = section_values(extended, bp.component, bp.place.rational_point())
            tail, _ = _deterministic_tail(values, bp.degree, 0)
            point = bp.place.rational_point()
            expected = Quasimap(
                q.fan, extended.components + (tail,),
                extended.nodes + (((bp.component, point),
                                   (q.n_components, ProjPoint(1, 0))),),
                q.markings)
            assert graft(q, bp.component, bp.place, tail, ProjPoint(1, 0)) == expected
            grafted += 1
        tail = tuple(BinaryForm.zero(0) for _ in range(q.fan.n_rays))
        places = probes + [bp.place for bp in bps]
        comps = list(range(-1, q.n_components + 1)) + [q.n_components + 5]
        spots = [(comp, place) for comp in comps for place in places]
        for comp, place in spots:
            if _scan_lookup(q, comp, place) is not None:
                continue
            with pytest.raises(ValueError, match="not a basepoint of the quasimap"):
                graft(q, comp, place, tail, ProjPoint(1, 0))
            rejected += 1
    assert grafted >= 60 and rejected >= 500


# _deterministic_tail as it was before it multiplied in integers: factors
# (1 - z/k) with Fraction coefficients.  The oracle of the differential test
# below.
def deterministic_tail_oracle(values, beta, zero_start):
    sections = []
    counter = zero_start
    for rho, value in enumerate(values):
        d = beta.pairings[rho]
        if d < 0:
            sections.append(BinaryForm.zero(d))
            continue
        if d == 0:
            sections.append(BinaryForm.constant(value))
            continue
        if value == 0:
            poly = (0, 1)
            needed = d - 1
        else:
            poly = (value,)
            needed = d
        for _ in range(needed):
            counter += 1
            if value == 0:
                poly = poly_mul(poly, (-counter, 1))
            else:
                poly = poly_mul(poly, (1, Fraction(-1, counter)))
        sections.append(BinaryForm.from_poly(d, poly))
    return tuple(sections), counter


def test_integer_tails_match_the_fraction_oracle(p2, bl0p2, p1xp1, p3, hexagon):
    """Seeded attach values (zero, int and Fraction) and classes, some with
    negative pairings: the integer tail equals the oracle's, repr and
    coefficient types included, and ends at the same zero counter."""
    rng = random.Random(1903)
    pool = (0, 0, 1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-5, 3))
    coefficient_types = set()
    for fan in (p2, bl0p2, p1xp1, p3, hexagon):
        classes = [c for c in effective_classes(fan, 8) if not c.is_zero()]
        for _ in range(60):
            beta = rng.choice(classes)
            values = tuple(rng.choice(pool) for _ in fan.rays)
            start = rng.randint(0, 6)
            got = _deterministic_tail(values, beta, start)
            expected = deterministic_tail_oracle(values, beta, start)
            assert got == expected and repr(got) == repr(expected)
            types = [type(c) for f in got[0] for c in f.coeffs]
            assert types == [type(c) for f in expected[0] for c in f.coeffs]
            coefficient_types.update(types)
    assert coefficient_types == {int, Fraction}


def test_witness_scans_each_component_once(p2, bl0p2, p1xp1, p3, monkeypatch):
    """A witness scans the input's components and the new tail of each graft,
    nothing more: the result is not scanned again."""
    fans = _witness_targets(p2, bl0p2, p1xp1, p3)
    real = quasimap.component_basepoints
    scans = []

    def counting(q, comp):
        scans.append(comp)
        return real(q, comp)

    monkeypatch.setattr(quasimap, "component_basepoints", counting)
    monkeypatch.setattr(contraction, "component_basepoints", counting)
    total_grafts = 0
    for q in _seeded_stable_quasimaps(fans, 20, 1904):
        scans.clear()
        witness = surjectivity_witness(q).quasimap
        grafts = witness.n_components - q.n_components
        assert len(scans) == q.n_components + grafts
        total_grafts += grafts
    assert total_grafts >= 20


# Reference for the rational tails: the marked hull from one walk, then one
# more walk per unmarked subtree hanging off it, which the single
# breadth-first walk of rational_tails replaces.

def rational_tails_oracle(q):
    marked = {c for c, _ in q.markings}
    if not marked:
        return ()
    adjacency = {i: [] for i in range(q.n_components)}
    for idx, ((a, pa), (b, pb)) in enumerate(q.nodes):
        adjacency[a].append((b, idx))
        adjacency[b].append((a, idx))
    hull = set()
    root = next(iter(marked))
    parent = {root: None}
    stack = [root]
    while stack:
        cur = stack.pop()
        for nxt, _ in adjacency[cur]:
            if nxt not in parent:
                parent[nxt] = cur
                stack.append(nxt)
    for comp in marked:
        cur = comp
        while cur is not None:
            hull.add(cur)
            cur = parent[cur]
    tails = []
    seen = set()
    for host in sorted(hull):
        for nxt, node_idx in adjacency[host]:
            if nxt in hull or nxt in seen:
                continue
            group = {nxt}
            stack = [nxt]
            while stack:
                cur = stack.pop()
                for other, _ in adjacency[cur]:
                    if other not in hull and other not in group:
                        group.add(other)
                        stack.append(other)
            seen |= group
            (a, pa), (b, pb) = q.nodes[node_idx]
            tails.append(Tail(frozenset(group), host, pa if a == host else pb))
    return tuple(sorted(tails, key=lambda t: (t.host, t.host_point.sort_key())))


def _relabelled_tree(q, rng, size):
    """q's first component on a random tree of ``size`` components with
    shuffled labels and node ends: rational_tails reads only the tree and the
    markings, so the sections need not glue."""
    label = rng.sample(range(size), size)
    nodes = []
    for child in range(1, size):
        ends = [(label[rng.randrange(child)], ProjPoint(1, 2 * child)),
                (label[child], ProjPoint(1, 2 * child + 1))]
        rng.shuffle(ends)
        nodes.append(tuple(ends))
    rng.shuffle(nodes)
    return Quasimap._unchecked(q.fan, (q.components[0],) * size, tuple(nodes), ())


def test_rational_tails_match_the_two_walk_oracle(p2, p1xp1, bl0p2, hexagon):
    rng = random.Random(2211)
    trees = tails = 0
    for fan, max_length, count in ((p2, 12, 120), (p1xp1, 12, 120), (bl0p2, 12, 120),
                                   (hexagon, 4, 40)):
        for _ in range(count):
            try:
                q = random_quasimap(fan, rng, max_components=6, max_total_length=max_length)
            except GiveUp:
                continue
            for tree in (q, _relabelled_tree(q, rng, rng.randint(2, 9))):
                trees += tree.n_components > 2
                n = tree.n_components
                subsets = (range(n), [rng.randrange(n)], [], rng.sample(range(n), min(n, 2)),
                           [c for c, _ in q.markings if c < n])
                for comps in subsets:
                    marks = tuple((c, ProjPoint(1, 50 + k)) for k, c in enumerate(comps))
                    marked = Quasimap._unchecked(fan, tree.components, tree.nodes, marks)
                    expected = rational_tails_oracle(marked)
                    assert rational_tails(marked) == expected, marked
                    tails += len(expected)
    assert trees >= 400 and tails >= 2000

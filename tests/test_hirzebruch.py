"""Non-Fano coverage on the second Hirzebruch surface: the anticanonical
degree vanishes on the rigid section, so every bounded enumeration must fall
back to an honest ample degree."""

import random

import pytest

from toriq import classes
from toriq.classes import (ample_functional, curve_class_from_anchor,
                           effective_classes, enumeration_degree, factorizations,
                           is_ample, is_fano, length, nef_hilbert_basis,
                           relaxed_surjectivity_condition, wall_curve_classes)
from toriq.contraction import StableMapTree, contract, surjectivity_witness
from toriq.embedding import apply_ibar, build_epic_embedding, fibre_enumeration
from toriq.cli import main
from toriq.fan import Fan, validate_fan
from toriq.forms import BinaryForm, ProjPoint
from toriq.io import dump, quasimap_to_dict
from toriq.quasimap import (Quasimap, basepoints, degrees, equal_quasimaps, stability,
                            validate_quasimap)

from qmgen import random_stable_quasimap


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


def test_f2_relaxed_condition_holds(f2):
    assert relaxed_surjectivity_condition(f2, 8)


def test_relaxed_condition_is_memoized_per_fan_and_bound(f2, monkeypatch):
    fan = Fan(f2.dim, f2.rays, f2.max_cones)  # a fresh instance: an empty memo
    calls = []
    real = classes.effective_classes

    def counting(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(classes, "effective_classes", counting)
    assert relaxed_surjectivity_condition(fan, 5)
    assert relaxed_surjectivity_condition(fan, 5)
    assert calls == [(5,)]
    assert relaxed_surjectivity_condition(fan, 6)
    assert calls == [(5,), (6,)]
    for _ in range(2):
        with pytest.raises(ValueError, match="requires a length bound"):
            relaxed_surjectivity_condition(fan, None)
    assert calls == [(5,), (6,)]


def test_f2_witness_via_relaxed_condition(f2):
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
    max_total_length=8)`` on which the anticanonical degree did not descend:
    its basepoint at z has class 2E + F, the graft leaves one of class F,
    and both have anticanonical degree 2.  Their ample degrees fall, so the
    search finds a witness, in the library and at the CLI."""
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
    draw; measured by the anticanonical degree, 6 of these 60 did not."""
    rng = random.Random(2)
    for _ in range(60):
        q = random_stable_quasimap(f2, rng, max_total_length=8)
        witness = surjectivity_witness(q)
        assert equal_quasimaps(contract(witness), q)

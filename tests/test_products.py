"""Higher-rank product targets: rank-3 lattices and dimension-3 fans."""

import pytest

from toriq.classes import (anticanonical_class, effective_classes, is_fano, length,
                           nef_hilbert_basis, picard_rank)
from toriq.embedding import build_epic_embedding, epic_check, polytope_lattice_points
from toriq.fan import primitive_collections, product_fan, projective_space_fan, validate_fan


@pytest.fixture(scope="module")
def p1cubed():
    return product_fan([projective_space_fan(1)] * 3)


@pytest.fixture(scope="module")
def blxp1(bl0p2):
    return product_fan([bl0p2, projective_space_fan(1)])


def test_p1_cubed_lattice(p1cubed):
    assert validate_fan(p1cubed) == []
    assert picard_rank(p1cubed) == 3
    assert is_fano(p1cubed)
    assert sorted(d.coords for d in nef_hilbert_basis(p1cubed)) == \
        [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert anticanonical_class(p1cubed).coords == (2, 2, 2)


def test_p1_cubed_effective_enumeration(p1cubed):
    classes = effective_classes(p1cubed, 4)
    # nonnegative integer triples of coordinate sum at most 2
    assert {c.anchor_coords for c in classes} == {
        (a, b, c) for a in range(3) for b in range(3) for c in range(3)
        if 2 * (a + b + c) <= 4
    }
    assert all(length(c) == 2 * sum(c.anchor_coords) for c in classes)


def test_product_with_blowup_factor(blxp1):
    assert validate_fan(blxp1) == []
    assert picard_rank(blxp1) == 3
    assert is_fano(blxp1)
    assert len(nef_hilbert_basis(blxp1)) == 3


def test_builder_factor_sizes_match_polytope_counts(p2, bl0p2, p1xp1):
    for fan in (p2, bl0p2, p1xp1):
        emb = build_epic_embedding(fan)
        sizes = [len(block) for block in primitive_collections(emb.target)]
        expected = [
            len(polytope_lattice_points(fan, d.ray_coefficients()))
            for d in nef_hilbert_basis(fan)
        ]
        assert sorted(sizes) == sorted(expected)
        assert epic_check(emb)


def test_builder_on_product_target(p1cubed):
    emb = build_epic_embedding(p1cubed)
    assert emb.target.n_rays == 6
    assert epic_check(emb)
    exps = sorted(emb.exponents)
    # each factor contributes its two coordinate sections
    assert all(sum(e) == 1 for e in exps)

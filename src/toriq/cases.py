"""Bundled worked cases with frozen expected values, runnable via the CLI.

Each case returns a report of (label, computed, expected) checks; the CLI
prints them with a pass/fail summary.  Fixture files live next to this
module and are also the CLI's example inputs.
"""

from fractions import Fraction
from pathlib import Path

from .basepoint import INF, degree_at_point
from .classes import curve_class_from_anchor
from .contraction import contract, contraction_condition, surjectivity_witness
from .embedding import (apply_ibar, build_epic_embedding, epic_check, fibre_enumeration,
                        pushforward_curves)
from .fan import primitive_collections
from .forms import BinaryForm, ProjPoint
from .quasimap import (Quasimap, _twist_away, basepoints, degrees, equal_quasimaps,
                       stability, validate_quasimap)
from . import io as tio


def fixture_path(name):
    return Path(__file__).parent / "fixtures" / name


def _form(deg, *coeffs):
    return BinaryForm.from_poly(deg, coeffs)


def blowup_order_table():
    """Order vectors of degree-L quasimaps to the blow-up of the plane, with
    the degree at the point and all witnessing cones (frozen expectations)."""
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


def family_map(t):
    """Two-component stable map to the blow-up of the plane, degree 2L,
    component classes 2S and 2E, glued at the origins; the parameter moves
    the order of contact at the node."""
    fan = tio.load_fan(fixture_path("bl0p2.json"))
    t = Fraction(t)
    c1 = (_form(2, 1), BinaryForm.zero(0), _form(0, 2), _form(2, 0, -t, 1))
    c2 = (_form(0, 1), _form(2, 0, 1), _form(2, 2, -3, 1), BinaryForm.zero(-2))
    return Quasimap(
        fan,
        (c1, c2),
        nodes=(((0, ProjPoint(1, 0)), (1, ProjPoint(1, 0))),),
        markings=((0, ProjPoint(1, 1)), (0, ProjPoint(1, 3))),
    )


def family_contracted():
    """The hand-computed contraction of the degenerate family member."""
    fan = tio.load_fan(fixture_path("bl0p2.json"))
    comp = (_form(2, 1), BinaryForm.zero(2), _form(2, 0, 0, 2), _form(0, 1))
    return Quasimap(fan, (comp,),
                    markings=((0, ProjPoint(1, 1)), (0, ProjPoint(1, 3))))


class CaseReport:
    def __init__(self, name, checks):
        self.name = name
        self.checks = checks  # (label, computed, expected)

    @property
    def passed(self):
        return all(c == e for _, c, e in self.checks)

    def lines(self):
        out = []
        for label, computed, expected in self.checks:
            status = "ok" if computed == expected else "FAIL"
            out.append(f"  [{status}] {label}: computed={computed} expected={expected}")
        verdict = "PASS" if self.passed else "FAIL"
        good = sum(1 for _, c, e in self.checks if c == e)
        out.append(f"{self.name}: {good}/{len(self.checks)} checks match -> {verdict}")
        return out


def _case_table1():
    fan = tio.load_fan(fixture_path("bl0p2.json"))
    checks = []
    for row, (orders, exp_beta, exp_cones) in enumerate(blowup_order_table(), start=1):
        beta, witnesses = degree_at_point(fan, orders)
        cones = sorted(fan.max_cones[i] for i in witnesses)
        checks.append((f"row {row} degree", beta.pairings, exp_beta))
        checks.append((f"row {row} witnesses", cones, sorted(map(tuple, exp_cones))))
    return CaseReport("table1", checks)


def _case_segre():
    emb = tio.load_embedding(fixture_path("segre.json"))
    q1 = tio.load_quasimap(fixture_path("segre_q1.json"))
    q2 = tio.load_quasimap(fixture_path("segre_q2.json"))
    checks = [("embedding is epic", epic_check(emb), False)]
    image1 = apply_ibar(emb, q1)
    image2 = apply_ibar(emb, q2)
    checks.append(("images coincide", equal_quasimaps(image1, image2), True))
    beta = degrees(q1)[0]
    fibre = fibre_enumeration(emb, image1, beta)
    checks.append(("fibre size", len(fibre), 2))
    found = {"q1": False, "q2": False}
    for element in fibre:
        if equal_quasimaps(element, q1):
            found["q1"] = True
        if equal_quasimaps(element, q2):
            found["q2"] = True
    checks.append(("fibre recovers both quasimaps", found, {"q1": True, "q2": True}))
    return CaseReport("segre", checks)


def _case_blowup_embeddings():
    fan = tio.load_fan(fixture_path("bl0p2.json"))
    emb = build_epic_embedding(fan)
    blocks = projective_blocks(emb.target)
    factor_dims = [len(b) - 1 for b in blocks]
    monomial_sets = {frozenset(emb.exponents[i] for i in block) for block in blocks}
    expected_sets = {
        frozenset({(1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1)}),
        frozenset({(0, 1, 0, 0), (0, 0, 1, 0)}),
    }
    checks = [
        ("target factors", sorted(factor_dims), [1, 2]),
        ("monomial sets", monomial_sets, expected_sets),
        ("builder output is epic", epic_check(emb), True),
    ]
    # a ruling class pairs with each factor through its degree there; the
    # strict-transform class hits the plane factor once, the exceptional class
    # hits the line factor once
    checks.append(("pushforward of S", factor_degrees(emb, curve_class_from_anchor(fan, (1, 0))), (1, 0)))
    checks.append(("pushforward of E", factor_degrees(emb, curve_class_from_anchor(fan, (0, 1))), (0, 1)))
    return CaseReport("blowup-embeddings", checks)


def projective_blocks(target):
    """Ray index blocks of a product-of-projective-spaces target fan: its
    primitive collections, which ``product_fan`` stores when it builds one."""
    return [sorted(pc) for pc in primitive_collections(target)]


def factor_degrees(emb, beta):
    """Degrees of a pushed-forward class on each target factor, largest first."""
    pushed = pushforward_curves(emb, beta)
    blocks = projective_blocks(emb.target)
    pairs = sorted(((len(b) - 1, pushed.pairings[b[0]]) for b in blocks), reverse=True)
    return tuple(d for _, d in pairs)


def _case_family_t():
    checks = []
    for t in range(6):
        f = family_map(t)
        _, overall = contraction_condition(f)
        checks.append((f"condition at t={t}", overall, t == 0))
    contracted = contract(family_map(0))
    checks.append(
        ("contraction matches the hand-computed quasimap",
         equal_quasimaps(contracted, family_contracted()), True)
    )
    return CaseReport("family-t", checks)


def _case_extension_degree():
    q = tio.load_quasimap(fixture_path("section_line.json"))
    checks = [("quasimap is valid", validate_quasimap(q), [])]
    total = degrees(q)[0]
    checks.append(("degree", total.pairings, (1, 1, 1)))
    bps = basepoints(q)
    checks.append(("basepoint count", len(bps), 1))
    checks.append(("basepoint degree", bps[0].degree.pairings, (1, 1, 1)))
    ext = _twist_away(q, bps)
    checks.append(("extension degree", degrees(ext)[0].pairings, (0, 0, 0)))
    checks.append(("stable as quasimap", stability(q, "quasimap"), True))
    checks.append(("extension stable as map", stability(ext, "map"), False))
    return CaseReport("extension-degree", checks)


def _case_witness_demo():
    q = tio.load_quasimap(fixture_path("section_line.json"))
    witness = surjectivity_witness(q)
    checks = [
        ("witness is a two-component map", witness.quasimap.n_components, 2),
        ("witness is map-stable", stability(witness.quasimap, "map"), True),
        ("contraction returns the input",
         equal_quasimaps(contract(witness), q), True),
        ("total degree preserved",
         degrees(witness.quasimap)[0].pairings, degrees(q)[0].pairings),
    ]
    return CaseReport("witness-demo", checks)


_CASES = {
    "table1": _case_table1,
    "segre": _case_segre,
    "blowup-embeddings": _case_blowup_embeddings,
    "family-t": _case_family_t,
    "extension-degree": _case_extension_degree,
    "witness-demo": _case_witness_demo,
}
CASE_NAMES = tuple(_CASES)


def run_case(name):
    if name not in _CASES:
        raise ValueError(f"unknown case {name!r}; choose from {', '.join(CASE_NAMES)}")
    return _CASES[name]()

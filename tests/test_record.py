"""Value semantics of toriq's immutable classes against frozen-dataclass twins.

Each twin declares the same fields as the class it shadows, with the same
name, so the dataclass-generated ``==``, ``hash`` and ``repr`` serve as the
oracle.  A twin is built from the class instance's own (normalised) field
values.
"""

import random
from dataclasses import make_dataclass
from fractions import Fraction

import pytest
from qmgen import random_stable_quasimap

from toriq.basepoint import INF, OrderVector
from toriq.cases import CaseReport
from toriq.classes import CurveClass, DivisorClass, effective_classes, picard_rank
from toriq.contraction import StableMapTree, Tail, surjectivity_witness
from toriq.embedding import EmbeddingSpec, build_epic_embedding
from toriq.fan import Fan, product_fan, projective_space_fan
from toriq.forms import BinaryForm, Place, ProjPoint
from toriq.quasimap import BasepointPlace, Quasimap, basepoints

FIELDS = {
    ProjPoint: ("a", "b"),
    Place: ("at_infinity", "coeffs"),
    BinaryForm: ("degree", "coeffs"),
    CurveClass: ("fan", "pairings"),
    DivisorClass: ("fan", "coords"),
    Fan: ("dim", "rays", "max_cones"),
    OrderVector: ("fan", "orders"),
    Quasimap: ("fan", "components", "nodes", "markings"),
    BasepointPlace: ("component", "place", "orders", "degree"),
    Tail: ("components", "host", "host_point"),
    StableMapTree: ("quasimap",),
    EmbeddingSpec: ("source", "target", "coeffs", "exponents"),
}
CUSTOM_REPR = (ProjPoint, Place, BinaryForm)


TWINS = {cls: make_dataclass(cls.__name__, names, frozen=True) for cls, names in FIELDS.items()}


def values(obj):
    return tuple(getattr(obj, name) for name in FIELDS[type(obj)])


def twin(obj):
    return TWINS[type(obj)](*values(obj))


def _fans():
    p = projective_space_fan
    return [p(2), product_fan([p(1), p(1)]),
            Fan(2, ((0, -1), (1, 0), (-1, 1), (0, 1)), ((1, 3), (2, 3), (0, 2), (0, 1)))]


def _rational(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def samples(seed):
    """Seeded instances of every class, each also rebuilt from its fields."""
    rng = random.Random(seed)
    fans = _fans()
    out = {cls: [] for cls in FIELDS}
    for fan in fans:
        out[Fan].append(fan)
        classes = [c for c in effective_classes(fan, 6) if not c.is_zero()]
        out[CurveClass] += rng.sample(classes, 2)
        out[DivisorClass] += [DivisorClass(fan, [rng.randint(-2, 2) for _ in range(picard_rank(fan))])
                              for _ in range(3)]
        out[OrderVector] += [OrderVector(fan, [rng.randint(0, 2) for _ in range(fan.n_rays)])
                             for _ in range(3)]
        out[OrderVector].append(OrderVector(fan, (INF,) + (1,) * (fan.n_rays - 1)))
        out[EmbeddingSpec].append(build_epic_embedding(fan))
        q = random_stable_quasimap(fan, rng)
        out[Quasimap].append(q)
        out[BasepointPlace] += basepoints(q)
        out[StableMapTree].append(surjectivity_witness(q))
    out[ProjPoint] += [ProjPoint(rng.randint(1, 3), _rational(rng)) for _ in range(4)]
    out[ProjPoint] += [ProjPoint.infinity(), ProjPoint(0, 5)]
    out[Place] += [Place.rational(_rational(rng)) for _ in range(3)]
    out[Place] += [Place.infinity(), Place.finite((1, 0, 1))]
    out[BinaryForm] += [BinaryForm(d, [rng.randint(-2, 2) for _ in range(d + 1)])
                        for d in (0, 1, 1, 2, 3)]
    out[BinaryForm].append(BinaryForm(-1, ()))
    points = out[ProjPoint]
    out[Tail] += [Tail(frozenset(rng.sample(range(4), 2)), rng.randint(0, 1), rng.choice(points))
                  for _ in range(4)]
    for cls, objs in out.items():
        assert objs, cls
        out[cls] = objs + [cls(*values(obj)) for obj in objs]
    return out


@pytest.mark.parametrize("seed", [3, 17])
def test_equality_hash_and_repr_match_the_dataclass_twins(seed):
    for cls, objs in samples(seed).items():
        for a in objs:
            ta = twin(a)
            assert hash(a) == hash(ta), cls
            if cls not in CUSTOM_REPR:
                assert repr(a) == repr(ta), cls
            for b in objs:
                assert (a == b) == (ta == twin(b)), (a, b)
                assert (a != b) == (ta != twin(b)), (a, b)
        # every rebuilt copy is a distinct object equal to its original
        half = len(objs) // 2
        for a, b in zip(objs[:half], objs[half:]):
            assert a is not b and a == b and hash(a) == hash(b)


@pytest.mark.parametrize("seed", [3, 17])
def test_fields_are_read_only(seed):
    for cls, objs in samples(seed).items():
        obj = objs[0]
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert values(obj) == values(objs[len(objs) // 2])


def test_never_equal_to_another_class_with_the_same_fields():
    for cls, objs in samples(5).items():
        for obj in objs:
            other = twin(obj)
            assert obj != other and not obj == other and other != obj
            assert obj.__eq__(other) is NotImplemented


def test_keyword_and_default_constructor_arguments():
    fan = projective_space_fan(1)
    comps = ((BinaryForm(1, (0, 1)), BinaryForm(1, (1, 0))),)
    q = Quasimap(fan=fan, components=comps)
    assert q.nodes == () and q.markings == ()
    assert q == Quasimap(fan, comps, (), ())
    assert StableMapTree(quasimap=q) == StableMapTree(q)
    assert CurveClass(fan=fan, pairings=(1, 1)) == CurveClass(fan, (1, 1))


def test_constructors_take_exact_integers():
    """A fan's dimension, rays and cone entries, a form's degree, order
    entries, exponents and special-point components must be integers; a
    float or a Fraction is refused, not truncated."""
    bl0p2 = Fan(2, ((0, -1), (1, 0), (-1, 1), (0, 1)), ((1, 3), (2, 3), (0, 2), (0, 1)))
    p1 = projective_space_fan(1)
    comps = ((BinaryForm(1, (0, 1)), BinaryForm(1, (1, 0))),)
    bad = [
        lambda: Fan(2, ((1.9, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2))),
        lambda: Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1.0), (1, 2), (0, 2))),
        lambda: Fan(2.0, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2))),
        lambda: BinaryForm(Fraction(2), (1, 0, 3)),
        lambda: OrderVector(bl0p2, (Fraction(3, 2), 1, 1, 0)),
        lambda: EmbeddingSpec(p1, p1, (1, 1), ((1.5, 0), (0, 1))),
        lambda: Quasimap(p1, comps, markings=((0.0, ProjPoint(1, 1)),)),
        lambda: Quasimap(p1, comps + comps, nodes=(((0, ProjPoint(1, 0)), (Fraction(1), ProjPoint(1, 0))),)),
    ]
    for make in bad:
        with pytest.raises(TypeError):
            make()
    assert OrderVector(bl0p2, (True, 1, 1, 0)).orders == (1, 1, 1, 0)


def test_case_report_is_a_plain_mutable_record():
    checks = [("a", 1, 1), ("b", 2, 3)]
    report = CaseReport("demo", checks)
    assert report.name == "demo" and report.checks is checks and not report.passed
    assert CaseReport(name="demo", checks=checks).lines() == report.lines()
    report.checks = checks[:1]
    assert report.passed

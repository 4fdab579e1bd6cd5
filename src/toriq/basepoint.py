"""Vanishing-order vectors and the degree of a quasimap at a point.

An order vector records, per ray, the vanishing order of the corresponding
section at one smooth point of the source curve; identically vanishing
sections get the symbolic value ``INF``.  The degree of the point is the
unique effective curve class whose twist removes the basepoint; it is found
by scanning the maximal cones whose rays contain all identically-vanishing
directions.
"""

from dataclasses import dataclass

from .classes import CurveClass, beta_a_sigma
from .fan import primitive_collections, require_valid


class _Infinity:
    """Order of the zero section: absorbs addition, dominates every integer."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if other is self:
            raise ArithmeticError("inf - inf is undefined")
        return self

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("toriq-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True


INF = _Infinity()


def is_infinite(x):
    return x is INF


@dataclass(frozen=True)
class OrderVector:
    """Per-ray vanishing orders at one point, entries in Z>=0 or INF."""

    fan: object
    orders: tuple

    def __post_init__(self):
        vals = []
        for x in self.orders:
            if is_infinite(x):
                vals.append(INF)
            else:
                v = int(x)
                if v < 0:
                    raise ValueError("vanishing orders must be nonnegative")
                vals.append(v)
        object.__setattr__(self, "orders", tuple(vals))
        if len(vals) != self.fan.n_rays:
            raise ValueError("order vector length does not match the ray count")
        vanishing = self.vanishing
        for pc in primitive_collections(self.fan):
            if pc <= vanishing:
                raise ValueError(
                    "degenerate order vector: the identically-vanishing rays "
                    f"contain the primitive collection {tuple(sorted(pc))}"
                )

    @property
    def vanishing(self):
        return frozenset(i for i, x in enumerate(self.orders) if is_infinite(x))


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


def degree_at_point(fan, ord_vector):
    """The unique curve class removing the basepoint, with all witnessing cones.

    Returns ``(beta, witnesses)`` where ``witnesses`` lists every maximal cone
    containing the vanishing rays whose associated class satisfies all order
    inequalities; they all induce the same class.
    """
    if not isinstance(ord_vector, OrderVector):
        ord_vector = OrderVector(fan, tuple(ord_vector))
    return _scan_degree(fan, ord_vector.orders, ord_vector.vanishing)


def length_at_point(fan, ord_vector):
    """Combinatorial length of the point: minimum over admissible cones of the
    pairing sum of the cone's associated class over the rays off the cone."""
    if not isinstance(ord_vector, OrderVector):
        ord_vector = OrderVector(fan, tuple(ord_vector))
    require_valid(fan)
    best = None
    for idx in _eligible_cones(fan, ord_vector.vanishing):
        cone = fan.max_cones[idx]
        complement = fan.cone_complement(cone)
        beta = beta_a_sigma(fan, ord_vector.orders, cone)
        total = sum(beta.pairings[i] for i in complement)
        if best is None or total < best:
            best = total
    if best is None:
        raise ValueError("no maximal cone admits the order vector")
    return best


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


def is_nonbasepoint_vector(fan, ord_vector):
    """Whether some maximal cone has order zero on every ray off the cone."""
    if not isinstance(ord_vector, OrderVector):
        ord_vector = OrderVector(fan, tuple(ord_vector))
    for cone in fan.max_cones:
        if all(ord_vector.orders[i] == 0 for i in fan.cone_complement(cone)):
            return True
    return False

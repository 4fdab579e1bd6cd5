"""Vanishing-order vectors and the degree of a quasimap at a point.

An order vector records, per ray, the vanishing order of the corresponding
section at one smooth point of the source curve; identically vanishing
sections get the symbolic value ``INF``.  The degree of the point is the
unique effective curve class whose twist removes the basepoint; it is found
by locating the vector the orders sum the rays to among the maximal cones
that contain all identically-vanishing directions.  Neither the scan's
vectors (``OrderVector._unchecked``; the scan rejects degenerate components
itself) nor the degree, a class by construction, is checked again.
"""

from functools import total_ordering
from operator import index

from .classes import CurveClass
from .fan import _cone_sets, _degenerate_collections, memo, require_valid
from .record import Record


@total_ordering
class _Infinity:
    """Order of the zero section: absorbs addition and lies above every
    integer; the one instance equals only itself, and inf - inf raises."""

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

    def __lt__(self, other):
        return False


INF = _Infinity()


def is_infinite(x):
    return x is INF


class OrderVector(Record):
    """Per-ray vanishing orders at one point, entries in Z>=0 or INF."""

    _fields = ("fan", "orders")

    def __init__(self, fan, orders):
        vals = tuple(x if x is INF else index(x) for x in orders)
        if any(v < 0 for v in vals):
            raise ValueError("vanishing orders must be nonnegative")
        if len(vals) != fan.n_rays:
            raise ValueError("order vector length does not match the ray count")
        self.__dict__.update(fan=fan, orders=vals)
        degenerate = _degenerate_collections(fan, self.vanishing)
        if degenerate:
            raise ValueError(
                "degenerate order vector: the identically-vanishing rays "
                f"contain the primitive collection {degenerate[0]}"
            )

    @property
    def vanishing(self):
        return frozenset(i for i, x in enumerate(self.orders) if is_infinite(x))


@memo
def _cone_table(fan):
    """Per maximal cone: its index, rays, ray set and exponent matrix rows."""
    return tuple((idx, sigma, cone_set, fan.exponent_matrix(sigma))
                 for idx, (sigma, cone_set) in enumerate(zip(fan.max_cones, _cone_sets(fan))))


def _locate_degree(fan, orders, vanishing, first=False):
    """Degree and witnesses of ``orders``, which may hold negative integers.

    With v the sum of a_rho u_rho over the rays off Z = ``vanishing``, a
    maximal cone sigma containing Z is a witness iff c_k = <m_k, v> >= 0 at
    each ray sigma_k off Z; the degree is a - c on sigma (a as 0 on Z), a off it.
    With ``first`` the scan stops at the first witness, the only one returned.
    """
    require_valid(fan)
    finite = [(i, o) for i, o in enumerate(orders) if o and o is not INF]
    hits = []
    for idx, sigma, cone_set, rows in _cone_table(fan):
        if vanishing <= cone_set:
            c = [sum(o * row[i] for i, o in finite) for row in rows]
            if all(ck >= 0 for rho, ck in zip(sigma, c) if rho not in vanishing):
                hits.append((idx, sigma, c))
                if first:
                    break
    if not hits:
        raise ValueError(
            "no maximal cone admits the order vector; the fan data is corrupt"
        )
    _, sigma, c = hits[0]
    pairings = list(orders)
    for rho, ck in zip(sigma, c):
        pairings[rho] = (0 if rho in vanishing else orders[rho]) - ck
    # a class for any integer orders: sum a_rho u_rho = v = sum c_k u_sigma_k
    return CurveClass._derived(fan, tuple(pairings)), tuple(idx for idx, _, _ in hits)


def degree_at_point(fan, ord_vector):
    """The unique curve class removing the basepoint, with all witnessing cones.

    Returns ``(beta, witnesses)`` where ``witnesses`` lists every maximal cone
    containing the vanishing rays whose associated class satisfies all order
    inequalities, found by integer point location; they induce the same class.
    """
    if not isinstance(ord_vector, OrderVector):
        ord_vector = OrderVector(fan, tuple(ord_vector))
    return _locate_degree(fan, ord_vector.orders, ord_vector.vanishing)


def length_at_point(fan, ord_vector):
    """Combinatorial length of the point: the minimum, over maximal cones
    containing the vanishing rays, of the orders summed over the rays off
    the cone (beta_{a,sigma} equals the orders there)."""
    if not isinstance(ord_vector, OrderVector):
        ord_vector = OrderVector(fan, tuple(ord_vector))
    require_valid(fan)
    vanishing = ord_vector.vanishing
    totals = [sum(ord_vector.orders[i] for i in fan.cone_complement(cone))
              for cone in fan.max_cones if vanishing <= set(cone)]
    if not totals:
        raise ValueError("no maximal cone admits the order vector")
    return min(totals)

"""Smooth complete fans and their combinatorics.

A fan is stored as its primitive ray generators plus the list of maximal
cones, each a set of ray indices.  The order of the rays in the input is the
canonical index order used everywhere downstream (pairing vectors, order
vectors, section tuples), and the first maximal cone anchors the divisor
class basis.

The dual bases of the maximal cones come from one walk over the facet graph
(``_dual_bases``): a cone no walk has reached yet is inverted, and each cone
across a facet of a smooth one, which differs from it by one ray, follows by
one integer pivot whose value is the new cone's determinant up to sign (the
basis exchange behind the wall criterion of Cox-Little-Schenck, Toric
Varieties).  ``validate_fan`` reads
smoothness off that table (a cone is smooth exactly when its dual basis is
integral) and decides the fan condition locally: each wall's two cones must
lie strictly on opposite sides of it (one integer sign per wall), and the ray
sum of cone 0 must lie in cone 0 alone (covering degree one).  Its verdict is
computed once per fan.

All arithmetic is over the integers.  Fans are immutable and every
operation is a pure function.  Derived data is memoized on the instance
(``memo``), so it is computed once per fan, on first use, and freed with it.
Sharing a fan across threads stays safe, because memo writes are idempotent.
"""

from functools import wraps
from itertools import combinations
from math import gcd
from operator import index, mul

from .linalg import invert
from .record import Record


def memo(fn):
    """Memoize ``fn(obj, *args)`` in ``obj``'s own ``__dict__``.

    The results live and die with ``obj`` and stay out of its equality and
    hash, which see only the value fields.  ``fn`` must be pure and its
    extra arguments hashable; exceptions are not memoized.
    """
    name = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def memoized(obj, *args):
        cache = obj.__dict__.setdefault("_memo", {})
        key = (name, *args)
        try:
            return cache[key]
        except KeyError:
            value = cache[key] = fn(obj, *args)
            return value

    return memoized


def remember(obj, qualname, value):
    """Store ``value`` under ``memo``'s key for ``qualname(obj)``, given with its
    module; by name, as traced runs rebind module functions to wrappers.  It
    stores a built embedding's verdict (``build_epic_embedding``)."""
    obj.__dict__.setdefault("_memo", {})[(qualname,)] = value


class Fan(Record):
    """A fan given by primitive rays and maximal cones (sets of ray indices)."""

    _fields = ("dim", "rays", "max_cones")

    def __init__(self, dim, rays, max_cones):
        dim = index(dim)
        rays = tuple(tuple(map(index, r)) for r in rays)
        max_cones = tuple(tuple(sorted(map(index, c))) for c in max_cones)
        for ray in rays:
            if len(ray) != dim:
                raise ValueError(f"ray {ray} does not have length {dim}")
        for cone in max_cones:
            for i in cone:
                if not 0 <= i < len(rays):
                    raise ValueError(f"cone {cone} references unknown ray {i}")
        self.__dict__.update(dim=dim, rays=rays, max_cones=max_cones)

    @property
    def n_rays(self):
        return len(self.rays)

    def cone_complement(self, cone):
        members = set(cone)
        return tuple(i for i in range(self.n_rays) if i not in members)

    def pairing(self, m):
        """The pairings <m, u_rho> of a character with every ray, in ray order."""
        return tuple(sum(map(mul, m, ray)) for ray in self.rays)

    @memo
    def exponent_matrix(self, sigma):
        """E[k][rho] = <m_k, u_rho> for the dual basis m_k of a maximal cone."""
        return tuple(self.pairing(m) for m in dual_basis(self, sigma))


def _is_primitive(ray):
    g = 0
    for x in ray:
        g = gcd(g, abs(x))
    return g == 1


_NON_UNIMODULAR = "non-unimodular cone has no integral dual basis"


@memo
def _dual_bases(fan):
    """Per maximal cone, its dual basis or the message of its ValueError.

    One walk over the facet graph.  Each unreached cone is inverted.  From a
    unimodular cone sigma with dual basis m, crossing the facet sigma - {a}
    into sigma' = sigma - {a} + {b} is one integer pivot: with p = <m_a, u_b>,
    |det sigma'| = |p|, and for p = +-1 the dual basis of sigma' is
    m'_b = p m_a and m'_k = m_k - <m_k, u_b> m'_b.  A cone without exactly dim
    distinct rays has no dual basis.
    """
    dim, rays, cones = fan.dim, fan.rays, fan.max_cones
    incidence = _facet_incidence(fan) if dim > 0 else {}
    table = {cone: f"maximal cone {cone} is not a set of {dim} distinct rays"
             for cone in cones if not len(set(cone)) == len(cone) == dim}
    for start in cones:
        if start in table:
            continue
        try:
            inv = invert([[rays[j][i] for j in start] for i in range(dim)])
        except ValueError as exc:
            table[start] = _NON_UNIMODULAR if "unimodular" in str(exc) else str(exc)
            continue
        table[start] = tuple(map(tuple, inv))
        stack = [start]
        while stack:  # every cone on the stack is unimodular
            sigma = stack.pop()
            basis = table[sigma]
            for k, a in enumerate(sigma):
                facet = sigma[:k] + sigma[k + 1:]
                for idx in incidence[facet]:
                    cone = cones[idx]
                    if cone in table:
                        continue
                    (b,) = set(cone).difference(facet)
                    u_b = rays[b]
                    p = sum(map(mul, basis[k], u_b))
                    if p * p != 1:  # p = 0 is the singular case of invert
                        table[cone] = _NON_UNIMODULAR if p else "singular matrix"
                        continue
                    m_b = tuple(p * x for x in basis[k])
                    rows = {b: m_b}
                    for j, m in zip(sigma, basis):
                        if j != a:
                            c = sum(map(mul, m, u_b))
                            rows[j] = tuple(x - c * y for x, y in zip(m, m_b))
                    table[cone] = tuple(rows[j] for j in cone)
                    stack.append(cone)
    return table


def dual_basis(fan, sigma):
    """Integer covectors m_1..m_n with <m_i, u_{rho_j}> = delta_ij on the cone's rays.

    ``sigma`` must be one of the fan's maximal cones (any iterable of ray
    indices); smoothness makes the dual basis integral.
    """
    sigma = tuple(sorted(sigma))
    try:
        basis = _dual_bases(fan)[sigma]
    except KeyError:
        raise ValueError(f"{sigma} is not a maximal cone of the fan") from None
    if type(basis) is str:
        raise ValueError(basis)
    return basis


def locate_cones(fan, u):
    """Indices of the maximal cones containing the vector u (all, on ties)."""
    return [idx for idx, cone in enumerate(fan.max_cones)
            if all(sum(m * x for m, x in zip(row, u)) >= 0 for row in dual_basis(fan, cone))]


@memo
def _cone_sets(fan):
    """The ray sets of the maximal cones, in cone order."""
    return tuple(map(frozenset, fan.max_cones))


@memo
def primitive_collections(fan):
    """Minimal ray sets contained in no cone of the fan, sorted canonically."""
    def is_face(subset):
        return any(subset <= cone for cone in _cone_sets(fan))

    non_faces = []
    for size in range(1, fan.n_rays + 1):
        for subset in combinations(range(fan.n_rays), size):
            fs = frozenset(subset)
            if is_face(fs):
                continue
            if any(nf <= fs for nf in non_faces):
                continue
            non_faces.append(fs)
    return tuple(sorted(non_faces, key=lambda s: tuple(sorted(s))))


@memo
def _sorted_collections(fan):
    """The primitive collections as sorted ray tuples, in canonical order."""
    return tuple(tuple(sorted(pc)) for pc in primitive_collections(fan))


def _degenerate_collections(fan, rays):
    """The primitive collections inside a ray set, each sorted, in canonical
    order: empty exactly when the rays lie in one cone, since a smooth fan is
    simplicial and every non-face holds a minimal one."""
    return [pc for pc in _sorted_collections(fan) if rays.issuperset(pc)]


@memo
def _facet_incidence(fan):
    """Each (dim - 1)-subset of a maximal cone, mapped to the indices of the
    maximal cones it lies in, in cone order."""
    incidence = {}
    for idx, cone in enumerate(fan.max_cones):
        for facet in combinations(cone, fan.dim - 1):
            incidence.setdefault(facet, []).append(idx)
    return incidence


@memo
def walls(fan):
    """All walls as (ray index set, (cone index, cone index)) pairs.

    Each wall of a smooth complete fan is a facet shared by exactly two
    maximal cones; the ValueError raised otherwise names every other facet.
    """
    incidence = _facet_incidence(fan)
    bad = [f"wall {facet} lies in {len(owners)} maximal cones (expected 2)"
           for facet, owners in incidence.items() if len(owners) != 2]
    if bad:
        raise ValueError("; ".join(bad))
    return tuple((facet, tuple(owners)) for facet, owners in sorted(incidence.items()))


def breadth_first(n, edges, root=0):
    """Breadth-first walk from ``root`` over the graph on vertices 0..n-1:
    the vertices in visit order, and per visited vertex the index of the edge
    that reached it (None at the root)."""
    adjacency = [[] for _ in range(n)]
    for idx, (a, b) in enumerate(edges):
        adjacency[a].append((b, idx))
        adjacency[b].append((a, idx))
    order, reached = [root], {root: None}
    for vertex in order:
        for nxt, idx in adjacency[vertex]:
            if nxt not in reached:
                reached[nxt] = idx
                order.append(nxt)
    return order, reached


def is_connected(n, edges):
    """Whether the graph on vertices 0..n-1 (n >= 1) with these edges is connected."""
    return len(breadth_first(n, edges)[0]) == n


def _fan_condition_violations(fan, fan_walls):
    """Violations of the fan condition, decided locally at the walls.

    Expects a smooth fan whose walls each lie in exactly two cones and whose
    cones are connected through walls.  Such a fan covers every generic
    vector the same number of times as long as each wall's two cones lie on
    opposite sides of it (Cox-Little-Schenck, Toric Varieties; Batyrev 1991),
    so the fan condition holds iff every wall passes that sign test and one
    interior vector of cone 0 lies in cone 0 alone.
    """
    cones = fan.max_cones
    bases = _dual_bases(fan)

    def overlap(ci, cj):
        return (f"cones {cones[ci]} and {cones[cj]} intersect "
                f"outside the cone spanned by their common rays")

    out = []
    for facet, (ci, cj) in fan_walls:
        sigma = cones[ci]
        (a,) = set(sigma).difference(facet)
        (b,) = set(cones[cj]).difference(facet)
        # smoothness makes this pairing +-1; +1 puts both cones on a's side
        if sum(map(mul, bases[sigma][sigma.index(a)], fan.rays[b])) >= 0:
            out.append(overlap(ci, cj))
    if out:
        return out
    interior = [sum(column) for column in zip(*(fan.rays[i] for i in cones[0]))]
    return [overlap(0, j) for j in locate_cones(fan, interior) if j != 0]


def validate_fan(fan):
    """Check all fan invariants; returns a fresh list of the violations (empty
    if valid), computed once per fan.

    Malformed input (wrong vector lengths, bad indices) is rejected by the Fan
    constructor before this runs.
    """
    return list(_violations(fan))


@memo
def _violations(fan):
    report = []
    if fan.dim < 1:
        return ["dimension must be positive"]
    if len(set(fan.rays)) != len(fan.rays):
        report.append("rays are not pairwise distinct")
    for i, ray in enumerate(fan.rays):
        if all(x == 0 for x in ray):
            report.append(f"ray {i} is zero")
        elif not _is_primitive(ray):
            report.append(f"ray {i} = {ray} is not primitive")
    if report:
        return report

    if not fan.max_cones:
        return ["fan has no maximal cones"]
    for cone in fan.max_cones:
        if len(set(cone)) != fan.dim or len(cone) != fan.dim:
            distinct = " distinct" if len(cone) == fan.dim else ""
            report.append(f"maximal cone {cone} does not have {fan.dim}{distinct} rays")
    if report:
        return report
    bases = _dual_bases(fan)
    for cone in fan.max_cones:
        # smooth (|det| = 1) exactly when the dual basis is integral
        if type(bases[cone]) is str:
            report.append(f"maximal cone {cone} is not smooth (determinant != +-1)")
    if report:
        return report

    used = {i for cone in fan.max_cones for i in cone}
    if used != set(range(fan.n_rays)):
        report.append("some ray lies in no maximal cone")

    try:
        fan_walls = walls(fan)
    except ValueError as exc:
        report.append(str(exc))
    if not report and not is_connected(
            len(fan.max_cones), [owners for _, owners in fan_walls]):
        report.append("maximal-cone adjacency graph is not connected")
    if report:
        return report

    return _fan_condition_violations(fan, fan_walls)


@memo
def require_valid(fan):
    violations = validate_fan(fan)
    if violations:
        raise ValueError("invalid fan: " + "; ".join(violations))
    return fan


def product_fan(factors):
    """Product of fans, ray blocks concatenated in factor order; the empty
    product is the zero-dimensional fan with one empty cone."""
    dim = sum(f.dim for f in factors)
    rays, cones, pos = [], [()], 0
    for f in factors:
        off, before, after = len(rays), (0,) * pos, (0,) * (dim - pos - f.dim)
        rays += [before + ray + after for ray in f.rays]
        cones = [c + tuple(i + off for i in mc) for c in cones for mc in f.max_cones]
        pos += f.dim
    return Fan(dim, tuple(rays), tuple(cones))


def projective_space_fan(n):
    """The fan of n-dimensional projective space: e_1..e_n and -(e_1+...+e_n)."""
    rays = [tuple(int(i == j) for i in range(n)) for j in range(n)] + [tuple([-1] * n)]
    return Fan(n, tuple(rays), tuple(combinations(range(n + 1), n)))

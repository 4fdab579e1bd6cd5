"""Smooth complete fans and their combinatorics.

A fan is stored as its primitive ray generators plus the list of maximal
cones, each a set of ray indices.  The order of the rays in the input is the
canonical index order used everywhere downstream (pairing vectors, order
vectors, section tuples), and the first maximal cone anchors the divisor
class basis.

All arithmetic is exact (ints and fractions).  Fans are immutable and every
operation is a pure function.  Derived data is memoized on the instance
(``memo``), so it is computed once per fan and freed with it.  Sharing a fan
across threads stays safe, because memo writes are idempotent.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import combinations
from math import gcd

from .linalg import determinant, frac, invert, kernel_basis


def memo(fn):
    """Memoize ``fn(obj, *args)`` in ``obj``'s own ``__dict__``.

    The results live and die with ``obj`` and stay out of its equality and
    hash, which see only the dataclass fields.  ``fn`` must be pure and its
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


@dataclass(frozen=True)
class Fan:
    """A fan given by primitive rays and maximal cones (sets of ray indices)."""

    dim: int
    rays: tuple
    max_cones: tuple

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(tuple(int(x) for x in r) for r in self.rays))
        object.__setattr__(
            self, "max_cones", tuple(tuple(sorted(int(i) for i in c)) for c in self.max_cones)
        )
        for ray in self.rays:
            if len(ray) != self.dim:
                raise ValueError(f"ray {ray} does not have length {self.dim}")
        for cone in self.max_cones:
            for i in cone:
                if not 0 <= i < len(self.rays):
                    raise ValueError(f"cone {cone} references unknown ray {i}")

    @property
    def n_rays(self):
        return len(self.rays)

    def cone_complement(self, cone):
        return tuple(i for i in range(self.n_rays) if i not in set(cone))

    def pairing(self, m):
        """The pairings <m, u_rho> of a character with every ray, in ray order."""
        return tuple(sum(mi * ui for mi, ui in zip(m, ray)) for ray in self.rays)

    @memo
    def exponent_matrix(self, sigma):
        """E[k][rho] = <m_k, u_rho> for the dual basis m_k of a maximal cone."""
        return tuple(self.pairing(m) for m in dual_basis(self, sigma))

    def to_dict(self):
        return {
            "dim": self.dim,
            "rays": [list(r) for r in self.rays],
            "max_cones": [list(c) for c in self.max_cones],
        }


def _is_primitive(ray):
    g = 0
    for x in ray:
        g = gcd(g, abs(x))
    return g == 1


@memo
def dual_basis(fan, sigma):
    """Integer covectors m_1..m_n with <m_i, u_{rho_j}> = delta_ij on the cone's rays.

    ``sigma`` must be one of the fan's maximal cones (any iterable of ray
    indices); smoothness makes the dual basis integral.
    """
    sigma = tuple(sorted(sigma))
    if sigma not in fan.max_cones:
        raise ValueError(f"{sigma} is not a maximal cone of the fan")
    cols = [[fan.rays[j][i] for j in sigma] for i in range(fan.dim)]
    inv = invert(cols)
    covectors = []
    for row in inv:
        ints = []
        for x in row:
            if frac(x).denominator != 1:
                raise ValueError("non-unimodular cone has no integral dual basis")
            ints.append(int(x))
        covectors.append(tuple(ints))
    return tuple(covectors)


def cone_coordinates(fan, cone_index, u):
    """Coordinates of u in the ray basis of the given maximal cone."""
    basis = dual_basis(fan, fan.max_cones[cone_index])
    return tuple(sum(frac(m) * frac(x) for m, x in zip(row, u)) for row in basis)


def locate_cones(fan, u):
    """Indices of the maximal cones containing the vector u (all, on ties)."""
    hits = []
    for idx in range(len(fan.max_cones)):
        if all(c >= 0 for c in cone_coordinates(fan, idx, u)):
            hits.append(idx)
    return hits


@memo
def primitive_collections(fan):
    """Minimal ray sets contained in no cone of the fan, sorted canonically."""
    cones = [frozenset(c) for c in fan.max_cones]

    def is_face(subset):
        return any(subset <= cone for cone in cones)

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
def walls(fan):
    """All walls as (ray index set, (cone index, cone index)) pairs.

    Each wall of a smooth complete fan is a facet shared by exactly two
    maximal cones; the ValueError raised otherwise names every other facet.
    """
    incidence = {}
    for idx, cone in enumerate(fan.max_cones):
        for facet in combinations(cone, fan.dim - 1):
            incidence.setdefault(facet, []).append(idx)
    bad = [f"wall {facet} lies in {len(owners)} maximal cones (expected 2)"
           for facet, owners in incidence.items() if len(owners) != 2]
    if bad:
        raise ValueError("; ".join(bad))
    return tuple((facet, tuple(owners)) for facet, owners in sorted(incidence.items()))


def is_connected(n, edges):
    """Whether the graph on vertices 0..n-1 (n >= 1) with these edges is connected."""
    adjacency = {i: set() for i in range(n)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == n


def _intersection_extreme_ray_candidates(fan, ci, cj):
    """Vectors spanning the extreme rays of the intersection of two maximal cones."""
    rows = [list(m) for m in dual_basis(fan, fan.max_cones[ci])]
    rows += [list(m) for m in dual_basis(fan, fan.max_cones[cj])]
    n = fan.dim
    candidates = []
    if n == 1:
        subsets = [()]
    else:
        subsets = combinations(range(len(rows)), n - 1)
    for subset in subsets:
        sub = [rows[i] for i in subset]
        kern = kernel_basis(sub) if sub else [tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(n))]
        if len(kern) != 1:
            continue
        for vec in (kern[0], tuple(-x for x in kern[0])):
            if all(sum(frac(a) * frac(b) for a, b in zip(row, vec)) >= 0 for row in rows):
                if any(x != 0 for x in vec):
                    candidates.append(vec)
    return candidates


def _fan_condition_violations(fan):
    out = []
    for ci, cj in combinations(range(len(fan.max_cones)), 2):
        common = set(fan.max_cones[ci]) & set(fan.max_cones[cj])
        for vec in _intersection_extreme_ray_candidates(fan, ci, cj):
            coords = cone_coordinates(fan, ci, vec)
            support = {fan.max_cones[ci][k] for k, c in enumerate(coords) if c != 0}
            if not support <= common:
                out.append(
                    f"cones {fan.max_cones[ci]} and {fan.max_cones[cj]} intersect "
                    f"outside the cone spanned by their common rays"
                )
                break
    return out


def validate_fan(fan):
    """Check all fan invariants; returns the list of violations (empty if valid).

    Malformed input (wrong vector lengths, bad indices) is rejected by the Fan
    constructor before this runs.
    """
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

    for cone in fan.max_cones:
        if len(cone) != fan.dim:
            report.append(f"maximal cone {cone} does not have {fan.dim} rays")
    if report:
        return report
    for cone in fan.max_cones:
        mat = [[fan.rays[j][i] for j in cone] for i in range(fan.dim)]
        if abs(determinant(mat)) != 1:
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
    if not report and fan.max_cones and not is_connected(
            len(fan.max_cones), [owners for _, owners in fan_walls]):
        report.append("maximal-cone adjacency graph is not connected")
    if report:
        return report

    report.extend(_fan_condition_violations(fan))
    return report


@memo
def require_valid(fan):
    violations = validate_fan(fan)
    if violations:
        raise ValueError("invalid fan: " + "; ".join(violations))
    return fan


def product_fan(factors):
    """Product of fans, ray blocks concatenated in factor order."""
    dim = sum(f.dim for f in factors)
    rays = []
    offsets = []
    pos = 0
    for f in factors:
        offsets.append(len(rays))
        before = pos
        after = dim - pos - f.dim
        for ray in f.rays:
            rays.append((0,) * before + tuple(ray) + (0,) * after)
        pos += f.dim
    cones = [()]
    for f, off in zip(factors, offsets):
        cones = [c + tuple(i + off for i in mc) for c in cones for mc in f.max_cones]
    return Fan(dim, tuple(rays), tuple(cones))


def projective_space_fan(n):
    """The fan of n-dimensional projective space: e_1..e_n and -(e_1+...+e_n)."""
    rays = [tuple(int(i == j) for i in range(n)) for j in range(n)] + [tuple([-1] * n)]
    cones = list(combinations(range(n + 1), n))
    return Fan(n, tuple(rays), tuple(cones))

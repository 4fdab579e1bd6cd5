"""Map-to-quasimap contraction, grafting, pruning and the witness search.

A stable map here is a basepoint-free quasimap passing map-mode stability.
Its rational tails are the maximal unmarked subtrees hanging off the marked
hull at a single node; contracting them twists the kept sections at each
attaching point by the tail's total class, which turns every attaching point
into a basepoint of exactly that degree.  Grafting is the inverse surgery,
and the witness search runs it at each basepoint with deterministic tail
sections until the quasimap becomes a stable map again.
"""

from math import prod

from .basepoint import degree_at_point
from .classes import CurveClass, _degree_functional
from .fan import breadth_first
from .forms import BinaryForm, Place, ProjPoint, _quotient, poly_mul
from .quasimap import (Quasimap, _absorbs, _chart_cone, _map_stable, _orders_at, _same_point,
                       basepoints, component_basepoints, degrees, extend_at, section_values,
                       stability, validate_quasimap)
from .record import Record


class Tail(Record):
    _fields = ("components", "host", "host_point")


class StableMapTree(Record):
    """A basepoint-free, map-stable quasimap, validated on construction;
    ``surjectivity_witness`` skips the checks."""

    _fields = ("quasimap",)

    def __init__(self, quasimap):
        q = quasimap
        violations = validate_quasimap(q)
        if violations:
            raise ValueError("invalid map data: " + "; ".join(violations))
        if basepoints(q):
            raise ValueError("a stable map cannot have basepoints")
        self.__dict__["quasimap"] = q
        if not _map_stable(q, degrees(q)[1]):
            raise ValueError("the map is not stable")


def _as_quasimap(f):
    return f.quasimap if isinstance(f, StableMapTree) else f


def rational_tails(q):
    """Maximal unmarked subtrees attached to the rest of the curve at one node.

    Walked from a marked component, a tail is the subtree of a child that
    holds no marking, hanging off a parent whose subtree holds one."""
    marked = {c for c, _ in q.markings}
    if not marked:
        return ()
    edges = [(a, b) for (a, _), (b, _) in q.nodes]
    order, reached = breadth_first(q.n_components, edges, min(marked))
    parent = {v: sum(edges[reached[v]]) - v for v in order[1:]}  # the node's other end
    holds_mark = set(marked)  # the components whose subtree holds a marking
    for v in reversed(order[1:]):
        if v in holds_mark:
            holds_mark.add(parent[v])
    top, groups = {}, {}  # per unmarked component the child rooting its tail
    for v in order[1:]:
        if v not in holds_mark:
            top[v] = v if parent[v] in holds_mark else top[parent[v]]
            groups.setdefault(top[v], set()).add(v)
    tails = []
    for child, components in groups.items():
        host = parent[child]
        (a, pa), (_, pb) = q.nodes[reached[child]]
        tails.append(Tail(frozenset(components), host, pa if a == host else pb))
    return tuple(sorted(tails, key=lambda t: (t.host, t.host_point.sort_key())))


def _tail_checks(q):
    """Per rational tail: the tail, its class (the sum of its components'
    classes) and whether the kept sections' orders at the attaching point
    absorb the twist by that class."""
    tails = rational_tails(q)
    per_comp = degrees(q)[1] if tails else ()
    checks = []
    for tail in tails:
        first, *rest = sorted(tail.components)
        beta = per_comp[first]
        for comp in rest:
            beta = beta + per_comp[comp]
        orders = _orders_at(q, tail.host, Place.of_point(tail.host_point))
        checks.append((tail, beta, _absorbs(orders, beta)))
    return checks


def contraction_condition(f):
    """Per-tail and overall admissibility of the contraction.

    A tail passes when the kept sections' orders at the attaching point
    absorb the twist by the tail's class."""
    checks = _tail_checks(_as_quasimap(f))
    return [(tail, ok) for tail, _, ok in checks], all(ok for _, _, ok in checks)


def _drop_components(q, dropped, twists):
    """Remove components, twisting survivors at given (comp, place, class) spots."""
    keep = [c for c in range(q.n_components) if c not in dropped]
    renum = {old: new for new, old in enumerate(keep)}
    out = q
    for comp, place, beta in twists:
        out = extend_at(out, comp, place, -1 * beta)
    components = tuple(out.components[c] for c in keep)
    nodes = tuple(
        ((renum[a], pa), (renum[b], pb))
        for (a, pa), (b, pb) in out.nodes
        if a in renum and b in renum
    )
    markings = tuple((renum[c], p) for c, p in out.markings)
    return Quasimap._unchecked(q.fan, components, nodes, markings)


def contract(f):
    """Contract all rational tails, twisting at the attaching points.

    The result is a quasimap of the same total degree whose basepoints at the
    former attaching points carry exactly the tail classes."""
    q = _as_quasimap(f)
    checks = _tail_checks(q)
    if not all(ok for _, _, ok in checks):
        raise ValueError("the map does not satisfy the contraction condition")
    dropped = set()
    twists = []
    for tail, beta, _ in checks:
        dropped |= tail.components
        twists.append((tail.host, Place.of_point(tail.host_point), beta))
    return _drop_components(q, dropped, twists)


def graft(q, component, place, tail_sections, attach_point):
    """Attach a fresh rational component at a basepoint ``Place``, extending there only.

    The tail sections must have degrees matching the basepoint class and
    evaluate at the attaching point to the same target point as the extended
    sections at the basepoint."""
    beta = None
    if 0 <= component < q.n_components:
        beta, _ = degree_at_point(q.fan, _orders_at(q, component, place))
    if beta is None or beta.is_zero():
        raise ValueError("the given place is not a basepoint of the quasimap")
    point = place.rational_point()
    if point is None:
        raise ValueError("grafting needs a rational basepoint place")
    tail_sections = tuple(tail_sections)
    if len(tail_sections) != q.fan.n_rays:
        raise ValueError("one tail section per ray is required")
    for rho, form in enumerate(tail_sections):
        if form.degree != beta.pairings[rho]:
            raise ValueError(
                f"tail section {rho} has degree {form.degree}, expected {beta.pairings[rho]}"
            )
        if beta.pairings[rho] < 0 and not form.is_zero:
            raise ValueError("sections of negative degree must vanish")

    extended = extend_at(q, component, place, beta)
    tail_values = tuple(f.value_at(attach_point) for f in tail_sections)
    values = section_values(extended, component, point)
    if not _same_point(q.fan, _chart_cone(q.fan, tail_values), tail_values,
                       _chart_cone(q.fan, values), values):
        raise ValueError("tail sections do not match the extension at the basepoint")
    return _attach(extended, component, point, tail_sections, attach_point)


def _attach(extended, component, point, tail_sections, attach_point):
    """The already twisted quasimap with the tail appended as a new component,
    noded to ``component`` at ``point``; the tail is a tuple of forms."""
    node = ((component, point), (extended.n_components, attach_point))
    return Quasimap._unchecked(extended.fan, extended.components + (tail_sections,),
                               extended.nodes + (node,), extended.markings)


def prune(q, component):
    """Contract a single unmarked leaf component, twisting its neighbour.

    Inverse of grafting; fails when the neighbour's orders cannot absorb the
    twist."""
    if any(c == component for c, _ in q.markings):
        raise ValueError("cannot prune a marked component")
    touching = [
        (idx, node) for idx, node in enumerate(q.nodes)
        if component in (node[0][0], node[1][0])
    ]
    if len(touching) != 1:
        raise ValueError("only leaf components can be pruned")
    _, ((a, pa), (b, pb)) = touching[0]
    host, host_point = ((a, pa) if b == component else (b, pb))
    beta = CurveClass(q.fan, q.component_degree_vector(component))
    return _drop_components(q, {component}, [(host, Place.of_point(host_point), beta)])


def _deterministic_tail(values, beta, zero_start):
    """Tail sections with prescribed degrees and attach values at [1:0],
    zeros placed simply and disjointly at successive integers."""
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
        needed = d if value else d - 1
        zeros = range(counter + 1, counter + needed + 1)
        counter += needed
        if value == 0:
            poly = (0, 1)
            for k in zeros:
                poly = poly_mul(poly, (-k, 1))
        else:  # value * prod (1 - z/k), as value * prod (k - z) over prod k
            poly = (1,)
            for k in zeros:
                poly = poly_mul(poly, (k, -1))
            denominator = prod(zeros)
            poly = tuple(_quotient(value * c, denominator) for c in poly)
        sections.append(BinaryForm.from_poly(d, poly))
    return tuple(sections), counter


def surjectivity_witness(q):
    """A stable map whose contraction is the given valid stable quasimap.

    Grafts a deterministic rational tail at each basepoint (simple disjoint
    zeros away from the attaching point) until no basepoints remain.  The
    target must be projective: a fan with no ample class raises.

    Let l be the functional of ``enumeration_degree``, an integer degree
    positive on every nonzero effective class, and measure the open
    basepoints by the sum of l(beta_p)^2.  Lemma: a tail of class beta built
    here is never a constant map twisted at one place (an extension of class
    0 with exactly one basepoint p).  If it were, every nonzero section would
    be c (z - p)^beta_rho.  But a tail section of positive degree is never
    zero and has simple zeros at integers that no other ray uses, plus
    possibly z = 0, the attaching point, which is no basepoint, since the
    tail's values there are the twisted host's.  beta pairs positively with
    two rays (as every nonzero effective class on a projective target does,
    see ``test_effective_classes_have_two_positive_pairings``), so both of
    those rays would need their single zero at p, which is impossible.

    A graft at a basepoint of class beta replaces l(beta)^2 by the sum of
    l(beta_j)^2 over the tail's basepoints, all at integers, and twisting at
    one place leaves every other basepoint as it was.  With gamma the class
    of the tail's extension, the l(beta_j) sum to l(beta) - l(gamma).  If
    gamma is not 0 the new sum is strictly smaller; if it is, the lemma gives
    at least two terms, each at least 1, so it is strictly smaller too.  The
    measure is a nonnegative integer that falls on every graft, so the loop
    ends; nothing here assumes the target Fano.

    The result is certified by construction, not checked again: the loop's
    empty list is a full scan; each tail takes its basepoint's class and, at
    [1 : 0], the twisted host's values at the node; a component with under
    three special points keeps a nonzero class (``q`` is stable, and a tail
    ends with its extension's class gamma, and if gamma is 0 it has at least
    two grafted nodes besides its host node, by the lemma); ``contract`` drops
    just the grafted trees (a stable ``q`` has none) and twists each host back.
    """
    if not stability(q, "quasimap"):
        raise ValueError("the witness search needs a stable quasimap")
    _degree_functional(q.fan)  # refuses a target with no ample class
    bps = basepoints(q)
    for bp in bps:
        if bp.place.rational_point() is None:
            raise ValueError(
                "witness search supports rational basepoint places only; "
                f"found a place of degree {bp.place.degree}"
            )

    work = q
    zero_counter = 0
    while bps:
        bp = bps[0]
        point = bp.place.rational_point()
        # the tail is built to match the twist at [1:0], so graft's checks
        # hold by construction, as the result's do (see the docstring)
        extended = extend_at(work, bp.component, bp.place, bp.degree)
        values = section_values(extended, bp.component, point)
        tail, zero_counter = _deterministic_tail(values, bp.degree, zero_counter)
        work = _attach(extended, bp.component, point, tail, ProjPoint(1, 0))
        # twisting at one place leaves every other order vector as it was, so
        # only the new tail component needs a scan
        bps = bps[1:] + component_basepoints(work, work.n_components - 1)

    return StableMapTree._unchecked(work)

"""JSON (de)serialization for fans, quasimaps and embeddings.

Integers stay integers; rationals travel as "p/q" strings; the token "inf"
encodes an infinite vanishing order.  Floats are rejected everywhere to keep
the data bit-exact.
"""

import json
import os
import re
from fractions import Fraction

from .basepoint import INF
from .fan import Fan
from .forms import BinaryForm, ProjPoint
from .embedding import EmbeddingSpec
from .quasimap import Quasimap


class MalformedInput(ValueError):
    """Input that does not have the shape or the types of the object read:
    JSON that parses but is of the wrong shape, or a scalar that is not an
    integer or a 'p/q' string."""


_SCALAR = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def parse_scalar(value):
    """An int, or a string of an integer or a fraction p/q in decimal digits."""
    if isinstance(value, bool):
        raise MalformedInput("booleans are not numbers")
    if isinstance(value, float):
        raise MalformedInput("floats are not accepted; use integers or 'p/q' strings")
    if not isinstance(value, int) and not (isinstance(value, str) and _SCALAR.fullmatch(value)):
        raise MalformedInput(f"cannot parse scalar {value!r}; use an integer or a 'p/q' string")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:  # p/0, or past int's digit limit
        raise MalformedInput(f"cannot parse scalar {value!r} ({exc})") from exc


def scalar_to_json(value):
    f = Fraction(value)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_int(value):
    f = parse_scalar(value)
    if f.denominator != 1:
        raise MalformedInput(f"expected an integer, got {value!r}")
    return int(f)


def parse_order(value):
    if isinstance(value, str) and value.strip().lower() == "inf":
        return INF
    return parse_int(value)


def fan_from_dict(data):
    dim = parse_int(data["dim"])
    rays = tuple(tuple(parse_int(x) for x in ray) for ray in data["rays"])
    cones = tuple(tuple(parse_int(i) for i in cone) for cone in data["max_cones"])
    try:
        return Fan(dim, rays, cones)
    except ValueError as exc:  # a ray of the wrong length, or a cone's unknown ray
        raise MalformedInput(str(exc)) from exc


def fan_to_dict(fan):
    return {
        "dim": fan.dim,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }


def _pair(data, shape):
    if not isinstance(data, list) or len(data) != 2:
        raise MalformedInput(f"{shape}, got {data!r}")
    return data


def point_from_json(data):
    a, b = _pair(data, "a point is a list [a, b] of two scalars")
    try:
        return ProjPoint(parse_scalar(a), parse_scalar(b))
    except ValueError as exc:  # [0, 0]
        raise MalformedInput(str(exc)) from exc


def _special_point(data):
    comp, point = _pair(data, "a special point is a list [component, point]")
    return parse_int(comp), point_from_json(point)


def point_to_json(point):
    return [scalar_to_json(point.a), scalar_to_json(point.b)]


def form_from_dict(data):
    degree = parse_int(data["degree"])
    coeffs = tuple(parse_scalar(c) for c in data["coeffs"])
    try:
        return BinaryForm(degree, coeffs)
    except ValueError as exc:  # a wrong count, or a negative degree's nonzero coefficient
        raise MalformedInput(str(exc)) from exc


def form_to_dict(form):
    return {"degree": form.degree, "coeffs": [scalar_to_json(c) for c in form.coeffs]}


def _resolve_fan(value, base_dir):
    if isinstance(value, str):
        return load_fan(os.path.join(base_dir, value))
    return fan_from_dict(value)


def quasimap_from_dict(data, base_dir="."):
    fan = _resolve_fan(data["fan"], base_dir)
    components = tuple(
        tuple(form_from_dict(f) for f in comp) for comp in data["components"]
    )
    nodes = tuple(
        tuple(map(_special_point, _pair(node, "a node is a list of two special points")))
        for node in data.get("nodes", ())
    )
    markings = tuple(map(_special_point, data.get("markings", ())))
    return Quasimap(fan, components, nodes, markings)


def quasimap_to_dict(q):
    return {
        "fan": fan_to_dict(q.fan),
        "components": [[form_to_dict(f) for f in comp] for comp in q.components],
        "nodes": [
            [[a, point_to_json(pa)], [b, point_to_json(pb)]]
            for (a, pa), (b, pb) in q.nodes
        ],
        "markings": [[c, point_to_json(p)] for c, p in q.markings],
    }


def embedding_from_dict(data, base_dir="."):
    source = _resolve_fan(data["source_fan"], base_dir)
    target = _resolve_fan(data["target_fan"], base_dir)
    coeffs = tuple(parse_scalar(m["coeff"]) for m in data["monomials"])
    exponents = tuple(tuple(parse_int(e) for e in m["exponents"]) for m in data["monomials"])
    return EmbeddingSpec(source, target, coeffs, exponents)


def embedding_to_dict(emb):
    return {
        "source_fan": fan_to_dict(emb.source),
        "target_fan": fan_to_dict(emb.target),
        "monomials": [
            {"coeff": scalar_to_json(c), "exponents": list(exp)}
            for c, exp in zip(emb.coeffs, emb.exponents)
        ],
    }


def _load(path, from_dict, *args):
    with open(path) as handle:
        data = json.load(handle, parse_float=_reject_float)
    try:
        return from_dict(data, *args)
    except TypeError as exc:  # e.g. a number where a list of rays belongs
        raise MalformedInput(f"{path}: malformed input ({exc})") from exc
    except KeyError as exc:
        raise MalformedInput(f"{path}: missing key {exc.args[0]!r}") from exc


def _reject_float(text):
    raise MalformedInput(f"float literal {text} rejected; data must be exact")


def load_fan(path):
    return _load(path, fan_from_dict)


def load_quasimap(path):
    return _load(path, quasimap_from_dict, os.path.dirname(os.path.abspath(path)))


def load_embedding(path):
    return _load(path, embedding_from_dict, os.path.dirname(os.path.abspath(path)))


def tail_from_dict(data):
    """The (sections, attach point) of a graft tail file."""
    return tuple(form_from_dict(f) for f in data["sections"]), point_from_json(data["attach"])


def load_tail(path):
    return _load(path, tail_from_dict)


def dump(data, path):
    with open(path, "w") as handle:
        handle.write(json.dumps(data, indent=2) + "\n")


def _parse_list(text, n, parse):
    """The ``n`` comma-separated values of ``text``, each read by ``parse``."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise MalformedInput(f"expected {n} comma-separated values, got {len(parts)}")
    return tuple(parse(p) for p in parts)


def parse_pairing_list(text, n):
    return _parse_list(text, n, parse_int)


def parse_order_list(text, n):
    return _parse_list(text, n, parse_order)

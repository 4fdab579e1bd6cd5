"""Command-line interface.

Exit codes: 0 success, 1 domain error (invalid data, failed checks),
2 usage error (unreadable or malformed input, in a file or an option).  A
reader that closes stdout early ends the command quietly with exit code 1,
as Python does on a broken pipe.
``--json`` switches every subcommand to machine-readable output.  The
TORIQ_MAX_LENGTH environment variable caps the length bound of ``class
factor`` and ``embed fibre`` when no ``--bound`` is given; no other command
reads it.
"""

import argparse
import json
import os
import sys

from . import io as tio
from .basepoint import degree_at_point, length_at_point
from .cases import CASE_NAMES, run_case
from .classes import (CurveClass, anticanonical_class, curve_class_from_anchor,
                      enumeration_degree, factorizations, is_fano, length,
                      nef_hilbert_basis, picard_rank, wall_curve_classes)
from .contraction import StableMapTree, contract, contraction_condition, graft, surjectivity_witness
from .embedding import (apply_ibar, build_epic_embedding, epic_check,
                        fibre_enumeration, pushforward_curves, validate_embedding)
from .fan import _sorted_collections, require_valid, validate_fan
from .forms import Place
from .quasimap import (_map_stable, _twist_away, basepoints, degrees, stability,
                       validate_quasimap)


def _int_option(option, raw, parse=tio.parse_int):
    """An integer option or variable, or a list by ``parse``, in the files' scalar grammar."""
    try:
        return parse(raw)
    except tio.MalformedInput as exc:
        raise tio.MalformedInput(f"{option}: {exc}") from exc


def _length_bound(given):
    """The given ``--bound``, else the TORIQ_MAX_LENGTH cap, else None."""
    option, raw = "--bound", given
    if raw is None:
        option, raw = "TORIQ_MAX_LENGTH", os.environ.get("TORIQ_MAX_LENGTH") or None
    bound = None if raw is None else _int_option(option, raw)
    if bound is not None and bound < 0:
        raise tio.MalformedInput(f"{option}: a length bound must be nonnegative, got {bound}")
    return bound


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _reject_invalid(args, violations, what):
    """Report the violations and fail with a domain error, if there are any."""
    if violations:
        _emit(args, {"valid": False, "violations": violations},
              [f"invalid: {v}" for v in violations])
        raise ValueError(f"{what} is invalid")


def _emit_saved(args, data, lines):
    """Emit ``data``, writing it to the ``-o`` file first when one is given."""
    if args.output:
        tio.dump(data, args.output)
    _emit(args, data, lines + [f"written to {args.output}" if args.output else "(use -o to save)"])


def _class_text(beta):
    return f"pairings {tuple(beta.pairings)} / anchor {tuple(beta.anchor_coords)}"


def _cmd_fan_validate(args):
    _reject_invalid(args, validate_fan(tio.load_fan(args.fan)), "fan")
    _emit(args, {"valid": True, "violations": []}, ["valid"])


def _cmd_fan_info(args):
    fan = tio.load_fan(args.fan)
    _reject_invalid(args, validate_fan(fan), "fan")
    mori = [tuple(w.pairings) for w in wall_curve_classes(fan)]
    hilb = [tuple(d.coords) for d in nef_hilbert_basis(fan)]
    pcs = list(_sorted_collections(fan))
    anti = anticanonical_class(fan)
    payload = {
        "dim": fan.dim,
        "rays": [list(r) for r in fan.rays],
        "picard_rank": picard_rank(fan),
        "primitive_collections": pcs,
        "wall_curve_classes": mori,
        "nef_hilbert_basis": hilb,
        "anticanonical_coords": list(anti.coords),
        "fano": is_fano(fan),
    }
    lines = [
        f"dimension {fan.dim}, {fan.n_rays} rays, {len(fan.max_cones)} maximal cones",
        f"Picard rank {picard_rank(fan)}",
        f"primitive collections: {pcs}",
        f"wall curve classes (pairings): {mori}",
        f"nef Hilbert basis (anchor coords): {hilb}",
        f"anticanonical class (anchor coords): {tuple(anti.coords)}",
        f"Fano: {is_fano(fan)}",
    ]
    _emit(args, payload, lines)


def _load_class(fan, text):
    """An integral curve class, as a full pairing vector or anchor coordinates."""
    rank = picard_rank(fan)
    anchor = len(text.split(",")) == rank != fan.n_rays
    n = rank if anchor else fan.n_rays
    values = _int_option("--class", text, lambda raw: tio.parse_pairing_list(raw, n))
    return curve_class_from_anchor(fan, values) if anchor else CurveClass(fan, values)


def _cmd_class_length(args):
    fan = require_valid(tio.load_fan(args.fan))
    beta = _load_class(fan, args.curve_class)
    lam = length(beta)
    _emit(args, {"length": lam}, [f"length {lam}"])


def _cmd_class_factor(args):
    fan = tio.load_fan(args.fan)
    beta = _load_class(fan, args.curve_class)
    bound = _length_bound(args.bound)
    pairs = factorizations(fan, beta, bound=bound)
    # the smaller summand of any split has at most half the class's degree
    complete = bound is None or bound >= enumeration_degree(beta) // 2
    payload = {"irreducible": not pairs if complete or pairs else None, "complete": complete,
               "factorizations": [[list(a.pairings), list(b.pairings)] for a, b in pairs]}
    if complete:
        lines = ["factorizations:" if pairs else "irreducible"]
    elif pairs:
        lines = [f"factorizations with summands of degree <= {bound}:"]
    else:
        lines = [f"no factorization with summands of degree <= {bound}"]
    for a, b in pairs:
        lines.append(f"  {_class_text(a)}  +  {_class_text(b)}")
    _emit(args, payload, lines)


def _cmd_class_push(args):
    emb = tio.load_embedding(args.embedding)
    beta = _load_class(emb.source, args.curve_class)
    pushed = pushforward_curves(emb, beta)
    _emit(args, {"pairings": list(pushed.pairings)},
          [f"pushforward: {_class_text(pushed)}"])


def _cmd_basepoint_degree(args):
    fan = tio.load_fan(args.fan)
    orders = tio.parse_order_list(args.orders, fan.n_rays)
    beta, witnesses = degree_at_point(fan, orders)
    ell = length_at_point(fan, orders)
    cones = [list(fan.max_cones[i]) for i in witnesses]
    payload = {"pairings": list(beta.pairings), "witness_cones": cones, "length": ell}
    _emit(args, payload, [
        f"degree at the point: {_class_text(beta)}",
        f"witness cones: {[tuple(c) for c in cones]}",
        f"length: {ell}",
    ])


def _cmd_quasimap_analyze(args):
    q = tio.load_quasimap(args.quasimap)
    _reject_invalid(args, validate_quasimap(q), "quasimap")
    total, per_comp = degrees(q)
    bps = basepoints(q)
    ext = _twist_away(q, bps)
    qm_stable = stability(q, "quasimap")
    map_stable = None if bps else _map_stable(q, per_comp)
    lengths = [length_at_point(q.fan, bp.orders) for bp in bps]
    payload = {
        "valid": True,
        "degree": list(total.pairings),
        "component_degrees": [list(b.pairings) for b in per_comp],
        "basepoints": [
            {
                "component": bp.component,
                "place": ("inf" if bp.place.at_infinity
                          else [tio.scalar_to_json(c) for c in bp.place.coeffs]),
                "degree": list(bp.degree.pairings),
                "length": ell,
            }
            for bp, ell in zip(bps, lengths)
        ],
        "stable_quasimap": qm_stable,
        "stable_map": map_stable,
        "extension_degree": list(degrees(ext)[0].pairings),
    }
    lines = [
        "valid quasimap",
        f"degree: {_class_text(total)}",
        f"component degrees: {[tuple(b.pairings) for b in per_comp]}",
        f"basepoints: {len(bps)}",
    ]
    for bp, ell in zip(bps, lengths):
        coeffs = ", ".join(str(tio.scalar_to_json(c)) for c in bp.place.coeffs)
        place = "inf" if bp.place.at_infinity else f"({coeffs})"
        lines.append(
            f"  component {bp.component}, place {place}: degree {tuple(bp.degree.pairings)},"
            f" length {ell}"
        )
    lines.append(f"stable as quasimap: {qm_stable}")
    lines.append("stable as map: n/a (has basepoints)" if bps else f"stable as map: {map_stable}")
    lines.append(f"regular extension degree: {tuple(degrees(ext)[0].pairings)}")
    _emit(args, payload, lines)


def _cmd_embed_build(args):
    fan = tio.load_fan(args.fan)
    emb = build_epic_embedding(fan)
    _emit_saved(args, tio.embedding_to_dict(emb), [
        f"target: product with ray blocks of a {emb.target.dim}-dimensional fan",
        f"monomial exponents: {[tuple(e) for e in emb.exponents]}",
    ])


def _cmd_embed_check(args):
    emb = tio.load_embedding(args.embedding)
    _reject_invalid(args, validate_embedding(emb), "embedding data")
    epic = epic_check(emb)
    _emit(args, {"valid": True, "epic": epic}, [f"valid embedding data; epic: {epic}"])


def _cmd_embed_ibar(args):
    emb = tio.load_embedding(args.embedding)
    q = tio.load_quasimap(args.quasimap)
    _reject_invalid(args, validate_quasimap(q), "quasimap")
    image = apply_ibar(emb, q)
    _emit_saved(args, tio.quasimap_to_dict(image),
                [f"image degree: {_class_text(degrees(image)[0])}"])


def _cmd_embed_fibre(args):
    emb = tio.load_embedding(args.embedding)
    q = tio.load_quasimap(args.quasimap)
    _reject_invalid(args, validate_quasimap(q), "quasimap")
    beta = _load_class(emb.source, args.curve_class)
    bound = _length_bound(args.bound)
    fibre = fibre_enumeration(emb, q, beta, length_cap=bound)
    # a cap below beta's own degree may leave preimages out
    complete = bound is None or bound >= enumeration_degree(beta)
    payload = {"count": len(fibre), "complete": complete,
               "elements": [tio.quasimap_to_dict(f) for f in fibre]}
    line = f"{len(fibre)} preimage(s)"
    if not complete:
        line += f" with basepoint classes of degree <= {bound}"
    _emit(args, payload, [line])


def _cmd_contract_check(args):
    q = tio.load_quasimap(args.quasimap)
    f = StableMapTree(q)
    results, overall = contraction_condition(f)
    payload = {
        "admissible": overall,
        "tails": [
            {"components": sorted(t.components), "host": t.host, "passes": ok}
            for t, ok in results
        ],
    }
    lines = [f"tails: {len(results)}"]
    for t, ok in results:
        lines.append(f"  tail {sorted(t.components)} at component {t.host}: {'ok' if ok else 'fails'}")
    lines.append(f"contraction condition: {'holds' if overall else 'fails'}")
    _emit(args, payload, lines)
    if not overall:
        raise ValueError("contraction condition fails")


def _cmd_contract_apply(args):
    q = tio.load_quasimap(args.quasimap)
    f = StableMapTree(q)
    contracted = contract(f)
    _emit_saved(args, tio.quasimap_to_dict(contracted), [
        f"contracted quasimap degree: {_class_text(degrees(contracted)[0])}",
        f"basepoints: {len(basepoints(contracted))}",
    ])


def _cmd_graft(args):
    q = tio.load_quasimap(args.quasimap)
    _reject_invalid(args, validate_quasimap(q), "quasimap")
    sections, attach = tio.load_tail(args.tail)
    if args.place.strip().lower() == "inf":
        place = Place.infinity()
    else:
        place = Place.rational(tio.parse_scalar(args.place))
    out = graft(q, _int_option("--component", args.component), place, sections, attach)
    _emit_saved(args, tio.quasimap_to_dict(out),
                [f"grafted quasimap with {out.n_components} components"])


def _cmd_witness(args):
    q = tio.load_quasimap(args.quasimap)
    _reject_invalid(args, validate_quasimap(q), "quasimap")
    witness = surjectivity_witness(q)
    _emit_saved(args, tio.quasimap_to_dict(witness.quasimap), [
        f"witness stable map with {witness.quasimap.n_components} components",
        "contraction equal to the input by construction",
    ])


def _cmd_reproduce(args):
    report = run_case(args.case)
    payload = {
        "case": report.name,
        "passed": report.passed,
        "checks": [
            {"label": label, "computed": str(computed), "expected": str(expected)}
            for label, computed, expected in report.checks
        ],
    }
    _emit(args, payload, report.lines())
    if not report.passed:
        raise ValueError(f"case {report.name} failed")


def build_parser():
    parser = argparse.ArgumentParser(prog="toriq", description=__doc__)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    fan = sub.add_parser("fan").add_subparsers(dest="sub", required=True)
    p = fan.add_parser("validate")
    p.add_argument("fan")
    p.set_defaults(func=_cmd_fan_validate)
    p = fan.add_parser("info")
    p.add_argument("fan")
    p.set_defaults(func=_cmd_fan_info)

    cls = sub.add_parser("class").add_subparsers(dest="sub", required=True)
    p = cls.add_parser("length")
    p.add_argument("fan")
    p.add_argument("--class", dest="curve_class", required=True)
    p.set_defaults(func=_cmd_class_length)
    p = cls.add_parser("factor")
    p.add_argument("fan")
    p.add_argument("--class", dest="curve_class", required=True)
    p.add_argument("--bound")
    p.set_defaults(func=_cmd_class_factor)
    p = cls.add_parser("push")
    p.add_argument("embedding")
    p.add_argument("--class", dest="curve_class", required=True)
    p.set_defaults(func=_cmd_class_push)

    p = sub.add_parser("basepoint-degree")
    p.add_argument("--fan", required=True)
    p.add_argument("--orders", required=True)
    p.set_defaults(func=_cmd_basepoint_degree)

    qm = sub.add_parser("quasimap").add_subparsers(dest="sub", required=True)
    p = qm.add_parser("analyze")
    p.add_argument("quasimap")
    p.set_defaults(func=_cmd_quasimap_analyze)

    emb = sub.add_parser("embed").add_subparsers(dest="sub", required=True)
    p = emb.add_parser("build")
    p.add_argument("fan")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_embed_build)
    p = emb.add_parser("check")
    p.add_argument("embedding")
    p.set_defaults(func=_cmd_embed_check)
    p = emb.add_parser("push")
    p.add_argument("embedding")
    p.add_argument("--class", dest="curve_class", required=True)
    p.set_defaults(func=_cmd_class_push)
    p = emb.add_parser("ibar")
    p.add_argument("embedding")
    p.add_argument("quasimap")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_embed_ibar)
    p = emb.add_parser("fibre")
    p.add_argument("embedding")
    p.add_argument("quasimap")
    p.add_argument("--class", dest="curve_class", required=True)
    p.add_argument("--bound")
    p.set_defaults(func=_cmd_embed_fibre)

    con = sub.add_parser("contract").add_subparsers(dest="sub", required=True)
    p = con.add_parser("check")
    p.add_argument("quasimap")
    p.set_defaults(func=_cmd_contract_check)
    p = con.add_parser("apply")
    p.add_argument("quasimap")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_contract_apply)

    p = sub.add_parser("graft")
    p.add_argument("quasimap")
    p.add_argument("--component", required=True)
    p.add_argument("--place", required=True, help="chart coordinate of the place, or 'inf'")
    p.add_argument("--tail", required=True, help="JSON file with sections and attach point")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_graft)

    p = sub.add_parser("witness")
    p.add_argument("quasimap")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("reproduce")
    p.add_argument("case", choices=CASE_NAMES)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the exit's flush
    except BrokenPipeError:
        # the reader closed stdout early: no message, and stdout points at
        # devnull for the interpreter's final flush (the note on SIGPIPE in
        # Python's signal documentation)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, json.JSONDecodeError, tio.MalformedInput) as exc:
        # the decode and shape errors are ValueErrors, so they are caught first
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

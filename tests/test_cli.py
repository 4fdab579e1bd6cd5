import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toriq
from toriq.cases import CASE_NAMES, family_map, fixture_path
from toriq.classes import wall_curve_classes
from toriq.cli import main
from toriq.io import dump, load_embedding, load_fan, load_quasimap, quasimap_to_dict
from toriq.quasimap import degrees


def fx(name):
    return str(fixture_path(name))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fan_validate_ok(capsys):
    code, out, _ = run(capsys, "fan", "validate", fx("p2.json"))
    assert code == 0 and "valid" in out


def test_fan_validate_invalid(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "rays": [[-1, -1], [1, 0], [0, 1]],
                               "max_cones": [[0, 1], [0, 2]]}))
    code, out, err = run(capsys, "fan", "validate", str(bad))
    assert code == 1 and "invalid" in out


def test_fan_info_json(capsys):
    code, out, _ = run(capsys, "--json", "fan", "info", fx("p2.json"))
    assert code == 0
    data = json.loads(out)
    assert data["picard_rank"] == 1
    assert data["wall_curve_classes"] == [[1, 1, 1]] * 3
    assert data["fano"] is True


def test_basepoint_degree_cli(capsys):
    code, out, _ = run(capsys, "--json", "basepoint-degree",
                       "--fan", fx("bl0p2.json"), "--orders", "1,0,inf,1")
    assert code == 0
    data = json.loads(out)
    assert data["pairings"] == [1, 0, 0, 1]
    assert sorted(map(tuple, data["witness_cones"])) == [(0, 2), (2, 3)]
    assert data["length"] == 1


def test_class_commands(capsys):
    code, out, _ = run(capsys, "--json", "class", "length", fx("bl0p2.json"),
                       "--class", "1,1,1,0")
    assert code == 0 and json.loads(out)["length"] == 3
    code, out, _ = run(capsys, "--json", "class", "factor", fx("bl0p2.json"),
                       "--class", "1,1,1,0")
    assert code == 0
    data = json.loads(out)
    assert data["factorizations"] == [[[0, 1, 1, -1], [1, 0, 0, 1]]]
    code, out, _ = run(capsys, "--json", "class", "push", fx("segre.json"),
                       "--class", "1,1,0,0")
    assert code == 0 and json.loads(out)["pairings"] == [1, 1, 1, 1]


def test_quasimap_analyze(capsys):
    code, out, _ = run(capsys, "--json", "quasimap", "analyze", fx("section_line.json"))
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == [1, 1, 1]
    assert data["stable_quasimap"] is True
    assert data["basepoints"][0]["length"] == 1


def test_quasimap_analyze_json_places(capsys):
    code, out, _ = run(capsys, "--json", "quasimap", "analyze", fx("segre_q1.json"))
    assert code == 0
    assert [bp["place"] for bp in json.loads(out)["basepoints"]] == [[0, 1], "inf"]


def test_quasimap_analyze_text_places(capsys):
    code, out, _ = run(capsys, "quasimap", "analyze", fx("segre_q1.json"))
    assert code == 0
    assert "  component 0, place (0, 1): degree (0, 0, 1, 1), length 1" in out.splitlines()
    assert "  component 0, place inf: degree (1, 1, 0, 0), length 1" in out.splitlines()


def test_quasimap_analyze_of_a_non_fano_stable_map(tmp_path, capsys):
    """A basepoint-free quasimap to F2 of the rigid section's class, which
    ``contract check`` takes as a stable map: ``analyze`` agrees.  So do both
    on an unmarked curve of anticanonical degree 1."""
    form = {"degree": 1, "coeffs": [1, 0]}
    path = tmp_path / "rigid.json"
    path.write_text(json.dumps({
        "fan": {"dim": 2, "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],
                "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]},
        "components": [[form, {"degree": -2, "coeffs": []},
                        {"degree": 1, "coeffs": [0, 1]}, {"degree": 0, "coeffs": [1]}]],
        "nodes": [],
        "markings": [[0, [1, 1]], [0, [1, 2]]],
    }))
    code, out, _ = run(capsys, "--json", "quasimap", "analyze", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["basepoints"] == [] and data["stable_map"] is True
    code, out, _ = run(capsys, "--json", "contract", "check", str(path))
    assert code == 0 and json.loads(out)["admissible"] is True

    # the unmarked exceptional curve (0, 1, 1, -1) on bl0p2 has anticanonical
    # degree 1 and a nonzero class: both take it as a stable map
    path = tmp_path / "exceptional.json"
    path.write_text(json.dumps({
        "fan": json.loads(Path(fx("bl0p2.json")).read_text()),
        "components": [[{"degree": 0, "coeffs": [1]}, form,
                        {"degree": 1, "coeffs": [0, 1]}, {"degree": -1, "coeffs": []}]],
        "nodes": [],
        "markings": [],
    }))
    code, out, _ = run(capsys, "--json", "quasimap", "analyze", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["basepoints"] == [] and data["stable_map"] is True
    code, out, _ = run(capsys, "--json", "contract", "check", str(path))
    assert code == 0


def test_embed_commands(tmp_path, capsys):
    out_file = tmp_path / "emb.json"
    code, _, _ = run(capsys, "embed", "build", fx("bl0p2.json"), "-o", str(out_file))
    assert code == 0 and out_file.exists()
    code, out, _ = run(capsys, "--json", "embed", "check", str(out_file))
    assert code == 0 and json.loads(out)["epic"] is True
    code, out, _ = run(capsys, "--json", "embed", "check", fx("segre.json"))
    assert code == 0 and json.loads(out)["epic"] is False
    code, out, _ = run(capsys, "--json", "embed", "fibre", fx("segre.json"),
                       fx("segre_q1.json"), "--class", "2,2,2,2")
    assert code == 1  # q1 itself has the wrong degree for the pushforward


def test_embed_fibre_rejects_a_quasimap_to_the_source(capsys):
    code, out, err = run(capsys, "embed", "fibre", fx("segre.json"), fx("segre_q1.json"),
                         "--class", "1,1")
    assert code == 1 and out == ""
    assert err == "error: quasimap target does not match the embedding target\n"


def test_class_length_validates_the_fan(tmp_path, capsys):
    # cone (0, 1) has determinant 2; the pairing form used to skip validation
    path = tmp_path / "nonsmooth.json"
    path.write_text(json.dumps({"dim": 2, "rays": [[1, 0], [1, 2], [-1, -1]],
                                "max_cones": [[0, 1], [1, 2], [0, 2]]}))
    message = "error: invalid fan: maximal cone (0, 1) is not smooth (determinant != +-1)\n"
    for argv in (("class", "length", str(path), "--class", "1,1,2"),
                 ("class", "length", str(path), "--class", "1"),
                 ("class", "factor", str(path), "--class", "1,1,2")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", message), argv


def test_cone_with_an_unknown_ray_is_usage_error(tmp_path, capsys):
    path = tmp_path / "badcone.json"
    path.write_text(json.dumps({"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                                "max_cones": [[0, 1], [1, 5], [0, 2]]}))
    code, out, err = run(capsys, "fan", "validate", str(path))
    assert (code, out) == (2, "")
    assert err == "usage error: cone (1, 5) references unknown ray 5\n"


def test_embed_ibar_and_fibre(tmp_path, capsys):
    image = tmp_path / "image.json"
    code, _, _ = run(capsys, "embed", "ibar", fx("segre.json"), fx("segre_q1.json"),
                     "-o", str(image))
    assert code == 0
    code, out, _ = run(capsys, "--json", "embed", "fibre", fx("segre.json"),
                       str(image), "--class", "2,2,2,2")
    assert code == 0
    assert json.loads(out)["count"] == 2
    # a zero length cap admits no basepoint degree, so the fibre is empty
    code, out, _ = run(capsys, "--json", "embed", "fibre", fx("segre.json"),
                       str(image), "--class", "2,2,2,2", "--bound", "0")
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_embed_fibre_says_when_the_bound_cut_the_search(tmp_path, capsys):
    image = tmp_path / "image.json"
    run(capsys, "embed", "ibar", fx("segre.json"), fx("segre_q1.json"), "-o", str(image))
    fibre = ("embed", "fibre", fx("segre.json"), str(image), "--class", "2,2,2,2")
    # the class has degree 8, which no basepoint class of its quasimaps exceeds
    for bound, complete in ((), True), (("--bound", "0"), False), (("--bound", "8"), True):
        code, out, _ = run(capsys, "--json", *fibre, *bound)
        assert code == 0 and json.loads(out)["complete"] is complete
    code, out, _ = run(capsys, *fibre, "--bound", "7")
    assert code == 0 and out == "2 preimage(s) with basepoint classes of degree <= 7\n"
    code, out, _ = run(capsys, *fibre)
    assert code == 0 and out == "2 preimage(s)\n"


def _drop_last_section(path, dest):
    data = json.loads(Path(path).read_text())
    data["components"][0] = data["components"][0][:-1]
    dest.write_text(json.dumps(data))
    return str(dest)


def test_embed_ibar_rejects_invalid_quasimap(tmp_path, capsys):
    bad = _drop_last_section(fx("segre_q1.json"), tmp_path / "bad.json")
    code, out, err = run(capsys, "embed", "ibar", fx("segre.json"), bad)
    assert code == 1 and "invalid: component 0 does not have one section per ray" in out
    assert "quasimap is invalid" in err


def test_embed_fibre_rejects_invalid_quasimap(tmp_path, capsys):
    image = tmp_path / "image.json"
    run(capsys, "embed", "ibar", fx("segre.json"), fx("segre_q1.json"), "-o", str(image))
    bad = _drop_last_section(image, tmp_path / "bad.json")
    code, out, err = run(capsys, "embed", "fibre", fx("segre.json"), bad,
                         "--class", "2,2,2,2")
    assert code == 1 and "invalid: component 0 does not have one section per ray" in out
    assert "quasimap is invalid" in err


def test_witness_cli(tmp_path, capsys):
    out_file = tmp_path / "witness.json"
    code, out, _ = run(capsys, "witness", fx("section_line.json"), "-o", str(out_file))
    assert code == 0 and out_file.exists()
    code, out, _ = run(capsys, "--json", "contract", "check", str(out_file))
    assert code == 0 and json.loads(out)["admissible"] is True
    contracted = tmp_path / "contracted.json"
    code, _, _ = run(capsys, "contract", "apply", str(out_file), "-o", str(contracted))
    assert code == 0
    code, out, _ = run(capsys, "--json", "quasimap", "analyze", str(contracted))
    assert json.loads(out)["degree"] == [1, 1, 1]


def _line_tail(tmp_path):
    tail = tmp_path / "tail.json"
    tail.write_text(json.dumps({
        "sections": [
            {"degree": 1, "coeffs": ["0", "1"]},
            {"degree": 1, "coeffs": ["0", "1"]},
            {"degree": 1, "coeffs": ["1", "-1"]},
        ],
        "attach": ["1", "0"],
    }))
    return str(tail)


def test_graft_cli(tmp_path, capsys):
    out_file = tmp_path / "grafted.json"
    code, _, _ = run(capsys, "graft", fx("section_line.json"),
                     "--component", "0", "--place", "inf",
                     "--tail", _line_tail(tmp_path), "-o", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "--json", "quasimap", "analyze", str(out_file))
    data = json.loads(out)
    assert data["degree"] == [1, 1, 1] and data["basepoints"] == []


def test_graft_rejects_invalid_quasimap(tmp_path, capsys):
    bad = _drop_last_section(fx("section_line.json"), tmp_path / "bad.json")
    code, out, err = run(capsys, "graft", bad, "--component", "0", "--place", "inf",
                         "--tail", _line_tail(tmp_path))
    assert code == 1 and "invalid: component 0 does not have one section per ray" in out
    assert "quasimap is invalid" in err


def test_graft_at_a_missing_component_is_a_domain_error(tmp_path, capsys):
    code, _, err = run(capsys, "graft", fx("section_line.json"), "--component", "5",
                       "--place", "inf", "--tail", _line_tail(tmp_path))
    assert code == 1 and "the given place is not a basepoint of the quasimap" in err


def _edited_segre(tmp_path, name, edit):
    data = json.loads(Path(fx("segre.json")).read_text())
    edit(data["monomials"])
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_domain_errors_exit_1_and_name_the_failure(tmp_path, capsys):
    """Embedding data of the wrong shape, a quasimap to another fan, a failing
    contraction condition, a finite place that is no basepoint and a tail
    with one section for three rays each exit 1 with a message that says so."""
    three = _edited_segre(tmp_path, "three.json", lambda monomials: monomials.pop())
    short = _edited_segre(tmp_path, "short.json",
                          lambda monomials: monomials[0]["exponents"].pop())
    family = tmp_path / "family.json"
    dump(quasimap_to_dict(family_map(1)), str(family))
    one_section = tmp_path / "one_section.json"
    one_section.write_text(json.dumps({"sections": [{"degree": 1, "coeffs": ["0", "1"]}],
                                       "attach": ["1", "0"]}))
    line = fx("section_line.json")
    shape = "one coefficient and one exponent vector per target ray is required"
    cases = [
        (("embed", "check", three), f"invalid: {shape}\n", "embedding data is invalid"),
        (("embed", "check", short),
         "invalid: exponent vector of target ray 0 has the wrong length\n",
         "embedding data is invalid"),
        (("embed", "ibar", three, line), "", f"invalid embedding: {shape}"),
        (("embed", "ibar", fx("segre.json"), line), "",
         "quasimap target does not match the embedding source"),
        (("contract", "check", str(family)),
         "tails: 1\n  tail [1] at component 0: fails\ncontraction condition: fails\n",
         "contraction condition fails"),
        (("graft", line, "--component", "0", "--place", "5", "--tail", _line_tail(tmp_path)),
         "", "the given place is not a basepoint of the quasimap"),
        (("graft", line, "--component", "0", "--place", "inf", "--tail", str(one_section)),
         "", "one tail section per ray is required"),
    ]
    for argv, out, message in cases:
        assert run(capsys, *argv) == (1, out, f"error: {message}\n"), argv


@pytest.mark.parametrize("tail", [
    {"sections": 5, "attach": [1, 0]},
    {"sections": [], "attach": 3},
    {"sections": [], "attach": [1, 0, 3]},
    {"sections": [{"degree": 1, "coeffs": ["1"]}], "attach": [1, 0]},
    {"sections": [], "attach": [0, 0]},
])
def test_malformed_graft_tail_is_usage_error(tmp_path, capsys, tail):
    bad = tmp_path / "tail.json"
    bad.write_text(json.dumps(tail))
    code, _, err = run(capsys, "graft", fx("section_line.json"), "--component", "0",
                       "--place", "inf", "--tail", str(bad))
    assert code == 2 and err.startswith("usage error")


@pytest.mark.parametrize("kind, key", [
    ("fan", "max_cones"),
    ("quasimap", "components"),
    ("embedding", "monomials"),
    ("tail", "attach"),
])
def test_a_missing_key_is_a_usage_error_naming_it(tmp_path, capsys, kind, key):
    """A fan, quasimap, embedding or graft-tail file without one of its keys
    exits 2, and the message names the file and the key."""
    files = {"fan": fx("p2.json"), "quasimap": fx("section_line.json"),
             "embedding": fx("segre.json"), "tail": _line_tail(tmp_path)}
    data = json.loads(Path(files[kind]).read_text())
    del data[key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    files[kind] = str(bad)
    argv = {"fan": ("fan", "validate", files["fan"]),
            "quasimap": ("quasimap", "analyze", files["quasimap"]),
            "embedding": ("embed", "check", files["embedding"]),
            "tail": ("graft", files["quasimap"], "--component", "0", "--place", "inf",
                     "--tail", files["tail"])}[kind]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: {bad}: missing key '{key}'\n"


def test_a_key_error_inside_a_command_is_not_a_usage_error(capsys, monkeypatch):
    """Only reading a file maps a missing key to a usage error: a KeyError
    raised by the library propagates instead of exiting 2."""
    def broken(fan):
        raise KeyError("internal")

    monkeypatch.setattr("toriq.cli.validate_fan", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["fan", "validate", fx("p2.json")])


def test_a_runtime_error_inside_a_command_propagates(monkeypatch):
    """The library raises no RuntimeError, so one is a bug, not a domain error."""
    def broken(fan):
        raise RuntimeError("internal")

    monkeypatch.setattr("toriq.cli.validate_fan", broken)
    with pytest.raises(RuntimeError, match="internal"):
        main(["fan", "validate", fx("p2.json")])


def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys):
    """JSON nested past the parser's recursion limit exits 2, naming the file."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "fan", "validate", str(deep))
    assert (code, out) == (2, "")
    assert err == f"usage error: {deep}: JSON nested too deeply to read\n"


def test_reproduce_all(capsys):
    for case in CASE_NAMES:
        code, out, _ = run(capsys, "reproduce", case)
        assert code == 0, f"case {case} failed:\n{out}"
        assert "PASS" in out


def test_reproduce_unknown_case_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "nonsense"])
    assert exc.value.code == 2


FAN_FIXTURES = ("p2.json", "p3.json", "p1xp1.json", "bl0p2.json")
QUASIMAP_FIXTURES = ("section_line.json", "segre_q1.json", "segre_q2.json")
EMBEDDING_FIXTURES = ("segre.json", "bl0p2_product.json")


def _listed(values):
    return ",".join(map(str, values))


def _json_runs(tmp_path, capsys):
    """Every subcommand on each fixture of the kind it reads, with options it
    accepts: a wall class of the fan, zero orders, each quasimap's witness
    for ``contract``, the p2 line tail for ``graft``, and each source
    quasimap of an embedding with its image."""
    runs = []
    for name in FAN_FIXTURES:
        fan = load_fan(fx(name))
        wall = _listed(wall_curve_classes(fan)[0].pairings)
        runs += [("fan", "validate", fx(name)), ("fan", "info", fx(name)),
                 ("class", "length", fx(name), "--class", wall),
                 ("class", "factor", fx(name), "--class", wall),
                 ("basepoint-degree", "--fan", fx(name), "--orders", _listed([0] * fan.n_rays)),
                 ("embed", "build", fx(name))]
    for name in QUASIMAP_FIXTURES:
        stable = tmp_path / f"witness_{name}"
        assert run(capsys, "witness", fx(name), "-o", str(stable))[0] == 0
        runs += [("quasimap", "analyze", fx(name)), ("witness", fx(name)),
                 ("contract", "check", str(stable)), ("contract", "apply", str(stable))]
    runs.append(("graft", fx("section_line.json"), "--component", "0", "--place", "inf",
                 "--tail", _line_tail(tmp_path)))
    for name in EMBEDDING_FIXTURES:
        emb = load_embedding(fx(name))
        wall = _listed(wall_curve_classes(emb.source)[0].pairings)
        runs += [("embed", "check", fx(name)), ("class", "push", fx(name), "--class", wall),
                 ("embed", "push", fx(name), "--class", wall)]
        for q_name in QUASIMAP_FIXTURES:
            q = load_quasimap(fx(q_name))
            if q.fan != emb.source:
                continue
            image = tmp_path / f"image_{q_name}"
            assert run(capsys, "embed", "ibar", fx(name), fx(q_name), "-o", str(image))[0] == 0
            runs += [("embed", "ibar", fx(name), fx(q_name)),
                     ("embed", "fibre", fx(name), str(image),
                      "--class", _listed(degrees(q)[0].pairings))]
    return runs + [("reproduce", case) for case in CASE_NAMES]


def test_every_json_output_is_json(tmp_path, capsys):
    """The ``--json`` form of each subcommand prints one JSON document, with no
    fallback for values JSON has no type for."""
    runs = _json_runs(tmp_path, capsys)
    assert {argv[0] if argv[0] in ("basepoint-degree", "graft", "witness", "reproduce")
            else argv[:2] for argv in runs} == {
        ("fan", "validate"), ("fan", "info"), ("class", "length"), ("class", "factor"),
        ("class", "push"), "basepoint-degree", ("quasimap", "analyze"), ("embed", "build"),
        ("embed", "check"), ("embed", "push"), ("embed", "ibar"), ("embed", "fibre"),
        ("contract", "check"), ("contract", "apply"), "graft", "witness", "reproduce"}
    for argv in runs:
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 0, argv
        assert isinstance(json.loads(out), dict), argv


@pytest.mark.parametrize("argv,pairing,anchor", [
    (("class", "length", fx("p2.json")), "1,1/2,1", "1/2"),
    (("class", "factor", fx("bl0p2.json")), "1,1/2,1,0", "1/2,1"),
    (("class", "push", fx("segre.json")), "1,1/2,0,0", "1/2,0"),
    (("embed", "push", fx("segre.json")), "1,1/2,0,0", "1/2,0"),
    (("embed", "fibre", fx("segre.json"), fx("segre_q1.json")), "2,1/2,2,2", "1/2,2"),
])
def test_rational_classes_are_usage_errors(capsys, argv, pairing, anchor):
    """Curve classes are integral: a rational ``--class``, as a pairing vector
    or as anchor coordinates, exits 2 naming the option and the value."""
    for text in (pairing, anchor):
        code, out, err = run(capsys, *argv, "--class", text)
        assert (code, out) == (2, ""), text
        assert err == "usage error: --class: expected an integer, got '1/2'\n", text


def test_unreadable_file_is_usage_error(capsys):
    code, _, err = run(capsys, "fan", "validate", "no-such-file.json")
    assert code == 2


@pytest.mark.parametrize("text", [
    '{"dim": 2, "rays": [1, 2], "max_cones": []}',
    '[1, 2]',
    '{"dim": 2, "rays": ',
    '{"dim": 2, "rays": [[1.0, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}',
    '{"dim": "x", "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}',
    '{"dim": 2, "rays": [[true, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}',
    '{"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [["1/2", 1], [1, 2], [0, 2]]}',
    '{"dim": 2, "rays": {"a": 1}, "max_cones": [[0, 1], [1, 2], [0, 2]]}',
    '{"dim": 2, "rays": [["1/0", 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}',
    '{"dim": 2, "rays": [[1, 0, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}',
])
def test_malformed_json_is_usage_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, _, err = run(capsys, "fan", "validate", str(bad))
    assert code == 2 and err.startswith("usage error")


@pytest.mark.parametrize("argv", [
    ("basepoint-degree", "--fan", fx("bl0p2.json"), "--orders", "1/0,1,0,0"),
    ("basepoint-degree", "--fan", fx("bl0p2.json"), "--orders", "1,0"),
    ("class", "length", fx("bl0p2.json"), "--class", "1/0,1"),
])
def test_malformed_cli_values_are_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("usage error")


@pytest.mark.parametrize("field, value", [
    ("nodes", [[[0, [1, 3]]]]),
    ("markings", [[0, [1, 3], 5]]),
    ("markings", [[0, [0, 0]]]),
])
def test_malformed_quasimap_shape_is_usage_error(tmp_path, capsys, field, value):
    data = json.loads(fixture_path("section_line.json").read_text())
    data[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "quasimap", "analyze", str(bad))
    assert code == 2 and err.startswith("usage error")


@pytest.mark.parametrize("scalar", ["1.5", "1e3", "1_000", "1e200000", " 2 2 "])
def test_scalars_outside_the_grammar_are_usage_errors(tmp_path, capsys, scalar):
    """A scalar is an integer or a 'p/q' string of decimal digits, as a
    quasimap coefficient, an --orders entry and a --class entry alike."""
    data = json.loads(fixture_path("section_line.json").read_text())
    data["components"][0][2]["coeffs"][0] = scalar
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for argv in [("quasimap", "analyze", str(bad)),
                 ("basepoint-degree", "--fan", fx("bl0p2.json"), "--orders", f"{scalar},0,inf,1"),
                 ("class", "length", fx("bl0p2.json"), "--class", f"{scalar},1,1,0")]:
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("usage error"), argv


def test_negative_degree_form_with_nonzero_coefficients_is_usage_error(tmp_path, capsys):
    # on the blow-up, (0, 1, 1, -1) is the class of a line through the centre;
    # its ray-3 section has negative degree, so it must be zero
    data = {"fan": json.loads(fixture_path("bl0p2.json").read_text()),
            "components": [[{"degree": 0, "coeffs": [1]}, {"degree": 1, "coeffs": [1, 0]},
                            {"degree": 1, "coeffs": [0, 1]}, {"degree": -1, "coeffs": [7, 7]}]],
            "markings": [[0, [1, 1]], [0, [1, 2]], [0, [1, 3]]]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for command in (("quasimap", "analyze"), ("contract", "apply")):
        code, _, err = run(capsys, *command, str(bad))
        assert code == 2 and "negative-degree forms must be zero" in err, command
    data["components"][0][3]["coeffs"] = []
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "--json", "quasimap", "analyze", str(bad))
    assert code == 0 and json.loads(out)["degree"] == [0, 1, 1, -1]


def test_witness_rejects_invalid_quasimap(tmp_path, capsys):
    data = json.loads(fixture_path("section_line.json").read_text())
    data["nodes"] = [[[0, [1, 3]], [1, [1, 0]]]]  # component 1 does not exist
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "witness", str(bad))
    assert code == 1 and "invalid: node references a missing component" in out


def test_max_length_env_caps_factor(capsys, monkeypatch):
    monkeypatch.setenv("TORIQ_MAX_LENGTH", "1")
    code, out, _ = run(capsys, "--json", "class", "factor", fx("bl0p2.json"),
                       "--class", "1,1,1,0")
    assert code == 0
    assert json.loads(out)["factorizations"] == [[[0, 1, 1, -1], [1, 0, 0, 1]]]
    monkeypatch.setenv("TORIQ_MAX_LENGTH", "0")
    code, out, _ = run(capsys, "--json", "class", "factor", fx("bl0p2.json"),
                       "--class", "1,1,1,0")
    # the cap cut the search short, so irreducibility is left open
    assert json.loads(out)["irreducible"] is None


@pytest.mark.parametrize("raw", ["abc", "2.5"])
def test_malformed_max_length_env_is_usage_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("TORIQ_MAX_LENGTH", raw)
    code, _, err = run(capsys, "class", "factor", fx("bl0p2.json"), "--class", "1,1,1,0")
    assert code == 2 and err.startswith("usage error: TORIQ_MAX_LENGTH")


def test_witness_does_not_read_max_length_env(capsys, monkeypatch):
    monkeypatch.delenv("TORIQ_MAX_LENGTH", raising=False)
    expected = run(capsys, "witness", fx("section_line.json"))
    assert expected[0] == 0
    assert "contraction equal to the input by construction" in expected[1]
    monkeypatch.setenv("TORIQ_MAX_LENGTH", "abc")
    assert run(capsys, "witness", fx("section_line.json")) == expected


FACTOR_P2 = ("class", "factor", fx("p2.json"), "--class", "2,2,2")
FIBRE_SEGRE = ("embed", "fibre", fx("segre.json"), fx("segre_q1.json"), "--class", "2,2,2,2")


@pytest.mark.parametrize("argv", [FACTOR_P2, FIBRE_SEGRE])
def test_negative_length_bound_is_usage_error(capsys, monkeypatch, argv):
    code, out, err = run(capsys, *argv, "--bound", "-3")
    assert code == 2 and err.startswith("usage error: --bound") and out == ""
    monkeypatch.setenv("TORIQ_MAX_LENGTH", "-3")
    code, out, err = run(capsys, *argv)
    assert code == 2 and err.startswith("usage error: TORIQ_MAX_LENGTH") and out == ""


@pytest.mark.parametrize("raw", ["1_0", "٣", "1.5", ""])
def test_integer_options_use_the_scalar_grammar(tmp_path, capsys, raw):
    """--bound and --component are read as TORIQ_MAX_LENGTH is: underscores,
    non-ASCII digits and floats are usage errors naming the option."""
    for argv in [("class", "factor", fx("p2.json"), "--class", "2", "--bound", raw),
                 FIBRE_SEGRE + ("--bound", raw),
                 ("graft", fx("section_line.json"), "--component", raw, "--place", "inf",
                  "--tail", _line_tail(tmp_path))]:
        code, out, err = run(capsys, *argv)
        option = argv[-2] if argv[-2] == "--bound" else "--component"
        assert code == 2 and out == "", argv
        assert err.startswith(f"usage error: {option}: cannot parse scalar {raw!r}"), err


def test_integer_options_accept_scalar_integers(capsys):
    code, out, _ = run(capsys, "--json", *FACTOR_P2, "--bound", " 2/2 ")
    assert code == 0
    assert json.loads(out) == {"irreducible": None, "complete": False, "factorizations": []}


def test_factor_search_cut_by_the_bound_is_not_irreducible(capsys):
    code, out, _ = run(capsys, *FACTOR_P2)
    assert code == 0 and out.splitlines()[0] == "factorizations:"
    code, out, _ = run(capsys, *FACTOR_P2, "--bound", "1")
    assert code == 0 and out == "no factorization with summands of degree <= 1\n"
    code, out, _ = run(capsys, "--json", *FACTOR_P2, "--bound", "1")
    assert json.loads(out) == {"irreducible": None, "complete": False, "factorizations": []}
    # a bound at half the class's degree 6 does not cut the search
    code, out, _ = run(capsys, "--json", *FACTOR_P2, "--bound", "3")
    assert json.loads(out) == {"irreducible": False, "complete": True,
                               "factorizations": [[[1, 1, 1], [1, 1, 1]]]}


BL0P2_SPLITS = [[[0, 1, 1, -1], [2, 1, 1, 1]], [[0, 2, 2, -2], [2, 0, 0, 2]],
                [[1, 0, 0, 1], [1, 2, 2, -1]]]
LINE_SPLIT = [[[1, 1, 1, 0], [1, 1, 1, 0]]]  # L + L, of degree 3 + 3


@pytest.mark.parametrize("argv, head, payload", [
    # bound 2 is below half the degree 6, so the L + L split may be missing
    (("bl0p2.json", "2,2,2,0", "2"), "factorizations with summands of degree <= 2:",
     {"irreducible": False, "complete": False, "factorizations": BL0P2_SPLITS}),
    (("bl0p2.json", "2,2,2,0", "3"), "factorizations:",
     {"irreducible": False, "complete": True, "factorizations": BL0P2_SPLITS + LINE_SPLIT}),
    # a line has degree 3: a split would have a summand of degree <= 1
    (("p2.json", "1,1,1", "1"), "irreducible",
     {"irreducible": True, "complete": True, "factorizations": []}),
])
def test_factor_reports_whether_the_bound_cut_the_search(capsys, argv, head, payload):
    name, values, bound = argv
    argv = ("class", "factor", fx(name), "--class", values, "--bound", bound)
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 0 and lines[0] == head and len(lines) == 1 + len(payload["factorizations"])
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0 and json.loads(out) == payload


COLD_START = """
import sys
import toriq, toriq.cli
assert "sympy" not in sys.modules, "importing toriq.cli loaded sympy"
for name in ("dataclasses", "inspect"):
    assert name not in sys.modules, f"importing toriq.cli loaded {name}"
from toriq.cases import CASE_NAMES, run_case
assert all(run_case(name).passed for name in CASE_NAMES)
assert "sympy" not in sys.modules, "a bundled case loaded sympy"
for name in ("dataclasses", "inspect"):
    assert name not in sys.modules, f"a bundled case loaded {name}"
"""

# run without site, whose .pth files may import these modules themselves
NO_SITE_START = """
import sys
import toriq.cli
for name in ("importlib.resources", "tempfile"):
    assert name not in sys.modules, f"importing toriq.cli loaded {name}"
"""


def test_cli_starts_and_runs_cases_without_sympy():
    # the bundled cases factor only linear and quadratic forms, which need no
    # sympy; dataclasses and inspect are slow stdlib imports the CLI avoids
    src = str(Path(toriq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    # the fixtures are found by path, without importlib.resources and tempfile
    result = subprocess.run([sys.executable, "-S", "-c", NO_SITE_START], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_a_closed_stdout_pipe_is_not_a_usage_error():
    """A child whose stdout is a pipe with its read end already closed gets
    EPIPE on its first write: it exits 1 with nothing on stderr, neither a
    usage error nor the interpreter's complaint at its final flush."""
    src = str(Path(toriq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "toriq.cli", "--json", "class", "factor", fx("bl0p2.json"),
             "--class", "4,4,4,0"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=300)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, "")

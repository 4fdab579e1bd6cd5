"""Pins outputs that a refactor must leave byte-identical, by SHA-256.

Each key of ``expected_outputs.json`` names one output: a CLI run on the
bundled fixtures (its exit code, stdout and stderr) or the witness, fibre and
analyze results on a seeded pool of random stable quasimaps per Fano fan.
A change that is meant to move an output regenerates the file with
``PYTHONPATH=src python tests/test_outputs_unchanged.py --write`` and says
which keys moved; without ``--write`` the script prints the digests.
"""

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from toriq import io as tio
from toriq.basepoint import INF
from toriq.cases import CASE_NAMES, fixture_path
from toriq.cli import main
from toriq.contraction import surjectivity_witness
from toriq.embedding import apply_ibar, build_epic_embedding, fibre_enumeration
from toriq.fan import Fan, product_fan, projective_space_fan
from toriq.quasimap import basepoints, degrees, regular_extension, stability

sys.path.insert(0, str(Path(__file__).parent))
from qmgen import random_stable_quasimap  # noqa: E402

EXPECTED = Path(__file__).with_name("expected_outputs.json")
FAN_FIXTURES = ("bl0p2.json", "p1xp1.json", "p2.json", "p3.json")
QUASIMAP_FIXTURES = ("section_line.json", "segre_q1.json", "segre_q2.json")
POOL_SIZE = 8


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}"


def _cli_outputs(tmp):
    fx = lambda name: str(fixture_path(name))  # noqa: E731
    runs = {}
    for mode in ("text", "json"):
        flag = ["--json"] if mode == "json" else []
        for case in CASE_NAMES:
            runs[f"reproduce {case} {mode}"] = flag + ["reproduce", case]
        for name in FAN_FIXTURES:
            runs[f"fan info {name} {mode}"] = flag + ["fan", "info", fx(name)]
            runs[f"embed build {name} {mode}"] = flag + ["embed", "build", fx(name)]
        for name in QUASIMAP_FIXTURES:
            runs[f"quasimap analyze {name} {mode}"] = flag + ["quasimap", "analyze", fx(name)]
        runs[f"witness section_line.json {mode}"] = flag + ["witness", fx("section_line.json")]
        for name in ("segre_q1.json", "segre_q2.json"):
            runs[f"embed ibar segre.json {name} {mode}"] = flag + [
                "embed", "ibar", fx("segre.json"), fx(name)]
    outputs = {key: _cli(argv) for key, argv in runs.items()}

    image = str(Path(tmp) / "image.json")
    emb = tio.load_embedding(fx("segre.json"))
    tio.dump(tio.quasimap_to_dict(apply_ibar(emb, tio.load_quasimap(fx("segre_q1.json")))), image)
    for mode in ("text", "json"):
        flag = ["--json"] if mode == "json" else []
        outputs[f"embed fibre segre.json image of segre_q1.json {mode}"] = _cli(
            flag + ["embed", "fibre", fx("segre.json"), image, "--class", "2,2"])
    return outputs


def _place(p):
    return "inf" if p.at_infinity else [tio.scalar_to_json(c) for c in p.coeffs]


def _analyze(q):
    return {
        "basepoints": [[bp.component, _place(bp.place),
                        ["inf" if o is INF else o for o in bp.orders.orders],
                        list(bp.degree.pairings)] for bp in basepoints(q)],
        "extension": tio.quasimap_to_dict(regular_extension(q)),
        "stable": stability(q),
    }


def _fano_fans():
    """The Fano fans of ``conftest.py``, by name."""
    return {
        "p1": projective_space_fan(1),
        "p2": Fan(2, ((-1, -1), (1, 0), (0, 1)), ((0, 1), (0, 2), (1, 2))),
        "p3": projective_space_fan(3),
        "bl0p2": Fan(2, ((0, -1), (1, 0), (-1, 1), (0, 1)), ((1, 3), (2, 3), (0, 2), (0, 1))),
        "p1xp1": product_fan([projective_space_fan(1), projective_space_fan(1)]),
        "p2xp1": product_fan([projective_space_fan(2), projective_space_fan(1)]),
        "hexagon": Fan(2, ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
                       ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5))),
    }


def _pool_outputs():
    outputs = {}
    for name, fan in _fano_fans().items():
        rng = random.Random(f"expected-outputs/{name}")
        pool = [random_stable_quasimap(fan, rng) for _ in range(POOL_SIZE)]
        emb = build_epic_embedding(fan)
        kinds = {
            "witness": [tio.quasimap_to_dict(surjectivity_witness(q).quasimap) for q in pool],
            "fibre": [[tio.quasimap_to_dict(f) for f in
                       fibre_enumeration(emb, apply_ibar(emb, q), degrees(q)[0])] for q in pool],
            "analyze": [_analyze(q) for q in pool],
        }
        for kind, data in kinds.items():
            outputs[f"pool {name} {kind}"] = json.dumps(data, sort_keys=True)
    return outputs


def output_digests():
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {**_cli_outputs(tmp), **_pool_outputs()}
    return {key: _digest(text) for key, text in sorted(outputs.items())}


def test_outputs_match_the_pinned_digests():
    expected = json.loads(EXPECTED.read_text())
    actual = output_digests()
    changed = sorted(k for k in expected.keys() | actual.keys()
                     if expected.get(k) != actual.get(k))
    assert not changed, f"outputs changed: {changed}"


if __name__ == "__main__":
    digests = output_digests()
    if sys.argv[1:] == ["--write"]:
        EXPECTED.write_text(json.dumps(digests, indent=1) + "\n")
    else:
        print(json.dumps(digests, indent=1))

"""Child processes of the benchmark; run.py starts them.

    worker.py warm SEED SECONDS TRACE POOL SETUP_ONLY SPANS
        warm_session: set up one long-lived session, then run the request mix.
    worker.py fan SEED PASS TRACE SPANS
        fan_cold: one pass over the relabelled fan corpus in a fresh process,
        timed as one operation: the sum of its fans' times.
    worker.py cli SPANS ARG...
        cli_cold, traced: the toriq CLI with span recording.

warm and fan print one JSON object per line on stdout: "ready" when set-up
ends, one "op" per timed operation, then "done".  Timed operations are
checked afterwards, outside the timed region; a failure is reported, never
raised.  Each "ready" and "op" carries ``ref_ms``, the in-process reference
time (calibrate.py) around it, measured outside the timed region: for set-up,
the mean of the references at its start, its end and points in between; for
a request, the mean of those before and after it; for a pass, that mean for
each fan, weighted by the fan's time.
"""

import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

from calibrate import fraction_ms
from tracing import Patcher, SpanLog, cache_stats, lru_caches

WARM_TARGETS = ("p2", "p1xp1", "bl0p2", "p1xp2")
KINDS = ("witness", "fibre", "analyze")
SCHEDULE_LENGTH = 4096
READY_REFS = 5  # reference runs at each set-up checkpoint
FAN_REFS = 5  # reference runs after each fan of a pass


def emit(**fields):
    print(json.dumps(fields), flush=True)


def import_program():
    """Import time of the library and CLI in ms, and whether sympy came along."""
    start = perf_counter()
    import toriq  # noqa: F401
    import toriq.cli  # noqa: F401
    return (perf_counter() - start) * 1000, "sympy" in sys.modules


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed(fn, *args):
    """(result, ms, error) of one call; an exception becomes the error text."""
    start = perf_counter()
    try:
        result, error = fn(*args), None
    except Exception:
        result, error = None, traceback.format_exc(limit=3)
    return result, (perf_counter() - start) * 1000, error


def checked(check, *args):
    try:
        return bool(check(*args))
    except Exception:
        traceback.print_exc()
        return False


def warm(seed, seconds, trace, pool_size, setup_only, spans_path):
    setup_refs = [fraction_ms(READY_REFS)]
    import_ms, sympy_loaded = import_program()
    setup_refs.append(fraction_ms(READY_REFS))
    # toriq is called through its modules, so traced runs see the wrappers
    from toriq import contraction, embedding, quasimap
    from toriq.io import load_embedding
    import toriq
    from inputs import QuasimapSource, shapes

    fans = shapes()
    embeddings = {name: embedding.build_epic_embedding(fans[name]) for name in WARM_TARGETS}
    embeddings["segre"] = load_embedding(
        str(Path(toriq.__file__).parent / "fixtures" / "segre.json"))
    if embeddings["segre"].source != fans["p1xp1"]:
        raise RuntimeError("the segre fixture's source is not the p1xp1 shape")
    setup_refs.append(fraction_ms(READY_REFS))
    source_of = {name: name for name in WARM_TARGETS}
    source_of["segre"] = "p1xp1"

    rng = random.Random(f"warm_session/{seed}")
    pools = {}
    for name in WARM_TARGETS:
        source = QuasimapSource(fans[name], rng)
        pools[name] = [source.draw() for _ in range(pool_size)]
        setup_refs.append(fraction_ms(READY_REFS))
    # every (kind, target, quasimap) once per cycle, in a seeded order
    combos = [(kind, key, idx) for kind in KINDS
              for key in (sorted(embeddings) if kind == "fibre" else WARM_TARGETS)
              for idx in range(pool_size)]
    schedule = []
    while len(schedule) < SCHEDULE_LENGTH:
        cycle = combos[:]
        rng.shuffle(cycle)
        schedule += cycle

    def witness(q):
        return contraction.surjectivity_witness(q)

    def fibre(emb, q):
        image = embedding.apply_ibar(emb, q)
        return embedding.fibre_enumeration(emb, image, quasimap.degrees(q)[0])

    def analyze(q):
        return quasimap.basepoints(q), quasimap.regular_extension(q), quasimap.stability(q)

    def request(kind, key, q, wrap=lambda label, fn: fn):
        if kind == "witness":
            return timed(wrap("op.witness", witness), q)
        if kind == "fibre":
            return timed(wrap("op.fibre", fibre), embeddings[key], q)
        return timed(wrap("op.analyze", analyze), q)

    def check(kind, q, result):
        if kind == "witness":
            return quasimap.equal_quasimaps(contraction.contract(result), q)
        if kind == "fibre":
            return any(quasimap.equal_quasimaps(element, q) for element in result)
        bps, extension, stable = result
        return bps and stable is True and not quasimap.basepoints(extension)

    # fill the session's caches: every kind once on every target
    for key in sorted(embeddings):
        q = pools[source_of[key]][0]
        for kind in KINDS:
            if kind == "fibre" or key in WARM_TARGETS:
                request(kind, key, q)

    ready = time.monotonic()
    setup_refs.append(fraction_ms(READY_REFS))
    emit(ready=ready, ref_ms=statistics.fmean(setup_refs), import_ms=import_ms,
         sympy_loaded=sympy_loaded)
    ref_ms = setup_refs[-1]
    if setup_only:
        return

    caches = lru_caches()
    log = SpanLog()
    patcher = Patcher(log) if trace else None
    before = cache_stats(caches)
    deadline = perf_counter() + seconds
    i = 0
    modes_seen = set()
    while perf_counter() < deadline or (trace and len(modes_seen) < 2):
        kind, key, idx = schedule[i % len(schedule)]
        q = pools[source_of[key]][idx]
        traced = trace and i % 2 == 1
        if traced:
            patcher.install()
            result, ms, error = request(kind, key, q, log.wrap)
            patcher.uninstall()
        else:
            result, ms, error = request(kind, key, q)
        if error:
            print(error, file=sys.stderr)
        ok = error is None and checked(check, kind, q, result)
        extra = {"size": len(result)} if ok and kind == "fibre" else {}
        last_ref, ref_ms = ref_ms, fraction_ms()
        emit(op=kind, ms=ms, ref_ms=(last_ref + ref_ms) / 2, ok=ok, traced=traced, **extra)
        modes_seen.add(traced)
        i += 1
    after = cache_stats(caches)
    if trace:
        log.dump(spans_path)
    emit(done=True, rss_mb=peak_rss_mb(), cache_entries=after["entries"],
         cache_hits=after["hits"] - before["hits"],
         cache_misses=after["misses"] - before["misses"])


def fan_pass(seed, pass_index, trace, spans_path):
    setup_refs = [fraction_ms(READY_REFS)]
    import_ms, sympy_loaded = import_program()
    # toriq is called through its modules, so traced runs see the wrappers
    from toriq import classes, embedding, fan as fans
    from inputs import EXPECTED, factor_dims, fan_corpus

    corpus = fan_corpus(seed, pass_index)

    def walk(fan):
        violations = fans.validate_fan(fan)
        collections = fans.primitive_collections(fan)
        classes.wall_curve_classes(fan)
        basis = classes.nef_hilbert_basis(fan)
        fano = classes.is_fano(fan)
        emb = embedding.build_epic_embedding(fan)
        return violations, collections, basis, fano, emb, embedding.epic_check(emb)

    def invariants(fan, result):
        violations, collections, basis, fano, emb, epic = result
        return (violations == [], classes.picard_rank(fan), len(collections), len(basis),
                fano, factor_dims(emb.target), epic)

    caches = lru_caches()
    log = SpanLog()
    patcher = Patcher(log) if trace else None
    ready = time.monotonic()
    setup_refs.append(fraction_ms(READY_REFS))
    emit(ready=ready, ref_ms=statistics.fmean(setup_refs), import_ms=import_ms,
         sympy_loaded=sympy_loaded)
    ref_ms = setup_refs[-1]
    if trace:
        patcher.install()
        walk = log.wrap("op.fan", walk)
    totals = {"entries": 0, "hits": 0, "misses": 0}
    pass_ms = 0.0
    at_ref = 0.0  # pass time at the reference's speed around each fan
    ok = True
    for name, fan in corpus:
        # every fan starts from empty caches, as in a process of its own: no
        # fan reuses a target another fan of the pass already validated
        for fn in caches:
            fn.cache_clear()
        result, ms, error = timed(walk, fan)
        pass_ms += ms
        last_ref, ref_ms = ref_ms, fraction_ms(FAN_REFS)
        at_ref += ms * 2 / (last_ref + ref_ms)
        for key, value in cache_stats(caches).items():
            totals[key] += value
        if error:
            print(f"{name}: {error}", file=sys.stderr)
        ok = ok and error is None and checked(
            lambda: invariants(fan, result) == EXPECTED[name])
    if trace:
        patcher.uninstall()
        log.dump(spans_path)
    # the reference's mean over the pass, each fan weighted by its time
    emit(op="pass", ms=pass_ms, ref_ms=pass_ms / at_ref, ok=ok, traced=trace)
    emit(done=True, rss_mb=peak_rss_mb(), cache_entries=totals["entries"] / len(corpus),
         cache_hits=totals["hits"], cache_misses=totals["misses"])


def traced_cli(spans_path, argv):
    import_ms, sympy_loaded = import_program()
    import toriq.cli

    caches = lru_caches()
    log = SpanLog()
    patcher = Patcher(log)
    patcher.install()
    try:
        code = log.wrap("op.cli", toriq.cli.main)(argv)
    finally:
        patcher.uninstall()
        stats = cache_stats(caches)
        log.dump(spans_path, meta={"import_ms": import_ms, "sympy_loaded": sympy_loaded,
                                   "cache": stats})
    return code


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "warm":
        seed, seconds, trace, pool, setup_only, spans = rest
        warm(int(seed), float(seconds), trace == "1", int(pool), setup_only == "1", spans)
    elif mode == "fan":
        seed, pass_index, trace, spans = rest
        fan_pass(int(seed), int(pass_index), trace == "1", spans)
    elif mode == "cli":
        return traced_cli(rest[0], rest[1:])
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

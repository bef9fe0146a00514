"""Closed-loop benchmark of the jointdigits command line.

    python3 bench/run.py --workload exact-image --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program under test is the
package in ``src/``, started as ``python -m jointdigits.cli`` would start it.

``--trace 0`` measures what a user sees.  One client runs the seeded query
list round by round, one ``jointdigits`` process at a time, each query
waiting for the previous one; a fixed trivial probe opens every round and
gives the cold start.  After each round the same queries are replayed in
this process through ``jointdigits.cli.main(argv)``, which is what a library
caller sees without process start-up.

``--trace 1`` replays the query list in this process with spans around the
public functions of every module (see spans.py) and reports per-layer work
and self time; the same queries replayed untraced give the tracing overhead.

Answers are checked after timing by checkers.py.  The last line of stdout is
one JSON object: correct, attempted, failed and the metrics.  The spans of a
traced run are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import layers
import queries
import spans
from checkers import Checker

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 3
IMPORT_REPEATS = 9
TRACED_SHARE = 0.6  # of --seconds spent in the traced replay; the rest untraced
QUERY_TIMEOUT_S = 60.0
GRACE_S = 60.0  # past --seconds, a run stops starting queries
TAIL_BEYOND = 10
PROBE_EVERY = 5  # queries between cold-start probes
# Times are reported at a nominal machine speed.  Process times are scaled by
# BARE_MS over the median start-to-exit time of a bare interpreter
# (``python -c pass``, twice after every probe), in-process times by SPIN_MS
# over the median time of a fixed Python loop (after every in-process query).
# Neither runs code of the program, so the scales cancel the drift of a shared
# machine between runs and leave the program's own changes in the figures.
BARE = (sys.executable, "-c", "pass")
BARE_MS = 50.0
SPIN_MS = 7.0
SPIN_N = 100_000

END_TO_END = {
    "setup_s": ("s", "lower"),
    "queries_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "cold_start_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "correct_frac": ("ratio", "higher"),
    "lib_queries_per_s": ("1/s", "higher"),
    "lib_latency_p50_ms": ("ms", "lower"),
    "lib_latency_tail_ms": ("ms", "lower"),
}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond.

    Nearest rank: the percentile 100*(n-10)/n is the (n-10)-th smallest
    value, and ten samples lie beyond it.  With ten samples or fewer no
    percentile qualifies and the maximum is returned as p100.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return max(values), 100.0
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Result:
    """One answered (or failed) query."""

    __slots__ = ("query", "wall_s", "out", "error", "maxrss_kb")

    def __init__(self, query, wall_s, out, error=None, maxrss_kb=0):
        self.query, self.wall_s, self.out = query, wall_s, out
        self.error, self.maxrss_kb = error, maxrss_kb


def spin() -> float:
    """Seconds for a fixed pure-Python loop: the in-process speed reference."""
    t0 = perf_counter()
    total = 0
    for i in range(SPIN_N):
        total += i * i
    return perf_counter() - t0


def cli_env() -> dict[str, str]:
    """The environment of every jointdigits process.

    Bytecode caching is on whatever the caller's setting, and the cache lives
    under .bench_out, so the warm-up compiles once and the run writes nowhere
    outside the checkout.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(args: list[str], env, timeout: float, errfile, pass_fds=()) -> Result:
    """Run one process to exit; wall time covers spawn to reap."""
    errfile.seek(0)
    errfile.truncate()
    t0 = perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=errfile,
                            stdin=subprocess.DEVNULL, env=env, cwd=ROOT, pass_fds=pass_fds)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
        timer.join()
    wall = perf_counter() - t0
    error = None
    if proc.returncode != 0:
        errfile.seek(0)
        stderr = errfile.read().decode(errors="replace").strip().splitlines()
        error = f"exit {proc.returncode}: {stderr[-1] if stderr else ''}"[:300]
    return Result(None, wall, out, error)


# What ``python -m jointdigits.cli`` runs, followed by a report of the
# process's own peak resident set (VmHWM) on the descriptor given first.
# ru_maxrss from wait4 cannot serve: a forked child keeps the peak of the
# benchmark process it was forked from.
CLI_MAIN = """\
import os, sys
fd = int(sys.argv.pop(1))
try:
    import jointdigits.cli
    sys.exit(jointdigits.cli.main())
finally:
    with open("/proc/self/status") as f:
        os.write(fd, next(line for line in f if line.startswith("VmHWM")).split()[1].encode())
"""


def run_cli(query, env, timeout, errfile) -> Result:
    r, w = os.pipe()
    try:
        res = run_process([sys.executable, "-c", CLI_MAIN, str(w), *query], env, timeout,
                          errfile, pass_fds=(w,))
    finally:
        os.close(w)
        peak = os.read(r, 64)
        os.close(r)
    res.query, res.maxrss_kb = query, int(peak or 0)
    return res


def run_lib(query) -> Result:
    """One in-process call of jointdigits.cli.main with stdout captured."""
    import jointdigits.cli  # looked up per call, so the traced run sees its patch

    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = jointdigits.cli.main(list(query))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crashing query is a failed answer, not a crashed run
        code, error = -1, repr(exc)[:300]
    wall = perf_counter() - t0
    if code != 0 and error is None:
        error = f"exit {code}: {err.getvalue().strip()[-200:]}"
    return Result(query, wall, out.getvalue().encode(), error)


class Verdicts:
    """Checks answers after timing; identical queries must answer identically."""

    def __init__(self):
        self.checker = Checker()
        self.first: dict[tuple, tuple[bytes, str | None]] = {}

    def reason(self, res: Result, reference: Result | None = None) -> str | None:
        """Why res is wrong, or None.  reference: the answer res must equal."""
        if res.error:
            return f"{' '.join(res.query)[:100]}: {res.error}"
        if reference is not None and res.out != reference.out:
            return f"{' '.join(res.query)[:100]}: in-process output differs from the CLI"
        if res.query not in self.first:
            self.first[res.query] = (res.out, self.checker.check(list(res.query), res.out.decode()))
        out, why = self.first[res.query]
        if out != res.out:
            return f"{' '.join(res.query)[:100]}: output differs between identical queries"
        return why


def summarize_latency(walls: list[float], prefix: str, notes: list[str]) -> dict:
    value, pct = tail(walls)
    notes.append(f"{prefix}latency_tail_ms is p{pct:.1f} of {len(walls)} samples")
    return {f"{prefix}latency_p50_ms": statistics.median(walls) * 1e3,
            f"{prefix}latency_tail_ms": value * 1e3}


def end_to_end(workload: str, seed: int, seconds: float, errfile, notes: list[str]):
    env = cli_env()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        rounds = queries.generate(workload, seed)
        digest = queries.digest(rounds)
        warm = [run_cli(q, env, QUERY_TIMEOUT_S, errfile) for q in queries.WARMUP]
        setups.append(perf_counter() - t0)
    notes.append(f"queries digest {digest} ({len(rounds)} rounds of {len(rounds[0])})")
    lib_warm = [run_lib(q) for q in queries.WARMUP]

    cli_res, lib_res, probes, bare, spins = [], [], [], [], []
    start = perf_counter()
    hard_stop = start + seconds + GRACE_S
    r = 0
    while perf_counter() - start < seconds and perf_counter() < hard_stop:
        batch = []
        for i, q in enumerate(rounds[r % len(rounds)]):
            if perf_counter() >= hard_stop:
                break
            if i % PROBE_EVERY == 0:
                probes.append(run_cli(queries.PROBE, env, QUERY_TIMEOUT_S, errfile))
                bare += [run_process(BARE, env, QUERY_TIMEOUT_S, errfile).wall_s
                         for _ in range(2)]
            timeout = min(QUERY_TIMEOUT_S, max(1.0, hard_stop - perf_counter()))
            batch.append(run_cli(q, env, timeout, errfile))
        cli_res += batch
        # a query that failed through the CLI is not replayed: it may hang
        for res in batch:
            lib_res.append(None if res.error else run_lib(res.query))
            spins.append(spin())
        r += 1
    notes.append(f"closed loop, 1 client: {len(cli_res)} queries in {r} rounds, "
                 f"{len(probes)} cold-start probes")

    verdicts = Verdicts()
    failures = [why for res in warm + lib_warm + probes if (why := verdicts.reason(res))]
    ok = 0
    for res, lib in zip(cli_res, lib_res):
        why = verdicts.reason(res) or verdicts.reason(lib, reference=res)
        if why:
            failures.append(why)
        else:
            ok += 1
    lib_res = [lib for lib in lib_res if lib is not None]
    if not lib_res:
        raise SystemExit("no query was answered: " + "; ".join(failures[:3]))
    bare_ms, spin_ms = statistics.median(bare) * 1e3, statistics.median(spins) * 1e3
    scale, lib_scale = BARE_MS / bare_ms, SPIN_MS / spin_ms
    metrics = {
        "setup_s": statistics.median(setups) * scale,
        "queries_per_s": ok / sum(r.wall_s for r in cli_res) / scale,
        **summarize_latency([r.wall_s * scale for r in cli_res], "", notes),
        "cold_start_ms": statistics.median(p.wall_s for p in probes) * 1e3 * scale,
        "peak_rss_mb": max(r.maxrss_kb for r in cli_res) / 1024,
        "correct_frac": ok / len(cli_res),
        "lib_queries_per_s": ok / sum(r.wall_s for r in lib_res) / lib_scale,
        **summarize_latency([r.wall_s * lib_scale for r in lib_res], "lib_", notes),
    }
    notes.append(f"times scaled by {scale:.4f}: bare interpreter start {bare_ms:.2f} ms "
                 f"(median of {len(bare)}) against {BARE_MS:g} ms")
    notes.append(f"in-process times scaled by {lib_scale:.4f}: reference loop "
                 f"{spin_ms:.3f} ms against {SPIN_MS:g} ms")
    notes.append("setup_s is the median of " + ", ".join(f"{s:.3f}" for s in setups)
                 + " s before scaling")
    attempted = len(cli_res) + len(probes) + len(warm) + len(lib_warm)
    return metrics, attempted, failures


def import_ms(env, errfile) -> float:
    """Fresh-process import of jointdigits.cli minus a bare interpreter."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(run_process([sys.executable, "-c", "pass"], env, QUERY_TIMEOUT_S, errfile).wall_s)
        full.append(run_process([sys.executable, "-c", "import jointdigits.cli"], env,
                                QUERY_TIMEOUT_S, errfile).wall_s)
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def write_spans(path: Path, records, replay) -> None:
    with open(path, "w") as f:
        f.write("# query\targv\n")
        for qid, res in enumerate(replay):
            f.write(f"# {qid}\t{' '.join(a[:60] for a in res.query)}\n")
        f.write("id\tname\tstart_us\tend_us\tbusy_us\tcount\tparent\tquery\n")
        t0 = records[0][1] if records else 0.0
        for i, (name, start, end, busy, count, parent, query) in enumerate(records):
            f.write(f"{i}\t{name}\t{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\t"
                    f"{busy * 1e6:.1f}\t{count}\t{parent}\t{query}\n")


def traced(workload: str, seed: int, seconds: float, errfile, notes: list[str]):
    rounds = queries.generate(workload, seed)
    notes.append(f"queries digest {queries.digest(rounds)} ({len(rounds)} rounds of {len(rounds[0])})")
    warm = [run_lib(q) for q in queries.WARMUP]
    imp = import_ms(cli_env(), errfile)

    counters = defaultdict(int)
    tracer = spans.Tracer(hooks=layers.make_hooks(counters))
    replay: list[Result] = []
    start = perf_counter()
    with spans.instrument(tracer):
        # the warm-up queries enter every layer, so no layer reads zero
        batch, r = queries.WARMUP, 0
        while True:
            for q in batch:
                tracer.current_query = len(replay)
                replay.append(run_lib(q))
                tracer.run_hooks()
            if perf_counter() - start >= seconds * TRACED_SHARE:
                break
            batch, r = rounds[r % len(rounds)], r + 1
    records = tracer.records()
    untraced = [run_lib(res.query) for res in replay]
    notes.append(f"traced replay: {len(replay)} queries ({r} rounds + warm-up), "
                 f"{len(records)} span records")

    verdicts = Verdicts()
    failures = [why for res in warm if (why := verdicts.reason(res))]
    for res, ref in zip(replay, untraced):
        why = verdicts.reason(ref) or verdicts.reason(res, reference=ref)
        if why:
            failures.append(why)

    traced_s = sum(res.wall_s for res in replay)
    metrics = layers.per_layer_metrics(
        records, counters, len(replay), sum(len(res.out) for res in replay),
        traced_s, sum(res.wall_s for res in untraced), imp)
    per_q = traced_s * 1e3 / len(replay)
    notes.append(f"traced wall {per_q:.2f} ms/query: layer self times cover "
                 f"{metrics['trace.accounted_ratio']:.1%}; a CLI process adds "
                 f"cli.import_ms {imp:.1f} ms")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}.tsv"
    write_spans(path, records, replay)
    notes.append(f"spans written to {path.relative_to(ROOT)}")
    return metrics, len(replay) + len(warm), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=queries.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jointdigits" / "cli.py").is_file():
        print(f"error: no jointdigits sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.set_int_max_str_digits(0)

    notes = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
             f"trace {args.trace}"]
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"stderr-{os.getpid()}.tmp", "w+b") as errfile:
        try:
            run = traced if args.trace else end_to_end
            metrics, attempted, failures = run(args.workload, args.seed, args.seconds,
                                               errfile, notes)
        finally:
            os.unlink(errfile.name)

    units = layers.PER_LAYER if args.trace else END_TO_END
    for line in notes:
        print(line)
    for why in failures[:20]:
        print(f"FAILED {why}")
    for name, value in metrics.items():
        print(f"  {name:24s} {value:14.4f} {units[name][0]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the pluriclosed engine, one workload per run.

    python3 bench/run.py --workload sweep|conditioning|commands --seed N --seconds S --trace 0|1

Workloads (inputs are generated from the seed; see inputs.py):

* ``sweep``: every cohomology space (Bott-Chern, Aeppli and Dolbeault at
  each (p,q), de Rham at each degree) of the n = 5 rung, KT^2 x T and the
  Iwasawa-type model, each under one seeded metric of condition 10.
* ``conditioning``: the same sweep on the fixtures and the n = 4 rungs under
  U diag(geomspace(1, c, n)) U*, c in {1, 3, 10}, three seeds each.
* ``commands``: every CLI command through ``cli.main(argv)`` in-process.

A pass is one whole sweep, grid or command list, after one untimed warm-up
pass.  Passes repeat while another one fits in ``--seconds`` (at least one
pass).  With ``--trace 0`` the run reports ``setup_s`` (median over fresh
interpreters), ``wall_s`` (median pass) and ``peak_rss_mb``.  Both times are
paced (see pace.py): reference chunks run between a pass's units and between
set-up probes, and each time is scaled to the reference speed, so that the
shared host's drifting speed does not read as a change of the program.  The
measured seconds are printed beside them.  With ``--trace 1`` half the time
runs untraced passes and half traced ones, and the run reports the
per-layer split (in measured seconds) of the median traced pass and the
tracing overhead.

All outputs are checked after the timed passes.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``failed`` counts refusals (``CrossCheckError``) and wrong
outputs; ``correct`` is false only when an output was wrong.
"""

from __future__ import annotations

import os

# One BLAS thread (set before numpy loads): steadier than two on a small,
# shared machine, and the sweep gains little from a second thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import pace  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
OUT = BENCH / "_out"
SETUP_PROBES = 15
REF_EVERY = 0.1  # seconds of program work between reference chunks
WALL_NAMES = {"sweep": "sweep_s", "conditioning": "grid_s", "commands": "commands_s"}


class BenchmarkError(Exception):
    """The benchmark itself cannot run (missing sources, a set-up probe failed)."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WALL_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# machine record


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float], float]:
    """Set-up seconds of each fresh interpreter, reference chunk seconds taken
    between them, and the median import seconds."""
    setups, imports = [], []
    refs = [pace.chunk()]
    for i in range(SETUP_PROBES):
        workdir = WORK / f"probe-{os.getpid()}-{i}"
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(workdir)],
                cwd=ROOT, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        refs.append(pace.chunk())
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(record["ready"] - start)
        imports.append(record["import_s"])
    return setups, refs, statistics.median(imports)


class Clock:
    """Times the units of one pass.  With ``pacing`` on, a reference chunk
    runs after every REF_EVERY seconds of units; chunk time is not counted
    as work."""

    def __init__(self, pacing: bool):
        self.pacing = pacing
        self.work = 0.0
        self.refs: list[float] = []
        self._since = 0.0
        self._t = time.perf_counter()

    def tick(self) -> None:
        dt = time.perf_counter() - self._t
        self.work += dt
        self._since += dt
        if self.pacing and self._since >= REF_EVERY:
            self.refs.append(pace.chunk())
            self._since = 0.0
        self._t = time.perf_counter()


class Passes:
    """Passes of one run: work seconds, paced seconds, outcomes and first span
    of each, and the reference chunk seconds taken between their units."""

    def __init__(self):
        self.times: list[float] = []
        self.paced: list[float] = []
        self.refs: list[float] = []
        self.outcomes: list[list] = []
        self.firsts: list[int] = []


def timed_passes(workload, seconds: float, tracer=None) -> Passes:
    """Run passes while another one, as long as the last, still fits in
    ``seconds`` (at least one pass), so a run never ends far past it.
    Traced passes run no reference chunks: their spans give measured
    per-layer seconds."""
    runs = Passes()
    start = time.perf_counter()
    last = 0.0
    while not runs.times or time.perf_counter() - start + last <= seconds:
        runs.firsts.append(len(tracer.spans) if tracer else 0)
        t0 = time.perf_counter()
        clock = Clock(pacing=tracer is None)
        if tracer is None:
            outcomes = workload.run_pass(clock.tick)
        else:
            with tracer.span("bench", "pass"):
                outcomes = workload.run_pass(clock.tick)
        last = time.perf_counter() - t0
        runs.times.append(clock.work)
        if clock.pacing:
            if not clock.refs:
                clock.refs.append(pace.chunk())
            runs.paced.append(pace.paced(clock.work, clock.refs))
            runs.refs.extend(clock.refs)
        runs.outcomes.append(outcomes)
    return runs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_index(values: list[float]) -> int:
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------


def run(args) -> int:
    import selfcheck
    import workloads
    from spans import Tracer, span_cost

    machine = machine_record()
    print("machine " + json.dumps(machine, sort_keys=True))
    issues = selfcheck.problems()
    if issues:
        raise BenchmarkError("checker self-check failed: " + "; ".join(issues))

    setups, setup_refs, import_s = measure_setup(args.workload, args.seed)
    setup_s = pace.paced(statistics.median(setups), setup_refs)
    workload = workloads.make(args.workload, args.seed, WORK / f"run-{os.getpid()}")
    workload.setup()
    warmup = workload.run_pass(lambda: None)

    tracer = None
    if args.trace:
        untraced = timed_passes(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            passes = timed_passes(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        outcomes = untraced.outcomes + passes.outcomes
    else:
        passes = timed_passes(workload, args.seconds)
        outcomes = passes.outcomes
    rss = peak_rss_mb()

    verdict = workload.check([warmup] + outcomes, workloads.References())
    measured_s = statistics.median(passes.times)
    wall_s = statistics.median(passes.paced) if passes.paced else measured_s
    share = verdict.failed / verdict.attempted
    count = len(passes.times)
    traced = "traced " if tracer else ""
    print(f"workload {args.workload}, seed {args.seed}: {len(outcomes)} passes after one warm-up pass")
    print(f"  setup_s      {setup_s:.4f} s    median of {SETUP_PROBES} fresh interpreters at the reference speed"
          f" (measured {statistics.median(setups):.4f} s, reference chunk {statistics.median(setup_refs):.5f} s)")
    if passes.paced:
        print(f"  {WALL_NAMES[args.workload]:<12} {wall_s:.4f} s    median of {count} passes at the reference speed"
              f" ({' '.join(f'{t:.3f}' for t in passes.paced)})")
        print(f"  {'':<12} reference chunk median {statistics.median(passes.refs):.5f} s over {len(passes.refs)};"
              f" {pace.REF_SECONDS} s at the reference speed")
    print(f"  {'':<12} {measured_s:.4f} s    measured median of {count} {traced}passes"
          f" ({' '.join(f'{t:.3f}' for t in passes.times)})")
    print(f"  failed_share {share:.4f}      {verdict.failed} of {verdict.attempted} operations failed"
          f" ({verdict.failed - verdict.wrong} refused, {verdict.wrong} wrong)")
    print(f"  peak_rss_mb  {rss:.1f} MB")
    for note in verdict.notes:
        print(f"  failure: {note}")

    if tracer is None:
        metrics = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": rss}
    else:
        i = median_index(passes.times)
        first = passes.firsts[i]
        last = passes.firsts[i + 1] if i + 1 < count else None
        metrics = tracer.layer_metrics(first, last)
        untraced_s = statistics.median(untraced.times)
        layers_s = sum(v for k, v in metrics.items() if k.endswith("_s"))
        metrics["cli.import_s"] = import_s
        metrics["trace.untraced_pass_s"] = untraced_s
        metrics["trace.traced_pass_s"] = passes.times[i]
        metrics["trace.overhead_s"] = metrics["trace.spans"] * span_cost()
        print(f"  per-layer self times sum to {layers_s:.4f} s, the traced pass took {passes.times[i]:.4f} s;"
              f" estimated tracing overhead {metrics['trace.overhead_s']:.4f} s"
              f" ({metrics['trace.spans']} spans), untraced median pass {untraced_s:.4f} s")
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json", first, last)

    result = {
        "correct": verdict.wrong == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": "MB" if name == "peak_rss_mb" else unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pluriclosed" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        return run(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK / f"run-{os.getpid()}", ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

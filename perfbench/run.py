"""chainlab benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``.  Set-up (import, chain loading, seeded inputs) is timed from the
start of the process.  Then whole rounds of the workload's jobs run, at
least the workload's fixed number of rounds (``ROUNDS``) and on until their
summed wall time reaches ``--seconds``.  Outputs are checked after each
round, outside the timed region.

``--trace 0`` reports the end-to-end metrics: setup_s, wall_s (each job's
fastest wall time over the first ``ROUNDS`` rounds, summed over the jobs)
and peak_rss_mb.  ``--trace 1`` alternates traced and untraced rounds and
reports the per-layer metrics of the traced rounds, each per round, plus
the tracing overhead (traced minus untraced wall time, computed the same
way).  Rounds beyond ``ROUNDS`` go only into the record.
The last line of standard output is the JSON result; a copy with per-round
details goes to ``perfbench/out/``.
"""

import os
import time


def _since_process_start():
    """Seconds since the kernel started this process (0 if unknown)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME)
                   - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


PROCESS_START = time.perf_counter() - _since_process_start()

# BLAS/OpenMP pools run one thread, at most nproc: the vector products here
# are small, and a second pool thread spins whenever the other core is busy
# (on a 2-core VM a kernels round took 22-24 s instead of 7 s beside one
# CPU-bound process)
_NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("trajectories", "kernels", "cross_check", "classify_sweep")

# per-layer metric -> (stat key, field); "module:" keys read module totals
LAYER_METRICS = {
    "kernels.advance.time_s": ("kernels.advance", "time_s"),
    "kernels.advance.site_steps": ("kernels.advance", "count"),
    "kernels.mix.time_s": ("kernels.mix", "time_s"),
    "kernels.mix.node_times": ("kernels.mix", "count"),
    "simulate.evolve.time_s": ("simulate.evolve", "time_s"),
    "simulate.evolve.self_s": ("simulate.evolve", "self_s"),
    "simulate.evolve.samples": ("simulate.evolve", "count"),
    "simulate.boundary_feeds.time_s": ("simulate.boundary_feeds", "time_s"),
    "simulate.defect_response.time_s": ("simulate.defect_response", "time_s"),
    "propagator.halfline_field.time_s": ("propagator.halfline_field", "time_s"),
    "propagator.halfline_field.time_points": ("propagator.halfline_field", "count"),
    "propagator.kernel_N.time_s": ("propagator.kernel_N", "time_s"),
    "propagator.kernel_N.calls": ("propagator.kernel_N", "calls"),
    "propagator.kernel_N.memo_hits": ("propagator.kernel_N", "memo_hits"),
    "propagator.gauss_nodes.time_s": ("propagator.gauss_nodes", "time_s"),
    "propagator.gauss_nodes.max_n": ("propagator.gauss_nodes", "max_n"),
    "propagator.gamma_kernel.time_s": ("propagator.gamma_kernel", "time_s"),
    "jacobi.boundary_diagonals.time_s": ("jacobi.boundary_diagonals", "time_s"),
    "jacobi.ladder_inverse_entries.time_s": ("jacobi.ladder_inverse_entries", "time_s"),
    "jacobi.assemble_frame.calls": ("jacobi.assemble_frame", "calls"),
    "jacobi.leading_minors.calls": ("jacobi.leading_minors", "calls"),
    "jacobi.time_s": ("module:jacobi", "time_s"),
    "classify.classify.time_s": ("classify.classify", "time_s"),
    "classify.find_spectral_zero.time_s": ("classify.find_spectral_zero", "time_s"),
    "dispersion.exp_itheta.time_s": ("dispersion.exp_itheta", "time_s"),
    "decay.fit_decay.time_s": ("decay.fit_decay", "time_s"),
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    return "count"


@dataclass
class Round:
    traced: bool
    wall: float
    job_walls: list
    jobs: list
    outputs: list | None


def _run_round(workload, index, tracer):
    jobs = workload.jobs(index)
    if tracer is not None:
        tracer.install()
    outputs, marks = [], []
    start = time.perf_counter()
    try:
        for job in jobs:
            try:
                outputs.append(job.run())
            except Exception as exc:  # a failed job is counted, the run goes on
                outputs.append(exc)
            marks.append(time.perf_counter())
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    job_walls = [b - a for a, b in zip([start] + marks, marks)]
    return Round(tracer is not None, wall, job_walls, jobs, outputs)


def _round_time(rounds, count):
    """Sum over jobs of each job's fastest wall time across the first
    ``count`` rounds.

    Shared machines have slow spells (1.15-2x here, lasting seconds to
    minutes) that also show in a plain NumPy loop and in process CPU time; a
    job's fastest repeat is the least disturbed measure of its cost (README,
    Steadiness).
    The count is fixed per workload, so a faster program gets no more
    repeats to take the minimum over than a slower one.
    """
    return sum(min(walls) for walls in zip(*(r.job_walls for r in rounds[:count])))


def _check_round(rnd, failures):
    """Check every job of a round; returns (failed, unexpected) counts."""
    failed = unexpected = 0
    for job, out in zip(rnd.jobs, rnd.outputs):
        if isinstance(out, Exception):
            problems = [f"raised {type(out).__name__}: {out}"]
        else:
            problems = job.check(out)
        if problems:
            failed += 1
            if job.known_fault is None:
                unexpected += 1
            failures.setdefault(job.name, {"known_fault": job.known_fault,
                                           "problems": problems})
    return failed, unexpected


def _site_steps_mismatch(tracer, before, workload, rnd):
    """(traced, expected) when the stepper's site-step count disagrees with
    sum W * round(T / dt) over the round's trajectories, else None."""
    key = "kernels.advance"
    if key not in tracer.stats or key in tracer.counter_errors:
        return None
    traced = tracer.stats[key].count - before[key].count
    expected = workload.site_steps(rnd.outputs)
    return None if traced == expected else (traced, expected)


def _layer_metrics(tracer, setup_stats, n_traced):
    """Per-layer metrics per traced round, plus chain loading in set-up.

    Returns the metrics and the stat keys that had no target to trace.
    """
    (stats, module_time), (base, base_module) = tracer.snapshot(), setup_stats
    metrics, missing = {}, set(tracer.absent)
    for name, (key, field) in LAYER_METRICS.items():
        if key.startswith("module:"):
            group = key[len("module:"):]
            value = module_time.get(group, 0.0) - base_module.get(group, 0.0)
        elif key in stats:
            value = getattr(stats[key], field)
            if field != "max_n":
                value -= getattr(base[key], field)
        else:
            value = 0
            missing.add(key)
        metrics[name] = (value if field == "max_n" else value / n_traced, _unit(name))
    load = base.get("chain.load_chain")
    metrics["chain.load_chain.time_s"] = (load.time_s if load else 0.0, "s")
    return metrics, sorted(missing)


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "chainlab" / "__init__.py").is_file():
        print(f"perfbench: no chainlab sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import chainlab
    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        workload = WORKLOADS[args.workload](chainlab, args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = time.perf_counter() - PROCESS_START
    setup_stats = tracer.snapshot() if tracer else None
    if hasattr(workload, "prepare"):
        workload.prepare()

    rounds, failures = [], {}
    attempted = failed = unexpected = 0
    steps_mismatch = []
    measured = 0.0
    index = 0
    # the traced round goes first, so the per-layer figures include the
    # process's cold costs (such as Gauss nodes cached after first use)
    modes = (tracer, None) if tracer else (None,)
    while True:
        for use_tracer in modes:
            before = use_tracer.snapshot()[0] if use_tracer else None
            rnd = _run_round(workload, index, use_tracer)
            index += 1
            measured += rnd.wall
            rounds.append(rnd)
            f, u = _check_round(rnd, failures)
            attempted += len(rnd.jobs)
            failed += f
            unexpected += u
            if use_tracer is not None and hasattr(workload, "site_steps"):
                mismatch = _site_steps_mismatch(use_tracer, before, workload, rnd)
                if mismatch:
                    steps_mismatch.append(mismatch)
            rnd.jobs = rnd.outputs = None   # keep memory to what the program holds
        if measured >= args.seconds and len(rounds) >= len(modes) * workload.ROUNDS:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain = _round_time([r for r in rounds if not r.traced], workload.ROUNDS)
    traced_rounds = [r for r in rounds if r.traced]

    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"),
                   "wall_s": (plain, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        metrics, absent = _layer_metrics(tracer, setup_stats, len(traced_rounds))
        metrics["trace.overhead_s"] = (_round_time(traced_rounds, workload.ROUNDS) - plain, "s")

    correct = unexpected == 0 and not steps_mismatch
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}

    for name, info in failures.items():
        tag = "known fault" if info["known_fault"] else "FAILED"
        print(f"{tag}: {name}: {'; '.join(info['problems'])}", file=sys.stderr)
    for got, want in steps_mismatch:
        print(f"FAILED: traced site_steps {got} != sum W*round(T/dt) {want}", file=sys.stderr)
    if tracer is not None:
        for key in absent:
            print(f"absent target: {key}", file=sys.stderr)
        for key in sorted(tracer.counter_errors):
            print(f"counter unavailable: {key}", file=sys.stderr)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, nproc=_NPROC,
                  round_walls=[r.wall for r in rounds],
                  round_traced=[r.traced for r in rounds],
                  job_walls=[r.job_walls for r in rounds],
                  failures=failures,
                  absent=absent if tracer else [])
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

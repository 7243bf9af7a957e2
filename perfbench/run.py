"""photonkit benchmark: whole CLI jobs, end to end or traced per layer.

    python3 perfbench/run.py --workload {spectral,fit,batch} --seed N \
        --seconds S --trace {0,1}

With --trace 0 one client runs the workload's jobs back to back, each CLI
call as a fresh `python3` subprocess with the package on PYTHONPATH, and
reports the end-to-end metrics of BENCHMARK.json, with each time scaled by
runs of the fixed reference.py next to it. With --trace 1 each job
runs three times: as subprocesses (for CPU time), in process untraced, and in
process with every photonkit public function wrapped in a span recorder; the
per-layer metrics of BENCHMARK.json come from the spans, which are also
written to .benchmarks/spans-<workload>-<seed>.jsonl. Both runs measure whole
cycles of the workload's job mix only. Every job's output is checked. The
first line of standard output is the run's environment as JSON, the last line
the result. Generated inputs and job outputs live in a temporary directory
under .perfbench_tmp/ and are deleted at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, CheckFailed, Job, cycles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".perfbench_tmp"
SPANS_DIR = ROOT / ".benchmarks"
CLI_MAIN = "from photonkit.cli import main; main()"
SETUP_SAMPLES = 3
# Wall time of reference.py on the host the benchmark was written on (2 vCPU
# VM, Python 3.11, numpy 2.4, scipy 1.17); the time metrics are scaled to it.
REFERENCE_NOMINAL_S = 1.25
# A timed import runs after every this many seconds of jobs.
SETUP_GAP_S = 12.0
# CLI subprocesses still running this long after --seconds are killed, so a
# hung job fails instead of stalling the run. A few of the longest jobs (a
# fit job takes about 10 s) fit in the margin.
OVERRUN_S = 60.0
THREAD_VARS = ("WORKBENCH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
STARTED = time.perf_counter()
deadline = STARTED + OVERRUN_S  # main() sets it from --seconds


@dataclass
class Proc:
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float = 0.0
    maxrss_kb: int = 0
    output_bytes: int = 0
    error: str | None = None


def remaining_s() -> float:
    """Timeout of a subprocess started now: until the deadline, at least 1 s."""
    return max(1.0, deadline - time.perf_counter())


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under .perfbench_tmp/, deleted with its contents on exit."""
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=prefix, dir=TMP_PARENT))
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp)
        with contextlib.suppress(OSError):
            TMP_PARENT.rmdir()


def child_env() -> dict:
    """The inherited environment with the checkout's sources first on the path.

    Thread settings are passed on exactly as inherited.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], env: dict, log: Path, timeout: float) -> Proc:
    """Run `python3 args...` and reap it with wait4 for its own rusage."""
    out, err = log.with_suffix(".stdout"), log.with_suffix(".stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    lock = threading.Lock()
    reaped = False

    def kill():
        with lock:
            if not reaped:
                os.kill(pid, signal.SIGKILL)

    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                         file_actions=actions)
    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        with lock:
            reaped = True
        timer.cancel()
        timer.join()
    return Proc(os.waitstatus_to_exitcode(status), wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                out.read_text(), err.read_text())


def _check(job: Job, d: Path, stdouts: list[str]) -> str | None:
    try:
        job.check(d, stdouts)
    except CheckFailed as exc:
        return f"{job.kind}: {exc}"
    except Exception:  # a malformed output must fail the job, not the run
        return f"{job.kind}: check raised\n{traceback.format_exc()}"
    return None


def _output_bytes(d: Path, stdouts: list[str]) -> int:
    files = sum(p.stat().st_size for p in (d / "out").rglob("*") if p.is_file())
    return files + sum(len(s.encode()) for s in stdouts)


def _job_dir(tmp: Path, name: str) -> Path:
    d = tmp / name
    (d / "out").mkdir(parents=True)
    return d


def run_subprocess(job: Job, d: Path, env: dict) -> Outcome:
    """One job as CLI subprocesses: wall and CPU time summed over its calls,
    peak RSS the largest of its calls."""
    outcome = Outcome(0.0)
    stdouts = []
    for i, step in enumerate(job.prepare(d)):
        p = spawn(["-c", CLI_MAIN, *step.argv], env, d / f"step{i}", remaining_s())
        outcome.wall_s += p.wall_s
        outcome.cpu_s += p.cpu_s
        outcome.maxrss_kb = max(outcome.maxrss_kb, p.maxrss_kb)
        if p.exit_code != step.exit_code:
            outcome.error = (f"{job.kind}: exit {p.exit_code}, expected "
                             f"{step.exit_code}\n{p.stderr[-2000:]}")
            return outcome
        stdouts.append(p.stdout)
    outcome.error = _check(job, d, stdouts)
    outcome.output_bytes = _output_bytes(d, stdouts)
    return outcome


def run_inprocess(job: Job, d: Path, cli_run) -> Outcome:
    """One job through `photonkit.cli.run(argv)` in this process."""
    outcome = Outcome(0.0)
    stdouts = []
    for step in job.prepare(d):
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli_run(list(step.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the CLI crashed: report it as the job's failure
                code = 1
                buf.write(traceback.format_exc())
        outcome.wall_s += time.perf_counter() - start
        if code != step.exit_code:
            outcome.error = f"{job.kind}: exit {code}, expected {step.exit_code}\n{buf.getvalue()[-2000:]}"
            return outcome
        stdouts.append(buf.getvalue())
    outcome.error = _check(job, d, stdouts)
    outcome.output_bytes = _output_bytes(d, stdouts)
    return outcome


def import_s(env: dict, tmp: Path) -> float:
    """Wall time of a fresh interpreter importing photonkit.cli."""
    p = spawn(["-c", "import photonkit.cli"], env, tmp / "setup", remaining_s())
    if p.exit_code != 0:
        raise RuntimeError(f"import photonkit.cli failed:\n{p.stderr}")
    return p.wall_s


def whole_cycles(workload: str, seed: int, seconds: float):
    """The workload's cycles, as many whole ones as fit in `seconds`.

    A cycle starts only while one as long as the last still ends in time, so
    every run measures the same mix of jobs, whatever the speed of the host
    or of the code. The first cycle always runs.
    """
    start = time.perf_counter()
    last = 0.0
    for n, cycle in enumerate(cycles(workload, seed)):
        begun = time.perf_counter()
        if n and begun - start + last > seconds:
            return
        yield cycle
        last = time.perf_counter() - begun


def reference_s(env: dict, tmp: Path) -> float:
    """Wall time of the fixed photonkit-free job in reference.py."""
    d = tmp / "reference"
    d.mkdir()
    p = spawn([str(HERE / "reference.py"), str(d)], env, d / "run", remaining_s())
    shutil.rmtree(d)
    if p.exit_code != 0:
        raise RuntimeError(f"reference job failed:\n{p.stderr}")
    return p.wall_s


def timed_run(workload: str, seed: int, seconds: float, tmp: Path, bench: dict) -> dict:
    env = child_env()
    # An untimed import first writes the bytecode caches and warms the file
    # cache for photonkit, numpy and scipy, as any installed use would have
    # them.
    import_s(env, tmp)
    reference = [reference_s(env, tmp)]

    def scaled(wall: float) -> float:
        """`wall` scaled by the reference jobs just before and just after it.

        The shared host's speed swings by tens of percent within seconds, and
        a reference job run next to a job swings with it; the scaled time is
        the time on a host where the reference job takes REFERENCE_NOMINAL_S.
        """
        reference.append(reference_s(env, tmp))
        return wall * REFERENCE_NOMINAL_S / ((reference[-2] + reference[-1]) / 2)

    # The timed imports are spread over the run, one before the jobs, one
    # after every SETUP_GAP_S of jobs and one at the end.
    imports = [import_s(env, tmp)]
    setup = [scaled(imports[-1])]
    outcomes: list[Outcome] = []
    job_s: list[float] = []
    since = 0.0
    for cycle in whole_cycles(workload, seed, seconds):
        for job in cycle:
            n = len(outcomes)
            d = _job_dir(tmp, f"job{n}")
            outcomes.append(run_subprocess(job, d, env))
            shutil.rmtree(d)
            job_s.append(scaled(outcomes[-1].wall_s))
            print(f"job {n} {job.kind} {outcomes[-1].wall_s:.4f} s, "
                  f"scaled {job_s[-1]:.4f} s", file=sys.stderr)
            since += outcomes[-1].wall_s
            if since >= SETUP_GAP_S:
                imports.append(import_s(env, tmp))
                setup.append(scaled(imports[-1]))
                since = 0.0
    while len(setup) < SETUP_SAMPLES or since:
        imports.append(import_s(env, tmp))
        setup.append(scaled(imports[-1]))
        since = 0.0
    print("setup " + " ".join(f"{w:.4f}" for w in imports) + " s", file=sys.stderr)
    print("reference " + " ".join(f"{w:.4f}" for w in reference) + " s", file=sys.stderr)
    print(f"unscaled: setup_s {statistics.median(imports):.6g} s  "
          f"job_p50_s {statistics.median(o.wall_s for o in outcomes):.6g} s  "
          f"reference_p50_s {statistics.median(reference):.6g} s")
    metrics = {
        "setup_s": statistics.median(setup),
        "job_p50_s": statistics.median(job_s),
        "peak_rss_mb": max(o.maxrss_kb for o in outcomes) * 1024 / 1e6,
    }
    return _result(outcomes, metrics, bench["end_to_end"])


def traced_run(workload: str, seed: int, seconds: float, tmp: Path, bench: dict) -> dict:
    sys.path.insert(0, str(SRC))
    import photonkit
    import photonkit.cli
    from spans import Tracer

    env = child_env()
    tracer = Tracer(photonkit)

    def plain(job: Job, n: int) -> Outcome:
        return run_inprocess(job, _job_dir(tmp, f"job{n}-plain"), photonkit.cli.run)

    def traced(job: Job, n: int) -> Outcome:
        tracer.job = n
        tracer.install()
        try:
            return run_inprocess(job, _job_dir(tmp, f"job{n}-traced"), photonkit.cli.run)
        finally:
            tracer.uninstall()

    outcomes: list[Outcome] = []
    untraced_s = traced_s = cpu_s = output_bytes = 0.0
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{workload}-{seed}.jsonl"
    with open(spans_path, "w") as spans_file:
        for cycle in whole_cycles(workload, seed, seconds):
            if not outcomes:
                # an untimed first run of each job kind takes the in-process
                # first-call costs (lazy imports, cache fills) off both timed runs
                for job in cycle:
                    plain(job, -1)
                    shutil.rmtree(tmp / "job-1-plain")
            for job in cycle:
                n = len(outcomes)
                sub = run_subprocess(job, _job_dir(tmp, f"job{n}-sub"), env)
                # alternate which in-process run goes first
                if n % 2:
                    t, p = traced(job, n), plain(job, n)
                else:
                    p, t = plain(job, n), traced(job, n)
                tracer.write(spans_file)
                tracer.reduce()
                cpu_s += sub.cpu_s
                untraced_s += p.wall_s
                traced_s += t.wall_s
                output_bytes += t.output_bytes
                outcomes.append(Outcome(t.wall_s, error=sub.error or p.error or t.error))
                for d in tmp.glob("job*"):
                    shutil.rmtree(d)

    jobs = len(outcomes)
    derived = {
        "cli.output.bytes": output_bytes / jobs,
        "cli.job.cpu_s": cpu_s / jobs,
        "tracing.overhead_frac": (traced_s - untraced_s) / untraced_s,
    }
    metrics = {}
    for spec in bench["per_layer"]:
        name = spec["name"]
        if name in derived:
            metrics[name] = derived[name]
            continue
        layer, _, quantity = name.rpartition(".")
        t = tracer.totals.get(layer)
        if t is None:
            metrics[name] = 0
        elif quantity == "converged":  # a ratio of converged to attempted fits
            metrics[name] = t.quantities[quantity] / t.calls
        elif quantity == "calls":
            metrics[name] = t.calls / jobs
        elif quantity in ("busy_s", "self_s"):
            metrics[name] = getattr(t, quantity) / jobs
        else:
            metrics[name] = t.quantities[quantity] / jobs
    return _result(outcomes, metrics, bench["per_layer"])


def _result(outcomes: list[Outcome], values: dict, specs: list[dict]) -> dict:
    failed = [o.error for o in outcomes if o.error]
    for error in failed:
        print(f"FAILED {error}", file=sys.stderr)
    attempted = len(outcomes)
    print(f"jobs {attempted}  failed {len(failed)}  "
          f"failed_frac {len(failed) / attempted:.6g} ratio")
    for spec in specs:
        print(f"{spec['name']} {values[spec['name']]:.6g} {spec['unit']}")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }


def environment(args, bench: dict) -> dict:
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "workload": args.workload, "why": why.get(args.workload),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **versions,
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    global deadline
    deadline = STARTED + args.seconds + OVERRUN_S
    if not (SRC / "photonkit" / "cli.py").is_file():
        print(f"error: no photonkit sources at {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps({"env": environment(args, bench)}))
    with scratch_dir(f"{args.workload}-") as tmp:
        if args.trace:
            result = traced_run(args.workload, args.seed, args.seconds, tmp, bench)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, tmp, bench)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

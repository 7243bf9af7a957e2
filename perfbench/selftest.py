"""Tests of the benchmark itself: tracing coverage, span arithmetic, checks.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

The coverage tests run one cycle of each workload in process with tracing on
and require every traced layer to record calls on exactly the workloads
meant to exercise it, and none on the workloads that bypass it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, _covered  # noqa: E402
from workloads import CheckFailed  # noqa: E402

sys.path.insert(0, str(run.SRC))
import photonkit  # noqa: E402
import photonkit.cli  # noqa: E402

# Traced layer -> the workloads on which it must record calls; on every other
# workload it must record none.
EXERCISED = {
    "dispersion.refractive_index": {"spectral", "fit", "batch"},
    "phasematch.solve_signal_sweep": {"fit"},
    "phasematch.solve_signal_wavelength": {"fit"},
    "numerics.least_squares_fit": {"spectral", "fit"},
    "numerics.find_root": {"fit", "batch"},
    "sellmeier_fit.fit": {"fit"},
    "biphoton.jsa_grid": {"spectral"},
    "biphoton.fit_gaussian_2d": {"spectral"},
    "biphoton.fit_gaussian_1d": {"spectral"},
    "fiber_prop.propagate_stationary": {"spectral"},
    "fiber_prop.time_grid_stats": {"spectral"},
    "fiber_prop.save_time_grid_csv": {"spectral"},
    "bent_guide.solve_modes": {"batch"},
    "rect_guide.marcatili_solve": {"batch"},
    "rect_guide.hollow_modes": {"batch"},
    "cli.run": {"spectral", "fit", "batch"},
}


def _traced_cycle(workload: str, seed: int = 0) -> dict:
    """Run one cycle of the workload in process under the tracer."""
    tracer = Tracer(photonkit)
    with run.scratch_dir("selftest-") as tmp:
        tracer.install()
        try:
            for n, job in enumerate(next(workloads.cycles(workload, seed))):
                d = run._job_dir(tmp, f"job{n}")
                outcome = run.run_inprocess(job, d, photonkit.cli.run)
                assert outcome.error is None, outcome.error
        finally:
            tracer.uninstall()
    return tracer.reduce()


def _check_coverage(workload: str) -> dict:
    totals = _traced_cycle(workload)
    for layer, meant in EXERCISED.items():
        calls = totals[layer].calls if layer in totals else 0
        if workload in meant:
            assert calls > 0, f"{layer} records no calls on {workload}"
        else:
            assert calls == 0, f"{layer} records {calls} calls on {workload}"
    return totals


def test_per_layer_metrics_name_traced_layers():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = {m["name"].rpartition(".")[0] for m in bench["per_layer"]}
    assert set(EXERCISED) <= layers
    names = {name for name, _ in Tracer(photonkit).originals.values()}
    assert set(EXERCISED) <= names


def test_install_wraps_every_binding_and_uninstall_restores():
    from photonkit import biphoton, dispersion, phasematch

    original = dispersion.refractive_index
    tracer = Tracer(photonkit)
    tracer.install()
    try:
        originals = {id(fn) for _, fn in tracer.originals.values()}
        left = [f"{m.__name__}.{attr}" for m in tracer.modules
                for attr, value in vars(m).items() if id(value) in originals]
        assert left == []
        # names bound by `from .dispersion import refractive_index`
        assert phasematch.refractive_index is not original
        assert biphoton.refractive_index is not original
        assert phasematch.refractive_index is dispersion.refractive_index
    finally:
        tracer.uninstall()
    assert phasematch.refractive_index is original
    assert biphoton.refractive_index is original
    assert dispersion.refractive_index is original


def test_coverage_spectral():
    _check_coverage("spectral")


def test_coverage_fit():
    totals = _check_coverage("fit")
    # the phase-match sweep solver carries the Sellmeier fit
    sweep = totals["phasematch.solve_signal_sweep"].busy_s
    assert sweep >= 0.8 * totals["sellmeier_fit.fit"].busy_s


def test_coverage_batch():
    _check_coverage("batch")


def test_span_records_written_and_reduced():
    tracer = Tracer(photonkit)
    tracer.spans.extend([
        Span(0, "a.f", 0.0, 10.0, -1, 0, None),
        Span(1, "b.g", 1.0, 4.0, 0, 0, {"n": 2}),
        Span(2, "b.g", 3.0, 6.0, 0, 0, {"n": 3}),  # overlaps its sibling
        Span(3, "b.g", 1.5, 2.0, 1, 0, None),     # recursion inside span 1
    ])
    with run.scratch_dir("selftest-") as tmp:
        with open(tmp / "spans.jsonl", "w") as fh:
            tracer.write(fh)
        lines = (tmp / "spans.jsonl").read_text().splitlines()
    assert [json.loads(line)["serial"] for line in lines] == [0, 1, 2, 3]
    totals = tracer.reduce()
    assert totals["a.f"].self_s == 10.0 - 5.0
    assert totals["b.g"].calls == 3
    assert totals["b.g"].busy_s == 3.0 + 3.0
    assert totals["b.g"].quantities["n"] == 5
    assert tracer.spans == []
    assert _covered([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.5, 6.0) == 3.5


def _rejects(job, d: Path, stdouts: list[str]) -> bool:
    try:
        job.check(d, stdouts)
    except CheckFailed:
        return True
    return False


def test_checks_reject_wrong_answers():
    with run.scratch_dir("selftest-") as tmp:
        d = run._job_dir(tmp, "job")
        g2 = workloads.g2_job("thermal:0.7", 2.0)
        assert not _rejects(g2, d, [json.dumps({"g2": 2.0})])
        assert _rejects(g2, d, [json.dumps({"g2": 1.999999999})])

        bent = workloads.bent_job()
        modes = [{"q": 1 + i // 4, "p": 1 + i % 4, "n_eff": 1.0} for i in range(12)]
        modes[0]["n_eff"] = 2.03 * 1.029
        assert not _rejects(bent, d, [json.dumps({"modes": modes})])
        modes[0]["n_eff"] = 2.03 * 1.031
        assert _rejects(bent, d, [json.dumps({"modes": modes})])

        invalid = workloads.validate_job("/grid/n")
        assert _rejects(invalid, d, [json.dumps({"status": "validation-error",
                                                 "diagnostics": []})])

        fit = workloads.fit_job(workloads.FIT_FACTORS)
        fit.prepare(d)
        rows = ["lambda_pump_nm,lambda_vis_nm,sigma_nm"] + ["1,2,1.0"] * 55
        (d / "out" / "sweep.csv").write_text("\n".join(rows) + "\n")
        z = workloads.KATO_AXES["z"]
        truth = [z[k] * f for k, f in zip(("a0", "a1", "a2"), workloads.FIT_FACTORS)]
        sweep = json.dumps({"solved": 55})
        ok = json.dumps({"status": "ok", "fitted": truth})
        off = json.dumps({"status": "ok", "fitted": [truth[0] * (1 + 2e-6), *truth[1:]]})
        assert not _rejects(fit, d, [sweep, ok])
        assert _rejects(fit, d, [sweep, off])

        spectral = workloads.spectral_job("jsa", 0, 0.0)
        n = workloads.SPECTRAL_N
        lines = ["omega_s_phz,omega_i_phz,probability"] + ["0,0,0.0"] * (n * n - 1) + ["0,0,1.0"]
        (d / "out" / "jsa_grid.csv").write_text("\n".join(lines) + "\n")
        fit2 = {"signal_sigma_phz": 1.156 / 227.0, "idler_sigma_phz": 1.182 / 227.0,
                "pearson": 0.9535}
        assert not _rejects(spectral, d, [json.dumps({"status": "ok", "joint_fit": fit2})])
        fit2["pearson"] = 0.9
        assert _rejects(spectral, d, [json.dumps({"status": "ok", "joint_fit": fit2})])


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")

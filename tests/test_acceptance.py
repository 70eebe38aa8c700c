"""Runnable acceptance checklist.

Ten numbered criteria, each asserted at a fixed tolerance. Every test
prints a single ``ACCEPTANCE n <label>: PASS|FAIL`` line to the terminal
(outside pytest's capture) so the suite doubles as a release checklist.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from rppgbench.bench import ALGORITHMS, SearchStage, evaluate, greedy_search
from rppgbench.cli import EXIT_OK, main
from rppgbench.hr import detect_peaks, estimate_hr_spectral, hr_from_peaks
from rppgbench.io import load_protocol
from rppgbench.signals import (
    BandHz,
    Signal1D,
    detrend_smoothness_priors,
    hann_overlap_add,
    pearson,
    rmse,
)
from rppgbench.ssr import frame_eigen


def verdict(capfd, number, label, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    with capfd.disabled():
        print(f"\nACCEPTANCE {number:2d} {label}: {'PASS' if ok else 'FAIL'}{suffix}")


# ---------------------------------------------------------------------------
# 1. end-to-end recovery on the synthetic benchmark
# ---------------------------------------------------------------------------

def test_01_synthetic_end_to_end_recovery(acceptance_dataset, capfd):
    protocol = load_protocol(acceptance_dataset / "protocol.csv")
    reports = {}
    t0 = time.monotonic()
    for algo in sorted(ALGORITHMS):
        reports[algo] = evaluate(protocol, "test", algo, acceptance_dataset, jobs=4)
    elapsed = time.monotonic() - t0
    lines = []
    ok = elapsed <= 300.0
    for algo, report in reports.items():
        algo_ok = report.rmse <= 2.0 and report.pearson_rho >= 0.95 and report.ok_count == 16
        ok = ok and algo_ok
        lines.append(f"{algo} rmse={report.rmse:.3f} rho={report.pearson_rho:.4f}")
    detail = "; ".join(lines) + f"; {elapsed:.1f}s"
    verdict(capfd, 1, "synthetic end-to-end recovery", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 2. rectification pays for itself under illumination drift
# ---------------------------------------------------------------------------

def test_02_drift_rectification_helps(drift_dataset, capfd):
    protocol = load_protocol(drift_dataset / "protocol.csv")
    on = evaluate(protocol, "test", "licvpr", drift_dataset, params={"rectify": True}, jobs=4)
    off = evaluate(protocol, "test", "licvpr", drift_dataset, params={"rectify": False}, jobs=4)
    ok = on.ok_count == 16 and off.ok_count == 16 and on.rmse <= off.rmse
    detail = f"rectified rmse={on.rmse:.3f} vs unrectified {off.rmse:.3f}"
    verdict(capfd, 2, "drift rectification helps", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 3. banded detrend matches the dense-inverse oracle
# ---------------------------------------------------------------------------

def dense_detrend_oracle(samples, lam):
    n = samples.size
    d2 = np.zeros((n - 2, n))
    for i in range(n - 2):
        d2[i, i : i + 3] = (1.0, -2.0, 1.0)
    trend = np.linalg.inv(np.eye(n) + lam * lam * (d2.T @ d2)) @ samples
    return samples - trend


def test_03_detrend_matches_dense_oracle(capfd):
    rng = np.random.default_rng(303)
    worst_rel = 0.0
    worst_affine = 0.0
    for _ in range(100):
        samples = rng.normal(0.0, 5.0, size=50)
        for lam in (0.1, 1.0, 10.0, 300.0):
            got = detrend_smoothness_priors(Signal1D(samples, 20.0), lam).samples
            want = dense_detrend_oracle(samples, lam)
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            worst_rel = max(worst_rel, rel)
        a, b = rng.normal(size=2)
        affine = a + b * np.arange(50.0)
        residual = np.abs(detrend_smoothness_priors(Signal1D(affine, 20.0), 300.0).samples).max()
        worst_affine = max(worst_affine, residual)
    ok = worst_rel <= 1e-9 and worst_affine <= 1e-8
    detail = f"worst rel={worst_rel:.2e}, worst affine residual={worst_affine:.2e}"
    verdict(capfd, 3, "detrend matches dense oracle", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 4. overlap-add reconstructs interiors exactly
# ---------------------------------------------------------------------------

def test_04_overlap_add_interior_exact(capfd):
    rng = np.random.default_rng(404)
    length = 32
    worst = 0.0
    for _ in range(20):
        x = rng.normal(0.0, 3.0, size=256)
        blocks = [x[s : s + length] for s in range(0, 256 - length + 1, length // 2)]
        out = hann_overlap_add(blocks, 20.0).samples
        interior = slice(length // 2, 256 - length // 2)
        rel = np.abs(out[interior] - x[interior]).max() / np.abs(x[interior]).max()
        worst = max(worst, rel)
    ok = worst <= 1e-9
    detail = f"worst interior rel={worst:.2e}"
    verdict(capfd, 4, "overlap-add interior reconstruction", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 5. spectral estimator pins pure tones to one bin
# ---------------------------------------------------------------------------

def test_05_tones_within_one_bin(capfd):
    band = BandHz(40.0 / 60.0, 4.0)
    t = np.arange(1200) / 20.0
    errors = {}
    resolution = None
    for bpm in (40.0, 72.0, 150.0, 239.0):
        est = estimate_hr_spectral(Signal1D(np.sin(2 * np.pi * (bpm / 60.0) * t), 20.0), band)
        errors[bpm] = abs(est.bpm - bpm)
        resolution = est.resolution_bpm
    ok = resolution <= 0.125 and all(err <= resolution for err in errors.values())
    detail = f"bin={resolution:.4f} bpm, errors=" + ",".join(f"{e:.4f}" for e in errors.values())
    verdict(capfd, 5, "tones within one spectral bin", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 6. eigendecomposition against an independent Jacobi oracle
# ---------------------------------------------------------------------------

def jacobi_eigenvalues(matrix, max_sweeps=60, tol=1e-14):
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    for _ in range(max_sweeps):
        off = math.sqrt(sum(a[p, q] ** 2 for p in range(n) for q in range(n) if p != q))
        if off < tol * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


def test_06_eigen_matches_jacobi_oracle(capfd):
    rng = np.random.default_rng(606)
    worst = 0.0
    deterministic = True
    for i in range(1000):
        if i % 2:
            pixels = rng.uniform(0.0, 255.0, size=(100, 3))
        else:
            pixels = np.array([180.0, 120.0, 100.0]) + rng.normal(0.0, 15.0, size=(100, 3))
        lam, vec = frame_eigen(pixels)
        corr = pixels.T @ pixels / pixels.shape[0]
        lam_oracle = jacobi_eigenvalues(corr)
        worst = max(worst, np.abs(lam - lam_oracle).max() / lam_oracle[0])
        lam_again, vec_again = frame_eigen(pixels)
        deterministic = deterministic and np.array_equal(lam, lam_again) and np.array_equal(vec, vec_again)
    ok = worst <= 1e-9 and deterministic
    detail = f"worst rel={worst:.2e}, bit-deterministic={deterministic}"
    verdict(capfd, 6, "eigendecomposition matches oracle", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 7. peak-based ground truth on noisy contact BVP
# ---------------------------------------------------------------------------

def test_07_beat_recall_on_noisy_bvp(capfd):
    fs, f_beat = 256.0, 1.2
    t = np.arange(int(60 * fs)) / fs
    true_beats = np.array([(0.25 + k) / f_beat for k in range(72)])
    worst_recall = 1.0
    worst_hr_err = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        bvp = np.sin(2 * np.pi * f_beat * t) + 0.05 * rng.normal(size=t.size)
        peaks = detect_peaks(Signal1D(bvp, fs))
        peak_times = peaks / fs
        hits = sum(1 for b in true_beats if np.abs(peak_times - b).min() <= 0.05)
        worst_recall = min(worst_recall, hits / true_beats.size)
        worst_hr_err = max(worst_hr_err, abs(hr_from_peaks(peaks, fs).bpm - 72.0))
    ok = worst_recall >= 0.95 and worst_hr_err <= 1.0
    detail = f"recall>={worst_recall:.4f}, hr err<={worst_hr_err:.3f} bpm over 5 seeds"
    verdict(capfd, 7, "beat recall on noisy BVP", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 8. aggregate metrics against direct-loop oracles
# ---------------------------------------------------------------------------

def pearson_loop(a, b):
    n = len(a)
    ma, mb = sum(a) / n, sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    sa = math.sqrt(sum((x - ma) ** 2 for x in a))
    sb = math.sqrt(sum((y - mb) ** 2 for y in b))
    return cov / (sa * sb)


def rmse_loop(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)) / len(a))


def test_08_metric_oracles(capfd):
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(50):
        a = rng.normal(70.0, 12.0, size=40)
        b = a + rng.normal(0.0, 4.0, size=40)
        worst = max(worst, abs(pearson(a, b) - pearson_loop(a.tolist(), b.tolist())))
        worst = max(worst, abs(rmse(a, b) - rmse_loop(a.tolist(), b.tolist())))
    exact = pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0
    ok = worst <= 1e-12 and exact
    detail = f"worst dev={worst:.2e}, anti-correlation exact={exact}"
    verdict(capfd, 8, "metric loop oracles", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 9. greedy search selects the optimum in exactly sum-of-stages evaluations
# ---------------------------------------------------------------------------

def test_09_greedy_search_contract(small_dataset, capfd, register_stub):
    protocol = load_protocol(small_dataset / "protocol.csv")

    def biased(features, params):
        truth = features.truth().bpm
        return truth * params.scale + params.bias

    stages = [
        SearchStage("bias", grid=(("bias", (-2.0, 0.0, 3.0)),)),
        SearchStage("scale", grid=(("scale", (1.02, 1.0)),)),
    ]
    result = greedy_search(
        stages, protocol, register_stub(biased), small_dataset, objective="neg_rmse", split="train"
    )
    ok = result.best_params == {"bias": 0.0, "scale": 1.0} and result.n_evaluations == 5
    detail = f"best={result.best_params}, evaluations={result.n_evaluations} (bound 3+2)"
    verdict(capfd, 9, "greedy search contract", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 10. command-line pipelines are byte-deterministic, jobs included
# ---------------------------------------------------------------------------

def test_10_cli_byte_determinism(small_dataset, tmp_path, capfd):
    bundle_root = tmp_path / "ds"
    assert main(["synth", "--out", str(bundle_root), "--seed", "11", "--duration", "10"]) == EXIT_OK
    video = bundle_root / "seq000" / "video.rvid"
    roi = bundle_root / "seq000" / "roi.csv"
    pulses = []
    for name in ("p1.csv", "p2.csv"):
        out = tmp_path / name
        assert main(["pulse", str(video), "--roi", str(roi), "--algo", "chrom", "--out", str(out)]) == EXIT_OK
        pulses.append(out.read_bytes())

    reports = []
    for name, jobs in (("r1.csv", "1"), ("r2.csv", "2"), ("r3.csv", "2")):
        out = tmp_path / name
        code = main([
            "eval", "--root", str(small_dataset),
            "--protocol", str(small_dataset / "protocol.csv"),
            "--algo", "chrom", "--out", str(out), "--jobs", jobs,
        ])
        assert code == EXIT_OK
        reports.append(out.read_bytes())
    capfd.readouterr()  # swallow the eval summaries

    ok = pulses[0] == pulses[1] and reports[0] == reports[1] == reports[2]
    detail = f"pulse bytes equal={pulses[0] == pulses[1]}, report bytes equal across jobs 1/2"
    verdict(capfd, 10, "CLI byte determinism", ok, detail)
    assert ok, detail

"""hdrlite benchmark: three workloads driven through `hdrlite.cli.main`.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload infer_480x270 --seed 1 --seconds 30 --trace 0

Each run writes its seeded inputs under .bench_work/, starts worker
processes (perfbench/worker.py) with one BLAS thread, checks every item's
output against values recorded from the seed commit (perfbench/reference.json)
and prints, as its last line, one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones (items_per_s,
item_ms_p50, peak_rss_mb, setup_s); with --trace 1 they are the per-layer
self times, counts and rates of a traced run.  See perfbench/NOTES.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import gen  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(SRC))  # the generator and the checks use hdrlite too

WORKLOADS = ("infer_480x270", "train_64", "prep_480x270")
POOL = 32  # scene ids / training variants with recorded reference outputs
FRAME_H, FRAME_W = 270, 480
INFER_FRAMES = 4
PREP_SCENES = 16
TRAIN_PAIRS, TRAIN_SIZE = 8, 256
CHECKED_ITERS = 8  # training losses compared with the recorded trace
SETUP_SAMPLES = 3  # worker starts per untraced run; setup_s is their median
RUN_BUDGET_S = 170  # every worker of a run must end within this
BLOCKS = (6, 8)  # infer output signature: block means on a 6x8 grid
INFER_RTOL, INFER_ATOL = 1e-4, 1e-6
PREVIEW_TOL = 0.01  # mean preview code, out of 255
LOSS_RTOL = 1e-3

perf = time.perf_counter


def selection(workload: str, seed: int):
    """The pool members a run uses, chosen by its seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "infer_480x270":
        return [int(i) for i in rng.choice(POOL, INFER_FRAMES, replace=False)]
    if workload == "prep_480x270":
        return [int(i) for i in rng.choice(POOL, PREP_SCENES, replace=False)]
    return [int(rng.integers(POOL))]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def prepare(workload: str, ids, work: Path):
    """Write the inputs for one worker; returns (spec inputs, input properties)."""
    inp = work / "inputs"
    out = work / "outputs"
    inp.mkdir(parents=True)
    out.mkdir()
    if workload == "infer_480x270":
        shares = [gen.write_scene(inp, i, FRAME_H, FRAME_W) for i in ids]
        gen.write_checkpoint(inp / "ck.bin")
        frames = [{"scene": i, "path": str(inp / f"{i}.ppm")} for i in ids]
        return ({"frames": frames, "checkpoint": str(inp / "ck.bin"), "out": str(out)},
                {"overexposed_share": statistics.fmean(shares)})
    if workload == "prep_480x270":
        shares = [gen.write_scene(inp, i, FRAME_H, FRAME_W, sdr_subdir=True) for i in ids]
        return ({"scenes": list(ids), "dir": str(inp), "out": str(out)},
                {"overexposed_share": statistics.fmean(shares)})
    (variant,) = ids
    pairs = inp / "pairs"
    pairs.mkdir()
    shares = [gen.write_scene(pairs, variant * TRAIN_PAIRS + i, TRAIN_SIZE, TRAIN_SIZE)
              for i in range(TRAIN_PAIRS)]
    return ({"pairs": str(pairs), "train_seed": variant, "log": str(out / "loss.log"),
             "out": str(out), "variant": variant},
            {"overexposed_share": statistics.fmean(shares)})


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------

def spawn(work: Path, name: str, spec: dict, timeout: float) -> tuple[dict, float]:
    """Run one worker to its end; returns (its result, its start time)."""
    spec = dict(spec, root=str(ROOT), result=str(work / f"{name}.result.json"))
    spec_path = work / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    t_spawn = perf()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker {name} did not end within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(Path(spec["result"]).read_text()), t_spawn


def setup_seconds(result: dict, t_spawn: float) -> float:
    """Worker start to first timed item, less the host-speed probe."""
    return result["setup_end"] - t_spawn - result["probe_s"]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def infer_summary(item) -> dict:
    hdr = gen.read_pfm(item["pfm"]).astype(np.float64)
    if hdr.shape != (FRAME_H, FRAME_W, 3):
        raise ValueError(f"output shape {hdr.shape}")
    if not np.isfinite(hdr).all() or hdr.min() < 0:
        raise ValueError("output is not finite and non-negative")
    by, bx = BLOCKS
    blocks = hdr.reshape(by, FRAME_H // by, bx, FRAME_W // bx, 3).mean(axis=(1, 3))
    preview = gen.read_ppm(item["preview"])
    return {"blocks": blocks.ravel().tolist(), "max": float(hdr.max()),
            "preview_mean": preview.reshape(-1, 3).mean(axis=0).tolist()}


def infer_compare(s, ref) -> list[str]:
    bad = []
    got = np.array(s["blocks"] + [s["max"]])
    want = np.array(ref["blocks"] + [ref["max"]])
    if not np.allclose(got, want, rtol=INFER_RTOL, atol=INFER_ATOL):
        rel = np.abs(got - want) / np.maximum(np.abs(want), INFER_ATOL)
        bad.append(f"output block means differ from the reference (max rel {rel.max():.2e})")
    if np.abs(np.subtract(s["preview_mean"], ref["preview_mean"])).max() > PREVIEW_TOL:
        bad.append("preview mean codes differ from the reference")
    return bad


def prep_summary(item, imgio) -> dict:
    pixels = imgio.read_image(item["hdr"]).data
    return {"ppm_sha256": sha256(Path(item["ppm"]).read_bytes()),
            "manifest_sha256": sha256(Path(item["manifest"]).read_bytes()),
            "rgbe_pixels_sha256": sha256(np.ascontiguousarray(pixels, "<f4").tobytes()),
            "eval": item["eval"]}


def prep_compare(s, ref) -> list[str]:
    return [f"{key} differs from the reference" for key in ref if s[key] != ref[key]]


def read_losses(log_path) -> list[float]:
    path = Path(log_path)
    if not path.exists():
        return []
    return [float(line.split(",")[4]) for line in path.read_text().splitlines() if line]


def loss_compare(losses, ref) -> list[str]:
    got = np.array(losses[:CHECKED_ITERS])
    want = np.array(ref["losses"])
    if got.shape != want.shape or not np.allclose(got, want, rtol=LOSS_RTOL, atol=0):
        return ["first losses differ from the recorded trace"]
    return []


def manifest_params(path) -> dict:
    kv = dict(line.split("=", 1) for line in Path(path).read_text().splitlines() if line)
    return {"sigma": float(kv["sigma"]), "qf1": int(kv["qf1"]), "rescale": float(kv["rescale"])}


def rgbe_run_share(path) -> float:
    """Share of decoded RGBE scanline bytes that come from RLE runs."""
    data = Path(path).read_bytes()
    off = data.index(b"\n\n") + 2
    end = data.index(b"\n", off)
    h, w = (int(t) for t in data[off:end].split()[1::2])
    off = end + 1
    run = 0
    for _ in range(h):
        if data[off] != 2 or data[off + 1] != 2:  # flat scanline: all literal
            off += 4 * w
            continue
        off += 4
        for _ in range(4):
            pos = 0
            while pos < w:
                code = data[off]
                if code > 128:
                    run += code - 128
                    pos += code - 128
                    off += 2
                else:
                    pos += code
                    off += 1 + code
    return run / (4 * w * h)


def check_items(workload, items, inputs, refs, record: bool):
    """Per-item failure lists, and what the run records about its inputs."""
    failures = {}
    props = {}
    summaries = {}
    if workload == "train_64":
        losses = read_losses(inputs["log"])
        variant = str(inputs["variant"])
        bad_trace = [] if record else loss_compare(losses, refs[variant])
        for it in items:
            k = it["k"]
            if k < 0:
                continue
            bad = [f"exit code {it['rc']}: {it['log']}"] if it["rc"] else []
            if k + 1 >= len(losses) or not math.isfinite(losses[k + 1]):
                bad.append(f"iteration {k + 1}: loss missing or not finite")
            if k + 1 < CHECKED_ITERS:
                bad += bad_trace
            failures[k] = bad
        summaries[variant] = {"losses": losses[:CHECKED_ITERS]}
        if len(losses) < CHECKED_ITERS or bad_trace:
            failures[-1] = bad_trace or ["fewer iterations than the checked trace"]
        return failures, props, summaries

    from hdrlite import imgio
    params, shares = [], {}
    for it in items:
        k, sid = it["k"], str(it["scene"])
        try:
            if it["rc"] != 0:
                raise ValueError(f"exit code {it['rc']}: {it['log']}")
            if workload == "infer_480x270":
                s = infer_summary(it)
                bad = [] if record else infer_compare(s, refs[sid])
            else:
                s = prep_summary(it, imgio)
                bad = [] if record else prep_compare(s, refs[sid])
                if k >= 0:
                    params.append(manifest_params(it["manifest"]))
                if sid not in shares:
                    shares[sid] = rgbe_run_share(it["hdr"])
            summaries.setdefault(sid, s)
        except (ValueError, OSError, KeyError, IndexError) as e:
            bad = [str(e)]
        failures[k] = bad
    if params:
        props["degrade_params"] = params
        props["rgbe_run_share"] = statistics.fmean(shares.values())
    return failures, props, summaries


# ---------------------------------------------------------------------------
# Metrics and report
# ---------------------------------------------------------------------------

def tail_percentile(ms):
    """Highest standard percentile with at least ten items beyond it."""
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(ms) * (1 - p / 100) >= 10:
            return p, float(np.percentile(ms, p))
    return None, None


def execute(workload, seed, seconds, trace, work, record=False, max_items=10 ** 9,
            deadline=None, ids=None):
    """Generate inputs, run the workers, check outputs.  Returns a dict.
    Recording passes the pool members to run as `ids`."""
    deadline = deadline or perf() + RUN_BUDGET_S
    ids = ids if ids is not None else selection(workload, seed)
    inputs, props = prepare(workload, ids, work)
    base = {"workload": workload, "seconds": seconds, "trace": bool(trace),
            "inputs": inputs, "max_items": max_items}
    setups = []
    if not trace and not record:
        for i in range(SETUP_SAMPLES - 1):
            res, t0 = spawn(work, f"setup{i}", dict(base, setup_only=True), deadline - perf())
            setups.append(setup_seconds(res, t0))
    result, t0 = spawn(work, "main", dict(base, setup_only=False), deadline - perf())
    setups.append(setup_seconds(result, t0))
    refs = {} if record else json.loads(REFERENCE.read_text())[workload]
    failures, more, summaries = check_items(workload, result["items"], inputs, refs, record)
    props.update(more)
    return {"result": result, "setups": setups, "failures": failures,
            "props": props, "summaries": summaries}


def describe_inputs(props) -> str:
    """The input properties later optimisations depend on, as one line."""
    parts = [f"inputs.overexposed_share={props['overexposed_share']:.4f}"]
    if "rgbe_run_share" in props:
        parts.append(f"inputs.rgbe_run_share={props['rgbe_run_share']:.4f}")
        parts.append(f"inputs.rgbe_literal_share={1 - props['rgbe_run_share']:.4f}")
    params = props.get("degrade_params")
    if params:
        parts.append("inputs.degrade_params=" + ";".join(
            f"sigma:{p['sigma']:.5f},qf1:{p['qf1']},rescale:{p['rescale']:.3f}" for p in params))
    return " ".join(parts)


def unit_of(name: str) -> str:
    """Unit of a reported metric, from its name."""
    units = {"items_per_s": "1/s", "item_ms_p50": "ms", "peak_rss_mb": "MB", "setup_s": "s",
             "_ms": "ms", "_pct": "%", "gmac_per_s": "GMAC/s", "gemm_gflops_before": "GFLOP/s",
             "gemm_gflops_after": "GFLOP/s", "bytes": "B", "bytes_read": "B",
             "bytes_written": "B"}
    return next((u for suffix, u in units.items() if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hdrlite" / "__init__.py").is_file():
        print(f"error: no hdrlite sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        run = execute(args.workload, args.seed, args.seconds, args.trace, work)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    res = run["result"]
    timed = [it for it in res["items"] if it["k"] >= 0]
    failed = sorted(k for k, bad in run["failures"].items() if bad and k >= 0)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for k, bad in sorted(run["failures"].items()):
        for msg in bad:
            print(f"  failed {'run' if k < 0 else f'item {k}'}: {msg}")
    host = {"host.blas_threads": res["blas_threads"],
            "host.gemm_gflops_before": res["gemm_gflops_before"],
            "host.gemm_gflops_after": res["gemm_gflops_after"]}
    print("  " + " ".join(f"{k}={v:.4g}" for k, v in host.items()))
    print("  " + describe_inputs(run["props"]))

    ms = [it["ms"] for it in timed]
    if args.trace:
        import spans
        untraced = [it["ms"] for it in timed if not it["traced"]]
        traced = [it["ms"] for it in timed if it["traced"]]
        metrics = spans.per_layer(res["trace"], res["rows"],
                                  statistics.median(untraced) if untraced else 0.0,
                                  statistics.median(traced) if traced else 0.0)
        metrics.update(host)
        print(f"  traced_items={len(traced)} untraced_items={len(untraced)} "
              f"trace.coverage_pct={metrics['trace.coverage_pct']:.3f} "
              f"trace.unattributed_ms={metrics['trace.unattributed_ms']:.3f} "
              f"trace.overhead_pct={metrics['trace.overhead_pct']:.2f}")
    else:
        p, tail = tail_percentile(ms)
        metrics = {
            "items_per_s": len(timed) / res["phase_wall_s"],
            "item_ms_p50": statistics.median(ms),
            "peak_rss_mb": res["maxrss_kb"] / 1024.0,
            "setup_s": statistics.median(run["setups"]),
        }
        print(f"  items={len(timed)} phase_s={res['phase_wall_s']:.3f} "
              f"setup_samples_s={[round(s, 4) for s in run['setups']]} "
              + (f"p{p:g}_ms={tail:.2f}" if p else "tail: fewer than 20 items, p50 only"))

    print(json.dumps({
        "correct": not failed and not run["failures"].get(-1),
        "attempted": len(timed),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

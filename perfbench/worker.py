"""One benchmark worker: runs items through hdrlite's public front door.

Usage: python3 perfbench/worker.py SPEC.json

The spec (written by run.py) names the workload, its input files, how long
to measure and where to write the result.  The worker imports hdrlite from
the checkout's src/, runs one untimed warm-up item, then runs items in a
closed loop (each starts when the previous one ends) until the time is up.
It writes per-item wall times and what the checks need; run.py checks the
outputs.  With "trace" set, every other item runs with the span tracer
installed, so traced and untraced item times come from the same run.
"""
from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans

perf = time.perf_counter
GEMM_N = 384


class StopTraining(BaseException):
    """Ends `hdrlite train` between iterations; not caught by cli.main."""


def blas_threads() -> int:
    """Thread count of numpy's bundled OpenBLAS, read from the library."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    libs = glob.glob(str(libdir / "libscipy_openblas64_*.so"))
    if not libs:
        raise RuntimeError(f"no libscipy_openblas64_*.so in {libdir}")
    fn = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return fn()


def gemm_gflops() -> float:
    """Median speed of a fixed float64 384x384 GEMM: a host-speed probe."""
    rng = np.random.default_rng(0)
    a, b = rng.random((GEMM_N, GEMM_N)), rng.random((GEMM_N, GEMM_N))
    times = []
    for _ in range(15):
        t = perf()
        a @ b
        times.append(perf() - t)
    return 2 * GEMM_N ** 3 / statistics.median(times) / 1e9


def cli_call(cli, argv) -> tuple[int, str]:
    """hdrlite.cli.main(argv) with its output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def run_loop(item_fn, spec, tracer, T):
    """Warm-up item, then timed items until the time or item budget ends."""
    warm = item_fn(-1)
    setup_end = perf()
    items = [dict(warm, k=-1)]
    if spec["setup_only"]:
        return setup_end, 0.0, items
    end = setup_end
    k = 0
    while end - setup_end < spec["seconds"] and k < spec["max_items"]:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.begin_item(T.trace_ops)
        t0 = perf()
        rec = item_fn(k)
        end = perf()
        if traced:
            tracer.end_item(end - t0)
        items.append(dict(rec, k=k, ms=(end - t0) * 1e3, traced=traced))
        k += 1
    return setup_end, end - setup_end, items


def infer_items(spec, cli):
    inp = spec["inputs"]
    frames, out = inp["frames"], Path(inp["out"])

    def item(k):
        j = max(k, 0) % len(frames)
        tag = "warm" if k < 0 else k
        rc, text = cli_call(cli, [
            "infer", "--checkpoint", inp["checkpoint"], "--in", frames[j]["path"],
            "--out", out / f"out_{tag}.pfm", "--preview", out / f"prev_{tag}.ppm"])
        return {"scene": frames[j]["scene"], "rc": rc,
                "pfm": str(out / f"out_{tag}.pfm"), "preview": str(out / f"prev_{tag}.ppm"),
                "log": text[-2000:] if rc else ""}
    return item


def degrade_seed(scene_id: int) -> int:
    return 1000 + scene_id


def prep_items(spec, cli, imgio):
    inp = spec["inputs"]
    scenes, src, out = inp["scenes"], Path(inp["dir"]), Path(inp["out"])

    def item(k):
        sid = scenes[max(k, 0) % len(scenes)]
        tag = "warm" if k < 0 else k
        label = src / f"{sid}.pfm"
        hdr = out / f"{tag}.hdr"
        deg = out / f"deg_{tag}"
        imgio.write_image(hdr, imgio.read_image(label))
        rc1, t1 = cli_call(cli, ["degrade", "--in", src / "sdr" / str(sid), "--out", deg,
                                 "--seed", degrade_seed(sid)])
        rc2, t2 = cli_call(cli, ["eval", "--pred", hdr, "--ref", label])
        lines = [l for l in t2.splitlines() if l.startswith(f"{tag}.hdr:")]
        return {"scene": sid, "rc": rc1 or rc2, "hdr": str(hdr),
                "ppm": str(deg / f"{sid}.ppm"), "manifest": str(deg / f"{sid}.manifest.txt"),
                "eval": lines[0].split(":", 1)[1].strip() if lines else "",
                "log": (t1 + t2)[-2000:] if rc1 or rc2 else ""}
    return item


def run_train(spec, cli, TR, tracer, T):
    """One `hdrlite train` call; items are delimited by adam_step returns."""
    inp = spec["inputs"]
    orig_adam, orig_lr = TR.adam_step, TR.lr_schedule
    st = {"t": None, "traced": False, "stop": False, "setup_end": None, "book": 0.0}
    items = []

    def adam_step(*args, **kw):
        traced = st["traced"]
        if traced:
            out = tracer.run("training.adam_step", orig_adam, *args, **kw)
        else:
            out = orig_adam(*args, **kw)
        t = perf()
        if st["t"] is None:
            st["setup_end"] = t
            items.append({"k": -1})
            st["stop"] = spec["setup_only"]
        else:
            wall = t - st["t"]
            if traced:
                tracer.end_item(wall, enclosing="training.train_loop", bookkeeping=st["book"])
            items.append({"k": len(items) - 1, "ms": wall * 1e3, "traced": traced, "rc": 0})
            n = len(items) - 1
            st["stop"] = t - st["setup_end"] >= spec["seconds"] or n >= spec["max_items"]
        st["traced"] = tracer is not None and not st["stop"] and len(items) % 2 == 0
        if st["traced"]:
            tracer.begin_item(T.trace_ops)
        st["t"] = t
        st["book"] = perf() - t
        return out

    def lr_schedule(*args, **kw):
        if st["stop"]:
            raise StopTraining
        return orig_lr(*args, **kw)

    TR.adam_step, TR.lr_schedule = adam_step, lr_schedule
    try:
        rc, text = cli_call(cli, [
            "train", "--data", inp["pairs"], "--out", Path(inp["out"]) / "model.ckpt",
            "--patch-size", 64, "--iters", 10 ** 9, "--seed", inp["train_seed"],
            "--log", inp["log"]])
    except StopTraining:
        rc = 0
    finally:
        TR.adam_step, TR.lr_schedule = orig_adam, orig_lr
    if rc:  # the call failed before the time was up: the iteration it was on failed
        if st["setup_end"] is None:
            raise RuntimeError(f"hdrlite train failed before its first step: {text[-2000:]}")
        end = perf()
        items.append({"k": len(items) - 1, "ms": (end - st["t"]) * 1e3, "traced": False,
                      "rc": rc, "log": text[-2000:]})
        st["t"] = end
    return st["setup_end"], st["t"] - st["setup_end"], items


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    threads = blas_threads()
    t = perf()
    gemm_before = gemm_gflops()
    probe_s = perf() - t

    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import hdrlite
    from hdrlite import cli, imgio, metrics, model, training, degrade
    from hdrlite import tensor as T
    if Path(hdrlite.__file__).resolve().parent != (src / "hdrlite").resolve():
        raise RuntimeError(f"imported hdrlite from {hdrlite.__file__}, not from {src}")
    if threads != 1:
        raise RuntimeError(f"OpenBLAS runs {threads} threads; the benchmark needs 1")

    tracer = None
    if spec["trace"]:
        tracer = spans.build((T, model, training, degrade, imgio, metrics, cli))

    workload = spec["workload"]
    if workload == "infer_480x270":
        setup_end, wall, items = run_loop(infer_items(spec, cli), spec, tracer, T)
    elif workload == "prep_480x270":
        setup_end, wall, items = run_loop(prep_items(spec, cli, imgio), spec, tracer, T)
    elif workload == "train_64":
        setup_end, wall, items = run_train(spec, cli, training, tracer, T)
    else:
        raise ValueError(f"unknown workload {workload!r}")

    result = {
        "setup_end": setup_end, "probe_s": probe_s, "phase_wall_s": wall,
        "items": items, "blas_threads": threads,
        "gemm_gflops_before": gemm_before,
        "gemm_gflops_after": gemm_gflops() if not spec["setup_only"] else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rows": [li.name for li in model.layer_table(model.ModelConfig())],
        "trace": tracer.dump() if tracer else None,
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Batch command-line front end.

Subcommands: degrade, stats, train, infer, eval, info, bench.  Every run
echoes its resolved configuration before acting; degrade, stats, train,
infer and eval end with seconds=, peak_rss_mb= and threads= lines.  degrade
and stats read only the .ppm (SDR) files of their input directory, and infer
only an SDR image; eval reads only .pfm and .hdr (HDR) files, given two
files or two directories.
Exit codes: 0 success, 1 failure, 2 usage error, 3 partial success (some
files failed).
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import degrade as D
from . import imgio
from . import kvtext
from . import metrics as M
from . import model as mod
from . import training as TR

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARTIAL = 3

HDR_EXTS = (".pfm", ".hdr")
SDR_EXTS = (".ppm",)
RUN_STATS_COMMANDS = ("degrade", "stats", "train", "infer", "eval")


def _echo(title: str, *parts):
    """[title], then each mapping's or config's kvtext items as `key = value`."""
    print(f"[{title}]")
    for part in parts:
        for k, v in kvtext.items(part):
            print(f"  {k} = {v}")


def _print_kv(obj):
    for k, v in kvtext.items(obj):
        print(f"{k}={v}")


def _read_config(cls, path, what: str):
    if path is None:
        return cls()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{what} {path} is not UTF-8 text (byte {e.start})") from None
    cfg, extra = kvtext.loads(cls, text)
    if extra:
        raise ValueError(f"unknown {what} keys: {sorted(extra)}")
    return cfg


def _seed(text: str) -> int:
    """The --seed of degrade and bench, as np.random.default_rng takes it."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _list_images(directory, suffixes) -> list[Path]:
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"not a directory: {directory}")
    return sorted(p for p in directory.iterdir() if p.suffix in suffixes)


def _warn_skipped(what: str, names):
    """Name on stderr what a command skips for lack of a match; stdout and
    the exit code stay as they are."""
    if names:
        print(f"warning: skipped {what}: {', '.join(sorted(names))}", file=sys.stderr)


def _refuse_overwrite(outputs, inputs):
    """Raise when an output path resolves to an input path (None is skipped)."""
    read = {Path(p).resolve(): p for p in inputs if p is not None}
    for out in outputs:
        if out is not None and Path(out).resolve() in read:
            raise ValueError(f"{out} would overwrite the input {read[Path(out).resolve()]}")


def _check_output_files(outputs):
    """Raise when a file of {flag: path} (None is skipped) is a directory, lies
    in no existing directory, or is the file that an earlier flag names."""
    seen = {}
    for flag, out in outputs.items():
        if out is None:
            continue
        path = Path(out).resolve()
        if path.is_dir():
            raise ValueError(f"{flag} {out} is a directory")
        if not path.parent.is_dir():
            raise ValueError(f"{flag} {out}: directory {path.parent} does not exist")
        if path in seen:
            raise ValueError(f"{flag} {out} names the same file as {seen[path]}")
        seen[path] = f"{flag} {out}"


def _read_image(path) -> imgio.Image:
    """imgio.read_image, with the path named in a decode error."""
    try:
        return imgio.read_image(path)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _parse_resolution(text: str):
    try:
        w, h = (int(t) for t in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"resolution must look like 1920x1080, got {text!r}") from None
    if w < 1 or h < 1:
        raise ValueError("resolution must be positive")
    return w, h


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_degrade(args) -> int:
    cfg = _read_config(D.DegradationConfig, args.config, "recipe")
    _echo("degrade", {"in": args.in_dir, "out": args.out_dir}, cfg, {"seed": args.seed})
    _refuse_overwrite([args.out_dir], [args.in_dir])
    files = _list_images(args.in_dir, SDR_EXTS)
    if not files:
        print("error: no input images", file=sys.stderr)
        return EXIT_FAIL
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = []
    for idx, path in enumerate(files):
        try:
            img = imgio.read_image(path)
            rng = np.random.default_rng([args.seed, idx])
            degraded, manifest = D.conventional_degrade(img, cfg, rng)
            out_path = out_dir / (path.stem + ".ppm")
            imgio.write_image(out_path, degraded)
            (out_dir / (path.stem + ".manifest.txt")).write_text(
                kvtext.dumps(manifest))
            print(f"degraded {path.name} -> {out_path.name} "
                  f"(sigma={manifest['sigma']:.5f} qf1={manifest['qf1']} "
                  f"scale={manifest['rescale']:.3f})")
        except Exception as e:  # per-file skip-and-report policy
            failures.append((path.name, str(e)))
            print(f"error: {path.name}: {e}", file=sys.stderr)
    if failures:
        print(f"{len(failures)}/{len(files)} files failed", file=sys.stderr)
        return EXIT_PARTIAL if len(failures) < len(files) else EXIT_FAIL
    return EXIT_OK


def cmd_stats(args) -> int:
    _echo("stats", {"in": args.in_dir, "over_code": args.over_code,
                    "under_code": args.under_code})
    files = _list_images(args.in_dir, SDR_EXTS)
    if not files:
        print("error: no input images", file=sys.stderr)
        return EXIT_FAIL
    images = (_read_image(p) for p in files)
    _print_kv(D.dataset_stats(images, over_code=args.over_code,
                              under_code=args.under_code))
    return EXIT_OK


def _hdr_by_stem(directory) -> dict[str, Path]:
    """The .pfm/.hdr images of a directory keyed by stem; a stem with both is
    an error, as neither may silently stand for the other."""
    found = {}
    for path in _list_images(directory, HDR_EXTS):
        if path.stem in found:
            raise ValueError(f"{directory}: stem {path.stem!r} has both "
                             f"{found[path.stem].name} and {path.name}")
        found[path.stem] = path
    return found


def _load_pairs(data_dir):
    """HDR label + SDR input pairs matched by stem: stem.pfm/.hdr with
    stem.ppm, as (pairs, their (label, input) paths)."""
    pairs, paths, unpaired = [], [], []
    labels = _hdr_by_stem(data_dir)
    for hdr_path in labels.values():
        sdr_path = hdr_path.with_suffix(".ppm")
        if sdr_path.exists():
            pairs.append((_read_image(hdr_path), _read_image(sdr_path)))
            paths.append((hdr_path, sdr_path))
        else:
            unpaired.append(hdr_path.name)
    _warn_skipped("labels with no .ppm input", unpaired)
    _warn_skipped("inputs with no .pfm/.hdr label",
                  [p.name for p in _list_images(data_dir, SDR_EXTS) if p.stem not in labels])
    return pairs, paths


def cmd_train(args) -> int:
    model_cfg = _read_config(mod.ModelConfig, args.model_config, "model config")
    train_cfg = TR.TrainConfig(max_iters=args.iters, patch_size=args.patch_size,
                               lr0=args.lr, seed=args.seed,
                               apply_degradation=not args.no_degrade)
    degrade_cfg = _read_config(D.DegradationConfig, args.degrade_config, "recipe")
    _echo("train", {"data": args.data, "out": args.out}, train_cfg, degrade_cfg, model_cfg)
    _check_output_files({"--out": args.out, "--log": args.log})
    _refuse_overwrite([args.out, args.log], _list_images(args.data, HDR_EXTS + SDR_EXTS))
    pairs, paths = _load_pairs(args.data)
    if not pairs:
        print("error: no HDR/SDR pairs found (expected stem.pfm|.hdr + stem.ppm)",
              file=sys.stderr)
        return EXIT_FAIL
    # train_loop checks every pair before its first iteration; a pair it
    # rejects is named by its files
    try:
        net, trace = TR.train_loop(model_cfg, train_cfg, pairs, degrade_cfg,
                                   log_path=args.log)
    except TR.UnusablePair as e:
        hdr_path, sdr_path = paths[e.index]
        raise ValueError(f"{hdr_path}, {sdr_path.name}: {e.reason}") from None
    mod.save_checkpoint(args.out, net, extra={
        "opt.beta1": TR.ADAM_BETA1, "opt.beta2": TR.ADAM_BETA2,
        "opt.eps": TR.ADAM_EPS, "train.seed": train_cfg.seed,
    })
    if trace:
        print(f"final loss {trace[-1]['total']:.6f} after {len(trace)} iterations")
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def cmd_infer(args) -> int:
    if Path(args.out_path).suffix not in HDR_EXTS:
        raise ValueError(f"--out {args.out_path}: infer writes only "
                         f"{' and '.join(HDR_EXTS)} files")
    if args.preview is not None and Path(args.preview).suffix not in SDR_EXTS:
        raise ValueError(f"--preview {args.preview}: the preview is written only "
                         f"as a {' or '.join(SDR_EXTS)} file")
    _check_output_files({"--out": args.out_path, "--preview": args.preview})
    _refuse_overwrite([args.out_path, args.preview], [args.in_path, args.checkpoint])
    net, extra = mod.load_checkpoint(args.checkpoint)
    _echo("infer", {"checkpoint": args.checkpoint, "in": args.in_path,
                    "out": args.out_path}, net.cfg)
    sdr = _read_image(args.in_path)
    hdr = M.reconstruct_hdr(net, sdr)
    imgio.write_image(args.out_path, hdr)
    print(f"wrote {args.out_path}")
    if args.preview:
        codes = M.tonemap_preview(hdr)
        imgio.write_image(args.preview, imgio.Image(codes.astype(np.float32) / 255.0))
        print(f"wrote preview {args.preview}")
    return EXIT_OK


def cmd_eval(args) -> int:
    _echo("eval", {"pred": args.pred, "ref": args.ref,
                   "metric_domain": M.METRIC_DOMAIN})
    pred_p, ref_p = Path(args.pred), Path(args.ref)
    if pred_p.is_dir() != ref_p.is_dir():
        print("error: --pred and --ref must both be files or both directories",
              file=sys.stderr)
        return EXIT_FAIL
    if pred_p.is_dir():
        preds, refs = _hdr_by_stem(pred_p), _hdr_by_stem(ref_p)
        _warn_skipped("stems only in --pred", set(preds) - set(refs))
        _warn_skipped("stems only in --ref", set(refs) - set(preds))
        stems = sorted(set(preds) & set(refs))
        if not stems:
            print("error: no matching prediction/reference stems", file=sys.stderr)
            return EXIT_FAIL
        items = [(preds[s], refs[s]) for s in stems]
    else:
        for p in (pred_p, ref_p):
            if p.suffix not in HDR_EXTS:
                raise ValueError(f"{p}: eval reads only {' and '.join(HDR_EXTS)} files")
        items = [(pred_p, ref_p)]
    ps, ss, failures = [], [], []
    for pp, rp in items:
        try:
            p, s = M.hdr_pair_metrics(imgio.read_image(pp), imgio.read_image(rp))
        except Exception as e:  # per-pair skip-and-report policy, as in degrade
            failures.append(pp.stem)
            print(f"error: {pp.stem}: {e}", file=sys.stderr)
            continue
        ps.append(p)
        ss.append(s)
        print(f"{pp.name}: psnr={p:.4f} ssim={s:.4f}")
    if ps:
        print(f"mean: psnr={np.mean(ps):.4f} ssim={np.mean(ss):.4f}")
    if failures:
        print(f"{len(failures)}/{len(items)} pairs failed", file=sys.stderr)
        return EXIT_PARTIAL if ps else EXIT_FAIL
    return EXIT_OK


def cmd_info(args) -> int:
    cfg = _read_config(mod.ModelConfig, args.model_config, "model config")
    w, h = _parse_resolution(args.resolution)
    _echo("info", {"resolution": f"{w}x{h}"}, cfg)
    rows = mod.layer_breakdown(cfg, h, w)
    name_w = max(len(r[0]) for r in rows)
    for name, params, macs in rows:
        print(f"  {name:<{name_w}} params={params:>9} macs={macs:>15}")
    print(f"params={sum(r[1] for r in rows)}")
    print(f"macs={sum(r[2] for r in rows)}")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _read_config(mod.ModelConfig, args.model_config, "model config")
    w, h = _parse_resolution(args.resolution)
    _echo("bench", {"resolution": f"{w}x{h}", "repeats": args.repeats}, cfg)
    _print_kv(M.bench_forward(cfg, h, w, repeats=args.repeats, seed=args.seed))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hdrlite",
                                 description="single-image HDR reconstruction lab")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degrade", help="apply the conventional degradation chain")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", dest="out_dir", required=True)
    p.add_argument("--config", default=None, help="degradation recipe (key=value)")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("stats", help="dataset exposure statistics")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--over-code", type=int, default=255)
    p.add_argument("--under-code", type=int, default=0)
    p.set_defaults(func=cmd_stats)

    train = TR.TrainConfig()
    p = sub.add_parser("train", help="train on HDR/SDR pairs")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--iters", type=int, default=train.max_iters)
    p.add_argument("--patch-size", type=int, default=train.patch_size)
    p.add_argument("--lr", type=float, default=train.lr0)
    p.add_argument("--seed", type=int, default=train.seed)
    p.add_argument("--no-degrade", action="store_true")
    p.add_argument("--model-config", default=None)
    p.add_argument("--degrade-config", default=None)
    p.add_argument("--log", default=None,
                   help="per-iteration log path (losses, seconds, gradient norms)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="reconstruct HDR from one SDR image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--preview", default=None, help="tonemapped PPM preview")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="PSNR/SSIM of predictions vs references")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("info", help="parameter and MAC counts")
    p.add_argument("--model-config", default=None)
    p.add_argument("--resolution", default="1920x1080")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("bench", help="CPU forward-pass wall time")
    p.add_argument("--model-config", default=None)
    p.add_argument("--resolution", default="1920x1080")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        return args.func(args)
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    finally:
        if args.command in RUN_STATS_COMMANDS:
            _print_kv({"seconds": round(time.perf_counter() - t0, 3),
                       "peak_rss_mb": M.peak_rss_mb(), "threads": M.blas_threads()})


if __name__ == "__main__":
    sys.exit(main())

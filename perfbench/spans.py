"""Span tracer that measures hdrlite layer by layer from outside.

It replaces public functions with timing wrappers by rebinding module and
class attributes, in every hdrlite module that holds the name (so
`hdrlite.training.conventional_degrade` is wrapped along with
`hdrlite.degrade.conventional_degrade`).  Nothing under src/ changes.

A span's self time is its duration minus the time covered by its child
spans.  Backward closures of the nodes that wrapped tensor ops return are
wrapped too, and their time is also charged to the Network.conv/pconv row
that created the node.  Spans are aggregated by name as they close:
(calls, total seconds, self seconds).
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# public hdrlite.tensor functions that are not elementwise or shape ops
NOT_ELEMENTWISE = {"conv2d", "partial_conv", "backward", "trace_ops",
                   "gradient_check", "mask_window_sum"}
CONV_KINDS = ("conv3x3", "conv3x3_grouped", "conv1x1")


def conv_kind(weight_shape, groups: int) -> str:
    k = weight_shape[2]
    if k == 1:
        return "conv1x1"
    if k == 3:
        return "conv3x3_grouped" if groups > 1 else "conv3x3"
    return f"conv{k}x{k}"


class Tracer:
    def __init__(self):
        self.stack = []  # [name, child seconds] of each open span
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total s, self s
        self.counts = defaultdict(float)
        self.covered = 0.0  # seconds inside top-level spans
        self.cur_row = None  # the Network.conv/pconv row being run
        self.patches = []  # (owner, attribute, original, wrapper)
        self.items = 0
        self.item_wall = 0.0
        self.unattributed = 0.0
        self._ops_cm = self._ops = None  # trace_ops() of the open item
        self._covered0 = 0.0

    # -- spans ---------------------------------------------------------------

    def run(self, name, fn, *args, also=None, **kw):
        """Call fn inside a span; `also` names a counter that gets its duration."""
        start = perf()
        self.stack.append([name, 0.0])
        try:
            return fn(*args, **kw)
        finally:
            dur = perf() - start
            child = self.stack.pop()[1]
            st = self.stats[name]
            st[0] += 1
            st[1] += dur
            st[2] += dur - child
            if also:
                self.counts[also] += dur
            if self.stack:
                self.stack[-1][1] += dur
            else:
                self.covered += dur

    def _wrap_backward(self, out, name):
        bwd = getattr(out, "_backward", None)
        if bwd is None or getattr(bwd, "traced", False):
            return
        also = f"model.{self.cur_row}.bwd" if self.cur_row else None

        def traced(g):
            return self.run(name, bwd, g, also=also)

        traced.traced = True
        out._backward = traced

    # -- wrapper factories -----------------------------------------------------

    def span(self, name):
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kw):
                return self.run(name, fn, *args, **kw)
            return wrapper
        return factory

    def op(self, name, tensor_cls):
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kw):
                out = self.run(name, fn, *args, **kw)
                if isinstance(out, tensor_cls):
                    self._wrap_backward(out, name + ".bwd")
                return out
            return wrapper
        return factory

    def conv2d(self, fn):
        @functools.wraps(fn)
        def wrapper(x, weight, *args, **kw):
            groups = kw.get("groups", 1)
            kind = conv_kind(weight.shape, groups)
            out = self.run("tensor." + kind, fn, x, weight, *args, **kw)
            n, oc, oh, ow = out.shape
            k = weight.shape[2]
            self.counts[kind + ".macs"] += n * oh * ow * oc * (x.shape[1] // groups) * k * k
            self.counts[kind + ".bytes"] += x.data.nbytes + weight.data.nbytes + out.data.nbytes
            self._wrap_backward(out, "tensor." + kind + ".bwd")
            return out
        return wrapper

    def row(self, fn):
        @functools.wraps(fn)
        def wrapper(net, name, *args, **kw):
            prev, self.cur_row = self.cur_row, name
            try:
                return self.run(f"model.{name}", fn, net, name, *args, **kw)
            finally:
                self.cur_row = prev
        return wrapper

    def reader(self, name):
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(data, *args, **kw):
                self.counts["imgio.bytes_read"] += len(data)
                return self.run(name, fn, data, *args, **kw)
            return wrapper
        return factory

    def writer(self, name):
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kw):
                out = self.run(name, fn, *args, **kw)
                self.counts["imgio.bytes_written"] += len(out)
                return out
            return wrapper
        return factory

    # -- patching --------------------------------------------------------------

    def patch(self, module, attr, factory):
        """Wrap module.attr in every loaded hdrlite module that binds it."""
        orig = vars(module)[attr]
        wrapped = factory(orig)
        for m in list(sys.modules.values()):
            if getattr(m, "__name__", "").startswith("hdrlite") and vars(m).get(attr) is orig:
                self.patches.append((m, attr, orig, wrapped))

    def patch_method(self, cls, attr, factory):
        orig = vars(cls)[attr]
        self.patches.append((cls, attr, orig, factory(orig)))

    def install(self):
        for owner, attr, _, wrapped in self.patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig, _ in self.patches:
            setattr(owner, attr, orig)

    # -- items -----------------------------------------------------------------

    def begin_item(self, trace_ops):
        self.install()
        self._ops_cm = trace_ops()
        self._ops = self._ops_cm.__enter__()
        self._covered0 = self.covered

    def end_item(self, wall, enclosing=None, bookkeeping=0.0):
        """Close a traced item of `wall` seconds.  Time outside top-level
        spans is the self time of `enclosing` (a span open around the whole
        item) less the benchmark's own `bookkeeping`; without an enclosing
        span it is unattributed."""
        self.counts["tensor.nodes"] += len(self._ops)
        self._ops_cm.__exit__(None, None, None)
        self.uninstall()
        outside = wall - (self.covered - self._covered0)
        if enclosing:
            self.stats[enclosing][2] += outside - bookkeeping
            self.unattributed += bookkeeping
        else:
            self.unattributed += outside
        self.items += 1
        self.item_wall += wall

    def dump(self) -> dict:
        return {"stats": dict(self.stats), "counts": dict(self.counts),
                "items": self.items, "item_wall_s": self.item_wall,
                "unattributed_s": self.unattributed}


def build(hdrlite_modules) -> Tracer:
    """A Tracer with every layer boundary of the benchmark patched in."""
    T, mod, TR, D, io, M, cli = hdrlite_modules
    tr = Tracer()
    tr.patch(T, "conv2d", tr.conv2d)
    tr.patch(T, "partial_conv", tr.span("tensor.partial_conv"))
    tr.patch(T, "backward", tr.span("tensor.backward"))
    for name, fn in list(vars(T).items()):
        if (inspect.isfunction(fn) and fn.__module__ == T.__name__
                and not name.startswith("_") and name not in NOT_ELEMENTWISE):
            tr.patch(T, name, tr.op("tensor.elementwise", T.Tensor))
    tr.patch_method(mod.Network, "conv", tr.row)
    tr.patch_method(mod.Network, "pconv", tr.row)
    tr.patch_method(mod.Network, "local_forward", tr.span("model.local_forward"))
    tr.patch_method(mod.Network, "global_forward", tr.span("model.global_forward"))
    tr.patch(mod, "load_checkpoint", tr.span("model.load_checkpoint"))
    # training.adam_step is timed by the item delimiter of the train workload
    for name in ("loss_terms", "preprocess_gamma", "train_loop"):
        tr.patch(TR, name, tr.span(f"training.{name}"))
    for name in ("conventional_degrade", "jpeg_sim"):
        tr.patch(D, name, tr.span(f"degrade.{name}"))
    tr.patch(io, "read_image", tr.span("imgio.file"))
    tr.patch(io, "write_image", tr.span("imgio.file"))
    for fmt in ("rgbe", "ppm", "pfm"):
        span = "imgio.pfm" if fmt == "pfm" else None
        tr.patch(io, f"read_{fmt}", tr.reader(span or f"imgio.read_{fmt}"))
        tr.patch(io, f"write_{fmt}", tr.writer(span or f"imgio.write_{fmt}"))
    for name in ("ssim", "psnr", "tonemap_preview", "reconstruct_hdr", "hdr_pair_metrics"):
        tr.patch(M, name, tr.span(f"metrics.{name}"))
    tr.patch(cli, "main", tr.span("cli.main"))
    return tr


# ---------------------------------------------------------------------------
# Per-layer metrics from a dumped trace
# ---------------------------------------------------------------------------

def per_layer(dump: dict, rows, untraced_ms, traced_ms) -> dict:
    """Per-item means named <module>.<thing>, from Tracer.dump()."""
    n = max(dump["items"], 1)
    stats = defaultdict(lambda: [0, 0.0, 0.0], dump["stats"])
    counts = defaultdict(float, dump["counts"])

    def ms(name, col=1):
        return stats[name][col] * 1e3 / n

    def gmacs(macs, fwd_ms):
        return macs / fwd_ms / 1e6 if fwd_ms > 0 else 0.0

    out = {}
    tot = dict(fwd=0.0, bwd=0.0, macs=0.0, bytes=0.0, calls=0)
    for kind in CONV_KINDS:
        fwd, bwd = ms("tensor." + kind), ms("tensor." + kind + ".bwd")
        macs = counts[kind + ".macs"] / n
        out[f"tensor.{kind}.fwd_ms"] = fwd
        out[f"tensor.{kind}.bwd_ms"] = bwd
        out[f"tensor.{kind}.gmac_per_s"] = gmacs(macs, fwd)
        tot["fwd"] += fwd
        tot["bwd"] += bwd
        tot["macs"] += macs
        tot["bytes"] += counts[kind + ".bytes"] / n
        tot["calls"] += stats["tensor." + kind][0] / n
    out["tensor.conv2d.fwd_ms"] = tot["fwd"]
    out["tensor.conv2d.bwd_ms"] = tot["bwd"]
    out["tensor.conv2d.gmac_per_s"] = gmacs(tot["macs"], tot["fwd"])
    out["tensor.conv2d.macs"] = tot["macs"]
    out["tensor.conv2d.bytes"] = tot["bytes"]
    out["tensor.conv2d.calls"] = tot["calls"]
    out["tensor.elementwise.fwd_ms"] = ms("tensor.elementwise")
    out["tensor.elementwise.bwd_ms"] = ms("tensor.elementwise.bwd")
    out["tensor.elementwise.calls"] = stats["tensor.elementwise"][0] / n
    out["tensor.partial_conv.self_ms"] = ms("tensor.partial_conv", 2)
    out["tensor.backward.self_ms"] = ms("tensor.backward", 2)
    out["tensor.nodes"] = counts["tensor.nodes"] / n
    for row in rows:
        out[f"model.{row}.fwd_ms"] = ms(f"model.{row}")
        out[f"model.{row}.bwd_ms"] = counts[f"model.{row}.bwd"] * 1e3 / n
    out["model.local_forward.self_ms"] = ms("model.local_forward", 2)
    out["model.global_forward.self_ms"] = ms("model.global_forward", 2)
    out["model.load_checkpoint_ms"] = ms("model.load_checkpoint")
    out["training.adam_step_ms"] = ms("training.adam_step")
    out["training.loss_terms_ms"] = ms("training.loss_terms")
    out["training.preprocess_gamma_ms"] = ms("training.preprocess_gamma")
    out["training.self_ms"] = ms("training.train_loop", 2)
    out["degrade.conventional_degrade.self_ms"] = ms("degrade.conventional_degrade", 2)
    out["degrade.jpeg_sim_ms"] = ms("degrade.jpeg_sim")
    for name in ("write_rgbe", "read_rgbe", "read_ppm", "write_ppm", "pfm"):
        out[f"imgio.{name}_ms"] = ms(f"imgio.{name}")
    out["imgio.file.self_ms"] = ms("imgio.file", 2)
    out["imgio.bytes_read"] = counts["imgio.bytes_read"] / n
    out["imgio.bytes_written"] = counts["imgio.bytes_written"] / n
    for name in ("ssim", "psnr", "tonemap_preview"):
        out[f"metrics.{name}_ms"] = ms(f"metrics.{name}")
    out["metrics.reconstruct_hdr.self_ms"] = ms("metrics.reconstruct_hdr", 2)
    out["metrics.hdr_pair_metrics.self_ms"] = ms("metrics.hdr_pair_metrics", 2)
    out["cli.self_ms"] = ms("cli.main", 2)
    self_total = sum(st[2] for st in stats.values())
    wall = dump["item_wall_s"]
    out["trace.unattributed_ms"] = dump["unattributed_s"] * 1e3 / n
    out["trace.coverage_pct"] = 100.0 * self_total / wall if wall else 0.0
    out["trace.overhead_pct"] = (100.0 * (traced_ms / untraced_ms - 1.0)
                                 if untraced_ms and traced_ms else 0.0)
    return out

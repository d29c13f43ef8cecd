import numpy as np
import pytest

from hdrlite import tensor as T
from hdrlite.imgio import Image, LINEAR_HDR, NONLINEAR_SDR
from hdrlite.model import ModelConfig
from hdrlite.tensor import Tensor
from hdrlite.training import (
    ADAM_BETA1, ADAM_BETA2, GRAD_GROUPS, AdamState, TrainConfig, TrainingDiverged,
    adam_step, grad_norms, kaiming_init, loss_terms, lr_schedule, postprocess_gamma,
    preprocess_gamma, train_loop,
)
from tests.conftest import make_pairs, traced

TINY = ModelConfig(dense_layers=2, dense_growth=4, unet_base_channels=4,
                   global_mlp_channels=4, groups=2)


def backward_grad_dtypes(dtype) -> set:
    net = kaiming_init(TINY, np.random.default_rng(3))
    for t in net.weights.values():
        t.data = t.data.astype(dtype)
    rng = np.random.default_rng(4)
    x = Tensor(rng.random((1, 3, 16, 16)).astype(dtype), requires_grad=True)
    y = Tensor(rng.random((1, 3, 16, 16)).astype(dtype))
    total, _, _ = loss_terms(net.forward(x), y)
    T.backward(total)
    return {t.grad.dtype for t in [x, *net.weights.values()]}


def test_backward_keeps_the_graph_dtype():
    # float32 training must not drift to float64 gradients (and Adam state);
    # the float64 check mode must stay float64
    assert backward_grad_dtypes(np.float32) == {np.dtype(np.float32)}
    assert backward_grad_dtypes(np.float64) == {np.dtype(np.float64)}


# ---------------------------------------------------------------------------
# Gamma pre/post-processing
# ---------------------------------------------------------------------------

def test_preprocess_known_values():
    img = Image(np.array([[[1.0, 1.0, 1.0], [4.0, 4.0, 4.0]]], dtype=np.float32),
                LINEAR_HDR)
    out, max_y = preprocess_gamma(img)
    assert max_y == 4.0
    assert out.data[0, 0, 0] == pytest.approx(0.535887, abs=1e-6)  # 0.25^0.45
    assert out.data[0, 1, 0] == pytest.approx(1.0)
    assert out.domain == NONLINEAR_SDR


def test_preprocess_postprocess_roundtrip_wide_range():
    # six orders of magnitude
    vals = np.logspace(-3, 3, 60).astype(np.float32)
    img = Image(np.repeat(vals, 3).reshape(10, 6, 3), LINEAR_HDR)
    lifted, max_y = preprocess_gamma(img)
    back = postprocess_gamma(lifted.data) * max_y
    np.testing.assert_allclose(back, img.data, rtol=1e-5)


def test_preprocess_rejects_degenerate():
    with pytest.raises(ValueError):
        preprocess_gamma(Image(np.zeros((2, 2, 3), dtype=np.float32), LINEAR_HDR))
    with pytest.raises(ValueError):
        preprocess_gamma(Image(np.full((2, 2, 3), -1.0, dtype=np.float32),
                               LINEAR_HDR))


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def test_loss_constant_offset_has_no_gradient_term():
    pred = Tensor(np.full((1, 3, 4, 4), 0.7, dtype=np.float32))
    target = Tensor(np.full((1, 3, 4, 4), 0.2, dtype=np.float32))
    total, l1, lg = loss_terms(pred, target)
    assert l1.item() == pytest.approx(0.5, abs=1e-6)
    assert lg.item() == pytest.approx(0.0, abs=1e-7)
    assert total.item() == pytest.approx(0.5, abs=1e-6)


def test_loss_gradient_term_sees_structure():
    # identical means, different texture: l1 equal, lg differs
    ramp = np.tile(np.linspace(0, 1, 8, dtype=np.float32), (8, 1))
    flat = np.full((8, 8), 0.5, dtype=np.float32)
    target = Tensor(np.zeros((1, 1, 8, 8), dtype=np.float32))
    _, l1_r, lg_r = loss_terms(Tensor(ramp[None, None]), target)
    _, l1_f, lg_f = loss_terms(Tensor(flat[None, None]), target)
    assert l1_r.item() == pytest.approx(l1_f.item(), abs=1e-6)
    assert lg_r.item() > lg_f.item() == pytest.approx(0.0, abs=1e-7)


def test_loss_weight_composition():
    rng = np.random.default_rng(0)
    pred = Tensor(rng.random((1, 3, 6, 6)).astype(np.float32))
    target = Tensor(rng.random((1, 3, 6, 6)).astype(np.float32))
    total, l1, lg = loss_terms(pred, target)
    assert total.item() == pytest.approx(l1.item() + 0.1 * lg.item(), rel=1e-6)
    with pytest.raises(ValueError):
        loss_terms(pred, Tensor(np.zeros((1, 3, 5, 5), dtype=np.float32)))


def test_loss_gradcheck():
    rng = np.random.default_rng(1)
    pred = Tensor(rng.random((1, 2, 5, 5)), requires_grad=True)
    target = Tensor(rng.random((1, 2, 5, 5)))

    def f(p):
        total, _, _ = loss_terms(p, target)
        return total
    assert T.gradient_check(f, [pred]) < 1e-4


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def test_kaiming_variance_and_zero_bias():
    cfg = ModelConfig(unet_base_channels=64)
    net = kaiming_init(cfg, np.random.default_rng(2))
    w = net.weights["local.enc0.rb0.conv1.weight"].data  # 64 -> 64, 3x3, dense
    assert w.shape == (64, 64, 3, 3)
    assert w.var() == pytest.approx(2.0 / 576.0, rel=0.15)
    assert abs(w.mean()) < 0.002
    for name, t in net.weights.items():
        if name.endswith(".bias"):
            np.testing.assert_array_equal(t.data, 0.0)
        assert t.requires_grad


def test_kaiming_grouped_fan_in():
    # grouped conv sees in/groups inputs, so its variance is larger
    cfg = ModelConfig(unet_base_channels=64, groups=4)
    net = kaiming_init(cfg, np.random.default_rng(3))
    w = net.weights["local.enc0.rb0.conv2.weight"].data  # grouped second conv
    assert w.shape == (64, 16, 3, 3)
    assert w.var() == pytest.approx(2.0 / 144.0, rel=0.15)


# ---------------------------------------------------------------------------
# Optimizer and schedule
# ---------------------------------------------------------------------------

def test_adam_first_step_is_signed_lr():
    p = Tensor(np.zeros((1, 1, 1, 2), dtype=np.float32), requires_grad=True)
    p.grad = np.array([[[[3.0, -0.5]]]], dtype=np.float32)
    state = AdamState()
    adam_step({"p": p}, state, lr=0.1)
    # bias correction makes the first update lr * sign(grad) (up to eps)
    np.testing.assert_allclose(p.data, [[[[-0.1, 0.1]]]], atol=1e-6)
    assert state.step == 1


def test_adam_zero_grad_keeps_params():
    p = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32), requires_grad=True)
    state = AdamState()
    adam_step({"p": p}, state, lr=0.1)  # grad is None -> skipped
    np.testing.assert_array_equal(p.data, 1.0)
    assert state.step == 1


def test_adam_keeps_a_param_without_grad_after_a_real_step():
    # the momentum of the first step must not move the parameter on the second
    p = Tensor(np.ones((1, 1, 1, 2), dtype=np.float32), requires_grad=True)
    state = AdamState()
    p.grad = np.array([[[[3.0, -0.5]]]], dtype=np.float32)
    adam_step({"p": p}, state, lr=0.1)
    after_first = p.data.copy()
    p.grad = None
    adam_step({"p": p}, state, lr=0.1)
    np.testing.assert_array_equal(p.data, after_first)
    assert state.step == 2


def test_adam_determinism():
    def run():
        p = Tensor(np.array([[[[1.0]]]], dtype=np.float32), requires_grad=True)
        state = AdamState()
        for i in range(5):
            p.grad = np.array([[[[0.1 * (i + 1)]]]], dtype=np.float32)
            adam_step({"p": p}, state, lr=0.01)
        return p.data.copy()
    np.testing.assert_array_equal(run(), run())


def test_adam_rejects_nonfinite_gradient():
    p = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32), requires_grad=True)
    p.grad = np.array([[[[np.nan]]]], dtype=np.float32)
    with pytest.raises(TrainingDiverged):
        adam_step({"p": p}, AdamState(), lr=0.1)


def test_lr_schedule_halving():
    cfg = TrainConfig()
    assert lr_schedule(0, cfg) == pytest.approx(2e-4)
    assert lr_schedule(249_999, cfg) == pytest.approx(2e-4)
    assert lr_schedule(250_000, cfg) == pytest.approx(1e-4)
    assert lr_schedule(500_000, cfg) == pytest.approx(5e-5)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr0=0.0)
    for lr0 in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr0"):
            TrainConfig(lr0=lr0)
    with pytest.raises(ValueError):
        TrainConfig(patch_size=0)
    for size in (1, 2):  # the network needs at least 3x3
        with pytest.raises(ValueError, match="patch_size must be >= 3"):
            TrainConfig(patch_size=size)
    TrainConfig(patch_size=3)
    with pytest.raises(ValueError, match="max_iters"):
        TrainConfig(max_iters=-1)
    TrainConfig(max_iters=0)


@pytest.mark.parametrize("lr0", [True, "0.1", None])
def test_train_config_lr0_must_be_a_real_number(lr0):
    with pytest.raises(ValueError, match="lr0 must be a real number"):
        TrainConfig(lr0=lr0)


def test_train_config_lr0_accepts_numpy_scalars():
    assert TrainConfig(lr0=np.float32(0.5)).lr0 == 0.5
    assert TrainConfig(lr0=np.int64(1)).lr0 == 1


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def test_train_loop_zero_iters_returns_initial_net():
    pairs = make_pairs(2, 32)
    net, trace = train_loop(TINY, TrainConfig(max_iters=0, patch_size=16),
                            pairs)
    assert trace == []
    assert set(net.weights)  # initialized weights present


def test_train_loop_trace_and_log(tmp_path):
    pairs = make_pairs(2, 32)
    log = tmp_path / "loss.log"
    tcfg = TrainConfig(max_iters=3, patch_size=16, seed=1,
                       apply_degradation=False)
    net, trace = train_loop(TINY, tcfg, pairs, log_path=log)
    assert len(trace) == 3
    for rec in trace:
        assert rec["total"] == pytest.approx(rec["l1"] + 0.1 * rec["lg"], rel=1e-5)
        assert rec["lr"] == pytest.approx(2e-4)
    lines = log.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("0, 0.0002, ")


def test_train_log_line_has_seconds_and_group_grad_norms(tmp_path):
    # iter, lr, l1, lg, total keep their format; then the iteration's seconds
    # and the L2 gradient norms of the local.dense*, other local.* and
    # global.* parameters, which together make up the whole gradient
    log = tmp_path / "loss.log"
    net, trace = train_loop(TINY, TrainConfig(max_iters=1, patch_size=16, seed=2),
                            make_pairs(2, 32), log_path=log)
    cols = log.read_text().splitlines()[0].split(", ")
    rec = trace[0]
    assert cols[:5] == ["0", "0.0002", f"{rec['l1']:.6f}", f"{rec['lg']:.6f}",
                        f"{rec['total']:.6f}"]
    assert len(cols) == 6 + len(GRAD_GROUPS)
    assert 0 < float(cols[5]) < 60
    norms = [float(c) for c in cols[6:]]
    assert all(v > 0 for v in norms)
    np.testing.assert_allclose(norms, grad_norms(net.weights), rtol=1e-5)
    total = sum(float(np.sum(p.grad.astype(np.float64) ** 2)) for p in net.weights.values())
    assert sum(v * v for v in norms) == pytest.approx(total, rel=1e-4)


def test_train_loop_holds_one_iterations_tape():
    # each iteration's tape (activations, backward closures, node gradients)
    # goes once its record is built, so a second or third iteration peaks as
    # the first does; holding one tape through the next forward and
    # backward read 1.48x here
    pairs = make_pairs(2, 64)
    peaks = [traced(train_loop, ModelConfig(), TrainConfig(max_iters=n, patch_size=64),
                    pairs)[2] for n in (1, 3)]
    assert peaks[1] <= 1.15 * peaks[0], peaks


def test_train_loop_deterministic_per_seed():
    pairs = make_pairs(2, 32)
    tcfg = TrainConfig(max_iters=2, patch_size=16, seed=5)
    _, t1 = train_loop(TINY, tcfg, pairs)
    _, t2 = train_loop(TINY, tcfg, pairs)
    assert t1 == t2
    _, t3 = train_loop(TINY, TrainConfig(max_iters=2, patch_size=16, seed=6),
                       pairs)
    assert t3 != t1


def test_train_loop_calls_schedule_and_adam_through_the_module(monkeypatch):
    # a benchmark rebinds training.lr_schedule and training.adam_step to
    # delimit iterations and to stop an open-ended run: train_loop must look
    # both up on the module once per iteration
    import hdrlite.training as TR

    class Stop(Exception):
        pass

    class Runaway(Exception):  # the schedule's stop was not seen
        pass

    calls = {"lr": 0, "adam": 0}
    orig_lr, orig_adam = TR.lr_schedule, TR.adam_step

    def lr_schedule(*args):
        calls["lr"] += 1
        if calls["lr"] == 3:
            raise Stop
        return orig_lr(*args)

    def adam_step(*args):
        calls["adam"] += 1
        if calls["adam"] > 2:
            raise Runaway
        return orig_adam(*args)

    monkeypatch.setattr(TR, "lr_schedule", lr_schedule)
    monkeypatch.setattr(TR, "adam_step", adam_step)
    with pytest.raises(Stop):
        train_loop(TINY, TrainConfig(max_iters=10 ** 9, patch_size=16), make_pairs(2, 32))
    assert calls == {"lr": 3, "adam": 2}


def test_train_loop_trains_an_all_zero_label_patch_toward_zero(monkeypatch):
    # a black (letterboxed) label patch has no maximum to normalize by: its
    # target is all zero, and training goes on
    import hdrlite.training as TR
    hdr, sdr = make_pairs(1, 32)[0]
    pairs = [(hdr, sdr), (Image(np.zeros_like(hdr.data), LINEAR_HDR), sdr)]
    targets = []

    def spy(pred, target):
        targets.append(target.data.copy())
        return loss_terms(pred, target)

    monkeypatch.setattr(TR, "loss_terms", spy)
    _, trace = train_loop(TINY, TrainConfig(max_iters=6, patch_size=16, seed=3), pairs)
    assert len(trace) == 6 and all(np.isfinite(r["total"]) for r in trace)
    zero = [not t.any() for t in targets]
    assert any(zero) and not all(zero)


def test_train_loop_rejects_empty_dataset():
    with pytest.raises(ValueError):
        train_loop(TINY, TrainConfig(max_iters=1), [])


def test_end_to_end_loss_gradient_check():
    # float64 pass through the whole network and loss
    net = kaiming_init(TINY, np.random.default_rng(7))
    for t in net.weights.values():
        t.data = t.data.astype(np.float64)
    rng = np.random.default_rng(8)
    x = Tensor(rng.random((1, 3, 8, 8)))
    y = Tensor(rng.random((1, 3, 8, 8)))
    w = net.weights["local.fuse.weight"]

    def f(w):
        total, _, _ = loss_terms(net.forward(x), y)
        return total
    assert T.gradient_check(f, [w]) < 1e-3


def negative_label_pair():
    """A 48x48 pair whose label has one negative pixel, in the bottom-right
    corner, outside most 32x32 patches."""
    hdr, sdr = make_pairs(1, 48)[0]
    data = hdr.data.copy()
    data[47, 47] = -0.5
    return Image(data, LINEAR_HDR), sdr


@pytest.mark.parametrize("second, message", [
    (make_pairs(1, 20)[0], "smaller than patch size 32"),
    ((make_pairs(1, 32)[0][0], make_pairs(1, 48)[0][1]), "dimensions differ"),
    (negative_label_pair(), "label has a negative pixel"),
])
def test_train_loop_checks_every_pair_before_the_first_iteration(tmp_path, second, message):
    log = tmp_path / "loss.log"
    with pytest.raises(ValueError, match=message):
        train_loop(TINY, TrainConfig(max_iters=50, patch_size=32),
                   [make_pairs(1, 48)[0], second], log_path=log)
    assert not log.exists()
    # a run of no iterations samples no patch
    _, trace = train_loop(TINY, TrainConfig(max_iters=0, patch_size=32), [second])
    assert trace == []

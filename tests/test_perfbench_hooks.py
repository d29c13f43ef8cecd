"""perfbench/spans.py times hdrlite by rebinding module and class attributes
by name; these tests fail when a name it patches is gone or a traced forward
pass no longer records the spans it reports."""
import numpy as np

from hdrlite import cli, degrade, imgio, metrics, model, training
from hdrlite import tensor as T
from hdrlite.tensor import Tensor
from perfbench import spans

TINY = model.ModelConfig(dense_layers=2, dense_growth=4, unet_base_channels=4,
                         global_mlp_channels=4, groups=2)


def test_tracer_records_a_forward_pass_and_restores_every_hook():
    conv = vars(model.Network)["conv"]
    tracer = spans.build((T, model, training, degrade, imgio, metrics, cli))
    assert tracer.patches
    rng = np.random.default_rng(0)
    net = training.kaiming_init(TINY, rng)
    x = Tensor(rng.random((1, 3, 8, 8)).astype(np.float32))
    tracer.begin_item(T.trace_ops)
    try:
        assert vars(model.Network)["conv"] is not conv
        net.forward(x)
    finally:
        tracer.end_item(1.0)
    stats = tracer.dump()["stats"]
    assert "model.local.head" in stats and "tensor.conv3x3" in stats
    assert vars(model.Network)["conv"] is conv
    assert all(vars(owner)[attr] is orig for owner, attr, orig, _ in tracer.patches)

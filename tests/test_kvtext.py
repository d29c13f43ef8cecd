import dataclasses
import re
import typing

import numpy as np
import pytest

from hdrlite import training as TR
from hdrlite.cli import EXIT_FAIL, main
from hdrlite.degrade import DegradationConfig
from hdrlite.kvtext import dumps, field_types, items, loads
from hdrlite.model import ModelConfig, load_checkpoint, save_checkpoint

# The header block that checkpoints written by `hdrlite train` carry: the
# default ModelConfig followed by the optimizer and seed extras.
PINNED_CHECKPOINT_HEADER = (
    "dense_layers=5\ndense_growth=16\nunet_base_channels=20\n"
    "groups=4\nglobal_mlp_channels=48\nuse_partial_conv=True\n"
    "opt.beta1=0.9\nopt.beta2=0.999\nopt.eps=1e-08\n"
    "train.seed=0\n"
)
# The same header as written when the fixed architecture values were still
# ModelConfig fields; such checkpoints must keep loading.
RETIRED_FIELDS_CHECKPOINT_HEADER = (
    "dense_layers=5\ndense_growth=16\nunet_levels=2\nunet_base_channels=20\n"
    "unet_rb_per_level=1\ngroups=4\nglobal_mlp_channels=48\nglobal_mlp_layers=4\n"
    "mask_threshold=0.9\nleaky_slope=0.2\nuse_partial_conv=True\n"
    "modulation_after_layer=2\nopt.beta1=0.9\nopt.beta2=0.999\nopt.eps=1e-08\n"
    "train.seed=0\n"
)
TRAIN_EXTRAS = {"opt.beta1": "0.9", "opt.beta2": "0.999", "opt.eps": "1e-08",
                "train.seed": "0"}


def test_model_config_roundtrip_every_field():
    cfg = ModelConfig(dense_layers=3, dense_growth=8, unet_base_channels=12, groups=3,
                      global_mlp_channels=24, use_partial_conv=False)
    assert all(getattr(cfg, k) != v for k, v in vars(ModelConfig()).items())
    back, extra = loads(ModelConfig, dumps(cfg))
    assert back == cfg and extra == {}


def test_degradation_config_roundtrip_is_exact():
    cst = np.array([[1.0 / 3.0, 0.1, -0.2], [0.05, 0.9, 0.05], [-0.01, 0.2, 1.1]])
    cfg = DegradationConfig(noise_sigma_range=(0.002, 0.004),
                            jpeg_qf1_range=(50, 90), jpeg_qf2=60,
                            rescale_range=(0.8, 0.9), cst_matrix=cst)
    defaults = vars(DegradationConfig())
    assert all(not np.array_equal(getattr(cfg, k), v) for k, v in defaults.items())
    back, extra = loads(DegradationConfig, dumps(cfg))
    assert extra == {}
    for k, v in vars(cfg).items():
        np.testing.assert_array_equal(getattr(back, k), v, err_msg=k)
    assert back.jpeg_qf1_range == (50, 90) and isinstance(back.jpeg_qf1_range[0], int)


def test_dumps_writes_one_line_per_field_in_order():
    text = dumps(DegradationConfig())
    assert [line.split("=", 1)[0] for line in text.splitlines()] == list(vars(DegradationConfig()))
    assert "noise_sigma_range=0.001,0.003\n" in text
    assert "cst_matrix=1.6605,-0.5876,-0.0728,-0.1246,1.1329,-0.0083,-0.0182,-0.1006,1.1187\n" in text
    assert dict(items({"a": (1, 2), "b": True})) == {"a": "1,2", "b": "True"}


def test_manifest_text_is_pinned():
    manifest = {"sigma": 0.0021, "qf1": 70, "qf2": 75, "rescale": 0.85}
    assert dumps(manifest) == "sigma=0.0021\nqf1=70\nqf2=75\nrescale=0.85\n"


def test_checkpoint_header_is_pinned(tmp_path):
    net = TR.kaiming_init(ModelConfig(), np.random.default_rng(0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net, extra={"opt.beta1": TR.ADAM_BETA1, "opt.beta2": TR.ADAM_BETA2,
                                      "opt.eps": TR.ADAM_EPS, "train.seed": 0})
    raw = path.read_bytes()
    n = int.from_bytes(raw[6:10], "little")
    assert raw[10:10 + n].decode("utf-8") == PINNED_CHECKPOINT_HEADER
    back, extra = load_checkpoint(path)
    assert back.cfg == ModelConfig()
    assert extra == TRAIN_EXTRAS


def checkpoint_with_header(tmp_path, header: str):
    """A default-config checkpoint whose config block is header."""
    net = TR.kaiming_init(ModelConfig(), np.random.default_rng(0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net)
    raw = path.read_bytes()
    n = int.from_bytes(raw[6:10], "little")
    body = header.encode("utf-8")
    path.write_bytes(raw[:6] + len(body).to_bytes(4, "little") + body + raw[10 + n:])
    return net, path


def test_checkpoint_with_retired_fields_loads(tmp_path):
    net, path = checkpoint_with_header(tmp_path, RETIRED_FIELDS_CHECKPOINT_HEADER)
    back, extra = load_checkpoint(path)
    assert back.cfg == ModelConfig()
    assert extra == TRAIN_EXTRAS
    for name, t in net.weights.items():
        np.testing.assert_array_equal(back.weights[name].data, t.data)


@pytest.mark.parametrize("line", ["leaky_slope=0.1", "unet_levels=3", "mask_threshold=high"])
def test_checkpoint_rejects_retired_field_at_another_value(tmp_path, line):
    key = line.split("=", 1)[0]
    old = next(l for l in RETIRED_FIELDS_CHECKPOINT_HEADER.splitlines() if l.startswith(key))
    _, path = checkpoint_with_header(tmp_path, RETIRED_FIELDS_CHECKPOINT_HEADER.replace(old, line))
    with pytest.raises(ValueError, match=f"^{key}="):
        load_checkpoint(path)


def test_train_rejects_retired_model_config_key(tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("unet_levels=3\n")
    rc = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.ckpt"),
               "--iters", "1", "--model-config", str(cfg)])
    assert rc == EXIT_FAIL
    assert "unet_levels" in capsys.readouterr().err


def test_loads_skips_comments_and_returns_unknown_keys():
    cfg, extra = loads(ModelConfig, "# note\n\n  groups = 2 \nunet_base_channels=8\nfoo=a=b\n")
    assert (cfg.groups, cfg.unet_base_channels) == (2, 8)
    assert extra == {"foo": "a=b"}
    with pytest.raises(ValueError, match="malformed"):
        loads(ModelConfig, "groups\n")
    with pytest.raises(ValueError, match="unet_base_channels must be divisible"):
        loads(ModelConfig, "groups=3\n")


@pytest.mark.parametrize("cls,text,key", [
    (DegradationConfig, "jpeg_qf2=75\njpeg_qf2=10\n", "jpeg_qf2"),
    (ModelConfig, "groups=2\n# again\ngroups = 2\n", "groups"),
    (ModelConfig, "opt.eps=1e-08\nopt.eps=1e-08\n", "opt.eps"),  # a key with no field
])
def test_loads_rejects_a_repeated_key(cls, text, key):
    # the last value must not silently win over the first
    with pytest.raises(ValueError, match=f"duplicate key '{key}'"):
        loads(cls, text)


@pytest.mark.parametrize("cls,line", [
    (DegradationConfig, "jpeg_qf1_range=60.7,80.9"),
    (DegradationConfig, "jpeg_qf2=abc"),
    (DegradationConfig, "noise_sigma_range=0.1"),
    (DegradationConfig, "rescale_range=0.7,0.8,0.9"),
    (DegradationConfig, "cst_matrix=1,0,0,0,1,0,0,0"),
    (ModelConfig, "groups=2.0"),
    (DegradationConfig, "noise_sigma_range=low,0.003"),
    (ModelConfig, "use_partial_conv=ture"),
])
def test_conversion_errors_name_the_key(cls, line):
    key = line.split("=", 1)[0]
    with pytest.raises(ValueError, match=f"^{key}: "):
        loads(cls, line + "\n")


@pytest.mark.parametrize("cls,line,message", [
    (DegradationConfig, "jpeg_qf2=0", "jpeg_qf2 must lie in [1, 100]"),
    (DegradationConfig, "rescale_range=1.0,0.7", "rescale_range must have lo <= hi"),
    (ModelConfig, "dense_growth=0", "dense_growth must be >= 1"),
    (TR.TrainConfig, "lr0=nan", "lr0 must be positive and finite"),
])
def test_loads_rejects_an_invalid_value_by_key(cls, line, message):
    # the value converts; building the config is what rejects it
    with pytest.raises(ValueError, match=re.escape(message)):
        loads(cls, line + "\n")


def test_degrade_echo_roundtrips_the_recipe(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["degrade", "--in", str(empty), "--out", str(tmp_path / "o")])
    assert rc == EXIT_FAIL
    fields = vars(DegradationConfig())
    echoed = [line.strip().split(" = ", 1) for line in capsys.readouterr().out.splitlines()]
    text = "".join(f"{k}={v}\n" for k, v in (pair for pair in echoed if pair[0] in fields))
    back, _ = loads(DegradationConfig, text)
    np.testing.assert_array_equal(back.cst_matrix, DegradationConfig().cst_matrix)
    assert dumps(back) == dumps(DegradationConfig())


def test_train_echo_roundtrips_its_configs(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["train", "--data", str(empty), "--out", str(tmp_path / "m.ckpt"),
               "--iters", "3", "--lr", "0.001", "--no-degrade"])
    assert rc == EXIT_FAIL
    echoed = dict(line.strip().split(" = ", 1) for line in capsys.readouterr().out.splitlines()
                  if " = " in line)
    for cls, want in ((TR.TrainConfig, TR.TrainConfig(lr0=0.001, max_iters=3,
                                                      apply_degradation=False)),
                      (DegradationConfig, DegradationConfig()),
                      (ModelConfig, ModelConfig())):
        text = "".join(f"{k}={echoed[k]}\n" for k in vars(cls()))
        assert loads(cls, text)[0] == want


# The default and one non-default instance of each config.
CONFIGS = [
    ModelConfig(),
    ModelConfig(dense_layers=3, dense_growth=8, unet_base_channels=12, groups=3,
                global_mlp_channels=24, use_partial_conv=False),
    DegradationConfig(),
    DegradationConfig(noise_sigma_range=(0.002, 0.004), jpeg_qf1_range=(50, 90), jpeg_qf2=60,
                      rescale_range=(0.8, 0.9), cst_matrix=np.diag([1.0 / 3.0, 0.9, 1.1])),
    TR.TrainConfig(),
    TR.TrainConfig(lr0=1e-3, patch_size=32, max_iters=7, seed=5, apply_degradation=False),
]


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: type(c).__name__)
def test_configs_compare_hash_and_roundtrip(cfg):
    same = type(cfg)(**vars(cfg))
    assert cfg == same and hash(cfg) == hash(same)
    assert "\n" not in repr(cfg)
    back, extra = loads(type(cfg), dumps(cfg))
    assert back == cfg and hash(back) == hash(cfg) and extra == {}


@pytest.mark.parametrize("cls,field,value,word", [
    (ModelConfig, "groups", 2.0, "integer"),
    (ModelConfig, "unet_base_channels", 20.0, "integer"),
    (ModelConfig, "dense_layers", True, "integer"),
    (ModelConfig, "use_partial_conv", 1, "bool"),
    (ModelConfig, "use_partial_conv", "false", "bool"),
    (TR.TrainConfig, "patch_size", 64.5, "integer"),
    (TR.TrainConfig, "max_iters", 2.0, "integer"),
    (TR.TrainConfig, "seed", False, "integer"),
    (TR.TrainConfig, "seed", -1, ">= 0"),  # np.random.default_rng rejects it
    (TR.TrainConfig, "apply_degradation", 0, "bool"),
    (DegradationConfig, "jpeg_qf1_range", (60.5, 80), "integer"),
    (DegradationConfig, "jpeg_qf1_range", (60, True), "integer"),
    (DegradationConfig, "jpeg_qf2", 75.5, "integer"),
])
def test_configs_check_integer_and_bool_fields(cls, field, value, word):
    with pytest.raises(ValueError, match=f"^{field} .*{word}"):
        cls(**{field: value})


def test_configs_accept_numpy_scalars_and_lists():
    assert DegradationConfig(jpeg_qf1_range=[60, 80], rescale_range=[0.7, 1.0]) == \
        DegradationConfig()
    assert hash(DegradationConfig(noise_sigma_range=[0.001, 0.003])) == hash(DegradationConfig())
    cfg = ModelConfig(groups=np.int64(2), unet_base_channels=np.int32(8),
                      use_partial_conv=np.bool_(False))
    assert cfg == ModelConfig(groups=2, unet_base_channels=8, use_partial_conv=False)
    assert TR.TrainConfig(patch_size=np.int64(32), seed=np.uint8(3)).patch_size == 32
    recipe = DegradationConfig(jpeg_qf1_range=(np.int64(50), 90), jpeg_qf2=np.int16(60))
    assert recipe == DegradationConfig(jpeg_qf1_range=(50, 90), jpeg_qf2=60)


def _wrong_typed_values():
    """(config, field, value) for every field of the three configs: a string,
    a bool unless the field is a bool, and for a tuple field bools, strings
    and one value too few or too many, all read off the declared types."""
    for cls in (ModelConfig, TR.TrainConfig, DegradationConfig):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            n = len(typing.get_args(hints[f.name]))
            values = ["1"] + ([True] if hints[f.name] is not bool else [])
            if n:
                values += [("1",) * n, (True,) * n, (1,) * (n - 1), (1,) * (n + 1)]
            yield from (pytest.param(cls, f.name, v, id=f"{cls.__name__}.{f.name}={v!r}")
                        for v in values)


@pytest.mark.parametrize("cls,field,value", _wrong_typed_values())
def test_every_config_field_rejects_a_wrong_type_by_name(cls, field, value):
    with pytest.raises(ValueError, match=f"^{field} must "):
        cls(**{field: value})


def test_tuple_fields_store_their_declared_element_types():
    cfg = DegradationConfig(jpeg_qf1_range=np.array([50, 90], dtype=np.uint8),
                            rescale_range=[np.float32(0.5), 1],
                            noise_sigma_range=np.array([[0.0, 0.001]]))
    assert cfg.jpeg_qf1_range == (50, 90) and cfg.rescale_range == (0.5, 1.0)
    assert cfg.noise_sigma_range == (0.0, 0.001)
    for name, typ in (("jpeg_qf1_range", int), ("rescale_range", float),
                      ("noise_sigma_range", float), ("cst_matrix", float)):
        assert all(type(v) is typ for v in getattr(cfg, name))
    with pytest.raises(ValueError, match="^cst_matrix must hold 9 values"):
        DegradationConfig(cst_matrix=np.eye(4))


def test_field_types_are_resolved_once_per_class():
    assert field_types(ModelConfig) is field_types(ModelConfig)
    assert field_types(DegradationConfig)["cst_matrix"] == tuple[(float,) * 9]

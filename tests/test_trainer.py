import json

import numpy as np
import pytest

from taskfusion import tensor as tl
from taskfusion import trainer
from taskfusion.decoder import ClipFeatures, TaskFusionDecoder
from taskfusion.losses import TASK_ORDER, joint_loss
from taskfusion.synth import ClipConfig, ClipRecord, generate_clip
from taskfusion.tensor import ContractError, backward
from taskfusion.trainer import (CheckpointError, ParamStore, TrainConfig,
                                batch_losses, build_model, load_checkpoint,
                                save_checkpoint)

CLIP_CFG = ClipConfig(frames=4, height=16, width=16, p_change=0.5)


def _config(encoder="per_frame_token", **overrides):
    kwargs = dict(steps=1, batch_size=4, seed=3, encoder=encoder, width=16,
                  layers=2, dec_heads=2, enc_heads=2, mlp_hidden=16, patch=8)
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


def _mixed_clips():
    """The first two state-change and two no-change clips by seed,
    alternating."""
    picked = {True: [], False: []}
    seed = 0
    while min(len(clips) for clips in picked.values()) < 2:
        clip = generate_clip(seed, CLIP_CFG)
        if len(picked[clip.labels.state_change]) < 2:
            picked[clip.labels.state_change].append(clip)
        seed += 1
    return [picked[True][0], picked[False][0], picked[True][1], picked[False][1]]


def _grads(model):
    out = {name: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
           for name, t in model.store.items()}
    for _, t in model.store.items():
        t.grad = None
    return out


@pytest.mark.parametrize("encoder",
                         ["per_frame_token", "clip_token", "conv_grid"])
def test_batched_losses_equal_sum_of_single_clip_losses(encoder):
    model = build_model(_config(encoder), frames=4, image=16)
    model.sigma.s.data[...] = [0.3, -0.2, 0.1]
    clips = _mixed_clips()

    # batched: one decode and one loss per task over the whole batch
    features = ClipFeatures.concat([model.encoder.encode(c) for c in clips])
    parts, _ = batch_losses(model, clips, features, TASK_ORDER)
    batched = joint_loss(parts, model.sigma, TASK_ORDER)
    backward(batched)
    batched_grads = _grads(model)

    # reference: each clip as a batch of one, per-task sums over the clips
    sums, counts = {}, {}
    for clip in clips:
        one, _ = batch_losses(model, [clip], model.encoder.encode(clip),
                              TASK_ORDER)
        for task, value in one.items():
            sums[task] = tl.add(sums[task], value) if task in sums else value
            counts[task] = counts.get(task, 0) + 1
    assert counts == {"oscc": 4, "pnr": 4, "scod": 2}
    reference = joint_loss({t: tl.scale(sums[t], 1.0 / counts[t])
                            for t in sums}, model.sigma, TASK_ORDER)
    backward(reference)
    reference_grads = _grads(model)

    assert abs(batched.item() - reference.item()) <= 1e-10
    for name, g in reference_grads.items():
        assert np.max(np.abs(batched_grads[name] - g)) <= 1e-10, name
        assert np.any(g), name


def _records():
    return [ClipRecord(seed=c.seed, config=CLIP_CFG, labels=c.labels)
            for c in _mixed_clips()]


def test_train_decodes_once_per_step(monkeypatch):
    calls = []
    decode = TaskFusionDecoder.decode

    def counting(self, features, *args, **kwargs):
        calls.append(features.batch)
        return decode(self, features, *args, **kwargs)

    monkeypatch.setattr(TaskFusionDecoder, "decode", counting)
    result = trainer.train(_records(), _config(steps=2))
    assert calls == [4, 4]
    assert all(np.isfinite(row["loss_total"]) for row in result.log)


def test_adam_rejects_non_finite_gradient_before_any_update(monkeypatch):
    models, before = [], {}
    real_build, real_backward = trainer.build_model, trainer.backward

    def build(*args, **kwargs):
        model = real_build(*args, **kwargs)
        models.append(model)
        before.update({n: t.data.copy() for n, t in model.store.items()})
        return model

    def poisoned_backward(loss):
        real_backward(loss)
        models[0].store["dec.layer1.cross_s.wv"].grad[0, 0] = np.nan

    monkeypatch.setattr(trainer, "build_model", build)
    monkeypatch.setattr(trainer, "backward", poisoned_backward)
    with pytest.raises(ContractError, match="dec.layer1.cross_s.wv"):
        trainer.train(_records(), _config())
    for name, t in models[0].store.items():
        assert np.array_equal(t.data, before[name]), name


def _checkpoint(tmp_path):
    store = ParamStore()
    store.register("a", tl.tensor(np.arange(6.0).reshape(2, 3)))
    store.register("b", tl.tensor(np.array([7.0])))
    path = tmp_path / "model.ckpt"
    save_checkpoint(store, path)
    return path


def test_checkpoint_round_trip(tmp_path):
    loaded = load_checkpoint(_checkpoint(tmp_path))
    assert loaded.names() == ["a", "b"]
    assert np.array_equal(loaded["a"].data, np.arange(6.0).reshape(2, 3))
    assert np.array_equal(loaded["b"].data, [7.0])
    assert loaded.description is None


def test_model_checkpoint_rebuilds_the_model(tmp_path):
    model = build_model(_config(encoder="clip_token", enabled_tasks=("oscc",)),
                        frames=CLIP_CFG.frames, image=CLIP_CFG.height)
    for _, t in model.store.items():
        t.data[...] += 0.01 * np.arange(t.size).reshape(t.shape)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.store, path)
    loaded = trainer.load_model(path)
    assert loaded.store.description == model.store.description
    assert loaded.enabled_tasks == ("oscc",)
    for name, t in model.store.items():
        assert np.array_equal(loaded.store[name].data, t.data), name


def _rewrite(path, header=None, payload=None):
    head, body = path.read_bytes().split(b"\n", 1)
    if header is not None:
        head = json.dumps(header).encode()
    path.write_bytes(head + b"\n" + (body if payload is None else payload))


def _header(path):
    return json.loads(path.read_bytes().split(b"\n", 1)[0])


@pytest.mark.parametrize("params", [
    [1, 2],                                       # not an object
    {"x": 3},                                     # entry not an object
    {"a": {"shape": [2, 3]}},                     # no byte offset
    {"a": {"shape": "2x3", "byte_offset": 0}},    # shape not a list
    {"a": {"shape": [2.5], "byte_offset": 0}},    # shape entries not ints
    {"a": {"shape": [6], "byte_offset": "0"}},    # offset not an int
], ids=[f"header{i}" for i in range(6)])
def test_checkpoint_rejects_malformed_header(tmp_path, params):
    path = _checkpoint(tmp_path)
    _rewrite(path, header=dict(_header(path), params=params))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda h: [h],                                # not an object
    lambda h: h["params"],                        # the untagged flat header
    lambda h: dict(h, format="taskfusion-checkpoint/0"),
    lambda h: dict(h, description=[1]),           # description not an object
])
def test_checkpoint_rejects_bad_envelope(tmp_path, edit):
    path = _checkpoint(tmp_path)
    _rewrite(path, header=edit(_header(path)))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncated_payload(tmp_path):
    path = _checkpoint(tmp_path)
    body = path.read_bytes().split(b"\n", 1)[1]
    _rewrite(path, payload=body[:-8])
    with pytest.raises(CheckpointError, match="payload"):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_offset(tmp_path):
    path = _checkpoint(tmp_path)
    header = _header(path)
    header["params"]["b"]["byte_offset"] = 40
    _rewrite(path, header=header)
    with pytest.raises(CheckpointError, match="offset"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_values(tmp_path, value):
    path = _checkpoint(tmp_path)
    values = np.frombuffer(path.read_bytes().split(b"\n", 1)[1],
                           dtype="<f8").copy()
    values[[4, 6]] = value  # a[1, 1], then b: the first is named
    _rewrite(path, payload=values.tobytes())
    with pytest.raises(CheckpointError,
                       match="parameter 'a' holds a non-finite value"):
        load_checkpoint(path)

import hashlib
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
    model = build_model(_config(encoder, dtype="float64"), frames=4, image=16)
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


def test_inference_is_off_the_tape_and_equals_on_tape_infer(recorded_nodes):
    model = build_model(_config(), frames=4, image=16)
    clips = _mixed_clips()
    on_tape = model.decoder.infer(model.encoder.encode(clips[0]))
    assert on_tape.pnr_logits.node is not None
    recorded_nodes.clear()
    pred = model.predict(clips[0])
    assert recorded_nodes == []
    assert pred.pnr_logits.data.dtype == np.float32
    assert np.array_equal(pred.oscc_logits.data, on_tape.oscc_logits.data[0])
    assert np.array_equal(pred.pnr_logits.data, on_tape.pnr_logits.data[0])
    assert pred.keyframe_used == on_tape.keyframes[0]
    for q, query in enumerate(pred.scod):
        assert np.array_equal(query.class_logits.data,
                              on_tape.scod_logits.data[0, q])
        assert np.array_equal(query.box.data, on_tape.scod_boxes.data[0, q])
    trainer.evaluate(model, [ClipRecord(c.seed, CLIP_CFG, c.labels)
                             for c in clips])
    assert recorded_nodes == []


def test_batch_losses_builds_a_tape(recorded_nodes):
    model = build_model(_config(), frames=4, image=16)
    clips = _mixed_clips()
    features = ClipFeatures.concat([model.encoder.encode(c) for c in clips])
    parts, _ = batch_losses(model, clips, features, TASK_ORDER)
    assert set(parts) == set(TASK_ORDER)
    assert all(loss.node is not None for loss in parts.values())
    assert len(recorded_nodes) > 100


ENCODERS = ("per_frame_token", "clip_token", "conv_grid")

# sha256 of the JSON loss log and of the checkpoint payload of an 8-step
# float64 run, recorded before models had a compute dtype: float64
# training is unchanged by it.
FLOAT64_DIGESTS = {
    "per_frame_token": (
        "ea21341e97c3ee8dad9e216866b7148d48e3556fd646462289b639dcaeb4f63e",
        "14ad81aae509506c9184c0ecea06887385fecc8a579581cd36da8268eaf590b5"),
    "clip_token": (
        "93763f04debcf263ee04e7832547151f7d55b6bdbc44d9f9d0d048f8166563f6",
        "1cab3b9d3bb7c339c396a35a5a97531e47b1bf63d2ed061b1aac14ee66325104"),
    "conv_grid": (
        "d445da9c6c67f30cddc6c35861be044a120a216fbad34cc305c9127a8ec85ef6",
        "c5aa398e377e9ee46e77ed4f2ab8481da64a1dcf3576c1eb8818d5acef8d5a96"),
}


def _payload(path) -> bytes:
    return path.read_bytes().split(b"\n", 1)[1]


@pytest.mark.parametrize("encoder", ENCODERS)
def test_float64_training_matches_its_pinned_digests(encoder, tmp_path):
    result = trainer.train(_records(), _config(encoder, steps=8,
                                               dtype="float64"))
    path = tmp_path / "model.ckpt"
    save_checkpoint(result.model.store, path)
    digests = (hashlib.sha256(json.dumps(result.log).encode()).hexdigest(),
               hashlib.sha256(_payload(path)).hexdigest())
    assert digests == FLOAT64_DIGESTS[encoder]


@pytest.mark.parametrize("encoder", ENCODERS)
def test_float32_loss_log_tracks_float64(encoder):
    logs = [trainer.train(_records(), _config(encoder, steps=8,
                                              dtype=dtype)).log
            for dtype in ("float32", "float64")]
    for row32, row64 in zip(*logs):
        for key, value in row64.items():
            if value is not None:
                assert abs(row32[key] - value) <= 1e-5 * abs(value), key


def test_float32_train_step_is_float32_throughout(recorded_nodes,
                                                  monkeypatch):
    """Every array on the tape, every gradient and every Adam moment."""
    seen = set()
    real_adam = trainer.adam_step

    def adam(store, state):
        seen.update(t.grad.dtype for _, t in store.items())
        real_adam(store, state)
        seen.update(m.dtype for m in (*state.m.values(), *state.v.values()))

    monkeypatch.setattr(trainer, "adam_step", adam)
    result = trainer.train(_records(), _config(encoder="conv_grid"))
    assert len(recorded_nodes) > 100
    seen.update(t.data.dtype for node in recorded_nodes for t in node.inputs)
    seen.update(t.data.dtype for _, t in result.model.store.items())
    assert seen == {np.dtype(np.float32)}


def test_float32_checkpoint_round_trip_is_exact(tmp_path):
    model = build_model(_config(encoder="conv_grid"), frames=4, image=16)
    for _, t in model.store.items():
        t.data[...] += np.float32(0.01) * np.arange(t.size).reshape(t.shape)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.store, path)
    loaded = trainer.load_model(path)
    assert loaded.store.description["config"]["dtype"] == "float32"
    for name, t in model.store.items():
        got = loaded.store[name].data
        assert got.dtype == np.float32 and np.array_equal(got, t.data), name


def test_description_without_dtype_loads_as_float64(tmp_path):
    model = build_model(_config(dtype="float64"), frames=4, image=16)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.store, path)
    header = _header(path)
    del header["description"]["config"]["dtype"]
    _rewrite(path, header=header)
    loaded = trainer.load_model(path)
    assert loaded.dtype == np.float64
    for name, t in model.store.items():
        assert np.array_equal(loaded.store[name].data, t.data), name


def test_value_overflowing_float32_is_rejected(tmp_path):
    model = build_model(_config(), frames=4, image=16)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.store, path)
    values = np.frombuffer(_payload(path), dtype="<f8").copy()
    offset = _header(path)["params"]["dec.tokens"]["byte_offset"] // 8
    values[offset + 3] = 1e39  # finite in float64, above float32's 3.4e38
    _rewrite(path, payload=values.tobytes())
    with pytest.raises(CheckpointError, match="parameter 'dec.tokens' holds "
                                              "a value that overflows "
                                              "float32"):
        trainer.load_model(path)

import hashlib
import json
import weakref

import numpy as np
import pytest

from taskfusion import tensor as tl
from taskfusion import trainer
from taskfusion.decoder import (ClipFeatures, TaskFusionDecoder, positions,
                                self_attention)
from taskfusion.losses import TASK_ORDER, joint_loss
from taskfusion.seeding import rng_for
from taskfusion.synth import (ClipConfig, ClipRecord, generate_clip,
                              patch_constant)
from taskfusion.tensor import ContractError, backward
from taskfusion.trainer import (CheckpointError, ParamStore, TrainConfig,
                                batch_losses, build_model, load_checkpoint,
                                save_checkpoint)

CLIP_CFG = ClipConfig(frames=4, height=16, width=16, p_change=0.5)
ENCODERS = ("per_frame_token", "clip_token", "conv_grid")


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


@pytest.mark.parametrize("encoder", ENCODERS)
def test_batched_losses_equal_sum_of_single_clip_losses(encoder):
    model = build_model(_config(encoder, dtype="float64"), frames=4, image=16)
    model.sigma.s.data[...] = [0.3, -0.2, 0.1]
    clips = _mixed_clips()

    # batched: one decode and one loss per task over the whole batch
    features = model.encoder.encode(clips)
    parts, _ = batch_losses(model, [c.labels for c in clips], features,
                            TASK_ORDER)
    batched = joint_loss(parts, model.sigma, TASK_ORDER)
    backward(batched)
    batched_grads = _grads(model)

    # reference: each clip as a batch of one, per-task sums over the clips
    sums, counts = {}, {}
    for clip in clips:
        one, _ = batch_losses(model, [clip.labels],
                              model.encoder.encode([clip]), TASK_ORDER)
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


def _scalar_fisher_yates(indices, rng):
    """The shuffle as one scalar draw per swap."""
    order = list(indices)
    for i in range(len(order) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        order[i], order[j] = order[j], order[i]
    return order


def test_fisher_yates_draws_as_the_scalar_loop_does():
    for seed in range(4):
        for n in range(0, 301):
            rngs = [rng_for(seed, "shuffle", n) for _ in range(2)]
            assert (trainer.fisher_yates(range(n), rngs[0])
                    == _scalar_fisher_yates(range(n), rngs[1])), (seed, n)
            # and leaves the generator where the loop leaves it
            assert rngs[0].integers(0, 2 ** 62) == rngs[1].integers(0, 2 ** 62)


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


def _adam_store(rng, dtype):
    """Trainable tensors of mixed shapes, and one frozen tensor between
    them."""
    store = ParamStore()
    with tl.precision(dtype):
        for name, shape in (("s", ()), ("b", (3,)), ("w", (2, 4)),
                            ("k", (2, 3, 2))):
            store.register(name, tl.tensor(rng.standard_normal(shape),
                                           requires_grad=True))
        store.register("frozen", tl.tensor(rng.standard_normal(2)))
    return store


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_adam_step_equals_a_per_tensor_update_bit_for_bit(dtype):
    rng = rng_for(7, "adam", dtype)
    store = _adam_store(rng, dtype)
    state = trainer.AdamState(lr=0.01)
    b1, b2, eps = trainer.ADAM_BETA1, trainer.ADAM_BETA2, trainer.ADAM_EPS
    lr = state.lr
    ref = {name: [t.data.copy(), 0.0, 0.0] for name, t in store.items()
           if t.requires_grad}
    frozen = store["frozen"].data.copy()
    for t in range(1, 5):
        for name, (p, m, v) in ref.items():
            g = rng.standard_normal(p.shape).astype(dtype)
            store[name].grad = g.copy()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
            ref[name][1:] = m, v
        trainer.adam_step(store, state)
        assert state.step_count == t
        for name, (p, m, v) in ref.items():
            assert store[name].grad is None, name
            for got, want in ((store[name].data, p), (state.m[name], m),
                              (state.v[name], v)):
                assert got.dtype == np.dtype(dtype), name
                assert np.array_equal(got, want), (t, name)
    assert np.array_equal(store["frozen"].data, frozen)
    assert sorted(state.m) == ["b", "k", "s", "w"]


def _adam_after_one_step():
    store = _adam_store(rng_for(8, "adam"), "float64")
    state = trainer.AdamState()
    store.fill_missing_grads()
    trainer.adam_step(store, state)
    store.fill_missing_grads()
    return store, state


def test_adam_step_names_a_missing_gradient():
    store, state = _adam_after_one_step()
    store["w"].grad = None
    before = {name: t.data.copy() for name, t in store.items()}
    with pytest.raises(ContractError, match="parameter 'w' has no gradient"):
        trainer.adam_step(store, state)
    assert state.step_count == 1
    for name, t in store.items():
        assert np.array_equal(t.data, before[name]), name


def test_adam_step_refuses_a_store_whose_trainable_layout_changed():
    store, state = _adam_after_one_step()
    store.register("extra", tl.tensor(np.zeros(2), requires_grad=True))
    store.fill_missing_grads()
    with pytest.raises(ContractError, match="changed since the first Adam "
                       r"step: 'extra' was absent, is \(2,\) float64"):
        trainer.adam_step(store, state)

    store, state = _adam_after_one_step()
    store["b"].data = np.zeros(4)
    store["b"].grad = np.zeros(4)
    with pytest.raises(ContractError, match=r"'b' was \(3,\) float64, is "
                       r"\(4,\) float64"):
        trainer.adam_step(store, state)

    store, state = _adam_after_one_step()
    store["frozen"].requires_grad = True
    store.fill_missing_grads()
    with pytest.raises(ContractError, match="'frozen' was absent"):
        trainer.adam_step(store, state)


def test_adam_step_refuses_a_store_of_mixed_dtypes():
    store = _adam_store(rng_for(9, "adam"), "float64")
    with tl.precision("float32"):
        store.register("half", tl.tensor(np.ones(3), requires_grad=True))
    store.fill_missing_grads()
    with pytest.raises(ContractError, match="mixes"):
        trainer.adam_step(store, trainer.AdamState())
    assert store["half"].grad is not None


def _poison_on_second_render(monkeypatch, seed):
    """Renders the clip of ``seed`` with NaN frames from its second
    ``clip()`` on."""
    real_clip, calls = ClipRecord.clip, []

    def clip(record):
        out = real_clip(record)
        if record.seed == seed:
            calls.append(seed)
            if len(calls) > 1:
                out.frames[...] = np.nan
        return out

    monkeypatch.setattr(ClipRecord, "clip", clip)


@pytest.mark.parametrize("tasks", [TASK_ORDER, ("oscc", "pnr")])
def test_non_finite_predictions_abort_with_the_step_and_clip(monkeypatch,
                                                             tasks):
    """NaN frames make NaN predictions: one batch of four holds every
    record, so the poisoned clip reaches step 2, which must stop before
    any loss (the detection match would refuse the NaN costs)."""
    records = _records()
    _poison_on_second_render(monkeypatch, records[2].seed)
    with pytest.raises(trainer.TrainingAbort) as info:
        trainer.train(records, _config(steps=3, enabled_tasks=tasks))
    assert (info.value.step, info.value.clip_seed) == (2, records[2].seed)
    assert str(info.value) == (f"non-finite predictions at step 2 (clip "
                               f"seed {records[2].seed})")


def _edit_built_model(monkeypatch, edit):
    """``train`` builds its model through ``trainer.build_model``; ``edit``
    changes each model built before the first step."""
    build = trainer.build_model

    def edited(*args, **kwargs):
        model = build(*args, **kwargs)
        edit(model)
        return model

    monkeypatch.setattr(trainer, "build_model", edited)


def _oscc_logits_at_3e38(model):
    head = model.decoder.heads["oscc"]
    head.w2.data[...] = 0.0
    head.b2.data[...] = [3e38, -3e38]


@pytest.mark.parametrize("edit, what", [
    # exp(200) overflows float32: a finite loss times an infinite weight
    (lambda model: model.sigma.s.data.fill(-200.0), "joint loss"),
    # finite logits 6e38 apart: the log-softmax of the low one overflows
    (_oscc_logits_at_3e38, "oscc loss"),
], ids=["joint", "oscc"])
def test_a_non_finite_loss_of_finite_predictions_aborts_training(
        monkeypatch, edit, what):
    """The loss-level checks, reached with finite predictions in float32;
    the predictions check before them passes. A loss is a mean over the
    batch, so the abort names no clip."""
    _edit_built_model(monkeypatch, edit)
    with np.errstate(all="ignore"), \
            pytest.raises(trainer.TrainingAbort) as info:
        trainer.train(_records(), _config(steps=2))
    assert (info.value.step, info.value.clip_seed, info.value.what) == (
        1, None, what)
    assert str(info.value) == f"non-finite {what} at step 1"


def _tape_nodes(loss):
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop().node
        if node is not None and node.nid not in nodes:
            nodes[node.nid] = node
            stack.extend(node.inputs)
    return list(nodes.values())


def _watch_step_lifetimes(monkeypatch):
    """Wraps ``ClipRecord.clip`` and ``trainer.backward``; the returned
    lists fill as ``train`` runs. "tape": at each step's first clip after
    step 1, how many of the previous step's tape nodes are alive.
    "frames": at each step's backward, how many of its clips' frames are
    alive. Weak references only, and no garbage collection: what
    refcounting keeps is what the test sees."""
    real_clip, real_backward = ClipRecord.clip, trainer.backward
    tape, frames = [], []
    seen = {"tape": [], "frames": []}

    def clip(record):
        if tape:
            seen["tape"].append(sum(ref() is not None for ref in tape))
            tape.clear()
            frames.clear()
        out = real_clip(record)
        frames.append(weakref.ref(out.frames))
        return out

    def backward(loss):
        seen["frames"].append(sum(ref() is not None for ref in frames))
        tape.extend(weakref.ref(node) for node in _tape_nodes(loss))
        real_backward(loss)

    monkeypatch.setattr(ClipRecord, "clip", clip)
    monkeypatch.setattr(trainer, "backward", backward)
    return seen


@pytest.mark.parametrize("encoder", ENCODERS)
def test_a_step_frees_its_tape_before_the_next_step_renders(monkeypatch,
                                                            encoder):
    seen = _watch_step_lifetimes(monkeypatch)
    trainer.train(_records(), _config(encoder, steps=3))
    assert seen["tape"] == [0, 0]


@pytest.mark.parametrize("encoder", ENCODERS)
def test_a_step_frees_its_frames_before_backward(monkeypatch, encoder):
    seen = _watch_step_lifetimes(monkeypatch)
    trainer.train(_records(), _config(encoder, steps=3))
    assert seen["frames"] == [0, 0, 0]


@pytest.mark.parametrize("encoder", ENCODERS)
def test_a_step_graph_is_dead_when_adam_runs(monkeypatch, encoder):
    """A weak reference to the joint loss's node, taken at backward, is
    dead by the time the step's Adam update runs: the tape is gone."""
    real_backward, real_adam = trainer.backward, trainer.adam_step
    refs, alive = [], []

    def backward(loss):
        refs.append(weakref.ref(loss.node))
        real_backward(loss)

    def adam_step(*args):
        alive.append(refs[-1]() is not None)
        real_adam(*args)

    monkeypatch.setattr(trainer, "backward", backward)
    monkeypatch.setattr(trainer, "adam_step", adam_step)
    trainer.train(_records(), _config(encoder, steps=2))
    assert alive == [False, False]


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


def test_an_empty_store_round_trips(tmp_path):
    path = tmp_path / "empty.ckpt"
    save_checkpoint(ParamStore({"kind": "none"}), path)
    assert path.read_bytes().endswith(b"}\n")
    loaded = load_checkpoint(path)
    assert loaded.names() == []
    assert loaded.description == {"kind": "none"}


@pytest.mark.parametrize("cut", ["in_header", "at_newline"])
def test_checkpoint_without_a_newline_is_rejected(tmp_path, cut):
    """Without a newline the whole file is the header: cut inside the
    header it does not parse, and whole it has no payload."""
    path = _checkpoint(tmp_path)
    data = path.read_bytes()
    end = data.index(b"\n")
    path.write_bytes(data[:end - 1] if cut == "in_header" else data[:end])
    with pytest.raises(CheckpointError, match="unreadable header"
                       if cut == "in_header" else "payload is 0 bytes"):
        load_checkpoint(path)


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
    on_tape = model.decoder.infer(model.encoder.encode(clips[:1]))
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
    features = model.encoder.encode(clips)
    parts, _ = batch_losses(model, [c.labels for c in clips], features,
                            TASK_ORDER)
    assert set(parts) == set(TASK_ORDER)
    assert all(loss.node is not None for loss in parts.values())
    assert len(recorded_nodes) > 100


@pytest.mark.parametrize("encoder", ENCODERS)
def test_every_taped_tensor_of_a_train_step_requires_grad(
        recorded_nodes, monkeypatch, encoder):
    """The tape invariant the backward rules rely on: a tensor with a node
    has ``requires_grad`` set, so that flag alone says whether a rule
    computes an input's gradient. Checked on every input of every node
    one train step records, and on the loss it differentiates."""
    losses = []
    monkeypatch.setattr(trainer, "backward",
                        lambda loss: (losses.append(loss), backward(loss)))
    trainer.train(_records(), _config(encoder))
    taped = [t for node in recorded_nodes for t in node.inputs
             if t.node is not None] + losses
    assert len(losses) == 1 and len(taped) > 100
    assert all(t.requires_grad for t in taped)


def test_per_frame_token_attends_only_with_the_queries_it_reads(
        recorded_nodes):
    """One train step: one class-row op over every frame of the batch (B*T
    frames, from their raw patches), then one self-attention over each
    clip's keyframe tokens, class and patch rows (B*(P+1) query rows); the
    full self-attention of every frame would be B*T*(P+1)."""
    config = _config(steps=1)
    result = trainer.train(_records(), config)
    attn = result.model.encoder.attn
    rows = [node.inputs[0].size // config.width for node in recorded_nodes
            if node.op == "attention" and attn.wq in node.inputs]
    frames = [node.inputs[0].shape[0] for node in recorded_nodes
              if node.op == "class_attention"]
    b, t, p = config.batch_size, CLIP_CFG.frames, result.model.encoder.patches
    assert rows == [b * (p + 1)]
    assert frames == [b * t]


def _full_attention_features(encoder, clip):
    """The per_frame_token features as full self-attention over every
    token of every frame makes them: h_frames [1, T, D] and the patch rows
    of every frame [1, T, P, D]."""
    t, p, d = clip.frames.shape[0], encoder.patches, encoder.width
    raw = tl.reshape(patch_constant([clip.frames], encoder.patch),
                     (t * p, encoder.patch_dim))
    tok = tl.add(tl.matmul(raw, encoder.w_patch), encoder.b_patch)
    tok = tl.add(tl.reshape(tok, (t, p, d)), positions(p, d))
    x = tl.concat([tl.repeat0(encoder.cls, t), tok], axis=1)
    out = tl.add(x, self_attention(x, encoder.attn)[0])
    return (tl.reshape(tl.narrow(out, 1, 0, 1), (1, t, d)),
            tl.reshape(tl.narrow(out, 1, 1, p), (1, t, p, d)))


def test_per_frame_token_matches_full_self_attention():
    """Features and the decode-loss gradient of every encoder parameter,
    against the full self-attention oracle, in float64."""
    model = build_model(_config(dtype="float64"), frames=4, image=16)
    encoder = model.encoder
    rng = np.random.default_rng(12)
    for t in encoder.parameters().values():  # far from uniform attention
        t.data[...] = rng.standard_normal(t.shape) * 0.3
    clips = _mixed_clips()
    keyframes = np.array([c.labels.pnr_frame or 2 for c in clips])

    features = encoder.encode(clips)
    oracle = [_full_attention_features(encoder, c) for c in clips]
    want_frames = np.concatenate([h.data for h, _ in oracle])
    assert np.max(np.abs(features.h_frames.data - want_frames)) <= 1e-12
    for k in range(CLIP_CFG.frames):
        got = features.keyframe_patches(np.full(len(clips), k)).data
        want = np.stack([patches.data[0, k] for _, patches in oracle])
        assert np.max(np.abs(got - want)) <= 1e-12, k

    grads = []
    for feats in (features, ClipFeatures(
            h_frames=tl.concat([h for h, _ in oracle], axis=0),
            slabs=tl.reshape(tl.concat([patches for _, patches in oracle],
                                       axis=0),
                             (len(clips) * CLIP_CFG.frames, encoder.patches,
                              encoder.width)),
            patches=encoder.patches)):
        parts, _ = batch_losses(model, [c.labels for c in clips], feats,
                                TASK_ORDER)
        backward(joint_loss(parts, model.sigma, TASK_ORDER))
        grads.append({name: g for name, g in _grads(model).items()
                      if name.startswith("enc.")})
    assert set(grads[0]) == {f"enc.{name}" for name in encoder.parameters()}
    for name, g in grads[1].items():
        assert np.any(g), name
        assert np.max(np.abs(grads[0][name] - g)) <= 1e-10, name


# sha256 of the JSON loss log and of the checkpoint payload of an 8-step
# float64 run, recorded before models had a compute dtype: float64
# training is unchanged by it. The per_frame_token payload was re-pinned
# twice, its loss log never: when its encoder stopped computing the patch
# rows no decode reads (its gradients sum in another order: 1,007 of
# 14,401 values moved, at most 1.4e-17), and when its class rows became
# one class_attention op with the key and value projections absorbed
# (2,480 values moved, at most 7.1e-16).
# test_per_frame_token_matches_full_self_attention checks it against the
# full self-attention. All three payloads and the clip_token and
# conv_grid loss logs were re-pinned when the detection loss's GIoU began
# to clamp its hull at the union, as the matcher's always had: 617, 1,711
# and 2,033 parameter values moved (at most 6.9e-18, 1.2e-16 and
# 3.4e-16), and the two logs' last loss_scod and loss_total by at most
# 3.6e-15.
FLOAT64_DIGESTS = {
    "per_frame_token": (
        "ea21341e97c3ee8dad9e216866b7148d48e3556fd646462289b639dcaeb4f63e",
        "07d722465feb2e1128ceadc9b62fd26e4a722b898223222eb15e353fa1f1e1b9"),
    "clip_token": (
        "569eef3c78fde9c3391552f4d595ec01e37830777f19fbf3d1dc9fe31ec6a322",
        "a7dad6c0ec8252bc5206bfc59c8d72bb41a84db8f2bb03f6935f607faac00dbf"),
    "conv_grid": (
        "bdd88756efbeefe45014ca05fd2d1212aee48d5cf320e520fe6c91d6660681ab",
        "92523911da6b6689a1902749646ddcf26a0763af3a75f8de68bb807c0a8b86ce"),
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


def test_a_float32_block_loads_float64_views_and_copy_checks_them(tmp_path):
    """Inside ``precision("float32")`` the loaded store still holds the
    payload's float64 values, as read-only views, so 1e300 reaches
    ``copy_parameters`` whole and its overflow check names it, where a
    cast at load time made it a silent inf."""
    path = _checkpoint(tmp_path)
    values = np.frombuffer(_payload(path), dtype="<f8").copy()
    values[2] = 1e300  # a[0, 2]
    _rewrite(path, payload=values.tobytes())
    with tl.precision("float32"):
        loaded = load_checkpoint(path)
        for name in ("a", "b"):
            data = loaded[name].data
            assert data.dtype == np.float64 and not data.flags.writeable
            assert not loaded[name].requires_grad
        assert loaded["a"].data[0, 2] == 1e300
        model = ParamStore()
        model.register("a", tl.zeros((2, 3), requires_grad=True))
        model.register("b", tl.zeros(1, requires_grad=True))
        with pytest.raises(CheckpointError, match="parameter 'a' holds a "
                                                  "value that overflows "
                                                  "float32"):
            trainer.copy_parameters(loaded, model)


# sha256 of the checkpoint file of each encoder's seeded model at its
# init values, per dtype; recorded before model init and checkpoint saves
# dropped their redundant copies, which must keep every byte. The header
# carries the description, so its config and sizes are pinned too.
CHECKPOINT_DIGESTS = {
    ("per_frame_token", "float32"):
        "0a414cfa846f121e19d1b3c8157a91c0244c21d4a10f80ff52a7be3d502f66e3",
    ("per_frame_token", "float64"):
        "7a0af807cab21d0b2c05fabf6b527bf5684e422cee0b8e6d19bcb182b0cc5d90",
    ("clip_token", "float32"):
        "9ee3a6b0b885a608b96811165cdcde97927e11960ffb041293b744f4eb942262",
    ("clip_token", "float64"):
        "51fa3c54b070e83d46409d544494d401f10093b2f50f14a736692175eb07dcd7",
    ("conv_grid", "float32"):
        "f672f4ca4c1a82581e020509da330fa251b2ca11effb528b46ab249271e200ae",
    ("conv_grid", "float64"):
        "5620408b194dd73371828d9951d8cd9462a1bbf9f9cdf923ff6860b09e9dc9d3",
}


@pytest.mark.parametrize("encoder, dtype", sorted(CHECKPOINT_DIGESTS))
def test_model_checkpoints_match_their_pinned_digests(tmp_path, encoder,
                                                      dtype):
    model = build_model(_config(encoder, seed=11, dtype=dtype), frames=4,
                        image=16)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.store, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == CHECKPOINT_DIGESTS[encoder, dtype]

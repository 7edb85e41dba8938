from types import SimpleNamespace

import numpy as np
import pytest

from taskfusion import decoder as decoder_module
from taskfusion import tensor as tl
from taskfusion.decoder import (ClipFeatures, DecoderConfig,
                                TaskFusionDecoder, TOKEN_COUNT, positions)
from taskfusion.losses import (ClipLabels, LabeledBox, SigmaParams, TASK_ORDER,
                               joint_loss, make_pnr_targets, oscc_loss,
                               pnr_loss, scod_loss)
from taskfusion.seeding import rng_for
from taskfusion.synth import ClipConfig, build_encoder, generate_clip
from taskfusion.tensor import ContractError, ShapeError, backward
from taskfusion.trainer import batch_losses

T, P, D = 4, 4, 8


def _from_patches(h_frames, h_patches):
    """Features whose slabs are the given patch rows [B, T, P, D]."""
    b = len(h_patches)
    return ClipFeatures(h_frames=tl.tensor(h_frames),
                        slabs=tl.tensor(np.reshape(h_patches, (b * T, P, D))),
                        patches=P)


def _patches(feats):
    """[B, T, P, D] patch rows of features made by ``_from_patches``."""
    return feats.slabs.data.reshape(feats.batch, T, P, D)


def _features(seed=0, scale=0.5, batch=1):
    rng = rng_for(seed, "feat")
    return _from_patches(rng.standard_normal((batch, T, D)) * scale,
                         rng.standard_normal((batch, T, P, D)) * scale)


def _decoder(seed=0, **overrides):
    kwargs = dict(layers=2, width=D, heads=2, frames=T, patches=P,
                  mlp_hidden=16)
    kwargs.update(overrides)
    return TaskFusionDecoder(DecoderConfig(**kwargs), rng_for(seed, "dec"))


def _labels(frame=2):
    return ClipLabels(True, pnr_frame=frame, boxes=[
        LabeledBox("hand", (0.3, 0.4, 0.2, 0.2)),
        LabeledBox("object", (0.6, 0.6, 0.3, 0.3))])


def test_temporal_memory_per_frame_adds_positions():
    feats = _features(1)
    h_t = _decoder(1)._prefix(feats).h_t  # the memory a decode reads
    delta = h_t.data - feats.h_frames.data
    assert np.allclose(delta, positions(T, D).data, atol=0)


def test_temporal_memory_zero_cls_is_position_table():
    feats = _from_patches(np.zeros((1, T, D)), np.zeros((1, T, P, D)))
    h_t = _decoder(1)._prefix(feats).h_t  # the memory a decode reads
    assert np.array_equal(h_t.data[0], positions(T, D).data)


def test_temporal_memory_clip_level_pools_patches():
    # encoders without per-frame class rows summarize a frame by its patch
    # mean, and that row is the frame's temporal memory
    clip = generate_clip(2, ClipConfig(frames=T, height=16, width=16))
    for kind in ("clip_token", "conv_grid"):
        enc = build_encoder(kind, rng_for(2, "pool"), width=D, heads=2,
                            frames=T, image=16, patch=8)
        feats = enc.encode([clip])
        h_t = _decoder(2)._prefix(feats).h_t  # the memory a decode reads
        patches = np.stack([feats.keyframe_patches(np.array([k])).data[0]
                            for k in range(T)])
        expected = patches.mean(axis=1) + positions(T, D).data
        assert np.allclose(h_t.data[0], expected, atol=1e-15), kind


def test_keyframe_patches_gather_every_clip_in_one_take0(recorded_nodes):
    """A batch's keyframe slabs come from one gather op, not a slice per
    clip and a join."""
    clips = [generate_clip(seed, ClipConfig(frames=T, height=16, width=16))
             for seed in range(3)]
    enc = build_encoder("clip_token", rng_for(41, "enc"), width=D, heads=2,
                        frames=T, image=16, patch=8)
    feats = enc.encode(clips)
    recorded_nodes.clear()
    rows = feats.keyframe_patches([1, 0, 3])
    assert [node.op for node in recorded_nodes] == ["take0"]
    assert np.array_equal(rows.data,
                          feats.slabs.data[[1, T + 0, 2 * T + 3]])


def test_select_keyframe_train_uses_label():
    feats = _features(3, batch=2)
    h_s = tl.add(feats.keyframe_patches([2, 0]), positions(P, D))
    assert list(_decoder(3).decode(feats, [2, 0]).keyframes) == [2, 0]
    for b, k in enumerate([2, 0]):
        assert np.allclose(h_s.data[b],
                           _patches(feats)[b, k] + positions(P, D).data,
                           atol=0)


def test_select_keyframe_no_change_uses_mid_frame():
    # training decodes a no-change clip at its mid frame
    labels = [ClipLabels(False), _labels(frame=1)]
    _, preds = batch_losses(SimpleNamespace(decoder=_decoder(4)), labels,
                            _features(4, batch=2), TASK_ORDER)
    assert list(preds.keyframes) == [T // 2, 1]


def test_select_keyframe_infer_argmax_and_ties():
    # a constant network's keyframe logits are the keyframe head's bias
    dec = _decoder(5)
    for p in dec.parameters().values():
        p.data[...] = 0.0
    feats = _features(5, batch=2)
    dec.heads["pnr"].b2.data[0, 3] = 5.0
    assert list(dec.infer(feats).keyframes) == [3, 3]
    dec.heads["pnr"].b2.data[0, [1, 2]] = 5.0  # a tie: the first frame wins
    assert list(dec.infer(feats).keyframes) == [1, 1]


def test_select_keyframe_contract_errors():
    for keyframes in ([1, 2],            # two keyframes, one clip
                      [],                # none
                      [T],               # out of range
                      [-1],
                      [None],            # not an int
                      [1.0],
                      np.ones((1, 1), dtype=int)):  # not one per clip
        with pytest.raises(ContractError):
            _features(6).keyframe_patches(keyframes)


def test_constant_network_outputs_head_biases():
    dec = _decoder(7)
    for name, p in dec.parameters().items():
        p.data[...] = 0.0
    rng = rng_for(8, "bias")
    for group in dec.heads.values():
        group.b2.data[...] = rng.standard_normal(group.b2.shape)
    preds_a = dec.decode(_features(9), [1])
    preds_b = dec.decode(_features(10, scale=2.0), [3])
    assert np.array_equal(preds_a.oscc_logits.data[0],
                          dec.heads["oscc"].b2.data[0])
    assert np.array_equal(preds_a.pnr_logits.data[0],
                          dec.heads["pnr"].b2.data[0])
    scod_b2 = dec.heads["scod"].b2.data
    assert np.array_equal(preds_a.scod_logits.data[0], scod_b2[:, :3])
    assert np.array_equal(preds_a.scod_boxes.data[0],
                          1.0 / (1.0 + np.exp(-scod_b2[:, 3:])))
    for name in ("oscc_logits", "pnr_logits", "scod_logits", "scod_boxes"):
        assert np.array_equal(getattr(preds_a, name).data,
                              getattr(preds_b, name).data), name


def test_shape_contracts():
    dec = _decoder(11)
    for batch in (1, 3):
        preds = dec.decode(_features(12, batch=batch),
                           [0] * batch)
        assert preds.oscc_logits.shape == (batch, 2)
        assert preds.pnr_logits.shape == (batch, T)
        assert preds.scod_logits.shape == (batch, 8, 3)
        assert preds.scod_boxes.shape == (batch, 8, 4)
        assert np.all(preds.scod_boxes.data > 0)
        assert np.all(preds.scod_boxes.data < 1)
        assert list(preds.keyframes) == [0] * batch
    one = preds.clip(2)
    assert one.oscc_logits.shape == (2,)
    assert one.pnr_logits.shape == (T,)
    assert one.keyframe_used == 0
    assert len(one.scod) == 8
    for j, q in enumerate(one.scod):
        assert np.array_equal(q.class_logits.data, preds.scod_logits.data[2, j])
        assert np.array_equal(q.box.data, preds.scod_boxes.data[2, j])


def test_disabled_task_fields_raise():
    dec = _decoder(13, enabled_tasks=("oscc",))
    preds = dec.decode(_features(14), [1])
    assert preds.oscc_logits.shape == (1, 2)
    for get in (lambda: preds.pnr_logits, lambda: preds.scod_logits,
                lambda: preds.scod_boxes, lambda: preds.clip(0).scod):
        with pytest.raises(ContractError):
            get()


def test_token_role_stability():
    # zeroing the OSCC head's weights changes only oscc_logits
    feats = _features(15)
    dec = _decoder(16)
    before = dec.decode(feats, [1])
    head = dec.heads["oscc"]
    head.w1.data[...] = 0.0
    head.w2.data[...] = 0.0
    head.b1.data[...] = 0.0
    head.b2.data[...] = 0.0
    after = dec.decode(feats, [1])
    assert not np.array_equal(before.oscc_logits.data, after.oscc_logits.data)
    assert np.array_equal(before.pnr_logits.data, after.pnr_logits.data)
    assert np.array_equal(before.scod_logits.data, after.scod_logits.data)
    assert np.array_equal(before.scod_boxes.data, after.scod_boxes.data)


def _shifted_patches(feats):
    return _from_patches(feats.h_frames.data, _patches(feats) + 3.0)


def test_stream_separation_with_identity_self_attention():
    # one layer, self-attention ablated: with its output projection zero the
    # block adds exactly 0, layer norm acts token by token, and the temporal
    # outputs cannot see h_s
    dec = _decoder(17, layers=1)
    dec.parameters()["layer0.self.wo"].data[...] = 0.0
    feats = _features(18)
    base = dec.decode(feats, [1])
    moved = dec.decode(_shifted_patches(feats), [1])
    assert np.array_equal(base.oscc_logits.data, moved.oscc_logits.data)
    assert np.array_equal(base.pnr_logits.data, moved.pnr_logits.data)


def test_task_fusion_crosses_streams_with_self_attention():
    # with self-attention active (N=2), spatial memory reaches the
    # temporal heads: the cross-task information flow the model is for
    dec = _decoder(19)
    feats = _features(20)
    base = dec.decode(feats, [1])
    moved = dec.decode(_shifted_patches(feats), [1])
    assert not np.array_equal(base.pnr_logits.data, moved.pnr_logits.data)
    assert not np.array_equal(base.oscc_logits.data, moved.oscc_logits.data)


def test_decode_deterministic():
    dec = _decoder(21)
    feats = _features(22)
    a = dec.decode(feats, [2])
    b = dec.decode(feats, [2])
    assert np.array_equal(a.oscc_logits.data, b.oscc_logits.data)
    assert np.array_equal(a.pnr_logits.data, b.pnr_logits.data)


def _clip_slice(feats, b):
    return _from_patches(feats.h_frames.data[b:b + 1],
                         _patches(feats)[b:b + 1])


def test_batched_decode_matches_single_clip_decodes():
    dec = _decoder(33)
    feats = _features(34, batch=3)
    keyframes = [2, 1, 0]
    batched = dec.decode(feats, keyframes)
    for b, k in enumerate(keyframes):
        single = dec.decode(_clip_slice(feats, b), [k])
        for name in ("oscc_logits", "pnr_logits", "scod_logits",
                     "scod_boxes"):
            got = getattr(batched, name).data[b]
            want = getattr(single, name).data[0]
            assert np.max(np.abs(got - want)) <= 1e-12, name
        assert batched.keyframes[b] == single.keyframes[0]
        for lb, ls in zip(batched.attention, single.attention):
            for field in ("self_attn", "temporal", "spatial"):
                assert np.max(np.abs(getattr(lb, field)[b]
                                     - getattr(ls, field)[0])) <= 1e-12


def test_all_heads_receive_gradients_from_joint_loss():
    dec = _decoder(23)
    feats = _features(24)
    labels = _labels()
    preds = dec.decode(feats, [labels.pnr_frame])
    sigma = SigmaParams.init()
    parts = {
        "oscc": oscc_loss(preds.oscc_logits, [True]),
        "pnr": pnr_loss(preds.pnr_logits, make_pnr_targets([labels], T)),
        "scod": scod_loss(preds.scod_logits, preds.scod_boxes, [labels]),
    }
    backward(joint_loss(parts, sigma, TASK_ORDER))
    for task, group in dec.heads.items():
        for pname, p in group.named(task).items():
            assert p.grad is not None, pname
            for token in range(p.shape[0]):  # every token's own head
                assert np.abs(p.grad[token]).max() > 1e-12, (pname, token)


def test_decode_attention_shapes_and_row_sums():
    dec = _decoder(25)
    layers = dec.decode(_features(26, batch=3), [1, 0, 3]).attention
    assert len(layers) == 2
    for layer in layers:
        assert layer.self_attn.shape == (3, 2, TOKEN_COUNT, TOKEN_COUNT)
        assert layer.temporal.shape == (3, 2, 2, T)
        assert layer.spatial.shape == (3, 2, 8, P)
        for mat in (layer.self_attn, layer.temporal, layer.spatial):
            assert np.max(np.abs(mat.sum(axis=-1) - 1.0)) <= 1e-12


def test_decode_attention_single_layer_count():
    dec = _decoder(27, layers=1)
    layers = dec.decode(_features(28), [1]).attention
    assert len(layers) == 1
    assert layers[0].self_attn.shape[2:] == (10, 10)


def test_infer_two_pass_keyframe_follows_pnr_argmax():
    dec = _decoder(31)
    feats = _features(32, batch=2)
    preds = dec.infer(feats)
    provisional = dec.decode(feats, [T // 2, T // 2])
    assert np.array_equal(preds.keyframes,
                          np.argmax(provisional.pnr_logits.data, axis=1))
    assert np.array_equal(preds.oscc_logits.data, provisional.oscc_logits.data)
    assert np.array_equal(preds.pnr_logits.data, provisional.pnr_logits.data)
    # detections and attention come from the pass at those keyframes
    final = dec.decode(feats, preds.keyframes)
    assert np.array_equal(preds.scod_logits.data, final.scod_logits.data)
    assert np.array_equal(preds.scod_boxes.data, final.scod_boxes.data)
    for a, b in zip(preds.attention, final.attention):
        for field in ("self_attn", "temporal", "spatial"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


@pytest.mark.parametrize("layers", [1, 2])
def test_infer_leaves_out_only_the_provisional_last_detection_block(
        layers, monkeypatch):
    """Of the 3 attention calls per layer and pass, infer skips three: the
    mid-frame pass's last detection block, which no head it runs reads,
    and the final pass's layer-0 self and temporal blocks, which read no
    keyframe and so are shared with the mid-frame pass. Its outputs still
    equal two full decodes', and the final pass returns every block of
    every layer, its layer-0 weights the very arrays the shared blocks
    returned."""
    dec = _decoder(37, layers=layers)
    feats = _features(38, batch=2)
    calls = []
    for name in ("self_attention", "cross_attention"):
        real = getattr(decoder_module, name)

        def counted(*args, real=real, name=name, **kwargs):
            out = real(*args, **kwargs)
            calls.append((name, out[1]))
            return out

        monkeypatch.setattr(decoder_module, name, counted)
    preds = dec.infer(feats)
    assert len(calls) == 2 * 3 * layers - 3
    # The shared prefix runs first: layer 0's self, then temporal block.
    assert [name for name, _ in calls[:2]] == ["self_attention",
                                               "cross_attention"]
    assert preds.attention[0].self_attn is calls[0][1]
    assert preds.attention[0].temporal is calls[1][1]
    provisional = dec.decode(feats, [T // 2, T // 2])
    final = dec.decode(feats, preds.keyframes)
    for got, want in ((preds.oscc_logits, provisional.oscc_logits),
                      (preds.pnr_logits, provisional.pnr_logits),
                      (preds.scod_logits, final.scod_logits),
                      (preds.scod_boxes, final.scod_boxes)):
        assert np.array_equal(got.data, want.data)
    assert len(preds.attention) == len(final.attention) == layers
    for a, b in zip(preds.attention, final.attention):
        for field in ("self_attn", "temporal", "spatial"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


@pytest.mark.parametrize("tasks", [("oscc", "pnr", "scod"), ("oscc", "scod"),
                                   ("pnr",)])
def test_infer_runs_each_head_group_once(tasks, monkeypatch):
    """The provisional pass runs only the temporal groups, the final pass
    only detection; without the keyframe task one pass runs them all."""
    dec = _decoder(35, enabled_tasks=tasks)
    feats = _features(36, batch=2)
    calls = []

    def counted(task, forward):
        def run(tokens):
            calls.append(task)
            return forward(tokens)
        return run

    for task, group in dec.heads.items():
        monkeypatch.setattr(group, "forward", counted(task, group.forward))
    preds = dec.infer(feats)
    assert sorted(calls) == sorted(tasks)
    if "pnr" not in tasks:
        mid = dec.decode(feats, [T // 2, T // 2])
        assert all(np.array_equal(a.data, b.data)
                   for a, b in zip(preds.outputs(), mid.outputs()))


def test_config_validation():
    with pytest.raises(ShapeError):
        DecoderConfig(layers=0)
    with pytest.raises(ShapeError):
        DecoderConfig(width=10, heads=4)
    with pytest.raises(ShapeError):
        ClipFeatures(h_frames=tl.zeros((1, 1, D)), slabs=tl.zeros((1, P, D)),
                     patches=P)  # at least two frames
    with pytest.raises(ShapeError):
        ClipFeatures(h_frames=tl.zeros((T, D)), slabs=tl.zeros((T, P, D)),
                     patches=P)  # the batch axis is required
    with pytest.raises(ShapeError):
        ClipFeatures(h_frames=tl.zeros((2, T, D)), slabs=tl.zeros((T, P, D)),
                     patches=P)  # a slab for every frame of every clip
    with pytest.raises(ShapeError):
        ClipFeatures(h_frames=tl.zeros((2, T, D)), slabs=tl.zeros((2 * T, D)),
                     patches=P)  # slabs are [B*T, S, D]
    with pytest.raises(ShapeError):
        ClipFeatures(h_frames=tl.zeros((1, T, D)),
                     slabs=tl.zeros((T + 1, P, D)),
                     patches=P)  # a slab row per frame


# Sizes below 1 given to the constructors directly (the CLI's TrainConfig
# refuses them first); each ended in a ZeroDivisionError or, a width of 0,
# was accepted.
SIZES_BELOW_1 = [
    (lambda: DecoderConfig(heads=0), "heads must be >= 1, got 0"),
    (lambda: DecoderConfig(width=0), "width must be >= 1, got 0"),
    (lambda: DecoderConfig(patches=-1), "patches must be >= 1, got -1"),
    (lambda: DecoderConfig(mlp_hidden=0), "mlp_hidden must be >= 1, got 0"),
    (lambda: build_encoder("per_frame_token", rng_for(0, "e"), patch=0),
     "patch must be >= 1, got 0"),
    (lambda: build_encoder("conv_grid", rng_for(0, "e"), width=0),
     "width must be >= 1, got 0"),
    (lambda: build_encoder("clip_token", rng_for(0, "e"), heads=0),
     "heads must be >= 1, got 0"),
    (lambda: build_encoder("clip_token", rng_for(0, "e"), image=-32),
     "image must be >= 1, got -32"),
]


@pytest.mark.parametrize("build, message", SIZES_BELOW_1, ids=[
    "decoder_heads", "decoder_width", "decoder_patches", "decoder_mlp_hidden",
    "per_frame_token_patch", "conv_grid_width",
    "clip_token_heads", "clip_token_image"])
def test_a_size_below_1_is_a_shape_error_naming_its_field(build, message):
    with pytest.raises(ShapeError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("kind", ["per_frame_token", "clip_token",
                                  "conv_grid"])
def test_an_encoder_refuses_heads_that_do_not_divide_its_width(kind):
    """Building the encoder is where a head count its attention blocks
    cannot split the width into is refused, before any draw."""
    with pytest.raises(ShapeError, match="^width 16 not divisible by 3 "
                                         "heads$"):
        build_encoder(kind, rng_for(0, "e"), width=16, heads=3)


def test_slabs_of_another_width_need_patch_rows():
    """Slabs of another width than the decoder's, such as raw patches,
    give keyframe patch rows only with the function that makes patch rows
    of them."""
    h_frames, slabs = tl.zeros((1, T, D)), tl.zeros((T, P, 3 * D))
    feats = ClipFeatures(h_frames=h_frames, slabs=slabs, patches=P)
    with pytest.raises(ShapeError, match=r"\(1, 4, 24\) != \(1, 4, 8\)"):
        feats.keyframe_patches(np.array([1]))
    feats = ClipFeatures(h_frames=h_frames, slabs=slabs, patches=P,
                         patch_rows=lambda s: tl.narrow(s, 2, 0, D))
    assert feats.keyframe_patches(np.array([1])).shape == (1, P, D)


def test_keyframe_patch_rows_must_have_the_declared_shape():
    feats = _features(40)
    feats.patch_rows = lambda slabs: tl.narrow(slabs, 1, 0, P - 1)
    with pytest.raises(ShapeError, match="keyframe patch rows"):
        feats.keyframe_patches([1])

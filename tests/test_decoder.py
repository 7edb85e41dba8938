import numpy as np
import pytest

from taskfusion import tensor as tl
from taskfusion.attention import PositionalEncoding
from taskfusion.decoder import (ClipFeatures, DecoderConfig, KeyframeSpec,
                                StateError, TaskFusionDecoder, TOKEN_COUNT,
                                argmax_first, build_temporal_memory,
                                select_keyframe)
from taskfusion.losses import (ClipLabels, LabeledBox, SigmaParams, TASK_ORDER,
                               joint_loss, make_pnr_targets, oscc_loss,
                               pnr_loss, scod_loss)
from taskfusion.seeding import rng_for
from taskfusion.tensor import ContractError, ShapeError, backward

T, P, D = 4, 4, 8


def _features(seed=0, per_frame=True, scale=0.5, batch=1):
    rng = rng_for(seed, "feat")
    c = T if per_frame else 1
    return ClipFeatures(
        h_cls=tl.tensor(rng.standard_normal((batch, c, D)) * scale),
        h_total=tl.tensor(rng.standard_normal((batch, T, P, D)) * scale),
        frames=T, patches=P)


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
    pe = PositionalEncoding(T + 1, D)
    feats = _features(1)
    h_t = build_temporal_memory(feats, pe)
    delta = h_t.data - feats.h_cls.data
    assert np.allclose(delta, pe.table.data[:T], atol=0)


def test_temporal_memory_zero_cls_is_position_table():
    pe = PositionalEncoding(T + 1, D)
    feats = ClipFeatures(h_cls=tl.zeros((1, T, D)),
                         h_total=tl.zeros((1, T, P, D)), frames=T, patches=P)
    h_t = build_temporal_memory(feats, pe)
    assert np.array_equal(h_t.data[0], pe.table.data[:T])


def test_temporal_memory_clip_level_pools_patches():
    pe = PositionalEncoding(T + 1, D)
    rng = rng_for(2, "pool")
    per_frame_const = rng.standard_normal((T, 1, D))
    h_total = np.repeat(per_frame_const, P, axis=1)
    feats = ClipFeatures(h_cls=tl.tensor(rng.standard_normal((1, 1, D))),
                         h_total=tl.tensor(h_total[None]), frames=T, patches=P)
    h_t = build_temporal_memory(feats, pe)
    expected = per_frame_const[:, 0, :] + pe.table.data[:T]
    assert np.allclose(h_t.data[0], expected, atol=1e-15)


def test_select_keyframe_train_uses_label():
    pe = PositionalEncoding(P + 1, D)
    feats = _features(3, batch=2)
    h_s, ks = select_keyframe(feats, pe, KeyframeSpec.train([2, 0]))
    assert list(ks) == [2, 0]
    for b, k in enumerate(ks):
        assert np.allclose(h_s.data[b],
                           feats.h_total.data[b, k] + pe.table.data[:P], atol=0)


def test_select_keyframe_no_change_uses_mid_frame():
    pe = PositionalEncoding(P + 1, D)
    _, ks = select_keyframe(_features(4, batch=2), pe,
                            KeyframeSpec.train([None, 1]))
    assert list(ks) == [T // 2, 1]


def test_select_keyframe_infer_argmax_and_ties():
    pe = PositionalEncoding(P + 1, D)
    one_hot = np.zeros((2, T))
    one_hot[0, 3] = 5.0  # row 1 is uniform: the tie breaks to index 0
    _, ks = select_keyframe(_features(5, batch=2), pe,
                            KeyframeSpec.infer(one_hot))
    assert list(ks) == [3, 0]


def test_select_keyframe_contract_errors():
    pe = PositionalEncoding(P + 1, D)
    for spec in (KeyframeSpec(mode="train"), KeyframeSpec(mode="infer"),
                 KeyframeSpec.train([1, 2]),            # two labels, one clip
                 KeyframeSpec.train([T]),               # label out of range
                 KeyframeSpec.infer(np.zeros((1, 16))),  # logits not [1, T]
                 KeyframeSpec(mode="guess")):
        with pytest.raises(ContractError):
            select_keyframe(_features(6), pe, spec)


def test_argmax_first_tie_break():
    assert argmax_first(np.array([1.0, 3.0, 3.0, 0.0])) == 1


def test_constant_network_outputs_head_biases():
    dec = _decoder(7)
    for name, p in dec.parameters().items():
        p.data[...] = 0.0
    rng = rng_for(8, "bias")
    for group in dec.heads.values():
        group.b2.data[...] = rng.standard_normal(group.b2.shape)
    preds_a = dec.decode(_features(9), KeyframeSpec.train([1]))
    preds_b = dec.decode(_features(10, scale=2.0), KeyframeSpec.train([3]))
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
                           KeyframeSpec.train([0] * batch))
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
    preds = dec.decode(_features(14), KeyframeSpec.train([1]))
    assert preds.oscc_logits.shape == (1, 2)
    assert not preds.has("pnr")
    for get in (lambda: preds.pnr_logits, lambda: preds.scod_logits,
                lambda: preds.scod_boxes, lambda: preds.clip(0).scod):
        with pytest.raises(ContractError):
            get()


def test_token_role_stability():
    # zeroing the OSCC head's weights changes only oscc_logits
    feats = _features(15)
    dec = _decoder(16)
    before = dec.decode(feats, KeyframeSpec.train([1]))
    head = dec.heads["oscc"]
    head.w1.data[...] = 0.0
    head.w2.data[...] = 0.0
    head.b1.data[...] = 0.0
    head.b2.data[...] = 0.0
    after = dec.decode(feats, KeyframeSpec.train([1]))
    assert not np.array_equal(before.oscc_logits.data, after.oscc_logits.data)
    assert np.array_equal(before.pnr_logits.data, after.pnr_logits.data)
    assert np.array_equal(before.scod_logits.data, after.scod_logits.data)
    assert np.array_equal(before.scod_boxes.data, after.scod_boxes.data)


def _shifted_patches(feats):
    return ClipFeatures(h_cls=tl.tensor(feats.h_cls.data.copy()),
                        h_total=tl.tensor(feats.h_total.data + 3.0),
                        frames=T, patches=P)


def test_stream_separation_with_identity_self_attention():
    # one layer, self-attention ablated: temporal outputs cannot see h_s
    dec = _decoder(17, layers=1, self_attention_identity=True)
    feats = _features(18)
    base = dec.decode(feats, KeyframeSpec.train([1]))
    moved = dec.decode(_shifted_patches(feats), KeyframeSpec.train([1]))
    assert np.array_equal(base.oscc_logits.data, moved.oscc_logits.data)
    assert np.array_equal(base.pnr_logits.data, moved.pnr_logits.data)


def test_task_fusion_crosses_streams_with_self_attention():
    # with self-attention active (N=2), spatial memory reaches the
    # temporal heads: the cross-task information flow the model is for
    dec = _decoder(19)
    feats = _features(20)
    base = dec.decode(feats, KeyframeSpec.train([1]))
    moved = dec.decode(_shifted_patches(feats), KeyframeSpec.train([1]))
    assert not np.array_equal(base.pnr_logits.data, moved.pnr_logits.data)
    assert not np.array_equal(base.oscc_logits.data, moved.oscc_logits.data)


def test_decode_deterministic():
    dec = _decoder(21)
    feats = _features(22)
    a = dec.decode(feats, KeyframeSpec.train([2]))
    b = dec.decode(feats, KeyframeSpec.train([2]))
    assert np.array_equal(a.oscc_logits.data, b.oscc_logits.data)
    assert np.array_equal(a.pnr_logits.data, b.pnr_logits.data)


def _clip_slice(feats, b):
    return ClipFeatures(h_cls=tl.tensor(feats.h_cls.data[b:b + 1].copy()),
                        h_total=tl.tensor(feats.h_total.data[b:b + 1].copy()),
                        frames=T, patches=P)


def test_batched_decode_matches_single_clip_decodes():
    for per_frame in (True, False):
        dec = _decoder(33)
        feats = _features(34, per_frame=per_frame, batch=3)
        labels = [2, None, 0]
        batched = dec.decode(feats, KeyframeSpec.train(labels),
                             cache_attention=True)
        batched_attention = [dec.export_attention(b) for b in range(3)]
        for b, k in enumerate(labels):
            single = dec.decode(_clip_slice(feats, b), KeyframeSpec.train([k]),
                                cache_attention=True)
            for name in ("oscc_logits", "pnr_logits", "scod_logits",
                         "scod_boxes"):
                got = getattr(batched, name).data[b]
                want = getattr(single, name).data[0]
                assert np.max(np.abs(got - want)) <= 1e-12, name
            assert batched.keyframes[b] == single.keyframes[0]
            for lb, ls in zip(batched_attention[b], dec.export_attention()):
                for field in ("self_attn", "temporal", "spatial"):
                    assert np.max(np.abs(getattr(lb, field)
                                         - getattr(ls, field))) <= 1e-12


def test_all_heads_receive_gradients_from_joint_loss():
    dec = _decoder(23)
    feats = _features(24)
    labels = _labels()
    preds = dec.decode(feats, KeyframeSpec.train([labels.pnr_frame]))
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


def test_export_attention_shapes_and_row_sums():
    dec = _decoder(25)
    feats = _features(26)
    dec.decode(feats, KeyframeSpec.train([1]), cache_attention=True)
    layers = dec.export_attention()
    assert len(layers) == 2
    for layer in layers:
        assert layer.self_attn.shape == (2, TOKEN_COUNT, TOKEN_COUNT)
        assert layer.temporal.shape == (2, 2, T)
        assert layer.spatial.shape == (2, 8, P)
        for mat in (layer.self_attn, layer.temporal, layer.spatial):
            assert np.max(np.abs(mat.sum(axis=-1) - 1.0)) <= 1e-12


def test_export_attention_single_layer_count():
    dec = _decoder(27, layers=1)
    dec.decode(_features(28), KeyframeSpec.train([1]), cache_attention=True)
    layers = dec.export_attention()
    assert len(layers) == 1
    assert layers[0].self_attn.shape[1:] == (10, 10)


def test_export_attention_state_error_when_cleared():
    dec = _decoder(29)
    with pytest.raises(StateError):
        dec.export_attention()
    dec.decode(_features(30), KeyframeSpec.train([1]), cache_attention=True)
    dec.export_attention()
    dec.clear_attention_cache()
    with pytest.raises(StateError):
        dec.export_attention()


def test_infer_two_pass_keyframe_follows_pnr_argmax():
    dec = _decoder(31)
    feats = _features(32, batch=2)
    preds = dec.infer(feats)
    provisional = dec.decode(feats, KeyframeSpec.train([None, None]))
    for b in range(2):
        assert preds.keyframes[b] == argmax_first(provisional.pnr_logits.data[b])
    assert np.array_equal(preds.pnr_logits.data, provisional.pnr_logits.data)


def test_config_validation():
    with pytest.raises(ShapeError):
        DecoderConfig(layers=0)
    with pytest.raises(ShapeError):
        DecoderConfig(width=10, heads=4)
    with pytest.raises(ShapeError):
        ClipFeatures(h_cls=tl.zeros((1, 2, D)), h_total=tl.zeros((1, T, P, D)),
                     frames=T, patches=P)  # c must be 1 or T
    with pytest.raises(ShapeError):
        ClipFeatures(h_cls=tl.zeros((T, D)), h_total=tl.zeros((T, P, D)),
                     frames=T, patches=P)  # the batch axis is required

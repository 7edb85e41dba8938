import math

import numpy as np
import pytest

from taskfusion import losses
from taskfusion import tensor as tl
from taskfusion.losses import (LAMBDA_CLS, LAMBDA_GIOU, LAMBDA_L1,
                               ClipLabels, LabeledBox, LabelError, PnrTarget,
                               SigmaParams, TASK_ORDER, cross_entropy,
                               iou_giou, joint_loss, make_pnr_targets,
                               match_queries, oscc_loss, pnr_loss, scod_loss)
from taskfusion.seeding import rng_for
from taskfusion.tensor import ContractError, DomainError, backward, grad_check
from taskfusion.trainer import AdamState, ParamStore, adam_step

from oracles import brute_force_assign, iou_giou_values


def test_oscc_uniform_logits_is_ln2():
    for label in (True, False):
        loss = oscc_loss(tl.constant([0.0, 0.0]), label)
        assert abs(loss.item() - math.log(2)) <= 1e-12


def test_oscc_confident_correct_is_tiny():
    loss = oscc_loss(tl.constant([20.0, -20.0]), True)  # class 0 = change
    assert loss.item() <= 1e-8


def test_oscc_matches_scalar_oracle():
    rng = rng_for(1, "oscc")
    for _ in range(50):
        logits = rng.standard_normal(2) * 3
        label = bool(rng.integers(0, 2))
        # independent scalar evaluation
        e = np.exp(logits - logits.max())
        p = e / e.sum()
        expected = -math.log(p[0 if label else 1])
        got = oscc_loss(tl.constant(logits), label).item()
        assert abs(got - expected) <= 1e-12


def test_pnr_target_one_hot():
    labels = ClipLabels(True, pnr_frame=5,
                        boxes=[LabeledBox("hand", (0.5, 0.5, 0.2, 0.2))])
    target = make_pnr_targets([labels], 16)
    expected = np.zeros((1, 16))
    expected[0, 5] = 1.0
    assert np.array_equal(target.dist, expected)


def test_pnr_target_uniform_no_change():
    target = make_pnr_targets([ClipLabels(False)], 16)
    assert np.allclose(target.dist, 0.0625, atol=0)


def test_pnr_target_always_sums_to_one():
    rng = rng_for(2, "target")
    for _ in range(100):
        t = int(rng.integers(2, 30))
        if rng.random() < 0.5:
            labels = ClipLabels(True, pnr_frame=int(rng.integers(0, t)),
                                boxes=[LabeledBox("hand", (0.5, 0.5, 0.1, 0.1))])
        else:
            labels = ClipLabels(False)
        assert abs(make_pnr_targets([labels], t).dist.sum() - 1.0) <= 1e-12


def test_pnr_target_frame_out_of_range():
    labels = ClipLabels(True, pnr_frame=16,
                        boxes=[LabeledBox("hand", (0.5, 0.5, 0.2, 0.2))])
    with pytest.raises(LabelError):
        make_pnr_targets([labels], 16)


def test_pnr_loss_zero_when_distributions_match():
    target = PnrTarget(np.full(8, 0.125))
    loss = pnr_loss(tl.constant(np.zeros(8)), target)
    assert abs(loss.item()) <= 1e-12


def test_pnr_loss_one_hot_reduces_to_nll():
    rng = rng_for(3, "pnr")
    for _ in range(30):
        logits = rng.standard_normal(10) * 2
        k = int(rng.integers(0, 10))
        dist = np.zeros(10)
        dist[k] = 1.0
        got = pnr_loss(tl.constant(logits), PnrTarget(dist)).item()
        e = np.exp(logits - logits.max())
        expected = -math.log(e[k] / e.sum())
        assert abs(got - expected) <= 1e-12


def test_pnr_loss_matches_scalar_oracle_uniform_target():
    rng = rng_for(4, "pnr2")
    for _ in range(30):
        t = 12
        logits = rng.standard_normal(t) * 3
        target = np.full(t, 1.0 / t)
        e = np.exp(logits - logits.max())
        p = e / e.sum()
        expected = float(np.sum(target * (np.log(target) - np.log(p))))
        got = pnr_loss(tl.constant(logits), PnrTarget(target)).item()
        assert abs(got - expected) <= 1e-12


def test_pnr_loss_nonnegative():
    rng = rng_for(5, "pnr3")
    for _ in range(50):
        logits = rng.standard_normal(6) * 4
        dist = rng.uniform(0.01, 1.0, 6)
        dist /= dist.sum()
        assert pnr_loss(tl.constant(logits), PnrTarget(dist)).item() >= 0


def test_giou_identical_boxes():
    box = tl.constant([0.4, 0.6, 0.3, 0.2])
    assert [t.item() for t in iou_giou(box, box)] == [1.0, 1.0]


def test_giou_disjoint_boxes_geometric_oracle():
    a = (0.25, 0.25, 0.2, 0.2)
    b = (0.75, 0.75, 0.2, 0.2)
    # independent area bookkeeping: IoU = 0; hull spans the outer corners
    hull_w = (0.75 + 0.1) - (0.25 - 0.1)
    hull = hull_w * hull_w
    union = 2 * 0.2 * 0.2
    expected = 0.0 - (hull - union) / hull
    got = iou_giou(tl.constant(a), tl.constant(b))[1].item()
    assert abs(got - expected) <= 1e-15


def test_giou_concentric_containment():
    outer = tl.constant([0.5, 0.5, 0.4, 0.4])
    inner = tl.constant([0.5, 0.5, 0.4 / math.sqrt(2), 0.4 / math.sqrt(2)])
    # half the area, concentric: IoU = 0.5 and the hull is the outer box
    assert iou_giou(inner, outer)[1].item() == pytest.approx(0.5, abs=1e-12)


def test_giou_symmetric_and_bounded():
    rng = rng_for(6, "giou")
    for _ in range(100):
        a = np.concatenate([rng.uniform(0.2, 0.8, 2), rng.uniform(0.05, 0.4, 2)])
        b = np.concatenate([rng.uniform(0.2, 0.8, 2), rng.uniform(0.05, 0.4, 2)])
        ab = iou_giou(tl.constant(a), tl.constant(b))[1].item()
        ba = iou_giou(tl.constant(b), tl.constant(a))[1].item()
        assert abs(ab - ba) <= 1e-15
        assert -1.0 < ab <= 1.0


def test_giou_degenerate_box_rejected():
    with pytest.raises(DomainError):
        iou_giou(tl.constant([0.5, 0.5, 0.0, 0.2]),
                 tl.constant([0.5, 0.5, 0.2, 0.2]))
    with pytest.raises(DomainError):
        iou_giou(tl.constant([0.5, 0.5, 0.2, 0.2]),
                 tl.constant([0.5, 0.5, 0.2, 0.0]))


def test_giou_row_wise_matches_scalar_values():
    rng = rng_for(11, "giou-rows")
    a = np.concatenate([rng.uniform(0.2, 0.8, (3, 5, 2)),
                        rng.uniform(0.05, 0.4, (3, 5, 2))], axis=-1)
    b = np.concatenate([rng.uniform(0.2, 0.8, (3, 5, 2)),
                        rng.uniform(0.05, 0.4, (3, 5, 2))], axis=-1)
    iou, got = (t.data for t in iou_giou(tl.constant(a), tl.constant(b)))
    assert got.shape == (3, 5)
    for i in range(3):
        for j in range(5):
            want = iou_giou_values(tuple(a[i, j]), tuple(b[i, j]))
            assert (iou[i, j], got[i, j]) == want


def test_batched_oscc_and_pnr_are_row_means():
    rng = rng_for(12, "rows")
    logits = rng.standard_normal((5, 2)) * 2
    flags = [True, False, False, True, True]
    batched = oscc_loss(tl.constant(logits), flags).item()
    rows = [oscc_loss(tl.constant(x), f).item() for x, f in zip(logits, flags)]
    assert abs(batched - np.mean(rows)) <= 1e-15
    logits = rng.standard_normal((4, 6)) * 2
    dist = rng.uniform(0.0, 1.0, (4, 6))
    dist[1] = 0.0
    dist[1, 2] = 1.0
    dist /= dist.sum(axis=1, keepdims=True)
    batched = pnr_loss(tl.constant(logits), PnrTarget(dist)).item()
    rows = [pnr_loss(tl.constant(x), PnrTarget(t)).item()
            for x, t in zip(logits, dist)]
    assert abs(batched - np.mean(rows)) <= 1e-14


def _queries_from(boxes, classes, confident=True, rng=None):
    """One clip's query outputs: class logits [1, Q, 3], boxes [1, Q, 4]."""
    logits = []
    for cls in classes:
        row = np.full(3, -12.0) if confident else rng.standard_normal(3)
        if confident:
            row[cls] = 12.0
        logits.append(row)
    return (tl.constant(np.asarray(logits)[None]),
            tl.constant(np.asarray(boxes, dtype=np.float64)[None]))


def _two_box_labels():
    return ClipLabels(True, pnr_frame=2, boxes=[
        LabeledBox("hand", (0.3, 0.3, 0.2, 0.25)),
        LabeledBox("object", (0.7, 0.6, 0.3, 0.2))])


def _random_queries(rng):
    boxes = [np.concatenate([rng.uniform(0.2, 0.8, 2),
                             rng.uniform(0.1, 0.35, 2)]) for _ in range(8)]
    classes = [int(rng.integers(0, 3)) for _ in range(8)]
    return _queries_from(boxes, classes, confident=False, rng=rng)


def test_scod_perfect_prediction_loss_near_zero():
    labels = ClipLabels(True, pnr_frame=3, boxes=[
        LabeledBox("hand", (0.3, 0.4, 0.2, 0.2)),
        LabeledBox("object", (0.65, 0.6, 0.25, 0.3))])
    boxes = [b.box for b in labels.boxes] + [(0.5, 0.5, 0.2, 0.2)] * 6
    classes = [0, 1] + [2] * 6
    logits, boxes = _queries_from(boxes, classes)
    assert scod_loss(logits, boxes, [labels]).item() <= 1e-6


def test_scod_single_box_match_agrees_with_brute_force():
    rng = rng_for(7, "scod")
    for _ in range(20):
        labels = ClipLabels(True, pnr_frame=1, boxes=[
            LabeledBox("hand", tuple(np.concatenate(
                [rng.uniform(0.3, 0.7, 2), rng.uniform(0.1, 0.3, 2)])))])
        logits, boxes = _queries_from(
            [np.concatenate([rng.uniform(0.3, 0.7, 2),
                             rng.uniform(0.1, 0.3, 2)]) for _ in range(8)],
            [int(rng.integers(0, 3)) for _ in range(8)],
            confident=False, rng=rng)
        match = match_queries(logits, boxes, [labels])
        # oracle: the cost of each query on its own, exhaustive minimum
        gt = labels.boxes[0]
        costs = np.zeros((1, 8))
        for j in range(8):
            row = logits.data[0, j]
            prob = np.exp(row[gt.class_index]) / np.exp(row).sum()
            box = boxes.data[0, j]
            l1 = float(np.abs(box - np.asarray(gt.box)).sum())
            _, g = iou_giou_values(tuple(box), gt.box)
            costs[0, j] = -LAMBDA_CLS * prob + LAMBDA_L1 * l1 + LAMBDA_GIOU * (1 - g)
        _, oracle = brute_force_assign(costs)
        assert list(match.clips) == [0]
        assert costs[0, match.queries[0]] == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_match_costs_equal_the_numpy_formulas(dtype, monkeypatch,
                                              recorded_nodes):
    """The costs the matcher hands the solver, from float32 or float64
    outputs: class probabilities in the outputs' dtype, the L1 and GIoU
    box terms in float64, bit for bit the numpy formulas, also on boxes
    equal to or nested in a ground-truth box. No tape node is recorded."""
    costs = []
    solve = losses.hungarian

    def spy(c, counts):
        costs.append(c)
        return solve(c, counts)

    monkeypatch.setattr(losses, "hungarian", spy)
    rng = rng_for(13, "match-costs")
    labels = [_two_box_labels(), ClipLabels(False),
              ClipLabels(True, pnr_frame=1, boxes=[
                  LabeledBox("object", (0.0, 0.0, 0.5, 1.0))])]
    pred = np.concatenate([rng.uniform(0.2, 0.8, (3, 8, 2)),
                           rng.uniform(0.05, 0.4, (3, 8, 2))], axis=-1)
    pred[0, 0] = labels[0].boxes[0].box
    pred[0, 1] = (0.7, 0.6, 0.2, 0.1)
    pred[2, 0] = (0.3516211874727259, 0.0, 0.3516211874727259, 1.0)
    with tl.precision(dtype):
        logits, boxes = (tl.tensor(x, requires_grad=True) for x in (
            rng.standard_normal((3, 8, 3)) * 2, pred))
        match_queries(logits, boxes, labels)
    assert recorded_nodes == []

    x = logits.data
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    prob = e / np.sum(e, axis=-1, keepdims=True)
    gt = np.full((3, 2, 4), 0.5)
    gt_class = np.zeros((3, 2), dtype=np.intp)
    for i, lab in enumerate(labels):
        for j, box in enumerate(lab.boxes):
            gt[i, j], gt_class[i, j] = box.box, box.class_index
    prob_gt = np.take_along_axis(prob, gt_class[:, None, :], axis=2)
    l1 = np.abs(boxes.data[:, None] - gt[:, :, None]).sum(axis=-1)
    _, g = iou_giou_values(boxes.data[:, None], gt[:, :, None])
    want = (LAMBDA_CLS * (-np.swapaxes(prob_gt, 1, 2)) + LAMBDA_L1 * l1
            + LAMBDA_GIOU * (1.0 - g))
    assert len(costs) == 1 and costs[0].dtype == np.float64
    assert np.array_equal(costs[0], want)


def test_scod_query_permutation_invariance():
    rng = rng_for(8, "perm")
    labels = _two_box_labels()
    for _ in range(10):
        logits, boxes = _random_queries(rng)
        base = scod_loss(logits, boxes, [labels]).item()
        perm = rng.permutation(8)
        permuted = scod_loss(tl.constant(logits.data[:, perm]),
                             tl.constant(boxes.data[:, perm]), [labels]).item()
        assert abs(permuted - base) <= 1e-12


def test_scod_masks_no_change_clips():
    rng = rng_for(13, "mask")
    labels = _two_box_labels()
    logits, boxes = _random_queries(rng)
    alone = scod_loss(logits, boxes, [labels]).item()
    other_logits, other_boxes = _random_queries(rng)
    batch_logits = tl.tensor(np.concatenate([other_logits.data, logits.data]),
                             requires_grad=True)
    batch_boxes = tl.tensor(np.concatenate([other_boxes.data, boxes.data]),
                            requires_grad=True)
    loss = scod_loss(batch_logits, batch_boxes, [ClipLabels(False), labels])
    assert abs(loss.item() - alone) <= 1e-12
    backward(loss)
    assert not np.any(batch_logits.grad[0]) and not np.any(batch_boxes.grad[0])
    assert np.any(batch_logits.grad[1]) and np.any(batch_boxes.grad[1])
    # two change clips average: the loss is a mean over change clips
    pair = scod_loss(tl.constant(np.concatenate([logits.data, logits.data])),
                     tl.constant(np.concatenate([boxes.data, boxes.data])),
                     [labels, labels])
    assert abs(pair.item() - alone) <= 1e-12


def test_scod_requires_boxes():
    with pytest.raises(ContractError):
        scod_loss(tl.zeros((1, 8, 3)), tl.constant(np.full((1, 8, 4), 0.5)),
                  [ClipLabels(False)])


def test_scod_gradients_pass_check_with_fixed_match():
    rng = rng_for(9, "scodgc")
    labels = [ClipLabels(True, pnr_frame=1, boxes=[
        LabeledBox("hand", (0.31, 0.42, 0.22, 0.18))])]
    cls_leaf = tl.tensor(rng.standard_normal((1, 3, 3)), requires_grad=True)
    box_raw = tl.tensor(rng.uniform(-1.5, 1.5, (1, 3, 4)), requires_grad=True)
    fixed = match_queries(cls_leaf, tl.sigmoid(box_raw), labels)

    def f(c, b):
        return scod_loss(c, tl.sigmoid(b), labels, match=fixed)

    report = grad_check(f, [cls_leaf, box_raw], eps=1e-5, tol=1e-4)
    assert report.passed, str(report)


def test_joint_loss_sigma_one_halves_sum():
    sigma = SigmaParams.init()  # s = 0 -> sigma^2 = 1
    parts = {"oscc": tl.constant(1.0), "pnr": tl.constant(4.0),
             "scod": tl.constant(9.0)}
    total = joint_loss(parts, sigma, TASK_ORDER)
    assert total.item() == pytest.approx(7.0, abs=1e-12)


def test_joint_loss_single_task():
    sigma = SigmaParams.init()
    total = joint_loss({"oscc": tl.constant(2.0)}, sigma, ("oscc",))
    assert total.item() == pytest.approx(1.0, abs=1e-12)


def test_joint_loss_requires_enabled_parts():
    sigma = SigmaParams.init()
    with pytest.raises(ContractError):
        joint_loss({}, sigma, ())
    with pytest.raises(ContractError):
        joint_loss({"oscc": tl.constant(1.0)}, sigma, ("oscc", "pnr"))


def test_joint_loss_stationarity_sigma_learns_loss_scale():
    # minimizing over s alone settles at sigma_i^2 = L_i
    fixed = {"oscc": tl.constant(1.0), "pnr": tl.constant(4.0),
             "scod": tl.constant(9.0)}
    sigma = SigmaParams.init()
    store = ParamStore()
    store.register("sigma.s", sigma.s)
    adam = AdamState(lr=0.01)
    for _ in range(2000):
        total = joint_loss(fixed, sigma, TASK_ORDER)
        backward(total)
        adam_step(store, adam)
    sigma2 = sigma.sigma2()
    for got, want in zip(sigma2, (1.0, 4.0, 9.0)):
        assert abs(got - want) / want <= 0.01, sigma2


def test_losses_nonnegative_and_kl_zero_iff_match():
    rng = rng_for(10, "nonneg")
    for _ in range(50):
        logits = rng.standard_normal(2) * 2
        assert oscc_loss(tl.constant(logits), bool(rng.integers(0, 2))).item() >= 0
    # KL argument order: zero only when p equals the target exactly
    dist = np.array([0.7, 0.2, 0.1])
    loss = pnr_loss(tl.constant(np.log(dist)), PnrTarget(dist))
    assert abs(loss.item()) <= 1e-12
    loss2 = pnr_loss(tl.constant(np.log(dist[::-1].copy())), PnrTarget(dist))
    assert loss2.item() > 0.1


def test_cross_entropy_label_bounds():
    with pytest.raises(ContractError):
        cross_entropy(tl.constant([0.0, 1.0]), 2)


def test_label_invariants():
    with pytest.raises(LabelError):
        ClipLabels(True)  # change without keyframe
    with pytest.raises(LabelError):
        ClipLabels(False, pnr_frame=3)
    with pytest.raises(LabelError):
        LabeledBox("hand", (0.5, 0.5, 0.0, 0.1))
    with pytest.raises(LabelError):
        LabeledBox("cup", (0.5, 0.5, 0.1, 0.1))

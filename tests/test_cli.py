"""The command-line contract, run in-process through ``cli.main`` at tiny
size (4 frames of 16 px, width 16, batch 4): downstream subcommands
rebuild the model from the checkpoint, malformed inputs exit 2 with a
message, and same-seed runs repeat byte for byte."""

import argparse
import json

import numpy as np
import pytest

from taskfusion import cli
from taskfusion import tensor as tl
from taskfusion.bc import ToyEnvConfig, bc_train, collect_demos, load_policy
from taskfusion.seeding import rng_for
from taskfusion.synth import build_encoder, read_dataset
from taskfusion.trainer import (TrainConfig, evaluate, load_checkpoint,
                                load_model, train)

MODEL_FLAGS = ["--width", "16", "--dec-heads", "2", "--enc-heads", "2",
               "--mlp-hidden", "16", "--batch-size", "4"]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A dataset, an oscc+scod model checkpoint, 16-px demos and a policy
    trained on that model."""
    d = tmp_path_factory.mktemp("cli")
    assert cli.main(["gen-data", "--count", "8", "--seed", "1", "--frames",
                     "4", "--image", "16", "--out", str(d / "data")]) == 0
    assert cli.main(["train", "--data", str(d / "data"), "--out-checkpoint",
                     str(d / "model.ckpt"), "--log", str(d / "log.csv"),
                     "--steps", "2", "--seed", "5", "--tasks", "oscc,scod",
                     *MODEL_FLAGS]) == 0
    assert cli.main(["bc-demos", "--count", "2", "--seed", "3",
                     "--env-image", "16", "--out", str(d / "demos")]) == 0
    assert cli.main(["bc-train", "--demos", str(d / "demos"), "--checkpoint",
                     str(d / "model.ckpt"), "--out-policy",
                     str(d / "policy.ckpt"), "--bc-steps", "3"]) == 0
    return d


def _csv_header(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.loads(f.readline()[2:])


def test_eval_rebuilds_the_trained_model(work, capsys):
    capsys.readouterr()
    assert cli.main(["eval", "--data", str(work / "data"), "--checkpoint",
                     str(work / "model.ckpt"), "--out",
                     str(work / "eval.csv")]) == 0
    printed = [line.split(",") for line in capsys.readouterr().out.split()]
    records = read_dataset(work / "data")
    config = TrainConfig(steps=2, batch_size=4, seed=5, width=16,
                         enabled_tasks=("oscc", "scod"), dec_heads=2,
                         enc_heads=2, mlp_hidden=16)
    expected = evaluate(train(records, config).model, records).rows()
    assert [name for name, _ in printed] == [name for name, _ in expected]
    assert not any("pnr" in name for name, _ in printed)
    assert [float(v) for _, v in printed] == [v for _, v in expected]
    assert (_csv_header(work / "eval.csv")["checkpoint"]
            == load_checkpoint(work / "model.ckpt").description)


def test_bc_eval_header_carries_both_descriptions(work):
    out = work / "bc_eval.csv"
    assert cli.main(["bc-eval", "--policy", str(work / "policy.ckpt"),
                     "--checkpoint", str(work / "model.ckpt"), "--episodes",
                     "1", "--horizon", "5", "--out", str(out)]) == 0
    header = _csv_header(out)
    assert header["checkpoint"]["kind"] == "model"
    assert header["policy"] == load_checkpoint(work /
                                               "policy.ckpt").description


def test_bc_train_on_untrained_checkpoint_uses_the_seed_init(work):
    ckpt, out = work / "init.ckpt", work / "init_policy.ckpt"
    assert cli.main(["train", "--data", str(work / "data"), "--out-checkpoint",
                     str(ckpt), "--log", str(work / "init.csv"), "--steps",
                     "0", "--seed", "7", *MODEL_FLAGS]) == 0
    assert cli.main(["bc-train", "--demos", str(work / "demos"),
                     "--checkpoint", str(ckpt), "--out-policy", str(out),
                     "--seed", "4", "--bc-steps", "5"]) == 0
    with tl.precision("float32"):  # train's default dtype
        enc = build_encoder("per_frame_token", rng_for(7, "init", "enc"),
                            width=16, heads=2, frames=4, image=16, patch=8)
    policy, _ = bc_train(collect_demos(2, 3, ToyEnvConfig(image=16)),
                         enc.embed_frame, steps=5, seed=4)
    loaded = load_checkpoint(out)
    for name, t in policy.store().items():
        assert np.array_equal(loaded[name].data, t.data), name


def _policy_without_encoder(work):
    """The policy checkpoint with the description of earlier versions,
    which record no encoder."""
    head, body = (work / "policy.ckpt").read_bytes().split(b"\n", 1)
    header = json.loads(head)
    del header["description"]["encoder"]
    path = work / "old_policy.ckpt"
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    return path


def test_bc_eval_refuses_an_encoder_the_policy_was_not_trained_on(work,
                                                                   capsys):
    """The fixture's policy against the same model trained from another
    seed, and a policy that records no encoder against the fixture's
    model."""
    twin = work / "model_seed6.ckpt"
    assert cli.main(["train", "--data", str(work / "data"), "--out-checkpoint",
                     str(twin), "--log", str(work / "log_seed6.csv"),
                     "--steps", "2", "--seed", "6", "--tasks", "oscc,scod",
                     *MODEL_FLAGS]) == 0
    capsys.readouterr()
    assert cli.main(["bc-eval", "--policy", str(work / "policy.ckpt"),
                     "--checkpoint", str(twin), "--episodes", "1"]) == 2
    err = capsys.readouterr().err
    want = load_policy(work / "policy.ckpt").encoder["sha256"]
    found = cli._encoder_record(load_model(twin))["sha256"]
    assert want != found
    assert ("the policy was trained on another encoder than the checkpoint "
            f"holds: sha256 {want} (policy) != {found} (checkpoint)") in err
    assert cli.main(["bc-eval", "--policy", str(_policy_without_encoder(work)),
                     "--checkpoint", str(work / "model.ckpt"), "--episodes",
                     "1"]) == 2
    assert ("the policy records no encoder; the checkpoint holds "
            "{'encoder': 'per_frame_token', 'width': 16, 'enc_heads': 2, "
            "'patch': 8, 'dtype': 'float32', 'frames': 4, 'image': 16, "
            "'sha256': ") in capsys.readouterr().err


def test_bc_eval_accepts_an_encoder_that_only_the_decoder_config_changes(
        work, capsys):
    """Two untrained checkpoints from one seed that differ only in their
    tasks, optimiser and decoder depth hold the same encoder."""
    paths = []
    for i, extra in enumerate((["--tasks", "oscc,scod"],
                               ["--tasks", "pnr", "--lr", "0.1",
                                "--layers", "1"])):
        paths.append(work / f"untrained{i}.ckpt")
        assert cli.main(["train", "--data", str(work / "data"),
                         "--out-checkpoint", str(paths[-1]), "--log",
                         str(work / f"untrained{i}.csv"), "--steps", "0",
                         "--seed", "7", *MODEL_FLAGS, *extra]) == 0
    assert cli.main(["bc-train", "--demos", str(work / "demos"),
                     "--checkpoint", str(paths[0]), "--out-policy",
                     str(work / "untrained_policy.ckpt"),
                     "--bc-steps", "2"]) == 0
    capsys.readouterr()
    rates = []
    for path in paths:
        assert cli.main(["bc-eval", "--policy",
                         str(work / "untrained_policy.ckpt"), "--checkpoint",
                         str(path), "--episodes", "1"]) == 0
        rates.append(capsys.readouterr().out)
    assert rates[0] == rates[1]


def test_bc_compare_builds_its_random_encoder_in_the_trained_dtype(
        work, monkeypatch, capsys):
    seen = []
    real = cli.compare_representations

    def spy(tuned_embed, random_embed, *args, **kwargs):
        seen.append((tuned_embed.__self__.dtype, random_embed.__self__.dtype))
        return real(tuned_embed, random_embed, *args, **kwargs)

    monkeypatch.setattr(cli, "compare_representations", spy)
    capsys.readouterr()
    assert cli.main(["bc-compare", "--data", str(work / "data"), "--steps",
                     "1", "--demo-count", "1", "--bc-steps", "2",
                     "--bc-seeds", "1", "--episodes", "1",
                     *MODEL_FLAGS]) == 0
    assert seen == [(np.dtype(np.float32), np.dtype(np.float32))]
    assert [line.split(",")[0] for line in capsys.readouterr().out.split()] \
        == ["fine_tuned_success", "random_init_success", "gap"]


def _flat_header_checkpoint(work):
    """The model checkpoint with the untagged header of earlier versions."""
    head, body = (work / "model.ckpt").read_bytes().split(b"\n", 1)
    path = work / "flat.ckpt"
    path.write_bytes(json.dumps(json.loads(head)["params"]).encode() + b"\n"
                     + body)
    return path


def _bad_label_dataset(work):
    lines = (work / "data").read_text().splitlines()
    raw = json.loads(lines[1])
    raw["labels"] = {"state_change": True, "pnr_frame": 1,
                     "boxes": [{"kind": "hand", "box": [2, 2, 0.1, 0.1]}]}
    path = work / "bad_label"
    path.write_text("\n".join([lines[0], json.dumps(raw)] + lines[2:]) + "\n")
    return path


def _demos_32px(work):
    path = work / "demos32"
    assert cli.main(["bc-demos", "--count", "1", "--seed", "3",
                     "--out", str(path)]) == 0
    return path


def _data_32px(work):
    path = work / "data32"
    assert cli.main(["gen-data", "--count", "2", "--seed", "1", "--frames",
                     "4", "--out", str(path)]) == 0
    return path


def _data_8_frames(work):
    path = work / "data8"
    assert cli.main(["gen-data", "--count", "2", "--seed", "1", "--frames",
                     "8", "--image", "16", "--out", str(path)]) == 0
    return path


def _nonfinite_checkpoint(work, name, value, n=None):
    """The model checkpoint with the first ``n`` values (all if None) of
    parameter ``name`` set to ``value``."""
    head, body = (work / "model.ckpt").read_bytes().split(b"\n", 1)
    entry = json.loads(head)["params"][name]
    values = np.frombuffer(body, dtype="<f8").copy()
    start = entry["byte_offset"] // 8
    values[start:start + (n or int(np.prod(entry["shape"])))] = value
    path = work / f"{value}.ckpt"
    path.write_bytes(head + b"\n" + values.tobytes())
    return path


def _null_image_demos(work):
    path = work / "demos_null"
    path.write_text(json.dumps({"env": {"image": None}, "seeds": [1]}) + "\n")
    return path


@pytest.mark.parametrize("argv, message", [
    (lambda w: ["eval", "--data", str(w / "data"), "--checkpoint",
                str(_flat_header_checkpoint(w))], "format tag"),
    (lambda w: ["eval", "--data", str(w / "data"), "--checkpoint",
                str(w / "policy.ckpt")],
     "is a policy checkpoint, not a model checkpoint"),
    (lambda w: ["bc-eval", "--policy", str(w / "model.ckpt"), "--checkpoint",
                str(w / "model.ckpt")],
     "is a model checkpoint, not a policy checkpoint"),
    (lambda w: ["bc-train", "--demos", str(_demos_32px(w)), "--checkpoint",
                str(w / "model.ckpt"), "--out-policy", str(w / "p.ckpt")],
     "demos are rendered at 32 px; the checkpoint's encoder takes 16 px"),
    (lambda w: ["export-embeddings", "--data", str(_data_32px(w)),
                "--checkpoint", str(w / "model.ckpt"), "--out",
                str(w / "e.csv")], "clip raster (32, 32) != (16, 16)"),
    (lambda w: ["eval", "--data", str(_data_8_frames(w)), "--checkpoint",
                str(w / "model.ckpt")],
     "clip features (frames 8, patches 4, width 16) do not match the "
     "decoder's (frames 4, patches 4, width 16)"),
    (lambda w: ["eval", "--data", str(_bad_label_dataset(w)), "--checkpoint",
                str(w / "model.ckpt")], "line 2: box coords"),
    (lambda w: ["eval", "--data", str(w / "data"), "--checkpoint",
                str(_nonfinite_checkpoint(w, "dec.head.scod.w1", np.nan))],
     "parameter 'dec.head.scod.w1' holds a non-finite value"),
    (lambda w: ["export-embeddings", "--data", str(w / "data"),
                "--checkpoint",
                str(_nonfinite_checkpoint(w, "enc.w_patch", np.inf, n=1)),
                "--out", str(w / "e.csv")],
     "parameter 'enc.w_patch' holds a non-finite value"),
    (lambda w: ["bc-train", "--demos", str(_null_image_demos(w)),
                "--checkpoint", str(w / "model.ckpt"), "--out-policy",
                str(w / "p.ckpt")], "env image must be int"),
], ids=["flat_header", "policy_as_checkpoint", "model_as_policy",
        "demo_image_mismatch", "dataset_size_mismatch",
        "dataset_frame_count_mismatch", "bad_label", "nan_parameters",
        "inf_parameter_export", "bad_demo_type"])
def test_malformed_inputs_exit_2_with_a_message(work, capsys, argv, message):
    args = argv(work)
    capsys.readouterr()
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error in {args[0]}: ") and message in err


def test_model_flags_on_eval_are_a_usage_error(work, capsys):
    assert cli.main(["eval", "--data", str(work / "data"), "--checkpoint",
                     str(work / "model.ckpt"), "--width", "16"]) == 1
    assert "unrecognized arguments: --width 16" in capsys.readouterr().err


def test_dump_attention_without_the_keyframe_task(work):
    """The oscc+scod checkpoint has no keyframe head: the dump holds the
    mid-frame decode that ``predict`` makes for it."""
    out = work / "attention.csv"
    assert cli.main(["dump-attention", "--data", str(work / "data"),
                     "--checkpoint", str(work / "model.ckpt"), "--clip-index",
                     "3", "--out", str(out)]) == 0
    model = load_model(work / "model.ckpt")
    clip = read_dataset(work / "data")[3].clip()
    preds = model.decoder.decode(model.encoder.encode(clip), [4 // 2])
    expected = [[layer, block, head, r, c, mat[head, r, c]]
                for layer, att in enumerate(preds.attention)
                for block, mat in (("self", att.self_attn[0]),
                                   ("temporal", att.temporal[0]),
                                   ("spatial", att.spatial[0]))
                for head in range(mat.shape[0]) for r in range(mat.shape[1])
                for c in range(mat.shape[2])]
    lines = out.read_text().splitlines()
    assert lines[1] == "layer,block,head,row,col,weight"
    rows = [line.split(",") for line in lines[2:]]
    assert [[int(a), b, int(h), int(r), int(c), float(w)]
            for a, b, h, r, c, w in rows] == expected


@pytest.mark.parametrize("index", ["8", "-1"])
def test_dump_attention_clip_index_outside_the_dataset(work, capsys, index):
    assert cli.main(["dump-attention", "--data", str(work / "data"),
                     "--checkpoint", str(work / "model.ckpt"), "--clip-index",
                     index, "--out", str(work / "a.csv")]) == 1
    assert (f"--clip-index {index} is outside the dataset's 8 clips (0 to 7)"
            in capsys.readouterr().err)


REPEATED_FLAGS = {"--encoder", "--width", "--layers", "--dec-heads",
                  "--enc-heads", "--mlp-hidden", "--patch", "--tasks",
                  "--steps", "--batch-size", "--lr", "--frames", "--env-image"}


@pytest.mark.parametrize("command, also_gone", [
    ("eval", {"--seed"}), ("dump-attention", {"--seed"}),
    ("export-embeddings", {"--seed"}), ("bc-train", set()),
    ("bc-eval", set())])
def test_checkpoint_readers_take_no_model_flags(command, also_gone):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {s for a in sub.choices[command]._actions
               for s in a.option_strings}
    assert not options & (REPEATED_FLAGS | also_gone)


def test_same_seed_train_runs_are_byte_identical(work, tmp_path, monkeypatch):
    outputs = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        assert cli.main(["train", "--data", str(work / "data"),
                         "--out-checkpoint", "model.ckpt", "--log", "log.csv",
                         "--steps", "3", "--seed", "9", *MODEL_FLAGS]) == 0
        outputs.append([(tmp_path / run / name).read_bytes()
                        for name in ("log.csv", "model.ckpt")])
    assert outputs[0] == outputs[1]

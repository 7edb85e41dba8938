"""The command-line contract, run in-process through ``cli.main`` at tiny
size (4 frames of 16 px, width 16, batch 4): downstream subcommands
rebuild the model from the checkpoint, malformed inputs exit 2 with a
message, and same-seed runs repeat byte for byte."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import taskfusion
from taskfusion import bc, cli
from taskfusion import tensor as tl
from taskfusion.bc import (ToyEnvConfig, bc_eval, bc_train, collect_demos,
                           load_policy, read_demos)
from taskfusion.seeding import derive_seed, rng_for
from taskfusion.synth import ClipConfig, build_encoder, read_dataset
from taskfusion.trainer import (ParamStore, TrainConfig, evaluate,
                                load_checkpoint, load_model, save_checkpoint,
                                train)

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
    """The policy's description, which holds the model checkpoint's
    description and the demos' env config."""
    out = work / "bc_eval.csv"
    assert cli.main(["bc-eval", "--policy", str(work / "policy.ckpt"),
                     "--episodes", "1", "--out", str(out)]) == 0
    policy = _csv_header(out)["policy"]
    assert policy == load_checkpoint(work / "policy.ckpt").description
    assert policy["model"] == load_checkpoint(work / "model.ckpt").description
    assert ToyEnvConfig(**policy["env"]) == read_demos(work / "demos")[0]


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
    model = load_checkpoint(ckpt)
    encoder = [name for name in model.names() if name.startswith("enc.")]
    assert loaded.names() == [*policy.store().names(), *encoder]
    for name in encoder:
        assert np.array_equal(loaded[name].data, model[name].data), name


def test_bc_eval_runs_the_episodes_in_the_env_of_the_policys_demos(
        work, monkeypatch, capsys):
    """A policy trained on horizon-30 demos runs its episodes at horizon
    30, and its rate is the one ``bc_eval`` gives with the model
    checkpoint's encoder in that env."""
    demos, policy = work / "demos_h30", work / "policy_h30.ckpt"
    assert cli.main(["bc-demos", "--count", "1", "--seed", "3", "--horizon",
                     "30", "--env-image", "16", "--out", str(demos)]) == 0
    assert cli.main(["bc-train", "--demos", str(demos), "--checkpoint",
                     str(work / "model.ckpt"), "--out-policy", str(policy),
                     "--bc-steps", "3"]) == 0
    envs = []

    def spy(actor, episodes, seed, env_cfg=None):
        envs.append(env_cfg)
        return bc_eval(actor, episodes, seed, env_cfg)

    monkeypatch.setattr(cli, "bc_eval", spy)
    capsys.readouterr()
    assert cli.main(["bc-eval", "--policy", str(policy), "--episodes", "2",
                     "--seed", "1"]) == 0
    assert envs == [ToyEnvConfig(horizon=30, image=16)]
    embed = load_model(work / "model.ckpt").encoder.embed_frame
    rate = bc_eval(load_policy(policy)[0].as_actor(embed), 2, 1, envs[0])
    assert capsys.readouterr().out == f"success_rate,{rate}\n"


def _untrained_checkpoint(work, seed, data="data"):
    """A ``train --steps 0`` checkpoint on ``data``: the seed's init."""
    path = work / f"untrained_{data}_seed{seed}.ckpt"
    if not path.exists():
        assert cli.main(["train", "--data", str(work / data),
                         "--out-checkpoint", str(path), "--log",
                         str(work / "untrained.csv"), "--steps", "0",
                         "--seed", str(seed), "--tasks", "oscc,scod",
                         *MODEL_FLAGS]) == 0
    return path


def test_bc_compare_rows_equal_bc_train_and_bc_eval_by_hand(work, monkeypatch,
                                                             capsys):
    """The fixture's model (``--steps 2 --seed 5``) against the encoder it
    started from (``--steps 0 --seed 5``): the same demos and BC seeds give
    each side the policies and per-seed rates that ``bc_train`` and
    ``bc_eval`` give on the loaded encoders."""
    tuned, baseline = work / "model.ckpt", _untrained_checkpoint(work, 5)
    trained = []
    real = bc.bc_train

    def spy(*args, **kwargs):
        trained.append(real(*args, **kwargs)[0])
        return trained[-1], []

    monkeypatch.setattr(bc, "bc_train", spy)
    out, demo_file = work / "compare.csv", work / "compare_demos"
    assert cli.main(["bc-demos", "--count", "1", "--seed", "11", "--horizon",
                     "30", "--env-image", "16", "--out", str(demo_file)]) == 0
    capsys.readouterr()
    assert cli.main(["bc-compare", "--checkpoint", str(tuned),
                     "--baseline-checkpoint", str(baseline), "--seed", "11",
                     "--demos", str(demo_file), "--bc-steps", "3",
                     "--bc-seeds", "2", "--episodes", "2",
                     "--out", str(out)]) == 0
    monkeypatch.undo()

    cfg = ToyEnvConfig(horizon=30, image=16)
    demos = collect_demos(1, 11, cfg)
    seeds = [derive_seed(11, "bc-seed", i) for i in range(2)]
    expected_rates, expected_policies = [], []
    for path in (tuned, baseline):
        embed = load_model(path).encoder.embed_frame
        rates = []
        for s in seeds:
            policy, _ = bc_train(demos, embed, steps=3, seed=s,
                                 max_step=cfg.max_step)
            expected_policies.append(policy)
            rates.append(bc_eval(policy.as_actor(embed), 2,
                                 derive_seed(s, "bc-eval"), cfg))
        expected_rates.append(rates)
    assert len(trained) == len(expected_policies) == 4
    for got, want in zip(trained, expected_policies):
        for name, t in want.store().items():
            assert np.array_equal(got.store()[name].data, t.data), name
    # The tuned side's policies differ from the baseline's: two encoders.
    assert not np.array_equal(trained[0].w1.data, trained[2].w1.data)

    lines = out.read_text().splitlines()
    header = json.loads(lines[0][2:])
    assert header["checkpoint"] == load_checkpoint(tuned).description
    assert (header["baseline_checkpoint"]
            == load_checkpoint(baseline).description)
    assert header["config"]["checkpoint"] == str(tuned)
    assert lines[1] == "representation,mean_success,per_seed"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["checkpoint", "baseline_checkpoint", "gap"]
    for row, rates in zip(rows, expected_rates):
        assert float(row[1]) == float(np.mean(rates))
        assert row[2] == ";".join(f"{r:.3f}" for r in rates)
    assert float(rows[2][1]) == float(rows[0][1]) - float(rows[1][1])
    assert [line.split(",")[0] for line in capsys.readouterr().out.split()] \
        == ["checkpoint_success", "baseline_checkpoint_success", "gap"]


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


def _policy_file(work, name, edit):
    """The fixture's policy file, rewritten under ``name`` as
    ``edit(store)`` returns its store."""
    path = work / name
    save_checkpoint(edit(load_checkpoint(work / "policy.ckpt")), path)
    return path


def _with_env(**changes):
    def edit(store):
        store.description["env"].update(changes)
        return store
    return edit


def _earlier_version(store):
    """The policy as earlier versions wrote it: its ``policy.*``
    parameters, and a description that records the model's description
    and a digest of its encoder in place of the encoder and the env."""
    description = dict(store.description)
    model = description.pop("model")
    del description["env"]
    description["encoder"] = {"checkpoint": model, "sha256": "0" * 64}
    earlier = ParamStore(description)
    for name, t in store.items():
        if name.startswith("policy."):
            earlier.register(name, t)
    return earlier


def _image_demos(work, image):
    path = work / f"demos_{image}"
    path.write_text(json.dumps({"env": {"image": image}, "seeds": [1]}) + "\n")
    return path


def _unplaceable_demos(work):
    """Demos whose env's contact radius leaves no room to place the
    gripper apart from the cube."""
    path = work / "demos_unplaceable"
    path.write_text(json.dumps({"env": {"image": 16, "contact_radius": 1.0},
                                "seeds": [3]}) + "\n")
    return path


UNPLACEABLE = ("contact_radius=1.0, image=16, noise=0.04, cube_size=0.25, "
               "gripper_size=0.16) places no cube, target and gripper apart "
               "in 10000 draws of seed ")


# train's size flags below 1, each with its TrainConfig field: the values
# that ended in a ZeroDivisionError or ValueError traceback, or trained
# (--mlp-hidden 0), before TrainConfig refused them.
SIZE_FLAGS_BELOW_1 = [
    ("--width", "width", 0), ("--width", "width", -64),
    ("--dec-heads", "dec_heads", 0), ("--enc-heads", "enc_heads", 0),
    ("--patch", "patch", 0), ("--patch", "patch", -8),
    ("--mlp-hidden", "mlp_hidden", 0), ("--mlp-hidden", "mlp_hidden", -1)]


def _train_argv(work, flag, value):
    return ["train", "--data", str(work / "data"), "--out-checkpoint",
            str(work / "m.ckpt"), "--log", str(work / "l.csv"), "--steps",
            "1", *MODEL_FLAGS, flag, str(value)]


@pytest.mark.parametrize("argv, message", [
    (lambda w: ["eval", "--data", str(w / "data"), "--checkpoint",
                str(_flat_header_checkpoint(w))], "format tag"),
    (lambda w: ["eval", "--data", str(w / "data"), "--checkpoint",
                str(w / "policy.ckpt")],
     "is a policy checkpoint, not a model checkpoint"),
    (lambda w: ["bc-eval", "--policy", str(w / "model.ckpt")],
     "is a model checkpoint, not a policy checkpoint"),
    (lambda w: ["bc-eval", "--policy", str(_policy_file(
        w, "earlier.ckpt", _earlier_version))],
     "holds no encoder and env, as policy files of earlier versions; re-run "
     "bc-train to write one that does"),
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
    (lambda w: ["bc-train", "--demos", str(_image_demos(w, None)),
                "--checkpoint", str(w / "model.ckpt"), "--out-policy",
                str(w / "p.ckpt")], "env image must be int"),
    (lambda w: ["bc-train", "--demos", str(_image_demos(w, 0)),
                "--checkpoint", str(w / "model.ckpt"), "--out-policy",
                str(w / "p.ckpt")], "line 1: ContractError('env image must be "
                                    ">= 1, got 0')"),
    (lambda w: ["bc-compare", "--checkpoint", str(w / "model.ckpt"),
                "--baseline-checkpoint",
                str(_untrained_checkpoint(w, 5, _data_32px(w).name)),
                "--demos", str(w / "demos")],
     "--checkpoint takes 16 px frames and --baseline-checkpoint 32 px"),
    (lambda w: ["bc-compare", "--checkpoint", str(w / "model.ckpt"),
                "--baseline-checkpoint", str(w / "model.ckpt"), "--demos",
                str(_demos_32px(w))],
     "demos are rendered at 32 px; the checkpoint's encoder takes 16 px"),
    (lambda w: ["bc-compare", "--checkpoint", str(w / "model.ckpt"),
                "--baseline-checkpoint", str(w / "policy.ckpt"), "--demos",
                str(w / "demos")],
     "is a policy checkpoint, not a model checkpoint"),
    (lambda w: ["bc-compare", "--checkpoint", str(w / "model.ckpt"),
                "--baseline-checkpoint", str(w / "model.ckpt"), "--demos",
                str(w / "demos"), "--bc-seeds", "0"],
     "need at least one BC seed"),
    (lambda w: ["bc-train", "--demos", str(w / "demos"), "--checkpoint",
                str(w / "model.ckpt"), "--out-policy", str(w / "p.ckpt"),
                "--bc-steps", "0"], "BC steps must be >= 1, got 0"),
    (lambda w: ["bc-demos", "--count", "1", "--seed", "0", "--horizon", "1",
                "--out", str(w / "d")],
     "the expert solved 0 of 200 episodes within the horizon of 1 steps"),
    (lambda w: ["train", "--data", str(w / "data"), "--out-checkpoint",
                str(w / "m.ckpt"), "--log", str(w / "l.csv"),
                "--batch-size", "0"], "batch_size must be >= 1, got 0"),
    (lambda w: ["train", "--data", str(w / "data"), "--out-checkpoint",
                str(w / "m.ckpt"), "--log", str(w / "l.csv"),
                "--batch-size", "-1"], "batch_size must be >= 1, got -1"),
    (lambda w: ["train", "--data", str(w / "data"), "--out-checkpoint",
                str(w / "m.ckpt"), "--log", str(w / "l.csv"),
                "--steps", "-1"], "steps must be >= 0, got -1"),
    *[(lambda w, flag=flag, value=value: _train_argv(w, flag, value),
       f"{field} must be >= 1, got {value}")
      for flag, field, value in SIZE_FLAGS_BELOW_1],
    (lambda w: ["bc-demos", "--count", "1", "--seed", "3", "--env-image", "0",
                "--out", str(w / "d")], "env image must be >= 1, got 0"),
    (lambda w: ["bc-demos", "--count", "1", "--seed", "3", "--env-image",
                "-1", "--out", str(w / "d")], "env image must be >= 1, got -1"),
    (lambda w: ["bc-eval", "--policy", str(_policy_file(
        w, "horizon0.ckpt", _with_env(horizon=0)))],
     "env horizon must be >= 1, got 0"),
    (lambda w: ["bc-eval", "--policy", str(_policy_file(
        w, "image_none.ckpt", _with_env(image=None)))],
     "env image must be int"),
    (lambda w: ["bc-train", "--demos", str(_unplaceable_demos(w)),
                "--checkpoint", str(w / "model.ckpt"), "--out-policy",
                str(w / "p.ckpt")], UNPLACEABLE + "3"),
    (lambda w: ["bc-eval", "--policy", str(_policy_file(
        w, "unplaceable.ckpt", _with_env(contact_radius=1.0))),
                "--episodes", "1"], UNPLACEABLE),
    (lambda w: ["gen-data", "--count", "1", "--seed", "1", "--image", "8",
                "--out", str(w / "g")],
     "height and width must be at least 14 px for the scene script, got 8x8"),
    (lambda w: ["gen-data", "--count", "1", "--seed", "1", "--image", "0",
                "--out", str(w / "g")],
     "height and width must be at least 14 px for the scene script, got 0x0"),
    (lambda w: ["gen-data", "--count", "1", "--seed", "1", "--noise", "-0.5",
                "--out", str(w / "g")], "noise must be >= 0, got -0.5"),
    (lambda w: ["gen-data", "--count", "1", "--seed", "1", "--duration", "-1",
                "--out", str(w / "g")],
     "clip_duration_seconds must be > 0, got -1.0"),
    (lambda w: ["gen-data", "--count", "1", "--seed", "1", "--noise", "inf",
                "--out", str(w / "g")], "noise must be finite, got inf"),
    (lambda w: ["gen-data", "--count", "1", "--seed", "1", "--duration",
                "inf", "--out", str(w / "g")],
     "clip_duration_seconds must be finite, got inf"),
], ids=["flat_header", "policy_as_checkpoint", "model_as_policy",
        "policy_of_an_earlier_version",
        "demo_image_mismatch", "dataset_size_mismatch",
        "dataset_frame_count_mismatch", "bad_label", "nan_parameters",
        "inf_parameter_export", "bad_demo_type", "demo_image_0",
        "compare_image_mismatch", "compare_demo_image_mismatch",
        "compare_policy_as_baseline", "compare_no_bc_seeds", "bc_steps_0",
        "demos_beyond_the_horizon", "batch_size_0", "batch_size_negative",
        "steps_negative",
        *[f"{field}_{value}" for _, field, value in SIZE_FLAGS_BELOW_1],
        "env_image_0", "env_image_negative", "bc_eval_horizon_0",
        "bc_eval_env_type", "bc_train_unplaceable", "bc_eval_unplaceable",
        "image_8",
        "image_0", "noise_negative", "duration_negative", "noise_inf",
        "duration_inf"])
@pytest.mark.filterwarnings("ignore:expert failed on")
def test_malformed_inputs_exit_2_with_a_message(work, capsys, argv, message):
    args = argv(work)
    capsys.readouterr()
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error in {args[0]}: ") and message in err


# Each subcommand's argv on the fixture's files at tiny size, and its
# integer flags; argparse keeps the last value of a repeated flag.
INTEGER_FLAGS = {
    "gen-data": (lambda w, t: ["--count", "2", "--seed", "1", "--frames", "4",
                               "--image", "16", "--out", str(t / "g")],
                 ["--count", "--seed", "--frames", "--image"]),
    "train": (lambda w, t: ["--data", str(w / "data"), "--out-checkpoint",
                            str(t / "m.ckpt"), "--log", str(t / "l.csv"),
                            "--steps", "1", "--layers", "1", "--patch", "8",
                            *MODEL_FLAGS],
              ["--seed", "--width", "--layers", "--dec-heads", "--enc-heads",
               "--mlp-hidden", "--patch", "--steps", "--batch-size"]),
    "dump-attention": (lambda w, t: ["--data", str(w / "data"),
                                     "--checkpoint", str(w / "model.ckpt"),
                                     "--out", str(t / "a.csv")],
                       ["--clip-index"]),
    "bc-demos": (lambda w, t: ["--count", "1", "--seed", "3", "--horizon",
                               "30", "--env-image", "16", "--out",
                               str(t / "d")],
                 ["--count", "--seed", "--horizon", "--env-image"]),
    "bc-train": (lambda w, t: ["--demos", str(w / "demos"), "--checkpoint",
                               str(w / "model.ckpt"), "--out-policy",
                               str(t / "p.ckpt"), "--bc-steps", "2"],
                 ["--seed", "--bc-steps"]),
    "bc-eval": (lambda w, t: ["--policy", str(w / "policy.ckpt"),
                              "--episodes", "1"],
                ["--episodes", "--seed"]),
    "bc-compare": (lambda w, t: ["--checkpoint", str(w / "model.ckpt"),
                                 "--baseline-checkpoint",
                                 str(w / "model.ckpt"), "--demos",
                                 str(w / "demos"), "--bc-steps", "2",
                                 "--bc-seeds", "1", "--episodes", "1"],
                   ["--seed", "--bc-steps", "--bc-seeds", "--episodes"]),
}


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value) for command, (_, flags) in INTEGER_FLAGS.items()
    for flag in flags for value in ("0", "-1")])
@pytest.mark.filterwarnings("ignore:expert failed on")
def test_integer_flags_at_0_and_minus_1_end_in_an_exit_code(
        work, tmp_path, capsys, command, flag, value):
    """An exception escaping ``main`` is what ends the CLI in a
    traceback: every integer flag at 0 and -1 ends in exit 0, 1 or 2."""
    argv = [command, *INTEGER_FLAGS[command][0](work, tmp_path), flag, value]
    assert cli.main(argv) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


# How a malformed record replaces a value (``float`` keeps an int's value
# and makes it a float).
BAD_VALUES = {"float": float, "-1": lambda v: -1, "1.5": lambda v: 1.5,
              "nan": lambda v: math.nan, "inf": lambda v: math.inf}
# (file, field, bad value): every config int field of a dataset record and
# of a demo file given as a float and as -1, every float field as NaN, as
# inf and as -1, and a seed as -1 and as 1.5.
MALFORMED_RECORDS = [
    (file, f.name, bad)
    for file, config in (("data", ClipConfig), ("demos", ToyEnvConfig))
    for f in fields(config)
    for bad in (("float", "-1") if f.type == "int" else ("nan", "inf", "-1"))
] + [(file, "seed", bad) for file in ("data", "demos") for bad in ("-1", "1.5")]


@pytest.mark.parametrize("file, field, bad", MALFORMED_RECORDS,
                         ids=[f"{file}-{field}-{bad}"
                              for file, field, bad in MALFORMED_RECORDS])
def test_a_malformed_record_exits_2_naming_its_line(work, tmp_path, capsys,
                                                     file, field, bad):
    """One bad value in the first record of the fixture's dataset (read by
    ``eval``) or demo file (read by ``bc-train``) ends in exit 2 and one
    message line naming the record's line, never in a traceback."""
    lines = (work / file).read_text().splitlines()
    raw = json.loads(lines[1])
    if field == "seed" and file == "data":
        raw["seed"] = BAD_VALUES[bad](raw["seed"])
    elif field == "seed":
        raw["seeds"][0] = BAD_VALUES[bad](raw["seeds"][0])
    else:
        config = raw["config" if file == "data" else "env"]
        config[field] = BAD_VALUES[bad](config[field])
    path = tmp_path / file
    path.write_text("\n".join([lines[0], json.dumps(raw)] + lines[2:]) + "\n")
    command = ["eval", "--data"] if file == "data" else [
        "bc-train", "--out-policy", str(tmp_path / "p.ckpt"), "--demos"]
    capsys.readouterr()
    assert cli.main([*command, str(path), "--checkpoint",
                     str(work / "model.ckpt")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error in {command[0]}: ") and "line 2: " in err


NON_POSITIVE_OR_NON_FINITE = ["nan", "inf", "0", "-1"]


@pytest.mark.parametrize("lr", NON_POSITIVE_OR_NON_FINITE)
def test_train_refuses_a_bad_lr_and_writes_nothing(work, capsys, lr):
    ckpt, log = work / "bad_lr.ckpt", work / "bad_lr.csv"
    capsys.readouterr()
    assert cli.main(["train", "--data", str(work / "data"), "--out-checkpoint",
                     str(ckpt), "--log", str(log), "--steps", "1", "--lr",
                     lr, *MODEL_FLAGS]) == 2
    assert (f"error in train: lr must be finite and > 0, got {float(lr)}"
            in capsys.readouterr().err)
    assert not ckpt.exists() and not log.exists()


@pytest.mark.parametrize("lr", NON_POSITIVE_OR_NON_FINITE)
def test_bc_train_refuses_a_bad_lr_and_writes_nothing(work, capsys, lr):
    policy = work / "bad_lr_policy.ckpt"
    capsys.readouterr()
    assert cli.main(["bc-train", "--demos", str(work / "demos"),
                     "--checkpoint", str(work / "model.ckpt"), "--out-policy",
                     str(policy), "--bc-steps", "1", "--bc-lr", lr]) == 2
    assert (f"error in bc-train: BC lr must be finite and > 0, got "
            f"{float(lr)}" in capsys.readouterr().err)
    assert not policy.exists()


@pytest.mark.parametrize("flag", ["--enc-heads", "--dec-heads"])
def test_train_refuses_heads_that_do_not_divide_the_width(work, tmp_path,
                                                          capsys, flag):
    """3 heads cannot split width 16: building the model refuses it, in
    one error line, before any file is written."""
    capsys.readouterr()
    assert cli.main(["train", "--data", str(work / "data"), "--out-checkpoint",
                     str(tmp_path / "m.ckpt"), "--log",
                     str(tmp_path / "l.csv"), "--steps", "1", *MODEL_FLAGS,
                     flag, "3"]) == 2
    assert capsys.readouterr().err == ("error in train: width 16 not "
                                       "divisible by 3 heads\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tol", NON_POSITIVE_OR_NON_FINITE)
def test_gradcheck_refuses_a_bad_tol_and_reports_nothing(capsys, tol):
    assert cli.main(["gradcheck", "--tol", tol]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert (f"error in gradcheck: grad_check: tol must be finite and > 0, "
            f"got {float(tol)}" in err)


def test_gradcheck_reports_each_check_and_exits_2_on_a_failure(monkeypatch,
                                                               capsys):
    """The report loop over a stand-in audit of one passing and one
    failing check: a line for each, the summary, and exit 2."""
    def report(passed, error):
        return tl.GradCheckReport([tl.GradCheckEntry("x", error, passed)],
                                  tol=1e-4)

    monkeypatch.setattr(cli, "run_gradcheck", lambda seed, tol, eps: [
        ("good", report(True, 1e-9)), ("bad", report(False, 0.5))])
    assert cli.main(["gradcheck"]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines() == ["PASS good max_rel_err=1.000e-09",
                                "FAIL bad max_rel_err=5.000e-01",
                                "1/2 checks passed (tol 0.0001)"]
    assert err == "error in gradcheck: 1 gradient checks failed\n"


def test_export_embeddings_writes_every_frames_summary_row(work, capsys):
    """A row per frame of every clip: its seed, frame, state-change tag
    and the model encoder's summary row, bit for bit, under a header
    that carries the checkpoint's description."""
    out = work / "embeddings.csv"
    capsys.readouterr()
    assert cli.main(["export-embeddings", "--data", str(work / "data"),
                     "--checkpoint", str(work / "model.ckpt"), "--out",
                     str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 32 embedding rows to {out}\n"
    model = load_model(work / "model.ckpt")
    assert _csv_header(out)["checkpoint"] == model.store.description
    lines = out.read_text().splitlines()
    assert lines[1] == ",".join(["clip_seed", "frame", "tag"]
                                + [f"e{i}" for i in range(16)])
    rows = iter(csv.reader(lines[2:]))
    tags = set()
    for record in read_dataset(work / "data"):
        clip = record.clip()
        h_frames = model.encoder.encode([clip]).h_frames.data[0]
        labels = clip.labels
        for frame in range(4):
            tag = ("none" if not labels.state_change else
                   "before" if frame < labels.pnr_frame else "after")
            seed, row_frame, row_tag, *values = next(rows)
            assert (int(seed), int(row_frame), row_tag) == (record.seed,
                                                            frame, tag)
            assert [float(v) for v in values] == h_frames[frame].tolist()
            tags.add(tag)
    assert next(rows, None) is None
    assert tags == {"none", "before", "after"}


def test_model_flags_on_eval_are_a_usage_error(work, capsys):
    assert cli.main(["eval", "--data", str(work / "data"), "--checkpoint",
                     str(work / "model.ckpt"), "--width", "16"]) == 1
    assert "unrecognized arguments: --width 16" in capsys.readouterr().err


def _attention_rows(attention) -> list[list]:
    """The rows ``dump-attention`` writes for one clip's layer weights."""
    return [[layer, block, head, r, c, float(mat[head, r, c])]
            for layer, att in enumerate(attention)
            for block, mat in (("self", att.self_attn[0]),
                               ("temporal", att.temporal[0]),
                               ("spatial", att.spatial[0]))
            for head in range(mat.shape[0]) for r in range(mat.shape[1])
            for c in range(mat.shape[2])]


def test_dump_attention_without_the_keyframe_task(work):
    """The oscc+scod checkpoint has no keyframe head: the dump holds the
    mid-frame decode that ``predict`` makes for it."""
    out = work / "attention.csv"
    assert cli.main(["dump-attention", "--data", str(work / "data"),
                     "--checkpoint", str(work / "model.ckpt"), "--clip-index",
                     "3", "--out", str(out)]) == 0
    model = load_model(work / "model.ckpt")
    clip = read_dataset(work / "data")[3].clip()
    preds = model.decoder.decode(model.encoder.encode([clip]), [4 // 2])
    expected = _attention_rows(preds.attention)
    lines = out.read_text().splitlines()
    assert lines[1] == "layer,block,head,row,col,weight"
    rows = [line.split(",") for line in lines[2:]]
    assert [[int(a), b, int(h), int(r), int(c), float(w)]
            for a, b, h, r, c, w in rows] == expected


def test_dump_attention_equals_two_full_decodes_byte_for_byte(work):
    """With the keyframe task, inference shares layer 0's self and temporal
    blocks between its mid-frame and keyframe passes. The dump still
    holds, byte for byte, the weights of a full decode at the keyframe
    that a full mid-frame decode picks."""
    ckpt = work / "all_tasks.ckpt"
    assert cli.main(["train", "--data", str(work / "data"), "--out-checkpoint",
                     str(ckpt), "--log", str(work / "all_tasks.csv"),
                     "--steps", "0", "--seed", "6", *MODEL_FLAGS]) == 0
    out = work / "attention_all_tasks.csv"
    assert cli.main(["dump-attention", "--data", str(work / "data"),
                     "--checkpoint", str(ckpt), "--clip-index", "1", "--out",
                     str(out)]) == 0
    model = load_model(ckpt)
    features = model.encoder.encode([read_dataset(work / "data")[1].clip()])
    mid = model.decoder.decode(features, [4 // 2])
    keyframe = int(np.argmax(mid.pnr_logits.data[0]))
    assert keyframe != 4 // 2  # so the two passes read different patches
    final = model.decoder.decode(features, [keyframe])
    body = io.StringIO()
    writer = csv.writer(body)
    writer.writerow(["layer", "block", "head", "row", "col", "weight"])
    writer.writerows(_attention_rows(final.attention))
    assert out.read_bytes().split(b"\n", 1)[1] == body.getvalue().encode()


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
    ("bc-eval", {"--checkpoint", "--horizon"}),
    ("bc-compare", {"--data", "--demo-count", "--horizon"})])
def test_checkpoint_readers_take_no_model_flags(command, also_gone):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {s for a in sub.choices[command]._actions
               for s in a.option_strings}
    assert not options & (REPEATED_FLAGS | also_gone)


def test_train_with_zero_steps_says_the_checkpoint_is_the_init(work,
                                                               capsys):
    ckpt, log = work / "init.ckpt", work / "init.csv"
    capsys.readouterr()
    assert cli.main(["train", "--data", str(work / "data"), "--out-checkpoint",
                     str(ckpt), "--log", str(log), "--steps", "0", "--seed",
                     "6", *MODEL_FLAGS]) == 0
    assert capsys.readouterr().out == (
        f"trained 0 steps: no step ran; checkpoint {ckpt} holds the random "
        f"init of seed 6; log {log} has no rows\n")
    lines = log.read_text().splitlines()
    assert len(lines) == 2 and lines[0].startswith("# {")


def test_bc_demos_beyond_the_horizon_warns_once(tmp_path):
    """400 discarded seeds give one summary warning (its message and
    source line) before the error line."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(taskfusion.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "taskfusion.cli", "bc-demos", "--count", "2",
         "--seed", "0", "--horizon", "1", "--env-image", "16", "--out",
         str(tmp_path / "d")], env=env, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) <= 3
    assert "expert failed on 400 demo seeds, the first " in lines[0]
    assert lines[-1].startswith("error in bc-demos: the expert solved 0 of "
                                "400 episodes")


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

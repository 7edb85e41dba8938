import hashlib
import json

import numpy as np
import pytest

from taskfusion import tensor as tl
from taskfusion import trainer
from taskfusion.bc import (Policy, ToyEnv, ToyEnvConfig, bc_train,
                           collect_demos, expert_demo, load_policy, read_demos,
                           save_policy, write_demos)
from taskfusion.seeding import derive_seed
from taskfusion.synth import DatasetError
from taskfusion.tensor import ContractError
from taskfusion.trainer import (CheckpointError, TrainConfig, build_model,
                                load_checkpoint, save_checkpoint)

ENV = ToyEnvConfig(image=16)


def test_demo_file_regenerates_the_exact_demos(tmp_path):
    demos = collect_demos(2, 3, ENV)
    path = tmp_path / "demos"
    write_demos(path, ENV, demos, header={"kind": "demos"})
    cfg, loaded = read_demos(path)
    assert cfg == ENV
    assert [d.seed for d in loaded] == [d.seed for d in demos]
    for demo, again in zip(demos, loaded):
        assert len(demo.transitions) == len(again.transitions)
        for a, b in zip(demo.transitions, again.transitions):
            assert np.array_equal(a.obs, b.obs)
            assert np.array_equal(a.proprio, b.proprio)
            assert np.array_equal(a.action, b.action)


@pytest.mark.parametrize("record", [
    [1, 2],
    {"seeds": [1]},
    {"env": None, "seeds": [1]},
    {"env": {"image": None}, "seeds": [1]},
    {"env": {"horizon": 2.5}, "seeds": [1]},
    {"env": {"size": 16}, "seeds": [1]},
    {"env": {}, "seeds": None},
    {"env": {}, "seeds": []},
    {"env": {}, "seeds": [-1]},
    {"env": {}, "seeds": [True]},
])
def test_malformed_demo_record_is_a_dataset_error(tmp_path, record):
    path = tmp_path / "demos"
    path.write_text("# {}\n" + json.dumps(record) + "\n")
    with pytest.raises(DatasetError, match="line 2"):
        read_demos(path)


@pytest.mark.parametrize("image", [16, 32])
def test_expert_succeeds_on_every_seed(image):
    env = ToyEnv(ToyEnvConfig(image=image))
    failed = [i for i in range(100)
              if not expert_demo(env, derive_seed(0, "demo", i)).success]
    assert failed == []


def test_demo_seed_the_expert_fails_on_is_a_dataset_error(tmp_path):
    path = tmp_path / "demos"
    write_demos(path, ToyEnvConfig(horizon=1), collect_demos(1, 3, ENV),
                header={})
    with pytest.raises(DatasetError, match="expert fails on demo seed"):
        read_demos(path)


def test_collect_demos_gives_up_when_the_horizon_is_too_short():
    with pytest.warns(UserWarning, match="expert failed on 600 demo seeds, "
                      "the first "), pytest.raises(DatasetError, match="the expert solved 0 of 600 "
                          "episodes within the horizon of 1 steps; 3 demos"):
        collect_demos(3, 0, ToyEnvConfig(horizon=1, image=16))


def test_collect_demos_finds_its_demos_at_a_short_horizon():
    """At a horizon of 5 the expert solves about 1 seed in 30: 25 demos
    take 917 episodes, well inside the cap. One warning counts the 892
    discarded seeds."""
    seed = derive_seed(0, "demos")
    with pytest.warns(UserWarning) as discarded:
        demos = collect_demos(25, seed, ToyEnvConfig(horizon=5, image=16))
    assert len(demos) == 25 and all(d.success for d in demos)
    first = derive_seed(seed, "demo", 0)
    assert [str(w.message) for w in discarded] == [
        f"expert failed on 892 demo seeds, the first {first}; discarded"]


def test_env_before_reset_is_a_contract_error():
    env = ToyEnv(ENV)
    for call in (lambda: env.step(np.zeros(2)), env.success, env.render):
        with pytest.raises(ContractError, match="before reset"):
            call()
    env.reset(0)
    assert env.render().shape == (16, 16, 3) and not env.success()


def test_policy_checkpoint_rebuilds_the_policy(tmp_path):
    """``save_policy`` writes the policy, its model's encoder (moved off
    the seed's init) and the env; ``load_policy`` rebuilds each. The
    policy's own store keeps holding ``policy.*`` alone."""
    model = build_model(TrainConfig(width=8, enc_heads=2, dec_heads=2,
                                    mlp_hidden=8), frames=2, image=16)
    for t in model.encoder.parameters().values():
        t.data += 0.5
    policy = Policy.init(np.random.default_rng(1), embed_dim=8, hidden=5,
                         use_proprio=False, max_step=0.03)
    env = ToyEnvConfig(horizon=30, image=16)
    path = tmp_path / "policy.ckpt"
    save_policy(path, policy, model, env)
    loaded, encoder, env_cfg, description = load_policy(path)
    assert (loaded.use_proprio, loaded.max_step, loaded.embed_dim) == (
        False, 0.03, 8)
    for name, t in policy.parameters().items():
        assert np.array_equal(loaded.parameters()[name].data, t.data), name
    assert (env_cfg, description["model"]) == (env, model.store.description)
    assert encoder.dtype == model.encoder.dtype
    for name, t in model.encoder.parameters().items():
        assert np.array_equal(encoder.parameters()[name].data, t.data), name
    names = load_checkpoint(path).names()
    assert names == [*policy.store().names(),
                     *(n for n in model.store.names() if n.startswith("enc."))]
    assert all(n.startswith("policy.") for n in loaded.store().names())

    store = policy.store()
    store.description = None
    save_checkpoint(store, path)
    with pytest.raises(CheckpointError, match="is a plain checkpoint"):
        load_policy(path)


def _small_model(dtype):
    return build_model(TrainConfig(width=8, enc_heads=2, dec_heads=2,
                                   mlp_hidden=8, dtype=dtype),
                       frames=2, image=16)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_load_policy_builds_the_encoder_alone(tmp_path, monkeypatch, dtype):
    """The policy's encoder is built without a decoder and holds the saved
    ``enc.*`` values, in the model's dtype."""
    model = _small_model(dtype)
    for t in model.encoder.parameters().values():
        t.data += 0.25
    path = tmp_path / "policy.ckpt"
    save_policy(path, Policy.init(np.random.default_rng(1), embed_dim=8),
                model, ENV)

    def no_decoder(*args, **kwargs):
        raise AssertionError("load_policy built a decoder")

    monkeypatch.setattr(trainer, "TaskFusionDecoder", no_decoder)
    _, encoder, _, _ = load_policy(path)
    saved = load_checkpoint(path)
    assert encoder.dtype == np.dtype(dtype)
    for name, t in encoder.parameters().items():
        assert t.data.dtype == np.dtype(dtype), name
        assert np.array_equal(t.data, saved[f"enc.{name}"].data), name


def test_policy_over_a_description_without_dtype_loads_float64(tmp_path):
    """A model description without a dtype predates float32 models, so
    the policy's encoder loads as float64."""
    model = _small_model("float64")
    del model.store.description["config"]["dtype"]
    path = tmp_path / "policy.ckpt"
    save_policy(path, Policy.init(np.random.default_rng(1), embed_dim=8),
                model, ENV)
    _, encoder, _, description = load_policy(path)
    assert "dtype" not in description["model"]["config"]
    assert encoder.dtype == np.float64
    for name, t in model.encoder.parameters().items():
        assert np.array_equal(encoder.parameters()[name].data, t.data), name


def test_policy_act_is_off_the_tape(recorded_nodes):
    policy = Policy.init(np.random.default_rng(2), embed_dim=6, hidden=5)
    rng = np.random.default_rng(3)
    embedding, proprio = rng.standard_normal(6), rng.uniform(0, 1, 2)
    raw = policy.forward(tl.constant(np.concatenate([embedding,
                                                     proprio])[None]))
    assert raw.node is not None
    recorded_nodes.clear()
    action = policy.act(embedding, proprio)
    assert recorded_nodes == []
    assert np.array_equal(action, np.clip(raw.data[0], -policy.max_step,
                                          policy.max_step))


# sha256 of the JSON loss log and of the trained policy's parameters
# (float64 bytes in store order) of ``_bc_run``, recorded before the policy
# forward became one ``mlp`` op and Adam one vectorised update.
BC_DIGESTS = (
    "eb58d9e289dcac6e45fa88c5da840ba20c436add6dcf5b51a4b0b1de547c3d37",
    "4072a77448216a11e82b65b1023f1e326e9c5c7aef0f2ea815415813abc865e2")


def _bc_run():
    """A 30-step float64 ``bc_train`` on two demos, embedded by a fixed
    random projection of the frame."""
    demos = collect_demos(2, 5, ENV)
    proj = np.random.default_rng(4).standard_normal((16 * 16 * 3, 8)) * 0.05

    def embed(obs):
        return np.tanh(obs.reshape(-1) @ proj)

    with tl.precision("float64"):
        return bc_train(demos, embed, steps=30, seed=6, lr=3e-3)


def test_float64_bc_train_is_reproducible_and_matches_its_digests():
    (policy, log), (again, log_again) = _bc_run(), _bc_run()
    assert log == log_again and log[-1] < log[0]
    for name, t in policy.parameters().items():
        assert t.data.dtype == np.float64, name
        assert np.array_equal(t.data, again.parameters()[name].data), name
    params = b"".join(t.data.tobytes() for _, t in policy.store().items())
    assert (hashlib.sha256(json.dumps(log).encode()).hexdigest(),
            hashlib.sha256(params).hexdigest()) == BC_DIGESTS

import hashlib
import json

import numpy as np
import pytest

from taskfusion import tensor as tl
from taskfusion import trainer
from taskfusion.bc import (Policy, ToyEnv, ToyEnvConfig, bc_train,
                           collect_demos, expert_demo, expert_policy,
                           load_policy, read_demos, save_policy, write_demos)
from taskfusion.seeding import derive_seed
from taskfusion.synth import DatasetError
from taskfusion.tensor import ContractError, ShapeError
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


def test_reset_refuses_an_env_it_cannot_place_in():
    """At a contact radius of 1.0 no gripper in [0.1, 0.9]^2 is far
    enough from a cube in [0.3, 0.7]^2: reset gives up after its
    placement draws, naming the config, and leaves the env unreset."""
    env = ToyEnv(ToyEnvConfig(contact_radius=1.0))
    with pytest.raises(ContractError, match=r"env ToyEnvConfig\(.*"
                       r"contact_radius=1\.0.*\) places no cube, target and "
                       r"gripper apart in 10000 draws of seed 3"):
        env.reset(3)
    with pytest.raises(ContractError, match="render before reset"):
        env.render()


# sha256 of the placements and first frames of 200 demo seeds at a
# contact radius of 0.6, which takes up to a few hundred draws a seed;
# recorded before the placement loop was bounded.
WIDE_CONTACT_DIGEST = \
    "6998483366c831797c35ad34b827cd09cb459c68ebff45916c2b3c94390245c6"


def test_seeds_that_place_keep_their_draws():
    env = ToyEnv(ToyEnvConfig(contact_radius=0.6, image=16))
    h = hashlib.sha256()
    for i in range(200):
        s = env.reset(derive_seed(0, "demo", i))
        h.update(s.gripper.tobytes() + s.cube.tobytes() + s.target.tobytes()
                 + env.render().tobytes())
    assert h.hexdigest() == WIDE_CONTACT_DIGEST


@pytest.mark.parametrize("action", [0.01, [0.01], [[0.01, 0.02]],
                                    [0.01, 0.02, 0.03]])
def test_an_action_is_a_pair(action):
    env = ToyEnv(ENV)
    env.reset(0)
    with pytest.raises(ShapeError, match="an action is a"):
        env.step(action)


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


# Env settings whose demos and scripted rollouts ``test_env_bits_match_
# their_digests`` pins: the default, 16 px, a small fast-horizon gripper,
# a noisy backdrop and a small cube with a tight goal.
PINNED_ENVS = {
    "default": ToyEnvConfig(),
    "16px": ToyEnvConfig(image=16),
    "gripper": ToyEnvConfig(gripper_size=0.10, max_step=0.03, horizon=80),
    "noise": ToyEnvConfig(noise=0.12),
    "cube": ToyEnvConfig(cube_size=0.16, success_radius=0.03),
}

# sha256, per env, of the demos of ``collect_demos(30, 11, cfg)`` (seed,
# then each step's obs, proprio and action bytes, then success) and of 30
# scripted rollouts (``_rollout_bytes``), recorded before the scene layer
# and the scalar 2-vector arithmetic.
ENV_DIGESTS = {
    "default": ("69f8231394a9ff7bb93471a8c0d8bddfdd8e7e709df27cd687474d09d1e70fef",
                "2dfe1f95f015f6eed8fb8f9168d7f5fcb48118dd9cd56d78403a7feafe186f45"),
    "16px": ("4aef9ae6e8df92e006a34935a1f72b1f5b3f3c8b7770654160cd02e02f9ad855",
             "fe1e4ae52c41baa72b37d2ada53698d4ed0066e37e2f907bb315705a2dc3bf55"),
    "gripper": ("a509ba15aa6c4247dd8dced54d39520214dbcdf3dbb3d7a88749a9b55a27f6cc",
                "151cabcd6ba5b8b6b005c33079ab18dd0ea107a00c350144301eee047468d083"),
    "noise": ("fdd80efecc57eba27f5ac0b14b0340b31a0a9ba757929cff494d139483d3eee9",
              "229b8464d326a28f3b3f8923f61a3068fdf9aaa1bcf54c5b825160a3bf46cbc4"),
    "cube": ("74868d016bf9b36c7428cec29a4550b03da81648986059679f65d6c3684075eb",
             "f8e8057ddbe028e3dce41d1325059400035c4d4c60a67352d47bb1343e12d448"),
}

# Off-script actions in units of ``max_step``: both signs of zero, exactly
# at the bounds, and far beyond them.
ODD_ACTIONS = [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (1.0, -1.0),
               (-1.0, 1.0), (20.0, -20.0), (-20.0, 0.0), (0.0, 20.0)]


def _rollout_bytes(env: ToyEnv, seed: int) -> tuple[bytes, int, int]:
    """A full-horizon rollout that cycles through the expert's action, a
    lunge at the cube at four times its distance, a uniform draw of up to
    four ``max_step`` and an ``ODD_ACTIONS`` entry. Returns each step's
    obs, state, action, expert action and success bytes, the steps that
    moved the cube, and those whose success was a ``bool``."""
    cfg = env.config
    rng = np.random.default_rng(seed)
    state = env.reset(seed)
    chunks, pushes, bools = [], 0, 0
    for k in range(cfg.horizon):
        obs = env.render()
        expert = expert_policy(state, cfg)
        kind = k % 4
        if kind == 0:
            action = expert
        elif kind == 1:
            action = (state.cube - state.gripper) * 4.0
        elif kind == 2:
            action = rng.uniform(-4.0, 4.0, size=2) * cfg.max_step
        else:
            action = np.array(ODD_ACTIONS[k // 4 % len(ODD_ACTIONS)]) \
                * cfg.max_step
        cube = state.cube
        state = env.step(action)
        pushes += not np.array_equal(state.cube, cube)
        ok = env.success()
        bools += type(ok) is bool
        chunks += [obs.tobytes(), np.asarray(action).tobytes(),
                   expert.tobytes(), state.gripper.tobytes(),
                   state.cube.tobytes(), state.target.tobytes(),
                   bytes([bool(ok)])]
    return b"".join(chunks), pushes, bools


@pytest.mark.parametrize("name", list(PINNED_ENVS))
def test_env_bits_match_their_digests(name):
    """Demos and scripted rollouts keep every bit of their observations,
    actions, states and successes; success is a plain ``bool``."""
    cfg = PINNED_ENVS[name]
    demos = hashlib.sha256()
    for demo in collect_demos(30, 11, cfg):
        assert type(demo.success) is bool
        demos.update(demo.seed.to_bytes(8, "little"))
        for tr in demo.transitions:
            demos.update(tr.obs.tobytes() + tr.proprio.tobytes()
                         + tr.action.tobytes())
        demos.update(bytes([bool(demo.success)]))
    rollouts, env, pushes = hashlib.sha256(), ToyEnv(cfg), 0
    for i in range(30):
        data, pushed, bools = _rollout_bytes(env, derive_seed(12, "roll", i))
        assert bools == cfg.horizon
        rollouts.update(data)
        pushes += pushed
    assert pushes > 0
    assert (demos.hexdigest(), rollouts.hexdigest()) == ENV_DIGESTS[name]

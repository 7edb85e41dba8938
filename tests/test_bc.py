import json

import numpy as np
import pytest

from taskfusion import tensor as tl
from taskfusion.bc import (Policy, ToyEnv, ToyEnvConfig, collect_demos,
                           expert_demo, load_policy, read_demos, write_demos)
from taskfusion.seeding import derive_seed
from taskfusion.synth import DatasetError
from taskfusion.trainer import CheckpointError, save_checkpoint

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


def test_policy_checkpoint_rebuilds_the_policy(tmp_path):
    policy = Policy.init(np.random.default_rng(1), embed_dim=6, hidden=5,
                         use_proprio=False, max_step=0.03)
    path = tmp_path / "policy.ckpt"
    save_checkpoint(policy.store(), path)
    loaded = load_policy(path)
    assert (loaded.use_proprio, loaded.max_step, loaded.embed_dim) == (
        False, 0.03, 6)
    for name, t in policy.parameters().items():
        assert np.array_equal(loaded.parameters()[name].data, t.data), name

    store = policy.store()
    store.description = None
    save_checkpoint(store, path)
    with pytest.raises(CheckpointError, match="is a plain checkpoint"):
        load_policy(path)


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

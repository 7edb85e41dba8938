"""Toy 2-D pushing environment plus behavior cloning on frozen features.

The environment is a unit square: a gripper moves by bounded (dx, dy)
actions and shoves a cube by rigid contact; an episode succeeds when the
cube ends within the success radius of the target. A scripted expert
walks behind the cube and pushes it along the cube-to-target line,
supplying demonstrations. The policy is a small MLP over a frozen
single-frame encoder embedding, optionally concatenated with the
gripper position, trained with mean squared action error. Its forward
is one ``tensor.mlp`` op, one tape node; with the loss a training step
records five, and one Adam update moves all four parameter tensors.
Every environment call but ``reset`` needs a reset first.

Scene rendering reuses the synthetic-clip palette and backdrop (the
cube is drawn as the object, the gripper as the hand) so a fine-tuned
encoder sees familiar pixels. ``reset`` draws an episode's static scene
layer, the backdrop with the target's outline, once; each frame copies it
and draws the cube and the gripper over it.
Demo files store the env config and the demo seeds; reading one re-runs
the expert on each seed. ``save_policy`` and ``load_policy`` own the
policy checkpoint: the ``policy.*`` parameters, the encoder's ``enc.*``
parameters as the model checkpoint names them, that checkpoint's
description (``model``) and the env config of the demos (``env``).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import tensor as tl
from .seeding import derive_seed, rng_for
from .synth import (HAND_COLOR, OBJECT_COLOR_AFTER, DatasetError, Encoder,
                    backdrop, box_to_rect, check_seeds, config_from_json,
                    draw_rect, norm)
from .tensor import ContractError, ShapeError, Tensor, backward
from .trainer import (AdamState, CheckpointError, ModelBundle, ParamStore,
                      adam_step, encoder_from_description, load_described,
                      save_checkpoint)

TARGET_COLOR = np.array([0.20, 0.35, 0.95])


@dataclass
class ToyEnvConfig:
    horizon: int = 50
    success_radius: float = 0.05
    max_step: float = 0.05
    contact_radius: float = 0.06
    image: int = 32
    noise: float = 0.04
    cube_size: float = 0.25
    gripper_size: float = 0.16

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and value < 1:
                raise ContractError(f"env {f.name} must be >= 1, got {value}")
            # a float field is a length in the unit square the scene
            # spans, or the backdrop's noise, which at 1 spans every pixel
            if f.type == "float" and not 0.0 <= value <= 1.0:
                raise ContractError(f"env {f.name} must lie in [0, 1], got "
                                    f"{value}")


@dataclass
class EnvState:
    gripper: np.ndarray  # (x, y) in [0, 1]^2
    cube: np.ndarray
    target: np.ndarray


# Draws ``ToyEnv.reset`` may take to place the cube, target and gripper
# apart. Over 2,000 demo seeds the default env needs at most 4 and a
# contact radius of 0.6 at most 373; at 1.0 no placement exists.
PLACEMENT_ATTEMPTS = 10_000


def clip(x: float, lo: float, hi: float) -> float:
    """``np.clip`` of one float for ``lo <= hi``, bit for bit (NaN stays
    NaN, a zero inside the bounds keeps its sign), without its wrapper."""
    return lo if x < lo else hi if x > hi else x


class ToyEnv:
    """Deterministic pushing dynamics; the cube moves only under contact.

    ``reset`` draws the episode's static scene layer once: the seed's
    backdrop with the target's outline, which never moves. ``render``
    copies that layer and draws only the cube and the gripper over it.
    States are float64 2-vectors. The dynamics and the expert combine and
    ``clip`` their coordinates as Python floats and take each norm with
    ``synth.norm``: the bits of numpy's 2-vector arithmetic without its
    per-call wrappers."""

    def __init__(self, config: ToyEnvConfig | None = None):
        self.config = config or ToyEnvConfig()
        self.state: EnvState | None = None
        self._scene: np.ndarray | None = None
        self.steps = 0

    def reset(self, seed: int) -> EnvState:
        """Place the cube, target and gripper apart from the seed's draws
        that follow the backdrop's; a ContractError naming the config if
        ``PLACEMENT_ATTEMPTS`` draws place none."""
        cfg = self.config
        rng = np.random.Generator(np.random.PCG64(seed))
        scene = backdrop(rng, cfg.image, cfg.image, cfg.noise)
        for _ in range(PLACEMENT_ATTEMPTS):
            cube = rng.uniform(0.3, 0.7, size=2)
            target = rng.uniform(0.3, 0.7, size=2)
            gripper = rng.uniform(0.1, 0.9, size=2)
            if (norm(cube - target) >= 0.08
                    and norm(gripper - cube) >= cfg.contact_radius + 0.02):
                break
        else:
            raise ContractError(f"env {cfg} places no cube, target and "
                                f"gripper apart in {PLACEMENT_ATTEMPTS} draws "
                                f"of seed {seed}")
        n = cfg.image
        tx, ty = target.tolist()
        side = cfg.cube_size * 0.6
        x0, y0, w, h = box_to_rect((tx, ty, side, side), n, n)
        ix, iy, iw, ih = x0 + 1, y0 + 1, max(w - 2, 0), max(h - 2, 0)
        inside = scene[max(iy, 0):iy + ih, max(ix, 0):ix + iw].copy()
        scene[max(y0, 0):y0 + h, max(x0, 0):x0 + w] = TARGET_COLOR
        scene[max(iy, 0):iy + ih, max(ix, 0):ix + iw] = inside
        self._scene = scene
        self.state = EnvState(gripper=gripper, cube=cube, target=target)
        self.steps = 0
        return self.state

    def _reset_state(self, what: str) -> EnvState:
        if self.state is None:
            raise ContractError(f"{what} before reset")
        return self.state

    def step(self, action: np.ndarray) -> EnvState:
        """Move the gripper by ``action`` (a (dx, dy) pair, each clipped to
        ``max_step``) inside the unit square; a gripper closer than the
        contact radius pushes the cube out to it."""
        state = self._reset_state("step")
        cfg = self.config
        a = np.asarray(action, dtype=np.float64)
        if a.shape != (2,):
            raise ShapeError(f"an action is a (dx, dy) pair, got shape "
                             f"{a.shape}")
        ax, ay = a.tolist()
        gx, gy = state.gripper.tolist()
        m = cfg.max_step
        gx = clip(gx + clip(ax, -m, m), 0.0, 1.0)
        gy = clip(gy + clip(ay, -m, m), 0.0, 1.0)
        g = np.array((gx, gy))
        cube = state.cube
        sep = cube - g
        dist = norm(sep)
        r = cfg.contact_radius
        if dist < r:
            sx, sy = sep.tolist()
            dx, dy = (sx / dist, sy / dist) if dist > 0 else (1.0, 0.0)
            cube = np.array((clip(gx + dx * r, 0.0, 1.0),
                             clip(gy + dy * r, 0.0, 1.0)))
        self.state = EnvState(gripper=g, cube=cube, target=state.target)
        self.steps += 1
        return self.state

    def success(self) -> bool:
        """Whether the cube is within the success radius of the target,
        as a plain ``bool``."""
        state = self._reset_state("success")
        return (norm(state.cube - state.target)
                < self.config.success_radius)

    def render(self) -> np.ndarray:
        state = self._reset_state("render")
        cfg = self.config
        img = self._scene.copy()
        n = cfg.image
        cx, cy = state.cube.tolist()
        draw_rect(img, box_to_rect((cx, cy, cfg.cube_size, cfg.cube_size),
                                   n, n), OBJECT_COLOR_AFTER)
        gx, gy = state.gripper.tolist()
        draw_rect(img, box_to_rect((gx, gy, cfg.gripper_size, cfg.gripper_size),
                                   n, n), HAND_COLOR)
        return img


def expert_policy(state: EnvState, cfg: ToyEnvConfig) -> np.ndarray:
    """Scripted demonstrator: line up behind the cube, then push it along
    the cube-to-target line; steps shrink near the goal to avoid overshoot."""
    to_target = state.target - state.cube
    d = norm(to_target)
    if d <= cfg.success_radius * 0.5:
        return np.zeros(2)
    m = cfg.max_step
    px, py = to_target.tolist()
    px, py = px / d, py / d
    standoff = cfg.contact_radius + 0.01
    cx, cy = state.cube.tolist()
    gx, gy = state.gripper.tolist()
    to_behind = np.array((cx - px * standoff - gx, cy - py * standoff - gy))
    d_behind = norm(to_behind)

    if d_behind > 0.015:
        bx, by = to_behind.tolist()
        reach = min(m, d_behind)
        sx = bx / (d_behind + 1e-12) * reach
        sy = by / (d_behind + 1e-12) * reach
        # Detour instead of brushing the cube on the way around.
        if (norm(np.array((gx + sx - cx, gy + sy - cy)))
                < cfg.contact_radius + 0.005):
            rx, ry = gx - cx, gy - cy
            length = norm(np.array((rx, ry))) + 1e-12
            rx, ry = rx / length, ry / length
            tx, ty = -ry, rx
            if np.array((tx, ty)).dot(to_behind) < 0:
                tx, ty = -tx, -ty
            # A gripper on the cube makes this numpy's 0 / 0: a warning
            # and a NaN step, where float division would raise.
            step = np.array((tx + rx * 0.3, ty + ry * 0.3))
            sx, sy = (step / norm(step) * m).tolist()
        return np.array((clip(sx, -m, m), clip(sy, -m, m)))
    reach = min(m, d)
    return np.array((clip(px * reach, -m, m), clip(py * reach, -m, m)))


@dataclass
class Transition:
    obs: np.ndarray      # [image, image, 3]
    proprio: np.ndarray  # gripper (x, y)
    action: np.ndarray   # expert (dx, dy)


@dataclass
class Demo:
    seed: int
    transitions: list[Transition]
    success: bool  # ``ToyEnv.success()`` at the end, a plain ``bool``


def run_episode(env: ToyEnv, actor, seed: int,
                record: bool = False) -> tuple[bool, list[Transition]]:
    """Roll one seeded episode; ``actor(state, obs) -> action``."""
    state = env.reset(seed)
    transitions: list[Transition] = []
    for _ in range(env.config.horizon):
        obs = env.render()
        action = np.asarray(actor(state, obs), dtype=np.float64)
        if record:
            transitions.append(Transition(obs=obs,
                                          proprio=state.gripper.copy(),
                                          action=action.copy()))
        state = env.step(action)
        if env.success():
            break
    return env.success(), transitions


def expert_demo(env: ToyEnv, seed: int) -> Demo:
    """The scripted expert's recorded episode on one seed."""
    ok, transitions = run_episode(
        env, lambda s, o: expert_policy(s, env.config), seed, record=True)
    return Demo(seed=seed, transitions=transitions, success=ok)


# Expert episodes ``collect_demos`` may roll per demo asked for. The
# expert solves every seed at the default horizon; at a horizon of 5 it
# solves about 3 seeds in 100, which this still covers.
ATTEMPTS_PER_DEMO = 200


def collect_demos(count: int, seed: int,
                  env_cfg: ToyEnvConfig | None = None) -> list[Demo]:
    """Seeded expert rollouts; the (unexpected) failures are dropped, with
    one warning per call that counts them and names the first. A
    DatasetError when ``count * ATTEMPTS_PER_DEMO`` seeds yield fewer than
    ``count`` successes."""
    if count < 1:
        raise ContractError("need at least one demonstration")
    env = ToyEnv(env_cfg or ToyEnvConfig())
    demos: list[Demo] = []
    failed: list[int] = []
    attempts = count * ATTEMPTS_PER_DEMO
    for i in range(attempts):
        demo = expert_demo(env, derive_seed(seed, "demo", i))
        if not demo.success:
            failed.append(demo.seed)
        else:
            demos.append(demo)
            if len(demos) == count:
                break
    if failed:
        warnings.warn(f"expert failed on {len(failed)} demo seeds, the first "
                      f"{failed[0]}; discarded")
    if len(demos) < count:
        raise DatasetError(f"the expert solved {len(demos)} of {attempts} "
                           f"episodes within the horizon of "
                           f"{env.config.horizon} steps; {count} demos "
                           "needed")
    return demos


def write_demos(path, env_cfg: ToyEnvConfig, demos: list[Demo],
                header: dict) -> None:
    """A ``# {json}`` header line, then one JSON line holding the env
    config and the demo seeds."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("# " + json.dumps(header, sort_keys=True) + "\n")
        f.write(json.dumps({"env": asdict(env_cfg),
                            "seeds": [d.seed for d in demos]},
                           sort_keys=True) + "\n")


def read_demos(path) -> tuple[ToyEnvConfig, list[Demo]]:
    """Regenerate a demo file's demos by re-running the expert on each
    seed; a malformed file or a seed the expert fails on is a
    DatasetError."""
    with open(path, "r", encoding="utf-8") as f:
        records = [(n, line) for n, line in enumerate(f, start=1)
                   if line.strip() and not line.startswith("#")]
    if len(records) != 1:
        raise DatasetError(f"demo file needs one record line, found "
                           f"{len(records)}")
    lineno, line = records[0]
    try:
        raw = json.loads(line)
        cfg = config_from_json(ToyEnvConfig, raw["env"], "env")
        seeds = raw["seeds"]
        check_seeds(seeds)
    except (json.JSONDecodeError, KeyError, TypeError, ContractError) as e:
        raise DatasetError(f"line {lineno}: {e!r}") from None
    env = ToyEnv(cfg)
    demos = [expert_demo(env, seed) for seed in seeds]
    failed = [d.seed for d in demos if not d.success]
    if failed:
        raise DatasetError(f"expert fails on demo seeds {failed}")
    return cfg, demos


@dataclass
class Policy:
    """Two-layer MLP from [embedding (+ proprio)] to a (dx, dy) action."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    use_proprio: bool
    max_step: float

    @classmethod
    def init(cls, rng: np.random.Generator, embed_dim: int, hidden: int = 64,
             use_proprio: bool = True, max_step: float = 0.05) -> "Policy":
        d_in = embed_dim + (2 if use_proprio else 0)
        return cls(
            w1=tl.randn(rng, (d_in, hidden), std=1.0 / np.sqrt(d_in),
                        requires_grad=True),
            b1=tl.zeros(hidden, requires_grad=True),
            w2=tl.randn(rng, (hidden, 2), std=0.01, requires_grad=True),
            b2=tl.zeros(2, requires_grad=True),
            use_proprio=use_proprio,
            max_step=max_step,
        )

    def parameters(self) -> dict[str, Tensor]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    @property
    def embed_dim(self) -> int:
        return self.w1.shape[0] - (2 if self.use_proprio else 0)

    def store(self) -> ParamStore:
        s = ParamStore({"kind": "policy", "embed_dim": self.embed_dim,
                        "hidden": self.w1.shape[1], "max_step": self.max_step,
                        "use_proprio": self.use_proprio})
        s.add_module("policy", self.parameters())
        return s

    def forward(self, x: Tensor) -> Tensor:
        return tl.mlp(x, self.w1, self.b1, self.w2, self.b2)

    @tl.no_tape()
    def act(self, embedding: np.ndarray, proprio: np.ndarray) -> np.ndarray:
        parts = [embedding] + ([proprio] if self.use_proprio else [])
        x = tl.constant(np.concatenate(parts)[None, :])
        raw = self.forward(x).data[0]
        return np.clip(raw, -self.max_step, self.max_step)

    def as_actor(self, embed_fn):
        def actor(state: EnvState, obs: np.ndarray) -> np.ndarray:
            return self.act(embed_fn(obs), state.gripper)
        return actor


def save_policy(path, policy: Policy, model: ModelBundle,
                env_cfg: ToyEnvConfig) -> None:
    """Write ``policy`` with the encoder of ``model`` it acts on and the
    env config of the demos it learned from."""
    store = policy.store()
    store.description.update(model=model.store.description,
                             env=asdict(env_cfg))
    store.add_module("enc", model.encoder.parameters())
    save_checkpoint(store, path)


def load_policy(path) -> tuple[Policy, Encoder, ToyEnvConfig, dict]:
    """The policy a ``save_policy`` file holds, its encoder, its env config
    and the file's description."""
    def build(desc):
        if "model" not in desc or "env" not in desc:
            raise CheckpointError(f"{path} holds no encoder and env, as "
                                  "policy files of earlier versions; re-run "
                                  "bc-train to write one that does")
        env_cfg = config_from_json(ToyEnvConfig, desc["env"], "env")
        encoder = encoder_from_description(desc["model"])
        policy = Policy.init(np.random.default_rng(0), desc["embed_dim"],
                             desc["hidden"], desc["use_proprio"],
                             desc["max_step"])
        store = policy.store()
        store.add_module("enc", encoder.parameters())
        return (policy, encoder, env_cfg, desc), store
    return load_described(path, "policy", build)


def _demo_features(demos: list[Demo], embed_fn,
                   use_proprio: bool) -> tuple[np.ndarray, np.ndarray]:
    steps = [tr for demo in demos for tr in demo.transitions]
    x = np.stack([embed_fn(tr.obs) for tr in steps])
    if use_proprio:
        x = np.concatenate([x, np.stack([tr.proprio for tr in steps])], 1)
    return x, np.stack([tr.action for tr in steps])


BC_BATCH_SIZE = 64  # transitions per ``bc_train`` step, or all if fewer


def bc_train(demos: list[Demo], embed_fn, steps: int, seed: int,
             lr: float = 1e-3, use_proprio: bool = True,
             max_step: float = 0.05) -> tuple[Policy, list[float]]:
    """Regress expert actions from frozen embeddings (+ proprio).

    Observations are embedded once up front; gradients never reach the
    encoder. Returns the trained policy and the per-step loss log.
    """
    if not demos:
        raise ContractError("no demonstrations")
    if steps < 1:
        raise ContractError(f"BC steps must be >= 1, got {steps}")
    if not (np.isfinite(lr) and lr > 0):
        raise ContractError(f"BC lr must be finite and > 0, got {lr}")
    x_all, y_all = _demo_features(demos, embed_fn, use_proprio)
    n = x_all.shape[0]
    rng = rng_for(seed, "bc")
    policy = Policy.init(rng, embed_dim=x_all.shape[1] - (2 if use_proprio else 0),
                         use_proprio=use_proprio, max_step=max_step)
    store = policy.store()
    adam = AdamState(lr=lr)
    log: list[float] = []
    size = min(BC_BATCH_SIZE, n)
    for _ in range(steps):
        idx = rng.choice(n, size=size, replace=False)
        xb = tl.constant(x_all[idx])
        yb = tl.constant(y_all[idx])
        diff = tl.sub(policy.forward(xb), yb)
        loss = tl.mean_all(tl.mul(diff, diff))
        backward(loss)
        adam_step(store, adam)
        log.append(loss.item())
    return policy, log


def bc_eval(actor, episodes: int, seed: int,
            env_cfg: ToyEnvConfig | None = None) -> float:
    """Fraction of seeded episodes the actor solves within the horizon."""
    if episodes < 1:
        raise ContractError("need at least one episode")
    cfg = env_cfg or ToyEnvConfig()
    env = ToyEnv(cfg)
    wins = 0
    for i in range(episodes):
        ok, _ = run_episode(env, actor, derive_seed(seed, "eval", i))
        wins += int(ok)
    return wins / episodes


@dataclass
class CompareReport:
    tuned_rate: float
    baseline_rate: float
    tuned_per_seed: list[float] = field(default_factory=list)
    baseline_per_seed: list[float] = field(default_factory=list)

    @property
    def gap(self) -> float:
        return self.tuned_rate - self.baseline_rate


def compare_representations(tuned_embed, baseline_embed, demos: list[Demo],
                            bc_steps: int, seeds: list[int], episodes: int,
                            env_cfg: ToyEnvConfig,
                            use_proprio: bool = True) -> CompareReport:
    """A/B the two frozen embeddings under the identical BC protocol:
    same demos, per-seed policy training, paired evaluation episodes."""
    if not seeds:
        raise ContractError("need at least one BC seed")
    results: dict[str, list[float]] = {"tuned": [], "baseline": []}
    for name, embed in (("tuned", tuned_embed), ("baseline", baseline_embed)):
        for s in seeds:
            policy, _ = bc_train(demos, embed, steps=bc_steps, seed=s,
                                 use_proprio=use_proprio,
                                 max_step=env_cfg.max_step)
            rate = bc_eval(policy.as_actor(embed), episodes,
                           derive_seed(s, "bc-eval"), env_cfg)
            results[name].append(rate)
    return CompareReport(
        tuned_rate=float(np.mean(results["tuned"])),
        baseline_rate=float(np.mean(results["baseline"])),
        tuned_per_seed=results["tuned"],
        baseline_per_seed=results["baseline"],
    )

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

Scene rendering reuses the synthetic-clip palette (the cube is drawn as
the object, the gripper as the hand) so a fine-tuned encoder sees
familiar pixels.
Demo files store the env config and the demo seeds; reading one re-runs
the expert on each seed.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import tensor as tl
from .seeding import derive_seed, rng_for
from .synth import (BACKGROUND_LEVEL, HAND_COLOR, OBJECT_COLOR_AFTER,
                    DatasetError, box_to_rect, draw_rect)
from .tensor import ContractError, Tensor, backward
from .trainer import AdamState, ParamStore, adam_step, load_described

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
        for name in ("horizon", "image"):
            value = getattr(self, name)
            if value < 1:
                raise ContractError(f"env {name} must be >= 1, got {value}")


@dataclass
class EnvState:
    gripper: np.ndarray  # (x, y) in [0, 1]^2
    cube: np.ndarray
    target: np.ndarray


class ToyEnv:
    """Deterministic pushing dynamics; the cube moves only under contact."""

    def __init__(self, config: ToyEnvConfig | None = None):
        self.config = config or ToyEnvConfig()
        self.state: EnvState | None = None
        self._background: np.ndarray | None = None
        self.steps = 0

    def reset(self, seed: int) -> EnvState:
        cfg = self.config
        rng = np.random.Generator(np.random.PCG64(seed))
        bg = BACKGROUND_LEVEL + rng.uniform(-cfg.noise, cfg.noise,
                                            size=(cfg.image, cfg.image, 3))
        self._background = np.clip(bg, 0.0, 1.0)
        while True:
            cube = rng.uniform(0.3, 0.7, size=2)
            target = rng.uniform(0.3, 0.7, size=2)
            gripper = rng.uniform(0.1, 0.9, size=2)
            if (np.linalg.norm(cube - target) >= 0.08
                    and np.linalg.norm(gripper - cube)
                    >= cfg.contact_radius + 0.02):
                break
        self.state = EnvState(gripper=gripper, cube=cube, target=target)
        self.steps = 0
        return self.state

    def _reset_state(self, what: str) -> EnvState:
        if self.state is None:
            raise ContractError(f"{what} before reset")
        return self.state

    def step(self, action: np.ndarray) -> EnvState:
        state = self._reset_state("step")
        cfg = self.config
        a = np.clip(np.asarray(action, dtype=np.float64),
                    -cfg.max_step, cfg.max_step)
        g = np.clip(state.gripper + a, 0.0, 1.0)
        cube = state.cube
        sep = cube - g
        dist = float(np.linalg.norm(sep))
        if dist < cfg.contact_radius:
            direction = sep / dist if dist > 0 else np.array([1.0, 0.0])
            cube = np.clip(g + direction * cfg.contact_radius, 0.0, 1.0)
        self.state = EnvState(gripper=g, cube=cube, target=state.target)
        self.steps += 1
        return self.state

    def success(self) -> bool:
        state = self._reset_state("success")
        return (np.linalg.norm(state.cube - state.target)
                < self.config.success_radius)

    def render(self) -> np.ndarray:
        state = self._reset_state("render")
        cfg = self.config
        img = self._background.copy()
        n = cfg.image
        tx, ty = state.target
        marker = box_to_rect((tx, ty, cfg.cube_size * 0.6, cfg.cube_size * 0.6),
                             n, n)
        x0, y0, w, h = marker
        img[max(y0, 0):y0 + h, max(x0, 0):x0 + w] = TARGET_COLOR
        inner = (x0 + 1, y0 + 1, max(w - 2, 0), max(h - 2, 0))
        ix, iy, iw, ih = inner
        img[max(iy, 0):iy + ih, max(ix, 0):ix + iw] = \
            self._background[max(iy, 0):iy + ih, max(ix, 0):ix + iw]
        cx, cy = state.cube
        draw_rect(img, box_to_rect((cx, cy, cfg.cube_size, cfg.cube_size),
                                   n, n), OBJECT_COLOR_AFTER)
        gx, gy = state.gripper
        draw_rect(img, box_to_rect((gx, gy, cfg.gripper_size, cfg.gripper_size),
                                   n, n), HAND_COLOR)
        return np.clip(img, 0.0, 1.0)


def expert_policy(state: EnvState, cfg: ToyEnvConfig) -> np.ndarray:
    """Scripted demonstrator: line up behind the cube, then push it along
    the cube-to-target line; steps shrink near the goal to avoid overshoot."""
    to_target = state.target - state.cube
    d = float(np.linalg.norm(to_target))
    if d <= cfg.success_radius * 0.5:
        return np.zeros(2)
    push_dir = to_target / d
    standoff = cfg.contact_radius + 0.01
    behind = state.cube - push_dir * standoff
    to_behind = behind - state.gripper
    d_behind = float(np.linalg.norm(to_behind))

    if d_behind > 0.015:
        step = to_behind / (d_behind + 1e-12) * min(cfg.max_step, d_behind)
        nxt = state.gripper + step
        # Detour instead of brushing the cube on the way around.
        if np.linalg.norm(nxt - state.cube) < cfg.contact_radius + 0.005:
            radial = state.gripper - state.cube
            radial = radial / (np.linalg.norm(radial) + 1e-12)
            tangent = np.array([-radial[1], radial[0]])
            if np.dot(tangent, to_behind) < 0:
                tangent = -tangent
            step = (tangent + radial * 0.3)
            step = step / np.linalg.norm(step) * cfg.max_step
        return np.clip(step, -cfg.max_step, cfg.max_step)
    push = push_dir * min(cfg.max_step, d)
    return np.clip(push, -cfg.max_step, cfg.max_step)


@dataclass
class Transition:
    obs: np.ndarray      # [image, image, 3]
    proprio: np.ndarray  # gripper (x, y)
    action: np.ndarray   # expert (dx, dy)


@dataclass
class Demo:
    seed: int
    transitions: list[Transition]
    success: bool


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


def _check_types(env, seeds) -> None:
    if not isinstance(env, dict):
        raise TypeError("env must be an object")
    for f in fields(ToyEnvConfig):
        allowed = (int,) if f.type == "int" else (int, float)
        if type(env.get(f.name, f.default)) not in allowed:
            raise TypeError(f"env {f.name} must be {f.type}")
    if not (isinstance(seeds, list) and seeds
            and all(type(s) is int and s >= 0 for s in seeds)):
        raise TypeError("seeds must be a nonempty list of non-negative ints")


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
        env, seeds = raw["env"], raw["seeds"]
        _check_types(env, seeds)
        cfg = ToyEnvConfig(**env)
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
    """Two-layer MLP from [embedding (+ proprio)] to a (dx, dy) action.

    ``encoder`` records the encoder the policy was trained on, None if
    unknown; the CLI's ``bc-train`` sets it to the model checkpoint's
    description and a sha256 of its ``enc.*`` payload, and the policy's
    checkpoint keeps it.
    """

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    use_proprio: bool
    max_step: float
    encoder: dict | None = None

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
                        "use_proprio": self.use_proprio,
                        "encoder": self.encoder})
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


def load_policy(path) -> Policy:
    """Rebuild the policy a checkpoint describes, then load its values."""
    def build(desc):
        policy = Policy.init(np.random.default_rng(0), desc["embed_dim"],
                             hidden=desc["hidden"],
                             use_proprio=desc["use_proprio"],
                             max_step=desc["max_step"])
        policy.encoder = desc.get("encoder")
        return policy, policy.store()
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
    random_rate: float
    tuned_per_seed: list[float] = field(default_factory=list)
    random_per_seed: list[float] = field(default_factory=list)

    @property
    def gap(self) -> float:
        return self.tuned_rate - self.random_rate


def compare_representations(tuned_embed, random_embed, demos: list[Demo],
                            bc_steps: int, seeds: list[int], episodes: int,
                            env_cfg: ToyEnvConfig | None = None,
                            use_proprio: bool = True) -> CompareReport:
    """A/B the two frozen embeddings under the identical BC protocol:
    same demos, per-seed policy training, paired evaluation episodes."""
    if not seeds:
        raise ContractError("need at least one BC seed")
    cfg = env_cfg or ToyEnvConfig()
    results: dict[str, list[float]] = {"tuned": [], "random": []}
    for name, embed in (("tuned", tuned_embed), ("random", random_embed)):
        for s in seeds:
            policy, _ = bc_train(demos, embed, steps=bc_steps, seed=s,
                                 use_proprio=use_proprio,
                                 max_step=cfg.max_step)
            rate = bc_eval(policy.as_actor(embed), episodes,
                           derive_seed(s, "bc-eval"), cfg)
            results[name].append(rate)
    return CompareReport(
        tuned_rate=float(np.mean(results["tuned"])),
        random_rate=float(np.mean(results["random"])),
        tuned_per_seed=results["tuned"],
        random_per_seed=results["random"],
    )

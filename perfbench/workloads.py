"""The workloads: set-up, measured rounds and correctness checks.

Each workload drives the library entry points the CLI calls
(``synth.write_dataset``/``read_dataset``, ``trainer.train``/``evaluate``/
``save_checkpoint``/``load_checkpoint``, ``bc.collect_demos``/``bc_train``/
``bc_eval``) through their module attributes, so a traced run sees them
wrapped and a refactor inside a module shows up in the numbers. The load
is a closed loop: one caller, the next call only after the previous one
returned. All inputs derive from the workload seed.

A round is a timed set-up followed by a fixed amount of work (train,
checkpoint round trip, eval), so its outputs repeat exactly. The first
round of a run is the check round: it trains long enough for the loss to
fall and warms the process up; only its set-up is timed. Every later
round is a timed round: the same work with the shortest training calls,
made several times. A run repeats timed rounds until ``--seconds`` are
used, at least twice.

Every timed round makes the same calls on the same inputs, and each call
hands control back to the benchmark at the same moments: when it asks a
record for its clip, the model for a prediction or the actor for an
action. Those moments split a call's wall time into the same segments in
every round; ``end_to_end`` adds up each segment's fastest time.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
import time
import traceback
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from taskfusion import bc, synth, trainer
from taskfusion.seeding import derive_seed, rng_for

from stats import percentile, tail_percentile


@dataclass(frozen=True)
class Size:
    frames: int
    image: int
    width: int
    batch: int
    train_clips: int
    heldout_clips: int    # clips of the one evaluate call per round
    compare_clips: int    # clips compared across the checkpoint round trip
    check_steps: int      # trainer.train steps in the check round
    timed_steps: int      # trainer.train steps per call in a timed round
    timed_calls: int      # train or bc_train calls in a timed round
    demos: int
    bc_check_steps: int   # bc_train steps in the check round
    bc_steps: int         # bc_train steps per call in a timed round
    episodes: int         # bc_eval episodes per round


SIZES = {
    # The CLI defaults: B=32, width 64, 2 decoder layers, 16x32x32 clips.
    "full": Size(frames=16, image=32, width=64, batch=32, train_clips=128,
                 heldout_clips=32, compare_clips=4, check_steps=8,
                 timed_steps=1, timed_calls=3, demos=8, bc_check_steps=400,
                 bc_steps=4, episodes=5),
    # Seconds-long smoke size for the benchmark's own test.
    "tiny": Size(frames=4, image=16, width=16, batch=4, train_clips=8,
                 heldout_clips=6, compare_clips=2, check_steps=8,
                 timed_steps=1, timed_calls=2, demos=4, bc_check_steps=60,
                 bc_steps=4, episodes=2),
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "train" or "bc"


# Why each workload was chosen is recorded in BENCHMARK.json. Both use the
# CLI's default encoder; train_pft's clips change state half the time.
WORKLOADS = {w.name: w for w in (Workload("train_pft", "train"),
                                 Workload("bc_pft", "bc"))}
ENCODER = "per_frame_token"
P_CHANGE = 0.5


class Ledger:
    """Operations attempted and failed, and the outcome of every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, list[int]] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        counts = self.checks.setdefault(name, [0, 0])
        counts[0 if ok else 1] += 1
        if not ok:
            print(f"check {name} failed: {detail}", file=sys.stderr)
        return ok

    def ops(self, count: int, ok: bool) -> None:
        self.attempted += count
        if not ok:
            self.failed += count


@dataclass
class Measurements:
    """Raw end-to-end timings (segments of the set-ups and of the timed
    calls, latency samples) and, per round, its kind, output digest and
    operations."""

    # Per round, check round included, the segments of its set-up.
    setup_segments: list[np.ndarray] = field(default_factory=list)
    # Per timed round, the segments of the timed training and eval calls,
    # and the clips, steps or actions each call did.
    train_segments: list[np.ndarray] = field(default_factory=list)
    eval_segments: list[np.ndarray] = field(default_factory=list)
    train_units: int = 0
    eval_units: int = 0
    latencies: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)   # "check" or "timed"
    digests: list[str] = field(default_factory=list)
    tape_digests: list[str] = field(default_factory=list)
    round_ops: list[tuple[int, int]] = field(default_factory=list)
    check_log: list[float] = field(default_factory=list)
    loss_final: float | None = None   # last loss of the check round
    checkpoint_bytes: list[int] = field(default_factory=list)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Marks:
    """The moments a library call hands control to the benchmark and gets
    it back; their differences split the call's wall time into segments."""

    def __init__(self):
        self.times = [time.perf_counter()]

    def mark(self) -> float:
        self.times.append(time.perf_counter())
        return self.times[-1]

    def segments(self) -> np.ndarray:
        self.mark()
        return np.diff(self.times)


class MarkedRecord:
    """A dataset record for ``train`` and ``evaluate`` that marks when the
    call asks it for its clip and when it gets it."""

    def __init__(self, record, marks: Marks):
        self._record = record
        self._marks = marks

    def __getattr__(self, name):
        return getattr(self._record, name)

    def clip(self):
        self._marks.mark()
        clip = self._record.clip()
        self._marks.mark()
        return clip


class EmbedFn:
    """The ``embed_fn`` callback for the BC stage; marks each call while
    ``marks`` is set."""

    def __init__(self, encoder, tracer):
        self._embed = encoder.embed_frame
        self._tracer = tracer
        self.marks: Marks | None = None

    def __call__(self, obs: np.ndarray) -> np.ndarray:
        if self.marks is not None:
            self.marks.mark()
        if self._tracer is None:
            out = self._embed(obs)
        else:
            with self._tracer.span("synth.embed_frame"):
                out = self._embed(obs)
        if self.marks is not None:
            self.marks.mark()
        return out


class TimedPredictor:
    """Duck-typed model for ``trainer.evaluate`` (``predict`` and
    ``enabled_tasks``) that records each ``predict`` latency."""

    def __init__(self, model, samples: list[float], marks: Marks):
        self._model = model
        self._samples = samples
        self._marks = marks
        self.enabled_tasks = model.enabled_tasks

    def predict(self, clip):
        start = self._marks.mark()
        preds = self._model.predict(clip)
        self._samples.append(self._marks.mark() - start)
        return preds


def _prediction_arrays(preds) -> list[np.ndarray]:
    arrays = [preds.oscc_logits.data, preds.pnr_logits.data,
              np.array([preds.keyframe_used])]
    for q in preds.scod:
        arrays += [q.class_logits.data, q.box.data]
    return arrays


def _same(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _falls(losses: list[float]) -> bool:
    """Mean of the last quarter of the log is below the first loss."""
    q = max(1, len(losses) // 4)
    return statistics.fmean(losses[-q:]) < losses[0]


def _check_losses(ledger: Ledger, prefix: str, losses: list[float],
                  finite: bool, check: bool, m: Measurements) -> bool:
    """The check round's loss falls; a timed round's log repeats the start
    of the check round's, as the same seed must."""
    ok = ledger.check(f"{prefix}.loss_finite", finite, "non-finite loss")
    if check:
        ok &= ledger.check(f"{prefix}.loss_falls", finite and _falls(losses),
                           f"first {losses[0]}, last {losses[-1]}")
        m.check_log, m.loss_final = losses, losses[-1]
    else:
        ok &= ledger.check("determinism.prefix",
                           losses == m.check_log[:len(losses)],
                           "timed round's losses differ from the start of "
                           "the check round's")
    return ok


# ---------------------------------------------------------------------------
# train_pft


@dataclass
class TrainContext:
    config: trainer.TrainConfig
    train_records: list
    heldout: list
    work: Path


def _train_config(size: Size, seed: int) -> trainer.TrainConfig:
    return trainer.TrainConfig(steps=size.check_steps, batch_size=size.batch,
                               seed=seed, encoder=ENCODER, width=size.width)


def setup_train(size: Size, seed: int, work: Path, ledger: Ledger,
                marks: Marks, tracer=None) -> TrainContext:
    """Dataset write plus validated read, model build and a checkpoint
    round trip of the initial model, as ``gen-data``, ``train`` and
    ``eval`` do them; a mark after each library call."""
    clip_cfg = synth.ClipConfig(frames=size.frames, height=size.image,
                                width=size.image, p_change=P_CHANGE)
    train_path, held_path = work / "train.ndjson", work / "heldout.ndjson"
    synth.write_dataset(train_path, size.train_clips,
                        derive_seed(seed, "train-data"), clip_cfg)
    marks.mark()
    synth.write_dataset(held_path, size.heldout_clips,
                        derive_seed(seed, "heldout-data"), clip_cfg)
    marks.mark()
    records = synth.read_dataset(train_path)
    marks.mark()
    heldout = synth.read_dataset(held_path)
    marks.mark()
    config = _train_config(size, seed)
    model = trainer.build_model(config, frames=size.frames, image=size.image)
    marks.mark()
    ckpt = work / "init.ckpt"
    trainer.save_checkpoint(model.store, ckpt)
    marks.mark()
    loaded = trainer.build_model(config, frames=size.frames, image=size.image)
    marks.mark()
    trainer.copy_parameters(trainer.load_checkpoint(ckpt), loaded.store)
    marks.mark()
    same = all(np.array_equal(t.data, loaded.store[name].data)
               for name, t in model.store.items())
    ledger.check("setup.checkpoint_roundtrip", same,
                 "reloaded initial parameters differ")
    ledger.check("setup.dataset_sizes",
                 (len(records), len(heldout))
                 == (size.train_clips, size.heldout_clips),
                 f"read {len(records)}/{len(heldout)} records")
    return TrainContext(config, records, heldout, work)


def _eval_report_ok(report, heldout, frames: int) -> tuple[bool, str]:
    changes = sum(r.labels.state_change for r in heldout)
    duration = heldout[0].config.clip_duration_seconds

    def within(v, lo, hi):
        return v is not None and math.isfinite(v) and lo <= v <= hi

    problems = []
    if report.clip_count != len(heldout):
        problems.append(f"clip_count {report.clip_count} != {len(heldout)}")
    if not within(report.oscc_accuracy, 0.0, 1.0):
        problems.append(f"oscc_accuracy {report.oscc_accuracy}")
    for name, value, hi in (("pnr_error_frames", report.pnr_error_frames,
                             frames - 1),
                            ("pnr_error_seconds", report.pnr_error_seconds,
                             duration),
                            ("scod_mean_iou", report.scod_mean_iou, 1.0)):
        if (value is None) != (changes == 0) or (
                value is not None and not within(value, 0.0, hi)):
            problems.append(f"{name} {value} with {changes} change clips")
    for task, value in report.loss_means.items():
        if not within(value, -1e-9, math.inf):
            problems.append(f"loss_{task} {value}")
    return not problems, "; ".join(problems)


def train_round(ctx: TrainContext, size: Size, ledger: Ledger,
                m: Measurements, check: bool) -> None:
    config = replace(ctx.config,
                     steps=size.check_steps if check else size.timed_steps)
    for _ in range(1 if check else size.timed_calls):
        marks = Marks()
        result = trainer.train(
            [MarkedRecord(r, marks) for r in ctx.train_records], config)
        if not check:
            m.train_segments.append(marks.segments())
            m.train_units = config.steps * config.batch_size
        losses = [row["loss_total"] for row in result.log]
        finite = all(math.isfinite(v) for row in result.log
                     for k, v in row.items() if k != "step" and v is not None)
        ledger.ops(config.steps,
                   _check_losses(ledger, "train", losses, finite, check, m))

    path = ctx.work / "trained.ckpt"
    trainer.save_checkpoint(result.model.store, path)
    m.checkpoint_bytes.append(path.stat().st_size)
    loaded = trainer.build_model(ctx.config, frames=size.frames,
                                 image=size.image)
    trainer.copy_parameters(trainer.load_checkpoint(path), loaded.store)
    compare = ctx.heldout[:size.compare_clips]
    same = all(_same(_prediction_arrays(result.model.predict(r.clip())),
                     _prediction_arrays(loaded.predict(r.clip())))
               for r in compare)
    ledger.ops(len(compare), ledger.check(
        "checkpoint.same_predictions", same,
        "reloaded model predicts differently"))

    samples: list[float] = []
    marks = Marks()
    report = trainer.evaluate(TimedPredictor(loaded, samples, marks),
                              [MarkedRecord(r, marks) for r in ctx.heldout])
    eval_segments = marks.segments()
    ok, detail = _eval_report_ok(report, ctx.heldout, size.frames)
    ledger.ops(len(ctx.heldout), ledger.check("eval.report_valid", ok, detail))

    if not check:
        m.eval_segments.append(eval_segments)
        m.eval_units = len(ctx.heldout)
        m.latencies += samples
    m.digests.append(digest([result.log, report.rows()]))


def train_round_ops(ctx: TrainContext, size: Size, check: bool) -> int:
    return ((size.check_steps if check
             else size.timed_steps * size.timed_calls)
            + size.compare_clips + len(ctx.heldout))


# ---------------------------------------------------------------------------
# bc_pft


@dataclass
class BcContext:
    embed: EmbedFn
    demos: list
    env_cfg: bc.ToyEnvConfig
    seed: int
    work: Path


def setup_bc(size: Size, seed: int, work: Path, ledger: Ledger,
             marks: Marks, tracer=None) -> BcContext:
    """Encoder build, its checkpoint round trip (as ``bc-train
    --checkpoint`` loads it) and expert demo collection; a mark after each
    library call."""
    def build():
        return synth.build_encoder(ENCODER, rng_for(seed, "init", "enc"),
                                   width=size.width, frames=size.frames,
                                   image=size.image)

    encoder = build()
    marks.mark()
    store = trainer.ParamStore()
    store.add_module("enc", encoder.parameters())
    ckpt = work / "encoder.ckpt"
    trainer.save_checkpoint(store, ckpt)
    marks.mark()
    loaded = build()
    marks.mark()
    loaded_store = trainer.ParamStore()
    loaded_store.add_module("enc", loaded.parameters())
    trainer.copy_parameters(trainer.load_checkpoint(ckpt), loaded_store)
    marks.mark()
    env_cfg = bc.ToyEnvConfig(image=size.image)
    with warnings.catch_warnings(record=True) as discarded:
        warnings.simplefilter("always")
        demos = bc.collect_demos(size.demos, derive_seed(seed, "demos"),
                                 env_cfg)
    # Collected demos are expert episodes; discarded ones failed.
    good = sum(bool(d.success) for d in demos)
    ledger.attempted += len(demos) + len(discarded)
    ledger.failed += len(demos) - good + len(discarded)
    ledger.check("bc.demos_succeeded",
                 good == len(demos) == size.demos and not discarded,
                 f"{good}/{len(demos)} succeeded, {len(discarded)} discarded")
    return BcContext(EmbedFn(loaded, tracer), demos, env_cfg, seed, work)


def bc_round(ctx: BcContext, size: Size, ledger: Ledger,
             m: Measurements, check: bool) -> None:
    steps = size.bc_check_steps if check else size.bc_steps
    for _ in range(1 if check else size.timed_calls):
        ctx.embed.marks = Marks()
        policy, log = bc.bc_train(ctx.demos, ctx.embed, steps=steps,
                                  seed=derive_seed(ctx.seed, "bc"),
                                  max_step=ctx.env_cfg.max_step)
        segments = ctx.embed.marks.segments()
        ctx.embed.marks = None
        if not check:
            # Every other segment is an embed_fn call, which bc_train
            # steps per second leave out.
            m.train_segments.append(segments[0::2])
            m.train_units = steps
        finite = all(math.isfinite(v) for v in log)
        ledger.ops(steps, _check_losses(ledger, "bc", log, finite, check, m))

    # The policy checkpoint round trip of bc-train followed by bc-eval.
    path = ctx.work / "policy.ckpt"
    trainer.save_checkpoint(policy.store(), path)
    m.checkpoint_bytes.append(path.stat().st_size)
    loaded = bc.Policy.init(np.random.default_rng(0), policy.w1.shape[0] - 2,
                            hidden=policy.w1.shape[1],
                            max_step=ctx.env_cfg.max_step)
    trainer.copy_parameters(trainer.load_checkpoint(path), loaded.store())
    transitions = [t for d in ctx.demos for t in d.transitions]
    same = all(np.array_equal(policy.act(ctx.embed(t.obs), t.proprio),
                              loaded.act(ctx.embed(t.obs), t.proprio))
               for t in transitions[:size.compare_clips])

    samples: list[float] = []
    act = loaded.as_actor(ctx.embed)
    marks = Marks()

    def actor(state, obs):
        t0 = marks.mark()
        action = act(state, obs)
        samples.append(marks.mark() - t0)
        return action

    rate = bc.bc_eval(actor, size.episodes, derive_seed(ctx.seed, "bc-eval"),
                      ctx.env_cfg)
    eval_segments = marks.segments()
    ok = ledger.check("checkpoint.same_actions", same,
                      "reloaded policy acts differently")
    ok &= ledger.check("bc.success_rate_valid", 0.0 <= rate <= 1.0,
                       f"success rate {rate}")
    ledger.ops(size.episodes, ok)

    if not check:
        m.eval_segments.append(eval_segments)
        m.eval_units = len(samples)
        m.latencies += samples
    m.digests.append(digest([log, rate]))


def bc_round_ops(ctx: BcContext, size: Size, check: bool) -> int:
    return ((size.bc_check_steps if check
             else size.bc_steps * size.timed_calls) + size.episodes)


# ---------------------------------------------------------------------------
# a run


def run(wl: Workload, size: Size, seed: int, seconds: float, work: Path,
        ledger: Ledger, tracer=None) -> Measurements:
    """The check round, then timed set-up plus timed round until
    ``seconds`` are used, at least twice."""
    m = Measurements()
    setup, round_fn, round_ops = (
        (setup_train, train_round, train_round_ops) if wl.kind == "train"
        else (setup_bc, bc_round, bc_round_ops))

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    begin = time.perf_counter()
    timed = 0
    while True:
        check = not m.kinds
        ctx = None  # free the last round's inputs: peak memory is one set-up
        marks = Marks()
        start = marks.times[0]
        with span("bench.setup"):
            ctx = setup(size, seed, work, ledger, marks, tracer)
        m.setup_segments.append(marks.segments())
        tape_start = len(tracer.tape) if tracer is not None else 0
        attempted, failed = ledger.attempted, ledger.failed
        try:
            with span("bench.round"):
                round_fn(ctx, size, ledger, m, check)
        except Exception:  # a failing round is reported, not fatal
            traceback.print_exc()
            ledger.check("round.no_exception", False, "round raised")
            ledger.ops(round_ops(ctx, size, check), False)
            break
        m.kinds.append("check" if check else "timed")
        timed += not check
        took = time.perf_counter() - start
        m.round_ops.append((ledger.attempted - attempted,
                            ledger.failed - failed))
        if tracer is not None:
            m.tape_digests.append(digest([
                [n, sorted(kinds.items()), nbytes]
                for n, kinds, nbytes in tracer.tape[tape_start:]]))
        if timed >= 2 and time.perf_counter() - begin + took > seconds:
            break
    return m


def fastest_s(rounds: list[np.ndarray]) -> float:
    """The sum over a timed call's segments of each one's fastest time
    across the rounds (rounds that split the call differently, which a
    deterministic program never does, are left out)."""
    same = [r for r in rounds if r.shape == rounds[0].shape]
    return float(np.min(np.stack(same), axis=0).sum())


def end_to_end(m: Measurements, peak_rss_mb: float) -> dict[str, float]:
    """The gated end-to-end metrics.

    The machine this was tuned on (2 vCPUs shared with other tenants) ran
    code 1.3-1.8x slower most of the time, and how much drifted within
    minutes; only stretches of a few milliseconds ran at full speed, and
    they came at random. Every median, quantile and tail moved with it by
    15-40% from run to run, and so did the fastest of calls that take 0.1 s
    or more. A segment of a call lasts milliseconds, and over tens of
    rounds each one meets a quiet stretch. So the gated rates divide the
    work of a timed call by the sum of its segments' fastest times, and
    the gated latency is the fastest call (the minimum estimator of Chen
    and Revels, arXiv 1608.04295): the cost of the code on an uncontended
    machine. Set-up, repeated once per round and split at each library
    call it makes, is measured the same way: the medians of set-up time in
    two sets of ten runs differed by 38%.
    """
    return {
        "setup_s": fastest_s(m.setup_segments),
        "train_per_s": m.train_units / fastest_s(m.train_segments),
        "eval_per_s": m.eval_units / fastest_s(m.eval_segments),
        "latency_ms_min": min(m.latencies) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def reported(m: Measurements) -> dict[str, float]:
    """Ungated figures printed beside the end-to-end metrics: the medians
    over rounds of the plain wall-time rates, and the latency p50 and
    tail."""
    n = len(m.latencies)
    return {"latency_ms_p50": percentile(m.latencies, 50.0) * 1e3,
            "latency_ms_tail": percentile(m.latencies, tail_percentile(n))
            * 1e3,
            "setup_s_median": statistics.median(
                r.sum() for r in m.setup_segments),
            "train_per_s_median": statistics.median(
                m.train_units / r.sum() for r in m.train_segments),
            "eval_per_s_median": statistics.median(
                m.eval_units / r.sum() for r in m.eval_segments)}

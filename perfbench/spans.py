"""Span tracing for the traced benchmark run, and the per-layer metrics.

Spans are recorded by wrapping public functions and methods of the
``taskfusion`` modules from outside: the program's own files are never
edited. A wrapped name is patched where callers look it up, so a name a
module imported with ``from ... import`` is patched in that module's
namespace. Each span is ``[name, start, end, parent]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span
(-1 at the root); all spans stay in memory until the run ends.

A span's duration includes its children. Its self time is the duration
minus the time its direct child spans cover; the phase breakdown sums
self time per span name, so the rows of one phase add up to the phase.

If a wrapped name no longer exists, or a workload that should call it
never does, the metrics that depend on it are reported as missing, with
the name, instead of as zero.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter
from contextlib import contextmanager

from stats import percentile, tail_percentile

TRAIN = ("train_pft",)
BC = ("bc_pft",)
ALL = TRAIN + BC

# Node.op kinds of the tensor library; any other kind counts as "other".
TAPE_OPS = (
    "add", "sub", "mul", "div", "maximum", "minimum", "relu", "gelu", "exp",
    "log", "sigmoid", "tanh", "scale", "matmul", "bmm", "transpose",
    "permute", "reshape", "concat", "stack0", "narrow", "index0", "take0",
    "repeat0", "sum_all", "sum_axis", "softmax", "layer_norm",
)

# span name -> (module, attribute path) bindings wrapped to record it.
# "Encoder.encode" stands for every encoder class's own ``encode``.
WRAPPED = {
    "synth.write_dataset": [("taskfusion.synth", "write_dataset")],
    "synth.read_dataset": [("taskfusion.synth", "read_dataset")],
    "synth.regen": [("taskfusion.synth", "ClipRecord.clip")],
    "synth.encode": [("taskfusion.synth", "Encoder.encode")],
    "decoder.decode": [("taskfusion.decoder", "TaskFusionDecoder.decode")],
    "decoder.infer": [("taskfusion.decoder", "TaskFusionDecoder.infer")],
    "attention.self": [("taskfusion.decoder", "self_attention"),
                       ("taskfusion.synth", "self_attention")],
    "attention.cross": [("taskfusion.decoder", "cross_attention")],
    "losses.task": [("taskfusion.trainer", "oscc_loss"),
                    ("taskfusion.trainer", "pnr_loss")],
    "losses.scod": [("taskfusion.trainer", "scod_loss")],
    "losses.match": [("taskfusion.trainer", "match_queries"),
                     ("taskfusion.losses", "match_queries")],
    "losses.joint": [("taskfusion.trainer", "joint_loss")],
    "assignment.hungarian": [("taskfusion.losses", "hungarian")],
    "tensor.backward": [("taskfusion.trainer", "backward")],
    "trainer.train": [("taskfusion.trainer", "train")],
    "trainer.evaluate": [("taskfusion.trainer", "evaluate")],
    "trainer.adam": [("taskfusion.trainer", "adam_step"),
                     ("taskfusion.bc", "adam_step")],
    "trainer.save_checkpoint": [("taskfusion.trainer", "save_checkpoint")],
    "trainer.load_checkpoint": [("taskfusion.trainer", "load_checkpoint")],
    "bc.collect_demos": [("taskfusion.bc", "collect_demos")],
    "bc.bc_train": [("taskfusion.bc", "bc_train")],
    "bc.bc_eval": [("taskfusion.bc", "bc_eval")],
    "bc.render": [("taskfusion.bc", "ToyEnv.render")],
    "bc.env_step": [("taskfusion.bc", "ToyEnv.step")],
    "bc.policy_act": [("taskfusion.bc", "Policy.act")],
}
# Recorded by the benchmark around its own calls, not by wrapping.
EMBED = "synth.embed_frame"
SETUP = "bench.setup"
ROUND = "bench.round"

# The phases the breakdown splits self time into.
PHASES = (SETUP, "trainer.train", "trainer.evaluate", "bc.bc_train",
          "bc.bc_eval", ROUND)

# Per-layer metric -> (unit, the spans it is computed from, the workloads
# that must produce those spans). On other workloads the metric is 0.
PER_LAYER = {
    "synth.regen_ms": ("ms", ["synth.regen"], TRAIN),
    "synth.encode_ms": ("ms", ["synth.encode"], TRAIN),
    "synth.embed_frame_ms": ("ms", [EMBED], BC),
    "synth.read_dataset_s": ("s", ["synth.read_dataset"], TRAIN),
    "decoder.decode_ms": ("ms", ["decoder.decode"], TRAIN),
    "decoder.decode_calls_per_step": ("count/step", ["decoder.decode"], TRAIN),
    "decoder.infer_ms": ("ms", ["decoder.infer"], TRAIN),
    "attention.self_ms": ("ms", ["attention.self"], TRAIN),
    "attention.cross_ms": ("ms", ["attention.cross"], TRAIN),
    "attention.calls_per_step": ("count/step",
                                 ["attention.self", "attention.cross"], TRAIN),
    "losses.task_ms": ("ms", ["losses.task"], TRAIN),
    "losses.scod_ms": ("ms", ["losses.scod"], TRAIN),
    "losses.match_ms": ("ms", ["losses.match"], TRAIN),
    "losses.joint_ms": ("ms", ["losses.joint"], TRAIN),
    "assignment.hungarian_calls": ("count/step", ["assignment.hungarian"],
                                   TRAIN),
    "assignment.hungarian_ms": ("ms", ["assignment.hungarian"], TRAIN),
    "tensor.backward_ms": ("ms", ["tensor.backward"], TRAIN),
    "tensor.tape_nodes": ("count", ["tensor.backward"], TRAIN),
    **{f"tensor.tape_nodes.{op}": ("count", ["tensor.backward"], TRAIN)
       for op in TAPE_OPS + ("other",)},
    "tensor.tape_mb": ("MB", ["tensor.backward"], TRAIN),
    "trainer.step_ms_p50": ("ms", ["trainer.train", "trainer.adam"], TRAIN),
    "trainer.step_ms_tail": ("ms", ["trainer.train", "trainer.adam"], TRAIN),
    "trainer.adam_ms": ("ms", ["trainer.adam"], ALL),
    "trainer.checkpoint_save_ms": ("ms", ["trainer.save_checkpoint"], ALL),
    "trainer.checkpoint_load_ms": ("ms", ["trainer.load_checkpoint"], ALL),
    "trainer.checkpoint_mb": ("MB", ["trainer.save_checkpoint"], ALL),
    "trainer.loss_final": ("loss", [], ALL),
    "bc.collect_demos_s": ("s", ["bc.collect_demos"], BC),
    "bc.render_ms": ("ms", ["bc.render"], BC),
    "bc.env_step_ms": ("ms", ["bc.env_step"], BC),
    "bc.policy_act_ms": ("ms", ["bc.policy_act"], BC),
    "bc.train_step_ms": ("ms", ["bc.bc_train", "trainer.adam"], BC),
}


def _resolve(module_name: str, path: str):
    """(owner, attribute) pairs a binding names; empty if it is gone."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    if path == "Encoder.encode":
        base = getattr(module, "Encoder", None)
        if not isinstance(base, type):
            return []
        return [(cls, "encode") for cls in vars(module).values()
                if isinstance(cls, type) and issubclass(cls, base)
                and "encode" in vars(cls)]
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return []
    return [(owner, attr)] if callable(getattr(owner, attr, None)) else []


def count_tape(loss) -> tuple[int, Counter, int]:
    """Nodes, nodes per op kind and bytes of every tensor reachable from
    ``loss`` through ``Tensor.node`` and ``Node.inputs``."""
    seen: set[int] = set()
    kinds: Counter = Counter()
    nbytes = 0
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nbytes += t.data.nbytes
        node = t.node
        if node is not None:
            kinds[node.op if node.op in TAPE_OPS else "other"] += 1
            stack.extend(node.inputs)
    return sum(kinds.values()), kinds, nbytes


class Tracer:
    """Records spans around wrapped calls; ``install`` patches, ``restore``
    puts every original back."""

    def __init__(self):
        self.spans: list[list] = []
        self.tape: list[tuple[int, Counter, int]] = []
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1] = start
            self.spans[index][2] = end

    def _wrapper(self, name: str, fn):
        span = self.span
        tape = name == "tensor.backward"

        def wrapped(*args, **kwargs):
            if tape and args:
                self._count_tape(args[0])
            with span(name):
                return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def _count_tape(self, loss) -> None:
        if "tensor.tape" in self.missing:
            return
        try:
            self.tape.append(count_tape(loss))
        except AttributeError as e:
            self.missing["tensor.tape"] = f"tape walk failed: {e}"

    def install(self) -> None:
        for name, bindings in WRAPPED.items():
            for module_name, path in bindings:
                targets = _resolve(module_name, path)
                if not targets:
                    self.missing[name] = f"{module_name}.{path} not found"
                for owner, attr in targets:
                    # An inherited method is patched on the class named and
                    # removed from it again on restore (original None).
                    original = vars(owner).get(attr)
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, self._wrapper(
                        name, original or getattr(owner, attr)))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()


class SpanTable:
    """Per-span durations, self times, enclosing phase and enclosing
    ``train``/``bc_train`` call."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        n = len(spans)
        self.duration = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        self.phase = [-1] * n
        self.train = [-1] * n
        self.bc_train = [-1] * n
        self.by_name: dict[str, list[int]] = {}
        for i, (name, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += self.duration[i]
                self.phase[i] = self.phase[parent]
                self.train[i] = self.train[parent]
                self.bc_train[i] = self.bc_train[parent]
            if name in PHASES:
                self.phase[i] = i
            if name == "trainer.train":
                self.train[i] = i
            if name == "bc.bc_train":
                self.bc_train[i] = i
            self.by_name.setdefault(name, []).append(i)
        self.self_time = [d - c for d, c in zip(self.duration, child)]

    def calls(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def mean_s(self, name: str) -> float:
        idx = self.calls(name)
        return statistics.fmean(self.duration[i] for i in idx) if idx else 0.0

    def train_steps(self) -> int:
        return sum(self.train[i] >= 0 for i in self.calls("trainer.adam"))

    def per_step(self, names: list[str]) -> float:
        steps = self.train_steps()
        n = sum(self.train[i] >= 0 for name in names for i in self.calls(name))
        return n / steps if steps else 0.0

    def step_times(self) -> list[float]:
        """Wall time of each training step: from the start of ``train`` or
        the end of the previous Adam update to the end of this one."""
        last = {t: self.spans[t][1] for t in self.calls("trainer.train")}
        times = []
        for i in self.calls("trainer.adam"):
            t = self.train[i]
            if t >= 0:
                times.append(self.spans[i][2] - last[t])
                last[t] = self.spans[i][2]
        return times

    def bc_step_s(self) -> float:
        """Mean ``bc_train`` time per step, less the embedding callback."""
        busy = {t: self.duration[t] for t in self.calls("bc.bc_train")}
        steps = dict.fromkeys(busy, 0)
        for i in self.calls(EMBED):
            if self.bc_train[i] >= 0:
                busy[self.bc_train[i]] -= self.duration[i]
        for i in self.calls("trainer.adam"):
            if self.bc_train[i] >= 0:
                steps[self.bc_train[i]] += 1
        rates = [busy[t] / steps[t] for t in busy if steps[t]]
        return statistics.fmean(rates) if rates else 0.0

    def breakdown(self) -> dict[str, dict[str, dict[str, float]]]:
        """Self time per span name within each phase, in ms and as a share
        of the phase's total duration."""
        totals: Counter = Counter()
        selfs: dict[str, Counter] = {}
        for i, name in enumerate(s[0] for s in self.spans):
            p = self.phase[i]
            if p < 0:
                continue
            phase = self.spans[p][0]
            if p == i:
                totals[phase] += self.duration[i]
            selfs.setdefault(phase, Counter())[name] += self.self_time[i]
        return {phase: {name: {"ms": s * 1e3,
                               "share": s / totals[phase] if totals[phase]
                               else 0.0}
                        for name, s in by_name.most_common()}
                for phase, by_name in selfs.items()}


def per_layer(table: SpanTable, tracer: Tracer, workload: str,
              loss_final: float | None, checkpoint_bytes: list[int]
              ) -> tuple[dict[str, float | None], dict[str, str]]:
    """Every per-layer metric by name; a value is None when its reason is
    in the second dict."""
    values: dict[str, float | None] = {}
    missing: dict[str, str] = {}
    tape_n = len(tracer.tape)
    step_times = table.step_times()

    def tape_mean(part):
        return sum(map(part, tracer.tape)) / tape_n if tape_n else 0.0

    # Metrics not listed are the mean duration of their one span.
    compute = {
        "decoder.decode_calls_per_step":
            lambda: table.per_step(["decoder.decode"]),
        "attention.calls_per_step":
            lambda: table.per_step(["attention.self", "attention.cross"]),
        "assignment.hungarian_calls":
            lambda: table.per_step(["assignment.hungarian"]),
        "tensor.tape_nodes": lambda: tape_mean(lambda t: t[0]),
        "tensor.tape_mb": lambda: tape_mean(lambda t: t[2]) / 2**20,
        "trainer.step_ms_p50":
            lambda: percentile(step_times, 50.0) * 1e3 if step_times else 0.0,
        "trainer.step_ms_tail":
            lambda: percentile(step_times, tail_percentile(len(step_times)))
            * 1e3 if step_times else 0.0,
        "trainer.checkpoint_mb":
            lambda: statistics.fmean(checkpoint_bytes) / 2**20
            if checkpoint_bytes else 0.0,
        "trainer.loss_final": lambda: loss_final,
        "bc.train_step_ms": lambda: table.bc_step_s() * 1e3,
    }
    for op in TAPE_OPS + ("other",):
        compute[f"tensor.tape_nodes.{op}"] = (
            lambda op=op: tape_mean(lambda t: t[1][op]))

    for metric, (_, sources, expected) in PER_LAYER.items():
        reason = next((tracer.missing[s] for s in sources
                       if s in tracer.missing), None)
        if reason is None and metric.startswith("tensor.tape"):
            reason = tracer.missing.get("tensor.tape")
        if reason is None and workload in expected:
            never = [s for s in sources if not table.calls(s)]
            if never:
                reason = f"{never[0]} never called"
            elif metric.startswith("tensor.tape") and not tape_n:
                reason = "no tape was counted"
            elif metric == "trainer.loss_final" and loss_final is None:
                reason = "no loss was logged"
        if reason is not None:
            values[metric] = None
            missing[metric] = reason
        elif metric in compute:
            value = compute[metric]()
            values[metric] = 0.0 if value is None else float(value)
        else:
            scale = 1e3 if PER_LAYER[metric][0] == "ms" else 1.0
            values[metric] = table.mean_s(sources[0]) * scale
    return values, missing

"""Outside-in tracing of vlmlab's public functions for the traced run.

The tracer replaces every module attribute (and class attribute) that binds
a traced function with a timing wrapper, so ``vlmlab.mrope.apply_mrope`` and
``vlmlab.vision.apply_mrope`` both report to one span name.  Nothing in
``src/`` changes.  Each call opens a frame on a stack; on return the frame's
duration minus the time its traced children covered is the call's self
time.  Spans (id, parent id, name, start, end) are kept in memory and
written out by the caller at the end of the run.  Very frequent leaf calls
(tensor and sequence-element construction, timestamp rendering, RNG
creation, IoU) are aggregated without a span each.

Work done after a call returns, such as wrapping a tensor's backward
closure or counting output bytes, is charged to ``hook`` time instead of to
any layer.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

NUMERICS_OPS = ("matmul", "masked_softmax", "softmax", "rotate_pairs", "layer_norm", "gelu",
                "add_bias", "gather_rows", "concat_rows", "add_rows_at", "token_nll",
                "interpolate_bilinear")


class Tracer:
    def __init__(self):
        self.active = False
        self._stack: list[list] = []   # open frames: [child seconds, span id for children]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []
        self.missing: dict[str, str] = {}
        self.clear()

    def clear(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.distinct: dict[str, set] = defaultdict(set)
        self.hook_s = 0.0
        self._ids_at_last_probe = 0

    def end_op(self) -> None:
        """Close per-operation tallies at the end of a traced operation."""
        for name, values in self.distinct.items():
            self.counts[f"{name}.distinct"] += len(values)
            values.clear()

    # -- wrapping -------------------------------------------------------

    def wrap(self, fn, name: str, span: bool = True, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][1] if stack else 0
            if span:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                tracer.self_s[name] += elapsed - frame[0]
                tracer.incl_s[name] += elapsed
                tracer.calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    tracer.spans.append((span_id, parent, name, start, end))
            if after is not None:
                after(result, args, kwargs, elapsed)
                hook = perf_counter() - end
                tracer.hook_s += hook
                if stack:
                    stack[-1][0] += hook
            return result

        traced.__wrapped__ = fn
        traced._traced = True
        return traced

    def run(self, fn, name: str):
        """Call ``fn()`` as a root span; returns (result, seconds)."""
        wrapped = self.wrap(fn, name)
        start = perf_counter()
        result = wrapped()
        return result, perf_counter() - start

    def patch(self, module: str, attr: str, name: str, span: bool = True, after=None) -> None:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``) and every
        vlmlab module attribute bound to the same function."""
        owner = sys.modules.get(module)
        *classes, leaf = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            self.missing[name] = f"{module}.{attr} does not exist"
            return
        wrapper = self.wrap(original, name, span, after)
        if inspect.isclass(owner):
            self._set(owner, leaf, wrapper)
        for mod in _vlmlab_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        # An inherited method has no entry of its own; unpatch deletes the wrapper.
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- what is traced ---------------------------------------------------

    def install(self) -> None:
        import vlmlab.cli  # noqa: F401  (loads every module the table names)
        import vlmlab.numerics as numerics

        op_names = [name for name, fn in vars(numerics).items()
                    if inspect.isfunction(fn) and fn.__module__ == numerics.__name__
                    and not name.startswith("_") and name != "grad_check"]
        for op in op_names:
            self.patch("vlmlab.numerics", op, f"numerics.{op}", after=self._numerics_after(op))

        count = self._count
        table = [
            ("vlmlab.numerics", "Tensor.__init__", "numerics.tensor_init", False, None),
            ("vlmlab.numerics", "Tensor.backward", "numerics.backward", True, None),
            ("vlmlab.mrope", "assign_position_ids", "mrope.assign_position_ids", True,
             count("mrope.assign_position_ids.ids", len)),
            ("vlmlab.mrope", "apply_mrope", "mrope.apply_mrope", True,
             count("mrope.apply_mrope.rows", lambda r: r.shape[0])),
            ("vlmlab.sequence", "TextSpan.__init__", "sequence.TextSpan", False, None),
            ("vlmlab.sequence", "ImageBlock.__init__", "sequence.ImageBlock", False, None),
            ("vlmlab.sequence", "FrameGroup.__init__", "sequence.FrameGroup", False, None),
            ("vlmlab.sequence", "MultimodalSequence.__init__", "sequence.MultimodalSequence",
             False, None),
            ("vlmlab.timeline", "sample_frames", "timeline.sample_frames", True, None),
            ("vlmlab.timeline", "interleave_timestamps", "timeline.interleave_timestamps",
             True, None),
            ("vlmlab.timeline", "format_timestamp", "timeline.format_timestamp", False,
             lambda r, a, k, s: self.distinct["timeline.format_timestamp"].add(r)),
            ("vlmlab.harness.niah", "run_niah_grid", "harness.niah.run_niah_grid", True, None),
            ("vlmlab.harness.niah", "build_niah_sequence", "harness.niah.build_niah_sequence",
             True, None),
            ("vlmlab.harness.niah", "run_niah_probe", "harness.niah.run_niah_probe", True,
             self._probe),
            ("vlmlab.harness.reports", "emit_report", "harness.reports.emit_report", True,
             count("harness.reports.emit_report.bytes", lambda r: sum(p.stat().st_size for p in r))),
            ("vlmlab.cli", "main", "cli.main", True, None),
            ("vlmlab.vision", "VisionLanguageModel.__init__", "vision.model_init", True, None),
            ("vlmlab.vision", "VisionLanguageModel.prepare", "vision.prepare", True, None),
            ("vlmlab.vision", "VisionEncoder.forward", "vision.encoder", True, None),
            ("vlmlab.vision", "merge_2x2", "vision.merge_2x2", True, None),
            ("vlmlab.vision", "Decoder.forward", "vision.decoder", True, None),
            ("vlmlab.harness.training", "train_toy", "harness.training.train_toy", True, None),
            ("vlmlab.harness.training", "make_synthetic_batch",
             "harness.training.make_synthetic_batch", True, None),
            ("vlmlab.objective", "gradient_weights", "objective.gradient_weights", True, None),
            ("vlmlab.objective", "aggregate", "objective.aggregate", True, None),
            ("vlmlab.seeding", "Rng.__init__", "seeding.rng", False, None),
            ("vlmlab.grounding", "parse_grounding_json", "grounding.parse_grounding_json", True,
             count("grounding.parse_grounding_json.records", len)),
            ("vlmlab.grounding", "serialize_grounding_json", "grounding.serialize_grounding_json",
             True, count("grounding.serialize_grounding_json.bytes",
                         lambda r: len(r.encode("utf-8")))),
            ("vlmlab.grounding", "iou", "grounding.iou", False, None),
        ]
        for module, attr, name, span, after in table:
            self.patch(module, attr, name, span, after)

    def _count(self, key: str, measure):
        def after(result, args, kwargs, seconds):
            self.counts[key] += measure(result)
        return after

    def _numerics_after(self, op: str):
        from vlmlab.numerics import Tensor

        def after(out, args, kwargs, seconds):
            if not isinstance(out, Tensor) or out._op == "leaf":
                return
            self.counts["numerics.ops"] += 1
            self.counts["numerics.out_bytes"] += out.data.nbytes
            closure = out._backward
            if closure is not None and not getattr(closure, "_traced", False):
                out._backward = self.wrap(closure, f"numerics.{op}.bwd")
        return after

    def _probe(self, result, args, kwargs, seconds):
        # Group ids a probe uses, against the per-token ids built since the
        # previous probe to find them.
        groups = len(result.scores)
        total = self.counts["mrope.assign_position_ids.ids"]
        built = total - self._ids_at_last_probe
        self._ids_at_last_probe = total
        self.counts["mrope.group_ids_used"] += groups
        self.counts["mrope.ids_built_for_probes"] += max(built, groups)
        self.durations["harness.niah.run_niah_probe"].append(seconds)


def _vlmlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "vlmlab" or name.startswith("vlmlab."))]

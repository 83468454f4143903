"""Spans and probes installed around lrsdag's public entry points.

Everything here acts from outside the program: a wrapper replaces a
module or class attribute for the duration of one repetition and the
original is put back afterwards, so a repetition run without tracing
executes the unmodified code apart from the probes.

Probes are always on. They are cheap (a counter or two checksums per
adaptation) and feed the output checks and the example count.

Spans are on only in a traced repetition. Each records its name, start,
end and the span that was open when it started, in memory; `Trace.dump`
writes them out when the run ends.
"""

import contextlib
import functools
import json
import os
import statistics
import time
from collections import Counter

from lrsdag import data, engine, evaluate, glyphs, losses, nn, sampling
from lrsdag import tensor_core as tc

_now = time.perf_counter


class Probes:
    """Always-on counters the output checks rely on."""

    def __init__(self):
        self.examples = 0
        self.cells = 0
        self.freeze_breaks = []
        # time spent in the checksums below, taken back out of wall_s
        # and engine.self_s
        self.overhead_s = 0.0

    def wrappers(self):
        def cross_entropy_grad(orig):
            @functools.wraps(orig)
            def w(logits, labels):
                # called once per training step, never during evaluation
                self.examples += len(labels)
                return orig(logits, labels)
            return w

        def cell(orig):
            @functools.wraps(orig)
            def w(*args, **kwargs):
                self.cells += 1
                return orig(*args, **kwargs)
            return w

        def adapt(orig):
            @functools.wraps(orig)
            def w(net, *args, **kwargs):
                started = _now()
                before = engine.checksum(net)
                self.overhead_s += _now() - started
                out = orig(net, *args, **kwargs)
                started = _now()
                after = engine.checksum(net)
                self.overhead_s += _now() - started
                if after != before:
                    self.freeze_breaks.append((before, after))
                return out
            return w

        return {
            (tc, "cross_entropy_grad"): cross_entropy_grad,
            (engine, "run_lrsdag"): cell,
            (engine, "run_baseline"): cell,
            (engine, "adapt"): adapt,
        }


def _linear_fwd(c, args, kwargs, out, dur):
    layer, x = args[0], args[1]
    c["nn.linear_gflop"] += 2e-9 * x.shape[0] * layer.in_dim * layer.out_dim


def _conv_flop(layer, out):
    b, c_out, h, w = out.shape
    return 2e-9 * b * h * w * c_out * layer.c_in * layer.kh * layer.kw


def _conv_fwd(c, args, kwargs, out, dur):
    c["nn.conv_gflop"] += _conv_flop(args[0], out)


def _backward(kind):
    def after(c, args, kwargs, out, dur):
        layer, dout = args[0], args[1]
        if kind == "linear":
            # dW = dout.T @ x and dx = dout @ W
            c["nn.linear_gflop"] += 4e-9 * dout.shape[0] * layer.in_dim * layer.out_dim
        else:
            c["nn.conv_gflop"] += 2 * _conv_flop(layer, dout)
        c["nn.wgrad_total"] += 1
        if layer.frozen:
            c["nn.frozen_bwd_s"] += dur
        else:
            c["nn.wgrad_useful"] += 1
    return after


def _n1_forward(c, args, kwargs, out, dur):
    net, batch = args[0], args[1]
    if all(layer.frozen for layer in net.n1 if layer.params()):
        c["nn.frozen_n1_fwd_examples"] += len(batch)


def _write_idx(c, args, kwargs, out, dur):
    c["data.write_idx_bytes"] += os.path.getsize(args[0])


def _cell_label(kind):
    if kind == "lrsdag":
        return lambda args, kwargs: f"{args[1].loss}/{args[1].sampling}"
    return lambda args, kwargs: str(args[0])


# (owner, attribute, span name, after-hook taking (counters, args, kwargs,
# result, duration), label function for cells)
_SPANS = [
    (engine, "reproduce", "engine.reproduce", None, None),
    (engine, "ensure_pretrained", "engine.ensure_pretrained", None, None),
    (engine, "run_lrsdag", "engine.run_lrsdag", None, _cell_label("lrsdag")),
    (engine, "run_baseline", "engine.run_baseline", None, _cell_label("baseline")),
    (engine, "train_source", "engine.train_source", None, None),
    (engine, "adapt", "engine.adapt", None, None),
    (evaluate, "evaluate_pair", "evaluate.evaluate_pair", None, None),
    (evaluate, "feature_matrix", "evaluate.feature_matrix", None, None),
    (evaluate, "predictions", "evaluate.predictions", None, None),
    (evaluate, "write_report", "evaluate.write_report", None, None),
    (nn.Network, "forward", "nn.Network.forward", _n1_forward, None),
    (nn.Network, "forward_features", "nn.Network.forward_features", _n1_forward, None),
    (nn.Network, "backward", "nn.Network.backward", None, None),
    (nn.Linear, "forward", "nn.Linear.forward", _linear_fwd, None),
    (nn.Linear, "backward", "nn.Linear.backward", _backward("linear"), None),
    (nn.Conv2d, "forward", "nn.Conv2d.forward", _conv_fwd, None),
    (nn.Conv2d, "backward", "nn.Conv2d.backward", _backward("conv"), None),
    (nn.Adam, "step", "nn.Adam.step", None, None),
    (nn, "save_checkpoint", "nn.save_checkpoint", None, None),
    (nn, "load_checkpoint", "nn.load_checkpoint", None, None),
    (nn, "build_encoder", "nn.build_encoder", None, None),
    # Conv2d imports these from tensor_core at call time, so the
    # module attribute is what it sees
    (tc, "im2col", "tensor_core.im2col", None, None),
    (tc, "col2im", "tensor_core.col2im", None, None),
    (tc, "cross_entropy", "tensor_core.cross_entropy", None, None),
    (tc, "cross_entropy_grad", "tensor_core.cross_entropy_grad", None, None),
    (losses, "alignment", "losses.alignment", None, None),
    (sampling, "make_sampler", "sampling.make_sampler", None, None),
    (sampling.IndirectSampler, "draw", "sampling.draw", None, None),
    (sampling.RandomSampler, "draw", "sampling.draw", None, None),
    (data, "make_syn_mnist", "data.make_syn_mnist", None, None),
    (data, "subsample_labeled", "data.subsample_labeled", None, None),
    (data, "split_train_val", "data.split_train_val", None, None),
    (data, "write_idx", "data.write_idx", _write_idx, None),
    (data, "read_idx", "data.read_idx", None, None),
    (data, "preprocess", "data.preprocess", None, None),
    (glyphs, "write_corpus", "glyphs.write_corpus", None, None),
    (glyphs, "generate_digits", "glyphs.generate_digits", None, None),
    (glyphs, "render_digit", "glyphs.render_digit", None, None),
]

_EPOCH_PARENTS = {"engine.train_source": "phase1", "engine.adapt": "phase2"}


class Trace:
    """In-memory span recorder for one traced repetition."""

    def __init__(self):
        # span: [name, start, end, parent index, label]
        self.spans = []
        self.epochs = []
        self.counters = Counter()
        self._stack = []

    def _open(self, name, label=None):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, _now(), None, parent, label])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        end = _now()
        self.spans[idx][2] = end
        return end - self.spans[idx][1]

    @contextlib.contextmanager
    def root(self, name):
        """The span of one top-level operation."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, orig, after=None, label=None):
        @functools.wraps(orig)
        def w(*args, **kwargs):
            idx = self._open(name, label(args, kwargs) if label else None)
            try:
                out = orig(*args, **kwargs)
            finally:
                dur = self._close(idx)
            if after is not None:
                after(self.counters, args, kwargs, out, dur)
            return out
        return w

    def wrap_batches(self, orig):
        """data.batches is a generator: each next() is a data span, and
        the generator's life inside a training loop is one epoch."""
        @functools.wraps(orig)
        def w(*args, **kwargs):
            # runs at the first next(), when the loop starts
            parent = self._stack[-1] if self._stack else -1
            phase = _EPOCH_PARENTS.get(self.spans[parent][0]) if parent >= 0 else None
            started = _now()
            gen = orig(*args, **kwargs)
            while True:
                idx = self._open("data.batches")
                try:
                    item = next(gen)
                except StopIteration:
                    self._close(idx)
                    if phase is not None:
                        self.epochs.append((phase, _now() - started))
                    return
                self._close(idx)
                yield item
        return w

    def wrappers(self):
        def maker(name, after, label):
            return lambda orig: self.wrap(name, orig, after, label)

        out = {(owner, attr): maker(name, after, label)
               for owner, attr, name, after, label in _SPANS}
        out[(data, "batches")] = self.wrap_batches
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "label"],
                       "spans": self.spans}, fh)


@contextlib.contextmanager
def installed(probes, trace=None):
    """Install span wrappers (innermost) and probes (outermost); restore
    every original attribute on exit."""
    layers = [trace.wrappers()] if trace is not None else []
    layers.append(probes.wrappers())
    saved = {}
    try:
        for table in layers:
            for (owner, attr), make in table.items():
                key = (owner, attr)
                if key not in saved:
                    saved[key] = owner.__dict__[attr]
                setattr(owner, attr, make(getattr(owner, attr)))
        yield
    finally:
        for (owner, attr), orig in saved.items():
            setattr(owner, attr, orig)


def _layer(name):
    return name.split(".", 1)[0]


def _child_time(spans):
    """Per span, the summed duration of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return child


LAYERS = ("engine", "evaluate", "nn", "tensor_core", "losses", "sampling",
          "data", "glyphs")


def layer_metrics(trace, probes):
    """Per-layer numbers for one traced repetition."""
    spans = trace.spans
    total = Counter()
    calls = Counter()
    for name, start, end, _, _ in spans:
        total[name] += end - start
        calls[name] += 1
    child = _child_time(spans)
    self_time = Counter()
    in_phase1 = [False] * len(spans)
    adam_phase1 = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        in_phase1[i] = name == "engine.train_source" or (parent >= 0 and in_phase1[parent])
        if name == "nn.Adam.step" and in_phase1[i]:
            adam_phase1 += end - start
        if not name.startswith("op."):
            self_time[_layer(name)] += (end - start) - child[i]
    c = trace.counters

    def epoch_median(phase):
        vals = [d for p, d in trace.epochs if p == phase]
        return statistics.median(vals) if vals else 0.0

    m = {
        "engine.train_source_s": total["engine.train_source"],
        "engine.phase1_epoch_s": epoch_median("phase1"),
        "engine.adapt_s": total["engine.adapt"],
        "engine.phase2_epoch_s": epoch_median("phase2"),
        "evaluate.evaluate_pair_s": total["evaluate.evaluate_pair"],
        "evaluate.feature_matrix_s": total["evaluate.feature_matrix"],
        "evaluate.feature_matrix_calls": calls["evaluate.feature_matrix"],
        "nn.linear_fwd_s": total["nn.Linear.forward"],
        "nn.linear_bwd_s": total["nn.Linear.backward"],
        "nn.conv_fwd_s": total["nn.Conv2d.forward"],
        "nn.conv_bwd_s": total["nn.Conv2d.backward"],
        "nn.frozen_bwd_s": c["nn.frozen_bwd_s"],
        "nn.wgrad_useful_ratio": (c["nn.wgrad_useful"] / c["nn.wgrad_total"]
                                  if c["nn.wgrad_total"] else 0.0),
        "nn.frozen_n1_fwd_examples": c["nn.frozen_n1_fwd_examples"],
        "nn.adam_step_s": total["nn.Adam.step"],
        "nn.adam_step_calls": calls["nn.Adam.step"],
        "nn.adam_step_phase1_s": adam_phase1,
        "nn.linear_gflop": c["nn.linear_gflop"],
        "nn.conv_gflop": c["nn.conv_gflop"],
        "nn.checkpoint_save_s": total["nn.save_checkpoint"],
        "nn.checkpoint_load_s": total["nn.load_checkpoint"],
        "tensor_core.im2col_s": total["tensor_core.im2col"],
        "tensor_core.col2im_s": total["tensor_core.col2im"],
        "tensor_core.cross_entropy_s": (total["tensor_core.cross_entropy"]
                                        + total["tensor_core.cross_entropy_grad"]),
        "losses.alignment_s": total["losses.alignment"],
        "losses.alignment_calls": calls["losses.alignment"],
        "sampling.make_sampler_s": total["sampling.make_sampler"],
        "sampling.draw_s": total["sampling.draw"],
        "data.batches_s": total["data.batches"],
        "data.make_syn_mnist_s": total["data.make_syn_mnist"],
        "data.subsample_labeled_s": total["data.subsample_labeled"],
        "data.write_idx_s": total["data.write_idx"],
        "data.write_idx_bytes": c["data.write_idx_bytes"],
        "data.read_idx_s": total["data.read_idx"],
        "data.preprocess_s": total["data.preprocess"],
        "glyphs.generate_digits_s": total["glyphs.generate_digits"],
        "glyphs.render_digit_calls": calls["glyphs.render_digit"],
        "trace.spans": len(spans),
    }
    # the adapt probe runs inside an engine cell span
    self_time["engine"] -= probes.overhead_s
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    return m


def cell_breakdown(trace):
    """Layer self time inside each cell span (run_lrsdag / run_baseline)."""
    spans = trace.spans
    child = _child_time(spans)
    cell_of = [-1] * len(spans)
    rows = {}
    for i, (name, start, end, parent, label) in enumerate(spans):
        if name in ("engine.run_lrsdag", "engine.run_baseline"):
            cell_of[i] = i
            rows[i] = {"cell": label, "total_s": end - start}
        elif parent >= 0:
            cell_of[i] = cell_of[parent]
        cell = cell_of[i]
        if cell >= 0:
            key = f"{_layer(name)}.self_s"
            rows[cell][key] = rows[cell].get(key, 0.0) + (end - start) - child[i]
    return [{k: (round(v, 4) if isinstance(v, float) else v) for k, v in row.items()}
            for row in rows.values()]

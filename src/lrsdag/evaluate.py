"""Accuracy and confusion-matrix evaluation, embedding export, report tables.

Every model is scored in four cells: source/target test set crossed with
encoder bypassed/included.  For models without an encoder the bypassed
network is the model, so the with-encoder cells mirror the bypassed ones
and the row stays four columns wide in the report.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from . import data

N_CLASSES = 10

CELLS = ("source_without", "source_with", "target_without", "target_with")

# examples per forward pass when predicting or extracting features
BATCH_SIZE = 512


def predictions(net, ds, use_encoder=False):
    """Predicted class per example; argmax ties go to the lowest index."""
    return _shared_n1_predictions(net, ds, (use_encoder,))[:, 0]


def accuracy(net, ds, use_encoder=False):
    """Top-1 accuracy as a percentage."""
    return _percent_correct(confusion_matrix(net, ds, use_encoder))


def _percent_correct(confusion):
    return float(np.trace(confusion) / confusion.sum() * 100.0)


def _confusion(labels, preds):
    matrix = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(matrix, (labels, preds), 1)
    return matrix


def confusion_matrix(net, ds, use_encoder=False):
    """Counts indexed (true class, predicted class)."""
    return _confusion(ds.labels, predictions(net, ds, use_encoder))


@dataclass(frozen=True)
class Features:
    """N1 output f(x) over a dataset, shaped (N,) + split shape.

    It stands in for the dataset wherever the network reads it with N1
    frozen: `data.batches` yields its rows under `images`, training steps
    run only the encoder and N2 on them, and prediction skips N1.
    """

    images: np.ndarray
    labels: np.ndarray
    name: str
    split: str

    def __len__(self):
        return len(self.labels)


def features(net, ds):
    """f(x) over `ds` as Features, from one `feature_matrix` pass; `ds`
    itself when it holds N1 output already."""
    if isinstance(ds, Features):
        return ds
    feats = feature_matrix(net, ds)
    return Features(feats.reshape((len(ds),) + net.split_shape), ds.labels,
                    ds.name, ds.split)


def _batched(net, ds, fn):
    """`fn` over the BATCH_SIZE batches of `ds`' images, its results
    concatenated; no layer keeps a cache.  An empty set runs as one empty
    batch."""
    with net.inference():
        out = ([fn(images) for images, _ in data.batches(ds, BATCH_SIZE)]
               or [fn(ds.images)])
    return np.concatenate(out)


def feature_matrix(net, ds):
    """f(x) over a dataset, flattened to N x k."""
    return _batched(net, ds, lambda images: net.forward_features(images)
                    .reshape(len(images), net.split_dim))


@dataclass
class EvalReport:
    """Per-cell confusion counts, which give accuracy and example counts."""

    confusion: dict
    metadata: dict = field(default_factory=dict)

    @property
    def accuracy(self):
        return {k: _percent_correct(v) for k, v in self.confusion.items()}

    @property
    def n_examples(self):
        return {k: int(v.sum()) for k, v in self.confusion.items()}

    def to_dict(self):
        return {
            "accuracy": self.accuracy,
            "confusion": {k: v.tolist() for k, v in self.confusion.items()},
            "n_examples": self.n_examples,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(
            confusion={k: np.asarray(v, dtype=np.int64)
                       for k, v in payload["confusion"].items()},
            metadata=dict(payload.get("metadata", {})),
        )


def _shared_n1_predictions(net, ds, settings):
    """Predicted classes, one column per `use_encoder` value in
    `settings`, running N1 once per batch for all of them, or not at all
    over Features.  A function of its own so that one domain's features
    are freed before the next domain's N1 pass."""
    n1 = (lambda x: x) if isinstance(ds, Features) else net.forward_features

    def predict(images):
        feats = n1(images)
        return np.stack([np.argmax(net.head(feats, use_encoder=e)[1], axis=1)
                         for e in settings], axis=1)

    return _batched(net, ds, predict)


def evaluate_pair(net, source_test, target_test, metadata=None):
    """Score both domains with the encoder bypassed and included.

    N1 runs once per example, and not at all on Features: each batch's
    features go through N2 directly and, when an encoder is attached,
    through the encoder and N2.  Without an encoder the with-encoder
    cells mirror the bypassed ones.
    """
    # preds[:, -1] is preds[:, 0] when no encoder is attached
    settings = (False, True) if net.encoder is not None else (False,)
    conf = {}
    for domain, ds in (("source", source_test), ("target", target_test)):
        preds = _shared_n1_predictions(net, ds, settings)
        conf[f"{domain}_without"] = _confusion(ds.labels, preds[:, 0])
        conf[f"{domain}_with"] = _confusion(ds.labels, preds[:, -1])
    return EvalReport(confusion=conf, metadata=dict(metadata or {}))


def _write_feature_csv(out_dir, name, features, labels):
    lines = []
    for label, row in zip(labels, features):
        lines.append(",".join([str(int(label))] + [f"{v:.12g}" for v in row]))
    path = os.path.join(out_dir, f"{name}.csv")
    data.atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def export_embeddings(net, source_ds, target_ds, out_dir, cap=None, seed=0):
    """Write fS/fT (and hfT when an encoder is attached) feature CSVs.

    Each row is the label followed by the flattened split features at 12
    significant digits.  With a cap, rows are a stratified subset.  N1
    runs once over each set; hfT is the encoder's output h(f(x)) on the
    rows of fT, in the same batches.
    """
    def clip(ds):
        if cap is None or cap >= len(ds):
            return ds
        return data.subsample_labeled(ds, cap / len(ds), seed)

    source, target = clip(source_ds), features(net, clip(target_ds))
    rows = {"fS": (feature_matrix(net, source), source.labels),
            "fT": (target.images.reshape(len(target), net.split_dim), target.labels)}
    if net.encoder is not None:
        rows["hfT"] = (_batched(net, target, lambda feats: net.head(
            feats, use_encoder=True)[0].reshape(len(feats), net.split_dim)),
            target.labels)
    return {name: _write_feature_csv(out_dir, name, *r) for name, r in rows.items()}


def render_report(records):
    """Render accuracy rows as (csv_text, aligned_text), 2-decimal values."""
    header = ("method", "sampling", "source_without_e", "target_without_e",
              "source_with_e", "target_with_e")
    rows = []
    for rec in records:
        acc = rec.report.accuracy
        rows.append((
            rec.method, rec.strategy,
            f"{acc['source_without']:.2f}", f"{acc['target_without']:.2f}",
            f"{acc['source_with']:.2f}", f"{acc['target_with']:.2f}",
        ))
    csv_text = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"

    labels = ("Method", "Sampling", "Source w/o E", "Target w/o E",
              "Source w/ E", "Target w/ E")
    widths = [max(len(labels[i]), *(len(r[i]) for r in rows)) if rows
              else len(labels[i]) for i in range(len(labels))]

    def fmt(values):
        cells = [v.ljust(widths[i]) if i < 2 else v.rjust(widths[i])
                 for i, v in enumerate(values)]
        return "  ".join(cells).rstrip()

    txt = "\n".join([fmt(labels)] + [fmt(r) for r in rows]) + "\n"
    return csv_text, txt


def write_report(records, out_dir):
    """Write `render_report`'s two texts into out_dir, each atomically;
    returns their paths, the CSV's first."""
    paths = tuple(os.path.join(out_dir, name) for name in ("report.csv", "report.txt"))
    for path, text in zip(paths, render_report(records)):
        data.atomic_write_text(path, text)
    return paths

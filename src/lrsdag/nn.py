"""Layers, the partitioned network (front / optional encoder / head), model
builders, the Adam optimizer, and checkpoint serialization.

The network is a plain sequential stack split into two frozen-able halves
with an optional trainable encoder block in between. Backward passes are
hand-written per layer; there is no general autodiff tape.
"""

import contextlib
import ctypes
import json
import os
import threading
import zipfile

import numpy as np

from . import tensor_core as tc
from .data import atomic_open
from .seeding import derive_rng

BLOCK_NAMES = ("n1", "n2", "encoder")

# images a conv has in flight, over all its lanes: it unfolds them, and
# computes their input gradient, CHUNK // LANES at a time per lane, so
# that each GEMM reads columns that are still in cache
CHUNK = 8

# Adam's moment decay rates and the floor of its denominator
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


class NetworkError(Exception):
    pass


class EncoderAlreadyPresent(NetworkError):
    pass


class EncoderMissing(NetworkError):
    pass


class NonFiniteGradient(NetworkError):
    pass


def _find_blas_threads():
    """(get, set) of the thread count of the OpenBLAS NumPy links, looked up
    through NumPy's own extension module, or None when there is no such
    OpenBLAS setter (another BLAS, or no shared library to look in)."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            try:
                get = getattr(lib, f"{prefix}get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _lane_count(blas_threads):
    """One lane per CPU this process may run on, at most CHUNK; one lane
    when the BLAS cannot be held to one thread, since a second BLAS thread
    would spin against the lanes."""
    if blas_threads is None:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, CHUNK))


_BLAS_THREADS = _find_blas_threads()
LANES = _lane_count(_BLAS_THREADS)


@contextlib.contextmanager
def one_blas_thread(hold=True):
    """NumPy's OpenBLAS held at one thread inside the block, its count
    restored afterwards, also when the block raises; with `hold` False, or
    without an OpenBLAS setter, the block runs as it is."""
    if not hold or _BLAS_THREADS is None:
        yield
        return
    get, put = _BLAS_THREADS
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def trim_heap():
    """Hand the heap's free pages back to the system: glibc's
    malloc_trim(0), found through ctypes, skipped where it is absent."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def _slots():
    """Images in a buffer the lanes share: any lane may take any slice."""
    return LANES * (CHUNK // LANES)


def deal(items, work, lanes=None):
    """[work(item, lane) for item in items], run over at most `lanes` lanes
    (LANES when None).  Each lane takes the next item not yet taken;
    lane 0 runs on this thread and every other lane on a thread of its
    own, joined before this returns.  Once an item raises, no lane takes
    another, and the exception of the first item in `items` that raised is
    re-raised: every item before it was taken, so timing cannot change it."""
    lanes = max(1, min(LANES if lanes is None else lanes, len(items)))
    # list.pop is atomic, so each index goes to one lane; a lane stops at
    # the first None, and there is one None per lane under the indices
    todo = [None] * lanes + list(range(len(items)))[::-1]
    results, errors = [None] * len(items), []

    def run(lane):
        for i in iter(todo.pop, None):
            try:
                results[i] = work(items[i], lane)
            except BaseException as exc:
                errors.append((i, exc))
                del todo[lanes:]  # the indices not taken; the Nones stay

    threads = []
    try:
        for lane in range(1, lanes):
            thread = threading.Thread(target=run, args=(lane,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        del todo[lanes:]  # stops the other lanes when lane 0 was interrupted
        for thread in threads:
            thread.join()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return results


class Parameter:
    """A trainable array and its gradient buffer, made at its first use, so
    that a parameter no backward writes (a frozen one) has none."""

    __slots__ = ("value", "_grad")

    def __init__(self, value):
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self._grad = None

    @property
    def grad(self):
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad


class Layer:
    """A stack element; `args` names its constructor arguments, each kept
    as an attribute of the same name, which is what a checkpoint stores."""

    kind = None
    args = ()

    def __init__(self):
        self.frozen = False

    def params(self):
        return []

    def forward(self, x, keep=True):
        """The layer's output; with `keep` False no backward will follow,
        so the layer keeps nothing and drops what an earlier forward kept."""
        raise NotImplementedError

    def backward(self, dout, input_grad=True):
        """The input gradient, or None when `input_grad` is False because
        nothing reads it; a trainable layer also sets its `grad` buffers."""
        raise NotImplementedError

    def _kept(self, value):
        """A cache of the last forward, which `backward` is about to read."""
        if value is None:
            raise NetworkError(f"{type(self).__name__}.backward with no forward "
                               "that kept what it reads")
        return value

    def descriptor(self):
        d = {"kind": self.kind, "frozen": self.frozen}
        d.update((a, getattr(self, a)) for a in self.args)
        return d


class Linear(Layer):
    """y = x @ W.T + b with W of shape (out, in).

    Inputs with more than two axes are flattened per example and restored
    on the backward pass.
    """

    kind = "linear"
    args = ("in_dim", "out_dim")

    def __init__(self, in_dim, out_dim, rng=None):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        if rng is None:
            w = np.zeros((out_dim, in_dim))
        else:
            bound = np.sqrt(1.0 / in_dim)
            w = rng.uniform(-bound, bound, size=(out_dim, in_dim))
        self.weight = Parameter(w)
        self.bias = Parameter(np.zeros(out_dim))
        self._x = None
        self._in_shape = None

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, keep=True):
        # the input is read only for the weight gradient
        self._in_shape = x.shape if keep else None
        x = x.reshape(len(x), self.in_dim)
        self._x = x if keep and not self.frozen else None
        return x @ self.weight.value.T + self.bias.value

    def backward(self, dout, input_grad=True):
        in_shape = self._kept(self._in_shape)
        if not self.frozen:
            np.matmul(dout.T, self._kept(self._x), out=self.weight.grad)
            np.sum(dout, axis=0, out=self.bias.grad)
        if not input_grad:
            return None
        dx = dout @ self.weight.value
        return dx.reshape(in_shape)


class Conv2d(Layer):
    """Zero-padded cross-correlation layer over (B, C, H, W) batches."""

    kind = "conv"
    args = ("c_in", "c_out", "kh", "kw", "stride", "padding")

    def __init__(self, c_in, c_out, kh, kw, stride=1, padding=0, rng=None):
        super().__init__()
        self.c_in, self.c_out = c_in, c_out
        self.kh, self.kw = kh, kw
        self.stride, self.padding = stride, padding
        if rng is None:
            w = np.zeros((c_out, c_in, kh, kw))
        else:
            bound = np.sqrt(1.0 / (c_in * kh * kw))
            w = rng.uniform(-bound, bound, size=(c_out, c_in, kh, kw))
        self.weight = Parameter(w)
        self.bias = Parameter(np.zeros(c_out))
        self._cols = None
        self._x_shape = None

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, keep=True):
        """The layer's output, its images dealt over the lanes (`deal`),
        each of which unfolds, multiplies and adds the bias to its slice.
        The im2col columns are read only for the weight gradient: a
        trainable layer unfolds each slice into its place in the batch's
        columns and keeps them for its backward; any other layer into its
        lane's slot of one reused `_slots()`-image buffer."""
        kept = keep and not self.frozen
        self._x_shape = x.shape if keep else None
        self._cols = None  # freed before this batch's columns and `out` exist
        b, k = len(x), self.c_in * self.kh * self.kw
        h_out = (x.shape[2] + 2 * self.padding - self.kh) // self.stride + 1
        w_out = (x.shape[3] + 2 * self.padding - self.kw) // self.stride + 1
        cols = np.empty((k, b if kept else _slots(), h_out * w_out))
        self._cols = cols if kept else None
        out = np.empty((b, self.c_out, h_out * w_out))
        padded = self._grid(x.shape, np.zeros)
        weight = self.weight.value.reshape(self.c_out, k)
        bias = self.bias.value[:, None]

        # one GEMM per image: folded into one (K, B*Ho*Wo) product, an image's
        # output would round differently with the batch size
        step = CHUNK // LANES

        def unfold(start, lane):
            stop, slot = min(start + step, b), lane * step
            at = cols[:, start:stop] if kept else cols[:, slot:slot + stop - start]
            tc.im2col(x[start:stop], self.kh, self.kw, self.stride, self.padding, at,
                      padded[slot:slot + stop - start])
            np.matmul(weight, at.transpose(1, 0, 2), out=out[start:stop])
            out[start:stop] += bias

        deal(range(0, b, step), unfold)
        return out.reshape(b, self.c_out, h_out, w_out)

    def _grid(self, x_shape, make):
        """The lanes' padded input grids, `_slots()` images' worth, made here
        on the calling thread so that the lanes allocate nothing."""
        _, c, h, w = x_shape
        p = self.padding
        return make((_slots(), c, h + 2 * p, w + 2 * p))

    def backward(self, dout, input_grad=True):
        # with dx, dW is one item `deal` hands a lane beside the dx slices,
        # still one GEMM over the batch: a split would change its bits
        x_shape = self._kept(self._x_shape)
        # the pixel count spelled out: reshape cannot infer -1 for an empty batch
        dmat = dout.reshape(dout.shape[0], self.c_out, dout.shape[2] * dout.shape[3])
        weight_grad = None
        if not self.frozen:
            cols = self._kept(self._cols)
            k = cols.shape[0]
            # made here, so that the lane taking the item allocates nothing
            moved = np.empty((self.c_out,) + dmat.shape[::2])
            weight_out, bias_out = self.weight.grad, self.bias.grad

            def weight_grad():
                # one GEMM over all (image, pixel) pairs, image-major: the
                # k-major columns are that (K, B*Ho*Wo) matrix already; moving
                # dout's batch axis copies whole pixel rows, unlike a
                # (B*Ho*Wo, K) transpose
                np.copyto(moved, dmat.transpose(1, 0, 2))
                np.matmul(moved.reshape(self.c_out, -1), cols.reshape(k, -1).T,
                          out=weight_out.reshape(self.c_out, k))
                np.sum(dout, axis=(0, 2, 3), out=bias_out)
        if not input_grad:
            if weight_grad is not None:
                weight_grad()
            return None
        weight_t = self.weight.value.reshape(self.c_out, -1).T
        dx = np.empty(x_shape)
        dcols = np.empty((_slots(),) + weight_t.shape[:1] + dmat.shape[2:])
        grid = self._grid(x_shape, np.empty)
        step = CHUNK // LANES

        def fold(start, lane):
            if start is weight_grad:
                return weight_grad()
            stop, slot = min(start + step, len(dx)), lane * step
            part = dcols[slot:slot + stop - start]
            np.matmul(weight_t, dmat[start:stop], out=part)
            dx[start:stop] = tc.col2im(part, (stop - start,) + x_shape[1:], self.kh,
                                       self.kw, self.stride, self.padding,
                                       grid[slot:slot + stop - start])

        deal([weight_grad] * (weight_grad is not None) + list(range(0, len(dx), step)),
             fold)
        return dx


class ReLU(Layer):
    kind = "relu"

    def __init__(self):
        super().__init__()
        self._mask = None

    def forward(self, x, keep=True):
        # np.maximum and np.multiply do not branch per element, unlike
        # np.where, whose branches mispredict on a random mask
        self._mask = x > 0 if keep else None
        return np.maximum(x, 0.0)

    def backward(self, dout, input_grad=True):
        if not input_grad:
            return None
        dx = np.multiply(dout, self._kept(self._mask))
        dx += 0.0  # a negative dout where the mask is off gives -0.0: make it +0.0
        return dx


LAYERS = {cls.kind: cls for cls in (Linear, Conv2d, ReLU)}


def _layer_from_descriptor(d):
    cls = LAYERS.get(d["kind"])
    if cls is None:
        raise NetworkError(f"unknown layer kind {d['kind']!r}")
    layer = cls(**{a: d[a] for a in cls.args})
    layer.frozen = bool(d["frozen"])
    return layer


class Network:
    """Sequential classifier split into front (n1) and head (n2) blocks with
    an optional encoder block inserted at the split.

    The encoder can be bypassed at forward time, which reproduces the
    encoder-less network exactly.
    """

    def __init__(self, arch, n1, n2, split_shape, encoder=None):
        self.arch = arch
        self.n1 = list(n1)
        self.n2 = list(n2)
        self.encoder = list(encoder) if encoder is not None else None
        self.split_shape = tuple(split_shape)
        self._keep = True

    @property
    def split_dim(self):
        return int(np.prod(self.split_shape))

    def blocks(self):
        out = {"n1": self.n1, "n2": self.n2}
        if self.encoder is not None:
            out["encoder"] = self.encoder
        return out

    @contextlib.contextmanager
    def inference(self):
        """Forward passes inside keep no backward cache: no backward will
        read one, so each layer drops what an earlier forward kept, and a
        conv unfolds its chunks into one reused buffer."""
        keep, self._keep = self._keep, False
        try:
            yield
        finally:
            self._keep = keep

    def holds_conv(self):
        return any(isinstance(layer, Conv2d) for block in self.blocks().values()
                   for layer in block)

    def _pinned(self):
        """A pass of a network that holds a Conv2d runs under
        `one_blas_thread`: the conv lanes take the CPUs, and a BLAS worker
        woken by any GEMM of the pass would spin against them.  Other
        networks keep the BLAS's own thread count."""
        return one_blas_thread(self.holds_conv())

    def forward(self, batch, use_encoder=False):
        """Run the stack, `head` over `forward_features`; returns
        (split_features, logits).

        split_features is the value entering n2: f(x) without the encoder,
        h(f(x)) with it.
        """
        return self.head(self.forward_features(batch), use_encoder)

    def head(self, x, use_encoder=False):
        """Run the encoder (optionally) and n2 on n1 output x = f(batch);
        returns (split_features, logits) as `forward` does."""
        if use_encoder and self.encoder is None:
            raise EncoderMissing("use_encoder=True on a network without an encoder")
        with self._pinned():
            if use_encoder:
                for layer in self.encoder:
                    x = layer.forward(x, self._keep)
            split = x
            for layer in self.n2:
                x = layer.forward(x, self._keep)
            tc.check_finite(x, "network forward")
        return split, x

    def forward_features(self, batch):
        """n1 output only (the feature map f)."""
        x = np.asarray(batch, dtype=np.float64)
        with self._pinned():
            for layer in self.n1:
                x = layer.forward(x, self._keep)
        return x

    def backward(self, dlogits, use_encoder=False, split_grad=None,
                 input_grad=True):
        """Backpropagate from the logits.  Each trainable layer on the walk
        writes its parameter gradients; frozen layers pass the input
        gradient only and never write their buffers.

        `split_grad` is added to the gradient arriving at the n2 input (used
        for feature-alignment terms acting on the split features).  When
        every n1 layer is frozen (phase 2 and the finetune-N2 baseline) no
        gradient below the split is needed, so the walk stops there and the
        gradient with respect to the n1 output is returned.  Otherwise it
        goes on through n1 and returns the gradient with respect to the
        network input.  With `input_grad` False that gradient is not read:
        the walk's last layer sets its parameter gradients and computes no
        input gradient, and None is returned.
        """
        if use_encoder and self.encoder is None:
            raise EncoderMissing("backward(use_encoder=True) without an encoder")
        below = list(self.encoder) if use_encoder else []
        if not all(layer.frozen for layer in self.n1):
            below = self.n1 + below
        last = (below or self.n2)[0]
        d = dlogits
        with self._pinned():
            for layer in reversed(self.n2):
                d = layer.backward(d, input_grad or layer is not last)
            if split_grad is not None:
                d = d + split_grad.reshape(d.shape)
            for layer in reversed(below):
                d = layer.backward(d, input_grad or layer is not last)
        return d

    def all_params(self, blocks=BLOCK_NAMES):
        out = []
        table = self.blocks()
        for name in blocks:
            for layer in table.get(name, []):
                out.extend(layer.params())
        return out

    def param_bytes(self, blocks=("n1", "n2")):
        """Concatenated raw parameter bytes, for freeze-integrity checksums."""
        return b"".join(p.value.tobytes() for p in self.all_params(blocks))


def build_fcn(seed):
    """Four-Linear-layer 1024->10 classifier with no activations.

    Front: 1024->512->256, head: 256->128->10; the split feature width
    is 256. Same seed gives bit-identical parameters.
    """
    rng = derive_rng(seed, "build_fcn")
    n1 = [Linear(1024, 512, rng), Linear(512, 256, rng)]
    n2 = [Linear(256, 128, rng), Linear(128, 10, rng)]
    return Network("fcn", n1, n2, split_shape=(256,))


def build_cnn(seed):
    """Five-conv + one-Linear classifier for 1x32x32 inputs, ReLU throughout.

    Front: conv(1->16, s1) + conv(16->32, s2) giving 32x16x16 split features;
    head: three more convs down to 64x8x8, then a Linear (which flattens
    its input) to 10 classes.
    """
    rng = derive_rng(seed, "build_cnn")
    n1 = [
        Conv2d(1, 16, 3, 3, stride=1, padding=1, rng=rng), ReLU(),
        Conv2d(16, 32, 3, 3, stride=2, padding=1, rng=rng), ReLU(),
    ]
    n2 = [
        Conv2d(32, 32, 3, 3, stride=1, padding=1, rng=rng), ReLU(),
        Conv2d(32, 64, 3, 3, stride=2, padding=1, rng=rng), ReLU(),
        Conv2d(64, 64, 3, 3, stride=1, padding=1, rng=rng), ReLU(),
        Linear(64 * 8 * 8, 10, rng),
    ]
    return Network("cnn", n1, n2, split_shape=(32, 16, 16))


def build_encoder(network, seed, noise_scale=1e-2):
    """Create and attach the trainable encoder block at the network split.

    Initialization is near-identity (identity matrix / centered delta kernel
    plus seeded noise), so inserting the encoder barely perturbs the
    pretrained behaviour at the start of adaptation.
    """
    if network.encoder is not None:
        raise EncoderAlreadyPresent("network already has an encoder block")
    rng = derive_rng(seed, "build_encoder", network.arch)
    layers = []
    if network.arch == "fcn":
        k = network.split_dim
        for _ in range(2):
            lin = Linear(k, k)
            lin.weight.value[:] = np.eye(k) + noise_scale * rng.standard_normal((k, k))
            layers.append(lin)
    else:
        c = network.split_shape[0]
        for i in range(2):
            conv = Conv2d(c, c, 3, 3, stride=1, padding=1)
            w = noise_scale * rng.standard_normal((c, c, 3, 3))
            w[np.arange(c), np.arange(c), 1, 1] += 1.0
            conv.weight.value[:] = w
            layers.append(conv)
            layers.append(ReLU())
    network.encoder = layers
    return layers


def set_frozen(network, blocks, frozen):
    """Set the freeze flag on every layer of the named blocks."""
    for name in blocks:
        if name not in BLOCK_NAMES:
            raise NetworkError(f"unknown block {name!r}")
        if name == "encoder" and network.encoder is None:
            raise EncoderMissing("cannot freeze encoder: none attached")
        for layer in network.blocks()[name]:
            layer.frozen = bool(frozen)
    return network


class Adam:
    """Adam with decoupled weight decay over the parameters it is given;
    the caller decides what trains, and nothing else ever changes here.
    lr=0 is the identity.

    The update runs in place: each parameter has its moments `m` and
    `v`, and every temporary lives in two float scratch buffers and one
    bool buffer shared by all parameters, sized to the largest (about
    2 x its bytes, plus one byte per element); all of them are made
    here.  Each element sees the operations of the textbook formula in
    the same order, so the result is bit-identical to

        m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
        p -= lr * (m / c1) / (sqrt(v / c2) + eps);  p -= lr * wd * p_old

    with b1, b2, eps = BETA1, BETA2, EPSILON and c1 = 1 - b1**t,
    c2 = 1 - b2**t at step t.  A step is all or nothing: every gradient is
    checked before any parameter or moment changes, and a non-finite one
    raises NonFiniteGradient.
    """

    def __init__(self, params, lr=1e-3, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros(p.value.shape) for p in self.params]
        self.v = [np.zeros(p.value.shape) for p in self.params]
        size = max((p.value.size for p in self.params), default=0)
        self._scratch = (np.empty(size), np.empty(size), np.empty(size, dtype=bool))

    def step(self):
        for p in self.params:
            ok = self._scratch[2][:p.grad.size].reshape(p.grad.shape)
            np.isfinite(p.grad, out=ok)
            if not ok.all():
                raise NonFiniteGradient("non-finite gradient in Adam step")
        self.t += 1
        c1, c2 = 1.0 - BETA1 ** self.t, 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            a, b = (buf[:g.size].reshape(g.shape) for buf in self._scratch[:2])
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=a)
            m += a
            np.multiply(g, 1.0 - BETA2, out=a)
            a *= g
            v *= BETA2
            v += a
            np.divide(m, c1, out=a)
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += EPSILON
            a *= self.lr
            a /= b
            if self.weight_decay:
                # decoupled decay of the pre-update weights (AdamW)
                np.multiply(p.value, self.lr * self.weight_decay, out=b)
            p.value -= a
            if self.weight_decay:
                p.value -= b


def network_state(network):
    """(structure, arrays): the network as plain data, the form a checkpoint
    stores and `rebuild` reads.  `structure` holds the architecture and the
    layer descriptors; `arrays` maps "<block>.<layer>.<param>" to the
    parameter values themselves, not copies."""
    structure = {
        "arch": network.arch,
        "split_shape": list(network.split_shape),
        "blocks": {name: [l.descriptor() for l in layers]
                   for name, layers in network.blocks().items()},
    }
    arrays = {f"{name}.{i}.{j}": p.value
              for name, layers in network.blocks().items()
              for i, layer in enumerate(layers)
              for j, p in enumerate(layer.params())}
    return structure, arrays


def rebuild(structure, arrays, share=()):
    """A fresh Network from `network_state` output (or an open checkpoint);
    every parameter is copied out of `arrays`, so training the network
    leaves them as they were, except in the blocks named in `share`, whose
    parameters are the arrays themselves."""
    blocks = {}
    for name, descriptors in structure["blocks"].items():
        layers = [_layer_from_descriptor(d) for d in descriptors]
        for i, layer in enumerate(layers):
            for j, p in enumerate(layer.params()):
                stored = arrays[f"{name}.{i}.{j}"]
                if stored.shape != p.value.shape:
                    raise NetworkError(
                        f"checkpoint array {name}.{i}.{j} has shape {stored.shape}, "
                        f"expected {p.value.shape}")
                p.value = (stored if name in share
                           else np.array(stored, np.float64, order="C"))
        blocks[name] = layers
    return Network(structure["arch"], blocks["n1"], blocks["n2"],
                   split_shape=structure["split_shape"],
                   encoder=blocks.get("encoder"))


def save_checkpoint(network, path, meta=None):
    """Serialize structure, parameters and metadata; round-trips bit-exactly.

    Missing parent directories are made (`atomic_open`).  The archive
    streams into a temporary file that replaces `path` only once it is
    complete; a failed save leaves neither behind.
    """
    structure, arrays = network_state(network)
    structure["meta"] = meta or {}
    arrays = {"structure": np.array(json.dumps(structure, sort_keys=True)),
              **arrays}
    with atomic_open(path) as fh:
        np.savez(fh, **arrays)


@contextlib.contextmanager
def _open_checkpoint(path):
    """The open archive at `path` and its decoded structure.

    A file that is not a `save_checkpoint` archive (not a zip, a bare
    `.npy` array, truncated, empty, no or malformed `structure`, a missing
    array) raises NetworkError naming the path and the exception type
    (NumPy's own message for a text file suggests unpickling it); a
    missing file stays OSError.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            yield data, json.loads(str(data["structure"]))
    except (ValueError, KeyError, TypeError, AttributeError, EOFError,
            zipfile.BadZipFile) as exc:
        raise NetworkError(f"{os.fspath(path)} is not a checkpoint "
                           f"({type(exc).__name__})") from exc


def checkpoint_meta(path):
    """The metadata `save_checkpoint` stored, without the parameters."""
    with _open_checkpoint(path) as (_, structure):
        return structure["meta"]


def load_checkpoint(path):
    """Rebuild a Network (and its metadata) from `save_checkpoint` output.

    A checkpoint the layer table cannot rebuild (an unknown layer kind,
    an array of the wrong shape) raises NetworkError naming the path."""
    with _open_checkpoint(path) as (data, structure):
        try:
            return rebuild(structure, data), structure["meta"]
        except NetworkError as exc:
            raise NetworkError(f"{os.fspath(path)}: {exc}") from exc

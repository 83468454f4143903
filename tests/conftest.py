"""Fixtures shared by the engine and CLI tests."""

import json

import numpy as np
import pytest

from lrsdag import nn


@pytest.fixture
def tamper_frozen(monkeypatch, tmp_path):
    """`tamper(case, ckpt)` patches `nn.Network.backward` so that its first
    call, once it has returned, changes one frozen value of the network;
    returns the checkpoint to start from and the name of the block that
    changed.

    "n2_ulp" moves the first weight of the last N2 layer up one ulp.
    "n1_signed_zero" turns the first bias of the first N1 layer from 0.0,
    set in a copy of `ckpt`, to -0.0, which == cannot tell apart.
    """
    def tamper(case, ckpt):
        if case == "n2_ulp":
            block = "n2"

            def change(net):
                w = net.n2[-1].weight.value
                w.flat[0] = np.nextafter(w.flat[0], np.inf)
        elif case == "n1_signed_zero":
            block = "n1"
            net, meta = nn.load_checkpoint(ckpt)
            net.n1[0].bias.value[0] = 0.0
            ckpt = str(tmp_path / "zero-bias.npz")
            nn.save_checkpoint(net, ckpt, meta=meta)

            def change(net):
                net.n1[0].bias.value[0] = -0.0
        else:
            raise ValueError(case)
        orig = nn.Network.backward
        done = []

        def backward(self, *args, **kwargs):
            d = orig(self, *args, **kwargs)
            if not done:
                change(self)
                done.append(True)
            return d

        monkeypatch.setattr(nn.Network, "backward", backward)
        return ckpt, block

    return tamper


@pytest.fixture(params=["text", "npy", "no-structure", "json-list",
                        "truncated", "empty", "bad-json"])
def not_a_checkpoint(request, tmp_path):
    """Path of a file named like a checkpoint that `save_checkpoint` did not
    write: a text file, a bare `.npy` array, an archive without
    `structure`, one whose `structure` is a JSON list, the first 4 KiB
    of a checkpoint, an empty file, or a `structure` that is not JSON."""
    path = tmp_path / f"{request.param}.npz"
    if request.param == "text":
        path.write_text("epoch,loss\n0,2.3\n")
    elif request.param == "npy":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
    elif request.param == "no-structure":
        np.savez(path, weights=np.zeros(3))
    elif request.param == "json-list":
        np.savez(path, structure=np.array("[1, 2]"))
    elif request.param == "truncated":
        nn.save_checkpoint(nn.build_fcn(seed=0), path)
        path.write_bytes(path.read_bytes()[:4096])
    elif request.param == "empty":
        path.write_bytes(b"")
    else:
        np.savez(path, structure=np.array("{not json"))
    return path


@pytest.fixture
def unbuildable_checkpoint(tmp_path):
    """`make(case)` writes a CNN checkpoint the layer table cannot rebuild
    and returns its path: "flatten" names a layer kind that no longer
    exists before the Linear, as CNN checkpoints once did; "shape" gives
    the Linear a weight of the wrong shape."""
    def make(case):
        path = tmp_path / f"{case}.npz"
        nn.save_checkpoint(nn.build_cnn(seed=0), path)
        with np.load(path) as stored:
            arrays = dict(stored)
        structure = json.loads(str(arrays["structure"]))
        if case == "flatten":
            structure["blocks"]["n2"].insert(6, {"kind": "flatten", "frozen": False})
        elif case == "shape":
            arrays["n2.6.0"] = np.zeros((10, 8))
        else:
            raise ValueError(case)
        arrays["structure"] = np.array(json.dumps(structure, sort_keys=True))
        np.savez(path, **arrays)
        return str(path)

    return make


@pytest.fixture
def held_caches():
    """`held(net)` lists "<block>.<index>.<cache>" for every backward
    cache (`_cols`, `_mask`, `_x`) a layer of `net` still holds."""
    def held(net):
        return [f"{name}.{i}.{attr}"
                for name, layers in net.blocks().items()
                for i, layer in enumerate(layers)
                for attr in ("_cols", "_mask", "_x")
                if getattr(layer, attr, None) is not None]

    return held

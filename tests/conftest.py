"""Fixtures shared by the engine and CLI tests."""

import numpy as np
import pytest

from lrsdag import nn


@pytest.fixture
def tamper_frozen(monkeypatch, tmp_path):
    """`tamper(case, ckpt)` patches `nn.Adam.step` so that its first call,
    after stepping, changes one frozen value; returns the checkpoint to
    start from and the name of the block that changed.

    The optimizer of a fit holds the layers N1 first and N2 last.
    "n2_ulp" moves the first weight of the last N2 layer up one ulp.
    "n1_signed_zero" turns the first bias of the first N1 layer from 0.0,
    set in a copy of `ckpt`, to -0.0, which == cannot tell apart.
    """
    def tamper(case, ckpt):
        if case == "n2_ulp":
            block = "n2"

            def change(layers):
                w = layers[-1].weight.value
                w.flat[0] = np.nextafter(w.flat[0], np.inf)
        elif case == "n1_signed_zero":
            block = "n1"
            net, meta = nn.load_checkpoint(ckpt)
            net.n1[0].bias.value[0] = 0.0
            ckpt = str(tmp_path / "zero-bias.npz")
            nn.save_checkpoint(net, ckpt, meta=meta)

            def change(layers):
                layers[0].bias.value[0] = -0.0
        else:
            raise ValueError(case)
        orig = nn.Adam.step
        done = []

        def step(self):
            orig(self)
            if not done:
                change(self.layers)
                done.append(True)

        monkeypatch.setattr(nn.Adam, "step", step)
        return ckpt, block

    return tamper

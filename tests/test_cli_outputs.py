import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "cli_outputs", os.path.join(ROOT, "tools", "cli_outputs.py"))
cli_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_outputs)

CELL = {"method": "CLS", "loss_history": [0.5, 0.25], "wall_clock": 1.5}


def recorded(root, files):
    """A `run` dir whose work tree holds `files` ({relative path: bytes}),
    its digests written."""
    for rel, payload in files.items():
        path = os.path.join(root, "work", rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(payload)
    cli_outputs.record(str(root))
    return str(root)


def tree(cell=CELL):
    return {"report.txt": b"Method  Sampling\n",
            "stdout/fcn.reproduce.txt": b"Method  Sampling\n",
            "cells/lrsdag.cls.-.trial0.json": json.dumps(cell, indent=1).encode(),
            "prepared/manifest.json": b'{"demo_size": 100}\n'}


def test_equal_trees_compare_equal(tmp_path, capsys):
    a, b = recorded(tmp_path / "a", tree()), recorded(tmp_path / "b", tree())
    assert cli_outputs.compare(a, b) == 0
    assert capsys.readouterr().out == "4 files, 0 differ\n"


def test_one_changed_byte_is_named(tmp_path, capsys):
    changed = tree()
    changed["stdout/fcn.reproduce.txt"] = b"Method  Samplinh\n"
    del changed["prepared/manifest.json"]
    a, b = recorded(tmp_path / "a", tree()), recorded(tmp_path / "b", changed)
    assert cli_outputs.compare(a, b) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"prepared/manifest.json: only in {a}",
        "stdout/fcn.reproduce.txt: differs",
        "4 files, 2 differ"]


def test_record_differing_only_in_wall_clock_is_equal(tmp_path, capsys):
    a = recorded(tmp_path / "a", tree())
    b = recorded(tmp_path / "b", tree(dict(CELL, wall_clock=9.25)))
    assert cli_outputs.compare(a, b) == 0
    # any other field of the record still counts
    c = recorded(tmp_path / "c", tree(dict(CELL, loss_history=[0.5, 0.26])))
    assert cli_outputs.compare(a, c) == 1
    assert "cells/lrsdag.cls.-.trial0.json: differs" in capsys.readouterr().out

"""The machine and code a result was measured on."""

import ctypes
import glob
import hashlib
import os
import platform

import numpy as np


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (KeyError, TypeError):
        pass
    # NumPy wheels bundle OpenBLAS under a prefixed symbol name
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                return info
    return info


def _git_sha(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _tree_sha256(top):
    """Digest of every .py file under top: names the code measured when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def describe(root="."):
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = _blas()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "blas": blas,
        "blas_threads_within_nproc": blas["threads"] is not None and blas["threads"] <= nproc,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
        "src_sha256": _tree_sha256(os.path.join(root, "src")),
    }

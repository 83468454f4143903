"""The benchmark's tracer replaces lrsdag attributes by name; a renamed
or removed one would only show when a traced benchmark run fails."""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_is_defined_on_its_owner():
    tracing = _tracing()
    keys = list(tracing.Trace().wrappers()) + list(tracing.Probes().wrappers())
    missing = [f"{owner.__name__}.{attr}" for owner, attr in keys
               if attr not in owner.__dict__]
    assert keys and not missing, missing

"""The package's one handle on numpy, which every module takes `np` from:
numpy loads on the first attribute read through it, and each attribute read
is kept on the handle.  Only `sweep` and a shot-sampled run load it: the
parser, `longrange`, `tiling` and every exact-only record compute on floats.
`backend_name` names the backend for the benchmark's provenance."""

import importlib


class _Numpy:
    def __getattr__(self, name: str):
        value = getattr(importlib.import_module("numpy"), name)
        setattr(self, name, value)
        return value


np = _Numpy()


def backend_name() -> str:
    return "numpy"

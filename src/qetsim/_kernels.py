"""The numerical backend's name.  Every kernel of the package is plain numpy
inside its own module; this module names that backend for the benchmark's
provenance record."""


def backend_name() -> str:
    return "numpy"

"""Kernel report: every embedding search runs in ``_engine_py``.

The CLI manifest (``engine_backend``) and the benchmark in ``bench/`` read
these names, so they stay although there is only one kernel.
"""

_engine_cy = None


def compiled_available() -> bool:
    return False


def backend_name() -> str:
    return "pure-python"

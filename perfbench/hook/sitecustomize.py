"""Traced-run launcher hook for SUT processes.

A traced run puts this directory first on the SUT's ``PYTHONPATH`` and
names a span directory in ``PERFBENCH_TRACE_DIR``.  Python imports
``sitecustomize`` at start-up, so the router and every fabric worker it
spawns (they inherit the environment) wrap the layer entry points before
``repro serve`` starts.  Without the variable this module does nothing.
"""

import os

_OUT = os.environ.get("PERFBENCH_TRACE_DIR")
if _OUT:
    from perfbench.tracing import install_sut

    install_sut(_OUT)

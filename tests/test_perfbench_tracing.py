"""The benchmark's tracer finds every package function it wraps.

perfbench/tracing.py skips a target whose module or attribute is missing,
and the layer metrics built on it drop out of a traced run's result line
without an error; a rename in the package would show only there.
"""

import sys
from pathlib import Path

import abicreg
import abicreg.cli  # noqa: F401  (perfbench/run.py imports it before tracing)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_every_target_is_present():
    tracer = tracing.Tracer(abicreg)
    tracer.install()
    try:
        names = {f"{module}.{attribute}" for module, attribute, _ in tracing.TARGETS}
        assert len(names) == 18
        assert tracer.present == names
    finally:
        tracer.uninstall()
    assert not tracer._patches

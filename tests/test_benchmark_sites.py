"""The names the benchmark's tracer wraps must keep resolving.

`perfbench/tracing.py` times the program by replacing module attributes
(`STAGE_SITES`); a site that no longer resolves reads 0 in every traced run
and shows only as `trace.missing_wrappers`. This test reads that list and
fails on any missing site beyond the ones known to be missing, and on any
site listed as known missing that resolves, so the list stays exact.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Sites missing before this test existed; the benchmark's own change owns them.
KNOWN_MISSING = {"tabrep.interpret.masked_rows", "tabrep.interpret._target_values",
                 "tabrep.numeric.swap_axes"}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _resolves(site) -> bool:
    try:
        owner = importlib.import_module(site.module)
        for part in site.attr.split("."):
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_wrapped_site_resolves():
    sites = _tracing().STAGE_SITES
    missing = {f"{s.module}.{s.attr}" for s in sites if not _resolves(s)}
    assert missing == KNOWN_MISSING, (sorted(missing - KNOWN_MISSING),
                                      sorted(KNOWN_MISSING - missing))

"""Core selection: the python SM frontend vs. the inlined fast one.

The engine and the whole memory side exist once.  What the core picks is
the SM frontend:

* the **python core** runs :class:`repro.gpu.sm.SM`, the readable
  per-cycle issue/classify loop;
* the **fast core** runs :class:`repro.gpu.sm_fast.FastSM`, the same tick
  inlined into one method.  It must produce byte-identical results; the
  digest corpus in ``tests/core_digests.json`` pins both frontends, and CI
  regenerates the fig6.x goldens under both cores and ``cmp``s them.

Selection happens at **import time** from the environment and can be
overridden per-config:

* ``REPRO_CORE=fast`` (or ``python``) selects the core for the whole
  process -- including executor worker processes, which inherit the
  environment through ``multiprocessing``;
* ``SystemConfig.core`` (``"auto"`` by default) pins a single system:
  ``"auto"`` defers to the environment, ``"python"``/``"fast"`` win over
  it.  The field never enters ``to_dict()`` / scenario cache keys --
  both cores must produce the same bytes, so results are shared.
"""

from __future__ import annotations

import os

CORES = ("auto", "python", "fast")

#: Process-wide default, read once at import so every subsystem -- and
#: every executor worker forked later -- agrees on one answer.
DEFAULT_CORE: str = os.environ.get("REPRO_CORE", "python")
if DEFAULT_CORE not in ("python", "fast"):
    raise RuntimeError(
        "REPRO_CORE must be 'python' or 'fast', got %r" % DEFAULT_CORE
    )


def resolve_core(config_core: str = "auto") -> str:
    """The core a system with ``config_core`` actually runs on.

    ``"auto"`` (the default) defers to ``REPRO_CORE``; an explicit
    ``"python"``/``"fast"`` pins the system regardless of environment.
    """
    if config_core == "auto":
        return DEFAULT_CORE
    return config_core

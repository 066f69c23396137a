"""The one loader/merger for ``BENCH_engine.json`` perf-trajectory files.

Three consumers used to re-parse the artifact with ad-hoc code --
``repro bench`` (:mod:`repro.experiments.bench`), the CI perf gate
(``benchmarks/perf_gate.py``) and the benchmark session flush
(``benchmarks/conftest.py``).  They all read the same shape, so this
module owns it:

* top level: ``{"unit": ..., "scenarios": [...], "campaign_cells":
  {...}, <future sections carried verbatim>}``;
* a **scenario section** (:data:`SCENARIO_SECTIONS`) is a list of rows
  keyed by :meth:`~repro.experiments.spec.Scenario.key` -- the stable
  hash of the simulation inputs -- with ``scenario`` / ``workload``
  display fields, ``cycles``, ``engine_events``, ``wall_clock_s`` and
  the headline ``cycles_per_sec``;
* ``campaign_cells`` is a whole-campaign throughput section (cells/min
  for the planned and serial legs) published by
  ``benchmarks/test_campaign_bench.py``.

See ``docs/ARTIFACTS.md`` for the full field-by-field schema.
"""

from __future__ import annotations

import json
import os

#: the per-scenario trajectory sections
SCENARIO_SECTIONS = ("scenarios",)

#: the unit line stamped into every artifact this module writes
UNIT = "simulated GPU cycles per host second"


def load_artifact(path: str, missing_ok: bool = True) -> dict:
    """Parse a BENCH_engine artifact into its top-level dict.

    With ``missing_ok`` (the default) a missing or unparsable file is an
    empty artifact -- the tolerant behaviour ``repro bench`` and the
    conftest merge want.  Gate-style callers pass ``missing_ok=False`` to
    surface ``OSError``/``ValueError`` instead of silently comparing
    against nothing.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        if missing_ok:
            return {}
        raise
    return payload if isinstance(payload, dict) else {}


def load_section(path: str, section: str, missing_ok: bool = True) -> list[dict]:
    """The rows of one scenario section ([] when absent)."""
    rows = load_artifact(path, missing_ok=missing_ok).get(section, [])
    return rows if isinstance(rows, list) else []


def rows_by_key(path: str, section: str, missing_ok: bool = True) -> dict:
    """Scenario-key -> row map of one section, gate-style: rows without a
    key (legacy artifacts fall back to the display name) or without a
    measured ``cycles_per_sec`` are dropped, so every returned row is
    comparable."""
    out = {}
    for entry in load_section(path, section, missing_ok=missing_ok):
        key = entry.get("key") or entry.get("scenario")
        if key and entry.get("cycles_per_sec"):
            out[key] = entry
    return out


def load_campaign_cells(path: str, missing_ok: bool = True) -> dict | None:
    """The ``campaign_cells`` throughput section, or ``None`` when the
    artifact predates it / the session did not run the campaign benchmark
    (callers skip the campaign comparison cleanly in that case)."""
    section = load_artifact(path, missing_ok=missing_ok).get("campaign_cells")
    if not isinstance(section, dict):
        return None
    if not (section.get("planned") or {}).get("cells_per_min"):
        return None
    return section


def merge_rows(
    path: str,
    section: str,
    fresh: list[dict],
    extra_sections: dict | None = None,
) -> dict:
    """Merge freshly measured rows into one section and rewrite ``path``.

    The merge semantics every writer shares (``repro bench --update`` and
    the benchmark session flush):

    * rows pair by scenario key -- a re-measured configuration replaces
      its old row;
    * stale rows sharing a *display identity* (workload, scenario name)
      with a fresh row are evicted: a config change rehashes
      ``Scenario.key()``, and the re-measured scenario would otherwise
      land under a new key while its dead old-key row survived;
    * sections this call did not touch (``campaign_cells``, future
      sections) are carried through verbatim;
    * ``extra_sections`` (name -> payload) overwrite whole named sections
      (the conftest's ``add_bench_section`` channel).

    Returns the payload that was written.
    """
    payload = load_artifact(path)
    merged = {e.get("key", e.get("scenario")): e for e in payload.get(section, [])}
    fresh_names = {(r.get("workload"), r.get("scenario")) for r in fresh}
    merged = {
        k: e
        for k, e in merged.items()
        if (e.get("workload"), e.get("scenario")) not in fresh_names
    }
    merged.update({r["key"]: r for r in fresh})
    payload["unit"] = UNIT
    if merged:
        payload[section] = sorted(
            merged.values(),
            key=lambda e: (e.get("workload") or "", e.get("scenario") or ""),
        )
    if extra_sections:
        payload.update(extra_sections)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return payload

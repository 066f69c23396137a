"""Results database + programmatic report (``repro report``).

The repo's answer to "regenerate and diff the whole paper in one
command".  Two modules:

* :mod:`repro.results.db` -- :class:`ResultsDB`, a SQLite ingestion
  layer over every artifact the repo produces: executor ``.sim-cache``
  entries, figure/campaign results, end-to-end benchmark records,
  telemetry JSONL series, golden files -- with provenance (git SHA,
  python version, content hashes) on every ingest.
* :mod:`repro.results.report_gen` -- regenerates the full fig6.x set,
  the campaign stall-attribution matrix and the benchmark baseline's
  medians as one versioned report (Markdown + LaTeX + JSON) with a SHA-256 manifest,
  so a rebuilt report is byte-diffable against the committed
  ``docs/report/``.

Artifact formats are specified field-by-field in ``docs/ARTIFACTS.md``;
the CLI surface is ``repro report build|query|diff|manifest``.
"""

from repro.results.db import ResultsDB, file_sha256

__all__ = ["ResultsDB", "file_sha256"]

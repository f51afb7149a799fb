"""repro.sweep — fabric-distributed multi-objective parameter sweeps.

The paper's result is a trade-off surface, not a point: Procedure 2
minimizes gates, Procedure 3 minimizes paths, and K moves both.  This
package evaluates a whole grid — circuits x procedures x K values x
seeds — in one run and reduces it to the per-circuit **Pareto front**
over ``(gates, paths, depth)``:

* :class:`SweepSpec` (:mod:`spec`) — the content-addressed grid; each
  cell *is* a :class:`~repro.service.jobspec.JobSpec`, so cell reports
  are bit-identical to standalone runs and dedupe against them.
* :class:`SweepRunner` (:mod:`runner`) — dispatches cells as whole
  ``resynth_cell`` fabric tasks (serial / process pool / remote fleet),
  persisting every finished cell crash-safely so an interrupted sweep
  resumes bit-identically with only unfinished cells re-run.
* :class:`SweepReport` (:mod:`report`) — the per-cell table plus the
  non-dominated front, checked against a brute-force dominance scan by
  the ``execution`` differential oracle.

Entry points: ``repro-resynth sweep --grid grid.json`` on the CLI,
``POST /sweeps`` on the service (docs/SWEEP.md has the full contract).
"""

from .report import (
    SWEEP_ROW_NUMBER_FIELDS,
    SweepReport,
    build_sweep_report,
    cell_row,
    dominates,
    netlist_fingerprint,
    pareto_front,
    sweep_report_from_doc,
)
from .runner import SweepError, SweepRunner
from .spec import (
    SweepCell,
    SweepSpec,
    SweepSpecError,
    sweep_from_doc,
    sweep_from_json,
)

__all__ = [
    "SWEEP_ROW_NUMBER_FIELDS",
    "SweepCell",
    "SweepError",
    "SweepReport",
    "SweepRunner",
    "SweepSpec",
    "SweepSpecError",
    "build_sweep_report",
    "cell_row",
    "dominates",
    "netlist_fingerprint",
    "pareto_front",
    "sweep_from_doc",
    "sweep_from_json",
    "sweep_report_from_doc",
]

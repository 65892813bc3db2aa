"""rqlint: query-level semantic analysis for the RQL dialect.

Where replint (:mod:`repro.analysis.rules`) checks the *implementation*
— lock order, durability, protocol typestate — rqlint checks the
*queries*: it resolves each RQL mechanism invocation against a schema,
certifies its merge class (monoid / stored-row / concat /
interval-stitch / serial-only) and emits RQL100-106 diagnostics through
the same findings/baseline/pragma/SARIF machinery.  planlint
(:mod:`repro.analysis.query.planlint`) extends the pass to the *plans*:
RQL110-114 certify the cost-based planner's access paths against
declared ANALYZE statistics and the golden-plan corpus
(:mod:`repro.workloads.plans`).

Public surface:

* :func:`repro.analysis.query.mergeclass.certify_mechanism` — build a
  :class:`~repro.analysis.query.mergeclass.MergeCertificate` for one
  mechanism call; consumed load-bearingly by
  :class:`repro.core.parallel.ParallelExecutor`.
* :class:`repro.analysis.query.sqlfile.SqlCorpus` — the ``.sql`` lint
  file grammar the one lint driver (:mod:`repro.analysis.driver`) sends
  every ``.sql`` file through.
"""

from repro.analysis.query.mergeclass import (  # noqa: F401
    CONCAT,
    INTERVAL_STITCH,
    MONOID,
    SERIAL_ONLY,
    STORED_ROW,
    MergeCertificate,
    certify_mechanism,
    classify_select,
)
from repro.analysis.query.planlint import (  # noqa: F401
    PlanCertificate,
    certify_plan,
)
from repro.analysis.query.rules import QUERY_REGISTRY  # noqa: F401

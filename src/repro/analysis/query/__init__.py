"""rqlint: query-level semantic analysis for the RQL dialect.

Where replint (:mod:`repro.analysis.rules`) checks the *implementation*
— lock order, protocol typestate, worker races — rqlint checks the
*queries*: it sends each RQL mechanism invocation of a ``.sql`` lint
file through the product's merge certificate
(:func:`repro.sql.certify.certify_mechanism`, the verdict the parallel
executor reads) and emits its RQL100-106 diagnostics through the same
findings/baseline/pragma/SARIF machinery.  planlint
(:mod:`repro.analysis.query.planlint`) extends the pass to the *plans*:
RQL110-114 certify the cost-based planner's access paths against
declared ANALYZE statistics and the golden-plan corpus
(:mod:`repro.workloads.plans`).

Public surface:

* :class:`repro.analysis.query.sqlfile.SqlCorpus` — the ``.sql`` lint
  file grammar the one lint driver (:mod:`repro.analysis.driver`) sends
  every ``.sql`` file through.
"""

from repro.analysis.query.planlint import (  # noqa: F401
    PlanCertificate,
    certify_plan,
)
from repro.analysis.query.rules import QUERY_REGISTRY  # noqa: F401

"""Graph codes from quantum emitters and exact logical-fusion analysis.

The package covers the full pipeline: enumerating the graph states a
single emitter can produce, turning them into single-logical-qubit graph
codes, exactly evaluating the loss and Pauli-error performance of
transversal logical fusions between two copies, searching failure bases
and photon-loss thresholds under bias models, and compiling two-emitter
(or emitter-plus-memory) generation sequences with resource counts.

Exact erasure counts come from ``lpoly.erasure_analysis(code, w,
p_fail)``, ML-decoded error rates and the correctable region from
``fusion.ErrorAnalyzer(code, w, p_fail)``; both evaluate at a
transmission eta given per call.  ``import fusioncodes`` loads neither
module, and no module of the package imports numpy.

Paulis are packed ints ``x | z << n``; signed Pauli strings exist only
as text from ``pauli.pauli_string``, which ``logical_set`` returns.
"""

__version__ = "0.1.0"

from .codes import GraphCode, code_from_progenitor, logical_set  # noqa: F401
from .graphs import GraphState  # noqa: F401

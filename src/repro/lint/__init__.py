"""repro.lint: contract-enforcing static analysis for this repository.

The repo's value rests on three contracts nothing used to check by
machine: bitwise determinism of the sweep engines (seed-substream
discipline), crash-safe cache and checkpoint writes, and the
consolidated vectorized device protocol.  This package walks the
``src/repro`` ASTs and introspects the imported device registry to
enforce them:

========  ==============================================================
rule      invariant guarded
========  ==============================================================
RNG001    no seedless ``np.random.default_rng()`` in library code
RNG002    no entropy-seeded ``np.random.SeedSequence()``
RNG003    no stdlib ``random`` module (unseedable global state)
RNG004    no wall-clock reads (``time.time``, ``datetime.now``, ...)
PRT001    mirror-symmetric models use ``_forward_currents``, not
          a ``currents`` override
PRT002    ``linearize``/``linearize_point`` are overridden together
PRT003    non-mirror-symmetric devices declare a two-sided
          ``operating_box``
IOW001    cache/checkpoint writes go through mkstemp + ``os.replace``
PKN001    sweep kernels are module-level (picklable) functions
PKN002    sweep kernels do not touch ``global`` state
MRG001    vectorized ``SweepPlan`` consumers register an entry validator
LNT001    allowlist markers are well-formed and carry a reason
LNT002    allowlist markers actually suppress something
========  ==============================================================

A finding is silenced — never by configuration, only in place — with an
inline marker carrying a mandatory reason::

    some_code()  # repro-lint: ok[RNG002] -- documented entropy helper

A marker on a comment-only line covers the next line instead.  Run the
pass with ``python -m repro.lint`` or ``repro lint`` (add ``--json`` for
machine-readable diagnostics).
"""

from repro.lint.diagnostics import Diagnostic, RULES
from repro.lint.runner import LintResult, run_lint

__all__ = ["Diagnostic", "LintResult", "RULES", "run_lint"]

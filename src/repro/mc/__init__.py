"""Model-checking substrate — the reproduction's NuSMV replacement.

The engines the pipeline's backends run:

* :mod:`.explicit` — explicit-state CTL labelling with counterexamples
  over a :class:`repro.model.kripke.KripkeStructure` (``explicit``);
* :mod:`.symbolic` — BDD-based symbolic CTL over a compiled symbolic
  union model that never enumerates the product
  (:class:`~repro.mc.symbolic.SymbolicModelChecker`, ``symbolic``), on
  the BDD kernels of :mod:`.kernel` (``reference``, :mod:`.bdd`, and
  ``fast``, :mod:`.fastbdd`);
* :mod:`.portfolio` — the SAT engines (``bmc`` / ``portfolio``):
  :mod:`.cnf` compiles the union transition relation to clauses for
  bounded unrolling on :mod:`.sat` (a from-scratch CDCL solver),
  :mod:`.ic3` proves invariants unboundedly over that encoding, and the
  BDD checker answers whatever they leave inconclusive — one engine
  after the other per formula (``portfolio`` is a shallow BMC pass, then
  the BDD checker; nothing runs concurrently),

mirroring NuSMV's combined BDD/SAT modes that the paper relies on (Sec. 5).
"""

from repro.mc.ctl import (
    AG,
    AF,
    AX,
    AU,
    EG,
    EF,
    EX,
    EU,
    And,
    Formula,
    Implies,
    Not,
    Or,
    Prop,
    FALSE,
    TRUE,
    parse_ctl,
)
from repro.mc.explicit import CheckResult, ExplicitChecker, check
from repro.mc.bdd import BDD, ReferenceKernel
from repro.mc.fastbdd import FastKernel
from repro.mc.kernel import (
    DEFAULT_KERNEL,
    KERNEL_CHOICES,
    BddKernel,
    aggregate_kernel_stats,
    available_kernels,
    make_kernel,
    record_kernel_stats,
    reset_kernel_stats,
    resolve_kernel,
)
from repro.mc.symbolic import SymbolicModelChecker
from repro.mc.sat import ReferenceSolver, Solver, solve
from repro.mc.cnf import BmcUnroller, CnfUnionSystem, invariant_shape
from repro.mc.ic3 import IC3Prover, Verdict
from repro.mc.portfolio import PortfolioChecker

__all__ = [
    "AG",
    "AF",
    "AX",
    "AU",
    "EG",
    "EF",
    "EX",
    "EU",
    "And",
    "Formula",
    "Implies",
    "Not",
    "Or",
    "Prop",
    "FALSE",
    "TRUE",
    "parse_ctl",
    "CheckResult",
    "ExplicitChecker",
    "check",
    "BDD",
    "ReferenceKernel",
    "FastKernel",
    "BddKernel",
    "DEFAULT_KERNEL",
    "KERNEL_CHOICES",
    "available_kernels",
    "resolve_kernel",
    "make_kernel",
    "record_kernel_stats",
    "aggregate_kernel_stats",
    "reset_kernel_stats",
    "SymbolicModelChecker",
    "Solver",
    "ReferenceSolver",
    "solve",
    "Verdict",
    "BmcUnroller",
    "CnfUnionSystem",
    "invariant_shape",
    "IC3Prover",
    "PortfolioChecker",
]

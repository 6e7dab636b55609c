"""Model-checking substrate — the reproduction's NuSMV replacement.

The two engines the pipeline's backends run:

* :mod:`.explicit` — explicit-state CTL labelling with counterexamples
  over a :class:`repro.model.kripke.KripkeStructure` (``explicit``);
* :mod:`.symbolic` — BDD-based symbolic CTL over a compiled symbolic
  union model that never enumerates the product
  (:class:`~repro.mc.symbolic.SymbolicModelChecker`, ``symbolic``), on
  the BDD kernels of :mod:`.kernel` (``reference``, :mod:`.bdd`, and
  ``fast``, :mod:`.fastbdd`),

mirroring the BDD-based NuSMV checking that the paper relies on (Sec. 5).
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
]

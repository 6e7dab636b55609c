"""Soteria: automated IoT safety and security analysis — full reproduction.

Reproduction of Celik, McDaniel, Tan, *"Soteria: Automated IoT Safety and
Security Analysis"* (USENIX ATC 2018).  The pipeline (paper Fig. 3):

1. **IR extraction** — parse SmartThings Groovy, recover permissions,
   events/actions, and per-entry-point call graphs (:mod:`repro.lang`,
   :mod:`repro.ir`);
2. **State-model extraction** — property abstraction + path-sensitive
   symbolic execution produce a (Q, Sigma, delta) model
   (:mod:`repro.analysis`, :mod:`repro.model`);
3. **Property identification** — general properties S.1-S.5 and
   app-specific P.1-P.30 (:mod:`repro.properties`);
4. **Model checking** — explicit and BDD-symbolic engines over the
   Kripke structure (:mod:`repro.mc`); multi-app unions check
   through a backend of choice (``explicit`` | ``symbolic`` | ``auto``),
   where the symbolic backend compiles app rules straight to BDDs over
   shared attribute variables and never enumerates the product
   (:mod:`repro.model.encoder`).

Quickstart::

    from repro import analyze_app
    analysis = analyze_app(open("app.groovy").read())
    for violation in analysis.violations:
        print(violation.short())
"""

from repro.soteria import (
    AppAnalysis,
    EnvironmentAnalysis,
    analyze_app,
    analyze_environment,
)
from repro.platform.smartapp import SmartApp
from repro.properties.catalog import Violation

__version__ = "1.0.0"

__all__ = [
    "AppAnalysis",
    "EnvironmentAnalysis",
    "analyze_app",
    "analyze_environment",
    "SmartApp",
    "Violation",
    "__version__",
]

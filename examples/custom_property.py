#!/usr/bin/env python3
"""Authoring and checking a custom CTL property.

Soteria's catalog (P.1-P.30) is a starting point; this example writes a
household-specific property directly in CTL and verifies it with the
engines behind the pipeline's backends — explicit CTL over the app's
Kripke structure and BDD-symbolic CTL over the encoded state model, the
reproduction's NuSMV replacement.

Property: "whenever the garage door is open, it must be possible to reach
a state where it is closed again" (no lock-out):

    AG (attr:garage_door.door=open -> EF attr:garage_door.door=closed)

Run:  python examples/custom_property.py
"""

from repro import analyze_app
from repro.mc import parse_ctl
from repro.mc.explicit import ExplicitChecker
from repro.mc.symbolic import SymbolicModelChecker
from repro.model import SymbolicUnionModel, build_union_skeleton
from repro.reporting.smv import to_smv

GARAGE_APP = """
definition(name: "Garage Manager", description: "Presence-driven garage door.")
preferences {
    section("Devices") {
        input "presence_sensor", "capability.presenceSensor", required: true
        input "garage_door", "capability.garageDoorControl", required: true
    }
}
def installed() {
    subscribe(presence_sensor, "presence", presenceHandler)
}
def presenceHandler(evt) {
    if (evt.value == "present") {
        garage_door.open()
    }
    if (evt.value == "not present") {
        garage_door.close()
    }
}
"""


def main() -> None:
    analysis = analyze_app(GARAGE_APP)
    kripke = analysis.kripke
    print(f"model: {analysis.model.size()} states, "
          f"{len(analysis.model.transitions)} transitions")

    no_lockout = parse_ctl(
        "AG (attr:garage_door.door=open -> EF attr:garage_door.door=closed)"
    )
    print(f"\nproperty: {no_lockout}")

    explicit = ExplicitChecker(kripke).check(no_lockout)
    print(f"explicit CTL:      {'HOLDS' if explicit.holds else 'FAILS'}")

    # The symbolic engine runs on the app's rules, not its states: the
    # one-app union skeleton, with the single-app fire-on-change
    # semantics (an app never stimulates itself).
    skeleton = build_union_skeleton([analysis.model])
    symbolic = SymbolicModelChecker(
        SymbolicUnionModel(skeleton, written=frozenset())
    ).check(no_lockout)
    print(f"BDD-symbolic CTL:  {'HOLDS' if symbolic.holds else 'FAILS'}")

    print("\nNuSMV export of the model (first lines):")
    for line in to_smv(analysis.model, specs=[no_lockout]).splitlines()[:12]:
        print(f"  {line}")


if __name__ == "__main__":
    main()

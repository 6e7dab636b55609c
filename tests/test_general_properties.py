"""General properties S.1-S.5 on transition rules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.analysis.symexec import SymbolicExecutor
from repro.ir import build_ir
from repro.platform import SmartApp
from repro.properties.general import (
    check_general_properties,
    check_s1,
    check_s2,
    check_s3,
    check_s4,
    check_s5,
    effective_event,
)


def origins_of(source, name="A"):
    ir = build_ir(SmartApp.from_source(source, name=name))
    rules = SymbolicExecutor(ir).run_all()
    return ir, [(name, s) for group in rules.values() for s in group]


HEADER = '''
definition(name: "X")
preferences {
    section("S") {
        input "the_switch", "capability.switch", required: true
        input "the_motion", "capability.motionSensor", required: true
        input "the_contact", "capability.contactSensor", required: true
    }
}
'''


class TestS1:
    def test_conflicting_values_one_path(self):
        _ir, rules = origins_of(HEADER + '''
def installed(){ subscribe(app, appTouch, h) }
def h(evt){ the_switch.on()\n the_switch.off() }
''')
        assert [v.property_id for v in check_s1(rules)] == ["S.1"]

    def test_branches_are_separate_paths(self):
        _ir, rules = origins_of(HEADER + '''
def installed(){ subscribe(the_motion, "motion", h) }
def h(evt){
    if (evt.value == "active") { the_switch.on() } else { the_switch.off() }
}
''')
        assert not check_s1(rules)

    def test_cross_app_same_event(self):
        _ir1, rules1 = origins_of(HEADER + '''
def installed(){ subscribe(the_contact, "contact.open", h) }
def h(evt){ the_switch.on() }
''', "A")
        _ir2, rules2 = origins_of(HEADER + '''
def installed(){ subscribe(the_contact, "contact.open", h) }
def h(evt){ the_switch.off() }
''', "B")
        violations = check_s1(rules1 + rules2)
        assert violations
        assert violations[0].apps == ("A", "B")


class TestS2:
    def test_repeated_write_one_path(self):
        _ir, rules = origins_of(HEADER + '''
def installed(){ subscribe(the_contact, "contact.closed", h) }
def h(evt){ the_switch.off()\n the_switch.off() }
''')
        assert [v.property_id for v in check_s2(rules)] == ["S.2"]

    def test_single_write_clean(self):
        _ir, rules = origins_of(HEADER + '''
def installed(){ subscribe(the_contact, "contact.closed", h) }
def h(evt){ the_switch.off() }
''')
        assert not check_s2(rules)

    def test_cross_app_duplicate_command(self):
        source = HEADER + '''
def installed(){ subscribe(the_contact, "contact.closed", h) }
def h(evt){ the_switch.off() }
'''
        _i1, rules1 = origins_of(source, "A")
        _i2, rules2 = origins_of(source, "B")
        violations = check_s2(rules1 + rules2)
        assert violations and violations[0].apps == ("A", "B")


class TestS3:
    def test_complement_events_same_value(self):
        _ir, rules = origins_of(HEADER + '''
def installed(){
    subscribe(the_contact, "contact.open", h1)
    subscribe(the_contact, "contact.closed", h2)
}
def h1(evt){ the_switch.on() }
def h2(evt){ the_switch.on() }
''')
        assert [v.property_id for v in check_s3(rules)] == ["S.3"]

    def test_complement_events_different_values_clean(self):
        _ir, rules = origins_of(HEADER + '''
def installed(){
    subscribe(the_contact, "contact.open", h1)
    subscribe(the_contact, "contact.closed", h2)
}
def h1(evt){ the_switch.on() }
def h2(evt){ the_switch.off() }
''')
        assert not check_s3(rules)

    def test_effective_event_refined_from_guard(self):
        _ir, rules = origins_of(HEADER + '''
def installed(){ subscribe(the_motion, "motion", h) }
def h(evt){ if (evt.value == "active") { the_switch.on() } }
''')
        refined = [effective_event(s) for _a, s in rules if s.actions]
        assert refined[0].value == "active"


class TestS4:
    def test_non_complement_race(self):
        _ir, rules = origins_of(HEADER + '''
def installed(){
    subscribe(the_contact, "contact.open", h1)
    subscribe(the_motion, "motion.active", h2)
}
def h1(evt){ the_switch.off() }
def h2(evt){ the_switch.on() }
''')
        assert [v.property_id for v in check_s4(rules)] == ["S.4"]

    def test_same_attribute_events_cannot_race(self):
        _ir, rules = origins_of(HEADER + '''
def installed(){
    subscribe(the_motion, "motion.active", h1)
    subscribe(the_motion, "motion.inactive", h2)
}
def h1(evt){ the_switch.on() }
def h2(evt){ the_switch.off() }
''')
        assert not check_s4(rules)

    def test_guarded_disjoint_paths_cannot_race(self):
        _ir, rules = origins_of(HEADER + '''
preferences { section("T") { input "t", "number" } }
def installed(){
    subscribe(the_contact, "contact.open", h1)
    subscribe(the_motion, "motion.active", h2)
}
def h1(evt){ if (state.armed == true) { the_switch.off() } }
def h2(evt){ if (state.armed != true) { the_switch.on() } }
''')
        # state.armed == true and != true cannot hold together.
        assert not check_s4(rules)


class TestS5:
    def test_unsubscribed_value_dispatch(self):
        ir, _rules = origins_of(HEADER + '''
def installed(){ subscribe(the_motion, "motion", onMotion) }
def onMotion(evt){ }
def modeHandler(evt){
    if (evt.value == "away") { the_switch.off() }
}
''')
        violations = check_s5(ir)
        assert [v.property_id for v in violations] == ["S.5"]
        assert "modeHandler" in violations[0].description

    def test_covered_values_clean(self):
        ir, _rules = origins_of(HEADER + '''
def installed(){ subscribe(the_motion, "motion", onMotion) }
def onMotion(evt){
    if (evt.value == "active") { the_switch.on() }
    if (evt.value == "inactive") { the_switch.off() }
}
''')
        assert not check_s5(ir)

    def test_mode_subscription_covers_mode_names(self):
        ir, _rules = origins_of(HEADER + '''
def installed(){ subscribe(location, "mode", onMode) }
def onMode(evt){ if (evt.value == "away") { the_switch.off() } }
''')
        assert not check_s5(ir)


class TestReflectionFiltering:
    def test_reflective_writes_excluded_from_s_checks(self):
        _ir, rules = origins_of(HEADER + '''
def installed(){ subscribe(app, appTouch, h) }
def h(evt){ "$state.m"() }
def up(){ the_switch.on() }
def down(){ the_switch.off() }
''')
        all_violations = check_s1(rules) + check_s2(rules) + check_s4(rules)
        assert not all_violations


def test_check_general_properties_aggregates():
    ir, rules = origins_of(HEADER + '''
def installed(){ subscribe(app, appTouch, h) }
def h(evt){ the_switch.on()\n the_switch.off()\n the_switch.on() }
''')
    ids = {v.property_id for v in check_general_properties(rules, ir=ir)}
    assert "S.1" in ids and "S.2" in ids


#: Prints the general-property records of three apps: A and B both set
#: two values on ``contact.open`` (two S.2 cross-handler records), C
#: sets the same two values on the complementary ``contact.closed`` (two
#: S.3 records against each of A and B).
RECORD_ORDER_SCRIPT = r"""
from repro.analysis.symexec import SymbolicExecutor
from repro.ir import build_ir
from repro.platform import SmartApp
from repro.properties.general import check_general_properties

SOURCE = '''
definition(name: "X")
preferences { section("S") {
    input "the_switch", "capability.switch", required: true
    input "the_lock", "capability.lock", required: true
    input "the_contact", "capability.contactSensor", required: true
} }
def installed(){ subscribe(the_contact, "contact.%s", h) }
def h(evt){
    the_switch.on()
    the_lock.lock()
}
'''
rules = []
for name, value in (("A", "open"), ("B", "open"), ("C", "closed")):
    ir = build_ir(SmartApp.from_source(SOURCE % value, name=name))
    groups = SymbolicExecutor(ir).run_all().values()
    rules += [(name, summary) for group in groups for summary in group]
for violation in check_general_properties(rules):
    print(violation.property_id, violation.apps, violation.description)
"""


class TestRecordOrder:
    def test_record_order_does_not_depend_on_the_hash_seed(self):
        """Records over a set of shared writes come out in one order in
        every process, whatever the string hash seed."""
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = set()
        for seed in range(8):
            run = subprocess.run(
                [sys.executable, "-c", RECORD_ORDER_SCRIPT],
                env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path},
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(run.stdout)
        assert len(outputs) == 1, sorted(outputs)
        ids = [line.split()[0] for line in outputs.pop().splitlines()]
        assert ids.count("S.2") == 2
        assert ids.count("S.3") == 4

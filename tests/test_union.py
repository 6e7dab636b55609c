"""Algorithm 2: multi-app union models."""

import pytest

from repro.ir import build_ir
from repro.model import build_union_model, estimate_union_states, extract_model
from repro.platform import SmartApp


def model_of(source):
    return extract_model(build_ir(SmartApp.from_source(source)))


APP_A = '''
definition(name: "A")
preferences {
    section("S") {
        input "the_switch", "capability.switch", required: true
        input "the_contact", "capability.contactSensor", required: true
    }
}
def installed(){ subscribe(the_contact, "contact.open", h) }
def h(evt){ the_switch.on() }
'''

APP_B = '''
definition(name: "B")
preferences {
    section("S") {
        input "the_switch", "capability.switch", required: true
        input "the_motion", "capability.motionSensor", required: true
    }
}
def installed(){ subscribe(the_motion, "motion.active", h) }
def h(evt){ the_switch.off() }
'''


class TestUnionConstruction:
    def test_shared_device_deduplicated(self):
        union = build_union_model([model_of(APP_A), model_of(APP_B)])
        switch_attrs = [
            a for a in union.attributes if a.qualified == "the_switch.switch"
        ]
        assert len(switch_attrs) == 1

    def test_state_count_is_product_of_dedup_attrs(self):
        union = build_union_model([model_of(APP_A), model_of(APP_B)])
        # switch x contact x motion = 2 * 2 * 2
        assert union.size() == 8

    def test_transitions_labelled_with_app(self):
        union = build_union_model([model_of(APP_A), model_of(APP_B)])
        apps = {t.app for t in union.transitions}
        assert apps == {"A", "B"}

    def test_rule_origins_kept(self):
        union = build_union_model([model_of(APP_A), model_of(APP_B)])
        assert {app for app, _ in union.rule_origins} == {"A", "B"}

    def test_raw_count_multiplies(self):
        a, b = model_of(APP_A), model_of(APP_B)
        union = build_union_model([a, b])
        assert union.raw_state_count == a.raw_state_count * b.raw_state_count

    def test_distinct_handles_stay_separate(self):
        app_c = APP_B.replace("the_switch", "other_switch")
        union = build_union_model([model_of(APP_A), model_of(app_c)])
        names = {a.qualified for a in union.attributes}
        assert {"the_switch.switch", "other_switch.switch"} <= names

    def test_explicit_shared_device_mapping(self):
        app_c = APP_B.replace("the_switch", "other_switch")
        union = build_union_model(
            [model_of(APP_A), model_of(app_c)],
            shared_devices={("B", "other_switch"): "the_switch"},
        )
        names = {a.qualified for a in union.attributes}
        assert "other_switch.switch" not in names

    def test_union_state_count_predicts_built_size(self):
        models = [model_of(APP_A), model_of(APP_B)]
        assert estimate_union_states(models) == build_union_model(models).size()

    def test_union_state_count_respects_shared_device_mapping(self):
        app_c = APP_B.replace("the_switch", "other_switch")
        models = [model_of(APP_A), model_of(app_c)]
        mapping = {("B", "other_switch"): "the_switch"}
        assert estimate_union_states(models, mapping) == 8
        assert estimate_union_states(models) == 16


HEATER = '''
definition(name: "Heater")
preferences {
    section("S") {
        input "the_contact", "capability.contactSensor", required: true
        input "ther", "capability.thermostat", required: true
    }
}
def installed(){ subscribe(the_contact, "contact.open", h) }
def h(evt){ ther.setHeatingSetpoint(68) }
'''

WARMER = '''
definition(name: "Warmer")
preferences {
    section("S") {
        input "the_motion", "capability.motionSensor", required: true
        input "ther", "capability.thermostat", required: true
    }
}
def installed(){ subscribe(the_motion, "motion.active", h) }
def h(evt){ ther.setHeatingSetpoint(75) }
'''


class TestSharedNumericDevice:
    """Two apps sharing a numeric-attribute device: both abstract domains
    must survive the union, or the second app's regions are undecidable."""

    def test_both_apps_regions_in_union_domain(self):
        union = build_union_model([model_of(HEATER), model_of(WARMER)])
        domain = union.numeric_domains[("ther", "heatingSetpoint")]
        kinds = {r.label: r.kind for r in domain.regions}
        assert kinds["heatingSetpoint=68"] == "point"
        assert kinds["heatingSetpoint=75"] == "point"

    def test_merged_domain_covers_symbolic_domain(self):
        union = build_union_model([model_of(HEATER), model_of(WARMER)])
        attr = next(
            a for a in union.attributes if a.qualified == "ther.heatingSetpoint"
        )
        domain = union.numeric_domains[("ther", "heatingSetpoint")]
        # Every symbolic label must resolve to an abstract region.
        assert set(attr.domain) == set(domain.labels())

    def test_second_apps_numeric_write_lands_precisely(self):
        union = build_union_model([model_of(HEATER), model_of(WARMER)])
        warmer_targets = {
            union.value_in(t.target, "ther", "heatingSetpoint")
            for t in union.transitions
            if t.app == "Warmer"
        }
        assert warmer_targets == {"heatingSetpoint=75"}

    def test_numeric_only_in_second_model_kept(self):
        union = build_union_model([model_of(WARMER), model_of(HEATER)])
        domain = union.numeric_domains[("ther", "heatingSetpoint")]
        assert "heatingSetpoint=68" in domain.labels()
        assert "heatingSetpoint=75" in domain.labels()

    def test_merged_domain_raw_size_keeps_larger(self):
        a, b = model_of(HEATER), model_of(WARMER)
        union = build_union_model([a, b])
        merged = union.numeric_domains[("ther", "heatingSetpoint")]
        raws = [
            m.numeric_domains[("ther", "heatingSetpoint")].raw_size for m in (a, b)
        ]
        assert merged.raw_size == max(raws)


class TestCascades:
    """App actions re-stimulate co-installed subscribers (the P.3 chain)."""

    SETTER = '''
definition(name: "Setter")
preferences {
    section("S") {
        input "trigger_sensor", "capability.contactSensor", required: true
        input "shared_switch", "capability.switch", required: true
    }
}
def installed(){ subscribe(trigger_sensor, "contact.open", h) }
def h(evt){ shared_switch.on() }
'''

    REACTOR = '''
definition(name: "Reactor")
preferences {
    section("S") {
        input "shared_switch", "capability.switch", required: true
        input "the_lock", "capability.lock", required: true
    }
}
def installed(){ subscribe(shared_switch, "switch.on", h) }
def h(evt){ the_lock.lock() }
'''

    def test_chain_reachable_in_union(self):
        union = build_union_model([model_of(self.SETTER), model_of(self.REACTOR)])
        # From [contact=closed, switch=on(driven), lock=unlocked] the
        # reactor's switch.on rule must fire even though switch is already
        # on (re-stimulation), locking the door.
        on_states = [
            s
            for s in union.states
            if union.value_in(s, "shared_switch", "switch") == "on"
            and union.value_in(s, "the_lock", "lock") == "unlocked"
        ]
        fired = [
            t
            for t in union.transitions
            if t.app == "Reactor" and t.source in on_states
        ]
        assert fired

    def test_no_restimulation_for_environment_only_values(self):
        # Nobody writes contact values: contact.open still requires a change.
        union = build_union_model([model_of(self.SETTER), model_of(self.REACTOR)])
        for t in union.transitions:
            if t.app == "Setter":
                assert union.value_in(t.source, "trigger_sensor", "contact") == "closed"

    def test_single_app_model_has_no_restimulation(self):
        model = model_of(self.REACTOR)
        for t in model.transitions:
            assert model.value_in(t.source, "shared_switch", "switch") == "off"

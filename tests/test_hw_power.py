"""Unit tests for energy accounting and power monitoring."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.power import (
    BUCKETS,
    COMPUTATION,
    DATA_MOVEMENT,
    STORAGE_ACCESS,
    EnergyAccountant,
    EnergyBreakdown,
    PowerMonitor,
)
from repro.sim import Environment


def test_buckets_are_the_papers_three_categories():
    assert set(BUCKETS) == {DATA_MOVEMENT, COMPUTATION, STORAGE_ACCESS}


def test_energy_breakdown_total_and_fraction():
    breakdown = EnergyBreakdown(data_movement=2.0, computation=1.0,
                                storage_access=1.0)
    assert breakdown.total == pytest.approx(4.0)
    assert breakdown.fraction(DATA_MOVEMENT) == pytest.approx(0.5)
    assert breakdown.as_dict()["total"] == pytest.approx(4.0)


def test_energy_breakdown_normalization():
    simd = EnergyBreakdown(data_movement=8.0, computation=1.0,
                           storage_access=1.0)
    flashabacus = EnergyBreakdown(data_movement=0.0, computation=1.0,
                                  storage_access=1.0)
    normalized = flashabacus.normalized_to(simd)
    assert normalized.total == pytest.approx(0.2)


def test_energy_breakdown_normalize_to_zero_rejected():
    with pytest.raises(ValueError):
        EnergyBreakdown().normalized_to(EnergyBreakdown())


def test_accountant_charges_by_component_and_bucket():
    accountant = EnergyAccountant()
    accountant.charge("lwp0", COMPUTATION, 2.0)
    accountant.charge_power("ssd", STORAGE_ACCESS, watts=10.0, duration_s=0.5)
    assert accountant.breakdown.computation == pytest.approx(2.0)
    assert accountant.breakdown.storage_access == pytest.approx(5.0)
    assert accountant.by_component == {"lwp0": 2.0, "ssd": 5.0}
    assert accountant.total_joules == pytest.approx(7.0)


def test_accountant_rejects_bad_charges():
    accountant = EnergyAccountant()
    with pytest.raises(ValueError):
        accountant.charge("x", COMPUTATION, -1.0)
    with pytest.raises(ValueError):
        accountant.charge("x", "unknown_bucket", 1.0)
    with pytest.raises(ValueError):
        accountant.charge_power("x", COMPUTATION, 1.0, -1.0)
    # The negative-joule check comes first, and a rejected charge
    # leaves the ledger untouched.
    with pytest.raises(ValueError, match="non-negative"):
        accountant.charge("x", "unknown_bucket", -1.0)
    assert accountant.breakdown == EnergyBreakdown()
    assert accountant.by_component == {}


class _ReferenceAccountant:
    """The accountant before direct field adds: getattr/setattr by name."""

    def __init__(self):
        self.breakdown = EnergyBreakdown()
        self.by_component = {}

    def charge(self, component, bucket, joules):
        setattr(self.breakdown, bucket,
                getattr(self.breakdown, bucket) + joules)
        self.by_component[component] = (
            self.by_component.get(component, 0.0) + joules)


_charges = st.lists(
    st.tuples(st.sampled_from(["lwp0", "lwp1", "ddr3l", "flash_backbone",
                               "pcie"]),
              st.sampled_from(BUCKETS),
              st.floats(min_value=0.0, max_value=1e3, allow_nan=False)),
    max_size=60)


@settings(max_examples=150, deadline=None)
@given(_charges)
def test_accountant_is_bit_equal_to_named_attribute_adds(charges):
    accountant = EnergyAccountant()
    reference = _ReferenceAccountant()
    for component, bucket, joules in charges:
        accountant.charge(component, bucket, joules)
        reference.charge(component, bucket, joules)
    for bucket in BUCKETS:
        assert getattr(accountant.breakdown, bucket).hex() \
            == getattr(reference.breakdown, bucket).hex()
    assert list(accountant.by_component) == list(reference.by_component)
    assert {k: v.hex() for k, v in accountant.by_component.items()} \
        == {k: v.hex() for k, v in reference.by_component.items()}


def test_power_monitor_tracks_instantaneous_power():
    env = Environment()
    monitor = PowerMonitor(env, baseline_w=1.0)
    assert monitor.current_power() == pytest.approx(1.0)
    monitor.set_draw("lwp0", 0.8)
    monitor.set_draw("flash", 11.0)
    assert monitor.current_power() == pytest.approx(12.8)
    monitor.set_draw("flash", 0.0)
    assert monitor.current_power() == pytest.approx(1.8)


def test_power_monitor_average_power_over_window():
    env = Environment()
    monitor = PowerMonitor(env)

    def scenario(env):
        monitor.set_draw("a", 10.0)
        yield env.timeout(1.0)
        monitor.set_draw("a", 0.0)
        yield env.timeout(1.0)

    env.process(scenario(env))
    env.run()
    assert monitor.average_power(0.0, 2.0) == pytest.approx(5.0)


def test_power_monitor_rejects_negative_draw():
    env = Environment()
    monitor = PowerMonitor(env)
    with pytest.raises(ValueError):
        monitor.set_draw("x", -1.0)

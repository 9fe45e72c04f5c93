"""Serving saturation sweep: goodput vs. offered load under open-loop traffic.

The serving counterpart of the Section 5 figures: open-loop Poisson
traffic from two tenants is swept across offered loads on the SIMD
baseline and two FlashAbacus schedulers, and the sweep asserts the
system-level claim that motivates self-governed multi-kernel scheduling —
the accelerator's p99-SLO knee sits at a strictly higher offered load
than the baseline's, with strictly higher goodput at that load.
"""

from repro.eval import (
    find_knee,
    format_saturation_sweep,
    saturation_sweep,
)
from repro.platform import PlatformConfig
from repro.policy import PolicySpec
from repro.serve import ServingScenario, TenantSpec

from bench_common import BENCH_ORCHESTRATOR, run_once

#: Serving runs use a smaller scale than the batch figures: open-loop
#: sweeps simulate hundreds of requests per point, and the knee locations
#: (the qualitative result) are what matters, not absolute rates.
SERVE_INPUT_SCALE = 0.01
SERVE_SLO_S = 0.25
SERVE_RATES = (20.0, 60.0, 120.0, 240.0)
SERVE_SYSTEMS = ("SIMD", "InterDy", "IntraO3")

SCENARIO = ServingScenario(
    process="poisson", duration_s=1.5, seed=3,
    tenants=(TenantSpec("tenant-a", 1.0, SERVE_SLO_S),
             TenantSpec("tenant-b", 1.0, SERVE_SLO_S)),
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 24}))


def test_serving_saturation_sweep(benchmark):
    """Offered load vs. goodput/p99 for SIMD, InterDy and IntraO3."""
    curves = run_once(
        benchmark, saturation_sweep, SERVE_RATES, SERVE_SYSTEMS,
        scenario=SCENARIO,
        config=PlatformConfig(input_scale=SERVE_INPUT_SCALE),
        orchestrator=BENCH_ORCHESTRATOR)
    print("\n" + format_saturation_sweep(curves, slo_s=SERVE_SLO_S))
    # Every system serves the lightest load within the SLO.
    for system in SERVE_SYSTEMS:
        first = curves[system][0]
        assert first.rejected == 0
        assert first.p99_s is not None and first.p99_s <= SERVE_SLO_S
    # The accelerator's SLO knee sits at a strictly higher offered load
    # than the baseline's...
    simd_knee = find_knee(curves["SIMD"], SERVE_SLO_S)
    for system in ("InterDy", "IntraO3"):
        accel_knee = find_knee(curves[system], SERVE_SLO_S)
        assert accel_knee is not None
        assert simd_knee is None or accel_knee > simd_knee
        # ... and at the load just before its knee the accelerator
        # sustains strictly higher goodput than the baseline.
        accel_at_knee = next(p for p in curves[system]
                             if p.offered_rps == accel_knee)
        simd_at_knee = next(p for p in curves["SIMD"]
                            if p.offered_rps == accel_knee)
        assert accel_at_knee.goodput_rps > simd_at_knee.goodput_rps
    # Goodput scales with offered load up to the knee for the accelerator;
    # past its knee the baseline's goodput collapses instead.
    interdy = curves["InterDy"]
    assert interdy[-1].goodput_rps > interdy[0].goodput_rps * 4
    simd = curves["SIMD"]
    assert simd[-1].goodput_rps < simd[-1].offered_rps * 0.5

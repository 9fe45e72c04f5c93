"""Plain-text table rendering for experiment results.

Every benchmark prints the same kind of rows the paper's tables and figures
report, rendered by these helpers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 float_format: str = "{:.2f}") -> str:
    """Render ``rows`` as a fixed-width text table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(str(h)) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    header_line = "  ".join(str(h).ljust(widths[i])
                            for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_comparison(title: str, metric_by_system: Dict[str, Dict[str, float]],
                      metric_name: str = "value",
                      float_format: str = "{:.2f}") -> str:
    """Render {workload: {system: value}} as a table with systems as columns."""
    systems: List[str] = []
    for per_system in metric_by_system.values():
        for system in per_system:
            if system not in systems:
                systems.append(system)
    headers = ["workload"] + systems
    rows = []
    for workload, per_system in metric_by_system.items():
        rows.append([workload] + [per_system.get(s, float("nan"))
                                  for s in systems])
    return f"{title} ({metric_name})\n" + format_table(headers, rows,
                                                       float_format)


def format_saturation_sweep(curves: Dict[str, Sequence],
                            slo_s: float = None) -> str:
    """Render {system: [SaturationPoint]} as one offered-load table.

    One row per (system, offered rate): goodput, admitted/rejected counts
    and the latency tail.  With ``slo_s`` the per-system SLO knee (highest
    load with p99 within the SLO) is appended.
    """
    headers = ["system", "offered_rps", "goodput_rps", "admitted",
               "rejected", "slo_viol", "p50_ms", "p95_ms", "p99_ms"]
    rows = []
    for system, points in curves.items():
        for p in points:
            rows.append([
                system, p.offered_rps, p.goodput_rps, p.admitted,
                p.rejected, p.slo_violations,
                -1.0 if p.p50_s is None else p.p50_s * 1e3,
                -1.0 if p.p95_s is None else p.p95_s * 1e3,
                -1.0 if p.p99_s is None else p.p99_s * 1e3,
            ])
    text = "Saturation sweep (goodput vs. offered load)\n" \
        + format_table(headers, rows)
    if slo_s is not None:
        from .serving import find_knee
        knee_lines = []
        for system, points in curves.items():
            knee = find_knee(points, slo_s)
            knee_lines.append(
                f"  {system}: "
                + (f"{knee:g} rps" if knee is not None
                   else f"below sweep range (p99 > {slo_s * 1e3:g} ms "
                        f"everywhere)"))
        text += (f"\nSLO knee (highest load with p99 <= "
                 f"{slo_s * 1e3:g} ms):\n" + "\n".join(knee_lines))
    return text


def format_scaling_sweep(points: Sequence, slo_s: float = None) -> str:
    """Render a cluster scaling sweep as one device-count table.

    One row per fleet size: goodput, the speedup over the smallest fleet,
    admitted/rejected counts, the latency tail, summed energy, and the
    number of failure reroutes.  With ``slo_s`` a per-row SLO verdict
    column is added (whether fleet p99 is inside the SLO).
    """
    from .cluster import scaling_efficiency
    ordered = sorted(points, key=lambda p: p.device_count)
    factors = scaling_efficiency(ordered)
    headers = ["devices", "offered_rps", "goodput_rps", "speedup",
               "admitted", "rejected", "slo_viol", "p50_ms", "p99_ms",
               "energy_j", "reroutes"]
    if slo_s is not None:
        headers.append("p99<=SLO")
    rows = []
    for point, factor in zip(ordered, factors):
        row = [
            point.device_count, point.offered_rps, point.goodput_rps,
            # A zero-goodput reference point makes every speedup factor
            # the `inf` sentinel — meaningless as a ratio, so the table
            # says so instead of printing `inf`.
            "n/a" if factor == float("inf") else factor,
            point.admitted, point.rejected, point.slo_violations,
            -1.0 if point.p50_s is None else point.p50_s * 1e3,
            -1.0 if point.p99_s is None else point.p99_s * 1e3,
            point.energy_j, point.reroutes,
        ]
        if slo_s is not None:
            row.append("yes" if point.p99_s is not None
                       and point.p99_s <= slo_s else "no")
        rows.append(row)
    return "Cluster scaling sweep (goodput vs. device count)\n" \
        + format_table(headers, rows)


def format_elastic(comparisons: Sequence) -> str:
    """Render elastic-vs-static fleet comparisons as one table.

    Two rows per scenario (the autoscaled fleet, then the static fleet
    pinned at the same maximum): provisioned device-seconds, fleet-size
    range, scale decisions, goodput, the latency tail, SLO compliance and
    dropped admitted requests (always 0 — drain-safe scale-down is an
    invariant, the column is the receipt).  A per-scenario savings line
    follows the table.
    """
    headers = ["scenario", "fleet", "device_s", "devices", "scales",
               "goodput_rps", "p99_ms", "slo_ok_pct", "dropped"]
    rows = []
    for comparison in comparisons:
        for outcome in (comparison.elastic, comparison.static):
            size = (str(outcome.peak_devices)
                    if outcome.low_devices == outcome.peak_devices
                    else f"{outcome.low_devices}-{outcome.peak_devices}")
            rows.append([
                comparison.scenario, outcome.mode, outcome.device_seconds,
                size, outcome.scale_events, outcome.goodput_rps,
                -1.0 if outcome.p99_s is None else outcome.p99_s * 1e3,
                100.0 * outcome.slo_compliance, outcome.dropped,
            ])
    text = ("Elastic fleet vs. static max-provisioned fleet\n"
            + format_table(headers, rows))
    for comparison in comparisons:
        text += (f"\n{comparison.scenario}: elastic fleet saved "
                 f"{comparison.device_seconds_saved_pct:.1f}% "
                 f"device-seconds at "
                 f"{comparison.compliance_gap * 100:+.2f} pp SLO "
                 f"compliance vs. static")
    return text


def format_policy_grid(points: Sequence, slo_s: float = None) -> str:
    """Render a cross-layer policy grid as one table.

    One row per (scheduler, admission, dispatch, placement) combination:
    goodput, admitted/rejected counts, the latency tail, and summed
    energy.  With ``slo_s`` a per-row SLO verdict column is added and the
    best SLO-compliant combination is called out underneath (falling back
    to a plain best-goodput line when nothing is compliant).
    """
    from .policy_grid import best_by_goodput
    headers = ["scheduler", "admission", "dispatch", "placement",
               "goodput_rps", "admitted", "rejected", "slo_viol",
               "p50_ms", "p99_ms", "energy_j"]
    if slo_s is not None:
        headers.append("p99<=SLO")
    rows = []
    for p in points:
        row = [
            p.describe("scheduler"), p.describe("admission"),
            p.describe("dispatch"), p.describe("placement"),
            p.goodput_rps, p.admitted, p.rejected, p.slo_violations,
            -1.0 if p.p50_s is None else p.p50_s * 1e3,
            -1.0 if p.p99_s is None else p.p99_s * 1e3,
            p.energy_j,
        ]
        if slo_s is not None:
            row.append("yes" if p.p99_s is not None
                       and p.p99_s <= slo_s else "no")
        rows.append(row)
    text = ("Policy grid (scheduler x admission x dispatch x placement)\n"
            + format_table(headers, rows))
    best = best_by_goodput(points, slo_s=slo_s)
    if best is not None:
        verdict = ("best SLO-compliant combination" if slo_s is not None
                   else "best goodput")
        text += (f"\n{verdict}: {best.label} "
                 f"at {best.goodput_rps:.1f} rps")
    elif points:
        fallback = best_by_goodput(points)
        text += (f"\nno combination meets the SLO; highest goodput: "
                 f"{fallback.label} at {fallback.goodput_rps:.1f} rps")
    return text


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, ignoring non-positive entries."""
    filtered = [v for v in values if v > 0]
    if not filtered:
        return 0.0
    product = 1.0
    for v in filtered:
        product *= v
    return product ** (1.0 / len(filtered))


def improvement_pct(new: float, old: float) -> float:
    """Percentage improvement of ``new`` over ``old`` ((new-old)/old * 100)."""
    if old == 0:
        return float("inf") if new > 0 else 0.0
    return (new - old) / old * 100.0

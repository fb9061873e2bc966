"""Plain-text table rendering for benchmark output."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def fmt(value, precision: int = 3) -> str:
    """Human formatting: None → '-', floats rounded, bools as True/False."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1e5 or (0 < abs(value) < 1e-3):
            return f"{value:.2e}"
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: Optional[str] = None,
) -> str:
    """Monospace table with column auto-sizing."""
    str_rows: List[List[str]] = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_table1(rows) -> str:
    """Render :func:`repro.experiments.table1.run_table1` output."""
    headers = [
        "Workload", "Method", "Iterations", "LSSR", "Metric",
        "ConvDiff", "BeatsBSP", "Speedup", "Interval", "MaxStale", "Note",
    ]
    body = [
        [
            r.workload,
            r.method,
            r.iterations,
            r.lssr,
            r.metric,
            r.conv_diff,
            r.outperforms_bsp,
            r.speedup,
            r.sync_interval,
            r.max_staleness,
            r.note,
        ]
        for r in rows
    ]
    return render_table(headers, body, title="Table I reproduction")


# -- trace dashboard ---------------------------------------------------------

#: Shade ramp for the straggler heatmap (light → dark = fast → slow).
_SHADES = " .:-=+*#%@"


def sparkline(values, width: int = 40) -> str:
    """Downsample ``values`` into a ``width``-column unicode-free sparkline."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if len(vals) > width:
        # Bucket-mean downsample to the target width.
        step = len(vals) / width
        vals = [
            sum(vals[int(i * step): max(int(i * step) + 1, int((i + 1) * step))])
            / max(1, len(vals[int(i * step): max(int(i * step) + 1, int((i + 1) * step))]))
            for i in range(width)
        ]
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return _SHADES[len(_SHADES) // 2] * len(vals)
    return "".join(
        _SHADES[min(len(_SHADES) - 1, int((v - lo) / span * (len(_SHADES) - 1)))]
        for v in vals
    )


def render_run_dashboard(tracer) -> str:
    """Ascii per-run dashboard over a closed (or in-memory) trace.

    Sections: headline ratios (sync ratio, bytes/step), per-collective
    traffic, a step-time sparkline, a straggler heatmap (workers × time
    buckets, darker = relatively slower that bucket), and — when the run
    saw link faults — per-step retry/reroute sparklines plus a link-health
    matrix (ranks × ranks, darker = more faulted steps on that link).
    """
    from repro.obs import views

    events = tracer.events
    lines = [f"== run dashboard: {tracer.name} =="]
    steps = views.events_of_type(events, "step_end")
    if not steps:
        return "\n".join(lines + ["(no step events in trace)"])
    m = views.metrics(events)
    ratio = m.get("steps.synced", 0.0) / len(steps)
    bps = m.get("comm.bytes", 0.0) / len(steps)
    lines.append(
        f"steps: {len(steps)}   sync ratio: {fmt(ratio)}   "
        f"bytes/step: {fmt(bps)}"
    )
    totals = views.collective_totals(events)
    if totals:
        lines.append("")
        lines.append(
            render_table(
                ["collective", "count", "bytes", "sim_seconds"],
                [
                    [op, t["count"], t["bytes"], t["seconds"]]
                    for op, t in sorted(totals.items())
                ],
            )
        )
    shards = views.shard_totals(events)
    if shards:
        lines.append("")
        lines.append(
            render_table(
                ["shard", "rounds", "bytes", "sim_seconds", "degraded"],
                [
                    [f"s{s}", t["rounds"], t["bytes"], t["seconds"], t["degraded"]]
                    for s, t in sorted(shards.items())
                ],
            )
        )
    sim_times = [e.data.get("sim_time", 0.0) for e in steps]
    lines.append("")
    lines.append(f"step sim_time: [{sparkline(sim_times)}]")
    matrix = views.straggler_matrix(events)
    if matrix is not None and len(matrix):
        finite = [v for row in matrix for v in row if v == v]
        lo = min(finite) if finite else 0.0
        hi = max(finite) if finite else 1.0
        span = (hi - lo) or 1.0
        absent = views.absence_matrix(events, buckets=matrix.shape[1])
        lines.append("")
        lines.append(
            "straggler heatmap (rows=workers, cols=time, dark=slow; "
            "x=departed, q=quarantined):"
        )
        for wid, row in enumerate(matrix):
            cells = []
            for b, v in enumerate(row):
                code = 0 if absent is None else int(absent[wid, b])
                if code == 1:
                    cells.append("x")
                elif code == 2:
                    cells.append("q")
                elif v != v:
                    cells.append("?")
                else:
                    cells.append(
                        _SHADES[
                            min(
                                len(_SHADES) - 1,
                                int((v - lo) / span * (len(_SHADES) - 1)),
                            )
                        ]
                    )
            lines.append(f"  w{wid:<3d} |{''.join(cells)}|")
    timeline = views.membership_timeline(events)
    if timeline:
        lines.append("")
        lines.append(
            render_table(
                ["step", "event", "worker", "uid", "world", "coverage"],
                [
                    [
                        t["step"],
                        t["action"],
                        "-" if t["worker"] is None or t["worker"] < 0
                        else f"w{t['worker']}",
                        "-" if t.get("uid") is None else t["uid"],
                        t.get("size_after"),
                        t.get("coverage"),
                    ]
                    for t in timeline
                ],
                title="membership timeline:",
            )
        )
    retries = views.retry_series(events)
    reroutes = views.reroute_series(events)
    if (retries is not None and retries.any()) or (
        reroutes is not None and reroutes.any()
    ):
        lines.append("")
        lines.append(
            f"network retries/step  [{sparkline(retries)}] "
            f"(total {int(retries.sum())})"
        )
        lines.append(
            f"reroutes/step         [{sparkline(reroutes)}] "
            f"(total {int(reroutes.sum())})"
        )
    health = views.link_health_matrix(events)
    if health is not None and health.any():
        hi = health.max() or 1.0
        n = len(health)
        lines.append("")
        lines.append(
            "link health (ranks x ranks, dark = faulted steps; "
            f"rank {n - 1} may be the PS):"
        )
        header = "        " + "".join(f"{r % 10}" for r in range(n))
        lines.append(header)
        for a, row in enumerate(health):
            cells = "".join(
                _SHADES[
                    min(len(_SHADES) - 1, int(v / hi * (len(_SHADES) - 1)))
                ]
                for v in row
            )
            lines.append(f"  r{a:<4d} |{cells}|")
    return "\n".join(lines)

"""Static HTML dashboard for a campaign result store.

``render_dashboard`` turns a :class:`~repro.campaign.store.ResultStore`
into one self-contained HTML file: a KPI row, one metric-grid table per
numeric metric (grid axes as rows/columns, per-cell mean + a sparkline
of the individual runs), regression deltas against an optional baseline
store, and the full run table (including failed / budget-tripped runs).
No JavaScript and no network fetches -- the file is diffable, works
from a CI artifact zip, and renders identically forever.

The output is deliberately timestamp-free: rerunning the same spec with
the same seeds produces a byte-identical dashboard, so the HTML itself
can be committed or diffed like any other result.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.store import ResultStore, RunRecord, iter_numeric_metrics
from repro.telemetry.metrics import direction

_CSS = """
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid-line: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --delta-good: #006300; --delta-bad: #d03b3b;
  --status-good: #0ca30c; --status-warning: #fab219;
  --status-serious: #ec835a; --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
    --grid-line: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
    --delta-good: #0ca30c; --delta-bad: #e66767;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19; --page: #0d0d0d;
  --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
  --grid-line: #2c2c2a; --baseline: #383835;
  --border: rgba(255,255,255,0.10);
  --series-1: #3987e5;
  --delta-good: #0ca30c; --delta-bad: #e66767;
}
.viz-root {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
  margin: 0; padding: 24px; min-height: 100vh;
}
.viz-root h1 { font-size: 22px; margin: 0 0 4px; }
.viz-root h2 { font-size: 15px; margin: 28px 0 8px; }
.viz-root .sub { color: var(--text-secondary); font-size: 13px; margin: 0 0 16px; }
.kpis { display: flex; gap: 12px; flex-wrap: wrap; margin: 16px 0; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 16px; min-width: 110px;
}
.tile .label { font-size: 12px; color: var(--text-secondary); }
.tile .value { font-size: 24px; font-weight: 600; }
table.grid, table.runs {
  border-collapse: collapse; background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 8px; font-size: 13px;
}
table.grid th, table.grid td, table.runs th, table.runs td {
  padding: 6px 12px; border-bottom: 1px solid var(--grid-line);
  text-align: left; vertical-align: middle;
}
table.grid th, table.runs th {
  color: var(--text-secondary); font-weight: 500; font-size: 12px;
}
table.runs td { font-variant-numeric: tabular-nums; }
.cell-val { font-weight: 600; font-variant-numeric: tabular-nums; }
.delta { font-size: 11px; margin-left: 6px; color: var(--text-secondary);
         font-variant-numeric: tabular-nums; }
.delta.good { color: var(--delta-good); }
.delta.bad { color: var(--delta-bad); }
.spark { vertical-align: middle; margin-left: 8px; }
.status { font-size: 12px; white-space: nowrap; }
.status .dot { display: inline-block; width: 8px; height: 8px;
               border-radius: 50%; margin-right: 5px; }
.err { color: var(--text-secondary); font-size: 12px; max-width: 480px;
       overflow-wrap: anywhere; }
.mono { font-family: ui-monospace, monospace; font-size: 12px; }
"""

_STATUS_BADGES = {
    "ok": ("var(--status-good)", "✓ ok"),
    "failed": ("var(--status-critical)", "✕ failed"),
    "budget-exceeded": ("var(--status-serious)", "⏱ budget-exceeded"),
    "timeout": ("var(--status-serious)", "⏱ timeout"),
    "crashed": ("var(--status-critical)", "✕ crashed"),
}


def _fmt(value) -> str:
    """Compact numeric formatting: 1,284 / 12.9K / 4.2M / 0.9983."""
    if value is None:
        return "—"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        if abs(value) >= 1_000_000:
            return f"{value / 1e6:.1f}M"
        if abs(value) >= 10_000:
            return f"{value / 1e3:.1f}K"
        return f"{value:,}"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 10_000:
            return _fmt(round(value))
        return f"{value:.4g}"
    return html.escape(str(value))


def _delta_html(metric: str, old: Optional[float],
                new: Optional[float]) -> str:
    if old is None or new is None or old == new:
        return ""
    if old == 0:
        text = f"{new - old:+.3g} vs baseline"
        return f'<span class="delta">{text}</span>'
    pct = (new - old) / abs(old) * 100.0
    arrow = "▲" if pct > 0 else "▼"
    better = direction(metric)
    cls = "delta"
    if better:
        good = (pct > 0) == (better > 0)
        cls += " good" if good else " bad"
    return (f'<span class="{cls}" title="baseline {_fmt(old)}">'
            f"{arrow} {abs(pct):.1f}%</span>")


def _sparkline(values: Sequence[float], labels: Sequence[str]) -> str:
    """Inline SVG sparkline: 2px line, >=8px end marker, surface ring."""
    points = [v for v in values if isinstance(v, (int, float))]
    if len(points) < 2:
        return ""
    width, height, pad = 110, 26, 5
    lo, hi = min(points), max(points)
    span = (hi - lo) or 1.0
    step = (width - 2 * pad) / (len(points) - 1)
    coords = [
        (pad + i * step,
         height - pad - (v - lo) / span * (height - 2 * pad))
        for i, v in enumerate(points)
    ]
    poly = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
    tooltip = html.escape("; ".join(
        f"{label}: {_fmt(value)}" for label, value in zip(labels, points)
    ))
    end_x, end_y = coords[-1]
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'role="img" aria-label="{tooltip}">'
        f"<title>{tooltip}</title>"
        f'<polyline points="{poly}" fill="none" stroke="var(--series-1)" '
        f'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
        f'<circle cx="{end_x:.1f}" cy="{end_y:.1f}" r="4" '
        f'fill="var(--series-1)" stroke="var(--surface-1)" stroke-width="2"/>'
        f"</svg>"
    )


def _axis_values(records: Sequence[RunRecord], axis: str) -> List:
    seen = []
    for record in records:
        value = record.cell.get(axis)
        if value not in seen:
            seen.append(value)
    try:
        return sorted(seen)
    except TypeError:  # mixed types: keep first-seen order
        return seen


def _pick_axes(records: Sequence[RunRecord]) -> Tuple[Optional[str], Optional[str]]:
    axes = sorted({axis for record in records for axis in record.cell})
    if not axes:
        return None, None
    ranked = sorted(axes, key=lambda a: (-len(_axis_values(records, a)), a))
    row = ranked[0]
    col = ranked[1] if len(ranked) > 1 else None
    return row, col


def _metric_grid(metric: str, records: Sequence[RunRecord],
                 baseline: Optional[Dict[str, RunRecord]]) -> str:
    """One metric's grid table: row axis x column axis, sparkline per cell."""
    ok = [r for r in records if r.ok and metric in r.metrics]
    if not ok:
        return ""
    row_axis, col_axis = _pick_axes(ok)
    row_values = _axis_values(ok, row_axis) if row_axis else [None]
    col_values = _axis_values(ok, col_axis) if col_axis else [None]

    def cell_records(row_value, col_value) -> List[RunRecord]:
        out = [
            r for r in ok
            if (row_axis is None or r.cell.get(row_axis) == row_value)
            and (col_axis is None or r.cell.get(col_axis) == col_value)
        ]
        out.sort(key=lambda r: (json.dumps(r.cell, sort_keys=True), r.seed))
        return out

    head_cells = "".join(
        f"<th>{html.escape(col_axis)}={_fmt(v)}</th>" if col_axis
        else f"<th>{html.escape(metric)}</th>"
        for v in col_values
    )
    corner = html.escape(row_axis) if row_axis else ""
    rows_html = []
    for row_value in row_values:
        cells = []
        for col_value in col_values:
            group = cell_records(row_value, col_value)
            if not group:
                cells.append("<td>—</td>")
                continue
            values = [r.metrics[metric] for r in group]
            numeric = [v for v in values
                       if isinstance(v, (int, float))
                       and not isinstance(v, bool)]
            mean = sum(numeric) / len(numeric) if numeric else None
            base_mean = None
            if baseline:
                base_vals = [
                    baseline[r.run_id].metrics.get(metric)
                    for r in group if r.run_id in baseline
                ]
                base_nums = [v for v in base_vals
                             if isinstance(v, (int, float))
                             and not isinstance(v, bool)]
                if base_nums:
                    base_mean = sum(base_nums) / len(base_nums)
            labels = [f"seed {r.seed}" for r in group]
            cells.append(
                '<td><span class="cell-val">'
                f"{_fmt(mean if mean is not None else values[0])}</span>"
                f"{_delta_html(metric, base_mean, mean)}"
                f"{_sparkline(numeric, labels)}</td>"
            )
        label = (f"<th>{html.escape(row_axis)}={_fmt(row_value)}</th>"
                 if row_axis else "<th></th>")
        rows_html.append(f"<tr>{label}{''.join(cells)}</tr>")
    return (
        f"<h2>{html.escape(metric)}</h2>"
        '<table class="grid"><thead>'
        f"<tr><th>{corner}</th>{head_cells}</tr></thead>"
        f"<tbody>{''.join(rows_html)}</tbody></table>"
    )


def _status_badge(status: str) -> str:
    color, label = _STATUS_BADGES.get(
        status, ("var(--muted)", html.escape(status))
    )
    return (f'<span class="status"><span class="dot" '
            f'style="background:{color}"></span>{label}</span>')


def _runs_table(records: Sequence[RunRecord]) -> str:
    rows = []
    for record in sorted(records, key=lambda r: (r.index, r.seed)):
        cell = ", ".join(
            f"{k}={_fmt(v)}" for k, v in sorted(record.cell.items())
        ) or "—"
        error = (f'<div class="err">{html.escape(record.error)}</div>'
                 if record.error else "")
        rows.append(
            "<tr>"
            f'<td class="mono">{html.escape(record.run_id)}</td>'
            f"<td>{html.escape(cell)}</td>"
            f"<td>{record.seed}</td>"
            f"<td>{_status_badge(record.status)}</td>"
            f"<td>{record.attempts}</td>"
            f"<td>{record.duration_s:.1f}s</td>"
            f"<td>{len(record.artifacts)}{error}</td>"
            "</tr>"
        )
    return (
        "<h2>All runs</h2>"
        '<table class="runs"><thead><tr>'
        "<th>run</th><th>cell</th><th>seed</th><th>status</th>"
        "<th>attempts</th><th>wall</th><th>artifacts</th>"
        f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


def _regressions(records: Sequence[RunRecord],
                 baseline: Dict[str, RunRecord]) -> str:
    rows = []
    for record in sorted(records, key=lambda r: (r.index, r.seed)):
        base = baseline.get(record.run_id)
        if base is None:
            continue
        for metric in sorted(set(record.metrics) | set(base.metrics)):
            old = base.metrics.get(metric)
            new = record.metrics.get(metric)
            if old == new:
                continue
            rows.append(
                "<tr>"
                f'<td class="mono">{html.escape(record.run_id)}</td>'
                f"<td>{html.escape(metric)}</td>"
                f"<td>{_fmt(old)}</td><td>{_fmt(new)}</td>"
                f"<td>{_delta_html(metric, old, new) or '—'}</td>"
                "</tr>"
            )
    if not rows:
        return ("<h2>Baseline comparison</h2>"
                '<p class="sub">No metric changed against the baseline '
                "store.</p>")
    return (
        "<h2>Baseline comparison</h2>"
        f'<p class="sub">{len(rows)} metric value(s) differ from the '
        "baseline store.</p>"
        '<table class="runs"><thead><tr>'
        "<th>run</th><th>metric</th><th>baseline</th><th>current</th>"
        f"<th>delta</th></tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


def render_dashboard(
    store: Union[ResultStore, Sequence[RunRecord]],
    path: Union[str, Path],
    baseline: Optional[ResultStore] = None,
    title: Optional[str] = None,
) -> str:
    """Render the store to a self-contained HTML file; returns the path."""
    records = list(store.records() if isinstance(store, ResultStore)
                   else store)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    campaign = records[0].campaign if records else "(empty campaign)"
    scenario = records[0].scenario if records else ""
    title = title or f"campaign: {campaign}"
    ok = [r for r in records if r.ok]
    cells = {json.dumps(r.cell, sort_keys=True) for r in records}
    base_by_id = baseline.by_run_id() if baseline is not None else None

    tiles = [
        ("runs", f"{len(records):,}"),
        ("ok", f"{len(ok):,}"),
        ("not ok", f"{len(records) - len(ok):,}"),
        ("grid cells", f"{len(cells):,}"),
        ("seeds", f"{len({r.seed for r in records}):,}"),
    ]
    tiles_html = "".join(
        f'<div class="tile"><div class="label">{html.escape(label)}</div>'
        f'<div class="value">{value}</div></div>'
        for label, value in tiles
    )

    sections = [
        _metric_grid(metric, records, base_by_id)
        for metric in iter_numeric_metrics(ok)
    ]
    body = [
        f"<h1>{html.escape(title)}</h1>",
        f'<p class="sub">scenario <span class="mono">'
        f"{html.escape(scenario)}</span> · one record per run; failed "
        "and budget-tripped runs stay in the store.</p>",
        f'<div class="kpis">{tiles_html}</div>',
        *sections,
    ]
    if base_by_id is not None:
        body.append(_regressions(records, base_by_id))
    body.append(_runs_table(records))

    document = (
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_CSS}</style></head>"
        f'<body class="viz-root">{"".join(body)}</body></html>\n'
    )
    path.write_text(document, encoding="utf-8")
    return str(path)

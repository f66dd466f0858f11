"""Text rendering of the regenerated figures and tables.

The paper presents per-benchmark bar charts; the closest faithful text
equivalent is a table with one row per benchmark and an average row, which
is what the benchmark harness prints.
"""

from __future__ import annotations

from repro.experiments.figures import (
    BestIntervalFigure,
    ComparisonFigure,
)


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    """Simple fixed-width ASCII table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    rule = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    lines.append(rule)
    lines.append(
        "|" + "|".join(f" {h:<{w}} " for h, w in zip(headers, widths)) + "|"
    )
    lines.append(rule)
    for row in rows:
        lines.append(
            "|" + "|".join(f" {c:<{w}} " for c, w in zip(row, widths)) + "|"
        )
    lines.append(rule)
    return "\n".join(lines)


def render_comparison(fig: ComparisonFigure) -> str:
    """Render a savings+loss figure pair as one table."""
    headers = [
        "benchmark",
        "drowsy net sav %",
        "gated net sav %",
        "drowsy perf loss %",
        "gated perf loss %",
        "winner",
    ]
    rows = []
    for row in fig.rows:
        winner = (
            "gated-vss"
            if row.gated.net_savings_pct > row.drowsy.net_savings_pct
            else "drowsy"
        )
        rows.append(
            [
                row.benchmark,
                f"{row.drowsy.net_savings_pct:6.1f}",
                f"{row.gated.net_savings_pct:6.1f}",
                f"{row.drowsy.perf_loss_pct:6.2f}",
                f"{row.gated.perf_loss_pct:6.2f}",
                winner,
            ]
        )
    rows.append(
        [
            "AVERAGE",
            f"{fig.avg_drowsy_savings:6.1f}",
            f"{fig.avg_gated_savings:6.1f}",
            f"{fig.avg_drowsy_loss:6.2f}",
            f"{fig.avg_gated_loss:6.2f}",
            f"gated {fig.gated_win_count}/{len(fig.rows)}",
        ]
    )
    return f"{fig.title}\n" + render_table(headers, rows)


def render_best_intervals(fig: BestIntervalFigure) -> str:
    """Render Figures 12/13 plus Table 3 in one table."""
    headers = [
        "benchmark",
        "drowsy best iv",
        "gated best iv",
        "drowsy net sav %",
        "gated net sav %",
        "drowsy loss %",
        "gated loss %",
    ]
    rows = []
    for row in fig.rows:
        bench = row.benchmark
        rows.append(
            [
                bench,
                str(fig.best_drowsy[bench]),
                str(fig.best_gated[bench]),
                f"{row.drowsy.net_savings_pct:6.1f}",
                f"{row.gated.net_savings_pct:6.1f}",
                f"{row.drowsy.perf_loss_pct:6.2f}",
                f"{row.gated.perf_loss_pct:6.2f}",
            ]
        )
    rows.append(
        [
            "AVERAGE",
            "",
            "",
            f"{fig.avg_drowsy_savings:6.1f}",
            f"{fig.avg_gated_savings:6.1f}",
            f"{fig.avg_drowsy_loss:6.2f}",
            f"{fig.avg_gated_loss:6.2f}",
        ]
    )
    return f"{fig.title}\n" + render_table(headers, rows)


def render_settling_table(table: dict[str, dict[str, int]]) -> str:
    """Render Table 1."""
    headers = ["transition", "drowsy", "gated-vss"]
    rows = [
        [name, str(vals["drowsy"]), str(vals["gated-vss"])]
        for name, vals in table.items()
    ]
    return "Table 1: settling times (cycles)\n" + render_table(headers, rows)


def render_machine_table(table: dict[str, str]) -> str:
    """Render Table 2."""
    headers = ["parameter", "value"]
    rows = [[k, v] for k, v in table.items()]
    return "Table 2: simulated machine\n" + render_table(headers, rows)


def render_interval_table(table: dict[str, dict[str, int]]) -> str:
    """Render Table 3."""
    headers = ["benchmark", "drowsy", "gated-vss"]
    rows = [
        [bench, str(vals["drowsy"]), str(vals["gated-vss"])]
        for bench, vals in table.items()
    ]
    return "Table 3: best decay intervals (cycles)\n" + render_table(headers, rows)


def render_bar_chart(
    fig: ComparisonFigure, *, metric: str = "savings", width: int = 44
) -> str:
    """ASCII horizontal bar chart of a comparison figure.

    The closest text rendering of the paper's per-benchmark bar figures:
    two bars per benchmark (drowsy then gated-Vss).

    Args:
        fig: The figure to draw.
        metric: ``"savings"`` (net energy savings, %) or ``"loss"``
            (performance loss, %).
        width: Character width of a full-scale bar.
    """
    if metric == "savings":
        pick = lambda r: (r.drowsy.net_savings_pct, r.gated.net_savings_pct)
        unit = "net energy savings (%)"
    elif metric == "loss":
        pick = lambda r: (r.drowsy.perf_loss_pct, r.gated.perf_loss_pct)
        unit = "performance loss (%)"
    else:
        raise ValueError(f"unknown metric {metric!r}")

    values = [v for row in fig.rows for v in pick(row)]
    hi = max(max(values), 1e-9)
    lo = min(min(values), 0.0)
    span = hi - lo

    def bar(value: float) -> str:
        n = int(round((value - lo) / span * width))
        return "#" * max(n, 0)

    lines = [f"{fig.title} — {unit}", f"scale: {lo:.1f} .. {hi:.1f}"]
    for row in fig.rows:
        d, g = pick(row)
        lines.append(f"{row.benchmark:>8s} drowsy |{bar(d):<{width}}| {d:6.1f}")
        lines.append(f"{'':>8s} gated  |{bar(g):<{width}}| {g:6.1f}")
    lines.append(
        f"{'AVERAGE':>8s} drowsy {fig.avg_drowsy_savings if metric == 'savings' else fig.avg_drowsy_loss:6.1f}"
        f"  gated {fig.avg_gated_savings if metric == 'savings' else fig.avg_gated_loss:6.1f}"
    )
    return "\n".join(lines)

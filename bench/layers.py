"""Per-layer metrics from the spans and cell records of traced passes.

A layer is one of qflat's modules; a span belongs to the layer its name
starts with.  A span's self time is its duration minus the durations of its
direct child spans.  Times are medians over the traced passes; counts come
from every traced pass and must agree between them.
"""

from __future__ import annotations

import statistics

# (name, unit) in the order they are printed; names match BENCHMARK.json.
METRICS = (
    ("spaces.calls", "count"),
    ("spaces.self_s", "s"),
    ("hypergeom.calls", "count"),
    ("hypergeom.self_s", "s"),
    ("quadrature.calls", "count"),
    ("quadrature.nodes_total", "count"),
    ("quadrature.nodes_p50", "count"),
    ("quadrature.nodes_max", "count"),
    ("quadrature.self_s", "s"),
    ("quadrature.cell_ms_p50", "ms"),
    ("quadrature.cell_ms_p99", "ms"),
    ("quadrature.us_per_node", "us"),
    ("quadrature.truncation_t_max", "1"),
    ("quadrature.errors", "count"),
    ("quadrature.cancellation_warnings", "count"),
    ("quadrature.err_bound_misses", "count"),
    ("quadrature.d2_relerr_max", "1"),
    ("asymptotics.calls", "count"),
    ("asymptotics.self_s", "s"),
    ("flatness.cert_s", "s"),
    ("flatness.grid_calls", "count"),
    ("flatness.retries", "count"),
    ("flatness.self_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.render_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead", "ratio"),
)
UNITS = dict(METRICS)
# counts that must repeat exactly between passes and between runs
EXACT = ("spaces.calls", "hypergeom.calls", "quadrature.calls",
         "asymptotics.calls", "flatness.grid_calls",
         "quadrature.nodes_total", "quadrature.cancellation_warnings")
_LAYERS = ("spaces", "hypergeom", "quadrature", "asymptotics")
_CERT = ("flatness.centrality_check", "flatness.rationality_argument")


def self_times(spans: list[list]) -> list[float]:
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def per_pass(spans: list[list], cells: list[dict], pass_info: dict,
             quality: dict) -> dict:
    """Every metric except trace.overhead for the spans of one pass."""
    # indexes stay global (parents point into spans); times are scaled to
    # reference seconds by the pass's calibration factor
    k = pass_info.get("scale", 1.0)
    own = [k * t for t in self_times(spans)]
    mine = [i for i, s in enumerate(spans) if s[4] == pass_info["id"]]
    out: dict = {}
    for layer in _LAYERS:
        idx = [i for i in mine if spans[i][0].startswith(layer + ".")]
        out[f"{layer}.calls"] = len(idx)
        out[f"{layer}.self_s"] = sum((own[i] for i in idx), 0.0)
    quad = [c for c in cells if c["pass"] == pass_info["id"]]
    nodes = sorted(c.get("nodes", 0) for c in quad)
    out["quadrature.nodes_total"] = sum(nodes)
    out["quadrature.nodes_p50"] = statistics.median_low(nodes) if nodes else 0
    out["quadrature.nodes_max"] = nodes[-1] if nodes else 0
    out["quadrature.us_per_node"] = (
        1e6 * out["quadrature.self_s"] / sum(nodes) if sum(nodes) else 0.0)
    out["quadrature.truncation_t_max"] = max(
        (c.get("truncation_t", 0.0) for c in quad), default=0.0)
    out["quadrature.errors"] = sum("error" in c for c in quad)
    out["quadrature.cancellation_warnings"] = pass_info["cancellation_warnings"]
    out["quadrature.err_bound_misses"] = quality["err_bound_misses"]
    out["quadrature.d2_relerr_max"] = quality["d2_relerr_max"]

    def named(*names):
        return [i for i in mine if spans[i][0] in names]

    cert = [i for i in named(*_CERT)
            if spans[i][3] < 0 or spans[spans[i][3]][0] not in _CERT]
    out["flatness.cert_s"] = sum((k * (spans[i][2] - spans[i][1]) for i in cert),
                                 0.0)
    grids = named("flatness.curvature_samples")
    out["flatness.grid_calls"] = len(grids)
    out["flatness.retries"] = len(grids) - len({spans[i][5] for i in grids})
    out["flatness.self_s"] = sum(
        (own[i] for i in mine
         if spans[i][0].startswith("flatness.") and spans[i][0] not in _CERT),
        0.0)
    out["cli.parse_s"] = sum((own[i] for i in named("cli.parse_args")), 0.0)
    out["cli.render_s"] = sum((own[i] for i in named("cli.run")), 0.0)
    out["cli.output_bytes"] = pass_info["bytes"]
    out["_cell_ms"] = [1e3 * k * (spans[c["span"]][2] - spans[c["span"]][1])
                       for c in quad]
    return out


def summarize(rows: list[dict], overhead: float) -> dict:
    """Combine the rows of the traced passes into one value per metric."""
    cell_ms = sorted(ms for r in rows for ms in r["_cell_ms"])
    out = {}
    for name, _ in METRICS:
        if name == "trace.overhead":
            out[name] = overhead
        elif name == "quadrature.cell_ms_p50":
            out[name] = statistics.median(cell_ms) if cell_ms else 0.0
        elif name == "quadrature.cell_ms_p99":
            out[name] = (statistics.quantiles(cell_ms, n=100)[98]
                         if len(cell_ms) >= 2 else 0.0)
        elif isinstance(rows[0][name], float):
            out[name] = statistics.median(r[name] for r in rows)
        else:
            out[name] = rows[0][name]
    return out

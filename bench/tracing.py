"""Spans around calls into qflat's layers, recorded from outside the package.

Each public function is wrapped where its caller looks it up (for example
``qflat.flatness.q_chi_derivs`` and ``qflat.cli.q_chi_derivs`` are wrapped
separately), so nothing under ``src/`` changes.  A span is
``[name, start, end, parent, pass_id]`` with times in seconds from
``time.perf_counter`` and ``parent`` the index of the enclosing span (-1 at
the top).  Spans stay in memory until the run ends.  Calls into the
quadrature layer also leave a cell record with what the call returned.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute, span name); the layer is the span name's prefix.
TARGETS = (
    ("qflat.cli", "parse_args", "cli.parse_args"),
    ("qflat.cli", "run", "cli.run"),
    ("qflat.cli", "parse_space", "spaces.parse_space"),
    ("qflat.cli", "chi_params", "spaces.chi_params"),
    ("qflat.quadrature", "chi_params", "spaces.chi_params"),
    ("qflat.flatness", "chi_params", "spaces.chi_params"),
    ("qflat.cli", "hypergeom_poly", "hypergeom.hypergeom_poly"),
    ("qflat.quadrature", "hypergeom_poly", "hypergeom.hypergeom_poly"),
    ("qflat.cli", "q_chi_derivs", "quadrature.q_chi_derivs"),
    ("qflat.flatness", "q_chi_derivs", "quadrature.q_chi_derivs"),
    ("qflat.cli", "q_chi", "quadrature.q_chi"),
    ("qflat.cli", "watson2", "asymptotics.watson2"),
    ("qflat.cli", "log_qp_large_tau", "asymptotics.log_qp_large_tau"),
    ("qflat.cli", "theorem_scan", "flatness.theorem_scan"),
    ("qflat.flatness", "centrality_check", "flatness.centrality_check"),
    ("qflat.flatness", "rationality_argument", "flatness.rationality_argument"),
    ("qflat.flatness", "curvature_samples", "flatness.curvature_samples"),
)


class Tracer:
    """Installs span-recording wrappers and collects spans and cell records."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.cells: list[dict] = []
        self.pass_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, pass_id: int) -> None:
        self.pass_id = pass_id
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _wrap(self, name: str, fn):
        is_quadrature = name.startswith("quadrature.")
        is_grid = name == "flatness.curvature_samples"

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.pass_id]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = time.perf_counter()
                if is_quadrature:
                    self._record_cell(idx, args, kwargs, None, exc)
                raise
            finally:
                self._stack.pop()
            span[2] = time.perf_counter()
            if is_quadrature:
                self._record_cell(idx, args, kwargs, out, None)
            elif is_grid:
                span.append(args[0].label)
            return out

        return traced

    def _record_cell(self, idx, args, kwargs, out, exc) -> None:
        space, n, tau = args[:3]
        tol = args[3] if len(args) > 3 else kwargs.get("tol")
        rec = {"span": idx, "pass": self.pass_id, "space": space.label,
               "n": int(n), "tau": float(tau), "tol": tol}
        res = out[0] if isinstance(out, tuple) else out
        if exc is not None:
            rec["error"] = f"{type(exc).__name__}: {exc}"
            res = getattr(exc, "best", None)
        if res is not None:
            rec.update(nodes=res.nodes, truncation_t=res.truncation_t,
                       log_q=res.log_value, rel_error=res.rel_error)
        if isinstance(out, tuple):
            rec["d2"] = out[2]
        self.cells.append(rec)

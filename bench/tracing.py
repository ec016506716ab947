"""Spans recorded around calls into lmhd's public functions, and the
per-module metrics derived from them.

The tracer never edits the program: `install` swaps each traced function for
a wrapper in every lmhd module namespace that refers to it (and in function
defaults such as `integrator.run(nonlinear=nonlinear_tendency)`), and
`uninstall` puts the originals back. A span is (name, parent, start, end);
spans are kept in memory and written out when the run ends. Self time is a
span's duration minus the durations of its children, which never overlap
because the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

# n-d transforms only; numpy's own fftn/fft2 do not call these names, so a
# call is counted once
FFT_FUNCTIONS = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")
FFT_MODULES = ("numpy.fft", "scipy.fft")

# (module, function, span name)
LAYER_FUNCTIONS = (
    ("lmhd.spectral", "write_snapshot", "spectral.snapshot_write"),
    ("lmhd.spectral", "read_snapshot", "spectral.snapshot_read"),
    ("lmhd.spectral", "vector_linf_norm", "spectral.linf_norm"),
    ("lmhd.multiplier", "symbol_on_grid", "multiplier.symbol"),
    ("lmhd.multiplier", "osgood_classify", "multiplier.osgood"),
    ("lmhd.multiplier", "partial_integral", "multiplier.partial_integral"),
    ("lmhd.dynamics", "nonlinear_tendency", "dynamics.tendency"),
    ("lmhd.integrator", "run", "integrator.run"),
    ("lmhd.integrator", "step", "integrator.step"),
    ("lmhd.lpaley", "grad_uinf_split", "lpaley.split"),
    ("lmhd.diagnostics", "make_record", "diagnostics.record"),
    ("lmhd.diagnostics", "energy_balance_residual", "diagnostics.check_energy"),
    ("lmhd.diagnostics", "gronwall_bound_check", "diagnostics.check_gronwall"),
    ("lmhd.diagnostics", "gamma_log_derivative_check", "diagnostics.check_gamma"),
    ("lmhd.diagnostics", "write_series", "diagnostics.series_write"),
    ("lmhd.diagnostics", "read_series", "diagnostics.series_read"),
    ("lmhd.diagnostics", "initial_condition", "diagnostics.ic"),
    ("lmhd.diagnostics", "run_experiment", "diagnostics.run_experiment"),
)
# (module, class, method, span name)
LAYER_METHODS = (("lmhd.multiplier", "GFunction", "__call__", "multiplier.g"),)

CHECK_SPANS = ("diagnostics.check_energy", "diagnostics.check_gronwall", "diagnostics.check_gamma")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "spectral.fft_calls_per_step": "count",
    "spectral.fft_ms_per_step": "ms",
    "spectral.snapshot_write_ms": "ms",
    "spectral.snapshot_read_ms": "ms",
    "multiplier.g_evals_per_step": "count",
    "multiplier.symbol_ms_per_step": "ms",
    "multiplier.osgood_ms": "ms",
    "multiplier.partial_integral_calls_per_check": "count",
    "dynamics.tendency_ms": "ms",
    "dynamics.tendency_calls_per_step": "count",
    "integrator.step_ms": "ms",
    "integrator.step_self_ms": "ms",
    "integrator.cfl_ms_per_step": "ms",
    "integrator.steps": "count",
    "lpaley.split_ms": "ms",
    "diagnostics.record_ms": "ms",
    "diagnostics.records": "count",
    "diagnostics.checks_ms": "ms",
    "diagnostics.series_write_ms": "ms",
    "diagnostics.series_read_ms": "ms",
    "diagnostics.ic_ms": "ms",
    "trace.wall_s": "s",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, parent index, start, end]
        self._stack = [-1]
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.spans)
        self.spans.append([nid, self._stack[-1], time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _replace(self, orig, name: str, modules: list) -> None:
        wrapper = self._wrap(name, orig)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._set(module, attr, wrapper)
                fn = inspect.unwrap(value) if inspect.isfunction(value) else None
                if fn is not None and fn.__defaults__ and any(d is orig for d in fn.__defaults__):
                    old = fn.__defaults__
                    fn.__defaults__ = tuple(wrapper if d is orig else d for d in old)
                    self._undo.append(lambda fn=fn, old=old: setattr(fn, "__defaults__", old))

    def install(self) -> None:
        """Wrap every traced function that exists; a missing one is skipped."""
        lmhd_modules = [m for n, m in sorted(sys.modules.items())
                        if m is not None and (n == "lmhd" or n.startswith("lmhd."))]
        for modname in FFT_MODULES:
            module = sys.modules.get(modname)
            for fname in FFT_FUNCTIONS:
                orig = getattr(module, fname, None)
                if orig is not None:
                    self._replace(orig, "spectral.fft", [module] + lmhd_modules)
        for modname, fname, name in LAYER_FUNCTIONS:
            orig = getattr(sys.modules.get(modname), fname, None)
            if orig is not None:
                self._replace(orig, name, lmhd_modules)
        for modname, cname, mname, name in LAYER_METHODS:
            cls = getattr(sys.modules.get(modname), cname, None)
            if cls is not None and mname in cls.__dict__:
                self._set(cls, mname, self._wrap(name, cls.__dict__[mname]))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def _arrays(self):
        spans = np.array(self.spans, dtype=np.float64).reshape(-1, 4)
        nid = spans[:, 0].astype(np.int64)
        parent = spans[:, 1].astype(np.int64)
        dur = spans[:, 3] - spans[:, 2]
        child = np.zeros(len(spans))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return nid, parent, dur, dur - child

    def layer_table(self) -> dict:
        """Calls, total and self milliseconds per span name."""
        nid, _parent, dur, self_time = self._arrays()
        table = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            table[name] = {"calls": int(sel.sum()),
                           "total_ms": 1e3 * float(dur[sel].sum()),
                           "self_ms": 1e3 * float(self_time[sel].sum())}
        return table

    def metrics(self, rounds: int, traced_wall_s: float, slowdown: float) -> dict:
        """Per-module metrics over every recorded round, zero where a layer was not used.

        Milliseconds are divided by `slowdown`, the host's measured speed
        against nominal, like every time the benchmark reports.
        """
        nid, parent, dur, self_time = self._arrays()

        def named(name):
            return nid == self._ids.get(name, -1)

        step = named("integrator.step")
        fft = named("spectral.fft")
        in_step = np.zeros(len(nid), dtype=bool)
        for i in range(len(nid)):
            in_step[i] = step[i] or (parent[i] >= 0 and in_step[parent[i]])
        parent_name = np.where(parent >= 0, nid[np.maximum(parent, 0)], -1)
        outer_fft = fft & (parent_name != self._ids.get("spectral.fft", -1))
        steps = int(step.sum())

        def per(total, count):
            return float(total) / count if count else 0.0

        def mean_ms(name):
            sel = named(name)
            return 1e3 * per(dur[sel].sum(), sel.sum())

        checks = np.isin(nid, [self._ids.get(n, -1) for n in CHECK_SPANS])
        gronwall = int(named("diagnostics.check_gronwall").sum())
        cfl = named("spectral.linf_norm") & (parent_name == self._ids.get("integrator.run", -1))
        values = {
            "spectral.fft_calls_per_step": per((outer_fft & in_step).sum(), steps),
            "spectral.fft_ms_per_step": 1e3 * per(dur[outer_fft & in_step].sum(), steps),
            "spectral.snapshot_write_ms": mean_ms("spectral.snapshot_write"),
            "spectral.snapshot_read_ms": mean_ms("spectral.snapshot_read"),
            "multiplier.g_evals_per_step": per((named("multiplier.g") & in_step).sum(), steps),
            "multiplier.symbol_ms_per_step":
                1e3 * per(dur[named("multiplier.symbol") & in_step].sum(), steps),
            "multiplier.osgood_ms": mean_ms("multiplier.osgood"),
            "multiplier.partial_integral_calls_per_check":
                per(named("multiplier.partial_integral").sum(), gronwall),
            "dynamics.tendency_ms": mean_ms("dynamics.tendency"),
            "dynamics.tendency_calls_per_step": per((named("dynamics.tendency") & in_step).sum(), steps),
            "integrator.step_ms": mean_ms("integrator.step"),
            "integrator.step_self_ms": 1e3 * per(self_time[step].sum(), steps),
            "integrator.cfl_ms_per_step": 1e3 * per(dur[cfl].sum(), steps),
            "integrator.steps": per(steps, rounds),
            "lpaley.split_ms": mean_ms("lpaley.split"),
            "diagnostics.record_ms": mean_ms("diagnostics.record"),
            "diagnostics.records": per(named("diagnostics.record").sum(), rounds),
            # one set of estimate checks per caller (a run_experiment or a `lmhd check`)
            "diagnostics.checks_ms": 1e3 * per(dur[checks].sum(), len(set(parent[checks].tolist()))),
            "diagnostics.series_write_ms": mean_ms("diagnostics.series_write"),
            "diagnostics.series_read_ms": mean_ms("diagnostics.series_read"),
            "diagnostics.ic_ms": mean_ms("diagnostics.ic"),
            "trace.wall_s": traced_wall_s,
        }
        return {name: {"value": values[name] / slowdown if unit == "ms" else values[name], "unit": unit}
                for name, unit in PER_LAYER_UNITS.items()}

    def first_round(self, round_name: str) -> list[list]:
        """Spans of the first recorded round, times in microseconds from its start."""
        rid = self._ids.get(round_name, -1)
        starts = [i for i, s in enumerate(self.spans) if s[0] == rid]
        if not starts:
            return []
        lo = starts[0]
        hi = starts[1] if len(starts) > 1 else len(self.spans)
        t0 = self.spans[lo][2]
        return [[self.names[n], p - lo if p >= lo else -1,
                 round(1e6 * (a - t0), 1), round(1e6 * (b - t0), 1)]
                for n, p, a, b in self.spans[lo:hi]]

"""Per-layer tracing from outside the program.

Wraps the public functions of each ``fracstab`` module where the program
looks them up (module globals and one class attribute), records a span
(name, item, parent, start, end) per call in memory, and counts work at
the same boundaries.  Model rhs calls are two per solver step, too many
to keep as spans: they are counted and timed, and their time is charged
to the enclosing span as child time, so self times exclude them.
"""

from __future__ import annotations

import dataclasses
import os
from collections import defaultdict
from time import perf_counter


@dataclasses.dataclass
class Span:
    name: str
    item: int
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0    # time covered by child spans and rhs calls

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Spans and counters of the traced rounds; ``item`` tags new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts = defaultdict(float)
        self.item = 0

    def reset(self) -> None:
        self.spans, self.stack, self.counts = [], [], defaultdict(float)

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(counts, args, kwargs, result)`` runs after it."""
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = Span(name, self.item, parent, perf_counter())
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self.stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.duration
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result
        return traced

    def wrap_rhs(self, rhs):
        def counted(x):
            t0 = perf_counter()
            try:
                return rhs(x)
            finally:
                dt = perf_counter() - t0
                self.counts["models.rhs_calls"] += 1
                self.counts["models.rhs_s"] += dt
                if self.stack:
                    self.spans[self.stack[-1]].child_s += dt
        return counted

    def summary(self) -> dict:
        """Per-layer metrics of the spans and counts since the last reset."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for span in self.spans:
            total[span.name] += span.duration
            self_time[span.name] += span.self_s
            calls[span.name] += 1
        c = self.counts
        steps = c["solver.node_steps"]
        return {
            "cli.calls": calls["cli.main"],
            "cli.main_s": total["cli.main"],
            "cli.self_s": self_time["cli.main"],
            "config.load_s": total["config.load"],
            "models.equilibria_s": total["models.equilibria"],
            "lyapunov.build_s": total["lyapunov.build"],
            "newton.calls": calls["newton"],
            "newton.f_evals": int(c["newton.f_evals"]),
            "newton.s": total["newton"],
            "models.rhs_calls": int(c["models.rhs_calls"]),
            "models.rhs_s": c["models.rhs_s"],
            "solver.abm_calls": calls["solver.abm"],
            "solver.node_steps": int(steps),
            "solver.abm_s": total["solver.abm"],
            "solver.abm_self_s": self_time["solver.abm"],
            "solver.us_per_step": 1e6 * total["solver.abm"] / steps if steps else 0.0,
            "caputo.l1_calls": calls["caputo.l1"],
            "caputo.l1_nodes": int(c["caputo.l1_nodes"]),
            "caputo.l1_s": total["caputo.l1"],
            "lyapunov.values_along_s": total["lyapunov.values_along"],
            "lyapunov.decrescence_s": total["lyapunov.decrescence"],
            "lyapunov.psi_profile_s": total["lyapunov.psi_profile"],
            "lyapunov.lemma_s": total["lyapunov.lemma"],
            "csvio.write_s": total["csvio.write"],
            "csvio.rows": int(c["csvio.rows"]),
            "csvio.bytes": int(c["csvio.bytes"]),
            "svgplot.plot_s": total["svgplot.plot"],
            "svgplot.points": int(c["svgplot.points"]),
            "svgplot.bytes": int(c["svgplot.bytes"]),
        }

    def dump(self) -> list:
        return [dataclasses.asdict(s) for s in self.spans]


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_abm(counts, args, kwargs, result):
    counts["solver.node_steps"] += _arg(args, kwargs, 3, "grid").n_steps


def _count_l1(counts, args, kwargs, result):
    counts["caputo.l1_nodes"] += _arg(args, kwargs, 0, "signal").grid.n_nodes


def _count_csv(counts, args, kwargs, result):
    counts["csvio.rows"] += len(_arg(args, kwargs, 2, "columns")[0])
    counts["csvio.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_svg(counts, args, kwargs, result):
    panels = _arg(args, kwargs, 2, "panels")
    counts["svgplot.points"] += sum(len(c) for _, curves in panels for c in curves)
    counts["svgplot.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def install(tracer: Tracer) -> list:
    """Patch the program's lookup points; returns the originals for ``uninstall``."""
    import fracstab.cli as cli
    import fracstab.lyapunov as lyapunov
    from fracstab.models import sica, teiv

    def traced_model(build):
        def model(params):
            m = build(params)
            return dataclasses.replace(m, rhs=tracer.wrap_rhs(m.rhs))
        return model

    def traced_newton(newton):
        def run(f, *args, **kwargs):
            def counted(x):
                tracer.counts["newton.f_evals"] += 1
                return f(x)
            return newton(counted, *args, **kwargs)
        return tracer.wrap("newton", run)

    spans = [
        (cli, "main", "cli.main", None),
        (cli, "load_config", "config.load", None),
        (cli, "solve_fde_abm", "solver.abm", _count_abm),
        (cli, "caputo_of_functional", "lyapunov.decrescence", None),
        (cli, "decrescence_certificate", "lyapunov.decrescence", None),
        (cli, "lemma_certificate", "lyapunov.lemma", None),
        (cli, "write_csv", "csvio.write", _count_csv),
        (cli, "plot_panels", "svgplot.plot", _count_svg),
        (sica, "sica_endemic", "models.equilibria", None),
        (sica, "sica_disease_free", "models.equilibria", None),
        (teiv, "teiv_equilibria", "models.equilibria", None),
        (sica, "sica_v0", "lyapunov.build", None),
        (sica, "sica_v1", "lyapunov.build", None),
        (teiv, "teiv_lyapunov", "lyapunov.build", None),
        (lyapunov, "l1_caputo", "caputo.l1", _count_l1),
        (lyapunov, "psi_profile", "lyapunov.psi_profile", None),
        (lyapunov.LyapunovFunctional, "values_along", "lyapunov.values_along", None),
    ]
    originals = []
    for owner, attr, name, count in spans:
        originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
    for owner, attr, wrapper in ((sica, "sica_model", traced_model), (teiv, "teiv_model", traced_model),
                                 (sica, "damped_newton", traced_newton),
                                 (teiv, "damped_newton", traced_newton)):
        originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper(getattr(owner, attr)))
    return originals


def uninstall(originals: list) -> None:
    for owner, attr, fn in reversed(originals):
        setattr(owner, attr, fn)

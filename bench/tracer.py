"""Span tracer that wraps sdaekit's layer entry points from outside the package.

A wrapper replaces a function wherever sdaekit looks it up: every loaded
``sdaekit`` module attribute that is the same object as the original gets the
wrapper, so names imported with ``from .integrator import wiener_increments``
are covered too.  Methods are wrapped on their class.  An entry point that no
longer exists is recorded as missing; its metrics are then reported as absent,
never as zero.

Each span records its call count, inclusive time and self time (inclusive
minus the time of child spans).  A span called while a span of the same name
is already open is not recorded again, so a layer's time is never counted
twice when one entry point calls another.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def sdaekit_modules() -> list:
    """The loaded sdaekit modules.

    A module imported after the wrappers are installed binds the wrapper,
    because its ``from .x import name`` reads the already-replaced attribute.
    """
    return [m for name, m in list(sys.modules.items()) if name == "sdaekit" or name.startswith("sdaekit.")]


def replace_everywhere(modules, owner: str, attr: str, make_wrapper) -> bool:
    """Wrap ``owner.attr`` in every module that binds the same object.

    ``owner`` is a module name (``sdaekit.stats``) or a class path
    (``sdaekit.index1:Index1Reduction``).  Returns False when the entry
    point does not exist.
    """
    mod_name, _, cls_name = owner.partition(":")
    target = sys.modules.get(mod_name)
    if target is not None and cls_name:
        target = getattr(target, cls_name, None)
    orig = getattr(target, attr, None) if target is not None else None
    if orig is None:
        return False
    wrapper = make_wrapper(orig)
    if cls_name:
        setattr(target, attr, wrapper)
        return True
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, name, wrapper)
    return True


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self.missing: set[str] = set()
        self._open: list[list] = []  # [name, child_seconds]
        self._active: set[str] = set()
        self.enabled = True  # off while the benchmark checks results

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span; hooks see the call's arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled or name in self._active:
                return fn(*args, **kwargs)
            state = before(*args, **kwargs) if before is not None else None
            self._active.add(name)
            frame = [name, 0.0]
            self._open.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._open.pop()
                self._active.discard(name)
                rec = self.spans.setdefault(name, SpanStats())
                rec.calls += 1
                rec.total_s += elapsed
                rec.self_s += elapsed - frame[1]
                if self._open:
                    self._open[-1][1] += elapsed
            if after is not None:
                after(state, result, *args, **kwargs)
            return result

        return wrapper

    def span(self, name: str) -> SpanStats | None:
        """Stats of a span, or None when its entry point is missing."""
        if name in self.missing:
            return None
        return self.spans.get(name, SpanStats())


def rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install(tracer: Tracer, marks: dict) -> None:
    """Wrap every layer entry point the benchmark measures.

    ``marks["first_step"]`` is set by the setup probe; Newton calls after it
    are per-step engine calls, before it they solve for the initial value.
    """
    modules = sdaekit_modules()

    def add(span: str, owner: str, attr: str, before=None, after=None) -> None:
        ok = replace_everywhere(
            modules, owner, attr, lambda fn: tracer.wrap(span, fn, before, after)
        )
        if not ok:
            tracer.missing.add(span)

    add("expr.kernel", "sdaekit.expr:CompiledVector", "__call__")
    add("expr.kernel", "sdaekit.expr:CompiledMatrix", "__call__")
    add("expr.compile", "sdaekit.expr", "compile_expr")

    def wrap_sde_method(layer: str):
        def make(sde_method):
            @functools.wraps(sde_method)
            def sde(self):
                out = sde_method(self)
                if out.both is not None:
                    out.both = tracer.wrap(f"{layer}.coeff", out.both)
                if out.guard is not None:
                    out.guard = tracer.wrap(f"{layer}.guard", out.guard)
                return out

            return sde

        return make

    for layer, owner in (
        ("index1", "sdaekit.index1:Index1Reduction"),
        ("unit_prob", "sdaekit.unit_prob:UnitProbReduction"),
    ):
        if not replace_everywhere(modules, owner, "sde", wrap_sde_method(layer)):
            tracer.missing.update({f"{layer}.coeff", f"{layer}.guard"})
    add("index1.build", "sdaekit.index1", "build_index1_sde")
    add("index1.build", "sdaekit.index1", "build_index1_reduction")
    add("unit_prob.build", "sdaekit.unit_prob", "build_unit_prob_sde")

    add(
        "bounded.newton", "sdaekit.bounded", "_newton_batch",
        before=lambda *a, **k: tracer.count(
            "engine.newton_steps", marks.get("first_step") is not None
        ),
    )
    add("bounded.sup_trace", "sdaekit.bounded", "sup_trace")

    def count_normals(seed, steps, d, dt):
        tracer.count("noise.normals", steps * d)

    add("integrator.noise", "sdaekit.integrator", "wiener_increments", before=count_normals)

    def after_driver(_state, ens, *args, **kwargs):
        tracer.count(
            "mem.ensemble_bytes",
            sum(p.states.nbytes + p.dW.nbytes + p.t_grid.nbytes for p in ens.paths),
        )
        tracer.counters["mem.rss_after_integrate_mb"] = rss_mb()

    add("integrator.engine", "sdaekit.stats", "run_ensemble", after=after_driver)
    add("integrator.engine", "sdaekit.bounded", "run_bounded_ensemble", after=after_driver)
    add("integrator.constraint_process", "sdaekit.integrator", "constraint_process")

    def after_stats(*_, **__):
        tracer.counters["mem.rss_after_stats_mb"] = rss_mb()

    add("stats.violation_stats", "sdaekit.stats", "violation_stats", after=after_stats)

    def csv_bytes(counter: str):
        def before(*args, **kwargs):
            fh = args[-1]
            return fh, fh.tell()

        def after(state, _result, *args, **kwargs):
            fh, start = state
            tracer.count(counter, fh.tell() - start)

        return before, after

    add("integrator.path_csv", "sdaekit.integrator", "write_path_csv", *csv_bytes("path_csv.bytes"))
    add("stats.report_csv", "sdaekit.stats", "write_report_csv", *csv_bytes("report.bytes"))
    add("problem.load", "sdaekit.problem", "load_problem_file")
    add("problem.load", "sdaekit.problem", "builtin")
    add("problem.classify", "sdaekit.problem", "classify")


def install_setup_probe(marks: dict) -> bool:
    """Stamp ``marks["first_step"]`` when the first noise chunk is generated.

    Every ensemble driver draws its increments right before it starts
    stepping, and nothing before that draws any, so the first call ends the
    set-up phase.  One extra call per path, negligible next to the work.
    """

    def make(fn):
        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            if marks.get("first_step") is None:
                marks["first_step"] = time.monotonic()
            return fn(*args, **kwargs)

        return stamped

    return replace_everywhere(sdaekit_modules(), "sdaekit.integrator", "wiener_increments", make)

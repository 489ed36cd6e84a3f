"""Span recorder and outside-in wrappers for the traced benchmark run.

Spans are recorded from outside the package: ``Installation`` rebinds every
attribute of every loaded ``twomode_jcx`` module that refers to one of the
public functions in ``TARGETS`` (so ``cli``'s by-name import of
``build_basis`` is traced as well as ``fock.build_basis``), and replaces the
``scipy.linalg`` module bound as ``la`` in ``spectra`` and ``displace`` with
a proxy whose eigensolvers and ``expm`` are traced. ``uninstall`` restores
every binding, so untraced ops run with no wrapper in place.

A span's self time is its duration minus the durations of its direct
children. Parents are tracked per thread, so a span opened in a pool
thread has no parent and is not subtracted from the caller-thread span
that waits for it.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

PACKAGE = "twomode_jcx"


@dataclass
class Span:
    sid: int
    group: str
    thread: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list; each thread keeps its own stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, group: str) -> Span:
        stack = self._stack()
        span = Span(
            sid=next(self._ids),
            group=group,
            thread=threading.get_ident(),
            parent=stack[-1].sid if stack else None,
            start=self._clock(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.group} closed out of order")
        stack.pop()
        self.spans.append(span)

    def wrap(self, group: str, fn, count=None):
        """``fn`` traced as ``group``; ``count(args, kwargs, result)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(group)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.counts.update(count(args, kwargs, result))
                return result
            finally:
                self.close(span)

        return traced


def self_times(spans) -> dict:
    """sid -> duration minus the summed durations of its direct children."""
    own = {s.sid: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.duration
    return own


def summarize(spans) -> dict:
    """Per-group totals: ``self_s``, ``calls`` (entries from outside the group)
    and every counter summed; counters named ``max_*`` keep their maximum."""
    own = self_times(spans)
    group_of = {s.sid: s.group for s in spans}
    out: dict[str, dict] = {}
    for s in spans:
        g = out.setdefault(s.group, {"self_s": 0.0, "calls": 0})
        g["self_s"] += own[s.sid]
        if s.parent is None or group_of.get(s.parent) != s.group:
            g["calls"] += 1
        for key, val in s.counts.items():
            if key.startswith("max_"):
                g[key] = max(g.get(key, val), val)
            else:
                g[key] = g.get(key, 0) + val
    return out


def _dim(args, kwargs, result):
    return {"dim": int(args[0].shape[0])}


def _records(args, kwargs, result):
    return {
        "records": len(result.records),
        "passed": sum(1 for r in result.records if r.status == "PASS"),
    }


# (module, attribute, group, counter). Groups are "<layer>.<part>"; every
# function the package reaches under these names is traced.
TARGETS = [
    ("fock", "build_basis", "fock.build_basis", lambda a, k, r: {"states": r.dim}),
    ("fock", "get_sector", "fock.sector", None),
    ("fock", "sector_decompose", "fock.sector", None),
    ("fock", "project_operator", "fock.project", None),
    ("fock", "ladder_op", "fock.ladder", None),
    ("fock", "number_op", "fock.ladder", None),
    ("liealg", "su11_generators", "liealg.generators", None),
    ("liealg", "su2_generators", "liealg.generators", None),
    ("liealg", "verify_algebra", "liealg.verify_algebra", None),
    ("models", "build_kg_operator", "models.kg_operator", None),
    ("models", "build_full_hamiltonian", "models.hamiltonian", None),
    ("models", "build_spinor", "models.spinor", None),
    ("models", "eigen_residual", "models.spinor", None),
    ("spectra", "numeric_spectrum", "spectra.numeric_spectrum", None),
    ("spectra", "verify_tilting", "spectra.tilting", None),
    ("spectra", "nonrelativistic_limit_check", "spectra.limits", None),
    ("spectra", "limit_decay_exponent", "spectra.limits", None),
    ("displace", "displacement_direct", "displace.exponential", None),
    ("displace", "displacement_normal", "displace.exponential", None),
    ("displace", "ncs_from_displacement", "displace.exponential", None),
    ("displace", "su11_ncs_coefficients", "displace.ncs_coeffs",
     lambda a, k, r: {"terms": len(r.coeffs)}),
    ("displace", "su2_ncs_coefficients", "displace.ncs_coeffs",
     lambda a, k, r: {"terms": len(r.coeffs)}),
    ("displace", "verify_similarity", "displace.similarity", None),
    ("wavefunc", "ncs_wavefunction_series", "wavefunc.series", None),
    ("wavefunc", "oscillator_wavefunction", "wavefunc.series", None),
    ("wavefunc", "quadrature_inner_product", "wavefunc.quadrature", None),
    ("verify", "run_verification_suite", "verify.suite", _records),
    ("cli", "emit_rows", "cli.emit", lambda a, k, r: {"rows": len(a[0])}),
    ("parallel", "parallel_map", "parallel.map", None),
    ("parallel", "thread_budget", "parallel.threads", lambda a, k, r: {"max_threads": r}),
]

# scipy.linalg functions as bound (module attribute ``la``) in these modules.
LAPACK_MODULES = ("spectra", "displace")
LAPACK_TARGETS = [
    ("eigh", "lapack.eigensolve", _dim),
    ("eigvalsh", "lapack.eigensolve", _dim),
    ("expm", "lapack.expm", None),
]


class _LinalgProxy:
    """Stand-in for ``scipy.linalg`` with some functions replaced."""

    def __init__(self, module, overrides: dict):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Installation:
    """Wrappers bound into the package; ``uninstall`` restores the originals."""

    def __init__(self, recorder: Recorder):
        self._saved: list[tuple[object, str, object]] = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, attr, group, count in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            wrapped = recorder.wrap(group, original, count)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, wrapped)
        for mod_name in LAPACK_MODULES:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            linalg = mod.la
            overrides = {name: recorder.wrap(group, getattr(linalg, name), count)
                         for name, group, count in LAPACK_TARGETS}
            self._rebind(mod, "la", _LinalgProxy(linalg, overrides))

    def _rebind(self, mod, name, value):
        self._saved.append((mod, name, getattr(mod, name)))
        setattr(mod, name, value)

    def uninstall(self):
        for mod, name, value in reversed(self._saved):
            setattr(mod, name, value)
        self._saved.clear()


def layer_metrics(recorder: Recorder, traced_wall_s: float) -> dict:
    """Per-layer metrics of one traced round (see bench/README.md)."""
    groups = summarize(recorder.spans)

    def g(name, key, default=0):
        return groups.get(name, {}).get(key, default)

    eig_self = g("lapack.eigensolve", "self_s", 0.0)
    records = g("verify.suite", "records")
    return {
        "fock.build_basis.calls": g("fock.build_basis", "calls"),
        "fock.build_basis.self_s": g("fock.build_basis", "self_s", 0.0),
        "fock.states_built": g("fock.build_basis", "states"),
        "fock.sector.calls": g("fock.sector", "calls"),
        "fock.sector.self_s": g("fock.sector", "self_s", 0.0),
        "fock.project.calls": g("fock.project", "calls"),
        "fock.project.self_s": g("fock.project", "self_s", 0.0),
        "fock.ladder.self_s": g("fock.ladder", "self_s", 0.0),
        "liealg.generators.self_s": g("liealg.generators", "self_s", 0.0),
        "liealg.verify_algebra.self_s": g("liealg.verify_algebra", "self_s", 0.0),
        "models.kg_operator.calls": g("models.kg_operator", "calls"),
        "models.kg_operator.self_s": g("models.kg_operator", "self_s", 0.0),
        "models.hamiltonian.self_s": g("models.hamiltonian", "self_s", 0.0),
        "models.spinor.self_s": g("models.spinor", "self_s", 0.0),
        "spectra.numeric_spectrum.calls": g("spectra.numeric_spectrum", "calls"),
        "spectra.numeric_spectrum.self_s": g("spectra.numeric_spectrum", "self_s", 0.0),
        "spectra.tilting.self_s": g("spectra.tilting", "self_s", 0.0),
        "spectra.limits.self_s": g("spectra.limits", "self_s", 0.0),
        "lapack.eigensolve.calls": g("lapack.eigensolve", "calls"),
        "lapack.eigensolve.self_s": eig_self,
        "lapack.eigensolve.dim_sum": g("lapack.eigensolve", "dim"),
        "lapack.expm.self_s": g("lapack.expm", "self_s", 0.0),
        "eigensolve_share": eig_self / traced_wall_s if traced_wall_s > 0 else 0.0,
        "displace.exponential.calls": g("displace.exponential", "calls"),
        "displace.exponential.self_s": g("displace.exponential", "self_s", 0.0),
        "displace.ncs_coeffs.calls": g("displace.ncs_coeffs", "calls"),
        "displace.ncs_coeffs.self_s": g("displace.ncs_coeffs", "self_s", 0.0),
        "displace.ncs_coeffs.terms": g("displace.ncs_coeffs", "terms"),
        "displace.similarity.self_s": g("displace.similarity", "self_s", 0.0),
        "wavefunc.series.self_s": g("wavefunc.series", "self_s", 0.0),
        "wavefunc.quadrature.calls": g("wavefunc.quadrature", "calls"),
        "wavefunc.quadrature.self_s": g("wavefunc.quadrature", "self_s", 0.0),
        "verify.suite.self_s": g("verify.suite", "self_s", 0.0),
        "verify.records": records,
        "verify.records_pass_ratio": (
            g("verify.suite", "passed") / records if records else None
        ),
        "cli.emit.self_s": g("cli.emit", "self_s", 0.0),
        "cli.emit.rows": g("cli.emit", "rows"),
        "cli.command.self_s": g("cli.command", "self_s", 0.0),
        "parallel.map.calls": g("parallel.map", "calls"),
        "parallel.map.wait_s": g("parallel.map", "self_s", 0.0),
        "parallel.threads": g("parallel.threads", "max_threads"),
    }

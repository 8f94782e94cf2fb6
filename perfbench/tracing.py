"""Per-layer spans and counters, recorded from outside the program.

Each layer is timed by replacing one of its public functions with a
wrapper.  The engines import these functions by name (``log_bessel_k`` is
bound in ``special``, ``vb_unig``, ``vb_mnig`` and ``distributions``), so the
wrapper replaces every binding of the function object in every loaded
``nigmix`` module.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np

# (span name, module, function).  Metric names must start with a letter, so
# the spans of ``nigmix._vbcore`` are named ``vbcore.*``.
SPANS = [
    ("vb_unig.fit", "vb_unig", "fit"),
    ("vb_unig.update_hypers", "vb_unig", "update_hypers"),
    ("vb_unig.expectations_from_hypers", "vb_unig", "expectations_from_hypers"),
    ("vb_unig.update_responsibilities", "vb_unig", "update_responsibilities"),
    ("vb_unig.prune", "vb_unig", "prune"),
    ("vb_mnig.fit_m", "vb_mnig", "fit_m"),
    ("vb_mnig.update_hypers_m", "vb_mnig", "update_hypers_m"),
    ("vb_mnig.expectations_from_hypers_m", "vb_mnig", "expectations_from_hypers_m"),
    ("vb_mnig.update_responsibilities_m", "vb_mnig", "update_responsibilities_m"),
    ("vbcore.initial_partition", "_vbcore", "initial_partition"),
    ("vbcore.normalize_log_scores", "_vbcore", "normalize_log_scores"),
    ("distributions.gig_moments", "distributions", "gig_moments"),
    ("special.log_bessel_k", "special", "log_bessel_k"),
    ("special.log_bessel_k.fallback", "special", "_log_k_mpmath"),
    ("special.trunc_normal_moments", "special", "trunc_normal_moments"),
    ("linalg.spd_inverse_logdet_jittered", "linalg", "spd_inverse_logdet_jittered"),
    ("io.ingest_csv", "io", "ingest_csv"),
    ("io.write_json", "io", "write_json"),
    ("io.run_record_hash", "io", "run_record_hash"),
    ("cli.main", "cli", "main"),
]

# Counters that must repeat exactly between two traced runs of one commit.
EXACT_COUNTERS = [
    "special.log_bessel_k.elements",
    "linalg.spd_inverse_logdet_jittered.retries",
    "sweep.iterations",
    "sweep.component_iters",
    "sweep.degenerate_drops",
    "sweep.underflow_rows",
]


# Spans each workload must enter at least once in its traced run.  The
# mpmath fallback is left out: it is a defect path that a fix may remove.
# At n = 3000 the tail-weight posterior never nears its truncation, so
# unig-large does not call trunc_normal_moments.
_UNIG = ["vb_unig.fit", "vb_unig.update_hypers", "vb_unig.expectations_from_hypers",
         "vb_unig.update_responsibilities", "vb_unig.prune",
         "vbcore.initial_partition", "vbcore.normalize_log_scores",
         "distributions.gig_moments", "special.log_bessel_k"]
REQUIRED_SPANS = {
    "unig-study2": _UNIG + ["special.trunc_normal_moments"],
    "unig-large": _UNIG + ["io.ingest_csv", "io.write_json", "io.run_record_hash",
                           "cli.main"],
    "mnig-studies": ["vb_mnig.fit_m", "vb_mnig.update_hypers_m",
                     "vb_mnig.expectations_from_hypers_m",
                     "vb_mnig.update_responsibilities_m", "vb_unig.prune",
                     "vbcore.initial_partition", "vbcore.normalize_log_scores",
                     "distributions.gig_moments", "special.log_bessel_k",
                     "special.trunc_normal_moments",
                     "linalg.spd_inverse_logdet_jittered"],
}
assert {s for spans in REQUIRED_SPANS.values() for s in spans} <= {s for s, _, _ in SPANS}


class Tracer:
    """Installs span wrappers into the loaded ``nigmix`` modules and
    restores the original bindings on ``uninstall``."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.elements = 0
        self.inverse_attempts = 0
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, on_call=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def _rebind(self, original, replacement, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nigmix" or n.startswith("nigmix."))]
        hooks = {"special.log_bessel_k": self._count_elements}
        for name, module, func in SPANS:
            mod = sys.modules[f"nigmix.{module}"]
            # A renamed or removed layer fails here instead of reading zero.
            original = getattr(mod, func)
            self._rebind(original, self._wrap(name, original, hooks.get(name)), modules)
        # Jitter retries: the jittered inverse calls the plain inverse once,
        # and once more after a failed Cholesky.
        linalg = sys.modules["nigmix.linalg"]
        self._rebind(linalg.spd_inverse_logdet,
                     self._count_inverse(linalg.spd_inverse_logdet), [linalg])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _count_elements(self, nu, x, *args, **kwargs):
        self.elements += int(np.size(x))

    def _count_inverse(self, fn):
        def wrapper(*args, **kwargs):
            self.inverse_attempts += 1
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self, fit_seconds: float) -> dict[str, float]:
        """Span metrics, with shares of the traced fit time ``fit_seconds``."""
        out: dict[str, float] = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.self_share"] = self.self_s[name] / fit_seconds
        bessel = "special.log_bessel_k"
        out[f"{bessel}.elements"] = self.elements
        out[f"{bessel}.ns_per_element"] = (
            1e9 * self.self_s[bessel] / self.elements if self.elements else 0.0
        )
        out[f"{bessel}.fallback_frac"] = (
            self.calls[f"{bessel}.fallback"] / self.elements if self.elements else 0.0
        )
        jittered = "linalg.spd_inverse_logdet_jittered"
        out[f"{jittered}.retries"] = self.inverse_attempts - self.calls[jittered]
        return out

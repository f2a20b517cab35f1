"""Spans around calls into the modules of spectral_sl, recorded from outside.

Nothing under src/ knows about tracing.  `Tracer.install` replaces each
traced function by a wrapper in every spectral_sl module that holds a
reference to it (module globals are looked up at call time, so internal
calls are seen too), and `Tracer.uninstall` puts the originals back.

Spans are aggregated as they close rather than stored one by one: per
traced function the call count, the inclusive time of outermost calls
(recursion is not counted twice) and the self time (duration minus the
time covered by child spans).  Self times summed over all spans equal the
time covered by any span, which gives the coverage of an op.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

#: Public entry points of each layer, by module.  The cli list holds the
#: file and sampling helpers but not the cmd_* drivers, which would cover
#: the whole op and make the coverage figure meaningless.
TRACED = {
    "coeffs": ("build_table", "table_from_diagonal", "harmonics_from_table",
               "recurrence_residuals", "tail_report"),
    "solutions": ("eval_f1", "eval_f2", "ode_residual"),
    "scattering": ("coefficient_evaluators", "pole_strength"),
    "spectrum": ("scan_spectrum", "find_zeros", "_winding", "_newton_polish"),
    "inverse": ("sampled_provider", "reconstruct", "recover_diagonal",
                "recover_beta"),
    "cli": ("_load_json", "load_potential", "load_spectral_data",
            "sample_points", "spectral_data_to_dict", "spectrum_report_to_dict",
            "reconstruction_to_dict", "_write_json"),
}

#: Methods traced on a class: (layer, class name, method name).
TRACED_METHODS = (("inverse", "SampledProvider", "_interpolate"),)

LAYERS = tuple(TRACED)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.counts = Counter()
        self._depth = Counter()
        self._stack = []
        self._patches = []
        self._result_counters = {
            "scan_spectrum": lambda r: self.counts.update(
                {"spectrum.eigenvalues": len(r.eigenvalues)}),
            "sample_points": lambda r: self.counts.update({"cli.samples_written": len(r)}),
        }

    # --- recording -------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, on_call=None, on_return=None):
        key = f"{layer}.{name}"
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            frame = [0.0]
            stack.append(frame)
            depth[key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(result)
                return result
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[key] -= 1
                if stack:
                    stack[-1][0] += dt
                own = dt - frame[0]
                self.calls[key] += 1
                self.self_time[key] += own
                self.layer_self[layer] += own
                if depth[key] == 0:
                    self.incl[key] += dt
                    self.counts[key + ".outer"] += 1

        return wrapper

    def _count_coefficient_points(self, args):
        points = int(np.size(args[0]))
        self.counts["scattering.points"] += points
        if self._depth["spectrum.find_zeros"]:
            self.counts["spectrum.coef_calls"] += 1
            self.counts["spectrum.coef_evals"] += points

    def _wrap_evaluators(self, fn):
        """coefficient_evaluators returns closures; trace those as well."""
        wrapped = self._wrap("scattering", "coefficient_evaluators", fn)

        def evaluators(*args, **kwargs):
            c11, c12 = wrapped(*args, **kwargs)
            on_call = self._count_coefficient_points
            return (self._wrap("scattering", "c11", c11, on_call),
                    self._wrap("scattering", "c12", c12, on_call))

        return functools.wraps(fn)(evaluators)

    # --- patching ----------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def install(self):
        modules = self._modules()
        for layer, names in TRACED.items():
            home = sys.modules[f"{self.package.__name__}.{layer}"]
            for name in names:
                original = getattr(home, name)
                if name == "coefficient_evaluators":
                    replacement = self._wrap_evaluators(original)
                else:
                    replacement = self._wrap(layer, name, original,
                                             on_return=self._result_counters.get(name))
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, replacement)
        for layer, cls_name, meth in TRACED_METHODS:
            cls = getattr(sys.modules[f"{self.package.__name__}.{layer}"], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(layer, meth, original))

    def uninstall(self):
        for obj, name, original in reversed(self._patches):
            setattr(obj, name, original)
        self._patches.clear()

    # --- reading -----------------------------------------------------------

    def covered_time(self) -> float:
        return sum(self.layer_self.values())

    def summary(self) -> dict:
        keys = sorted(self.calls)
        return {
            "functions": {
                k: {"calls": self.calls[k], "outer_calls": self.counts[k + ".outer"],
                    "inclusive_s": self.incl[k], "self_s": self.self_time[k]}
                for k in keys
            },
            "layer_self_s": {layer: self.layer_self[layer] for layer in LAYERS},
            "counts": {k: v for k, v in sorted(self.counts.items())
                       if not k.endswith(".outer")},
        }

"""Timing wrappers for the traced run.

``Tracer.install`` replaces each function of ``TARGETS`` by a wrapper in
every ``endofactor`` module namespace that holds it (``factor`` imports
``charpoly_over`` and ``norm_test`` by name, ``verify`` imports
``norm_test``), and each method on its class under every attribute name
bound to it (``FieldElement.__rmul__`` is ``__mul__``).  A stack of open
spans gives self time: a span's duration minus the time covered by its
wrapped children.  Counts and self times are kept per pass in memory, with
one span per operation, and written out when the run ends.
"""

import contextlib
import functools
import importlib
import sys
import time

TARGETS = {
    "document": ("load_document",),
    "params": ("validate_group", "validate_endoscopic", "validate_param",
               "check_regularity", "match_stable_classes"),
    "factor": ("compute_delta", "validate_package", "build_charpoly_pack",
               "compute_C", "eval_character"),
    "etale": ("charpoly_over",),
    "_poly": ("charpoly", "pmul"),
    "localfield": ("FieldElement.__mul__", "valuation",
                   "ExtensionTower.norm_to_base", "hilbert_symbol", "norm_test",
                   "is_square", "make_extension", "ResidueField.dlog",
                   "ResidueField.multiplicative_generator"),
    "forms": ("trace_form_gram", "gram_block", "invariants"),
    "verify": ("run_suite", "make_lie_param", "li_identity_1", "li_identity_2",
               "check_Aij_is_norm", "check_Bi_Ci_consistency",
               "check_cD_square_class", "reconstruct_delta"),
}


def metric_prefix(module, name):
    """Metric names start with a letter, so ``_poly`` is reported as ``poly``."""
    return f"{module.lstrip('_')}.{name}"


class Tracer:
    def __init__(self):
        self._stack = []
        self._stats = {}
        self._undo = []
        self.passes = []
        self.spans = []

    def _wrap(self, key, fn):
        stack, stats = self._stack, self._stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                entry = stats[key]
                entry[0] += 1
                entry[1] += elapsed - children
                if stack:
                    stack[-1] += elapsed
        return wrapper

    def install(self):
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "endofactor" or name.startswith("endofactor.")]
        for module, functions in TARGETS.items():
            mod = importlib.import_module(f"endofactor.{module}")
            for name in functions:
                key = metric_prefix(module, name)
                self._stats[key] = [0, 0.0]
                if "." in name:
                    owner_name, attr = name.split(".")
                    owners = [getattr(mod, owner_name)]
                    original = owners[0].__dict__[attr]
                else:
                    owners = modules
                    original = getattr(mod, name)
                wrapper = self._wrap(key, original)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            setattr(owner, attr, wrapper)
                            self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextlib.contextmanager
    def pass_(self):
        """Collect counts and self times for one pass over the corpus."""
        for entry in self._stats.values():
            entry[0], entry[1] = 0, 0.0
        yield
        self.passes.append({key: list(entry) for key, entry in self._stats.items()})

    def span(self, name, fn, *args):
        """One top-level operation; an exception is returned, not raised,
        so a failing document is counted and the pass goes on."""
        start = time.perf_counter()
        self._stack.append(0.0)
        try:
            result = fn(*args)
        except Exception as exc:
            result = exc
        finally:
            self._stack.pop()
        self.spans.append((name, len(self.passes), start, time.perf_counter()))
        return result

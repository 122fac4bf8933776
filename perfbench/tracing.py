"""Span tracing of the wbq layers, installed from the benchmark's side.

Every public function and method of the layer modules is replaced by a
wrapper that records one span per call: (name, start, end, parent span,
job id).  The wrapper is installed in every namespace that holds the
original object, so ``from .tensor import act_word`` inside ``engine`` and
the package-level re-exports are traced too.  Spans are kept in memory and
written out once, when the run ends.  Spans are only recorded while a job
is open, so input generation and output checking stay invisible.  Calls
and self times are derived from the spans at the end; run.py measures the
spans in reference seconds, like its end-to-end times.

``words`` and ``combinat`` are not wrapped: they are memoised or cheap and
their time lands in the self time of their callers.  Scalar arithmetic
helpers (field contexts, vector and number classes) are left unwrapped for
the same reason; a span per field operation would cost more than the
operation itself.
"""

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "repthy", "engine", "tensor", "linalg", "scalars")

# The CLI layer is argparse, validation and emission; its subcommand
# handlers are reached through a dispatch dict and stay inside main's span.
_ONLY = {"cli": ("main",)}

# Leaf helpers called per scalar or per vector entry.
_SKIP_CLASSES = {
    "linalg": ("FieldContext", "RationalPointContext", "SpanTracker"),
    "scalars": ("CycloNum", "CycloFrac", "FieldSpec", "Scalar"),
    "tensor": ("TensorVector",),
    "engine": ("ConstantsTable",),
}
_SKIP_FUNCTIONS = {
    "linalg": ("vec_zero", "vec_add", "vec_sub", "vec_scale", "vec_is_zero",
               "laurent_eval", "laurent_mul", "laurent_pow",
               "laurent_try_div", "poly_eval"),
    "scalars": ("zero", "one", "from_int", "from_fraction", "monomial",
                "is_zero", "constant_value", "q_elem", "rho_elem", "flip",
                "normalize", "generic_terms"),
    "tensor": ("weight_of_index",),
    "engine": ("sigma",),
}


def _field_key(value):
    return repr(value)


def _decomposition_key(args, kwargs):
    field = args[2] if len(args) > 2 else kwargs.get("field")
    return (args[0], args[1], _field_key(field))


def _specialize_view_key(args, kwargs):
    spec = args[1] if len(args) > 1 else kwargs.get("spec")
    return _field_key(spec)


def _path_arg(index):
    def path(args, kwargs):
        return args[index] if len(args) > index else kwargs.get("path")
    return path


# name -> function of (args, kwargs) giving the key whose distinct values
# are counted, for the distinct_ratio metrics.
_KEYED = {
    "repthy.decomposition_matrix": _decomposition_key,
    "engine.StructureConstants.specialize": _specialize_view_key,
}
# name -> function of (args, kwargs) giving a file whose size is counted
# after the call returns.
_SIZED = {
    "engine.load_table": _path_arg(0),
    "engine.save_table": _path_arg(1),
}


class Tracer:
    """In-memory span store; counts and self times are derived from the
    spans when the run ends."""

    def __init__(self):
        self.job = None
        self.names = []
        self.spans = []
        self.failures = []
        self.keys = {}
        self.bytes = {}
        self._stack = []
        self._next_id = 0
        self._originals = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        self.names.append(name)
        self.failures.append(0)
        index = len(self.names) - 1
        keyed = _KEYED.get(name)
        sized = _SIZED.get(name)
        if keyed is not None:
            self.keys[name] = set()
        if sized is not None:
            self.bytes[name] = 0
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failures[index] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((index, start, end, parent, span_id,
                                     tracer.job))
            if keyed is not None:
                tracer.keys[name].add(keyed(args, kwargs))
            if sized is not None:
                path = sized(args, kwargs)
                if os.path.exists(path):
                    tracer.bytes[name] += os.path.getsize(path)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def _targets(self, layer, module):
        """(qualified name, owner, attribute, original) for every traced
        callable defined in ``module``."""
        only = _ONLY.get(layer)
        skip_classes = _SKIP_CLASSES.get(layer, ())
        skip_functions = _SKIP_FUNCTIONS.get(layer, ())
        out = []
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_") or only is not None and attr not in only:
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and attr not in skip_functions:
                out.append(("%s.%s" % (layer, attr), module, attr, obj))
            elif inspect.isclass(obj) and attr not in skip_classes:
                for meth, raw in sorted(vars(obj).items()):
                    if meth.startswith("_"):
                        continue
                    if isinstance(raw, (classmethod, staticmethod)) \
                            or inspect.isfunction(raw):
                        out.append(("%s.%s.%s" % (layer, attr, meth),
                                    obj, meth, raw))
        return out

    def install(self, package):
        """Wrap the layers of ``package`` (the imported wbq module)."""
        replaced = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for name, owner, attr, raw in self._targets(layer, module):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                    replaced[id(raw)] = (raw, wrapped)
                self._originals.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
        # Re-point every other namespace that imported a wrapped function.
        prefix = package.__name__
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == prefix
                                      or modname.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._originals.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals = []

    # -- results --------------------------------------------------------------

    def metrics(self, duration=None):
        """Per-name calls, self seconds, failures, distinct ratios and
        bytes, keyed as '<layer>.<function>.<kind>'.  ``duration(start,
        end)`` converts a span to seconds (default: end - start); a span's
        self time is its duration minus its children's durations."""
        if duration is None:
            def duration(start, end):
                return end - start
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        owner = {}
        for index, start, end, parent, span_id, _ in self.spans:
            owner[span_id] = index
        for index, start, end, parent, span_id, _ in self.spans:
            length = duration(start, end)
            calls[index] += 1
            self_s[index] += length
            if parent >= 0:
                self_s[owner[parent]] -= length
        out = {}
        for i, name in enumerate(self.names):
            out[name + ".calls"] = calls[i]
            out[name + ".self_s"] = self_s[i]
            out[name + ".failures"] = self.failures[i]
        for name, keys in self.keys.items():
            count = calls[self.names.index(name)]
            out[name + ".distinct_ratio"] = len(keys) / count if count else 0.0
        for name, size in self.bytes.items():
            out[name + ".bytes"] = size
        return out

    def write(self, path, jobs):
        """Write the spans as JSON lines: a header naming the functions and
        jobs, then one [name index, start, end, parent span, span, job]
        row per span, with times on the perf_counter clock."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps({"names": self.names, "jobs": jobs}))
            handle.write("\n")
            for span in sorted(self.spans, key=lambda row: row[4]):
                handle.write(json.dumps(span))
                handle.write("\n")

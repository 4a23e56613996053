"""Per-layer tracing of the coxcartan package, from outside it.

Two instruments, used on separate passes over a stream:

* `Tracer` replaces each function and method listed in TARGETS with a
  wrapper and rebinds every package module attribute that held the original,
  because several modules import names directly (`from .cartan import
  path_count` in comodules and artranslate, `from .lazymatrix import
  apply_vector` in coxeter); `remove()` restores the originals.  Wrappers
  count calls, the counters in COUNTERS, and the CoxErrors that leave a layer
  (raised out of a call whose caller is in another module).  Calls that are
  not hot also leave one span each (name, start, end, parent span, span id,
  query id), kept in memory and written out by `write_spans` at the end.  Hot
  calls are only counted: one coxeter query on a 160-vertex window makes over
  100,000 `LazyIntMatrix.entry` calls, and timing each would swamp them.

* `Sampler` measures self time without wrappers.  Every millisecond of CPU
  time it charges one sample to the innermost frame that runs a target, so a
  target's self time is its own time plus that of untargeted code it calls
  (Fraction arithmetic inside `linalg.rref` counts towards `linalg`), and the
  samples of one layer add up to its self time.
"""

import importlib
import json
import signal
import sys
import time
from collections import Counter

PACKAGE = "coxcartan"

# (module, attribute, name, hot).  The name's first part is the layer.
TARGETS = [
    ("cli", "run", "cli", False),
    ("presentations", "parse_family_flag", "presentations.build", False),
    ("presentations", "parse_presentation", "presentations.build", False),
    ("presentations", "Presentation.interval", "presentations.interval", True),
    ("presentations", "OppositePresentation.interval", "presentations.interval", True),
    ("presentations", "FinitePoset.interval", "presentations.interval", True),
    ("presentations", "GarlandFamily.interval", "presentations.interval", True),
    ("cartan", "path_count", "cartan.path_count", True),
    ("cartan", "cartan_matrix", "cartan.cartan_matrix", False),
    ("cartan", "cartan_inverse", "cartan.cartan_inverse", False),
    ("cartan", "cartan_pair", "cartan.cartan_pair", False),
    ("cartan", "classify_finiteness", "cartan.classify_finiteness", False),
    ("lazymatrix", "LazyIntMatrix.entry", "lazymatrix.entry", True),
    ("lazymatrix", "LazyVector.entry", "lazymatrix.vector_entry", True),
    ("lazymatrix", "apply_vector", "lazymatrix.apply_vector", True),
    ("lazymatrix", "multiply", "lazymatrix.multiply", True),
    ("lazymatrix", "evaluate_window", "lazymatrix.evaluate_window", False),
    ("lazymatrix", "verify_identity_on_window", "lazymatrix.verify_identity", False),
    ("coxeter", "CoxeterOperator.apply", "coxeter.apply", True),
    ("coxeter", "CoxeterOperator.matrix", "coxeter.matrix", False),
    ("coxeter", "CoxeterOperator.verify_generator_identities", "coxeter.verify_generators", True),
    ("linalg", "rref", "linalg.rref", True),
    ("linalg", "rank", "linalg.rank", True),
    ("linalg", "nullspace", "linalg.nullspace", True),
    ("linalg", "mat_mul", "linalg.mat_mul", True),
    ("linalg", "solve_matrix", "linalg.solve_matrix", True),
    ("linalg", "invert", "linalg.invert", True),
    ("linalg", "column_space_basis", "linalg.column_space_basis", True),
    ("linalg", "complement_projection", "linalg.complement_projection", True),
    ("linalg", "extend_to_basis", "linalg.extend_to_basis", True),
    ("linalg", "intersect_kernels", "linalg.intersect_kernels", True),
    ("linalg", "transpose", "linalg.transpose", True),
    ("linalg", "hstack", "linalg.hstack", True),
    ("linalg", "vstack", "linalg.vstack", True),
    ("linalg", "mat_eq", "linalg.mat_eq", True),
    ("linalg", "columns_matrix", "linalg.columns_matrix", True),
    ("linalg", "matrix_columns", "linalg.matrix_columns", True),
    ("resolutions", "ext_alternating_sum", "resolutions.ext_alternating_sum", True),
    ("resolutions", "ext_dim", "resolutions.ext_dim", True),
    ("resolutions", "mobius", "resolutions.mobius", True),
    ("resolutions", "_interval_terms", "resolutions.interval_terms", True),
    ("resolutions", "_reduced_cohomology_dim", "resolutions.complex_oracle", False),
    ("resolutions", "minimal_injective_resolution", "resolutions.minimal_resolution", True),
    ("resolutions", "check_sharp_euler", "resolutions.check_sharp_euler", False),
    ("comodules", "enumerate_paths", "comodules.enumerate_paths", True),
    ("comodules", "MaterializedInjective.__init__", "comodules.materialize", True),
    ("comodules", "InjectiveMorphism.materialize", "comodules.materialize_map", True),
    ("comodules", "Comodule.socle", "comodules.socle", True),
    ("comodules", "Comodule.dual", "comodules.dual", True),
    ("comodules", "interval_comodule", "comodules.interval_comodule", True),
    ("comodules", "hom_basis", "comodules.hom_basis", True),
    ("comodules", "materialized_kernel", "comodules.materialized_kernel", True),
    ("artranslate", "_transpose_attempt", "artranslate.transpose", False),
    ("artranslate", "transpose_tr", "artranslate.transpose_tr", False),
    ("artranslate", "tau", "artranslate.tau", False),
    ("artranslate", "almost_split_mesh", "artranslate.mesh", False),
    ("artranslate", "knit_component", "artranslate.knit", False),
    ("artranslate", "min_inj_copresentation", "artranslate.copresentation", False),
    ("artranslate", "certify_no_inj_hom", "artranslate.certify_no_inj_hom", False),
    ("artranslate", "verify_translate_formula", "artranslate.verify_translate", False),
    ("artranslate", "grow_window", "artranslate.grow_window", True),
]


def _rref_cells(args, result):
    a = args[0]
    return len(a) * len(a[0]) if a else 0


# name -> (counter, f(args, result) -> amount added when a call returns)
COUNTERS = {
    "linalg.rref": ("linalg.rref.cells", _rref_cells),
    "artranslate.transpose": ("artranslate.transpose.successes", lambda a, r: 1),
    "artranslate.knit": ("artranslate.knit.meshes", lambda a, r: len(r.meshes)),
}


def resolve_targets():
    """[(name, hot, owner, attribute, original)] for the imported package,
    and the list of targets it no longer has.  A traced run with a missing
    target fails: the layer metrics it feeds would read 0, which looks like
    a gain."""
    found, missing = [], []
    for mod, attr, name, hot in TARGETS:
        try:
            owner = importlib.import_module(f"{PACKAGE}.{mod}")
        except ModuleNotFoundError:
            owner = None
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name and owner is not None:
            owner = getattr(owner, owner_name, None)
        orig = vars(owner).get(leaf) if owner is not None else None
        if orig is None:
            missing.append(f"{mod}.{attr}")
        else:
            found.append((name, hot, owner, leaf, orig))
    return found, missing


class Tracer:
    def __init__(self):
        self.targets, self.missing = resolve_targets()
        self.error_type = importlib.import_module(f"{PACKAGE}.errors").CoxError
        self.calls = Counter()
        self.errors = Counter()
        self.counters = Counter()
        self.spans = []
        self.query = None
        self._stack = []
        self._ids = iter(range(1, sys.maxsize))
        self._saved = []

    def _error_left(self, layer):
        caller = sys._getframe(2).f_globals.get("__name__", "")
        if caller != f"{PACKAGE}.{layer}":
            self.errors[layer] += 1

    def _wrap(self, fn, name, hot):
        layer = name.split(".")[0]
        calls, counters, error_type = self.calls, self.counters, self.error_type
        stack, spans = self._stack, self.spans
        counter, amount = COUNTERS.get(name, (None, None))
        clock = time.perf_counter
        tracer = self

        if hot:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                try:
                    result = fn(*args, **kwargs)
                except error_type:
                    tracer._error_left(layer)
                    raise
                if counter is not None:
                    counters[counter] += amount(args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                parent = stack[-1] if stack else None
                span_id = next(tracer._ids)
                stack.append(span_id)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                except error_type:
                    tracer._error_left(layer)
                    raise
                finally:
                    t1 = clock()
                    stack.pop()
                    spans.append((name, t0, t1, parent, span_id, tracer.query))
                if counter is not None:
                    counters[counter] += amount(args, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        package_mods = [m for n, m in list(sys.modules.items())
                        if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, hot, owner, leaf, orig in self.targets:
            wrapper = self._wrap(orig, name, hot)
            if isinstance(owner, type):
                sites = [(owner, leaf)]
            else:
                sites = [(m, k) for m in package_mods for k, v in vars(m).items() if v is orig]
            for obj, key in sites:
                setattr(obj, key, wrapper)
                self._saved.append((obj, key, orig))

    def remove(self):
        while self._saved:
            obj, key, orig = self._saved.pop()
            setattr(obj, key, orig)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "id", "query"],
                "missing_targets": self.missing,
                "spans": self.spans,
            }, fh)


class Sampler:
    """Context manager charging a sample per `interval` of CPU time to the
    innermost running target; `samples` maps target names to counts."""

    def __init__(self, targets, interval=0.001):
        self.names = {orig.__code__: name for name, _, _, _, orig in targets}
        self.interval = interval
        self.samples = Counter()

    def _on_signal(self, signum, frame):
        names = self.names
        while frame is not None:
            name = names.get(frame.f_code)
            if name is not None:
                self.samples[name] += 1
                return
            frame = frame.f_back

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

"""Spans and counters around kemplab's layer calls, from outside the program.

``install`` wraps, in place and only for the traced run:

- every public function each layer module defines, plus the stage
  helpers ``homextract._denoise``, ``_cleanliness`` and ``_auto_lambda``
  that ``inverse_pipeline`` calls by name;
- ``Subset.from_indices`` and ``Subset.indices``;
- the ``GroupModel`` multiplication methods.

A wrapper replaces the function in every kemplab module namespace that
bound it, since ``from .sumset import fast_product_set`` copies the name
into ``expansion``, ``fibers`` and ``homextract``.  Calls that run
millions of times per op (scalar and vector multiplications,
``relative_sign``) are only counted; every other call records a span
(name, start, end, parent) in memory.  Self time is a span's duration
minus the time its child spans cover, accumulated as spans close.
"""

import functools
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("sumset", "groups", "fibers", "expansion", "pseudometric",
          "homextract", "inverse1d")
PRIVATE = ("homextract._denoise", "homextract._cleanliness", "homextract._auto_lambda")
COUNTED = ("groups.GroupModel.mul", "groups.GroupModel.mul_vec",
           "groups.GroupModel.rmul_vec", "groups.GroupModel.mul_arr",
           "groups.GroupModel.inv_vec", "pseudometric.relative_sign")
METHODS = (("sumset", "Subset", "from_indices"), ("sumset", "Subset", "indices"),
           ("groups", "GroupModel", "mul"), ("groups", "GroupModel", "mul_vec"),
           ("groups", "GroupModel", "rmul_vec"), ("groups", "GroupModel", "mul_arr"),
           ("groups", "GroupModel", "inv_vec"))

# per-layer metric -> (what, span or counter names)
#   "calls": number of calls; "self": self time in seconds; "extra": a
#   quantity read from results (see _POST).
METRICS = {
    "sumset.subset_builds": ("calls", ["sumset.Subset.from_indices"]),
    "sumset.subset_build_s": ("self", ["sumset.Subset.from_indices"]),
    "sumset.indices_calls": ("calls", ["sumset.Subset.indices"]),
    "sumset.product_set_calls": ("calls", ["sumset.fast_product_set", "sumset.product_set"]),
    "sumset.product_set_s": ("self", ["sumset.fast_product_set", "sumset.product_set"]),
    "sumset.overlap_profile_calls": ("calls", ["sumset.overlap_profile"]),
    "sumset.overlap_profile_s": ("self", ["sumset.overlap_profile"]),
    "groups.mul_calls": ("calls", ["groups.GroupModel.mul"]),
    "groups.vec_calls": ("calls", ["groups.GroupModel.mul_vec", "groups.GroupModel.rmul_vec",
                                   "groups.GroupModel.mul_arr", "groups.GroupModel.inv_vec"]),
    "groups.characters_s": ("self", ["groups.enumerate_characters", "groups.abelianization",
                                     "groups.default_character_modulus"]),
    "fibers.coset_partition_calls": ("calls", ["fibers.coset_partition"]),
    "fibers.coset_partition_s": ("self", ["fibers.coset_partition"]),
    "fibers.level_set_calls": ("calls", ["fibers.level_set"]),
    "fibers.level_set_s": ("self", ["fibers.level_set"]),
    "fibers.spillover_s": ("self", ["fibers.spillover_bound"]),
    "fibers.transfer_s": ("self", ["fibers.transfer"]),
    "expansion.deficit_s": ("self", ["expansion.deficit"]),
    "expansion.submodular_s": ("self", ["expansion.submodular_check"]),
    "expansion.toric_ratios_s": ("self", ["expansion.toric_expansion_ratios"]),
    "expansion.toric_subgroups": ("extra", ["expansion.toric_subgroups"]),
    "expansion.probe_s": ("self", ["expansion.nonexpander_probe", "expansion.direction_cover"]),
    "expansion.probe_evaluations": ("extra", ["expansion.probe_evaluations"]),
    "pseudometric.from_set_s": ("self", ["pseudometric.pseudometric_from_set"]),
    "pseudometric.table_mib": ("extra", ["pseudometric.table_mib"]),
    "pseudometric.linearity_s": ("self", ["pseudometric.gamma_linearity"]),
    "pseudometric.path_monotone_s": ("self", ["pseudometric.path_monotone_check"]),
    "pseudometric.alpha_s": ("self", ["pseudometric.alpha_lambda"]),
    "pseudometric.relative_sign_calls": ("calls", ["pseudometric.relative_sign"]),
    "pseudometric.sequence_s": ("self", ["pseudometric.total_weight", "pseudometric.signed_weight",
                                         "pseudometric.is_irreducible",
                                         "pseudometric.irreducible_concatenation"]),
    "homextract.pipeline_s": ("self", ["homextract.inverse_pipeline"]),
    "homextract.denoise_s": ("self", ["homextract._denoise"]),
    "homextract.denoise_evals": ("calls", ["homextract._cleanliness"]),
    "homextract.auto_lambda_s": ("self", ["homextract._auto_lambda"]),
    "homextract.almost_hom_s": ("self", ["homextract.almost_hom"]),
    "homextract.snap_s": ("self", ["homextract.snap_to_character", "homextract.kernel_norm_check"]),
    "homextract.structural_s": ("self", ["fibers.structural_control", "fibers.best_arc_fit",
                                         "fibers.bohr_stability"]),
    "inverse1d.torus_inverse_s": ("self", ["inverse1d.torus_inverse"]),
}


def _post_toric(rec, out):
    rec.extra["expansion.toric_subgroups"] += len(out.ratios)


def _post_probe(rec, out):
    rec.extra["expansion.probe_evaluations"] += out.evaluations


def _post_table(rec, out):
    rec.extra["pseudometric.table_mib"] += out.num.nbytes / 2 ** 20


_POST = {"expansion.toric_expansion_ratios": _post_toric,
         "expansion.nonexpander_probe": _post_probe,
         "pseudometric.pseudometric_from_set": _post_table}


class Recorder:
    """Spans and counts of the wrapped calls made while ``active``."""

    def __init__(self):
        self.active = False
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = {}
        self.self_s = {}
        self.extra = {name: 0.0 for name, (kind, _n) in METRICS.items() if kind == "extra"}
        self._stack = []          # open spans: [index, seconds covered by children]
        self._wrappers = {}       # name -> wrapper, reused by every install

    def counted(self, name, fn):
        self.calls[name] = 0
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def spanned(self, name, fn):
        self.calls[name] = 0
        self.self_s[name] = 0.0
        self._ids[name] = len(self.names)
        self.names.append(name)
        name_id = self._ids[name]
        post = _POST.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1] if stack else None
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(parent[0] if parent else -1)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[index] = end
                self.calls[name] += 1
                self.self_s[name] += (end - start) - frame[1]
                if parent is not None:
                    parent[1] += end - start
            if post is not None:
                post(self, out)
            return out
        return wrapper

    def wrap(self, name, fn):
        if name not in self._wrappers:
            make = self.counted if name in COUNTED else self.spanned
            self._wrappers[name] = make(name, fn)
        return self._wrappers[name]

    def metrics(self, ops: int) -> dict:
        """Every per-layer metric, per op."""
        out = {}
        for metric, (kind, names) in METRICS.items():
            source = {"calls": self.calls, "self": self.self_s, "extra": self.extra}[kind]
            out[metric] = sum(source.get(n, 0) for n in names) / ops
        return out

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names), name=np.asarray(self.span_name),
                            parent=np.asarray(self.span_parent),
                            start=np.asarray(self.span_start), end=np.asarray(self.span_end))


def install(rec: Recorder, km):
    """Wrap the layer functions and methods of the imported package km.

    Returns a function that puts the originals back."""
    package = km.__name__
    namespaces = [m for n, m in sys.modules.items()
                  if n == package or n.startswith(package + ".")]
    wrappers = {}
    replaced = []                   # (owner, attribute, original)
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
                    and (not attr.startswith("_") or name in PRIVATE)):
                wrappers[id(obj)] = rec.wrap(name, obj)
    for module in namespaces:
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                replaced.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
    for layer, cls_name, attr in METHODS:
        cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
        raw = cls.__dict__[attr]
        name = f"{layer}.{cls_name}.{attr}"
        replaced.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(rec.wrap(name, raw.__func__)))
        else:
            setattr(cls, attr, rec.wrap(name, raw))

    def uninstall():
        for owner, attr, original in replaced:
            setattr(owner, attr, original)
    return uninstall

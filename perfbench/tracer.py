"""Outside-in span tracer for the zfrician layer entry points.

Every traced function is replaced, by object identity, in every loaded
``zfrician.*`` module namespace, so re-bindings such as
``aep.mgf_gamma1_det`` or ``mcsim.substream`` resolve to the same wrapper
and calls between modules are caught.  Nothing under ``src/`` is edited.
A name that no longer exists is recorded as absent instead of failing, so
deleting or moving a function does not break the benchmark.

Each call records one span: function id, parent span, unit index, start
and end.  Spans live in flat arrays while the run goes and are reduced to
per-function counts, self time and inclusive time afterwards.  Tiny
helpers (``factorial_product``, ``db_to_linear``) are deliberately not
traced: a wrapper costs about a microsecond, which would dominate them.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

PACKAGE = "zfrician"

LAYER_FUNCTIONS = {
    "cli": ("run_experiment", "build_model", "emit_csv"),
    "channel": ("build_correlation_matrix", "channel_from_parts"),
    "schur": ("ul_decompose", "conditional_params", "check_condition", "virtual_scale", "gramian_and_sc"),
    "hypergeom": (
        "f11_series",
        "f00_distinct",
        "f00_general",
        "f00_rank_v_idempotent",
        "f00_rank1_idempotent",
        "haar_oracle",
    ),
    "snrdist": (
        "exact_gamma_snr",
        "virtual_gamma_snr",
        "rank1_params",
        "mgf_gamma1_det",
        "mgf_gamma1_series",
        "mgf_sc_rician_rayleigh",
    ),
    "aep": ("aep_exact_condition", "aep_virtual", "aep_rice_ray_det", "aep_from_mgf"),
    "mcsim": ("simulate_ser", "sample_snr", "sample_sc", "ks_test_gamma"),
    "rng": ("substream", "standard_complex_normal"),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items() for fn in fns)


class Tracer:
    """Create after the program is imported; trace with ``with tracer:``.

    Set ``unit`` before each unit of work so spans carry its index.
    """

    def __init__(self) -> None:
        self.names = TRACED_NAMES
        self.absent: list[str] = []
        self.unit = -1
        self._fid = array("i")
        self._parent = array("q")
        self._unit = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._patches: list[tuple] = []  # (module, attribute, original, wrapper)
        modules = [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for fid, qual in enumerate(self.names):
            mod_name, fn_name = qual.split(".")
            original = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), fn_name, None)
            if not callable(original):
                self.absent.append(qual)
                continue
            wrapper = self._wrap(fid, original)
            for m in modules:
                for attr, value in vars(m).items():
                    if value is original:
                        self._patches.append((m, attr, original, wrapper))

    def __enter__(self) -> "Tracer":
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, original, _ in self._patches:
            setattr(m, attr, original)

    def _wrap(self, fid: int, fn):
        fids, parents, units = self._fid, self._parent, self._unit
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            units.append(tracer.unit)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def spans(self) -> dict:
        """The recorded spans as numpy arrays (parent -1 marks a root span)."""
        return {
            "fid": np.frombuffer(self._fid, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "unit": np.frombuffer(self._unit, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())

    def reduce(self) -> dict:
        """Per-function calls, self seconds and inclusive seconds, keyed by name.

        Self time is a span's duration minus the durations of its child
        spans.  Inclusive time counts only the outermost span of a
        directly recursive call, so recursion is not counted twice.
        """
        s = self.spans()
        fid, parent = s["fid"], s["parent"]
        dur = s["end"] - s["start"]
        n_fn = len(self.names)
        has_parent = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        outer = ~has_parent
        outer[has_parent] = fid[parent[has_parent]] != fid[has_parent]
        calls = np.bincount(fid, minlength=n_fn)
        self_s = np.bincount(fid, weights=dur - child, minlength=n_fn)
        incl_s = np.bincount(fid[outer], weights=dur[outer], minlength=n_fn)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
            for i, name in enumerate(self.names)
        }

    def cover_s(self, names) -> float:
        """Seconds inside spans of ``names``, not counting one nested in another."""
        s = self.spans()
        fid, parent = s["fid"], s["parent"]
        ids = [self.names.index(n) for n in names]
        chosen = np.isin(fid, ids)
        has_parent = parent >= 0
        nested = np.zeros(fid.size, dtype=bool)
        while True:  # one step per nesting level: is any ancestor chosen?
            step = np.zeros_like(nested)
            step[has_parent] = (chosen | nested)[parent[has_parent]]
            if np.array_equal(step, nested):
                break
            nested = step
        keep = chosen & ~nested
        return float((s["end"][keep] - s["start"][keep]).sum())

    def child_share(self, parent_name: str, child_name: str) -> float:
        """Share of ``parent_name`` spans with at least one ``child_name`` child."""
        s = self.spans()
        p_id, c_id = self.names.index(parent_name), self.names.index(child_name)
        fid, parent = s["fid"], s["parent"]
        n_parent = int((fid == p_id).sum())
        if n_parent == 0:
            return 0.0
        is_child = (fid == c_id) & (parent >= 0)
        owners = parent[is_child]
        owners = np.unique(owners[fid[owners] == p_id])
        return owners.size / n_parent

"""Outside-in tracing of homkit's public functions.

`Tracer.install()` replaces each traced function with a wrapper in every
homkit.* module namespace that binds it (the modules import names such as
`snf` directly, so patching the defining module alone would miss calls),
and replaces traced methods on their classes.  Each call becomes a span
(name, start, end, parent, job) kept in flat arrays; `uninstall()` puts the
originals back.  Counters are read off arguments and return values after a
span closes, inside a span of their own ("trace.hook") so that the
caller's self time does not absorb them.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter

# (module, qualified name) of every traced callable, by layer.
TARGETS = {
    "intlinalg": ["snf", "cokernel_invariants", "kernel_basis", "solve", "solve_matrix",
                  "lattice_basis", "lattice_contains", "preimage_gens", "lattice_quotient",
                  "subquotient", "IntMatrix.__matmul__", "IntMatrix.apply", "IntMatrix.kron",
                  "Subquotient.to_coords"],
    "abgroups": ["is_isomorphic", "tensor", "graded_hom", "graded_ext_shifted",
                 "homology_of_pair", "is_exact_pair", "HomGroup.__init__",
                 "HomGroup.from_matrix", "Ext1Group.__init__", "Ext1Group.from_cocycle",
                 "Tor1Group.__init__", "GroupHom.__init__", "GroupHom.kernel",
                 "GroupHom.kernel_group", "GroupHom.cokernel_group", "GroupHom.inverse_matrix"],
    "percomplex": ["homology", "mapping_cone", "tensor_complex", "induced_on_homology",
                   "moore_complex", "HomotopyClasses.__init__", "HomotopyClasses.class_of",
                   "HomotopyClasses.representative", "HomotopyClasses.generators"],
    "relhom": ["classify", "projective_resolution", "ideal_ext", "ideal_ext_from_resolution",
               "uct_sequence", "phantom_subgroup", "kappa", "kunneth_prediction"],
    "repmod": ["free_resolution_over_r", "ext_over_r", "tor_over_r", "hochschild",
               "pv_sequence", "RModule.__init__"],
    "jsonio": ["matrix_from_json", "group_from_json", "graded_group_from_json",
               "complex_from_json", "chain_map_from_json", "rmodule_from_json",
               "matrix_to_json", "group_to_json", "graded_group_to_json", "complex_to_json",
               "chain_map_to_json"],
    "cli": ["main"],
}
HOOK = "trace.hook"


def _bits(m) -> int:
    return max((max(max(r), -min(r)).bit_length() for r in m.data if r), default=0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.current_job = -1
        self._stack: list[int] = []
        self._plan: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        self.snf_calls_distinct = 0
        self.snf_max_cells = 0
        self.snf_max_bits = 0
        self.kron_max_cells = 0
        self.resolution_max_rank = 0
        self._job_matrices: set = set()
        self._hook_id = self._name_id(HOOK)
        self._hooks = {
            "intlinalg.snf": self._after_snf,
            "percomplex.HomotopyClasses.__init__": self._after_hoclasses,
            "repmod.free_resolution_over_r": self._after_resolution,
        }

    # -- recording -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = self._hooks.get(name)
        hook_id = self._hook_id
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                h = open_(hook_id)
                hook(args, result)
                close(h)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def begin_job(self, job: int) -> None:
        self.current_job = job
        self._job_matrices = set()

    # -- counters ------------------------------------------------------------

    def _after_snf(self, args, dec) -> None:
        a = args[0]
        self.snf_max_cells = max(self.snf_max_cells, a.rows * a.cols)
        if a not in self._job_matrices:
            self._job_matrices.add(a)
            self.snf_calls_distinct += 1
            self.snf_max_bits = max(self.snf_max_bits, _bits(dec.u), _bits(dec.s), _bits(dec.v))

    def _after_hoclasses(self, args, _result) -> None:
        a, b = args[1], args[2]
        rows = a.even_rank * b.odd_rank + a.odd_rank * b.even_rank
        cols = a.even_rank * b.even_rank + a.odd_rank * b.odd_rank
        self.kron_max_cells = max(self.kron_max_cells, rows * cols)

    def _after_resolution(self, _args, res) -> None:
        self.resolution_max_rank = max(self.resolution_max_rank, max(res.ranks))

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if not self._plan:
            self._plan = list(self._build_plan())
        for owner, attr, _original, wrapped in self._plan:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapped in reversed(self._plan):
            setattr(owner, attr, original)

    def _build_plan(self):
        """(owner, attribute, original, wrapper) for every binding to patch.
        Targets a later version of homkit no longer has are listed in
        self.missing and skipped."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "homkit" or name.startswith("homkit.")}
        for layer, targets in TARGETS.items():
            home = modules.get(f"homkit.{layer}")
            for target in targets:
                span = f"{layer}.{target}"
                if "." in target:
                    cls_name, attr = target.split(".")
                    original = vars(getattr(home, cls_name, object)).get(attr)
                    if original is None:
                        self.missing.append(span)
                        continue
                    yield getattr(home, cls_name), attr, original, self._wrap(span, original)
                    continue
                fn = getattr(home, target, None)
                if fn is None:
                    self.missing.append(span)
                    continue
                wrapped = self._wrap(span, fn)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            yield mod, attr, fn, wrapped

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON columns."""
        doc = {"names": self.names, "name": self.name.tolist(), "start": self.start.tolist(),
               "end": self.end.tolist(), "parent": self.parent.tolist(),
               "job": self.job.tolist()}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)

    def summarize(self, jobs: int, job_seconds: float, cache_hits: int,
                  cache_calls: int) -> dict:
        """Per-layer metrics from the spans of `jobs` traced jobs that took
        `job_seconds` of wall time in total."""
        n = len(self.name)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_by_name: dict[str, float] = {}
        calls_by_name: dict[str, int] = {}
        for i in range(n):
            key = names[self.name[i]]
            self_by_name[key] = self_by_name.get(key, 0.0) + dur[i] - child[i]
            calls_by_name[key] = calls_by_name.get(key, 0) + 1

        def total(*spans: str) -> float:
            """Wall time inside any of the spans, counting nested ones once."""
            want = {i for i, nm in enumerate(names) if nm in spans}
            out = 0.0
            for i in range(n):
                if self.name[i] in want:
                    p = self.parent[i]
                    while p >= 0 and self.name[p] not in want:
                        p = self.parent[p]
                    if p < 0:
                        out += dur[i]
            return out

        def self_of(*spans: str) -> float:
            return sum(self_by_name.get(s, 0.0) for s in spans)

        def calls(*spans: str) -> int:
            return sum(calls_by_name.get(s, 0) for s in spans)

        per_job = 1.0 / max(jobs, 1)
        parse = [f"jsonio.{t}" for t in TARGETS["jsonio"] if t.endswith("_from_json")]
        serialize = [f"jsonio.{t}" for t in TARGETS["jsonio"] if t.endswith("_to_json")]
        snf_calls = calls("intlinalg.snf")
        cli_self = self_of("cli.main")
        m = {
            "intlinalg.snf.calls": (snf_calls * per_job, "calls/job"),
            "intlinalg.snf.self_s": (self_of("intlinalg.snf") * per_job, "s/job"),
            "intlinalg.snf.distinct_ratio": (self.snf_calls_distinct / max(snf_calls, 1), "ratio"),
            "intlinalg.snf.max_cells": (self.snf_max_cells, "cells"),
            "intlinalg.snf.max_bits": (self.snf_max_bits, "bits"),
            "intlinalg.solve.calls": (calls("intlinalg.solve") * per_job, "calls/job"),
            "intlinalg.subquotient.total_s": (total("intlinalg.subquotient",
                                                    "intlinalg.lattice_quotient") * per_job,
                                              "s/job"),
            "intlinalg.product.calls": (calls("intlinalg.IntMatrix.__matmul__",
                                              "intlinalg.IntMatrix.apply") * per_job,
                                        "calls/job"),
            "intlinalg.product.self_s": (self_of("intlinalg.IntMatrix.__matmul__",
                                                 "intlinalg.IntMatrix.apply") * per_job, "s/job"),
            "abgroups.hom.total_s": (total("abgroups.HomGroup.__init__") * per_job, "s/job"),
            "abgroups.ext1_tor1.total_s": (total("abgroups.Ext1Group.__init__",
                                                 "abgroups.Tor1Group.__init__") * per_job,
                                           "s/job"),
            "abgroups.kernel_cokernel.total_s": (total(
                "abgroups.GroupHom.kernel", "abgroups.GroupHom.kernel_group",
                "abgroups.GroupHom.cokernel_group", "abgroups.is_exact_pair") * per_job, "s/job"),
            "percomplex.hoclasses.total_s": (total("percomplex.HomotopyClasses.__init__")
                                             * per_job, "s/job"),
            "percomplex.hoclasses.max_kron_cells": (self.kron_max_cells, "cells"),
            "percomplex.class_of.calls": (calls("percomplex.HomotopyClasses.class_of") * per_job,
                                          "calls/job"),
            "percomplex.induced_on_homology.total_s": (total("percomplex.induced_on_homology")
                                                       * per_job, "s/job"),
            "percomplex.homology_cache.hit_ratio": (cache_hits / max(cache_calls, 1), "ratio"),
            "relhom.uct_sequence.total_s": (total("relhom.uct_sequence") * per_job, "s/job"),
            "relhom.kappa.total_s": (total("relhom.kappa") * per_job, "s/job"),
            "relhom.ideal_ext.total_s": (total("relhom.ideal_ext") * per_job, "s/job"),
            "repmod.free_resolution.total_s": (total("repmod.free_resolution_over_r") * per_job,
                                               "s/job"),
            "repmod.free_resolution.self_s": (self_of("repmod.free_resolution_over_r") * per_job,
                                              "s/job"),
            "repmod.free_resolution.max_rank": (self.resolution_max_rank, "rank"),
            "repmod.ext_tor.total_s": (total("repmod.ext_over_r", "repmod.tor_over_r") * per_job,
                                       "s/job"),
            "repmod.pv_hh.total_s": (total("repmod.pv_sequence", "repmod.hochschild") * per_job,
                                     "s/job"),
            "jsonio.parse.self_s": (self_of(*parse) * per_job, "s/job"),
            "jsonio.serialize.self_s": (self_of(*serialize) * per_job, "s/job"),
            "cli.main.self_s": (cli_self * per_job, "s/job"),
            "cli.main.share": (cli_self / job_seconds if job_seconds else 0.0, "ratio"),
        }
        for layer, targets in TARGETS.items():
            if layer != "cli":
                m[f"{layer}.self_s"] = (self_of(*(f"{layer}.{t}" for t in targets)) * per_job,
                                        "s/job")
        return m

"""Span tracing around the public functions of each kmspec module.

Wrappers are installed from here, at the attribute names the callers look
up (``kmspec.cli.build_realizable``, ``kmspec.realize.realize_block``, class
methods such as ``WeightedMultiset.log_power_sum``), and removed again after
a traced pass; no library source is changed.  Spans carry a layer name,
start, end and parent; they stay in memory until the run writes them out.
A layer's self time is the duration of its spans minus the part their child
spans cover, so the self times of one pass add up to at most its wall time.
"""

import dataclasses
import json
import time
from collections import Counter
from typing import Callable, List, Optional, Tuple

import numpy as np

import kmspec.blocks as kb
import kmspec.cli as kc
import kmspec.expratio as ke
import kmspec.realize as kr
import kmspec.sets as kset
import kmspec.spectra as ks

# Layers whose self time is reported as "<layer>_s" (cli as "cli.self_s").
LAYERS = (
    "expratio.design", "expratio.fit_coeffs", "expratio.basis_init",
    "expratio.realize_block", "expratio.log_power_sum", "expratio.part_sums",
    "expratio.multiset_product", "realize.build_realizable",
    "realize.eval_phi", "realize.fraction_pair", "spectra.solve",
    "spectra.rn_oracle", "cli", "sets.distance", "padic.freeness",
    "padic.closure", "blocks.conformality", "growth.measure_net",
    "growth.limsup",
)
# Counters summed over a pass.
COUNTS = (
    "expratio.design_calls", "expratio.realize_block_calls",
    "expratio.realize_block_failed", "expratio.log_power_sum_calls",
    "expratio.log_power_sum_terms", "realize.stages",
    "realize.fraction_pair_failed", "spectra.metric_evals",
    "spectra.scalar_evals", "cli.artifact_bytes", "sets.distance_calls",
    "padic.prefix_words", "padic.closure_elements", "spectra.rn_checks",
    "blocks.conformality_checks",
)
# Maxima over a pass.
MAXIMA = ("expratio.multiset_items_max", "realize.stage_error_max",
          "realize.certified_error")

Span = Tuple[str, float, float, Optional[int]]


class Tracer:
    """Records nested spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def bump(self, name: str, n=1):
        self.counts[name] += n

    def peak(self, name: str, value: float):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def wrap(self, fn: Callable, layer: str, before=None, after=None,
             failed: Optional[str] = None) -> Callable:
        """fn inside a span; before may rewrite the arguments, after sees
        the result, failed names a counter bumped when fn raises."""
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append((layer, 0.0, 0.0, parent))
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if failed is not None:
                    tracer.bump(failed)
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (layer, start, end, parent)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn: Callable) -> Callable:
        """An evaluator handed to a solver, counting its calls."""
        def evaluator(beta):
            self.bump("spectra.metric_evals")
            if np.size(beta) == 1:
                self.bump("spectra.scalar_evals")
            return fn(beta)
        return evaluator

    # -- installation -----------------------------------------------------

    def _patch(self, owner, name: str, layer: str, **hooks):
        # keep the raw class attribute so a staticmethod is restored as one
        raw = vars(owner).get(name, getattr(owner, name))
        wrapped = self.wrap(getattr(owner, name), layer, **hooks)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        self._saved.append((owner, name, raw))
        setattr(owner, name, wrapped)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        T = self
        W, P, B = ke.WeightedMultiset, ke.PartitionedBlockSystem, ke.TranslatedKernelBasis

        def lps_before(args, kwargs):
            ms, beta = args[0], args[1] if len(args) > 1 else kwargs["beta"]
            T.bump("expratio.log_power_sum_calls")
            T.bump("expratio.log_power_sum_terms", len(ms.items) * int(np.size(beta)))
            T.peak("expratio.multiset_items_max", len(ms.items))
            return args, kwargs

        def stages_after(cocycle):
            T.bump("realize.stages", len(cocycle.stages))
            for stage in cocycle.stages:
                T.peak("realize.stage_error_max", stage.achieved_error)
            T.peak("realize.certified_error", cocycle.certified_error)

        def solve_before(args, kwargs):
            return (T.counted(args[0]),) + args[1:], kwargs

        def solve_fp_before(args, kwargs):
            pair = args[0]
            counted = dataclasses.replace(pair, phi1=T.counted(pair.phi1),
                                          phi2=T.counted(pair.phi2))
            return (counted,) + args[1:], kwargs

        def bytes_after(result):
            artifacts, _ = result
            T.bump("cli.artifact_bytes", sum(len(v.encode()) for v in artifacts.values()))

        def call_counter(name):
            def before(args, kwargs):
                T.bump(name)
                return args, kwargs
            return before

        patches = [
            (B, "__init__", "expratio.basis_init", {}),
            (B, "design", "expratio.design",
             {"before": call_counter("expratio.design_calls")}),
            (B, "fit_coeffs", "expratio.fit_coeffs", {}),
            (kr, "realize_block", "expratio.realize_block",
             {"before": call_counter("expratio.realize_block_calls"),
              "failed": "expratio.realize_block_failed"}),
            (W, "log_power_sum", "expratio.log_power_sum", {"before": lps_before}),
            (W, "product", "expratio.multiset_product",
             {"after": lambda r: T.peak("expratio.multiset_items_max", len(r.items))}),
            (P, "zeta", "expratio.part_sums", {}),
            (P, "factor", "expratio.part_sums", {}),
            (P, "identity_residual", "expratio.part_sums", {}),
            (kc, "build_realizable", "realize.build_realizable", {"after": stages_after}),
            (kc, "eval_phi", "realize.eval_phi", {}),
            (kc, "fraction_pair", "realize.fraction_pair",
             {"failed": "realize.fraction_pair_failed"}),
            (kr, "fraction_pair", "realize.fraction_pair",
             {"failed": "realize.fraction_pair_failed"}),
            (kc, "solve_spectrum", "spectra.solve", {"before": solve_before}),
            (kc, "solve_free_product_spectrum", "spectra.solve",
             {"before": solve_fp_before}),
            (ks, "shift_rn_derivative", "spectra.rn_oracle", {}),
            (ks, "theta_rn_derivative", "spectra.rn_oracle", {}),
            (ks.WreathSystem, "cylinder_shift_ratio", "spectra.rn_oracle",
             {"before": call_counter("spectra.rn_checks")}),
            (ks.FreeProductSystem, "theta_cylinder_ratio", "spectra.rn_oracle",
             {"before": call_counter("spectra.rn_checks")}),
            (kc, "execute", "cli", {"after": bytes_after}),
            (kc, "emit", "cli", {}),
            (kset.ClosedSetSpec, "distance", "sets.distance",
             {"before": call_counter("sets.distance_calls")}),
            (kc, "freeness_suite", "padic.freeness",
             {"after": lambda r: T.bump("padic.prefix_words", r.prefix_words_evaluated)}),
            (kc, "subgroup_closure_mod", "padic.closure",
             {"after": lambda r: T.bump("padic.closure_elements", r["order"])}),
            (kb, "check_conformality", "blocks.conformality",
             {"before": call_counter("blocks.conformality_checks")}),
            (kb.TruncatedProductSystem, "measure_on_truncation",
             "blocks.conformality", {}),
            (kc, "build_measure_net", "growth.measure_net", {}),
            (kc, "limsup_ratio", "growth.limsup", {}),
        ]
        for owner, name, layer, hooks in patches:
            self._patch(owner, name, layer, **hooks)

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, start, end, _), covered in zip(self.spans, child):
            out[layer] += (end - start) - covered
        return out

    def write(self, path):
        """Spans as JSON lines: [index, layer, start, end, parent]."""
        with open(path, "w") as fh:
            for i, (layer, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, layer, start, end, parent]) + "\n")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_error", "_error_max", "_ratio")):
        return "1"
    return "count"


def layer_metrics(self_times: dict, counts: Counter, maxima: dict,
                  passes: int, overhead: float) -> dict:
    """Per-pass layer metrics from totals over `passes` traced passes."""
    out = {}
    for layer in LAYERS:
        name = "cli.self_s" if layer == "cli" else f"{layer}_s"
        out[name] = self_times.get(layer, 0.0) / passes
    for name in COUNTS:
        out[name] = counts.get(name, 0) / passes
    for name in MAXIMA:
        out[name] = maxima.get(name, 0.0)
    calls = counts.get("expratio.realize_block_calls", 0)
    failed = counts.get("expratio.realize_block_failed", 0)
    # useful share of realize_block attempts (base: realize_block_calls);
    # 0 when the layer never ran
    out["expratio.fit_useful_ratio"] = (calls - failed) / calls if calls else 0.0
    out["trace.overhead_s"] = overhead
    return {name: {"value": value, "unit": unit_of(name)}
            for name, value in out.items()}

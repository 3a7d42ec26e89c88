"""In-memory spans around the benchmark's calls into each layer, and the
per-layer metrics derived from them.

A span is ``[name, start, end, parent, op, work]``. Each op has one root
span named ``bench.op``; every call from the benchmark into a layer is a
child of it. Nothing inside the library is instrumented, so a layer's
busy time is the self time of its spans as seen from outside.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

OP_SPAN = "bench.op"

# Layer span -> name of its work-rate metric (None: busy time only).
LAYER_SPANS = {
    "words.index": "lookups_per_s",
    "products.star": "terms_per_s",
    "hopf.antipode": "terms_per_s",
    "hopf.antipode_recursive": None,
    "hopf.check_bialgebra": "cases_per_s",
    "hopf.check_antipode": "cases_per_s",
    "zeta.shuffle_expand": "terms_per_s",
    "zeta.duffle_expand": "terms_per_s",
    "numeric.check_prop_M": None,
    "numeric.verify_relation": "terms_per_s",
    "numeric.eval_di": None,
    "serialize.params_from_json": None,
    "serialize.lincomb_to_json": None,
    "serialize.eval_result_to_json": None,
    "cli.main": None,
}
COUNTED_CALLS = ("products.star", "numeric.eval_di", "cli.main")
EVAL_DEPTHS = (1, 2, 3)
OVERHEAD = "trace.overhead_ratio"


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(metric, unit, better) for every per-layer metric, in report order."""
    out = []
    for span, rate in LAYER_SPANS.items():
        if span in COUNTED_CALLS:
            out.append((f"{span}.calls", "count", "higher"))
        out.append((f"{span}.busy_s", "s", "lower"))
        if rate:
            out.append((f"{span}.{rate}", "1/s", "higher"))
        if span == "numeric.eval_di":
            out += [(f"{span}.cols_per_s.d{d}", "1/s", "higher")
                    for d in EVAL_DEPTHS]
            out.append((f"{span}.converged_ratio", "ratio", "higher"))
        out.append((f"{span}.failed", "count", "lower"))
    out.append((OVERHEAD, "ratio", "lower"))
    return out


class Recorder:
    """Forwards calls into the library; with spans on, records one span per
    call. Calls that raise are counted as failures of their span either
    way, as are oracle failures reported through ``fail``."""

    def __init__(self, spans_on: bool):
        self.spans_on = spans_on
        self.spans: list[list] = []
        self.failures: Counter = Counter()
        self._op = None
        self._root = None

    def begin_op(self, op: int) -> None:
        self._op = op
        if self.spans_on:
            self._root = len(self.spans)
            self.spans.append([OP_SPAN, perf_counter(), None, None, op, None])

    def end_op(self) -> None:
        if self.spans_on:
            self.spans[self._root][2] = perf_counter()

    def fail(self, name: str) -> None:
        self.failures[name] += 1

    def call(self, name: str, fn, *args, work=None):
        if not self.spans_on:
            try:
                return fn(*args)
            except Exception:
                self.failures[name] += 1
                raise
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.spans.append([name, start, perf_counter(), self._root,
                               self._op, None])
            self.failures[name] += 1
            raise
        end = perf_counter()
        self.spans.append([name, start, end, self._root, self._op,
                           work(result) if work else None])
        return result

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (_, start, end, _, _, _) in enumerate(self.spans)]

    def layer_metrics(self, overhead: float) -> dict[str, float]:
        busy: dict = defaultdict(float)
        calls: Counter = Counter()
        work: dict = defaultdict(float)
        cols: dict = defaultdict(float)
        cols_busy: dict = defaultdict(float)
        converged = 0
        for span, self_s in zip(self.spans, self.self_times()):
            name, w = span[0], span[5]
            busy[name] += self_s
            calls[name] += 1
            if w is None:
                continue
            if name == "numeric.eval_di":
                depth, n_cols, conv = w
                cols[depth] += n_cols
                cols_busy[depth] += self_s
                converged += bool(conv)
            else:
                work[name] += w

        def rate(num, den):
            return num / den if den > 0 else 0.0

        out: dict[str, float] = {}
        for span, rate_name in LAYER_SPANS.items():
            if span in COUNTED_CALLS:
                out[f"{span}.calls"] = calls[span]
            out[f"{span}.busy_s"] = busy[span]
            if rate_name:
                out[f"{span}.{rate_name}"] = rate(work[span], busy[span])
            if span == "numeric.eval_di":
                for d in EVAL_DEPTHS:
                    out[f"{span}.cols_per_s.d{d}"] = rate(cols[d], cols_busy[d])
                out[f"{span}.converged_ratio"] = rate(converged, calls[span])
            out[f"{span}.failed"] = self.failures[span]
        out[OVERHEAD] = overhead
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, op, w) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "work": w}) + "\n")

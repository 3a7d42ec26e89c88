"""Self-tests of the benchmark: seeded inputs are deterministic, the
references are right, every oracle check can fail, and BENCHMARK.json
matches the metrics the benchmark reports.

    python3 -m pytest perfbench
"""

import dataclasses
import importlib
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

lib = SimpleNamespace(**{name: importlib.import_module(f"polyzeta.{name}")
                         for name in run.LAYER_MODULES})


def first_spec(workload, pred=lambda spec: True, seed=7):
    return next(s for s in workloads.build(lib, workload, seed) if pred(s))


def run_op(spec):
    return workloads.run(lib, spans.Recorder(spans_on=False), spec)


def failing_spans(spec, out):
    return {span for span, _ in workloads.check(spec, out).failures}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a = workloads.build(lib, workload, 3)
    b = workloads.build(lib, workload, 3)
    c = workloads.build(lib, workload, 4)
    assert a == b
    assert a != c


def test_star_coefficient_sums_match_enumeration():
    for name, br in lib.products.PRODUCTS.items():
        alphabet = workloads._alphabet(lib, random.Random(1), name)
        for m in range(4):
            for n in range(4):
                u = lib.words.Word(alphabet[:1] * m)
                v = lib.words.Word(alphabet[1:2] * n)
                poly = lib.products.star(br, u, v)
                assert checks.check_coefficient_sum(
                    poly.terms.values(),
                    checks.star_coefficient_sum(name, m, n)) is None


def test_references_agree_with_independent_routes():
    for k, n, s, t in ((1, 3, 2, F(1, 3)), (5, 6, 3, F(-1, 2)),
                       (1, 2, 2, F(0))):
        lerch = checks.diagonal_reference(1, k, n, s, t)
        assert abs(lerch - checks.lerch_hurwitz(k, n, s, t)) < 1e-13
    # zeta(2,2) is the depth-2 diagonal sum at xi = 1, s = 2, t = 0
    assert abs(checks.diagonal_reference(2, 0, 1, 2, F(0))
               - checks.closed_form_reference("zeta(2,2)")) < 1e-15


def test_hopf_checks_reject_corrupted_results():
    spec = first_spec("hopf-exhaustive", lambda s: s["product"] == "shuffle")
    out = run_op(spec)
    assert failing_spans(spec, out) == set()

    m, n, poly = out.table[-1]
    w, c = next(iter(poly.terms.items()))
    bad_poly = lib.words.Polynomial({**poly.terms, w: c + 1})
    bad = SimpleNamespace(**{**vars(out),
                             "table": out.table[:-1] + [(m, n, bad_poly)]})
    assert failing_spans(spec, bad) == {"products.star"}

    closed = list(out.closed)
    closed[-1] = out.closed[-2]
    bad = SimpleNamespace(**{**vars(out), "closed": closed})
    assert failing_spans(spec, bad) == {"hopf.antipode"}

    empty = dataclasses.replace(out.bialg, checked=0)
    bad = SimpleNamespace(**{**vars(out), "bialg": empty})
    assert failing_spans(spec, bad) == {"hopf.check_bialgebra"}

    bad = SimpleNamespace(**{**vars(out), "missing": 1})
    assert failing_spans(spec, bad) == {"words.index"}


@pytest.mark.parametrize("mode", ["shuffle", "duffle"])
def test_identity_checks_reject_corrupted_results(mode):
    spec = first_spec("identity-geometric", lambda s: s["mode"] == mode)
    out = run_op(spec)
    assert failing_spans(spec, out) == set()

    term, c = next(iter(out.lc.terms.items()))
    off_by_one = lib.zeta.LinComb({**out.lc.terms, term: c + 1})
    bad = SimpleNamespace(**{**vars(out), "lc": off_by_one})
    assert failing_spans(spec, bad) == {f"zeta.{mode}_expand"}

    bad = SimpleNamespace(**{**vars(out), "cli": (0, out.text + " ")})
    assert failing_spans(spec, bad) == {"cli.main"}

    high = dataclasses.replace(out.rep, residual=2 * checks.RESIDUAL_BOUND)
    bad = SimpleNamespace(**{**vars(out), "rep": high})
    assert failing_spans(spec, bad) == {"numeric.verify_relation"}

    # an unconverged verify fails even when the library's own verdict is ok
    unconverged = dataclasses.replace(out.rep, converged=False, ok=True)
    bad = SimpleNamespace(**{**vars(out), "rep": unconverged})
    assert failing_spans(spec, bad) == {"numeric.verify_relation"}

    if mode == "duffle":
        bad = SimpleNamespace(**{**vars(out), "prop_m": False})
        assert failing_spans(spec, bad) == {"numeric.check_prop_M"}


def test_eval_check_rejects_reference_moved_by_ten_error_estimates():
    spec = first_spec("eval-unit-color", lambda s: s["s"][0] >= 4)
    out = run_op(spec)
    assert failing_spans(spec, out) == set()
    ref = workloads.reference(spec)
    est = out.res.error_estimate
    assert checks.check_error_estimate(out.res.value, ref, est) is None
    assert checks.check_error_estimate(out.res.value, ref + 10 * est,
                                       est) is not None
    moved = dataclasses.replace(out.res, value=out.res.value + 10 * est)
    bad = SimpleNamespace(**{**vars(out), "res": moved})
    assert "numeric.eval_di" in failing_spans(spec, bad)


def test_benchmark_json_matches_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == spans.per_layer_spec()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_subtracts_child_spans():
    rec = spans.Recorder(spans_on=True)
    rec.spans = [[spans.OP_SPAN, 0.0, 10.0, None, 0, None],
                 ["products.star", 1.0, 4.0, 0, 0, 5],
                 ["products.star", 5.0, 6.0, 0, 0, 7]]
    assert rec.self_times() == [6.0, 3.0, 1.0]
    metrics = rec.layer_metrics(0.0)
    assert metrics["products.star.calls"] == 2
    assert metrics["products.star.terms_per_s"] == 12 / 4.0

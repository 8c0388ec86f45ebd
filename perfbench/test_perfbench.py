"""Tests of the benchmark's own machinery.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import importlib
import math
import random
import sys

import pytest

from jobs import Job, cells
from run import Context, Modules, SRC, run_job, run_pass, tail_rank
from tracer import (END, FOLDED, NAME, PARENT, START, Tracer, by_function,
                    self_times)
from workloads import generate


@pytest.fixture(scope="module")
def m():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.import_module("simpcat")
    for layer in ("names", "sset", "bisset", "cat", "scat", "homology",
                  "spectra", "document", "cli"):
        importlib.import_module(f"simpcat.{layer}")
    return Modules()


def span(name, parent, start, end, folded=None):
    return [name, "j0", parent, start, end, None, folded]


def test_self_time_of_nested_spans():
    spans = [
        span("a.outer", -1, 0.0, 10.0, {"names.sort_key": [2, 0.5]}),
        span("b.left", 0, 1.0, 4.0),
        span("c.leaf", 1, 2.0, 3.0),
        span("b.right", 0, 5.0, 9.0, {"names.least": [3, 1.0]}),
    ]
    assert self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 3.0])
    table = by_function(spans)
    assert table["names.sort_key"] == {"calls": 2, "self_s": 0.5, "count": 0}
    assert table["names.least"]["self_s"] == pytest.approx(1.0)


def test_overlapping_children_are_covered_once():
    spans = [span("a.outer", -1, 0.0, 10.0),
             span("b.one", 0, 1.0, 4.0),
             span("b.two", 0, 3.0, 6.0),
             span("b.late", 0, 8.0, 12.0)]     # clipped at the parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tracer_spans_use_its_clock():
    ticks = iter([0.0, 1.0, 3.0, 7.0])
    t = Tracer(clock=lambda: next(ticks))
    outer = t.begin("bench.job")
    inner = t.begin("x.inner")
    t.end(inner)
    t.end(outer)
    assert inner[PARENT] == 0 and outer[PARENT] == -1
    assert self_times(t.spans) == pytest.approx([5.0, 2.0])


def test_intra_package_calls_are_caught(m):
    t = Tracer()
    original = m.cat._materialize
    t.install()
    try:
        job = t.begin("bench.job")
        m.scat.pi_levelwise(m.bisset.dec(m.sset.sphere(1, 4)))
        m.document.parse_document(
            '{"schema": "simpcat-document/1", "entities": [{"name": "X", '
            '"kind": "simplicial_set", "builder": {"type": "delta", '
            '"n": 1, "bound": 2}}]}')
        t.end(job)
    finally:
        t.uninstall()
    edges = {(t.spans[rec[PARENT]][NAME], rec[NAME]) for rec in t.spans
             if rec[PARENT] >= 0}
    # scat binds cat._materialize by `from .cat import`; sset.sphere
    # calls delta through its own module namespace
    assert ("scat.pi_levelwise", "cat._materialize") in edges
    assert ("sset.sphere", "sset.delta") in edges
    assert ("document.parse_document",
            "sset.TruncatedSimplicialSet.audit") in edges
    assert any("names.sort_key" in (rec[FOLDED] or {}) for rec in t.spans)
    assert all(rec[END] >= rec[START] for rec in t.spans)
    # uninstall puts every binding back
    assert m.cat._materialize is original and m.scat._materialize is original


def test_wrong_and_raising_jobs_count_as_failed(m, tmp_path):
    ctx = Context(m, str(tmp_path))
    right = Job("unit-roundtrip", {"shape": ["sphere", 1], "bound": 6},
                "closed-form", ["Z", "Z", "0"])
    wrong = Job("unit-roundtrip", {"shape": ["sphere", 1], "bound": 6},
                "closed-form", ["Z", "0", "0"])
    raising = Job("unit-roundtrip", {"shape": ["blob", 1], "bound": 6},
                  "closed-form", ["Z", "0", "0"])
    _, results = run_pass(ctx, [wrong, raising, right])
    assert results[0][1] is not None and "want" in results[0][1]
    assert results[1][1].startswith("uncaught ValueError")
    assert results[2][1] is None


def test_cli_refusal_is_checked_by_exit_code(m, tmp_path):
    ctx = Context(m, str(tmp_path))
    job = Job("cli", {"argv": ["build", "@absent.json"]}, "exit-code",
              {"exit": 2})
    assert run_job(ctx, job)[1] is None
    job.expected = {"exit": 0}
    assert run_job(ctx, job)[1] == "exit 2, want 0"


def test_tail_rank_is_highest_percentile_with_ten_beyond():
    for n in (20, 51, 60, 95, 400):
        p, rank = tail_rank(n)
        assert n - rank >= 10
        assert p == 99 or n - math.ceil((p + 1) * n / 100) < 10


def test_closed_form_cell_counts(m):
    for shape, build in [(("delta", 2), lambda b: m.sset.delta(2, b)),
                         (("boundary", 3), lambda b: m.sset.boundary(3, b)),
                         (("horn", 3, 1), lambda b: m.sset.horn(3, 1, b)),
                         (("sphere", 2), lambda b: m.sset.sphere(2, b))]:
        X = build(4)
        assert [X.size(k) for k in X.degrees()] == \
            [cells(shape, k) for k in range(5)]


def test_same_seed_same_jobs():
    a = [j.manifest() for j in generate("documents", random.Random(5))]
    b = [j.manifest() for j in generate("documents", random.Random(5))]
    c = [j.manifest() for j in generate("documents", random.Random(6))]
    assert a == b and a != c

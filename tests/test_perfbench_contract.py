"""The benchmark's contract with the library.

perfbench's exact workload calls ``basis_fraction_3d/4d(config)`` by
position; its sampled workload calls the three estimators, and builds
bases with ``sample_basis`` and reads them through ``classify_basis``,
``ks_satisfied`` and ``basis.matrix``.  Its tracer wraps every public
function of the layer modules.  So a change to those names or
signatures shows up here as a failed or incorrect run, not first in a
benchmark.

Its cli workload runs ``python -m kscolour`` per request and reads the
printed labels by regex, among them verify's "fully coloured without
exactly one black" count, so a renamed or dropped label fails the tiny
cli run here.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tiny_run(workload, trace, monkeypatch):
    # measure() puts src/ and the checkout on sys.path; monkeypatch
    # restores sys.path afterwards.
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import run

    _, result = run.measure(workload, trace=trace, seed=7, seconds=0.2, min_requests=1, setup_probes=1)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_tiny_exact_run_is_correct(trace, monkeypatch):
    _tiny_run("exact", trace, monkeypatch)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_tiny_sampled_run_is_correct(trace, monkeypatch):
    _tiny_run("sampled", trace, monkeypatch)


def test_tiny_cli_run_is_correct(monkeypatch):
    _tiny_run("cli", False, monkeypatch)

"""The benchmark's contract with the package.

``perfbench/mirror.py`` and ``perfbench/run.py`` call the package's public
names, and the benchmark requires the mirror's rows to equal
``run_replicate``'s bit for bit. Without this test only a traced benchmark
run checks either. Both files are loaded by path, as the benchmark itself
runs them from its own directory.

The config fits at nu=1 because ``traced_replicate`` calls ``default_init``
without ``nu`` (at nu != 1 the mirror's rows differ). ROADMAP item 19
deletes this test together with ``traced_replicate``.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from isiw import Dataset, ExperimentConfig, run_replicate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


mirror = _load("mirror")
bench = _load("run")

# exact_mle_max_n sits between the two n, so mle fits the exact likelihood
# at n=25 and the Vecchia one at n=40
CONFIG = ExperimentConfig(
    replicates=1,
    grid_nx=16,
    grid_ny=16,
    nu=1.0,
    phi=(0.15,),
    n=(25, 40),
    methods=(
        "mle", "vecchia", "isiw-v:known", "isiw-v:diggle", "isiw-v:CvL.adaptive",
        "isiw-pm:CvL.adaptive",
    ),
    exact_mle_max_n=30,
    seed=3,
    threads=1,
    timing=False,
)


@pytest.mark.parametrize("scenario", CONFIG.scenarios(), ids=lambda sc: sc.label)
def test_traced_rows_equal_run_replicate(scenario):
    rows, stats = mirror.traced_replicate(CONFIG, scenario, 0, mirror.Tracer())
    ref = run_replicate(CONFIG, scenario, 0)
    assert [r.error for r in ref] == [None] * len(CONFIG.methods)
    assert [mirror.fingerprint(r) for r in rows] == [mirror.fingerprint(r) for r in ref]
    mle_kind = "exact" if scenario.n <= CONFIG.exact_mle_max_n else "vecchia"
    assert set(stats.nll) == {mle_kind, "vecchia", "pairwise-marginal"}


@pytest.mark.parametrize("kind", ["exact", "pairwise-marginal"])
def test_nll_probe(kind):
    rng = np.random.default_rng(4)
    data = Dataset(locations=rng.random((30, 2)), values=rng.normal(4.0, 1.2, 30))
    assert bench.nll_probe_ms(kind, data, CONFIG) > 0

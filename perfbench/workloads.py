"""The benchmark's workloads: replicate-cell configurations of
``isiw.experiment`` and how many cells one run of each measures.

A cell is one (scenario, replicate) pair: simulate a field, sample a
preferential pattern, estimate weights, fit every method and krige. Cells
are taken in the order replicate-major, scenario-minor, so every run covers
each phi equally. Each client, and each pool worker, runs its cells in a
closed loop: the next starts when the previous ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from isiw import CovParams, SeedStream, simulate_field
from isiw.experiment import ExperimentConfig

HEADLINE_METHODS = ("mle", "isiw-v:known", "isiw-v:diggle", "isiw-v:CvL.adaptive")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    phi: tuple
    methods: tuple
    # Wall seconds per cell at the seed commit on a 2-core machine (for the
    # pool: seconds per cell of its throughput; for several clients: per
    # cell of one client while all run). It sizes a run from --seconds, so
    # a given seed and --seconds always run the same cells.
    cell_s: float
    workers: int = 1
    # In-process workloads only: closed-loop clients, each a forked process
    # that runs every clients-th cell. On a shared host each core's speed
    # switches between two levels 1.6x apart every few seconds, and the two
    # cores switch independently; two clients on two cores average over both
    # and hold twice the cells in a run.
    clients: int = 1

    def config(self, seed: int, replicates: int) -> ExperimentConfig:
        return ExperimentConfig(
            replicates=replicates,
            n=(self.n,),
            phi=self.phi,
            samplers=("lgcp",),
            methods=self.methods,
            seed=seed,
            threads=self.workers,
        )

    def replicates(self, seconds: float, traced: bool) -> int:
        """Replicates per scenario that fill about ``seconds`` at the seed
        commit. A traced cell runs twice in one process (untraced reference
        and traced mirror) and, for the pool workload, once more in the
        pool. A traced run has an even cell count, so each of the two
        in-process runs goes first equally often; an untraced run gives each
        client the same number of cells."""
        runs = (3 if self.workers > 1 else 2) if traced else 1
        lanes = 1 if traced else self.clients
        reps = max(1, round(seconds * lanes / (self.cell_s * len(self.phi) * runs)))
        step = 2 if traced else self.clients
        while reps * len(self.phi) % step:
            reps += 1
        return reps

    def cells(self, config: ExperimentConfig) -> list:
        """The (scenario, replicate) pairs run_experiment runs for
        ``config``, replicate-major so the scenarios alternate."""
        return [(sc, rep) for rep in range(config.replicates) for sc in config.scenarios()]


WORKLOADS = {
    w.name: w
    for w in (
        # Not in BENCHMARK.json: the time budget for all runs gives steady
        # figures to two workloads, and parallel-2w runs these same cells.
        Workload("headline-n100", 100, (0.02, 0.15), HEADLINE_METHODS, cell_s=3.5),
        # n=400, not 800: at n=800 one pairwise-marginal fit can run 200
        # BFGS iterations plus restarts (6801 NLL calls, 265 s), past the
        # 180 s a run may take. See README.md.
        Workload(
            "vecchia-n400",
            400,
            (0.15,),
            ("mle", "isiw-v:CvL.adaptive", "isiw-pm:CvL.adaptive"),
            cell_s=7.0,
            clients=2,
        ),
        Workload("parallel-2w", 100, (0.02, 0.15), HEADLINE_METHODS, cell_s=3.0, workers=2),
    )
}


def warm_up(config: ExperimentConfig) -> float:
    """Seconds of the first simulate_field per phi, which builds and caches
    the grid Cholesky; the draws themselves are discarded."""
    grid = config.grid()
    start = time.perf_counter()
    for phi in config.phi:
        simulate_field(grid, CovParams(config.sigma2, phi, config.nu), SeedStream(config.seed))
    return time.perf_counter() - start

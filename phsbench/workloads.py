"""The benchmark's workloads: one random agreement campaign and two
simulations of fixture systems.

Every workload has the same parts: ``prepare`` (the reference check, which
is also the warm-up, and the inputs from the seed), ``job`` (one end-to-end
unit of work, checked for correctness) and ``segment`` (one block of
latency samples of a given kind).  Every timing is kept as (mid time,
seconds), so that gauge.Gauge can scale it: in a job's ``parts``, or in
``samples[kind]``, a list of segments (a simulation's steps are one
segment).  The gauge's readings are taken between timed calls; a latency
sample timed right after a reading is kept in its job's parts but left
out of the percentile segments, since the reading evicts phs from the
caches.  The seed only makes the inputs; phs receives the generated
systems and initial fields.

The sizes below are module constants; the smoke test shrinks them.
"""

from __future__ import annotations

import inspect
import math
import statistics
import time
from pathlib import Path

import numpy as np

import phs

clock = time.perf_counter

# Samples per latency segment: p99 needs ten samples beyond it.
SEGMENT_SAMPLES = 1000
CAMPAIGN_NS = (1, 2, 3, 4, 6)
# Systems per agreement_campaign report.
CAMPAIGN_COUNT = 100
# Record every step at nx = 4096: set-up is dominated by diagonalize_field
# on 4097 points and stepping by the per-node rhs and the records.
NETWORK_CONFIG = {"nx": 4096, "t_final": 0.35, "record_every": 1}
# Variable coefficients at a small grid, recording only at the end: the
# per-call overhead of rhs/close matters and the record path is bypassed.
NEVER = 10**9
STRING_CONFIG = {"nx": 1024, "t_final": 1.0, "record_every": NEVER}
# The seed whose outputs reference.json records; every run checks it first.
REFERENCE_SEED = 0
# Criterion 4 of the acceptance suite: below this frontier fraction per n,
# on at least FRONTIER_POOL systems per n (the unitary-hint instances, about
# 3 %, sit on the frontier by construction, so smaller pools breach the
# bound by chance).
MAX_FRONTIER_FRACTION = 0.05
FRONTIER_POOL = 1000
# Campaign set-up samples per setup segment.
SETUP_REPEATS = 3
# The simulator's closure tolerance, and the agreement required of final
# values (ROADMAP item 2).
MAX_BC_RESIDUAL = 1e-10
REL_TOL = 1e-12


class Outcome:
    """Attempted and failed operations, with a reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(problems)

    def raised(self, what: str, exc: Exception) -> None:
        self.record([f"{what} raised {type(exc).__name__}: {exc}"])


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else math.nan


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _sample(start: float, end: float) -> tuple[float, float]:
    return (start + end) / 2, end - start


def _classify_segment(systems, outcome: Outcome, gauge) -> list:
    """Latency of phs.classify over ``systems`` (cycled) until SEGMENT_SAMPLES
    calls not preceded by a gauge reading are timed; each verdict must be
    nested (unitary => contraction => C0)."""
    samples = []
    for i in range(2 * SEGMENT_SAMPLES):
        if len(samples) >= SEGMENT_SAMPLES:
            break
        system = systems[i % len(systems)]
        read = gauge.tick()
        start = clock()
        try:
            verdict = phs.classify(system)
        except phs.PHSError as exc:
            outcome.raised("classify", exc)
            continue
        if not read:
            samples.append(_sample(start, clock()))
        nested = ((not verdict.unitary_group or verdict.contraction)
                  and (not verdict.contraction or verdict.c0_semigroup is True))
        outcome.record([] if nested else [f"classify: verdicts not nested: {verdict.as_dict(False)}"])
    return samples


class CampaignWorkload:
    """phs.agreement_campaign over n in CAMPAIGN_NS.

    A job is one pass: one report of ``count`` systems per n.  Segments:
    ``setup`` generates one pass's systems with phs.random_system (one
    sample), ``classify`` times phs.classify on those systems, and ``step``
    times single systems through agreement_campaign(n, 1, seed).
    """

    # in rotation order: set-up is sampled half as often as the percentiles
    latency_kinds = ("setup", "classify", "step", "classify", "step")

    def __init__(self, seed: int, reference: dict, gauge):
        self.seed = seed
        self.count = CAMPAIGN_COUNT
        self.reference = reference
        self.gauge = gauge
        self.outcome = Outcome()
        self.samples: dict[str, list] = {k: [] for k in ("setup", "classify", "step")}
        self.pool = {n: [0, 0] for n in CAMPAIGN_NS}  # frontier, count
        self.reference_pass: dict | None = None
        self.systems: list = []
        self._step_seed = self.seed * 1_000_003 + 500_000

    def _pass_seed(self, k: int, seed: int | None = None) -> int:
        # systems of pass k use seeds base .. base + count - 1; passes do not overlap
        return (self.seed if seed is None else seed) * 1_000_003 + k * self.count

    def _generate(self, base: int) -> list:
        """The systems agreement_campaign(n, count, base) builds, with its
        default hint weights; [] if random_system raises."""
        weights = inspect.signature(phs.oracle.agreement_campaign).parameters["hint_weights"].default
        draws = np.random.default_rng(base).random(self.count)
        hints = ["general" if d < weights[0] else
                 "contraction" if d < weights[0] + weights[1] else "unitary" for d in draws]
        try:
            return [phs.random_system(base + i, n, hints[i])
                    for n in CAMPAIGN_NS for i in range(self.count)]
        except phs.PHSError as exc:
            self.outcome.raised(f"random_system (base seed {base})", exc)
            return []

    def prepare(self) -> None:
        """Pass 0 of the reference seed, held to reference.json (it warms
        up every module too), then the systems for the latency segments."""
        reports = [self._campaign(n, self.count, self._pass_seed(0, REFERENCE_SEED))
                   for n in CAMPAIGN_NS]
        self.reference_pass = {str(r["n"]): {key: r[key] for key in ("agree", "frontier", "verdicts")}
                               for r in reports if r is not None}
        self.outcome.record([f"reference pass, n={n}: {self.reference_pass.get(n)} != {ref}"
                             for n, ref in self.reference.items()
                             if self.reference_pass.get(n) != ref])
        self.systems = self._generate(self._pass_seed(0))

    def _campaign(self, n: int, count: int, seed: int) -> dict | None:
        try:
            report = phs.agreement_campaign(n, count, seed)
        except phs.PHSError as exc:
            self.outcome.raised(f"agreement_campaign(n={n}, seed={seed})", exc)
            return None
        where = f"n={n} seed={seed}"
        problems = []
        if report["disagree"]:
            problems.append(f"{where}: {report['disagree']} disagreements at "
                            f"{report['mismatch_indices']}")
        if report["monotonicity_violations"]:
            problems.append(f"{where}: {report['monotonicity_violations']} monotonicity violations")
        self.outcome.record(problems)
        self.pool[n][0] += report["frontier"]
        self.pool[n][1] += report["count"]
        return report

    def job(self, k: int) -> dict:
        base = self._pass_seed(k)
        parts, failed = [], False
        for n in CAMPAIGN_NS:
            self.gauge.tick()
            start = clock()
            failed |= self._campaign(n, self.count, base) is None
            parts.append(_sample(start, clock()))
        if failed:
            return {"parts": [], "stepping": [], "systems": 0, "components": 0, "failed": True}
        return {"parts": parts, "stepping": parts, "systems": len(CAMPAIGN_NS) * self.count,
                "components": sum(CAMPAIGN_NS) * self.count}

    def segment(self, kind: str) -> None:
        samples = []
        if kind == "setup":
            for _ in range(SETUP_REPEATS):
                self.gauge.tick()
                start = clock()
                systems = self._generate(self._pass_seed(0))
                if systems:
                    samples.append(_sample(start, clock()))
                    self.systems = systems
        elif kind == "classify":
            if self.systems:
                samples = _classify_segment(self.systems, self.outcome, self.gauge)
        else:
            for j in range(2 * SEGMENT_SAMPLES):
                if len(samples) >= SEGMENT_SAMPLES:
                    break
                n = CAMPAIGN_NS[j % len(CAMPAIGN_NS)]
                self._step_seed += 1
                read = self.gauge.tick()
                start = clock()
                if self._campaign(n, 1, self._step_seed) is not None and not read:
                    samples.append(_sample(start, clock()))
        self.samples[kind].append(samples)

    def finish(self) -> None:
        pools = [(n, f, c) for n, (f, c) in self.pool.items() if c >= FRONTIER_POOL]
        if pools:
            self.outcome.record([f"n={n}: frontier fraction {f}/{c} >= {MAX_FRONTIER_FRACTION}"
                                 for n, f, c in pools if f >= MAX_FRONTIER_FRACTION * c])

    def result_values(self) -> dict:
        return {"count_per_report": self.count, "reference_pass": self.reference_pass,
                "frontier_pool": {str(n): fc for n, fc in self.pool.items()}}


class SimWorkload:
    """load_system + phs.setup + phs.step to the horizon, on one fixture.

    A job is one simulation: one ``setup`` sample and one ``step`` segment.
    ``classify`` segments time phs.classify on the fixture system.  The
    initial field is a random smooth field drawn from the seed; every
    simulation of a run uses the same one.
    """

    latency_kinds = ("classify",)

    def __init__(self, fixture: Path, config: dict, seed: int, reference: dict, gauge):
        self.path = fixture
        self.config = phs.SimConfig(**config)
        self.seed = seed
        self.reference = reference
        self.gauge = gauge
        self.outcome = Outcome()
        self.samples: dict[str, list] = {"setup": [], "classify": [], "step": []}
        self.system = None
        self.final: dict | None = None
        self.reference_final: dict | None = None

    def _x0(self, n: int, seed: int):
        """Three random sine modes per component plus an offset."""
        rng = np.random.default_rng(seed)
        modes = np.arange(1, 4)
        amp = (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))) / modes
        phase = rng.uniform(0.0, 2.0 * np.pi, (n, 3))
        offset = rng.standard_normal(n)

        def x0(z):
            return offset + (amp * np.sin(np.pi * modes * z + phase)).sum(axis=1)

        return x0

    def _simulate(self, x0):
        """One simulation: the final state, the set-up sample, every step
        sample, and the step samples not preceded by a gauge reading."""
        horizon = self.config.t_final - 1e-12 * max(1.0, self.config.t_final)
        self.gauge.tick()
        start = clock()
        system = phs.load_system(self.path)
        state = phs.setup(system, self.config, x0)
        setup = _sample(start, clock())
        steps, fresh = [], []
        while state.t < horizon:
            read = self.gauge.tick()
            start = clock()
            phs.step(state)
            steps.append(_sample(start, clock()))
            if not read:
                fresh.append(steps[-1])
        return state, setup, steps, fresh

    def _check(self, state, expected: dict | None) -> tuple[list[str], dict]:
        problems = []
        for column, values in state.history.items():
            if not np.all(np.isfinite(values)):
                problems.append(f"history column {column} is not finite")
        if not state.max_bc_residual <= MAX_BC_RESIDUAL:
            problems.append(f"max_bc_residual {state.max_bc_residual:.3e} > {MAX_BC_RESIDUAL:g}")
        final = {c: float(v[-1]) for c, v in state.history.items() if c != "t"}
        for column, value in (expected or {}).items():
            if not _rel_diff(final.get(column, math.nan), value) <= REL_TOL:
                problems.append(f"final {column} {final.get(column)!r} differs from "
                                f"{value!r} by more than {REL_TOL:g} relative")
        return problems, final

    def prepare(self) -> None:
        """A simulation from the reference seed's initial field, held to
        reference.json (it warms up every module too)."""
        try:
            self.system = phs.load_system(self.path)
            state = self._simulate(self._x0(self.system.n, REFERENCE_SEED))[0]
        except phs.PHSError as exc:
            self.outcome.raised("reference simulation", exc)
            return
        problems, self.reference_final = self._check(state, self.reference)
        self.outcome.record(problems)

    def job(self, k: int) -> dict:
        """One simulation; its parts are the set-up and every step, so the
        job's time leaves out the gauge readings between steps.  The first
        simulation of a run is the one the others must agree with."""
        try:
            if self.system is None:
                self.system = phs.load_system(self.path)
            state, setup, steps, fresh = self._simulate(self._x0(self.system.n, self.seed))
        except phs.PHSError as exc:
            self.outcome.raised("simulation", exc)
            return {"parts": [], "stepping": [], "systems": 0, "components": 0, "failed": True}
        problems, final = self._check(state, self.final)
        self.outcome.record(problems)
        if self.final is None:
            self.final = final
        self.samples["setup"].append([setup])
        self.samples["step"].append(fresh)
        return {"parts": [setup] + steps, "stepping": steps, "systems": 1,
                "components": (self.config.nx + 1) * self.system.n * len(steps),
                "records": len(state.history["t"]), "steps": len(steps)}

    def segment(self, kind: str) -> None:
        if self.system is not None:
            self.samples[kind].append(_classify_segment([self.system], self.outcome, self.gauge))

    def finish(self) -> None:
        pass

    def result_values(self) -> dict:
        return {"final": self.final, "reference_final": self.reference_final, "config": {
            "nx": self.config.nx, "t_final": self.config.t_final,
            "record_every": self.config.record_every, "p_norms": list(self.config.p_norms)}}


def make_workload(name: str, root: Path, seed: int, reference: dict, gauge):
    if name == "campaign":
        return CampaignWorkload(seed, reference, gauge)
    if name == "sim-network":
        return SimWorkload(root / "fixtures" / "network_three_lines.json",
                           NETWORK_CONFIG, seed, reference, gauge)
    if name == "sim-string":
        return SimWorkload(root / "fixtures" / "string_stiffening.json",
                           STRING_CONFIG, seed, reference, gauge)
    raise ValueError(f"unknown workload {name!r}")

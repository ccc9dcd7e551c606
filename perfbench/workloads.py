"""The four workloads: inputs made from the seed, one pass of user work, and
the checks run on that pass's outputs.

A pass does the same work every time it runs within a process.  ``run``
returns the pass's outputs and does nothing else; ``check`` compares them with
the independent computations in ``checks`` and returns the number of
borderline cases it counted instead of compared.  ``REFERENCE`` names the
reference kernel (see run.py) whose kind of work dominates the pass.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

import checks
from tracing import VERIFY_SUITES
from stochadd import cli, julia, machine, spectrum
from stochadd.numeration import parse_base_spec, parse_probs_spec

WINDOW = (-1.6, 1.6, -1.6, 1.6)
RENDER_THREADS = 2  # what `stochadd render` uses by default on 2 cores
VERIFY_PRESETS = ("fig3a", "fig4a", "fig6a", "fig8a", "fig10a")

# Configurations: base spec, probability spec (the presets as in the gallery).
PRESETS = {
    "fig3a": ("const:3", "plist:0.7;tail=1"),
    "fig6a": ("even", "pconst:0.8"),
    "fig8a": ("fib", "pconst:0.55"),
    "fig10a": ("periodic:3,5", "pconst:0.7"),
    "unit": ("const:2", "pconst:1"),
}


def _system(base_spec: str, probs_spec: str) -> julia.FiberedSystem:
    return julia.FiberedSystem(parse_base_spec(base_spec), parse_probs_spec(probs_spec))


class Operator:
    """Truncated operators for three base kinds, their stochasticity reports,
    and a simulated path.  Every probability is below 1, so every row has its
    full set of targets."""

    REFERENCE = "interpreter"

    BASES = ("const:3", "periodic:3,5", "even")
    PROBS = "plist:0.7,0.85,0.6;tail=0.75"
    N_STATES = 3072
    SIM_BASE = "const:3"
    SIM_STEPS = 20_000
    SAMPLE_ROWS = 48

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.probs = parse_probs_spec(self.PROBS)
        self.bases = [(spec, parse_base_spec(spec)) for spec in self.BASES]
        picked = rng.choice(self.N_STATES - 1, self.SAMPLE_ROWS, replace=False)
        self.sample_rows = sorted(int(n) for n in picked) + [self.N_STATES - 1]
        self.sim_seed = int(rng.integers(2**31))
        self.sim_base = parse_base_spec(self.SIM_BASE)

    def run(self, tracer=None):
        out = []
        for spec, base in self.bases:
            mat = machine.build_matrix(self.N_STATES, base, self.probs)
            csr = mat.to_csr()
            report = machine.column_sum_report(mat)
            # The stochasticity verdict as `stochadd matrix` prints it.
            mask = mat.unclipped_mask()
            row_dev = max(abs(row.total() - 1.0) for row in mat.rows if mask[row.source])
            col_dev = max(abs(total - 1.0) for _, total, complete in report if complete)
            out.append((spec, mat.clipped_rows, csr, report, row_dev, col_dev))
        traj = machine.simulate(self.sim_base, self.probs, 0, self.SIM_STEPS, self.sim_seed)
        return out, traj

    def check(self, outputs) -> int:
        mats, traj = outputs
        p = checks.prob_seq(self.PROBS)
        for spec, clipped, csr, report, row_dev, col_dev in mats:
            checks.require(row_dev <= 1e-12 and col_dev <= 1e-12,
                           f"{spec}: program reports row_dev={row_dev} col_dev={col_dev}")
            checks.check_operator(csr, clipped, report, checks.base_seq(spec), p,
                                  self.sample_rows)
        checks.check_trajectory(traj.states, 0, self.SIM_STEPS,
                                checks.base_seq(self.SIM_BASE), p)
        return 0


class Gallery:
    """`stochadd render` at 512x512, depth 200, for one preset of each base
    kind, plus the unit-disk case; PGM/PBM/meta go to the work directory."""

    REFERENCE = "vector"

    RENDERS = (("fig3a", 512), ("fig6a", 512), ("fig8a", 512), ("fig10a", 512),
               ("unit", 256))
    DEPTH = 200
    SAMPLE_PIXELS = 32

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.jobs = []
        for name, res in self.RENDERS:
            base_spec, probs_spec = PRESETS[name]
            sample = rng.integers(0, res, size=(self.SAMPLE_PIXELS, 2))
            self.jobs.append((name, res, base_spec, probs_spec,
                              _system(base_spec, probs_spec), sample))

    def run(self, tracer=None):
        out = []
        for name, res, base_spec, probs_spec, sysm, _ in self.jobs:
            grid = julia.render(sysm, WINDOW, (res, res), self.DEPTH, threads=RENDER_THREADS)
            prefix = str(self.workdir / name)
            julia.write_pgm(grid, prefix + ".pgm")
            julia.write_pbm(grid, prefix + ".pbm")
            julia.write_metadata(grid, prefix + ".meta", base_spec, probs_spec)
            out.append(grid)
        return out

    def check(self, grids) -> int:
        borderline = 0
        for grid, (name, res, base_spec, probs_spec, _, sample) in zip(grids, self.jobs,
                                                                       strict=True):
            checks.require(grid.escaped.shape == (res, res), f"{name}: grid shape")
            prefix = self.workdir / name
            borderline += checks.check_render(
                grid.escaped, grid.stage, WINDOW, self.DEPTH, checks.base_seq(base_spec),
                checks.prob_seq(probs_spec), sample, prefix.with_suffix(".pgm"),
                prefix.with_suffix(".pbm"))
            if name == "unit":
                borderline += checks.check_unit_disk(grid.escaped, WINDOW)
        return borderline


class Spectrum:
    """Point spectrum to a fixed depth, all roots, eigenpair verification of a
    seeded sample of roots at the largest level <= 2048 states, and boundary
    density against a band-depth render."""

    REFERENCE = "interpreter"

    DEPTHS = (("fig3a", 8), ("fig6a", 5), ("fig8a", 5), ("fig10a", 7))
    MAX_STATES = 2048
    EIGEN_SAMPLE = 24
    MP_SAMPLE = 8
    BAND_RES = (256, 256)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.jobs = []
        for name, depth in self.DEPTHS:
            base_spec, probs_spec = PRESETS[name]
            d = checks.base_seq(base_spec)
            roots = checks.level_size(d, depth)
            k = 1
            while checks.level_size(d, k + 1) <= self.MAX_STATES:
                k += 1
            eigen_pick = rng.choice(roots, self.EIGEN_SAMPLE, replace=False)
            mp_pick = rng.choice(roots, self.MP_SAMPLE, replace=False)
            self.jobs.append((name, depth, base_spec, probs_spec, _system(base_spec, probs_spec),
                              checks.level_size(d, k), eigen_pick, mp_pick))

    def run(self, tracer=None):
        out = []
        for name, depth, _, _, sysm, n_states, eigen_pick, _ in self.jobs:
            ps = spectrum.point_spectrum(sysm, depth)
            roots = ps.all_roots()
            eig = spectrum.verify_eigenpairs(sysm, roots[eigen_pick], n_states)
            band = julia.render(sysm, WINDOW, self.BAND_RES, julia.band_depth(self.BAND_RES),
                                threads=RENDER_THREADS)
            density = spectrum.boundary_density(band, list(ps.levels))
            out.append((ps, roots, eig, density))
        return out

    def check(self, outputs) -> int:
        for (ps, roots, eig, density), job in zip(outputs, self.jobs, strict=True):
            name, depth, base_spec, probs_spec, _, _, eigen_pick, mp_pick = job
            checks.require(not ps.capped and len(ps.levels) == depth, f"{name}: levels")
            checks.check_spectrum([level.roots for level in ps.levels], roots,
                                  checks.base_seq(base_spec), checks.prob_seq(probs_spec),
                                  mp_pick)
            checks.require(eig.ok and len(eig.residuals) == len(eigen_pick),
                           f"{name}: eigenpair residual {eig.max_residual}")
            sup_dist, coverage = density
            checks.require(np.isfinite(sup_dist) and 0.0 <= coverage <= 1.0,
                           f"{name}: boundary density {density}")
        return 0


class Verify:
    """`stochadd verify --suite all` over the five default presets, in-process
    through cli.main.  Traced passes call each suite on its own so that each
    gets its own span."""

    REFERENCE = "interpreter"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def run(self, tracer=None):
        buf = io.StringIO()
        codes = []
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                codes.append(cli.main(["verify", "--suite", "all", "--seed", str(self.seed)]))
            else:
                for suite in VERIFY_SUITES:
                    with tracer.span(f"cli.verify.{suite}"):
                        codes.append(cli.main(["verify", "--suite", suite,
                                               "--seed", str(self.seed)]))
        return codes, buf.getvalue()

    def check(self, outputs) -> int:
        codes, text = outputs
        checks.check_verify_output(codes, text, VERIFY_SUITES, VERIFY_PRESETS)
        return 0


WORKLOADS = {"operator": Operator, "gallery": Gallery, "spectrum": Spectrum, "verify": Verify}

"""Command-line front end.

Subcommands: digits, matrix, render, roots, verify, simulate, report.  Exit
codes: 0 success, 1 check failure, 2 usage or parse error, 3 any other error
(the traceback goes to stderr).  All output is deterministic given flags and
seed; floats print with 17 significant digits.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys as _sys
import traceback

import numpy as np

from . import julia, machine, spectrum
from .julia import DEFAULT_DEPTH, DEFAULT_WINDOW, FiberedSystem
from .numeration import (
    SpecError,
    counter,
    from_digits,
    largest_level,
    parse_base_spec,
    parse_probs_spec,
    successor,
    to_digits,
)

# Named configurations for the rendered set gallery: base spec, probs spec.
PRESETS = {
    "fig3a": ("const:3", "plist:0.7;tail=1"),
    "fig3b": ("const:3", "plist:0.5;tail=1"),
    "fig3c": ("const:3", "plist:0.4;tail=1"),
    "fig4a": ("const:3", "plist:0.8,0.8,0.8;tail=1"),
    "fig4b": ("const:3", "plist:0.7,0.7,0.7;tail=1"),
    "fig4c": ("const:3", "plist:0.6,0.6,0.6;tail=1"),
    "fig5a": ("even", "plist:0.55,1,0.5;tail=0.55"),
    "fig5b": ("even", "plist:0.55,1;tail=0.55"),
    "fig5c": ("even", "plist:1;tail=0.55"),
    "fig6a": ("even", "pconst:0.8"),
    "fig6b": ("even", "pconst:0.6"),
    "fig6c": ("even", "pconst:0.52"),
    "fig7a": ("fib", "plist:0.55,1,0.5;tail=0.55"),
    "fig7b": ("fib", "plist:0.55,1;tail=0.55"),
    "fig7c": ("fib", "plist:1;tail=0.55"),
    "fig8a": ("fib", "pconst:0.55"),
    "fig8b": ("fib", "pconst:0.81"),
    "fig8c": ("fib", "pconst:0.61"),
    "fig9a": ("periodic:3,5", "plist:0.55,0.9;tail=0.55"),
    "fig9b": ("periodic:3,5", "plist:0.695,1;tail=0.695"),
    "fig9c": ("periodic:3,5", "plist:0.55,0.95,0.95,0.95;tail=0.55"),
    "fig10a": ("periodic:3,5", "pconst:0.7"),
    "fig10b": ("periodic:3,5", "pconst:0.704"),
    "fig10c": ("periodic:3,5", "pconst:0.8"),
}

VERIFY_DEFAULT_PRESETS = ("fig3a", "fig4a", "fig6a", "fig8a", "fig10a")
BASE_HELP = "base spec, e.g. const:3, periodic:3,5, list:2,3,4;tail=4, even, fib"


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    """A printed value: floats with 17 significant digits, bools in lower case."""
    if isinstance(x, bool):
        return str(x).lower()
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _configs(args, defaults=()) -> list[tuple[str, str, str]]:
    """The (name, base spec, probs spec) configurations a run uses: the
    ``--preset`` alone, or ``--base`` with ``--probs`` (named "custom"), or
    ``defaults`` when none of the three is given."""
    preset, base, probs = args.preset, args.base, args.probs
    if base is None and probs is None:
        if preset is not None:
            return [(preset, *PRESETS[preset])]
        if defaults:
            return [(name, *PRESETS[name]) for name in defaults]
    elif preset is None and base is not None and probs is not None:
        return [("custom", base, probs)]
    raise UsageError("use --preset alone, or --base with --probs")


def _system(args) -> tuple[FiberedSystem, str, str]:
    [(_, base_spec, probs_spec)] = _configs(args)
    sysm = FiberedSystem(parse_base_spec(base_spec), parse_probs_spec(probs_spec))
    return sysm, base_spec, probs_spec


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_digits(args) -> int:
    base = parse_base_spec(args.base)
    dv = to_digits(args.n, base)
    succ = from_digits(successor(dv))
    digits = ",".join(str(a) for a in dv.digits)
    print(f"digits={digits} counter={counter(dv)} succ={succ}")
    return 0


def cmd_matrix(args) -> int:
    sysm, base_spec, probs_spec = _system(args)
    mat = machine.build_matrix(args.n, sysm.base, sysm.probs)
    if args.out:
        machine.write_matrix_coordinate(mat, args.out)
    row_dev, col_dev = machine.stochasticity_deviation(mat)
    ok = row_dev <= 1e-12 and col_dev <= 1e-12
    print(f"states={mat.dim} clipped={len(mat.clipped_rows)}")
    print(f"row_sum_max_dev={_fmt(row_dev)}")
    print(f"complete_column_max_dev={_fmt(col_dev)}")
    print(f"result={'pass' if ok else 'fail'}")
    return 0 if ok else 1


def _parse_window(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("window must be re_min,re_max,im_min,im_max")
    try:
        win = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad window {text!r}") from exc
    if not all(map(math.isfinite, (*win, win[1] - win[0], win[3] - win[2]))):
        raise UsageError("window bounds, width and height must be finite")
    if not (win[1] > win[0] and win[3] > win[2]):
        raise UsageError("window has zero area")
    return win


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    kind = {0: "a non-negative integer", 1: "a positive integer"}.get(low, f"an integer >= {low}")

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            pass
        else:
            if value >= low:
                return value
        raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}")
    return parse


def _parse_resolution(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        res = (int(w), int(h))
    except ValueError as exc:
        raise UsageError(f"bad resolution {text!r} (expected WxH)") from exc
    if res[0] < 1 or res[1] < 1:
        raise UsageError("resolution must be positive")
    return res


def cmd_render(args) -> int:
    sysm, base_spec, probs_spec = _system(args)
    window = _parse_window(args.window)
    resolution = _parse_resolution(args.res)
    grid = julia.render(sysm, window, resolution, args.depth)
    prefix = args.out
    julia.write_pgm(grid, prefix + ".pgm")
    julia.write_pbm(grid, prefix + ".pbm")
    julia.write_metadata(grid, prefix + ".meta", base_spec, probs_spec)
    bounded = int((~grid.escaped).sum())
    print(f"bounded_pixels={bounded} escaped_pixels={grid.escaped.size - bounded}")
    return 0


def cmd_roots(args) -> int:
    sysm, _, _ = _system(args)
    ps = spectrum.point_spectrum(sysm, args.depth, cap=args.cap)
    if args.out:
        spectrum.write_roots_csv(ps, args.out)
    total = sum(len(level.roots) for level in ps.levels)
    print(f"levels={len(ps.levels)} roots={total} capped={_fmt(ps.capped)}")
    return 0


def cmd_simulate(args) -> int:
    sysm, _, _ = _system(args)
    traj = machine.simulate(sysm.base, sysm.probs, args.start, args.steps, args.seed)
    if args.out:
        machine.write_trajectory_csv(traj, args.out)
    else:
        _sys.stdout.write("step,state\n")
        for step, state in enumerate(traj.states):
            _sys.stdout.write(f"{step},{state}\n")
    return 0


# ---------------------------------------------------------------------------
# Verify suites
# ---------------------------------------------------------------------------


def _suite_stochasticity(sysm: FiberedSystem, seed: int) -> tuple[bool, str]:
    n = largest_level(sysm.base, 2500)
    mat = machine.build_matrix(n, sysm.base, sysm.probs)
    row_dev, col_dev = machine.stochasticity_deviation(mat)
    ok = row_dev <= 1e-12 and col_dev <= 1e-12
    return ok, f"n={n} row_dev={row_dev:.17g} col_dev={col_dev:.17g}"


# States of the fine matrix that the renorm suite may build densely (several
# n1 x n1 arrays); the presets need at most 60.
RENORM_STATES = 2048


def _suite_renorm(sysm: FiberedSystem, seed: int) -> tuple[bool, str]:
    d = sysm.stages(2)[0]
    n2 = 4 * d[2]
    n1 = d[1] * n2
    if n1 > RENORM_STATES:
        raise ValueError(f"renorm needs {n1} fine states, over {RENORM_STATES}")
    rep = machine.renorm_check(1, n2, sysm.base, sysm.probs)
    ok = rep.max_diff() <= 1e-12
    return ok, f"n2={n2} max_diff={rep.max_diff():.17g}"


def _suite_eigenpairs(sysm: FiberedSystem, seed: int) -> tuple[bool, str]:
    ps = spectrum.point_spectrum(sysm, 2, cap=4000)
    n = largest_level(sysm.base, 1024)
    roots = ps.all_roots()
    rep = spectrum.verify_eigenpairs(sysm, roots, n, tol=1e-9)
    return rep.ok, f"n={n} roots={len(roots)} max_resid={rep.max_residual:.17g}"


def _escape_samples(seed: int) -> np.ndarray:
    """2000 parameters uniform on [-2, 2]^2, drawn as (re, im) pairs."""
    return np.random.default_rng(seed).uniform(-2, 2, size=(2000, 2)).view(complex).ravel()


def _suite_escape(sysm: FiberedSystem, seed: int) -> tuple[bool, str]:
    lams = _escape_samples(seed)
    tight, _ = julia._render_band(sysm, lams, DEFAULT_DEPTH)
    loose, _ = julia._render_band(sysm, lams, DEFAULT_DEPTH, bailout=1e6)
    mismatches = int((tight != loose).sum())
    return mismatches == 0, f"samples={lams.size} mismatches={mismatches}"


def _suite_witness(sysm: FiberedSystem, seed: int) -> tuple[bool, str]:
    n = largest_level(sysm.base, 1024)
    mat = machine.build_matrix(n, sysm.base, sysm.probs)
    csr = mat.to_csr()
    lams = spectrum.sample_bounded(sysm, 10, depth=DEFAULT_DEPTH, seed=seed)
    slack = [spectrum.eigen_residuals(mat, csr, lams, julia.witnesses(sysm, lams, t, n))
             - (3.0 * sysm.probs.prefix_product(t) + 1e-12) for t in range(1, 5)]
    # np.max, unlike max, propagates a NaN residual, which then fails the check.
    worst_slack = float(np.max(slack))
    return worst_slack <= 0.0, f"n={n} worst_over_bound={worst_slack:.17g}"


# Draws from the square [-1, 1]^2 the factorization suite may spend on its 100
# bounded cases, counting those outside the unit disk that it rejects; the
# presets need at most 5 255 (fig8a) over seeds 0-20.
FACTORIZATION_DRAWS = 100_000

# What lam, formed from the words at an offset, does in the factorization walk.
_INSIDE, _OUTSIDE, _ESCAPES = 0, 1, 2
_LOW = 0xFFFF_FFFF


def _draw_tables(sysm: FiberedSystem, words: np.ndarray):
    """The factorization draws that raw 64-bit ``words`` can give, by arrays.

    - ``codes``: per offset j < len(words) - 1, what lam formed from words j
      and j + 1 does.  ``_OUTSIDE``: abs(lam) > 1.  ``_ESCAPES``:
      ``julia._bounded_stage_values`` returns None by stage 2 without raising,
      which it then does for every r >= 2.  ``_INSIDE``: anything else, for
      the scalar loop to decide; that includes a modulus that makes ``abs``
      raise ``OverflowError``, so the scalar loop raises it.
    - ``rs``: per half-word (the low half of word j at 2j, the high half at
      2j + 1), 2 plus the top 32 bits of half * 11, which is r if Lemire's
      first try for ``integers(2, 13)`` takes that half, or 0 if it rejects it.
    - ``halves``: the half-words, as a memoryview of uint32.
    - ``parts``: the double -1 + 2u of each word, as a memoryview of float64.

    Stages 1 and 2 run through ``julia``'s array kernel (``_c_rescale``,
    ``_c_pow``, ``_c_abs``), so each code is decided on the bits that the
    scalar stage loop computes.
    """
    parts = -1.0 + 2.0 * ((words >> 11).astype(np.float64) * 2**-53)
    x, y = parts[:-1], parts[1:]
    live = julia._c_abs(x, y) <= 1.0  # lam has no NaN part
    codes = np.where(live, _INSIDE, _OUTSIDE).astype(np.uint8)
    d, p, c = sysm.stages(2)
    with np.errstate(over="ignore", invalid="ignore"):
        for r in (1, 2):
            x, y = julia._c_pow(*julia._c_rescale(x, y, p[r], c[r]), d[r])
            mod = julia._c_abs(x, y)
            fine = mod <= 1.0
            out = live & ~fine
            live &= fine
            over = mod == np.inf
            if over.any():
                out &= ~(over & np.isfinite(x) & np.isfinite(y))
            codes[out] = _ESCAPES
    # Read little-endian, each word gives its low half, which next_uint32
    # takes first, then its high half.
    halves = words.astype("<u8", copy=False).view("<u4")
    m = halves * np.uint64(11)
    rs = ((m >> 32) + 2).astype(np.uint8)
    rs[m & _LOW < (2**32 - 11) % 11] = 0
    return codes.tobytes(), rs.tobytes(), memoryview(halves), memoryview(parts)


def _factorization_cases(sysm: FiberedSystem, blocks, count: int):
    """The first ``count`` bounded cases (lam, r, k, stage values) that the
    raw words of ``blocks``, an iterator of uint64 arrays, give.

    The walk takes the words in stream order, as ``_suite_factorization``
    describes.  Each block is appended to the words left of the last one (at
    most one) and tabled by ``_draw_tables``.  A draw whose lam is
    ``_OUTSIDE`` or ``_ESCAPES`` is decided by its code; only the others go
    through ``julia._bounded_stage_values``, which decides every kept case.
    An integer is Lemire's multiply-and-reject over PCG64's ``next_uint32``:
    the low half of a fresh word, whose high half (with its ``rs`` entry) is
    kept for the next integer, across blocks too.  r reads ``rs``, and a
    rejected first try goes on as any integer does; a span of 1 (k when
    r = 2) takes no half.
    """
    words = np.zeros(0, dtype=np.uint64)
    size = at = 0  # ``at``: index in ``words`` of the next word to take
    codes = rs = halves = parts = None
    kept_half = None  # (value, ``rs`` entry) of the high half of the last word halved
    kept = 0

    def refill():
        nonlocal words, size, at, codes, rs, halves, parts
        words = np.concatenate((words[at:], next(blocks)))
        size, at = len(words), 0
        codes, rs, halves, parts = _draw_tables(sysm, words)

    def half() -> tuple[int, int]:
        """PCG64's next_uint32, with its ``rs`` entry."""
        nonlocal at, kept_half
        if kept_half is not None:
            out, kept_half = kept_half, None
            return out
        while at == size:
            refill()
        j = 2 * at
        at += 1
        kept_half = halves[j + 1], rs[j + 1]
        return halves[j], rs[j]

    def bounded(value: int, span: int) -> int:
        """Lemire's multiply-and-reject from the half ``value`` on."""
        threshold = (2**32 - span) % span
        m = value * span
        while m & _LOW < threshold:
            m = half()[0] * span
        return m >> 32

    for _ in range(FACTORIZATION_DRAWS):
        while at + 2 > size:
            refill()
        code = codes[at]
        if code == _INSIDE:
            lam = complex(parts[at], parts[at + 1])
        at += 2
        if code == _OUTSIDE:
            continue
        value, r = half()
        if not r:
            r = 2 + bounded(value, 11)
        if code == _ESCAPES:
            continue
        vals = julia._bounded_stage_values(sysm, lam, r)
        if vals is None:
            continue
        k = 1 if r == 2 else 1 + bounded(half()[0], r - 1)
        kept += 1
        yield lam, r, k, vals
        if kept == count:
            return
    raise ValueError(f"{FACTORIZATION_DRAWS} draws gave {kept} of {count} bounded cases")


def _suite_factorization(sysm: FiberedSystem, seed: int) -> tuple[bool, str]:
    """The telescoped stage-value identity at 100 bounded cases (lam, r, k).

    The draws are those of ``rng = np.random.default_rng(seed)``:
    ``lam = complex(*rng.uniform(-1, 1, size=2))``, rejected outside the unit
    disk; ``r = rng.integers(2, 13)``, rejected when lam escapes by stage r;
    then ``k = rng.integers(1, r)``.  They are replayed from the raw words of
    its bit generator, 1 024 at a time (``_factorization_cases``): a
    ``Generator`` call per draw would take most of the suite's time, more
    than its stage arithmetic.  The replay applies ``Generator``'s rules: a
    double is ``(w >> 11) * 2**-53`` of a fresh word w, and
    ``uniform(-1, 1)`` is ``-1 + 2u`` of it, where 2u is exact; an integer
    is Lemire's multiply-and-reject over PCG64's ``next_uint32``.  numpy
    keeps the raw streams of its bit generators stable, so these are the
    same words in the same order as the calls themselves would take; the
    tests compare the replay with the installed ``Generator``."""
    bitgen = np.random.default_rng(seed).bit_generator
    blocks = (bitgen.random_raw(1024) for _ in itertools.count())
    resids = [julia._factorization_residual(sysm, vals, r, k)
              for _, r, k, vals in _factorization_cases(sysm, blocks, 100)]
    # np.max, unlike max, propagates a NaN residual, which then fails the check.
    worst = float(np.max(resids))
    return worst < 1e-9, f"cases={len(resids)} worst_resid={worst:.17g}"


def _suite_transient(sysm: FiberedSystem, seed: int) -> tuple[bool, str]:
    reason = spectrum.transient_skip_reason(sysm.probs)
    if reason is not None:
        return True, f"skipped ({reason})"
    grid = julia.render(sysm, DEFAULT_WINDOW, (192, 192), DEFAULT_DEPTH)
    rep = spectrum.transient_limit_check(sysm, grid, sample_count=12, r_probe=60,
                                         seed=seed)
    return rep.ok, (f"interior_max={rep.interior_max_mod:.17g} "
                    f"boundary_min={rep.boundary_min_mod:.17g} "
                    f"boundary_max={rep.boundary_max_mod:.17g}")


_SUITE_FUNCS = {
    "stochasticity": _suite_stochasticity,
    "renorm": _suite_renorm,
    "eigenpairs": _suite_eigenpairs,
    "escape": _suite_escape,
    "witness": _suite_witness,
    "factorization": _suite_factorization,
    "transient": _suite_transient,
}
VERIFY_SUITES = (*_SUITE_FUNCS, "all")


def cmd_verify(args) -> int:
    suites = list(_SUITE_FUNCS) if args.suite == "all" else [args.suite]
    failures = 0
    report_lines = []
    for name, base_spec, probs_spec in _configs(args, VERIFY_DEFAULT_PRESETS):
        sysm = FiberedSystem(parse_base_spec(base_spec), parse_probs_spec(probs_spec))
        for suite in suites:
            try:
                ok, detail = _SUITE_FUNCS[suite](sysm, args.seed)
            except (ValueError, OverflowError) as exc:
                ok, detail = False, f"error={exc}"
                fields = [detail]
            else:
                # Detail values hold no space, and a skip note holds no "=".
                fields = [tok for tok in detail.split() if "=" in tok]
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} {suite} {name} {detail}")
            report_lines += [f"{suite}.{name}.{field}"
                             for field in (f"result={'pass' if ok else 'fail'}", *fields)]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(report_lines) + "\n")
    return 0 if failures == 0 else 1


def cmd_report(args) -> int:
    sysm, base_spec, probs_spec = _system(args)
    rep = spectrum.classify_spectrum(sysm, args.depth, resolution=args.resolution,
                                     seed=args.seed)
    fields = {"base": base_spec, "probs": probs_spec, "regime": rep.regime,
              "claimed_spectrum": rep.claimed_spectrum, **rep.evidence, "ok": rep.ok}
    print("\n".join(f"{key}={_fmt(value)}" for key, value in fields.items()))
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochadd",
        description="Stochastic adding machines over mixed-radix bases: "
                    "matrices, escape-time sets, spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand takes only the shared options that it reads.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--base", help=BASE_HELP)
    config.add_argument("--probs", help="probability spec, e.g. pconst:0.7, "
                                        "plist:0.7,1;tail=0.55, pgeo:c=0.25,gamma=0.5")
    config.add_argument("--preset", choices=PRESETS, metavar="NAME",
                        help="named configuration (fig3a..fig10c)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_int_at_least(0), default=0)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output path")

    p = sub.add_parser("digits", help="digit expansion of an integer")
    p.add_argument("n", type=_int_at_least(0))
    p.add_argument("--base", required=True, help=BASE_HELP)
    p.set_defaults(func=cmd_digits)

    p = sub.add_parser("matrix", parents=[config, out], help="truncated transition matrix")
    p.add_argument("--n", type=_int_at_least(2), required=True, help="number of states")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("render", parents=[config], help="escape-time membership grid")
    p.add_argument("--out", required=True, help="output prefix (.pgm, .pbm, .meta)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored, so that older command lines still "
                        "run; the render runs on one thread")
    p.add_argument("--window", default=",".join(str(x) for x in DEFAULT_WINDOW))
    p.add_argument("--res", default="512x512")
    p.add_argument("--depth", type=_int_at_least(1), default=DEFAULT_DEPTH)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("roots", parents=[config, out], help="point-spectrum roots CSV")
    p.add_argument("--depth", type=_int_at_least(1), required=True)
    p.add_argument("--cap", type=_int_at_least(1), default=spectrum.ROOT_CAP)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("verify", parents=[config, seed, out], help="run verification suites")
    p.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", parents=[config, seed, out], help="sample a trajectory")
    p.add_argument("--start", type=_int_at_least(0), default=0)
    p.add_argument("--steps", type=_int_at_least(0), required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", parents=[config, seed],
                       help="spectrum regime and its numerical evidence")
    p.add_argument("--depth", type=_int_at_least(1), default=4, help="root enumeration depth")
    p.add_argument("--resolution", type=_int_at_least(1), default=256,
                   help="side of the square render grids")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, UsageError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

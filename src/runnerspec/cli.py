"""Command-line interface: every capability behind one executable.

All numeric output is exact-first: rationals print as "p/q" with a
12-significant-digit decimal marked as approximate.  Outputs are byte
identical across runs and across worker counts; progress and timing
chatter goes to stderr only.  Exit codes: 0 success, 1 verification
failure, 2 a usage error, an ``InvalidInput`` (bad arguments, tuples or
file contents) or a file that cannot be read or written.  Any other
exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import tempfile
import time
from fractions import Fraction
from typing import List, Optional, Sequence

from .core import InvalidInput, format_rational, parse_rational
from .lattice import (
    DEFAULT_PI_BOUNDS,
    REFINED_PI_BOUNDS,
    PiPower,
    certificate_profile,
    d_subtorus2,
    kronecker_lift,
    lift_volume_threshold,
    lrc_threshold,
    named_constants,
    threshold_below_power_bound,
)
from .loneliness import SpeedTuple, coset_center_distance, max_loneliness
from .subgroups import FiniteCyclicSubgroup, d_finite_cyclic
from .spectrum import (
    WINDOW_MODES,
    EnumerationSpec,
    SpectrumTable,
    _atomic_write,
    accumulation_report,
    build_spectrum,
    certify_absence,
    enumerate_proper_primitive,
    multiplicity_report,
    verify_closed_form_s2,
    verify_family_fan_sun,
    verify_window,
)

def _fmt(x: Fraction) -> str:
    return f"{format_rational(x)} (approx {float(x):.12g})"


def _fmt_pipower(p: PiPower) -> str:
    c = format_rational(p.coefficient)
    if p.pi_power == 0:
        exact = c
    elif p.pi_power == 1:
        exact = f"{c}*pi"
    elif p.pi_power == -1:
        exact = f"{c}/pi"
    else:
        exact = f"{c}*pi^{p.pi_power}"
    return f"{exact} (approx {p.decimal():.12g})"


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _check_writable(*paths: Optional[str]) -> None:
    """Raise, before any work, the OSError that writing a path would raise.

    Each path must not be a directory, and its directory must exist and
    take a new file.
    """
    for path in filter(None, paths):
        try:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            tempfile.TemporaryFile(dir=os.path.dirname(path) or ".").close()
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from None


def _run_ml(ns) -> int:
    result = max_loneliness(tuple(ns.speeds))
    print(f"ml = {_fmt(result.ml)}")
    print(f"witness_time = {_fmt(result.witness_time)}")
    print(f"d = {_fmt(result.d_value)}")
    return 0


def _run_dist_cyclic(ns) -> int:
    group = FiniteCyclicSubgroup(tuple(parse_rational(c) for c in ns.coords))
    d = d_finite_cyclic(group)
    print(f"order = {group.order}")
    print(f"d = {_fmt(d)}")
    return 0


def _run_dist_line(ns) -> int:
    speeds = tuple(ns.speeds)
    SpeedTuple(speeds)  # validates nonzero entries and primitivity
    if ns.shift is not None:
        if len(ns.shift) != len(speeds):
            raise InvalidInput("shift needs one rational per coordinate")
        shift = tuple(parse_rational(c) for c in ns.shift)
    else:
        shift = tuple(Fraction(0) for _ in speeds)
    d, t = coset_center_distance(speeds, shift, with_witness=True)
    print(f"d = {_fmt(d)}")
    print(f"witness_time = {_fmt(t)}")
    return 0


def _run_dist_plane(tokens: Sequence[str]) -> int:
    """Manual parser: `dist plane <u ints> -- <v ints>`; d_subtorus2 bounds its work."""
    u: List[int] = []
    v: List[int] = []
    current = u
    for tok in tokens:
        if tok == "--":
            if current is v:
                raise InvalidInput("only one -- separator is allowed")
            current = v
        elif tok in ("-h", "--help"):
            print("usage: runnerspec dist plane <u ints> -- <v ints>")
            print("Exact center distance of the plane closure spanned by u and v.")
            return 0
        else:
            current.append(_int(tok))
    if not u or not v:
        raise InvalidInput("usage: dist plane <u ints> -- <v ints>")
    d = d_subtorus2(tuple(u), tuple(v))
    print(f"d = {_fmt(d)}")
    return 0


def _run_lift(ns) -> int:
    _check_writable(ns.out)
    cert = kronecker_lift(tuple(ns.v), parse_rational(ns.eps))
    print(f"inner_direction = {tuple(cert.inner_direction)}")
    print(f"shortest_offset = {tuple(cert.shortest_offset)}")
    print(
        "outer_plane_basis = "
        f"{tuple(cert.outer_plane.basis_u)} {tuple(cert.outer_plane.basis_v)}"
    )
    print(f"covolume_sq = {cert.outer_plane.covolume_sq}")
    print(f"delta_sq = {_fmt(cert.delta_sq)}")
    print(f"epsilon = {format_rational(cert.epsilon)}")
    print(f"guaranteed = {cert.guaranteed}")
    if ns.check:
        profile = certificate_profile(cert)
        print(f"spacing_identity_ok = {profile.spacing_identity_ok}")
        print(f"max_sample_sq = {_fmt(profile.max_sample_sq)}")
    if ns.out:
        _atomic_write(ns.out, json.dumps(cert.to_json_dict(), indent=2) + "\n")
        _note(f"certificate written to {ns.out}")
    return 0


def _run_constants(ns) -> int:
    pi_bounds = REFINED_PI_BOUNDS if ns.refined_pi else DEFAULT_PI_BOUNDS
    c = named_constants(
        ns.n,
        ns.k,
        parse_rational(ns.volume),
        parse_rational(ns.eps) if ns.eps else None,
        pi_bounds,
    )
    n, k = c.n, c.k
    lo, hi = c.lrc_threshold.bounds(pi_bounds)
    print(f"omega_{k} = {_fmt_pipower(c.omega_k)}")
    print(f"ell(k={k}, V={format_rational(c.volume)}) = {_fmt_pipower(c.ell_kV)}")
    print(
        f"c_star(n={n}, k={k}, eps={format_rational(c.epsilon)}) = "
        f"{_fmt_pipower(c.c_star)}"
    )
    print(f"lrc_threshold({n}) = {_fmt_pipower(c.lrc_threshold)}")
    print(f"lrc_threshold({n}) enclosure = [{format_rational(lo)}, {format_rational(hi)}]")
    print(f"lrc_threshold({n}) < n^(5n/2): {c.threshold_below_tao}")
    return 0


def _run_enumerate(ns) -> int:
    spec = EnumerationSpec(n=ns.n, max_volume_sq=ns.max_vol2)
    count = 0
    for t in enumerate_proper_primitive(spec):
        print(" ".join(str(c) for c in t))
        count += 1
    _note(f"{count} tuples")
    return 0


def _run_spectrum(ns) -> int:
    spec = EnumerationSpec(n=ns.n, max_volume_sq=ns.max_vol2)
    _check_writable(ns.out, ns.flat, ns.checkpoint)
    table = build_spectrum(
        spec,
        workers=ns.threads,
        checkpoint_path=ns.checkpoint,
        progress=_progress if ns.progress else None,
    )
    table.save_json(ns.out)
    if ns.flat:
        table.save_flat(ns.flat)
    print(
        f"keys = {len(table.entries)}"
        f"  total_multiplicity = {table.total_multiplicity()}"
        f"  max_key = {_fmt(table.max_key)}"
    )
    return 0


def _progress(done: int, total: int) -> None:
    _note(f"block {done}/{total}")


def _table_from_flags(ns) -> SpectrumTable:
    if getattr(ns, "table", None):
        return SpectrumTable.load_json(ns.table)
    if ns.n is None or ns.max_vol2 is None:
        raise InvalidInput("need --table FILE, or both --n and --max-vol2")
    return build_spectrum(
        EnumerationSpec(n=ns.n, max_volume_sq=ns.max_vol2), workers=ns.threads
    )


def _run_verify_s2(ns) -> int:
    table = _table_from_flags(ns)
    report = verify_closed_form_s2(table)
    print(f"keys = {len(table.entries)}")
    print(f"largest_key = {_fmt(report.largest_key)}")
    print(f"violations = {[format_rational(v) for v in report.violations]}")
    print(f"missing = {list(report.missing)}")
    print(f"passed = {report.passed}")
    return 0 if report.passed else 1


def _run_verify_fan_sun(ns) -> int:
    report = verify_family_fan_sun(ns.r_max)
    for check in report.checks if ns.verbose else report.checks[:1]:
        print(
            f"r = {check.r}: ml{check.speeds} = {format_rational(check.ml)}"
            f"  expected {format_rational(check.expected)}"
            f"  {'ok' if check.ok else 'MISMATCH'}"
        )
    print(f"checked = {len(report.checks)}")
    print(f"passed = {report.passed}")
    return 0 if report.passed else 1


def _run_verify_window(ns) -> int:
    table = _table_from_flags(ns)
    report = verify_window(table, mode=ns.mode)
    print(f"mode = {report.mode}")
    print(f"in_window = {report.in_window}  out_of_window = {report.out_of_window}")
    print(f"class_counts = {report.class_counts}")
    for v in report.violations:
        print(
            f"violation: ml = {format_rational(v.ml)}"
            f" (d = {format_rational(v.d)}), witnesses {list(v.witnesses)}"
        )
    print(f"passed = {report.passed}")
    return 0 if report.passed else 1


def _run_verify_prop81(ns) -> int:
    pi_bounds = REFINED_PI_BOUNDS if ns.refined_pi else DEFAULT_PI_BOUNDS
    cert = certify_absence(
        parse_rational(ns.target),
        3,
        ns.cutoff,
        pi_bounds=pi_bounds,
        progress=(lambda c: _note(f"checked {c}")) if ns.progress else None,
    )
    print(f"target = {format_rational(cert.target)}  n = {cert.n}")
    print(f"cutoff_volume_sq = {cert.cutoff_volume_sq}")
    print(
        f"phase_a: passed = {cert.phase_a_passed}"
        f"  checked = {cert.phase_a_checked}"
        f"  witness = {cert.phase_a_witness}"
    )
    print(
        f"phase_b: passed = {cert.phase_b_passed}"
        f"  rho = {format_rational(cert.rho)}"
        f"  density_lhs = {_fmt(cert.density_lhs)}"
        f"  cases_ok = {cert.cases_ok}"
    )
    print(f"passed = {cert.passed}")
    return 0 if cert.passed else 1


def _run_report_acc(ns) -> int:
    table = _table_from_flags(ns)
    targets = [parse_rational(t) for t in ns.targets.split(",")]
    rows = accumulation_report(table, targets, parse_rational(ns.window))
    for row in rows:
        print(
            f"target {format_rational(row.target)}:"
            f" above = {row.above_count}  below = {row.below_count}"
            f"  below_keys = {[format_rational(k) for k in row.below_keys]}"
        )
    return 0


def _run_report_mult(ns) -> int:
    table = _table_from_flags(ns)
    rows = multiplicity_report(table, ns.threshold)
    for row in rows:
        flag = "  [expected-unbounded]" if row.expected_unbounded else ""
        print(f"{format_rational(row.key)}: multiplicity {row.multiplicity}{flag}")
    print(f"rows = {len(rows)}")
    return 0


def _timed(label: str, fn):
    start = time.perf_counter()
    result = fn()
    _note(f"{label}: {time.perf_counter() - start:.1f}s")
    return result


# Each profile: (fan-sun r, n=2 bound, n=3 bounds, absence cutoff).
_REPRO_PROFILES = {
    "small": (10, 10**4, (10**3, 2 * 10**3, 4 * 10**3), 500),
    "full": (100, 10**6, (10**3, 10**4, 4 * 10**4), 199**2),
}


def _repro_steps(profile: str, tables):
    """Yield (manifest key, fields, holds) for each headline check."""
    fan_r, s2_bound, n3_bounds, cutoff = _REPRO_PROFILES[profile]
    fan = _timed(f"fan-sun r<={fan_r}", lambda: verify_family_fan_sun(fan_r))
    yield "fan_sun", {"r_max": fan_r, "passed": fan.passed}, fan.passed

    s2 = verify_closed_form_s2(tables[2, s2_bound])
    yield "s2_closed_form", {
        "max_volume_sq": s2_bound,
        "passed": s2.passed,
        "keys": len(tables[2, s2_bound].entries),
        "largest_key": format_rational(s2.largest_key),
    }, s2.passed

    low, mid, high = (tables[3, b] for b in n3_bounds)
    yield "n3_max_key", {
        "max_volume_sq": n3_bounds[1],
        "value": format_rational(mid.max_key),
    }, mid.max_key == Fraction(1, 4)

    window = verify_window(high, mode="strict")
    yield "window_n3", {
        "max_volume_sq": n3_bounds[2],
        "passed": window.passed,
        "in_window": window.in_window,
    }, window.passed

    cert = _timed(
        f"absence certificate 7/50 @ {cutoff}",
        lambda: certify_absence(Fraction(7, 50), 3, cutoff),
    )
    yield "prop81", {
        "cutoff_volume_sq": cutoff,
        "phase_a": cert.phase_a_passed,
        "phase_b": cert.phase_b_passed,
        "checked": cert.phase_a_checked,
        "density_lhs": format_rational(cert.density_lhs),
    }, cert.passed

    # Upper accumulation, two windows: nothing sits just below the family
    # points in a tight window, while the counts just above 1/6 grow with
    # the bound in the wider one.
    targets = [Fraction(1, 6), Fraction(1, 10), Fraction(1, 14)]
    below = accumulation_report(mid, targets, Fraction(1, 1000))
    yield "accumulation_below", {
        "max_volume_sq": n3_bounds[1],
        "window": "1/1000",
        "counts": {format_rational(row.target): row.below_count for row in below},
    }, all(row.below_count == 0 for row in below)
    above = [
        accumulation_report(t, [Fraction(1, 6)], Fraction(1, 100))[0].above_count
        for t in (low, mid)
    ]
    yield "accumulation_above_1_6", {
        "window": "1/100",
        f"at_{n3_bounds[0]}": above[0],
        f"at_{n3_bounds[1]}": above[1],
    }, above[0] < above[1]

    thr3lo, thr3hi = lrc_threshold(3).bounds()
    cs_lo, cs_hi = lift_volume_threshold(3, 1, Fraction(2, 25)).bounds()
    power = all(threshold_below_power_bound(n) for n in range(2, 13))
    yield "constants", {
        "lrc_threshold_2": format_rational(lrc_threshold(2).coefficient),
        "lrc_threshold_3_enclosure": [format_rational(thr3lo), format_rational(thr3hi)],
        "c_star_3_1_2_25_enclosure": [format_rational(cs_lo), format_rational(cs_hi)],
        "power_bound_2_to_12": power,
    }, power


def _run_repro(ns) -> int:
    """Rebuild every headline computation and write tables plus manifest."""
    profile = "small" if ns.small else "full"
    _, s2_bound, n3_bounds, _ = _REPRO_PROFILES[profile]
    os.makedirs(ns.out, exist_ok=True)
    tables = {}
    for n, bound in [(2, s2_bound)] + [(3, b) for b in n3_bounds]:
        table = _timed(
            f"n={n} table @ {bound}",
            lambda n=n, b=bound: build_spectrum(EnumerationSpec(n, b), workers=ns.threads),
        )
        stem = os.path.join(ns.out, f"spectrum_n{n}_{bound}")
        table.save_json(stem + ".json")
        table.save_flat(stem + ".tsv")
        tables[n, bound] = table
    steps = list(_repro_steps(profile, tables))
    results = {key: fields for key, fields, _ in steps}
    passed = all(holds for _, _, holds in steps)
    manifest = {"version": 1, "profile": profile, "results": results, "passed": passed}
    path = os.path.join(ns.out, "manifest.json")
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"manifest = {path}")
    print(f"passed = {passed}")
    return 0 if passed else 1


def _add_table_flags(p: argparse.ArgumentParser, with_n: bool = True) -> None:
    p.add_argument("--table", help="load a previously saved table instead of building")
    if with_n:
        p.add_argument("--n", type=int, default=None, help="ambient dimension")
    p.add_argument("--max-vol2", type=int, default=None, help="squared volume bound")
    p.add_argument("--threads", type=int, default=None, help="worker count")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="runnerspec",
        description="Exact arithmetic for lonely runner spectra.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("ml", help="maximum loneliness of an integer speed tuple")
    p.add_argument("speeds", type=int, nargs="+")
    p.set_defaults(func=_run_ml)

    p = sub.add_parser("dist", help="center distance of a closed subgroup or coset")
    dsub = p.add_subparsers(dest="kind", required=True)
    pc = dsub.add_parser("cyclic", help="finite cyclic subgroup from one generator")
    pc.add_argument("coords", nargs="+", help="generator coordinates, p/q each")
    pc.set_defaults(func=_run_dist_cyclic)
    pl = dsub.add_parser("line", help="line orbit closure, optionally shifted")
    pl.add_argument("speeds", type=int, nargs="+")
    pl.add_argument("--shift", nargs="+", default=None, help="rational shift per coordinate")
    pl.set_defaults(func=_run_dist_line)
    dsub.add_parser("plane", help="plane closure: u ints, --, v ints")

    p = sub.add_parser("lift", help="density certificate for the best plane through a line")
    p.add_argument("--v", type=int, nargs="+", required=True, help="line direction")
    p.add_argument("--eps", required=True, help="target density radius, p/q")
    p.add_argument("--out", default=None, help="write the certificate as JSON")
    p.add_argument("--check", action="store_true", help="sample the certificate")
    p.set_defaults(func=_run_lift)

    p = sub.add_parser("constants", help="named constants with rational pi enclosures")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--eps", default=None, help="tube radius, p/q")
    p.add_argument("--volume", default="1", help="volume for the basis length bound")
    p.add_argument("--refined-pi", action="store_true")
    p.set_defaults(func=_run_constants)

    p = sub.add_parser("enumerate", help="canonical proper primitive tuples in a volume ball")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-vol2", type=int, required=True)
    p.set_defaults(func=_run_enumerate)

    p = sub.add_parser("spectrum", help="build and save a distance table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-vol2", type=int, required=True)
    p.add_argument("--out", required=True, help="JSON output path")
    p.add_argument("--flat", default=None, help="also write a flat TSV")
    p.add_argument(
        "--checkpoint",
        default=None,
        help="append-only log of finished blocks; rerunning with it resumes the build",
    )
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--progress", action="store_true")
    p.set_defaults(func=_run_spectrum)

    p = sub.add_parser("verify", help="run a verifier")
    vsub = p.add_subparsers(dest="check", required=True)
    pv = vsub.add_parser("s2", help="n=2 closed-form key set")
    _add_table_flags(pv, with_n=False)
    pv.set_defaults(func=_run_verify_s2, n=2, max_vol2=10**6)
    pv = vsub.add_parser("fan-sun", help="four-speed family identity")
    pv.add_argument("--r-max", type=int, default=100)
    pv.add_argument("--verbose", action="store_true")
    pv.set_defaults(func=_run_verify_fan_sun)
    pv = vsub.add_parser("window", help="reduced-form window classification")
    _add_table_flags(pv)
    pv.add_argument("--mode", choices=WINDOW_MODES, default="strict")
    pv.set_defaults(func=_run_verify_window)
    pv = vsub.add_parser("prop81", help="two-phase absence certificate for n = 3")
    pv.add_argument("--target", default="7/50")
    pv.add_argument("--cutoff", type=int, default=199**2)
    pv.add_argument("--refined-pi", action="store_true")
    pv.add_argument("--progress", action="store_true")
    pv.set_defaults(func=_run_verify_prop81)

    p = sub.add_parser("report", help="observation reports over a table")
    rsub = p.add_subparsers(dest="what", required=True)
    pr = rsub.add_parser("acc", help="keys within a window of each target")
    _add_table_flags(pr)
    pr.add_argument("--targets", required=True, help="comma-separated rationals")
    pr.add_argument("--window", required=True, help="window half-width, p/q")
    pr.set_defaults(func=_run_report_acc)
    pr = rsub.add_parser("mult", help="multiplicities at or above a threshold")
    _add_table_flags(pr)
    pr.add_argument("--threshold", type=int, default=2)
    pr.set_defaults(func=_run_report_mult)

    p = sub.add_parser("repro", help="rebuild headline results into a manifest")
    p.add_argument(
        "--small",
        action="store_true",
        help="reduced bounds for a quick smoke run (density phase will fail)",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=_run_repro)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args[:2] == ["dist", "plane"]:
        func, arg = _run_dist_plane, args[2:]
    else:
        try:
            arg = _build_parser().parse_args(args)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
        func = arg.func
    try:
        return func(arg)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        reason = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

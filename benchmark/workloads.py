"""The three benchmark workloads, their correctness gates and layer metrics.

A workload is a *pass*, a fixed list of public calls, repeated until the
run's time is used up.  ``n3-pipeline`` and ``n2-checkpointed`` rebuild
the paper's tables at fixed bounds and compare every output with a frozen
sha256; ``queries`` answers a seeded mix of point queries one at a time
(a closed loop with one client) and checks every answer exactly.  The
traced run alternates untraced and traced passes, then measures each
layer the passes did not separate by calling it on its own.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import shutil
import statistics
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable, Dict, List, Optional

from runnerspec.loneliness import d_subtorus1
from runnerspec.spectrum import (
    EnumerationSpec,
    SpectrumTable,
    accumulation_report,
    build_spectrum,
    certify_absence,
    enumerate_proper_primitive,
    multiplicity_report,
    verify_closed_form_s2,
    verify_window,
)

import queries as Q
from spans import Tracer

WORKLOADS = ("n3-pipeline", "n2-checkpointed", "queries")
DEFAULT_SEED = 0
WORKERS = 2


@dataclass(frozen=True)
class Profile:
    """Sizes of one benchmark profile.

    The table bounds and certificate target of ``FULL`` are the paper's
    statements and never change with the seed; the seed only draws the
    query list and the report arguments.
    """

    name: str
    n3_bound: int
    n2_bound: int
    cert_target: Fraction
    query_counts: Dict[str, int]


FULL = Profile(
    name="full",
    n3_bound=10**4,
    n2_bound=2 * 10**5,
    cert_target=Fraction(7, 50),
    query_counts=dict(ml_tiny=40, ml_small=30, ml_large=60, coset=20, lift=30, subtorus2=20, cyclic=50),
)

# The self-check profile, and the probe for layers a full workload does
# not reach (see README.md).
TINY = Profile(
    name="tiny",
    n3_bound=10**3,
    n2_bound=10**4,
    cert_target=Fraction(7, 50),
    query_counts=dict(ml_tiny=10, ml_small=3, ml_large=1, coset=5, lift=5, subtorus2=5, cyclic=5),
)

# sha256 of each table's JSON and TSV, of the certificate fields
# (phase_a_checked|rho|density_lhs) and of the query answers on the
# default seed, as the package computed them when this benchmark was added.
FROZEN: Dict[str, str] = {
    "n3-10000.json": "fe64b809515213ea0c0872944b7322d34e30c01a1aa73aa7d2b83a577cd77170",
    "n3-10000.tsv": "277e138daf3edd925a10a7b6a1ce42456bca596be843d870c2a72e89091934ab",
    "n2-200000.json": "8d686e12046623b15d8c43010bdad2b8dc6dd7b7eccffddfb6cc0d033c83c41a",
    "n2-200000.tsv": "3ad358681bf8ecd499552e0dd92584c4ecad4f23bd5860476d20327c9dec5c9a",
    "cert-7/50-3-10000": "2b1372ccb7bfd25c4daf68ffc0dbc46cdf2e554a6f2ddfcde8a05833128728ec",
    "n3-1000.json": "96d9716c2104e738b0f7f70a513780b88f63af0a8a171b8158965e7cd106436f",
    "n3-1000.tsv": "a8ec77f0dec2a3c74022213b5ea9d74767c52050034a13e08567a12213639a51",
    "n2-10000.json": "f0cf4c42faeea4fb3b1f7e3e22a16c6342f59c32251b13f5532b7b33d69fdc78",
    "n2-10000.tsv": "957339dae53dce42d6e51c6d57b0d5a96812dbb78a444c95388ccd5223ac72d0",
    "cert-7/50-3-1000": "58f2989594ea350a3f162d3d21419d739471af8e94bb3055cd0589172d13a204",
    "queries-full-seed0": "207ce39d606fdc8685f5c055e20a3b1cc2fae7743b79ca040c06b15d61b7a13f",
    "queries-tiny-seed0": "f50eb23980182dff3aab92e64ccf79d38ccc2872abcd48126699244c0524d56a",
}


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest child so far."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cert_digest(cert) -> str:
    return sha256_text(f"{cert.phase_a_checked}|{cert.rho}|{cert.density_lhs}")


class RunState:
    """State of one benchmark run: tracer, operation counts, digests."""

    def __init__(self, tracer: Tracer, work: str):
        self.tracer = tracer
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digests: Dict[str, str] = {}
        # Counts the passes and probes leave behind for the layer metrics.
        self.table_bytes = 0
        self.checkpoint_bytes = 0
        self.certify_checked = 0
        self.enumerate_tuples = 0
        self.grid_cells = 0

    def op(self, name: str, fn: Callable, *args, **kwargs):
        """Call one public function inside a span; return (result, seconds)."""
        self.attempted += 1
        with self.tracer.span(name):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
        return result, dt

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def digest(self, key: str, value: str) -> None:
        """Compare with the frozen digest; the value is also kept for the
        result file."""
        self.digests.setdefault(key, value)
        want = FROZEN.get(key)
        self.check(want == value, f"digest {key}: got {value}, frozen {want}")


@dataclass
class PassStats:
    kernel_tuples: int = 0
    kernel_s: float = 0.0


# ---------------------------------------------------------------------------
# Table passes.


def _reports(s: RunState, table: SpectrumTable, reports) -> None:
    (targets, window), threshold = reports
    acc, _ = s.op("spectrum.accumulation_report", accumulation_report, table, targets, window)
    mult, _ = s.op("spectrum.multiplicity_report", multiplicity_report, table, threshold)
    s.check(Q.check_accumulation(table, targets, window, acc), f"accumulation {targets} {window}")
    s.check(Q.check_multiplicity(table, threshold, mult), f"multiplicity {threshold}")


def _save_both(s: RunState, table: SpectrumTable, tag: str) -> None:
    json_path = os.path.join(s.work, f"{tag}.json")
    tsv_path = os.path.join(s.work, f"{tag}.tsv")
    s.op("spectrum.save_json", table.save_json, json_path)
    s.op("spectrum.save_flat", table.save_flat, tsv_path)
    s.digest(f"{tag}.json", sha256_file(json_path))
    s.digest(f"{tag}.tsv", sha256_file(tsv_path))
    s.table_bytes = os.path.getsize(json_path) + os.path.getsize(tsv_path)


def n3_pass(s: RunState, p: Profile, reports) -> PassStats:
    """Pooled build, save, load, verify, report queries, certificate."""
    stats = PassStats()
    spec = EnumerationSpec(n=3, max_volume_sq=p.n3_bound)
    table, dt = s.op(f"spectrum.build_spectrum[workers={WORKERS}]", build_spectrum, spec, workers=WORKERS)
    stats.kernel_tuples += table.total_multiplicity()
    stats.kernel_s += dt
    tag = f"n3-{p.n3_bound}"
    _save_both(s, table, tag)
    loaded, _ = s.op("spectrum.load_json", SpectrumTable.load_json, os.path.join(s.work, f"{tag}.json"))
    s.check(loaded == table, "loaded table differs from the built one")
    window, _ = s.op("spectrum.verify_window", verify_window, loaded)
    s.check(window.passed, "strict window has violations")
    _reports(s, loaded, reports)
    cert, dt = s.op("spectrum.certify_absence", certify_absence, p.cert_target, 3, p.n3_bound)
    stats.kernel_tuples += cert.phase_a_checked
    stats.kernel_s += dt
    s.check(cert.phase_a_passed, "certificate phase A found a witness")
    s.digest(f"cert-{p.cert_target}-3-{p.n3_bound}", cert_digest(cert))
    s.certify_checked = cert.phase_a_checked
    return stats


def n2_pass(s: RunState, p: Profile, reports) -> PassStats:
    """Checkpointed build from empty, resumed build, save, verify, reports."""
    stats = PassStats()
    spec = EnumerationSpec(n=2, max_volume_sq=p.n2_bound)
    ckpt = os.path.join(s.work, "n2.checkpoint.json")
    if os.path.exists(ckpt):
        os.unlink(ckpt)
    written = [0]

    def progress(done, total):
        written[0] += os.path.getsize(ckpt)

    table, dt = s.op(
        "spectrum.build_spectrum[checkpoint]", build_spectrum, spec,
        workers=1, checkpoint_path=ckpt, progress=progress,
    )
    stats.kernel_tuples += table.total_multiplicity()
    stats.kernel_s += dt
    s.checkpoint_bytes = written[0]
    resumed, dt = s.op("spectrum.build_spectrum[resume]", build_spectrum, spec, workers=1, checkpoint_path=ckpt)
    stats.kernel_s += dt
    s.check(resumed == table, "resumed build differs from the first build")
    _save_both(s, table, f"n2-{p.n2_bound}")
    closed, _ = s.op("spectrum.verify_closed_form_s2", verify_closed_form_s2, table)
    s.check(closed.passed, "n=2 closed form fails")
    _reports(s, table, reports)
    return stats


# ---------------------------------------------------------------------------
# Query pass.


def query_pass(s: RunState, pool, answers: List[Optional[str]]) -> PassStats:
    """Send every query of the pool in order, one at a time.

    The first pass checks each answer exactly and keeps its canonical
    text; later passes must reproduce that text.
    """
    stats = PassStats()
    results = []
    for kind, args in pool:
        s.attempted += 1
        try:
            with s.tracer.span(Q.SPAN[kind]):
                t0 = perf_counter()
                res = Q.CALL[kind](*args)
                dt = perf_counter() - t0
        except Exception as exc:  # a failed query is counted, not fatal
            s.failed += 1
            s.errors.append(f"{kind}{args}: {exc!r}")
            results.append(None)
            continue
        if kind == "ml":
            stats.kernel_tuples += 1
            stats.kernel_s += dt
        results.append(res)
    first = not answers
    for i, ((kind, args), res) in enumerate(zip(pool, results)):
        text = None if res is None else Q.render(kind, res)
        if first:
            answers.append(text)
        if res is None:
            continue
        if first:
            s.check(Q.check_query(kind, args, res), f"{kind}{args} -> {text}")
        else:
            s.check(text == answers[i], f"{kind}{args} changed: {text} != {answers[i]}")
    return stats


def answers_digest(pool, answers) -> str:
    return sha256_text("\n".join(f"{k}{a}={r}" for (k, a), r in zip(pool, answers)))


# ---------------------------------------------------------------------------
# Layer probes for the traced run.


def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else float("nan")


def table_probe(s: RunState, n: int, bound: int) -> None:
    """Time every table layer on (n, bound) that the traced passes did not.

    Each call opens its own span, so the metrics come from span durations
    alone.  Every extra build must reproduce the one-worker table, and the
    multiset of scanned distances must be that table's.
    """
    tr = s.tracer
    spec = EnumerationSpec(n=n, max_volume_sq=bound)
    have = {sp[1] for sp in tr.spans}
    with tr.span("probe.tables"):
        tuples, _ = s.op("spectrum.enumerate_proper_primitive", lambda: list(enumerate_proper_primitive(spec)))
        s.enumerate_tuples = len(tuples)
        counts, _ = s.op("loneliness.d_subtorus1[scan]", lambda: Counter(d_subtorus1(t) for t in tuples))
        s.grid_cells = sum(Q.grid_cells(t) for t in tuples)
        one, _ = s.op("spectrum.build_spectrum[workers=1]", build_spectrum, spec, workers=1)
        s.check(counts == Counter({k: e.multiplicity for k, e in one.entries.items()}),
                "scan multiset differs from the table")
        s.check(one.total_multiplicity() == len(tuples), "table size differs from the enumeration")
        name = f"spectrum.build_spectrum[workers={WORKERS}]"
        if name not in have:
            pooled, _ = s.op(name, build_spectrum, spec, workers=WORKERS)
            s.check(pooled == one, "pooled build differs from the one-worker build")
        tag = f"n{n}-{bound}"
        if "spectrum.build_spectrum[checkpoint]" not in have:
            ckpt = os.path.join(s.work, f"{tag}.checkpoint.json")
            written = [0]

            def progress(done, total):
                written[0] += os.path.getsize(ckpt)

            ck, _ = s.op("spectrum.build_spectrum[checkpoint]", build_spectrum, spec,
                         workers=1, checkpoint_path=ckpt, progress=progress)
            s.checkpoint_bytes = written[0]
            res, _ = s.op("spectrum.build_spectrum[resume]", build_spectrum, spec, workers=1, checkpoint_path=ckpt)
            s.check(ck == one and res == one, "checkpointed builds differ")
        if "spectrum.save_json" not in have:
            _save_both(s, one, tag)
        if "spectrum.load_json" not in have:
            loaded, _ = s.op("spectrum.load_json", SpectrumTable.load_json, os.path.join(s.work, f"{tag}.json"))
            s.check(loaded == one, "loaded table differs")
        if not ({"spectrum.verify_window", "spectrum.verify_closed_form_s2"} & have):
            verify = verify_closed_form_s2 if n == 2 else verify_window
            rep, _ = s.op(f"spectrum.{verify.__name__}", verify, one)
            s.check(rep.passed, f"{verify.__name__} fails")
    if "spectrum.certify_absence" not in have:
        # Only n = 3 has built-in plane facts; other tables certify at the
        # tiny probe's cutoff.
        with tr.span("probe.certificate"):
            cutoff = TINY.n3_bound
            cert, _ = s.op("spectrum.certify_absence", certify_absence, TINY.cert_target, 3, cutoff)
            s.check(cert.phase_a_passed, "certificate phase A found a witness")
            s.digest(f"cert-{TINY.cert_target}-3-{cutoff}", cert_digest(cert))
            s.certify_checked = cert.phase_a_checked


def layer_metrics(s: RunState, ml_queries: Optional[list], traced_passes: int) -> Dict[str, float]:
    """Layer metrics from span durations.  The kernel figures come from the
    scan of the table's tuples, or, given ``ml_queries`` (the ML tuples of
    one query pass), from the traced query passes."""
    tr = s.tracer
    med = lambda name: _median(tr.durations(name))
    m: Dict[str, float] = {}
    if ml_queries is None:
        kernel_s = med("loneliness.d_subtorus1[scan]")
        tuples = s.enumerate_tuples
        cells = s.grid_cells
    else:
        kernel_s = sum(tr.durations(Q.SPAN["ml"])) / traced_passes
        tuples = len(ml_queries)
        cells = sum(Q.grid_cells(v) for v in ml_queries)
    m["loneliness.ml_us_per_tuple"] = kernel_s / tuples * 1e6
    m["loneliness.grid_cells"] = cells
    m["loneliness.ns_per_cell"] = kernel_s / cells * 1e9
    m["loneliness.coset_ms_p50"] = med(Q.SPAN["coset"]) * 1e3
    m["lattice.kronecker_lift_ms_p50"] = med(Q.SPAN["lift"]) * 1e3
    m["lattice.d_subtorus2_ms_p50"] = med(Q.SPAN["subtorus2"]) * 1e3
    m["subgroups.d_finite_cyclic_ms_p50"] = med(Q.SPAN["cyclic"]) * 1e3
    lat = sorted(d for name in Q.SPAN.values() for d in tr.durations(name))
    m["queries.ms_p50"] = statistics.median(lat) * 1e3
    m["queries.ms_p99"] = statistics.quantiles(lat, n=100, method="inclusive")[98] * 1e3
    m["queries.per_s"] = len(lat) / sum(lat)

    one = med("spectrum.build_spectrum[workers=1]")
    enum_s = med("spectrum.enumerate_proper_primitive")
    m["spectrum.enumerate_s"] = enum_s
    m["spectrum.enumerate_tuples"] = s.enumerate_tuples
    scan = tr.durations("loneliness.d_subtorus1[scan]")
    m["spectrum.assembly_s"] = one - enum_s - _median(scan) if scan else float("nan")
    m["spectrum.pool_speedup"] = one / med(f"spectrum.build_spectrum[workers={WORKERS}]")
    m["spectrum.checkpoint_bytes"] = s.checkpoint_bytes
    m["spectrum.checkpoint_overhead_s"] = med("spectrum.build_spectrum[checkpoint]") - one
    m["spectrum.resume_s"] = med("spectrum.build_spectrum[resume]")
    m["spectrum.certify_s"] = med("spectrum.certify_absence")
    m["spectrum.certify_checked"] = s.certify_checked
    m["spectrum.save_s"] = med("spectrum.save_json") + med("spectrum.save_flat")
    m["spectrum.load_s"] = med("spectrum.load_json")
    m["spectrum.table_bytes"] = s.table_bytes
    verify = tr.durations("spectrum.verify_window") or tr.durations("spectrum.verify_closed_form_s2")
    m["spectrum.verify_s"] = _median(verify)
    return m


# ---------------------------------------------------------------------------
# Driving a run.


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, p: Profile, work: str,
    setup: Callable[[], float], setup_reps: int,
) -> dict:
    """Run one workload; return its counts, end-to-end or layer metrics,
    digests, errors and (traced) spans.

    ``setup`` times one fresh start of the package.  An untraced run calls
    it after every pass, outside the pass timing, and again at the end
    until there are ``setup_reps`` samples: spreading the samples over the
    run keeps one slow moment of the machine from setting the median.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)
    tracer = Tracer(enabled=False)
    s = RunState(tracer, work)
    pool: List = []
    answers: List[Optional[str]] = []
    if name == "queries":
        pool = Q.make_queries(rng, p.query_counts)
        run_pass = lambda: query_pass(s, pool, answers)
    else:
        reports = Q.make_reports(rng)
        body = n3_pass if name == "n3-pipeline" else n2_pass
        run_pass = lambda: body(s, p, reports)

    walls: List[float] = []
    traced_walls: List[float] = []
    stats: List[PassStats] = []
    setups: List[float] = []
    start = perf_counter()
    while True:
        # The traced run alternates: even passes untraced, odd passes traced.
        tracer.enabled = trace and (len(walls) + len(traced_walls)) % 2 == 1
        with tracer.span("pass"):
            t0 = perf_counter()
            st = run_pass()
            wall = perf_counter() - t0
        (traced_walls if tracer.enabled else walls).append(wall)
        stats.append(st)
        done = len(walls) + len(traced_walls)
        if done == 1:
            # Later passes repeat the same inputs; reading the peak here
            # keeps it independent of how many passes fit in the run.
            rss = peak_rss_mib()
        if not trace:
            setups.append(setup())
        min_passes = 2 if trace or name == "queries" else 1
        if done >= min_passes and perf_counter() - start + wall > seconds:
            break

    if name == "queries":
        key = f"queries-{p.name}-seed{seed}"
        if seed == DEFAULT_SEED:
            s.digest(key, answers_digest(pool, answers))
        else:
            s.digests[key] = answers_digest(pool, answers)

    out = {"passes": len(stats), "pass_wall_s": walls + traced_walls}
    # The first query pass fills the kernel's scratch cache and checks every
    # answer exactly, which later passes do not: it is a warm-up, not a sample.
    warm = 1 if name == "queries" and len(walls) > 1 else 0
    walls, stats = walls[warm:], stats[warm:]
    if not trace:
        out["metrics"] = {
            "wall_s": statistics.median(walls),
            "tuples_per_s": statistics.median(st.kernel_tuples / st.kernel_s for st in stats),
            "peak_rss_mib": rss,
        }
        setups += [setup() for _ in range(setup_reps - len(setups))]
        out["metrics"]["setup_s"] = statistics.median(setups)
    else:
        tracer.enabled = True
        if name == "queries":
            table_probe(s, 3, TINY.n3_bound)
            ml_queries = [args[0] for kind, args in pool if kind == "ml"]
            layer = layer_metrics(s, ml_queries, len(traced_walls))
        else:
            with tracer.span("probe.queries"):
                query_pass(s, Q.make_queries(rng, TINY.query_counts), [])
            n, bound = (3, p.n3_bound) if name == "n3-pipeline" else (2, p.n2_bound)
            table_probe(s, n, bound)
            layer = layer_metrics(s, None, len(traced_walls))
        layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        layer["trace.spans"] = len(tracer.spans)
        out["metrics"] = layer
        out["spans"] = tracer.to_json()
    out.update(attempted=s.attempted, failed=s.failed, errors=s.errors[:20], digests=s.digests)
    return out


def fresh_workdir(root: str) -> str:
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, f"run-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path

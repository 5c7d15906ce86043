"""Tests for enumeration, spectrum assembly, verifiers, and reports."""

import concurrent.futures
import contextlib
import gc
import hashlib
import itertools
import json
import multiprocessing
import os
import re
import signal
import stat
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from runnerspec import loneliness, spectrum
from runnerspec.core import InvalidInput, format_rational, parse_rational
from runnerspec.lattice import BudgetExceeded
from runnerspec.loneliness import d_subtorus1
from runnerspec.spectrum import (
    CANONICAL_CLASSES,
    THREADS_ENV_VAR,
    CorruptCheckpoint,
    EnumerationSpec,
    MissingOuterSpectrum,
    OuterSpectrumFacts,
    SpectrumEntry,
    SpectrumTable,
    TableMismatch,
    accumulation_report,
    build_spectrum,
    certify_absence,
    enumerate_proper_primitive,
    multiplicity_report,
    resolve_workers,
    verify_closed_form_s2,
    verify_family_fan_sun,
    verify_window,
)

from oracles import (
    _volume_key,
    block_reference,
    canonical_block,
    count_sorted_tuples,
    flat_reference,
    fold_reference,
    mobius_primitive_count,
)

F = Fraction


# --- enumeration ----------------------------------------------------------


def test_enumeration_spec_validation():
    with pytest.raises(ValueError):
        EnumerationSpec(n=0, max_volume_sq=10)
    with pytest.raises(ValueError):
        EnumerationSpec(n=3, max_volume_sq=2)


@pytest.mark.parametrize(
    "n, bound, expected",
    [
        (2, 5, [(1, 1), (1, 2)]),
        (2, 2, [(1, 1)]),
        (3, 3, [(1, 1, 1)]),
    ],
)
def test_enumerate_small_cases(n, bound, expected):
    assert list(enumerate_proper_primitive(EnumerationSpec(n, bound))) == expected


def test_enumerate_matches_brute_force():
    got = list(enumerate_proper_primitive(EnumerationSpec(2, 25)))
    brute = [
        (a, b)
        for a in range(1, 6)
        for b in range(a, 6)
        if a * a + b * b <= 25 and gcd(a, b) == 1
    ]
    assert got == sorted(brute)
    assert len(got) == mobius_primitive_count(2, 25) == 6


def test_enumerate_count_matches_mobius_oracle():
    spec = EnumerationSpec(3, 4000)
    count = sum(1 for _ in enumerate_proper_primitive(spec))
    assert count == mobius_primitive_count(3, 4000)


# --- table assembly -------------------------------------------------------


def test_build_smallest_tables():
    t = build_spectrum(EnumerationSpec(2, 5))
    assert t.to_json_dict()["canonicalization"] == CANONICAL_CLASSES
    assert t.entries == {
        F(0): SpectrumEntry(1, ((1, 1),)),
        F(1, 6): SpectrumEntry(1, ((1, 2),)),
    }
    t1 = build_spectrum(EnumerationSpec(1, 50))
    assert t1.entries == {F(0): SpectrumEntry(1, ((1,),))}


def test_n1_has_one_block_whatever_the_bound(monkeypatch):
    monkeypatch.setattr(spectrum, "_SCANS", {})
    for bound in (1, 50, 10**20):
        spec = EnumerationSpec(1, bound)
        assert spectrum._block_starts(spec) == range(1, 2)
        assert list(enumerate_proper_primitive(spec)) == [(1,)]
        assert build_spectrum(spec).entries == {F(0): SpectrumEntry(1, ((1,),))}


def _bounds(n):
    """Bounds from n up to a size the plain enumeration takes quickly,
    with perfect squares and squares less one drawn often."""
    top = {1: 5000, 2: 5000, 3: 3000, 4: 800, 5: 300, 6: 150}[n]
    root = st.integers(isqrt(n) + 1, isqrt(top))
    return st.one_of(
        st.integers(n, top),
        root.map(lambda r: r * r),
        root.map(lambda r: r * r - 1),
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), _bounds(n))))
def test_block_arrays_match_the_plain_enumeration(case):
    n, bound = case
    spec = EnumerationSpec(n, bound)
    total = 0
    for v1 in spectrum._block_starts(spec):
        rows = spectrum._block_rows(n, bound, v1)
        assert rows.dtype == np.int64 and rows.shape[1] == n
        assert [tuple(t) for t in rows.tolist()] == canonical_block(n, bound, v1)
        total += len(rows)
    assert total == mobius_primitive_count(n, bound)
    assert spectrum._require_budget(spec) >= (total if n == 1 else count_sorted_tuples(n, bound))


def _refuses_without_work(tmp_path, monkeypatch, call):
    def no_work(*args, **kwargs):
        raise AssertionError("work was started")

    for name in ("_block_rows", "_scan_rows", "_load_checkpoint"):
        monkeypatch.setattr(spectrum, name, no_work)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
    with pytest.raises(BudgetExceeded) as info:
        call(str(tmp_path / "ckpt.jsonl"))
    assert list(tmp_path.iterdir()) == []
    return str(info.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda path: build_spectrum(EnumerationSpec(3, 10**13), workers=2, checkpoint_path=path),
        lambda path: certify_absence(F(7, 50), 3, 10**13),
        lambda path: enumerate_proper_primitive(EnumerationSpec(3, 10**13)),
    ],
)
def test_a_bound_past_the_tuple_budget_is_refused_before_any_work(tmp_path, monkeypatch, call):
    budget = spectrum._TUPLE_BUDGET
    monkeypatch.setattr(spectrum, "_TUPLE_BUDGET", 10**30)
    bound = spectrum._require_budget(EnumerationSpec(3, 10**13))
    monkeypatch.undo()
    assert bound > budget == spectrum._TUPLE_BUDGET
    message = _refuses_without_work(tmp_path, monkeypatch, call)
    assert message == (
        f"max_volume_sq at n=3 allows more than {spectrum._TUPLE_BUDGET} canonical tuples, "
        "the tuple budget"
    )


def test_the_tuple_budget_admits_its_own_bound(tmp_path, monkeypatch):
    spec = EnumerationSpec(3, 2000)
    monkeypatch.setattr(spectrum, "_TUPLE_BUDGET", spectrum._require_budget(spec))
    assert build_spectrum(spec, workers=1).total_multiplicity() == mobius_primitive_count(3, 2000)
    assert len(list(enumerate_proper_primitive(spec))) == mobius_primitive_count(3, 2000)
    monkeypatch.setattr(spectrum, "_TUPLE_BUDGET", spectrum._require_budget(spec) - 1)
    _refuses_without_work(tmp_path, monkeypatch, lambda path: build_spectrum(spec, checkpoint_path=path))


def test_the_tuple_budget_admits_the_largest_bounds_in_use():
    for n, bound in ((2, 10**6), (3, 4 * 10**4), (3, 2 * 10**5), (4, 2 * 10**4), (6, 3000)):
        spectrum._require_budget(EnumerationSpec(n, bound))
    spectrum._require_budget(EnumerationSpec(1, 10**40))


def test_an_n1_log_with_blocks_past_1_is_refused(tmp_path):
    # Logs of n = 1 once listed a block for every v1 <= isqrt(bound), all
    # past 1 empty; n = 1 now has block 1 alone.
    spec = EnumerationSpec(1, 50)
    path = tmp_path / "ckpt.jsonl"
    build_spectrum(spec, workers=1, checkpoint_path=str(path))
    line = {"block": 2, "sha256": _sha256([]), "result": [], "tuples": 0, "seconds": 0.0, "pid": 1}
    with path.open("a") as fh:
        fh.write(json.dumps(line, separators=(",", ":")) + "\n")
    with pytest.raises(CorruptCheckpoint, match="line 3 has a malformed block: key 2 is not a block start 1..1"):
        build_spectrum(spec, workers=1, checkpoint_path=str(path))


def test_a_bound_past_the_kernel_is_refused_before_any_work(tmp_path, monkeypatch):
    # Block 1 holds (1, ..., 1, x) with x = isqrt(bound - (n - 1)), past the
    # kernel's speed bound 759,250,124 from the least bound of each n below;
    # the tuple budget refuses such a bound long before, and nothing is
    # enumerated, pooled or written first.
    edges = [(n, 759_250_125**2 + n - 1) for n in (2, 3, 5)]
    for n, bound in [(2, 10**20), (3, 10**18), *edges]:
        message = _refuses_without_work(
            tmp_path,
            monkeypatch,
            lambda path: build_spectrum(EnumerationSpec(n, bound), workers=2, checkpoint_path=path),
        )
        assert message.startswith(f"max_volume_sq at n={n} ")
    _refuses_without_work(tmp_path, monkeypatch, lambda path: certify_absence(F(7, 50), 3, 10**20))


def test_build_finds_the_tight_triple():
    t = build_spectrum(EnumerationSpec(3, 14))
    assert t.max_key == F(1, 4)
    assert t.entries[F(1, 4)].witnesses == ((1, 2, 3),)


def test_build_deterministic_across_workers():
    spec = EnumerationSpec(3, 300)
    base = build_spectrum(spec, workers=1)
    for workers in (2, 4):
        assert build_spectrum(spec, workers=workers) == base


def test_pool_never_has_more_workers_than_blocks_left(tmp_path, monkeypatch):
    pools, units = [], []

    class RecordingPool:  # runs the units in this thread, without the workers' memos
        def __init__(self, workers, initializer):
            pools.append(workers)
            units.append([workers, 0])

        def submit(self, func, args):
            units[-1][1] += 1
            future = concurrent.futures.Future()
            future.set_result(func(args))
            return future

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    spec = EnumerationSpec(2, 10)  # blocks 1 and 2
    base = build_spectrum(spec, workers=1)
    assert build_spectrum(spec, workers=64) == base
    assert pools == [2]
    path = tmp_path / "ckpt.jsonl"
    with pytest.raises(_Interrupted):
        build_spectrum(spec, workers=1, checkpoint_path=str(path), progress=_interrupt_at(1))
    assert build_spectrum(spec, workers=64, checkpoint_path=str(path)) == base
    assert build_spectrum(EnumerationSpec(2, 7), workers=64).max_key == F(1, 6)
    assert pools == [2]
    # A pooled build sends its blocks in at most 4 units per worker.
    spec = EnumerationSpec(3, 2000)  # 25 blocks
    base = build_spectrum(spec, workers=1)
    for workers in (2, 3):
        assert build_spectrum(spec, workers=workers) == base
    assert pools == [2, 2, 3]
    assert all(1 < sent <= 4 * workers for workers, sent in units)


def test_totals_match_mobius_oracle(table_n3_1e3, table_n3_1e4):
    assert table_n3_1e3.total_multiplicity() == mobius_primitive_count(3, 10**3) == 2343
    assert table_n3_1e4.total_multiplicity() == mobius_primitive_count(3, 10**4) == 73077


def test_witness_cap_and_ordering(table_n3_1e4):
    entry = table_n3_1e4.entries[F(1, 6)]
    assert entry.multiplicity == 2335
    assert len(entry.witnesses) == 8
    assert entry.witnesses[:2] == ((1, 1, 2), (1, 2, 2))
    vols = [sum(c * c for c in w) for w in entry.witnesses]
    assert vols == sorted(vols)


class _Interrupted(Exception):
    pass


def _interrupt_at(block):
    def progress(done, total):
        if done == block:
            raise _Interrupted

    return progress


def _sha256(result):
    return hashlib.sha256(json.dumps(result, separators=(",", ":")).encode()).hexdigest()


def _log(path):
    """The header and block entries of the checkpoint log at ``path``."""
    text = path.read_text()
    assert text.endswith("\n")
    return [json.loads(line) for line in text.split("\n")[:-1]]


def _assert_same_bytes(tmp_path, table, reference):
    table.save_json(str(tmp_path / "table.json"))
    reference.save_json(str(tmp_path / "reference.json"))
    assert (tmp_path / "table.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


def test_checkpoint_resume(tmp_path):
    spec = EnumerationSpec(3, 300)
    path = tmp_path / "ckpt.jsonl"
    with pytest.raises(_Interrupted):
        build_spectrum(spec, workers=1, checkpoint_path=str(path), progress=_interrupt_at(3))
    header, *blocks = _log(path)
    assert header == {"version": 2, "n": 3, "max_volume_sq": 300, "canonical_only": True}
    assert [b["block"] for b in blocks] == [1, 2, 3]
    for b in blocks:
        assert b["sha256"] == _sha256(b["result"])
        assert b["tuples"] == len(canonical_block(3, 300, b["block"]))
        assert b["pid"] == os.getpid()
        assert isinstance(b["seconds"], float) and b["seconds"] >= 0
    resumed = build_spectrum(spec, workers=1, checkpoint_path=str(path))
    _assert_same_bytes(tmp_path, resumed, build_spectrum(spec, workers=1))
    assert [b["block"] for b in _log(path)[1:]] == list(spectrum._block_starts(spec))


def test_block_result_order_does_not_reach_the_files(tmp_path, monkeypatch):
    spec = EnumerationSpec(3, 2000)
    plain = build_spectrum(spec, workers=1)
    scan_blocks = spectrum._spectrum_blocks

    def reversed_blocks(args):
        # The same blocks with their distances in reverse order.
        for v1, b, trace in scan_blocks(args):
            last = len(b.a) - 1
            rows = np.argsort(last - b.key, kind="stable")
            flipped = spectrum._Block(b.a[::-1], b.q[::-1], b.mult[::-1], b.wits[rows], (last - b.key)[rows])
            assert flipped.rows() == b.rows()[::-1]
            yield v1, flipped, trace

    monkeypatch.setattr(spectrum, "_spectrum_blocks", reversed_blocks)
    path = tmp_path / "ckpt.jsonl"
    with pytest.raises(_Interrupted):
        build_spectrum(spec, workers=1, checkpoint_path=str(path), progress=_interrupt_at(3))
    tables = {"reversed": build_spectrum(spec, workers=1)}
    monkeypatch.undo()
    tables.update(resumed=build_spectrum(spec, workers=1, checkpoint_path=str(path)), plain=plain)
    for name, table in tables.items():
        table.save_json(str(tmp_path / f"{name}.json"))
        table.save_flat(str(tmp_path / f"{name}.tsv"))
    for ext in ("json", "tsv"):
        plain_bytes = (tmp_path / f"plain.{ext}").read_bytes()
        for name in ("reversed", "resumed"):
            assert (tmp_path / f"{name}.{ext}").read_bytes() == plain_bytes


def _rows(result):
    return {(d, mult, tuple(map(tuple, wits))) for d, mult, wits in result}


def _scan_block(n, max_volume_sq, v1, alone=True):
    """Block v1's (start, result, trace), scanned alone or among every block of its spec."""
    starts = [v1] if alone else sorted({v1, *spectrum._block_starts(EnumerationSpec(n, max_volume_sq))})
    return next(b for b in spectrum._spectrum_blocks((n, max_volume_sq, starts)) if b[0] == v1)


@pytest.mark.parametrize(
    "args",
    [
        (1, 30, 1),
        (1, 30, 2),  # empty: (2,) is not primitive
        (2, 8, 2),  # empty: (2, 2) is not primitive
        (2, 40000, 1),  # many keys
        (2, 40000, 9),
        (3, 2000, 1),  # groups of up to 204 tuples, past the witness cap
        (3, 2000, 6),
        (4, 400, 1),
        (4, 400, 3),
    ],
)
def test_block_matches_the_reference_assembly(args):
    v1, block, trace = _scan_block(*args, alone=False)
    result = block.rows()
    reference = block_reference(*args)
    assert v1 == args[2]
    assert len(result) == len(_rows(result)) == len(reference)
    assert _rows(result) == _rows(reference)
    assert trace["tuples"] == sum(mult for _, mult, _ in reference)
    assert block.key.tolist() == sorted(block.key.tolist())


def test_block_groups_past_the_witness_cap_keep_the_least():
    _, block, _ = _scan_block(3, 2000, 1)
    capped = [row for row in block.rows() if row[1] > spectrum.WITNESS_CAP]
    assert capped
    for _, _, wits in capped:
        assert len(wits) == spectrum.WITNESS_CAP
        assert wits == sorted(wits, key=_volume_key)


def test_table_witnesses_are_the_least_of_each_key(table_n3_1e3):
    tuples = list(enumerate_proper_primitive(EnumerationSpec(3, 10**3)))
    by_key = {}
    for t in tuples:
        by_key.setdefault(d_subtorus1(t), []).append(t)
    assert set(by_key) == set(table_n3_1e3.entries)
    for key, entry in table_n3_1e3.entries.items():
        assert entry.multiplicity == len(by_key[key])
        assert entry.witnesses == tuple(sorted(by_key[key], key=_volume_key)[:8])


def test_logs_in_the_old_row_order_still_resume(tmp_path, monkeypatch):
    # Before blocks were assembled in arrays, a block's rows came in order
    # of first appearance; the reference assembly writes them that way.
    spec = EnumerationSpec(3, 2000)

    def reference_blocks(args):
        for v1 in args[2]:
            block = spectrum._Block.from_rows(block_reference(*args[:2], v1), spec)
            yield v1, block, {"tuples": 0, "seconds": 0.0, "pid": 0}

    monkeypatch.setattr(spectrum, "_spectrum_blocks", reference_blocks)
    path = tmp_path / "ckpt.jsonl"
    with pytest.raises(_Interrupted):
        build_spectrum(spec, workers=1, checkpoint_path=str(path), progress=_interrupt_at(3))
    monkeypatch.undo()
    logged = _log(path)[1:]
    assert [b["block"] for b in logged] == [1, 2, 3]
    for b in logged:
        new = _scan_block(3, 2000, b["block"])[1].rows()
        assert b["result"] == [list(row) for row in block_reference(3, 2000, b["block"])]
        assert _rows(b["result"]) == _rows(new)
        assert [row[0] for row in b["result"]] != [row[0] for row in new]
    tables = {"resumed": build_spectrum(spec, workers=1, checkpoint_path=str(path))}
    tables["plain"] = build_spectrum(spec, workers=1)
    for name, table in tables.items():
        table.save_json(str(tmp_path / f"{name}.json"))
        table.save_flat(str(tmp_path / f"{name}.tsv"))
    for ext in ("json", "tsv"):
        assert (tmp_path / f"resumed.{ext}").read_bytes() == (tmp_path / f"plain.{ext}").read_bytes()


# Sorted triples with entries up to 12 often tie on squared volume, as
# (1, 4, 8) and (4, 4, 7) do, so values drawn from a few share volumes.
_TRIPLES = list(itertools.combinations_with_replacement(range(1, 13), 3))


@st.composite
def _block_sets(draw):
    """Distinct tuples in lexicographic order, each with one of up to four
    values a/q, cut into consecutive raw blocks, one row per tuple, as a
    block scan makes them: blocks in start order hold their tuples in order."""
    tuples = sorted(draw(st.lists(st.sampled_from(_TRIPLES), min_size=1, max_size=300, unique=True)))
    values = draw(st.lists(st.sampled_from([(0, 1), (1, 3), (1, 4), (2, 7)]), min_size=1, max_size=4, unique=True))
    picks = draw(st.lists(st.integers(0, len(values) - 1), min_size=len(tuples), max_size=len(tuples)))
    cuts = sorted(draw(st.sets(st.integers(1, len(tuples)), max_size=5)) | {len(tuples)})
    blocks = []
    for start, end in zip([0, *cuts], cuts):
        a, q = np.array([values[i] for i in picks[start:end]], dtype=np.int64).reshape(-1, 2).T
        t = np.array(tuples[start:end], dtype=np.int64).reshape(-1, 3)
        blocks.append(spectrum._Block(a, q, np.ones(len(t), dtype=np.int64), t, np.arange(len(t))))
    return blocks


@settings(max_examples=150, deadline=None)
@given(_block_sets())
def test_the_fold_matches_the_lexsort_reference(blocks):
    # One stable sort on (value, squared volume) leaves ties in input order,
    # which must be tuple order: each block's own fold, the fold of every
    # raw block at once, and the fold of the folded blocks as a build makes it.
    folded = [spectrum._fold([b]) for b in blocks]
    for got, raw in zip(folded, blocks):
        assert [x.tolist() for x in got] == [x.tolist() for x in fold_reference([raw], spectrum.WITNESS_CAP)]
    for parts in (blocks, folded):
        got = spectrum._fold(parts)
        assert [x.tolist() for x in got] == [x.tolist() for x in fold_reference(parts, spectrum.WITNESS_CAP)]


def _tied_witnesses(text):
    """The first log line, entry and witness index whose witness ties on
    squared volume with the next one."""
    for number, line in enumerate(text.split("\n")[1:-1], start=1):
        for e, (_, _, wits) in enumerate(json.loads(line)["result"]):
            vols = [sum(c * c for c in w) for w in wits]
            for i in range(len(wits) - 1):
                if vols[i] == vols[i + 1]:
                    return number, e, i
    raise AssertionError("no tied witnesses")


def test_a_logged_block_whose_tied_witnesses_are_out_of_order_is_refused(tmp_path):
    # The fold keeps tied witnesses in the order that they arrive in, so a
    # line with a valid digest whose ties are in reverse tuple order would
    # resume to another table than a fresh build; it is refused by name, as
    # is a witness written twice.
    spec = EnumerationSpec(3, 2000)
    path = tmp_path / "ckpt.jsonl"
    build_spectrum(spec, workers=1, checkpoint_path=str(path))
    text = path.read_text()
    number, e, i = _tied_witnesses(text)

    def swap(result):
        wits = result[e][2]
        wits[i], wits[i + 1] = wits[i + 1], wits[i]

    def repeat(result):
        result[e][2][i + 1] = result[e][2][i]

    edits = (swap, repeat, lambda r: r[e][2].reverse())
    for bad in (_edit_result(text, number, edit) for edit in edits):
        path.write_text(bad)
        message = f"line {number + 1} has a malformed block: entry {e}: witnesses do not rise by"
        with pytest.raises(CorruptCheckpoint, match=re.escape(message)) as info:
            build_spectrum(spec, workers=1, checkpoint_path=str(path))
        assert str(path) in str(info.value)
        assert path.read_text() == bad


def test_a_logged_n1_entry_past_1_is_refused(tmp_path):
    # n = 1 has the one tuple (1,) at any bound, so a logged entry is held
    # to 1, not to 4 sqrt(B): squared volumes, and the fold's sort key, then
    # stay far below 2^63 (4 * 10^15 squared wraps int64).
    spec = EnumerationSpec(1, 10**30)
    path = tmp_path / "ckpt.jsonl"
    build_spectrum(spec, workers=1, checkpoint_path=str(path))
    bad = _edit_result(path.read_text(), 1, _set(0, 2, [[1], [4 * 10**15]]))
    path.write_text(bad)
    with pytest.raises(CorruptCheckpoint, match="line 2 has a malformed block: a distance or witness entry is past 1$"):
        build_spectrum(spec, workers=1, checkpoint_path=str(path))
    assert path.read_text() == bad


def _round_trip_verdict(d):
    """The lowest-terms verdict by parsing and printing, or the error it raises."""
    try:
        return format_rational(parse_rational(d)) == d
    except InvalidInput as exc:
        return str(exc)


def _verdict(d):
    try:
        return spectrum._lowest_terms(d)
    except InvalidInput as exc:
        return str(exc)


@pytest.mark.parametrize(
    "d",
    [
        "0", "-0", "0/1", "-0/3", "0/5", "1/1", "2/4", "01/3", "1/03", "1/6", "-1/3",
        "3", "-3", "10/3", "9/6", " 1/3", "1/3 ", "1/3\n", "+1/3", "1/-3", "1_0/3",
        "1.5", "1e3", "1/0", "0/0", "\u0663/7", "1/\u0667", "", "-", "/3", "1/", "1//3",
        "7" * 150 + "/3", "7" * 5000 + "/3",
    ],
)
def test_lowest_terms_agrees_with_the_round_trip(d):
    expected = _round_trip_verdict(d)
    assert _verdict(d) == expected
    not_lowest = f"entry 0: distance {d!r} is not in lowest terms"
    message = {True: None, False: not_lowest}.get(expected, f"entry 0: {expected}")
    try:
        spectrum._check_block([[d, 1, []]], 2)
        got = None
    except InvalidInput as exc:
        got = str(exc)
    assert got == message


@given(st.integers(-(10**40), 10**40), st.integers(1, 10**40), st.booleans())
def test_lowest_terms_agrees_on_drawn_fractions(p, q, bare):
    d = str(p) if bare else f"{p}/{q}"
    assert _verdict(d) == _round_trip_verdict(d)


@pytest.mark.parametrize("first, then", [(2, 1), (1, 2)])
def test_resume_with_another_worker_count(tmp_path, first, then):
    spec = EnumerationSpec(3, 2000)
    path = tmp_path / "ckpt.jsonl"
    with pytest.raises(_Interrupted):
        build_spectrum(spec, workers=first, checkpoint_path=str(path), progress=_interrupt_at(3))
    blocks = _log(path)[1:]
    assert len(blocks) == len({b["block"] for b in blocks}) == 3
    resumed = build_spectrum(spec, workers=then, checkpoint_path=str(path))
    _assert_same_bytes(tmp_path, resumed, build_spectrum(spec, workers=1))


def test_an_interrupted_pooled_build_resumes_block_by_block(tmp_path):
    # Blocks reach the parent in units, so the first progress call comes
    # when the first unit is done; a unit still in flight is scanned again.
    spec = EnumerationSpec(3, 2000)
    plain = build_spectrum(spec, workers=1, checkpoint_path=str(tmp_path / "one.jsonl"))
    digests = {b["block"]: b["sha256"] for b in _log(tmp_path / "one.jsonl")[1:]}
    interrupted = tmp_path / "two.jsonl"
    with pytest.raises(_Interrupted):
        build_spectrum(spec, workers=2, checkpoint_path=str(interrupted), progress=_interrupt_at(1))
    assert len(_log(interrupted)) == 2
    for workers in (1, 2):
        path = tmp_path / f"resumed{workers}.jsonl"
        path.write_bytes(interrupted.read_bytes())
        resumed = build_spectrum(spec, workers=workers, checkpoint_path=str(path))
        _assert_same_bytes(tmp_path, resumed, plain)
        blocks = _log(path)[1:]
        assert sorted(b["block"] for b in blocks) == list(spectrum._block_starts(spec))
        assert {b["block"]: b["sha256"] for b in blocks} == digests


class _SlowRuns:
    """``_spectrum_run`` that marks each run's start and end in ``marks``, by
    its first block, and sleeps ``seconds`` in every run but block 1's."""

    def __init__(self, marks, seconds):
        self.marks, self.seconds = marks, seconds

    def __call__(self, args):
        first = args[2][0]
        (self.marks / f"start{first}").touch()
        if first != 1:
            time.sleep(self.seconds)
        blocks = list(spectrum._spectrum_blocks(args))
        (self.marks / f"end{first}").touch()
        return blocks


def test_an_interrupted_pooled_build_waits_for_its_units_in_flight(tmp_path, monkeypatch):
    # Killing busy workers can leave the pool waiting for ever on a lock
    # that one of them held, so an interrupted build lets each unit it
    # started finish, and starts no other.
    monkeypatch.setattr(spectrum, "_spectrum_run", _SlowRuns(tmp_path, 0.5))
    with pytest.raises(_Interrupted):
        build_spectrum(EnumerationSpec(3, 2000), workers=2, progress=_interrupt_at(1))
    started = {p.name[5:] for p in tmp_path.glob("start*")}
    assert "1" in started and started == {p.name[3:] for p in tmp_path.glob("end*")}
    assert len(started) < 7  # of 7 units
    assert not multiprocessing.active_children()


def test_a_pooled_build_whose_workers_die_raises(tmp_path, monkeypatch):
    # A unit lost with its worker fails the build; it is not waited for.
    monkeypatch.setattr(spectrum, "_spectrum_run", _SlowRuns(tmp_path, 60))

    def kill_workers(done, total):
        if done == 1:
            for child in multiprocessing.active_children():
                os.kill(child.pid, signal.SIGKILL)

    errors = []

    def build():
        try:
            build_spectrum(EnumerationSpec(3, 2000), workers=2, progress=kill_workers)
        except Exception as exc:
            errors.append(exc)

    thread = threading.Thread(target=build, daemon=True)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert [type(e) for e in errors] == [BrokenProcessPool]


def test_checkpoint_log_is_append_only(tmp_path):
    spec = EnumerationSpec(3, 2000)
    path = tmp_path / "ckpt.jsonl"
    snapshots = []
    build_spectrum(
        spec, workers=2, checkpoint_path=str(path),
        progress=lambda done, total: snapshots.append(path.read_bytes()),
    )
    assert len(snapshots) == len(spectrum._block_starts(spec))
    assert snapshots[0].count(b"\n") == 2
    for before, after in zip(snapshots, snapshots[1:]):
        assert after.startswith(before)
        assert after.count(b"\n") == before.count(b"\n") + 1
    assert path.read_bytes() == snapshots[-1]


@pytest.mark.parametrize("cut", [1, 7, 60])
def test_torn_last_line_is_dropped(tmp_path, cut):
    spec = EnumerationSpec(3, 2000)
    path = tmp_path / "ckpt.jsonl"
    full = build_spectrum(spec, workers=1, checkpoint_path=str(path))
    text = path.read_bytes()
    path.write_bytes(text[:-cut])
    resumed = build_spectrum(spec, workers=1, checkpoint_path=str(path))
    _assert_same_bytes(tmp_path, resumed, full)
    blocks = [b["block"] for b in _log(path)[1:]]
    assert blocks == list(spectrum._block_starts(spec))
    assert path.read_bytes().startswith(text[: text.rstrip(b"\n").rfind(b"\n") + 1])


def test_checkpoint_header_mismatch(tmp_path):
    path = str(tmp_path / "ckpt.json")
    build_spectrum(EnumerationSpec(3, 300), checkpoint_path=path)
    with pytest.raises(ValueError):
        build_spectrum(EnumerationSpec(3, 400), checkpoint_path=path)


# Damage to the log of EnumerationSpec(3, 30): line 0 is the header and
# lines 1-3 hold blocks 1-3; row 1 of block 1 is ["1/10", 1, [[1, 1, 4]]].


def _line(text, index, change):
    lines = text.split("\n")
    lines[index] = change(lines[index])
    return "\n".join(lines)


def _edit(text, index, edit):
    """Apply ``edit`` to the parsed entry on log line ``index``."""

    def change(line):
        entry = json.loads(line)
        edit(entry)
        return json.dumps(entry, separators=(",", ":"))

    return _line(text, index, change)


def _edit_result(text, index, edit):
    """Apply ``edit`` to the result on log line ``index`` and digest it
    again, so that only the edit is wrong."""

    def redigest(entry):
        edit(entry["result"])
        entry["sha256"] = _sha256(entry["result"])

    return _edit(text, index, redigest)


def _set(row, column, value):
    return lambda result: result[row].__setitem__(column, value)


_CORRUPTIONS = [
    (lambda text: _line(text, 1, lambda s: s[: len(s) // 2]), "is not valid JSON"),
    (lambda text: _line(text, 0, lambda s: "[]"), "is not a JSON object"),
    (lambda text: _edit(text, 1, lambda e: e.pop("result")), "has no 'result' field"),
    (lambda text: _edit(text, 0, lambda e: e.update(version=7)), "unsupported version 7"),
    (lambda text: _edit(text, 1, lambda e: e.update(block="x")), "malformed block"),
    (lambda text: _edit_result(text, 1, lambda r: r.insert(0, [])), "malformed block"),
    (lambda text: _edit_result(text, 1, _set(1, 1, "many")), "malformed block"),
    (lambda text: _edit_result(text, 1, _set(1, 2, [[1, 1]])), "malformed block"),
    (lambda text: _edit_result(text, 1, _set(1, 0, "2/20")), "'2/20' is not in lowest terms"),
    (
        lambda text: _edit_result(text, 1, lambda r: r.append(["1/6", 1, [[1, 2, 3]]])),
        "distance 1/6 appears twice",
    ),
    (lambda text: _edit_result(text, 1, _set(1, 1, 10**20)), "a value is past int64"),
    (lambda text: _edit_result(text, 1, _set(1, 2, [[1, 1, 21]])), "witness entry is past 20"),
    (lambda text: _edit(text, 3, lambda e: e.update(block="02")), "key '02' is not a block start"),
    (lambda text: _edit(text, 2, lambda e: e.update(block=" 2")), "key ' 2' is not a block start"),
    (lambda text: _edit(text, 1, lambda e: e.update(block=0)), "key 0 is not a block start"),
    (lambda text: _edit(text, 3, lambda e: e.update(block=99)), "key 99 is not a block start"),
    (
        lambda text: _edit(text, 0, lambda e: e.pop("canonical_only")),
        "header has no 'canonical_only' field",
    ),
    (
        lambda text: _edit(text, 2, lambda e: e.update(sha256=e["sha256"][::-1])),
        "line 3: sha256 does not match",
    ),
    (lambda text: text + text.split("\n")[1] + "\n", "line 5 repeats block 1"),
    (lambda text: text[:20], "header is not valid JSON"),
    (lambda text: text.split("\n")[0], "header line is torn"),
    (
        lambda text: json.dumps(
            {"version": 1, "n": 3, "max_volume_sq": 30, "canonical_only": True, "blocks": {}}
        ),
        "format version 1, which is no longer read; delete it and rebuild",
    ),
]


@pytest.mark.parametrize("damage, message", _CORRUPTIONS)
def test_corrupt_checkpoint_names_the_file(tmp_path, damage, message):
    spec = EnumerationSpec(3, 30)
    path = tmp_path / "ckpt.jsonl"
    build_spectrum(spec, workers=1, checkpoint_path=str(path))
    text = path.read_text()
    bad = damage(text)
    assert bad != text
    path.write_text(bad)
    with pytest.raises(CorruptCheckpoint, match=message) as info:
        build_spectrum(spec, workers=1, checkpoint_path=str(path))
    assert str(path) in str(info.value)
    assert path.read_text() == bad


@pytest.mark.parametrize(
    "header, message",
    [
        (
            {"version": 2.0, "n": 3.0, "max_volume_sq": 30.0, "canonical_only": 1},
            "header field 'version' is 2.0, not an integer",
        ),
        (
            {"version": True, "n": 3, "max_volume_sq": 30, "canonical_only": True},
            "header field 'version' is True, not an integer",
        ),
        (
            {"version": 2, "n": 3.0, "max_volume_sq": 30, "canonical_only": True},
            "header field 'n' is 3.0, not an integer",
        ),
        (
            {"version": 2, "n": 3, "max_volume_sq": "30", "canonical_only": True},
            "header field 'max_volume_sq' is '30', not an integer",
        ),
        (
            {"version": 2, "n": 3, "max_volume_sq": 30, "canonical_only": 1},
            "header field 'canonical_only' is 1, not true",
        ),
        (
            {"version": 2, "n": 3, "max_volume_sq": 30, "canonical_only": False},
            "header field 'canonical_only' is False, not true",
        ),
    ],
)
def test_a_header_field_of_the_wrong_type_is_refused(tmp_path, header, message):
    # The log holds block 1 alone, so a build that took the header would append.
    spec = EnumerationSpec(3, 30)
    path = tmp_path / "ckpt.jsonl"
    with pytest.raises(_Interrupted):
        build_spectrum(spec, workers=1, checkpoint_path=str(path), progress=_interrupt_at(1))
    text = path.read_text()
    bad = json.dumps(header, separators=(",", ":")) + text[text.index("\n") :]
    path.write_text(bad)
    with pytest.raises(CorruptCheckpoint) as info:
        build_spectrum(spec, workers=1, checkpoint_path=str(path))
    assert str(info.value) == f"checkpoint {path} {message}"
    assert path.read_text() == bad


# A block line's trace fields, which vary from run to run.
_TRACE = re.compile(rb',"tuples":[0-9]+,"problems":[0-9]+,"seconds":[0-9.e-]+,"pid":[0-9]+}\n')


@pytest.mark.parametrize(
    "spec",
    [EnumerationSpec(1, 10), EnumerationSpec(2, 2000), EnumerationSpec(3, 2000),
     EnumerationSpec(4, 400), EnumerationSpec(5, 300)],
    ids=lambda spec: f"n{spec.n}",
)
def test_log_lines_are_the_compact_json_of_their_fields(tmp_path, spec):
    logged = {}
    for workers in (1, 2, 3):
        path = tmp_path / f"ckpt{workers}.jsonl"
        build_spectrum(spec, workers=workers, checkpoint_path=str(path))
        lines = path.read_bytes().split(b"\n")[1:-1]
        assert len(lines) == len(spectrum._block_starts(spec))
        for line in lines:
            entry = json.loads(line)
            assert line.decode() == json.dumps(entry, separators=(",", ":"))
            assert entry["sha256"] == _sha256(entry["result"])
            assert spectrum._block_cells(entry["result"], spec.n) is not None
        logged[workers] = sorted(_TRACE.sub(b"}", line + b"\n") for line in lines)
    assert logged[1] == logged[2] == logged[3]


def test_the_n3_log_is_frozen(tmp_path):
    path = tmp_path / "ckpt.jsonl"
    build_spectrum(EnumerationSpec(3, 2000), workers=1, checkpoint_path=str(path))
    untraced = _TRACE.sub(b"}\n", path.read_bytes())
    assert untraced.count(b"\n") == 26 and b'"tuples"' not in untraced
    digest = "2177d5ad33d86de81253ef84d4644fd1b3757bb8779903c171f250a6c63678d0"
    assert hashlib.sha256(untraced).hexdigest() == digest


@pytest.mark.parametrize("collecting", [True, False])
def test_a_log_read_restores_the_garbage_collector(tmp_path, monkeypatch, collecting):
    spec = EnumerationSpec(3, 30)
    path = tmp_path / "ckpt.jsonl"
    build_spectrum(spec, workers=1, checkpoint_path=str(path))
    text = path.read_text()
    during = []
    from_rows = spectrum._Block.from_rows

    def spy(rows, spec):
        during.append(gc.isenabled())
        return from_rows(rows, spec)

    monkeypatch.setattr(spectrum._Block, "from_rows", spy)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        build_spectrum(spec, workers=1, checkpoint_path=str(path))
        assert gc.isenabled() == collecting
        for i, (damage, message) in enumerate(_CORRUPTIONS):
            bad = tmp_path / f"bad{i}.jsonl"
            bad.write_text(damage(text))
            with pytest.raises(CorruptCheckpoint, match=message):
                build_spectrum(spec, workers=1, checkpoint_path=str(bad))
            assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert during and not any(during)


def test_a_digest_of_other_text_than_the_compact_result_does_not_match(tmp_path):
    spec = EnumerationSpec(3, 30)
    path = tmp_path / "ckpt.jsonl"
    full = build_spectrum(spec, workers=1, checkpoint_path=str(path))
    text = path.read_text()
    result = json.loads(text.split("\n")[1])["result"]
    compact, spaced = json.dumps(result, separators=(",", ":")), json.dumps(result)
    signed = compact.replace("[[1,1,4]]", "[[-0,1,4]]")
    assert "[[1, 1, 4]]" in spaced and signed != compact

    def logged(result, digested):
        """The log with block 1's result written as ``result``, digesting ``digested``."""
        sha = hashlib.sha256(digested.encode()).hexdigest()
        line = f'{{"block":1,"sha256":"{sha}","result":{result},"tuples":1,"seconds":0.0,"pid":1}}'
        return _line(text, 1, lambda _: line)

    for i, result in enumerate((spaced, signed)):
        bad = tmp_path / f"bad{i}.jsonl"
        bad.write_text(logged(result, digested=result))
        with pytest.raises(CorruptCheckpoint, match="line 2: sha256 does not match the result"):
            build_spectrum(spec, workers=1, checkpoint_path=str(bad))
        assert bad.read_text() == logged(result, digested=result)
    # A re-spaced result is still read when its digest is the compact text's.
    path.write_text(logged(spaced, digested=compact))
    _assert_same_bytes(tmp_path, build_spectrum(spec, workers=1, checkpoint_path=str(path)), full)


_LINE = (
    '{"block":2,"sha256":"' + "0" * 64 + '","result":[["0",2,[[1,1,1]]],["1/10",1,[[1,1,4]]]],'
    '"tuples":3,"seconds":0.5,"pid":7}'
)


# The line above as the writer makes it, and variants of it for the reader.
_LINE_VARIANTS = [
    _LINE,
    _LINE.replace(',"tuples":3,"seconds":0.5,"pid":7}', "}"),
    _LINE.replace('"pid":7}', '"pid":7,"result":[]}'),
    _LINE.replace('"pid":7}', '"pid":7,"block":3}'),
    _LINE.replace('"pid":7}', '"pid":7,"sha256":"x"}'),
    _LINE.replace('"pid":7}', '"pid":7,}'),
    _LINE.replace('"pid":7}', '"pid":7} '),
    _LINE.replace('"pid":7}', '"pid":7}\r'),
    _LINE.replace('"pid":7}', '"pid":7}{}'),
    _LINE.replace(']]]],"tuples"', ']]]] ,"tuples"'),
    _LINE.replace(']]]],"tuples"', ']]]],}'),
    _LINE.replace(']]]],"tuples"', ']]]]}'),
    _LINE.replace(']]]],"tuples"', ']]]'),
    _LINE.replace("[[1,1,4]]", "[[1, 1, 4]]"),
    _LINE.replace("[[1,1,4]]", "[[-0,1,4]]"),
    _LINE.replace("[[1,1,4]]", "[[1.0,1,4]]"),
    _LINE.replace("[[1,1,4]]", "[[1e0,1,4]]"),
    _LINE.replace('"1/10"', '"\\u0031/10"'),
    _LINE.replace('"1/10"', '"1/10\u00e9"'),
    _LINE.replace('"1/10"', '"1/\\n10"'),
    _LINE.replace('"0"', '"a"'),
    _LINE.replace(",2,", ",true,"),
    _LINE.replace('"block":2', '"block":02'),
    _LINE.replace('"block":2', '"block":0'),
    _LINE.replace('"block":2', '"block": 2'),
    _LINE.replace('"block":2', '"block":' + "9" * 19),
    _LINE.replace('"' + "0" * 64, '"' + "A" * 64),
    _LINE.replace('"result":[', '"result": ['),
    _LINE.replace('"result":[[', '"result":{"a":[').replace("]]]],", "]]]},"),
    _LINE.replace('"result":[[', '"result":"[['),
]


@pytest.mark.parametrize("line", _LINE_VARIANTS, ids=[f"variant{i}" for i in range(len(_LINE_VARIANTS))])
def test_a_log_line_is_read_as_json_reads_it(line):
    data = line.encode()
    try:
        expected = json.loads(data)
    except ValueError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            spectrum._parse_line(data)
        return
    entry, raw = spectrum._parse_line(data)
    assert entry == expected and list(entry) == list(expected)
    compact = json.dumps(expected["result"], separators=(",", ":")).encode()
    assert raw is None or raw == compact
    if line in _LINE_VARIANTS[:2]:
        assert raw == compact


def _block_result(v1):
    """A fresh copy of block v1's result at n = 3, bound 2000 (entries up to 176)."""
    return json.loads(json.dumps(_scan_block(3, 2000, v1)[1].rows()))


_ODD_CELLS = [True, False, 1.0, "1", None, 2**63, -(2**63) - 1, 177, -177, 0, -1]
_ODD_DISTANCES = [
    "2/4", "3/1", "0/5", "-0", "0/1", "0", "1/0", "-1/3", " 1/3", "1/3,1/4", "1/3,0,1/4",
    "9223372036854775808/3", "1/9223372036854775807", "177/178", True, 0.5, None, 1,
]


@st.composite
def _damaged_blocks(draw):
    """A block result of n = 3 at bound 2000, or an empty one, with up to
    three faults, and an n (sometimes the wrong one) to read it at."""
    v1 = draw(st.sampled_from([0, 1, 2, 19, 25]))
    rows = _block_result(v1) if v1 else []
    for _ in range(draw(st.integers(0, 3))):
        if not isinstance(rows, list) or not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        kind = draw(st.sampled_from(["distance", "mult", "cell", "ragged", "repeat", "witnesses", "row", "result"]))
        if kind == "row" or not (isinstance(row, list) and len(row) == 3 and isinstance(row[2], list) and row[2]):
            rows[i] = draw(st.sampled_from([None, [], "row", ("1/5", 1, []), ["1/5", 1], ["1/5", 1, [], 0]]))
            continue
        wit = row[2][draw(st.integers(0, len(row[2]) - 1))]
        if kind == "distance":
            row[0] = draw(st.sampled_from(_ODD_DISTANCES))
        elif kind == "mult":
            row[1] = draw(st.sampled_from(_ODD_CELLS))
        elif kind == "cell" and isinstance(wit, list):
            wit[draw(st.integers(0, len(wit) - 1))] = draw(st.sampled_from(_ODD_CELLS))
        elif kind == "ragged" and isinstance(wit, list):
            wit.append(1) if draw(st.booleans()) else wit.pop()
        elif kind == "repeat":  # the distance of a row that an earlier fault left whole
            row[0] = draw(st.sampled_from([r for r in rows if isinstance(r, list) and len(r) == 3]))[0]
        elif kind == "witnesses":
            row[2] = draw(st.sampled_from([None, "[]", {}, [(1, 2, 3)], [[1, 2, 3], None]]))
        elif kind == "result":
            rows = draw(st.sampled_from([None, {}, "rows", tuple(rows)]))
    return rows, draw(st.sampled_from([3, 3, 3, 2, 4]))


def _outcomes(rows, n):
    """What ``_Block.from_rows``, a checkpoint line holding ``rows`` and a
    table file holding them make of them: arrays, a table, or a message."""
    spec = EnumerationSpec(n, 2000)
    outcomes = []
    try:
        outcomes.append([x.tolist() for x in spectrum._Block.from_rows(rows, spec)])
    except InvalidInput as exc:
        outcomes.append(str(exc))
    header = {"version": 2, "n": n, "max_volume_sq": 2000, "canonical_only": True}
    line = {"block": 1, "sha256": _sha256(rows), "result": rows, "tuples": 1, "seconds": 0.0, "pid": 1}
    data = "\n".join(json.dumps(x, separators=(",", ":")) for x in (header, line)) + "\n"
    try:
        blocks = spectrum._read_checkpoint("ckpt.jsonl", data.encode(), spec)
        outcomes.append({v1: [x.tolist() for x in b] for v1, b in blocks.items()})
    except CorruptCheckpoint as exc:
        outcomes.append(str(exc))
    fields = ("d", "mult", "witnesses")
    entries = rows
    if isinstance(rows, list):
        entries = [dict(zip(fields, r)) if isinstance(r, list) and len(r) == 3 else r for r in rows]
    data = {"version": 1, "n": n, "k": 1, "max_volume_sq": 2000, "canonicalization": CANONICAL_CLASSES}
    try:
        outcomes.append(SpectrumTable.from_json_dict({**data, "entries": entries}))
    except TableMismatch as exc:
        outcomes.append(str(exc))
    return outcomes


@settings(max_examples=300, deadline=None)
@given(_damaged_blocks())
@example(([None, ["1/102", 2, [[25, 25, 26], [25, 26, 26]]]], 3))  # block 25: a row lost, then a repeat
@example(([[], ["1/102", 2, [[25, 25, 26], [25, 26, 26]]]], 3))
def test_the_array_pass_agrees_with_the_per_entry_walk(case):
    rows, n = case
    fast = _outcomes(rows, n)
    with mock.patch.object(spectrum, "_block_cells", lambda rows, n: None):
        assert _outcomes(rows, n) == fast


def test_json_round_trip(tmp_path):
    table = build_spectrum(EnumerationSpec(3, 100))
    path = str(tmp_path / "table.json")
    table.save_json(path)
    assert SpectrumTable.load_json(path) == table
    with open(path) as fh:
        data = json.load(fh)
    data["version"] = 99
    with pytest.raises(TableMismatch):
        SpectrumTable.from_json_dict(data)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("k", 2, "table has k=2, not 1"),
        ("canonicalization", "signed (one per global-sign class)", "table has canonicalization='signed"),
        ("entries", None, "has no 'entries' field"),
        ("max_volume_sq", None, "has no 'max_volume_sq' field"),
        ("entries", [{"d": "1/6", "mult": 1}], "malformed value"),
        ("n", "two", "malformed value"),
        ("entries", [{"d": "1/0", "mult": 1, "witnesses": []}], "zero denominator"),
        ("entries", [], "table has no entries"),
        ("entries", [{"d": "1/6", "mult": 0, "witnesses": [[1, 2]]}], "multiplicity 0"),
        ("entries", [{"d": "1/6", "mult": -3, "witnesses": [[1, 2]]}], "multiplicity -3"),
        ("entries", [{"d": "1/6", "mult": 1, "witnesses": [[1, 2, 3]]}], r"witness \[1, 2, 3\]"),
        ("entries", [{"d": "1/6", "mult": 1, "witnesses": [["1", "2"]]}], r"witness \['1', '2'\]"),
        ("entries", [{"d": "2/12", "mult": 3, "witnesses": [[1, 2]]}], "'2/12' is not in lowest terms"),
        (
            "entries",
            [
                {"d": "1/6", "mult": 3, "witnesses": [[1, 2]]},
                {"d": "1/6", "mult": 5, "witnesses": [[1, 2]]},
            ],
            "distance 1/6 appears twice",
        ),
        ("n", 0, "malformed value: need n >= 1"),
        ("max_volume_sq", 0, "malformed value: max_volume_sq below the all-ones tuple"),
        ("max_volume_sq", -7, "malformed value: max_volume_sq below the all-ones tuple"),
    ],
)
def test_load_rejects_a_foreign_table(tmp_path, field, value, message):
    data = build_spectrum(EnumerationSpec(2, 10)).to_json_dict()
    if value is None:
        del data[field]
    else:
        data[field] = value
    with pytest.raises(TableMismatch, match=message):
        SpectrumTable.from_json_dict(data)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    with pytest.raises(TableMismatch, match=f"^{re.escape(str(path))}: .*{message}"):
        SpectrumTable.load_json(str(path))


@pytest.mark.parametrize(
    "damage, reason",
    [
        (lambda data: data.update(n="two"), "field 'n' is 'two', not an integer"),
        (lambda data: data["entries"][1].pop("witnesses"), "entry 1 has no 'witnesses' field"),
        (lambda data: data["entries"][0].update(d="1/x"), "entry 0: Invalid literal for Fraction: '1/x'"),
    ],
)
def test_load_explains_a_damaged_table(damage, reason):
    data = build_spectrum(EnumerationSpec(2, 10)).to_json_dict()
    damage(data)
    with pytest.raises(TableMismatch) as info:
        SpectrumTable.from_json_dict(data)
    assert str(info.value) == f"table has a malformed value: {reason}"


def test_load_names_an_unreadable_table(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(TableMismatch, match=f"cannot read table {re.escape(str(missing))}"):
        SpectrumTable.load_json(str(missing))
    truncated = tmp_path / "truncated.json"
    build_spectrum(EnumerationSpec(2, 10)).save_json(str(truncated))
    truncated.write_text(truncated.read_text()[:40])
    with pytest.raises(TableMismatch, match=f"table {re.escape(str(truncated))} is not valid JSON"):
        SpectrumTable.load_json(str(truncated))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_saved_files_follow_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        spec = EnumerationSpec(2, 50)
        table = build_spectrum(spec, workers=1, checkpoint_path=str(tmp_path / "ckpt.json"))
        table.save_json(str(tmp_path / "table.json"))
        table.save_flat(str(tmp_path / "table.tsv"))
    finally:
        os.umask(old)
    for name in ("ckpt.json", "table.json", "table.tsv"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode, name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json", "table.json", "table.tsv"]


def test_saved_files_are_fsynced(tmp_path, monkeypatch):
    synced = []
    fsync = os.fsync

    def record(fd):
        synced.append(os.fstat(fd).st_ino)
        fsync(fd)

    monkeypatch.setattr(os, "fsync", record)
    spec = EnumerationSpec(2, 50)
    table = build_spectrum(spec, workers=1, checkpoint_path=str(tmp_path / "ckpt.jsonl"))
    blocks = len(spectrum._block_starts(spec))
    # The header is written atomically, then each block is appended.
    assert synced.count(os.stat(tmp_path / "ckpt.jsonl").st_ino) == 1 + blocks
    directory = os.stat(tmp_path).st_ino
    inodes = []
    # The second pair of saves finds the same bytes in place: it keeps both
    # files, leaves no temporary file, and fsyncs each file and then the directory.
    for _ in range(2):
        synced.clear()
        table.save_json(str(tmp_path / "table.json"))
        table.save_flat(str(tmp_path / "table.tsv"))
        json_ino = os.stat(tmp_path / "table.json").st_ino
        flat_ino = os.stat(tmp_path / "table.tsv").st_ino
        assert synced == [json_ino, directory, flat_ino, directory]
        inodes.append((json_ino, flat_ino))
    assert inodes[0] == inodes[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.jsonl", "table.json", "table.tsv"]


@pytest.mark.parametrize("occupant", ["one other byte", "symlink to the same bytes", "fifo"])
def test_a_save_replaces_a_target_that_is_not_the_same_file(tmp_path, occupant):
    table = build_spectrum(EnumerationSpec(2, 50))
    table.save_json(str(tmp_path / "expected.json"))
    expected = (tmp_path / "expected.json").read_bytes()
    path = tmp_path / "table.json"
    if occupant == "one other byte":
        path.write_bytes(bytes([expected[0] ^ 1]) + expected[1:])
    elif occupant == "symlink to the same bytes":
        path.symlink_to(tmp_path / "expected.json")
    else:
        os.mkfifo(path)
    before = os.lstat(path).st_ino
    # Opening a FIFO for reading waits for a writer; the alarm turns a hang into a failure.
    handler = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the save blocked on the target"))
    signal.alarm(10)
    try:
        table.save_json(str(path))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert stat.S_ISREG(os.lstat(path).st_mode)
    assert os.lstat(path).st_ino != before
    assert path.read_bytes() == expected
    assert (tmp_path / "expected.json").read_bytes() == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["expected.json", "table.json"]


def test_a_save_over_a_directory_names_the_path(tmp_path):
    path = tmp_path / "table.json"
    path.mkdir()
    with pytest.raises(OSError, match=re.escape(str(path))):
        build_spectrum(EnumerationSpec(2, 50)).save_json(str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["table.json"]


def test_flat_export(tmp_path):
    table = build_spectrum(EnumerationSpec(2, 50))
    path = str(tmp_path / "table.tsv")
    table.save_flat(path)
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "d\td_approx\tml\tml_approx\tmultiplicity"
    assert len(lines) == 1 + len(table.entries)
    first = lines[1].split("\t")
    assert first[0] == "1/6"
    assert first[2] == "1/3"
    assert first[1].startswith("0.16666666666")


# A key whose terms are past str()'s default limit of 4300 digits.
_HUGE_KEY = F(10**4400 + 1, 10**4400)


@st.composite
def _tables(draw):
    """A table of n = 0..4 with up to 6 entries, and whether a save of it
    loads back (not at n = 0): keys 0, 1/2 and others of up to 30-digit terms, witness
    cells of either sign up to 10^30, entries with no witnesses and
    multiplicities past 2^63; sometimes one odd value, which no loader takes:
    a bool or numpy integer, a witness of the wrong length, a float key or
    one past str()'s digit limit."""
    n = draw(st.integers(0, 4))
    key = st.one_of(st.sampled_from([F(0), F(1, 2)]), st.fractions(-2, 2, max_denominator=10**30))
    wit = st.tuples(*[st.integers(-(10**30), 10**30)] * n)
    entries = {
        k: SpectrumEntry(draw(st.integers(1, 2**70)), tuple(draw(st.lists(wit, max_size=3))))
        for k in draw(st.lists(key, unique=True, max_size=6))
    }
    odd = draw(st.sampled_from([None, None, None, "mult", "cell", "length", "key"]))
    if odd == "key":
        entries[draw(st.sampled_from([_HUGE_KEY, 0.25]))] = SpectrumEntry(1, ())
    elif odd and entries:
        k = draw(st.sampled_from(sorted(entries)))
        mult, wits = entries[k].multiplicity, entries[k].witnesses
        value = draw(st.sampled_from([True, np.int64(3)]))
        if odd == "mult":
            mult = value
        elif odd == "cell" and wits:
            wits = ((value, *wits[0][1:]), *wits[1:])
        elif odd == "length":
            wits = (*wits, draw(st.sampled_from([(), (1,) * (n + 1)])))
        entries[k] = SpectrumEntry(mult, wits)
    table = SpectrumTable(n=n, max_volume_sq=draw(st.integers(n, 10**6)), entries=entries)
    return table, odd is None and bool(entries) and n > 0


@settings(max_examples=200, deadline=None)
@given(_tables())
def test_table_files_match_the_generic_encoders(case):
    table, loads = case
    saves = (
        ("t.json", table.save_json, lambda: json.dumps(table.to_json_dict(), indent=2) + "\n"),
        ("t.tsv", table.save_flat, lambda: flat_reference(table)),
    )
    written = {}
    with mock.patch.object(spectrum, "_atomic_write", written.__setitem__):
        for name, save, reference in saves:
            try:
                expected = reference()
            except (TypeError, AttributeError) as exc:  # a numpy integer, a float key
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    save(name)
                assert name not in written
            else:
                save(name)
                assert written[name] == expected
    if loads:
        loaded = SpectrumTable.from_json_dict(json.loads(written["t.json"]))
        assert loaded == table
        assert {type(k) for k in loaded.entries} == {Fraction}


def test_table_files_are_frozen(tmp_path):
    table = build_spectrum(EnumerationSpec(3, 2000))
    table.save_json(str(tmp_path / "t.json"))
    table.save_flat(str(tmp_path / "t.tsv"))
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("t.json", "t.tsv")}
    assert digests == {
        "t.json": "fb1e7588566287629a89d34df709c106414b042179629743b0345502a1634132",
        "t.tsv": "5b8048062de6479a57ebf5700fb67b2ee3a79e679896fa302a231082e1e39dd8",
    }


# --- closed-form verifier -------------------------------------------------


def test_s2_verifier_passes(table_n2_1e4):
    report = verify_closed_form_s2(table_n2_1e4)
    assert report.passed
    assert report.largest_key == F(1, 6)
    assert not report.violations and not report.missing


def test_s2_verifier_negative_controls(table_n2_1e4):
    entries = dict(table_n2_1e4.entries)
    entries[F(1, 7)] = SpectrumEntry(1, ((9, 9),))
    tampered = replace(table_n2_1e4, entries=entries)
    report = verify_closed_form_s2(tampered)
    assert not report.passed
    assert report.violations == (F(1, 7),)

    entries = dict(table_n2_1e4.entries)
    del entries[F(1, 10)]
    gutted = replace(table_n2_1e4, entries=entries)
    report = verify_closed_form_s2(gutted)
    assert not report.passed
    assert 2 in report.missing


def test_s2_verifier_rejects_wrong_shape(table_n3_1e3):
    with pytest.raises(TableMismatch):
        verify_closed_form_s2(table_n3_1e3)


# --- family verifier ------------------------------------------------------


def test_family_values():
    report = verify_family_fan_sun(3)
    assert report.passed
    assert [c.ml for c in report.checks] == [F(7, 30), F(9, 38), F(11, 46), F(13, 54)]
    assert report.checks[0].speeds == (8, 3, 11, 19)
    with pytest.raises(ValueError):
        verify_family_fan_sun(-1)


def _no_scan(rows):
    raise AssertionError("scanned")


def test_family_refuses_r_max_past_its_budget(monkeypatch):
    monkeypatch.setattr(spectrum, "_FAN_SUN_MEMBERS", 4)
    assert len(verify_family_fan_sun(3).checks) == 4
    monkeypatch.setattr(spectrum, "max_loneliness", _no_scan)
    message = "r_max 4 needs 5 family members, past the budget of 4"
    with pytest.raises(BudgetExceeded, match=message):
        verify_family_fan_sun(4)


# --- window verifier ------------------------------------------------------


def test_window_n3_small():
    table = build_spectrum(EnumerationSpec(3, 500))
    report = verify_window(table, "strict")
    assert report.passed
    assert (report.in_window, report.out_of_window) == (10, 42)
    assert report.class_counts == {1: 10}


def test_window_n2(table_n2_1e4):
    # ML values 1/2 - 1/(4s+2) = s/(2s+1) all sit in the k=1 class; the
    # key 0 maps to ml = 1/2, outside the open window
    report = verify_window(table_n2_1e4, "strict")
    assert report.passed
    assert report.in_window == len(table_n2_1e4.entries) - 1
    assert report.out_of_window == 1


def test_window_synthetic_violations(table_n3_1e3):
    entries = dict(table_n3_1e3.entries)
    entries[F(5, 18)] = SpectrumEntry(1, ((9, 9, 9),))  # ml 2/9: class k=3
    entries[F(5, 11)] = SpectrumEntry(1, ((8, 8, 8),))  # ml 1/22: k=19
    tampered = replace(table_n3_1e3, entries=entries)
    strict = verify_window(tampered, "strict")
    assert not strict.passed
    assert {v.ml for v in strict.violations} == {F(2, 9), F(1, 22)}
    amended = verify_window(tampered, "amended")
    assert not amended.passed
    assert {v.ml for v in amended.violations} == {F(1, 22)}


def test_window_n4_probe():
    # the four-speed family contributes k=2 values: reported under the
    # amended form, flagged under the strict one
    table = build_spectrum(EnumerationSpec(4, 600))
    assert table.total_multiplicity() == mobius_primitive_count(4, 600) == 4881
    strict = verify_window(table, "strict")
    assert not strict.passed
    assert {v.ml for v in strict.violations} == {F(5, 22), F(7, 30)}
    assert ((3, 8, 11, 19),) == next(
        v.witnesses for v in strict.violations if v.ml == F(7, 30)
    )
    amended = verify_window(table, "amended")
    assert amended.passed
    assert amended.class_counts == {1: 7, 2: 2}


def test_window_validates():
    table = build_spectrum(EnumerationSpec(2, 10))
    with pytest.raises(ValueError):
        verify_window(table, "loose")


# --- absence certification ------------------------------------------------


def test_certify_small_cutoff_fails_only_phase_b():
    cert = certify_absence(F(7, 50), 3, 500)
    assert cert.phase_a_passed
    assert cert.phase_a_checked == 837
    assert cert.cases_ok
    assert cert.density_lhs < 1
    assert not cert.phase_b_passed
    assert not cert.passed


def test_certify_present_values_fail_phase_a():
    cert = certify_absence(F(1, 6), 3, 300)
    assert not cert.phase_a_passed
    assert cert.phase_a_witness == (1, 1, 2)
    assert not cert.passed
    cert = certify_absence(F(1, 4), 3, 300)
    assert cert.phase_a_witness == (1, 2, 3)


@pytest.mark.parametrize("target", [F(1, 6), F(1, 4)])
def test_certify_phase_a_stops_at_the_first_witness(target):
    # phase_a_checked is the 1-based position of the first tuple with
    # distance target in enumeration order, not the end of its block.
    order = list(enumerate_proper_primitive(EnumerationSpec(3, 300)))
    position = next(i for i, t in enumerate(order) if d_subtorus1(t) == target) + 1
    cert = certify_absence(target, 3, 300)
    assert cert.phase_a_witness == order[position - 1]
    assert cert.phase_a_checked == position
    block = sum(1 for t in order if t[0] == order[position - 1][0])
    assert position < block


def test_certify_a_target_past_int64_has_no_hit(monkeypatch):
    # The reduced maximum loneliness of the target has a denominator past
    # int64, which no scanned (a, q) can equal.
    monkeypatch.setattr(spectrum, "_SCANS", {})
    cert = certify_absence(F(1, 6) - F(1, 2**64), 3, 300)
    assert cert.phase_a_passed
    assert cert.phase_a_checked == mobius_primitive_count(3, 300)


def test_certify_progress_reports_every_hundred_thousand(monkeypatch):
    # The scan is stubbed out: every tuple reads ML 1/3 (distance 1/6),
    # never the target, so only the enumeration and the count run.
    monkeypatch.setattr(
        spectrum, "_scan_rows", lambda rows: (np.full((len(rows), 2), (1, 3), dtype=np.int64), 0)
    )
    facts = OuterSpectrumFacts(values_above=(F(1, 6),), low_bound=F(1, 10))
    seen = []
    cert = certify_absence(F(7, 50), 2, 10**6, outer_facts=facts, progress=seen.append)
    assert cert.phase_a_checked == mobius_primitive_count(2, 10**6)
    assert len(seen) == 2
    assert seen == list(range(100_000, cert.phase_a_checked + 1, 100_000))


def test_certify_reads_the_scan_of_the_build_before_it(monkeypatch):
    monkeypatch.setattr(spectrum, "_SCANS", {})
    build_spectrum(EnumerationSpec(3, 10**4))
    monkeypatch.setattr(spectrum, "_scan_rows", _no_scan)
    cert = certify_absence(F(7, 50), 3, 10**4)
    assert cert.phase_a_passed
    assert cert.phase_a_checked == 73077


def test_certify_with_a_recorded_scan_equals_a_fresh_scan(monkeypatch):
    # Every field and every progress call agree, whether Phase A reads the
    # build's scan or scans again: on every key and on values that are none,
    # at cutoffs below, at and above the build's bound.
    monkeypatch.setattr(spectrum, "_SCANS", {})
    monkeypatch.setattr(spectrum, "_PROGRESS_EVERY", 1000)
    table = build_spectrum(EnumerationSpec(3, 2000), workers=1)
    recorded = spectrum._SCANS
    scan_rows = spectrum._scan_rows
    scans, kernel = [], {}

    def counted(rows):  # the kernel is deterministic: scan each block once
        scans.append(len(rows))
        key = tuple(map(tuple, np.asarray(rows).tolist()))
        if key not in kernel:
            kernel[key] = scan_rows(rows)
        return kernel[key]

    monkeypatch.setattr(spectrum, "_scan_rows", counted)
    least = [sum(c * c for c in e.witnesses[0]) for e in table.entries.values()]
    edge = max(v for v in least if v <= 1000)  # a key's least volume, below the bound
    for cutoff in (edge, 2000, 3000):
        # 11/64 first occurs at (2, 31, 33), of volume 2054, above the bound.
        for target in [*table.entries, F(7, 50), F(0), F(1, 2), F(11, 64)]:
            runs = []
            for registry in (recorded, {}):
                monkeypatch.setattr(spectrum, "_SCANS", registry)
                seen = []
                scans.clear()
                cert = certify_absence(target, 3, cutoff, progress=seen.append)
                runs.append((cert, seen, len(scans)))
            (cert, seen, read), (fresh, fresh_seen, _) = runs
            assert cert == fresh
            assert seen == fresh_seen
            if cert.phase_a_passed and cutoff <= 2000:
                assert read == 0


@contextlib.contextmanager
def _grid_problems():
    """How many problems ``_scan_problems`` receives, in a one-item list."""
    sent = [0]
    scan = loneliness._scan_problems

    def spy(speeds, q):
        sent[0] += len(q)
        return scan(speeds, q)

    with mock.patch.object(loneliness, "_scan_problems", spy):
        yield sent


def _memo():
    return getattr(loneliness._SCRATCH, "memo", None)


def test_no_class_memo_outlives_its_call(tmp_path, monkeypatch):
    # Two builds, and a fresh Phase A scan of the same bound, each start
    # from an empty memo, so each sends the grid the same problems; a
    # build's block lines count them.  No memo is left in the thread.
    monkeypatch.setattr(spectrum, "_SCANS", {})
    spec, path = EnumerationSpec(3, 2000), tmp_path / "ckpt.jsonl"
    runs = []
    for call in (
        lambda: build_spectrum(spec, workers=1, checkpoint_path=str(path)),
        lambda: build_spectrum(spec, workers=1),
        lambda: spectrum._SCANS.clear() or certify_absence(F(7, 50), 3, 2000).phase_a_passed,
    ):
        with _grid_problems() as sent:
            assert call()
        runs.append(sent[0])
        assert _memo() is None
    assert runs[0] == runs[1] == runs[2] == sum(b["problems"] for b in _log(path)[1:]) > 0
    with pytest.raises(_Interrupted):
        build_spectrum(spec, workers=1, progress=_interrupt_at(3))
    assert _memo() is None
    build_spectrum(spec, workers=2)
    assert _memo() is None


def test_threads_building_at_once_keep_their_own_memos(monkeypatch):
    # Each thread's builds use its own memo, whose keys depend on the bound.
    monkeypatch.setattr(spectrum, "_SCANS", {})
    specs = [EnumerationSpec(3, 3000), EnumerationSpec(4, 600), EnumerationSpec(2, 20000)]
    expected = [build_spectrum(spec, workers=1) for spec in specs]
    results = {}

    def work(i):
        results[i] = [build_spectrum(specs[(i + k) % 3], workers=1) for k in range(3)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(3):
        assert results[i] == [expected[(i + k) % 3] for k in range(3)]


@pytest.mark.parametrize("n, bound", [(2, 20000), (3, 2000), (6, 300)])
def test_the_batch_caps_change_no_output(tmp_path, monkeypatch, n, bound):
    # Blocks scanned alone, in 7-row slices and joined into one batch give
    # the same tables, log lines and Phase A scans as the default caps; one
    # worker's log counts the problems that its build sent to the grid, and
    # a passing Phase A scan sends as many.
    monkeypatch.setattr(spectrum, "_SCANS", {})
    spec = EnumerationSpec(n, bound)
    assert n == 3 or len(spectrum._block_rows(n, bound, spectrum._block_starts(spec)[-1])) == 0
    facts = OuterSpectrumFacts(values_above=(F(1, 6),), low_bound=F(1, 10))

    def outputs(name, workers):
        path = tmp_path / f"{name}.jsonl"
        with _grid_problems() as sent:
            table = build_spectrum(spec, workers=workers, checkpoint_path=str(path))
        logged = _log(path)[1:]
        if workers == 1:
            assert sent[0] == sum(b["problems"] for b in logged)
        table.save_json(str(tmp_path / f"{name}.json"))
        table.save_flat(str(tmp_path / f"{name}.tsv"))
        files = [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("json", "tsv")]
        return table, files, sorted((b["block"], b["result"], b["sha256"]) for b in logged), sent[0]

    def phase_a(table, problems):
        keys = sorted(table.entries)
        certs = []
        for target in (keys[0], keys[len(keys) // 2], keys[-1], F(1, 5), F(7, 50), F(1, 2)):
            spectrum._SCANS.clear()
            with _grid_problems() as sent:
                cert = certify_absence(target, n, bound, outer_facts=facts)
            assert sent[0] == problems if cert.phase_a_passed else sent[0] <= problems
            certs.append((cert.phase_a_checked, cert.phase_a_witness))
        return certs

    table, *expected, problems = outputs("default", 1)
    certs = phase_a(table, problems)
    if (n, bound) == (3, 2000):
        assert certs[3:5] == [(52, (1, 2, 9)), (6592, None)]
    for join, cut in [(1, 7), (10**9, 10**9)]:
        monkeypatch.setattr(spectrum, "_JOIN_ROWS", join)
        monkeypatch.setattr(spectrum, "_SLICE_ROWS", cut)
        sent = {}
        for workers in (1, 2, 3):
            table, *got, sent[workers] = outputs(f"{join}-{workers}", workers)
            assert got == expected
        assert phase_a(table, sent[1]) == certs


def test_a_resumed_build_records_no_scan(tmp_path, monkeypatch):
    spec = EnumerationSpec(3, 2000)
    path = tmp_path / "ckpt.jsonl"
    monkeypatch.setattr(spectrum, "_SCANS", {})
    build_spectrum(spec, workers=1, checkpoint_path=str(path))
    assert spectrum._SCANS[3].max_volume_sq == 2000  # a new log: every block scanned
    spectrum._SCANS.clear()
    path.write_bytes(path.read_bytes()[:-7])
    build_spectrum(spec, workers=1, checkpoint_path=str(path))
    assert spectrum._SCANS == {}
    scans = []
    scan_rows = spectrum._scan_rows
    monkeypatch.setattr(spectrum, "_scan_rows", lambda rows: scans.append(rows) or scan_rows(rows))
    assert certify_absence(F(7, 50), 3, 2000).phase_a_checked == 6592
    assert scans


@pytest.mark.parametrize("target", [F(3, 5), F(1), F(-1, 10)])
def test_certify_refuses_a_target_that_is_no_distance(monkeypatch, target):
    monkeypatch.setattr(spectrum, "_scan_rows", _no_scan)
    with pytest.raises(InvalidInput, match=r"is not a distance in \[0, 1/2\]"):
        certify_absence(target, 3, 300)


def test_certify_accepts_the_end_points():
    assert certify_absence(F(0), 3, 30).phase_a_witness == (1, 1, 1)
    assert certify_absence(F(1, 2), 3, 30).phase_a_passed


def test_certify_requires_outer_facts():
    with pytest.raises(MissingOuterSpectrum):
        certify_absence(F(7, 50), 2, 100)


def test_certify_with_explicit_facts():
    facts = OuterSpectrumFacts(values_above=(F(1, 6),), low_bound=F(1, 10))
    cert = certify_absence(F(7, 50), 2, 500, outer_facts=facts)
    assert cert.passed
    assert cert.density_lhs > 3


def test_certify_margin_can_break_the_case_split(monkeypatch):
    monkeypatch.setattr(spectrum, "ABSENCE_MARGIN", F(1, 10))
    cert = certify_absence(F(7, 50), 3, 500)
    assert not cert.cases_ok
    assert not cert.phase_b_passed


# --- reports --------------------------------------------------------------


def test_accumulation_counts(table_n3_1e3, table_n3_1e4):
    targets = (F(1, 6), F(1, 10), F(1, 14))
    wide = accumulation_report(table_n3_1e4, targets, F(1, 100))
    assert [(r.above_count, r.below_count) for r in wide] == [
        (36, 0),
        (52, 10),
        (55, 47),
    ]
    assert F(5, 52) in wide[1].below_keys
    tight = accumulation_report(table_n3_1e4, targets, F(1, 1000))
    assert all(r.below_count == 0 for r in tight)
    growth = accumulation_report(table_n3_1e3, (F(1, 6),), F(1, 100))
    assert growth[0].above_count == 4


def test_accumulation_window_edges_are_open():
    keys = [F(1, 8), F(1, 5), F(0), F(3, 20), F(7, 40), F(1, 10), F(11, 100), F(1, 6)]
    table = SpectrumTable(3, 100, {k: SpectrumEntry(1, ()) for k in keys})
    # The window around 3/20 is (1/10, 1/5): its edges and the target count for neither side.
    (row,) = accumulation_report(table, (F(3, 20),), F(1, 20))
    assert (row.above_count, row.below_count, row.below_keys) == (2, 2, (F(11, 100), F(1, 8)))


def test_accumulation_validates(table_n3_1e3):
    with pytest.raises(ValueError):
        accumulation_report(table_n3_1e3, (F(1, 6),), 0)


def test_multiplicity_report(table_n3_1e4, table_n2_1e4):
    rows = multiplicity_report(table_n3_1e4, threshold=2)
    by_key = {r.key: r for r in rows}
    assert by_key[F(1, 6)].multiplicity == 2335
    assert by_key[F(1, 6)].expected_unbounded
    assert by_key[F(0)].expected_unbounded
    assert F(1, 4) not in by_key  # single witness: below the threshold
    mults = [r.multiplicity for r in rows]
    assert mults == sorted(mults, reverse=True)

    singles = {r.key: r for r in multiplicity_report(table_n3_1e4, threshold=1)}
    assert singles[F(1, 4)].multiplicity == 1
    assert not singles[F(1, 4)].expected_unbounded

    n2 = {r.key: r for r in multiplicity_report(table_n2_1e4, threshold=1)}
    assert n2[F(1, 6)].multiplicity == 1
    with pytest.raises(ValueError):
        multiplicity_report(table_n2_1e4, threshold=0)


# --- worker resolution ----------------------------------------------------


def test_resolve_workers(monkeypatch):
    assert resolve_workers(3) == 3
    monkeypatch.setenv(THREADS_ENV_VAR, "5")
    assert resolve_workers() == 5
    assert resolve_workers(2) == 2
    monkeypatch.delenv(THREADS_ENV_VAR)
    assert resolve_workers() >= 1


def test_resolve_workers_names_a_bad_environment_value(monkeypatch):
    monkeypatch.setenv(THREADS_ENV_VAR, "abc")
    with pytest.raises(ValueError, match=f"{THREADS_ENV_VAR} must be an integer, not 'abc'"):
        resolve_workers()
    assert resolve_workers(2) == 2


@pytest.mark.parametrize("value", ["0", "-3"])
def test_resolve_workers_names_an_environment_count_below_one(monkeypatch, value):
    monkeypatch.setenv(THREADS_ENV_VAR, value)
    with pytest.raises(InvalidInput, match=f"^{THREADS_ENV_VAR} must be at least 1, not '{value}'$"):
        resolve_workers()
    assert resolve_workers(2) == 2

"""Spectrum tables for line orbits: enumeration, assembly, verification.

A proper line orbit in the n-torus is described by a primitive integer
speed tuple with no zero entry; up to the symmetries fixing the center
(coordinate permutations and sign flips) the canonical form is a sorted
positive tuple.  This module enumerates the canonical tuples inside a
volume ball into int64 arrays, one leading-coordinate block at a time,
within a tuple budget; folds the blocks' scanned center distances into a
table in the same arrays; and provides the verifiers used by the
acceptance suite: the n = 2 closed form, the four-speed family identity,
the reduced-form window test, and the two-phase absence certifier.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import re
import stat
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import ceil, factorial, gcd, isqrt
from time import perf_counter
from typing import BinaryIO, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (
    HALF,
    IntVector,
    InvalidInput,
    Rational,
    RationalLike,
    format_rational,
    parse_rational,
)
from .lattice import DEFAULT_PI_BOUNDS, BudgetExceeded, ball_volume
from .loneliness import _ClassMemo, _scan_rows, max_loneliness

__all__ = [
    "CorruptCheckpoint",
    "EnumerationSpec",
    "MissingOuterSpectrum",
    "OuterSpectrumFacts",
    "SpectrumTable",
    "TableMismatch",
    "accumulation_report",
    "build_spectrum",
    "certify_absence",
    "enumerate_proper_primitive",
    "multiplicity_report",
    "verify_closed_form_s2",
    "verify_family_fan_sun",
    "verify_window",
]

THREADS_ENV_VAR = "RUNNERSPEC_THREADS"
WITNESS_CAP = 8

TABLE_FORMAT_VERSION = 1
CHECKPOINT_FORMAT_VERSION = 2

CANONICAL_CLASSES = "sorted-positive (one per permutation/sign class)"

# The density radius of Phase B stops this far short of the gap between
# the target and the plane facts' low bound, so that both inequalities of
# the case split are strict.
ABSENCE_MARGIN = Fraction(1, 10**6)


class TableMismatch(InvalidInput):
    """A table, or a table file, that does not have the shape needed."""


class MissingOuterSpectrum(InvalidInput):
    """No built-in facts for this (n, target); supply them explicitly."""


class CorruptCheckpoint(InvalidInput):
    """A checkpoint file that cannot be read back as block results."""


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count: explicit argument, then environment, then cpu count."""
    if workers is None:
        env = os.environ.get(THREADS_ENV_VAR)
        if env is not None:
            try:
                workers = int(env)
            except ValueError:
                raise InvalidInput(
                    f"{THREADS_ENV_VAR} must be an integer, not {env!r}"
                ) from None
            if workers < 1:
                raise InvalidInput(f"{THREADS_ENV_VAR} must be at least 1, not {env!r}")
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise InvalidInput("worker count must be at least 1")
    return workers


@dataclass(frozen=True)
class EnumerationSpec:
    """Parameters of a canonical enumeration of proper line directions."""

    n: int
    max_volume_sq: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInput("need n >= 1")
        if self.max_volume_sq < self.n:
            raise InvalidInput(
                "max_volume_sq below the all-ones tuple; nothing to enumerate"
            )


def _block_rows(n: int, max_volume_sq: int, v1: int) -> np.ndarray:
    """Canonical tuples starting with v1, in lexicographic order, as an (m, n) int64 array.

    Slot by slot, each prefix repeats once per value x of its next slot, from
    its last entry to isqrt(budget // slots left), and its budget drops by x^2.
    """
    rows = np.full((1, 1), v1, dtype=np.int64)
    # n = 1 takes any bound: its one block, (1,), fills no slot.
    budget = np.array([max_volume_sq - v1 * v1 if n > 1 else 0], dtype=np.int64)
    for slots in range(n - 1, 0, -1):
        room = budget // slots
        top = np.sqrt(room).astype(np.int64)  # the float root is off by at most one
        top += ((top + 1) ** 2 <= room).astype(np.int64) - (top * top > room)
        count = np.maximum(top - rows[:, -1] + 1, 0)
        prefix = np.repeat(np.arange(len(rows)), count)
        x = rows[prefix, -1] + np.arange(len(prefix)) - np.repeat(np.cumsum(count) - count, count)
        rows = np.column_stack((rows[prefix], x))
        budget = budget[prefix] - x * x
    return rows[np.gcd.reduce(rows, axis=1) == 1]


def _block_starts(spec: EnumerationSpec) -> range:
    # A 1-tuple is primitive only at 1, so n = 1 has one block.
    if spec.n == 1:
        return range(1, 2)
    return range(1, isqrt(spec.max_volume_sq // spec.n) + 1)


# The most canonical tuples that a table build, absence certificate or
# enumeration takes on.  It bounds the tuple count, not memory or time: a
# one-worker build at each n's largest admitted bound peaks at 144 to 658 MiB.
_TUPLE_BUDGET = 10**7


def _require_budget(spec: EnumerationSpec) -> int:
    """Return a bound U_n on the canonical tuples of ``spec``, or raise
    ``BudgetExceeded`` if it is past ``_TUPLE_BUDGET``.

    The cubes [v - 1, v] of the positive tuples fill at most the orthant of
    the ball of radius sqrt(B), w_n B^(n/2) / 2^n.  A sorted tuple of distinct
    entries is n! of them, and one with a repeated entry is a sorted
    (n - 1)-tuple with one entry doubled: U_n = w_n B^(n/2) / (2^n n!) +
    (n - 1) U_(n-1), from U_1 = sqrt(B).  n = 1 has one tuple.  As U_k >=
    U_(k-1), the recursion stops once the bound is past the budget, so every
    n >= 12 is refused at once (U_n >= (n - 1)! > 10^7).  An admitted n >= 2
    has pi B / 8 < U_2 <= 10^7, so its top speed is at most 5,044, far
    inside the kernel's int64 bound.
    """
    B, root = spec.max_volume_sq, isqrt(spec.max_volume_sq - 1) + 1
    bound = Fraction(root) if spec.n > 1 else 1
    for k in range(2, spec.n + 1):
        if bound > _TUPLE_BUDGET:
            break
        ball = ball_volume(k).bounds()[1] * B ** (k // 2) * root ** (k % 2)
        bound = ball / (2**k * factorial(k)) + (k - 1) * bound
    if ceil(bound) > _TUPLE_BUDGET:
        raise BudgetExceeded(
            f"max_volume_sq at n={spec.n} allows more than {_TUPLE_BUDGET} "
            "canonical tuples, the tuple budget"
        )
    return ceil(bound)


def enumerate_proper_primitive(spec: EnumerationSpec) -> Iterator[IntVector]:
    """Stream primitive no-zero-entry tuples with squared sum in bound.

    One sorted positive representative per permutation/sign class, in
    lexicographic order, read from the block arrays; checked at the call.
    """
    _require_budget(spec)
    blocks = (_block_rows(spec.n, spec.max_volume_sq, v1) for v1 in _block_starts(spec))
    return (tuple(row) for rows in blocks for row in rows.tolist())


@dataclass(frozen=True)
class SpectrumEntry:
    multiplicity: int
    witnesses: Tuple[IntVector, ...]


@dataclass(frozen=True)
class SpectrumTable:
    """Multiset of center distances over the canonical line orbits (k = 1)."""

    n: int
    max_volume_sq: int
    entries: Dict[Rational, SpectrumEntry]

    def keys_descending(self) -> List[Rational]:
        return sorted(self.entries, reverse=True)

    @property
    def max_key(self) -> Rational:
        return max(self.entries)

    def total_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries.values())

    def to_json_dict(self) -> dict:
        return {
            "version": TABLE_FORMAT_VERSION,
            "n": self.n,
            "k": 1,
            "max_volume_sq": self.max_volume_sq,
            "canonicalization": CANONICAL_CLASSES,
            "entries": [
                {
                    "d": format_rational(key),
                    "mult": self.entries[key].multiplicity,
                    "witnesses": [list(w) for w in self.entries[key].witnesses],
                }
                for key in self.keys_descending()
            ],
        }

    def save_json(self, path: str) -> None:
        """Write ``json.dumps(self.to_json_dict(), indent=2)`` and a newline.

        ``indent`` sends ``json.dumps`` to its pure-Python encoder, so a
        table of ``Fraction`` keys and plain ``int`` fields, multiplicities
        and cells, every witness of length n, is written from text instead:
        one witness template for its n, one ``%`` per entry and one join.
        Any other table, or a number past ``str``'s digit limit, goes
        through ``json.dumps``.
        """
        keys = self.keys_descending()
        entries = [self.entries[key] for key in keys]
        wits = list(chain.from_iterable(e.witnesses for e in entries))
        ints = [self.n, self.max_volume_sq, *(e.multiplicity for e in entries), *chain.from_iterable(wits)]
        text = None
        if not (set(map(type, keys)) - {Fraction} or set(map(type, ints)) - {int} or set(map(len, wits)) - {self.n}):
            wit = _json_list(["%d"] * self.n, 8)
            forms = [
                '{\n      "d": "%s",\n      "mult": %d,\n      "witnesses": ' + _json_list([wit] * count, 6) + "\n    }"
                for count in range(max((len(e.witnesses) for e in entries), default=0) + 1)
            ]
            with contextlib.suppress(ValueError):  # a number past the digit limit
                body = [
                    forms[len(e.witnesses)] % (str(key), e.multiplicity, *chain.from_iterable(e.witnesses))
                    for key, e in zip(keys, entries)
                ]
                text = (
                    f'{{\n  "version": {TABLE_FORMAT_VERSION},\n  "n": {self.n},\n  "k": 1,\n'
                    f'  "max_volume_sq": {self.max_volume_sq},\n'
                    f'  "canonicalization": {json.dumps(CANONICAL_CLASSES)},\n'
                    f'  "entries": {_json_list(body, 2)}\n}}'
                )
        if text is None:
            text = json.dumps(self.to_json_dict(), indent=2)
        _atomic_write(path, text + "\n")

    @classmethod
    def from_json_dict(cls, data: dict) -> "SpectrumTable":
        """The table that ``data``, a table file's JSON object, holds.

        Its entries are held to a checkpoint block's rules: one array pass
        (``_block_cells``), or, where the pass doubts them, a walk that names
        the fault.  Keys are made as ``Fraction(p, r)`` from the int64 terms
        that the array pass read, and parsed from their text after a walk.
        """
        if not isinstance(data, dict):
            raise TableMismatch("table is not a JSON object")
        if data.get("version") != TABLE_FORMAT_VERSION:
            raise TableMismatch(f"unsupported table version {data.get('version')!r}")
        for key in ("n", "k", "max_volume_sq", "canonicalization", "entries"):
            if key not in data:
                raise TableMismatch(f"table has no {key!r} field")
        for key, fixed in (("k", 1), ("canonicalization", CANONICAL_CLASSES)):
            if data[key] != fixed:
                raise TableMismatch(f"table has {key}={data[key]!r}, not {fixed!r}")
        n, max_volume_sq = data["n"], data["max_volume_sq"]
        try:
            for key in ("n", "max_volume_sq"):
                if type(data[key]) is not int:
                    raise InvalidInput(f"field {key!r} is {data[key]!r}, not an integer")
            EnumerationSpec(n, max_volume_sq)
            if not isinstance(data["entries"], list):
                raise InvalidInput("field 'entries' is not a list")
            rows = []
            for i, row in enumerate(data["entries"]):
                try:
                    rows.append((row["d"], row["mult"], row["witnesses"]))
                except KeyError as exc:
                    raise InvalidInput(f"entry {i} has no {exc.args[0]!r} field") from None
                except TypeError:
                    raise InvalidInput(f"entry {i} is not an object") from None
            passed = _block_cells(rows, n)
            if passed is None:
                _check_block(rows, n)
        except InvalidInput as exc:
            raise TableMismatch(f"table has a malformed value: {exc}") from None
        if passed is None:
            keys = [parse_rational(d) for d, _, _ in rows]
        else:
            terms = iter(passed[0].tolist())
            keys = [Fraction(p, r) for p, r in zip(terms, terms)]
        entries = {
            key: SpectrumEntry(multiplicity=mult, witnesses=tuple(map(tuple, wits)))
            for key, (_, mult, wits) in zip(keys, rows)
        }
        if not entries:
            raise TableMismatch("table has no entries")
        return cls(n=n, max_volume_sq=max_volume_sq, entries=entries)

    @classmethod
    def load_json(cls, path: str) -> "SpectrumTable":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise TableMismatch(f"cannot read table {path}: {exc.strerror}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise TableMismatch(f"table {path} is not valid JSON: {exc}") from None
        try:
            return cls.from_json_dict(data)
        except TableMismatch as exc:
            raise TableMismatch(f"{path}: {exc}") from None

    def save_flat(self, path: str) -> None:
        """Write a TSV line per key, descending: d and ml = 1/2 - d as
        ``format_rational`` writes them and as ``%.12g`` of their floats,
        then the multiplicity.  It works in the key's terms p/r: ml is
        (r - 2p)/(2r) reduced by one gcd, and each float is the int division
        ``p / r`` that ``float`` of a ``Fraction`` does."""
        lines = ["d\td_approx\tml\tml_approx\tmultiplicity"]
        for key in self.keys_descending():
            p, r = key.numerator, key.denominator
            g = gcd(r - 2 * p, 2 * r)
            a, b = (r - 2 * p) // g, 2 * r // g
            lines.append(
                f"{_terms_text(p, r)}\t{p / r:.12g}\t{_terms_text(a, b)}\t{a / b:.12g}"
                f"\t{self.entries[key].multiplicity}"
            )
        _atomic_write(path, "\n".join(lines) + "\n")


def _json_list(items: List[str], indent: int) -> str:
    """The ``json.dumps(..., indent=2)`` layout of a list ``indent`` spaces
    deep, around its items' own texts: "[]" when it has none."""
    if not items:
        return "[]"
    pad = "\n" + " " * indent
    return f"[{pad}  " + f",{pad}  ".join(items) + f"{pad}]"


def _terms_text(p: int, r: int) -> str:
    """``format_rational`` of p/r, given in lowest terms with r > 0."""
    try:
        return f"{p}/{r}" if r != 1 else f"{p}"
    except ValueError:  # past str()'s digit limit
        return format_rational(Fraction(p, r))


def _fsync_if_holding(path: str, data: bytes) -> bool:
    """Fsync ``path`` if it is a regular file holding exactly ``data``; the
    open follows no symlink and waits on no FIFO, and an OSError is False."""
    with contextlib.suppress(OSError):
        fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode) and os.read(fd, len(data) + 1) == data:
                os.fsync(fd)
                return True
        finally:
            os.close(fd)
    return False


def _atomic_write(path: str, text: str) -> None:
    """Make ``path`` hold ``text``, fsynced with its directory; an OSError
    names ``path``. A regular file already holding these bytes is kept, as a
    rename over it frees its blocks, slow under ``discard``; otherwise a new
    file, mode 0o666 less the umask, is fsynced and renamed over it."""
    data = text.encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        if not _fsync_if_holding(path, data):
            name = os.path.join(directory, f"tmp{os.urandom(6).hex()}.tmp")
            fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            tmp = name
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _half_minus(p: np.ndarray, r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """1/2 - p/r in lowest terms: a distance from a maximum loneliness, and back."""
    g = np.gcd(r - 2 * p, 2 * r)
    return (r - 2 * p) // g, 2 * r // g


class _Block(NamedTuple):
    """Block results in int64 arrays: each distinct maximum loneliness a/q in
    lowest terms, ordered by (a, q), with its multiplicity; at most
    ``WITNESS_CAP`` witness rows per value with their value index, ordered by
    (index, squared volume, tuple).  Blocks are folded by value, so the value
    order reaches only the checkpoint log; the witness order is what ``_fold``
    keeps among ties, so a block read back is held to it."""

    a: np.ndarray
    q: np.ndarray
    mult: np.ndarray
    wits: np.ndarray
    key: np.ndarray

    def groups(self) -> Iterator[Tuple[int, int, int, List[List[int]]]]:
        """(numerator, denominator, multiplicity, witness rows) of each distance 1/2 - a/q."""
        rows, (num, den) = self.wits.tolist(), (x.tolist() for x in _half_minus(self.a, self.q))
        ends = np.cumsum(np.bincount(self.key, minlength=len(self.a))).tolist()
        return zip(num, den, self.mult.tolist(), (rows[i:j] for i, j in zip([0, *ends], ends)))

    def rows(self) -> list:
        """The checkpoint log's JSON rows: [distance, multiplicity, witnesses]."""
        return [[f"{p}/{r}" if r != 1 else str(p), m, w] for p, r, m, w in self.groups()]

    @classmethod
    def from_rows(cls, rows: list, spec: EnumerationSpec) -> "_Block":
        """The block of JSON rows ``rows``, checked in one array pass
        (``_block_cells``); rows that it doubts are walked by ``_check_block``,
        which names the entry at fault.  A value past int64, a distance or
        witness entry past 4 sqrt(B) (past 1 at n = 1), or a value's witness
        rows that do not rise strictly by (squared volume, tuple), as
        ``_fold`` needs them to, is no build's."""
        parsed = _block_cells(rows, spec.n)
        if parsed is None:
            _check_block(rows, spec.n)
            keys = [int(x or 1) for d, _, _ in rows for x in d.partition("/")[::2]]
            groups = [ws for *_, ws in rows]
            parsed = keys, [m for _, m, _ in rows], groups, [c for ws in groups for w in ws for c in w]
        keys, mults, groups, cells = parsed
        top = 4 * isqrt(spec.max_volume_sq) if spec.n > 1 else 1  # n = 1 has one tuple, (1,)
        try:
            p, r = np.array(keys, dtype=np.int64).reshape(-1, 2).T
            wits = np.array(cells, dtype=np.int64).reshape(-1, spec.n)
            mult = np.array(mults, dtype=np.int64)
        except OverflowError:
            raise InvalidInput("a value is past int64") from None
        values = np.concatenate((p, r, wits.ravel()))
        if not -top <= values.min(initial=0) <= values.max(initial=0) <= top:
            raise InvalidInput(f"a distance or witness entry is past {top}")
        key = np.repeat(np.arange(len(rows)), list(map(len, groups)))
        # Each row's first change from the last, by (index, volume, tuple), must be a rise.
        step = np.diff(np.column_stack((key, (wits * wits).sum(axis=1), wits)), axis=0)
        fall = np.flatnonzero(step[np.arange(len(step)), (step != 0).argmax(axis=1)] <= 0)
        if len(fall):
            raise InvalidInput(f"entry {key[fall[0]]}: witnesses do not rise by (squared volume, tuple)")
        return cls(*_half_minus(p, r), mult, wits, key)


# Rows per kernel call: consecutive blocks are joined while a batch holds
# at most _JOIN_ROWS (fixed per-call costs dominate the 316 blocks of about
# 150 rows of n = 2 @ 2*10^5; larger joins grow each pool worker's memory),
# and a batch past _SLICE_ROWS (block 1 of n = 6 @ 3,025 holds 801,386) is
# scanned in slices of that many, each of which classes its keys again.
_JOIN_ROWS = 1 << 12
_SLICE_ROWS = 1 << 16


def _scanned_blocks(n: int, max_volume_sq: int, starts: Iterable[int]) -> Iterator[Tuple[int, np.ndarray, np.ndarray, int]]:
    """(start, rows, values (a, q) of the rows, problems) of each block of
    ``starts`` in turn, scanned a batch of rows per ``_scan_rows`` call: a
    batch's problem count is on its first block, and 0 on the others."""
    batch: List[Tuple[int, np.ndarray]] = []
    for v1, t in chain(((v1, _block_rows(n, max_volume_sq, v1)) for v1 in starts), [(0, None)]):
        if batch and (t is None or sum(len(b) for _, b in batch) + len(t) > _JOIN_ROWS):
            rows = batch[0][1] if len(batch) == 1 else np.concatenate([b for _, b in batch])
            scans = [_scan_rows(rows[i : i + _SLICE_ROWS]) for i in range(0, max(len(rows), 1), _SLICE_ROWS)]
            ml, problems, at = np.concatenate([s[0] for s in scans]), sum(s[1] for s in scans), 0
            for start, b in batch:
                yield start, b, ml[at : at + len(b)], problems
                problems, at = 0, at + len(b)
            batch = []
        batch.append((v1, t))


def _spectrum_blocks(args: Tuple[int, int, Sequence[int]]) -> Iterator[Tuple[int, _Block, dict]]:
    """Each block of ``args`` = (n, max_volume_sq, starts) folded by reduced
    maximum loneliness: its start, result and trace (tuple count, problems
    sent to the grid, seconds since the block before it, and pid)."""
    start = perf_counter()
    for v1, t, ml, problems in _scanned_blocks(*args):
        block = _fold([_Block(*ml.T, np.ones(len(t), dtype=np.int64), t, np.arange(len(t)))])
        seconds = round(perf_counter() - start, 6)
        yield v1, block, {"tuples": len(t), "problems": problems, "seconds": seconds, "pid": os.getpid()}
        start = perf_counter()


def _spectrum_run(args: Tuple[int, int, Sequence[int]]) -> List[Tuple[int, _Block, dict]]:
    """``_spectrum_blocks`` of a pool task's run of blocks, returned together."""
    return list(_spectrum_blocks(args))


def _fold(blocks: Sequence[_Block]) -> _Block:
    """Merge block results by value: ``np.unique`` on one int64 key per (a, q)
    unifies the values, ``np.add.at`` sums their multiplicities, and one
    stable argsort on the int64 key value (max volume + 1) + squared volume
    puts each value's least witnesses first, before the cap.  Rows that tie
    keep their input order, which is tuple order for blocks in start order
    that each hold a value's rows by (volume, tuple), as block scans and
    ``_Block.from_rows`` make them."""
    a, q, mult, wits, key = map(np.concatenate, zip(*blocks))
    key += np.repeat(np.cumsum([0, *(len(b.a) for b in blocks[:-1])]), [len(b.key) for b in blocks])
    span = int(q.max(initial=0)) + 1  # 0 < q < span, so a * span + q orders by (a, q)
    values, value = np.unique(a * span + q, return_inverse=True)
    total = np.zeros(len(values), dtype=np.int64)
    np.add.at(total, value, mult)
    key = value[key]
    # The tuple budget and from_rows keep every squared volume, and this key, far below 2^63.
    vol = (wits * wits).sum(axis=1)
    rows = np.argsort(key * (int(vol.max(initial=0)) + 1) + vol, kind="stable")
    rows = rows[np.arange(len(rows)) - np.searchsorted(key[rows], key[rows]) < WITNESS_CAP]
    return _Block(values // span, values % span, total, wits[rows], key[rows])


# Plain ASCII digits, with no "-0" and no leading zero: such a text is in
# lowest terms exactly when it has no denominator, or a denominator other
# than 1 sharing no factor with the numerator.  The digit counts stay far
# below int()'s conversion limit.
_RATIONAL_TEXT = re.compile(r"(0|-?[1-9][0-9]{0,99})(?:/([1-9][0-9]{0,99}))?")


def _lowest_terms(d: str) -> bool:
    """``format_rational(parse_rational(d)) == d``, in integers when it can."""
    m = _RATIONAL_TEXT.fullmatch(d)
    if m is None:
        return format_rational(parse_rational(d)) == d
    return m[2] is None or (m[2] != "1" and gcd(int(m[1]), int(m[2])) == 1)


def _check_block(result: list, n: int) -> None:
    """Raise InvalidInput, naming the entry, unless ``result`` is a block result.

    Each distance is written in lowest terms and appears once, so merging
    by its text cannot split or double a count.  Table files are held to
    the same rules.
    """
    if not isinstance(result, list):
        raise InvalidInput(f"{result!r} is not a list of entries")
    seen = set()
    for i, row in enumerate(result):
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise InvalidInput(f"entry {i} is {row!r}, not [distance, mult, witnesses]")
        d, mult, wits = row
        if not isinstance(d, str):
            raise InvalidInput(f"entry {i}: distance {d!r} is not a string")
        try:
            lowest = _lowest_terms(d)
        except InvalidInput as exc:
            raise InvalidInput(f"entry {i}: {exc}") from None
        if not lowest:
            raise InvalidInput(f"entry {i}: distance {d!r} is not in lowest terms")
        if d in seen:
            raise InvalidInput(f"entry {i}: distance {d} appears twice")
        seen.add(d)
        if type(mult) is not int or mult < 1:
            raise InvalidInput(f"entry {i}: multiplicity {mult!r} is not a positive integer")
        if not isinstance(wits, list):
            raise InvalidInput(f"entry {i}: witnesses {wits!r} are not a list")
        for w in wits:
            if not isinstance(w, list) or len(w) != n or any(type(c) is not int for c in w):
                raise InvalidInput(f"entry {i}: witness {w!r} is not a list of {n} integers")


# Distances that the array pass reads, each followed by a comma: p/r with
# r >= 2 (so not in lowest terms only if gcd(p, r) > 1), or "0", rewritten
# 0/1.  At most 18 digits each, so every term fits int64.
_FRACTIONS = re.compile(r"(?:(?:-?[1-9][0-9]{0,17}/(?:[2-9]|[1-9][0-9]{1,17})|0/1),)*")


def _block_cells(rows: list, n: int) -> Optional[tuple]:
    """``_check_block`` in one array pass: C-speed type and length checks,
    one regex over the joined distances and ``np.gcd`` for lowest terms.
    Returns the distances' numerators and denominators (interleaved, int64),
    the multiplicities, the witness lists and the flat witness cells of a
    result that passes, or None where the pass doubts it: a fault, a
    distance that it does not read, or a subclass of list, tuple, str or int.
    """
    if type(rows) is not list or set(map(type, rows)) - {list, tuple} or set(map(len, rows)) - {3}:
        return None
    ds, mults, groups = zip(*rows) if rows else ((), (), ())
    if set(map(type, ds)) - {str} or set(map(type, mults)) - {int} or set(map(type, groups)) - {list}:
        return None
    distinct = set(ds)
    # "0" is read as 0/1 below, so a distance written 0/1 is doubted.
    if len(distinct) < len(ds) or "0/1" in distinct or min(mults, default=1) < 1:
        return None
    wits = list(chain.from_iterable(groups))
    if set(map(type, wits)) - {list} or set(map(len, wits)) - {n}:
        return None
    cells = list(chain.from_iterable(wits))
    if set(map(type, cells)) - {int}:
        return None
    text = f",{','.join(ds)},".replace(",0,", ",0/1,")[1:] if ds else ""
    if not _FRACTIONS.fullmatch(text):
        return None
    terms = text.replace("/", ",").split(",")[:-1]
    if len(terms) != 2 * len(ds):  # a distance holding a comma
        return None
    keys = np.array(terms, dtype=np.int64)
    if (np.gcd(keys[::2], keys[1::2]) != 1).any():
        return None
    return keys, mults, groups, cells


# A checkpoint (format version 2) is an append-only log of JSON lines: a
# header {"version", "n", "max_volume_sq", "canonical_only"}, then one line
# per finished block, {"block", "sha256", "result", "tuples", "problems",
# "seconds", "pid"}.  "sha256" digests the compact JSON of "result"; the last four
# fields trace the run and are not read back.  The first block of a batch
# (``_scanned_blocks``) carries the batch's "problems" and scan "seconds".
_COMPACT = (",", ":")

# A block line as the writer opens it: block start, digest, then the result.
_LINE_HEAD = re.compile(rb'\{"block":([1-9][0-9]{0,17}),"sha256":"([0-9a-f]{64})","result":')

# A JSON text made of these bytes alone is its own compact re-serialisation:
# it has no space, escape, float, object, literal or minus sign (so no "-0").
_PLAIN_JSON = b'[],0123456789"/'


def _digest(text: bytes) -> str:
    """The sha256 of the compact JSON ``text`` of a block result."""
    # Imported here: hashlib costs about 5 ms at import, and only
    # checkpointed builds need it.
    import hashlib

    return hashlib.sha256(text).hexdigest()


def _parse_line(line: bytes) -> Tuple[object, Optional[bytes]]:
    """``json.loads(line)``, and the line's own "result" bytes when they are
    the result's compact JSON, else None.

    An ASCII line that opens as the writer's does is decoded in two parts,
    the result (where the decoder reports its end) and the fields after it;
    any other line, or one that does not decode this way, is read whole by
    ``json.loads``, which raises its usual errors.
    """
    head = _LINE_HEAD.match(line)
    if head is not None and line.isascii():
        text = line.decode("ascii")
        with contextlib.suppress(ValueError):
            result, end = json.JSONDecoder().raw_decode(text, head.end())
            tail = text[end:]
            trace = {} if tail == "}" else json.loads("{" + tail[1:]) if tail.startswith(',"') else None
            if isinstance(trace, dict) and not {"block", "sha256", "result"} & trace.keys():
                raw = line[head.end() : end]
                entry = {"block": int(head[1]), "sha256": head[2].decode(), "result": result, **trace}
                return entry, None if raw.translate(None, _PLAIN_JSON) else raw
    return json.loads(line), None


def _read_checkpoint(path: str, data: bytes, spec: EnumerationSpec) -> Dict[int, _Block]:
    """The blocks of the log ``data`` as arrays, less a torn last line.

    The header's "version", "n" and "max_volume_sq" must be plain integers
    and its "canonical_only" true.  A line's digest is taken from the line's
    own "result" bytes when they are exactly the result's compact JSON, as
    the writer makes them; any other line's result is serialised again to
    be digested, so a digest of other text, such as a re-spaced result or
    one holding "-0", does not match.  Each block is checked and made into
    arrays in one pass (``_Block.from_rows``).  The cyclic garbage collector
    is off while the lines are read, and its state is restored after.
    """
    head, newline, body = data.partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError as exc:
        raise CorruptCheckpoint(f"checkpoint {path} header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise CorruptCheckpoint(f"checkpoint {path} header is not a JSON object")
    for key in ("version", "n", "max_volume_sq", "canonical_only"):
        if key not in header:
            raise CorruptCheckpoint(f"checkpoint {path} header has no {key!r} field")
    for key in ("version", "n", "max_volume_sq"):
        if type(header[key]) is not int:
            raise CorruptCheckpoint(
                f"checkpoint {path} header field {key!r} is {header[key]!r}, not an integer"
            )
    if header["canonical_only"] is not True:
        raise CorruptCheckpoint(
            f"checkpoint {path} header field 'canonical_only' is {header['canonical_only']!r}, not true"
        )
    if header["version"] == 1:
        raise CorruptCheckpoint(
            f"checkpoint {path} is in format version 1, which is no longer read; "
            "delete it and rebuild"
        )
    if header["version"] != CHECKPOINT_FORMAT_VERSION:
        raise CorruptCheckpoint(
            f"checkpoint {path} has unsupported version {header['version']!r}"
        )
    if not newline:
        raise CorruptCheckpoint(f"checkpoint {path} header line is torn (no newline)")
    found = (header["n"], header["max_volume_sq"], header["canonical_only"])
    if found != (spec.n, spec.max_volume_sq, True):
        raise InvalidInput(
            f"checkpoint {path} was written for parameters {found}, "
            f"not {(spec.n, spec.max_volume_sq, True)}"
        )
    starts = _block_starts(spec)
    blocks: Dict[int, _Block] = {}
    collecting = gc.isenabled()
    gc.disable()  # parsed lines are many small lists, each freed once its arrays are built
    try:
        for number, line in enumerate(body.split(b"\n")[:-1], start=2):
            where = f"checkpoint {path} line {number}"
            try:
                entry, raw = _parse_line(line)
            except ValueError as exc:
                raise CorruptCheckpoint(f"{where} is not valid JSON: {exc}") from None
            if not isinstance(entry, dict):
                raise CorruptCheckpoint(f"{where} is not a JSON object")
            for key in ("block", "sha256", "result"):
                if key not in entry:
                    raise CorruptCheckpoint(f"{where} has no {key!r} field")
            v1, result = entry["block"], entry["result"]
            if raw is None:
                raw = json.dumps(result, separators=_COMPACT).encode()
            if entry["sha256"] != _digest(raw):
                raise CorruptCheckpoint(f"{where}: sha256 does not match the result")
            try:
                if type(v1) is not int or v1 not in starts:
                    raise InvalidInput(f"key {v1!r} is not a block start 1..{len(starts)}")
                block = _Block.from_rows(result, spec)
            except InvalidInput as exc:
                raise CorruptCheckpoint(f"{where} has a malformed block: {exc}") from None
            if v1 in blocks:
                raise CorruptCheckpoint(f"{where} repeats block {v1}")
            blocks[v1] = block
    finally:
        if collecting:
            gc.enable()
    return blocks


def _load_checkpoint(path: str, spec: EnumerationSpec) -> Tuple[Dict[int, _Block], int]:
    """The blocks logged at ``path``, and the log's length up to its last newline.

    A missing log is created, holding its header alone.  A log that fails
    a check raises and is left as it was.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        header = {
            "version": CHECKPOINT_FORMAT_VERSION,
            "n": spec.n,
            "max_volume_sq": spec.max_volume_sq,
            "canonical_only": True,  # fixed since format version 1
        }
        text = json.dumps(header, separators=_COMPACT) + "\n"
        _atomic_write(path, text)
        return {}, len(text)
    except OSError as exc:
        raise CorruptCheckpoint(f"cannot read checkpoint {path}: {exc.strerror}") from None
    return _read_checkpoint(path, data, spec), data.rfind(b"\n") + 1


def _append_block(log: BinaryIO, v1: int, block: _Block, trace: dict) -> None:
    """Append one block line to ``log`` and fsync it; an OSError names the log.

    The result is serialised once: its compact JSON is digested and spliced
    into the line, which is then what ``json.dumps`` would make of it all.
    """
    result = json.dumps(block.rows(), separators=_COMPACT)
    fields = {"block": v1, "sha256": _digest(result.encode()), "result": 0, **trace}
    line = json.dumps(fields, separators=_COMPACT).replace('"result":0', '"result":' + result, 1)
    try:
        log.write((line + "\n").encode())
        log.flush()
        os.fsync(log.fileno())
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, log.name) from None


# What the latest build of each n in this process that scanned every block
# itself saw: its bound, its tuple count and each distance's least squared
# witness volume.  certify_absence reads it.
class _Scan(NamedTuple):
    max_volume_sq: int
    tuples: int
    least_volume: Dict[Rational, int]


_SCANS: Dict[int, _Scan] = {}


def build_spectrum(
    spec: EnumerationSpec,
    workers: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    progress=None,
) -> SpectrumTable:
    """Assemble the distance table over the canonical enumeration.

    Work is split into blocks by the leading coordinate.  Each block is
    enumerated into an int64 array, scanned in batches that join small
    blocks and slice large ones (``_scanned_blocks``), and folded
    by maximum loneliness into arrays (see ``_Block``), and the blocks are
    folded the same way; a ``Fraction`` is made once per distance.  Each
    class of pair problems is scanned once per thread or pool worker, in a
    memo that lives as long as the build or the pool (see ``_scan_rows``).
    The output is identical for any worker count and also across
    checkpoint-interrupted runs.  ``progress`` is called with
    (blocks_done, blocks_total) after every block.  Blocks arrive a batch
    at a time, or a run at a time from a pool sent the blocks left, largest
    first, in runs of ceil(blocks / (4 workers)).  An interrupted build lets
    the runs in flight finish and scans its unlogged blocks again on resume;
    a worker lost mid-run raises ``BrokenProcessPool``.

    ``checkpoint_path`` names an append-only log.  Each finished block is
    appended to it as one JSON line (the result, the sha256 of the result's
    compact JSON, serialised once for both, and the block's trace: see
    ``_spectrum_blocks``), flushed and fsynced before ``progress`` is called.
    A later call with the same spec reads the logged blocks back (see
    ``_read_checkpoint``), checking the header, every digest and every
    block, drops a line torn by an interrupted write, and builds the rest.
    A version-1 checkpoint is refused; delete it and rebuild.

    A build that read no block back from a checkpoint records, for this
    process, each distance's least squared witness volume and the tuple
    count, replacing the record of any earlier build of the same n.  A
    bound past the tuple budget raises ``BudgetExceeded`` before any work.
    """
    _require_budget(spec)
    workers = resolve_workers(workers)
    starts = list(_block_starts(spec))
    total = len(starts)
    with contextlib.ExitStack() as stack:
        done: Dict[int, _Block] = {}
        log = None
        if checkpoint_path:
            done, intact = _load_checkpoint(checkpoint_path, spec)
            log = stack.enter_context(open(checkpoint_path, "ab"))
            if log.tell() > intact:
                log.truncate(intact)  # a line torn by an interrupted write
        scanned_all = not done
        left = [v1 for v1 in starts if v1 not in done]
        completed = total - len(left)
        workers = min(workers, len(left))
        results = _spectrum_blocks((spec.n, spec.max_volume_sq, left))
        memo = stack.enter_context(_ClassMemo(2 * isqrt(spec.max_volume_sq)))  # no pair sum is larger
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor, as_completed  # 10 ms to import

            pool = ProcessPoolExecutor(workers, initializer=memo.__enter__)
            # Runs not started are dropped and those in flight finish: a worker
            # killed holding the result queue's lock would hang the pool.
            stack.callback(pool.shutdown, cancel_futures=True)
            # A task per block costs more in round trips than small blocks take.
            size = -(-len(left) // (4 * workers))
            runs = [pool.submit(_spectrum_run, (spec.n, spec.max_volume_sq, left[i : i + size])) for i in range(0, len(left), size)]
            results = chain.from_iterable(run.result() for run in as_completed(runs))
        for v1, block, trace in results:
            done[v1] = block
            completed += 1
            if log is not None:
                _append_block(log, v1, block, trace)
            if progress:
                progress(completed, total)
    table = _fold([done[v1] for v1 in starts])
    entries = {
        Fraction(p, r): SpectrumEntry(multiplicity=m, witnesses=tuple(map(tuple, w)))
        for p, r, m, w in table.groups()
    }
    if scanned_all:  # each distance's witnesses come least volume first
        least = (table.wits[np.diff(table.key, prepend=-1) != 0] ** 2).sum(axis=1).tolist()
        _SCANS[spec.n] = _Scan(spec.max_volume_sq, int(table.mult.sum()), dict(zip(entries, least)))
    return SpectrumTable(n=spec.n, max_volume_sq=spec.max_volume_sq, entries=entries)


# ---------------------------------------------------------------------------
# Verifiers.


def _is_reciprocal_4s2(key: Rational) -> bool:
    """key == 1/(4s+2) for some integer s >= 1."""
    return (
        key.numerator == 1
        and key.denominator >= 6
        and (key.denominator - 2) % 4 == 0
    )


@dataclass(frozen=True)
class S2Report:
    passed: bool
    violations: Tuple[Rational, ...]
    missing: Tuple[int, ...]
    largest_key: Rational


def verify_closed_form_s2(table: SpectrumTable) -> S2Report:
    """Check an n = 2 table against the closed-form key set.

    Every key must be 0 or 1/(4s+2); every s whose canonical witness
    (1, 2s) fits the volume bound must actually appear.
    """
    if table.n != 2:
        raise TableMismatch(f"expected an n=2 table, got n={table.n}")
    violations = tuple(
        key
        for key in table.keys_descending()
        if key != 0 and not _is_reciprocal_4s2(key)
    )
    missing = []
    s = 1
    while 1 + 4 * s * s <= table.max_volume_sq:
        if Fraction(1, 4 * s + 2) not in table.entries:
            missing.append(s)
        s += 1
    return S2Report(
        passed=not violations and not missing,
        violations=violations,
        missing=tuple(missing),
        largest_key=table.max_key,
    )


@dataclass(frozen=True)
class FamilyCheck:
    r: int
    speeds: IntVector
    ml: Rational
    expected: Rational

    @property
    def ok(self) -> bool:
        return self.ml == self.expected


@dataclass(frozen=True)
class FamilyReport:
    passed: bool
    checks: Tuple[FamilyCheck, ...]


# Most family members one verify_family_fan_sun call checks.  Member r
# scans grids of about 8r cells per denominator, so the run grows as
# r_max squared: 6,000 members took about 8 s on 2 vCPUs, 8,000 12.5 s.
_FAN_SUN_MEMBERS = 6000


def verify_family_fan_sun(r_max: int) -> FamilyReport:
    """Exact identity for the four-speed family (8, 4r+3, 4r+11, 4r+19).

    The value (2r+7)/(8r+30) sits strictly below 1/4, so the family
    witnesses that the four-runner bound 1/(n+1) is not always attained.
    More than ``_FAN_SUN_MEMBERS`` members (r = 0..r_max) raise
    ``BudgetExceeded`` before any scan.
    """
    if r_max < 0:
        raise InvalidInput("need r_max >= 0")
    if r_max + 1 > _FAN_SUN_MEMBERS:
        raise BudgetExceeded(
            f"r_max {r_max} needs {r_max + 1} family members, "
            f"past the budget of {_FAN_SUN_MEMBERS}"
        )
    checks = []
    for r in range(r_max + 1):
        speeds = (8, 4 * r + 3, 4 * r + 11, 4 * r + 19)
        ml = max_loneliness(speeds).ml
        expected = Fraction(2 * r + 7, 8 * r + 30)
        checks.append(FamilyCheck(r=r, speeds=speeds, ml=ml, expected=expected))
    return FamilyReport(passed=all(c.ok for c in checks), checks=tuple(checks))


WINDOW_MODES = ("strict", "amended")


@dataclass(frozen=True)
class WindowViolation:
    ml: Rational
    d: Rational
    witnesses: Tuple[IntVector, ...]


@dataclass(frozen=True)
class WindowReport:
    mode: str
    n: int
    passed: bool
    in_window: int
    out_of_window: int
    class_counts: Dict[int, int]
    violations: Tuple[WindowViolation, ...]


def verify_window(table: SpectrumTable, mode: str = "strict") -> WindowReport:
    """Classify the small loneliness values ML in (0, 1/n) by reduced form.

    ML = a/b in lowest terms lies in the family s/(ns+k) exactly when
    k = b - n*a falls in [1, n]; strict mode demands k = 1, amended mode
    accepts 1 <= k <= n.  Values outside the open window are counted but
    never flagged.
    """
    if mode not in WINDOW_MODES:
        raise InvalidInput(f"mode must be one of {WINDOW_MODES}")
    n = table.n
    in_window = 0
    out_of_window = 0
    class_counts: Dict[int, int] = {}
    violations = []
    for key in table.keys_descending():
        ml = HALF - key
        if not (0 < ml * n < 1):
            out_of_window += 1
            continue
        in_window += 1
        k = ml.denominator - n * ml.numerator
        if 1 <= k <= n:
            class_counts[k] = class_counts.get(k, 0) + 1
        ok = (k == 1) if mode == "strict" else (1 <= k <= n)
        if not ok:
            violations.append(
                WindowViolation(
                    ml=ml, d=key, witnesses=table.entries[key].witnesses
                )
            )
    return WindowReport(
        mode=mode,
        n=n,
        passed=not violations,
        in_window=in_window,
        out_of_window=out_of_window,
        class_counts=dict(sorted(class_counts.items())),
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Absence certification.


@dataclass(frozen=True)
class OuterSpectrumFacts:
    """What is known about center distances of the surrounding planes.

    Every proper plane orbit closure in dimension n has center distance
    either in ``values_above`` (each strictly above the absence target)
    or at most ``low_bound`` (strictly below it).
    """

    values_above: Tuple[Rational, ...]
    low_bound: Rational


def _builtin_outer_facts(n: int) -> Optional[OuterSpectrumFacts]:
    # For n = 3 the plane spectrum coincides with the n = 2 line
    # spectrum {0} union {1/(4s+2)}: 1/6 on top, then nothing above 1/10.
    # The case split in Phase B can then only close for targets strictly
    # between 1/10 and 1/6; elsewhere the certificate honestly fails.
    if n == 3:
        return OuterSpectrumFacts(
            values_above=(Fraction(1, 6),), low_bound=Fraction(1, 10)
        )
    return None


@dataclass(frozen=True)
class AbsenceCertificate:
    target: Rational
    n: int
    cutoff_volume_sq: int
    phase_a_passed: bool
    phase_a_checked: int
    phase_a_witness: Optional[IntVector]
    phase_b_passed: bool
    rho: Rational
    density_lhs: Rational
    cases_ok: bool

    @property
    def passed(self) -> bool:
        return self.phase_a_passed and self.phase_b_passed


# certify_absence calls its progress callback with each multiple of this
# many tuples checked.
_PROGRESS_EVERY = 100000


def _progress_to(progress, checked: int, reached: int) -> None:
    if progress:
        step = _PROGRESS_EVERY
        for c in range(checked // step * step + step, reached + 1, step):
            progress(c)


def _phase_a(
    target: Rational, spec: EnumerationSpec, progress
) -> Tuple[int, Optional[IntVector]]:
    """Phase A of ``certify_absence``: the tuples checked and the witness."""
    cutoff = spec.max_volume_sq
    blocks = (_block_rows(spec.n, cutoff, v1) for v1 in _block_starts(spec))
    scan = _SCANS.get(spec.n)
    if (
        scan is not None
        and scan.max_volume_sq >= cutoff
        and scan.least_volume.get(target, cutoff + 1) > cutoff
    ):
        checked = scan.tuples if scan.max_volume_sq == cutoff else sum(map(len, blocks))
        _progress_to(progress, 0, checked)
        return checked, None
    # A hit's reduced (a, q) is the target's reduced ML, if that fits int64.
    ml = HALF - target
    p, r = (ml.numerator, ml.denominator) if ml.denominator < 2**63 else (-1, -1)
    checked = 0
    with _ClassMemo(2 * isqrt(cutoff)):
        for _, t, values, _ in _scanned_blocks(spec.n, cutoff, _block_starts(spec)):
            a, q = values.T
            hits = np.flatnonzero((a == p) & (q == r))
            reached = checked + (int(hits[0]) + 1 if len(hits) else len(t))
            _progress_to(progress, checked, reached)
            checked = reached
            if len(hits):
                return checked, tuple(t[hits[0]].tolist())
    return checked, None


def certify_absence(
    target: RationalLike,
    n: int,
    cutoff_volume_sq: int,
    outer_facts: Optional[OuterSpectrumFacts] = None,
    pi_bounds: Tuple[Fraction, Fraction] = DEFAULT_PI_BOUNDS,
    progress=None,
) -> AbsenceCertificate:
    """Certify that no proper line orbit has center distance ``target``.

    Phase A checks every canonical tuple inside the volume cutoff and
    records the first counterexample in enumeration order if any;
    ``phase_a_checked`` counts the tuples up to and including it.  It
    reads a recorded scan when this process has built an n table itself
    (see ``build_spectrum``) with a bound at least the cutoff, and that
    build saw no tuple within the cutoff at the target.  Phase A then
    passes without a scan, counting the tuples from the build when the
    bounds are equal and by the lengths of the enumerated blocks otherwise.  In every other case
    it scans the batches of a build (see ``_scanned_blocks``) up to the
    block of the first counterexample, the only way to name it and its
    position.
    Phase B covers the tail:
    above the cutoff the orbit is rho-dense in a surrounding plane (tube
    volume comparison squared to stay rational, with the lower rational
    pi bound), and the plane's own distance is either above the target
    by the supplied facts or so low that rho-density keeps the orbit's
    distance strictly below the target.  A cutoff past the tuple budget
    raises ``BudgetExceeded`` before either phase.
    """
    target = Fraction(target)
    if not 0 <= target <= HALF:
        raise InvalidInput(f"target {format_rational(target)} is not a distance in [0, 1/2]")
    if outer_facts is None:
        outer_facts = _builtin_outer_facts(n)
        if outer_facts is None:
            raise MissingOuterSpectrum(
                f"no built-in plane spectrum facts for n={n}; "
                "pass outer_facts explicitly"
            )
    spec = EnumerationSpec(n, cutoff_volume_sq)
    _require_budget(spec)
    checked, witness = _phase_a(target, spec, progress)
    phase_a_passed = witness is None

    rho = target - outer_facts.low_bound - ABSENCE_MARGIN
    cases_ok = (
        all(a > target for a in outer_facts.values_above)
        and outer_facts.low_bound < target
        and rho > 0
        and outer_facts.low_bound + rho < target
    )
    omega_lo = ball_volume(n - 1).bounds(pi_bounds)[0]
    density_lhs = (cutoff_volume_sq + 1) * (omega_lo * rho ** (n - 1)) ** 2
    phase_b_passed = cases_ok and density_lhs > 1
    return AbsenceCertificate(
        target=target,
        n=n,
        cutoff_volume_sq=cutoff_volume_sq,
        phase_a_passed=phase_a_passed,
        phase_a_checked=checked,
        phase_a_witness=witness,
        phase_b_passed=phase_b_passed,
        rho=rho,
        density_lhs=density_lhs,
        cases_ok=cases_ok,
    )


# ---------------------------------------------------------------------------
# Observation reports.


@dataclass(frozen=True)
class AccumulationRow:
    target: Rational
    above_count: int
    below_count: int
    below_keys: Tuple[Rational, ...]


def accumulation_report(
    table: SpectrumTable, targets: Sequence[RationalLike], window: RationalLike
) -> Tuple[AccumulationRow, ...]:
    """Count distinct keys strictly within one window of each target.

    Keys pile up only from above; the below-window list is reported in
    full so an empty claim is visibly checkable.  Each count bisects the
    keys, sorted once.
    """
    from bisect import bisect_left, bisect_right

    win = Fraction(window)
    if win <= 0:
        raise InvalidInput("window must be positive")
    keys = sorted(table.entries)
    rows = []
    for raw in targets:
        x = Fraction(raw)
        below = keys[bisect_right(keys, x - win) : bisect_left(keys, x)]
        rows.append(
            AccumulationRow(
                target=x,
                above_count=bisect_left(keys, x + win) - bisect_right(keys, x),
                below_count=len(below),
                below_keys=tuple(below),
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class MultiplicityRow:
    key: Rational
    multiplicity: int
    expected_unbounded: bool


def _expected_unbounded(n: int, key: Rational) -> bool:
    # Keys matching a plane-spectrum value can recur indefinitely (one
    # line per plane coset direction); known plane spectra are n <= 3.
    if n == 2:
        return key == 0
    if n == 3:
        return key == 0 or _is_reciprocal_4s2(key)
    return False


def multiplicity_report(
    table: SpectrumTable, threshold: int = 2
) -> Tuple[MultiplicityRow, ...]:
    """Keys reaching the multiplicity threshold, flagged when a matching
    plane value predicts unbounded growth."""
    if threshold < 1:
        raise InvalidInput("threshold must be at least 1")
    rows = [
        MultiplicityRow(
            key=key,
            multiplicity=entry.multiplicity,
            expected_unbounded=_expected_unbounded(table.n, key),
        )
        for key, entry in table.entries.items()
        if entry.multiplicity >= threshold
    ]
    rows.sort(key=lambda r: (-r.multiplicity, -r.key))
    return tuple(rows)

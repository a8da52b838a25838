"""Solution archives and tabular exports.

Archives are compact JSON with sorted keys and floats rounded to 15
significant digits, written atomically, so identical (input, config,
seed) runs produce byte-identical files.  One walk of the payload
(``_walk``) yields the archive's text in order, piece by piece, so the
whole text is never held at once.  Float arrays are written straight
from their 15-digit mantissas, in the bytes ``json.dumps`` gives their
rounded values.  Loading an archive plus the original input is enough to
rebuild the assignment and re-evaluate the objective.  The assignment is
stored column by column: per supplementary variable its class labels
once, then one class code and one cluster index per observation.

Two sections stay column tables until they are written.  The biplot's
cluster, class and category points are ``Records``: one column per key,
written from one float array per float column.  The residual section
(``ResidualTables``) is written, in ``solution.json`` and in
``residuals.csv``, straight from its tables' K x Q residual arrays, with
each label quoted once per table or row.  Both sections' text is made and
written a block of at most ``_ROUND_BLOCK`` (8,192) records at a time, so
no piece of it holds more records than that.

This is the only module that builds or reads archive dicts; every export
reads the biplot section's points through ``biplot_points``, from
``Records`` in memory or from a reloaded archive's lists alike.
"""

from __future__ import annotations

import csv
import json
import math
import os
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .biplot import BiplotModel
from .data import CategoricalDataset, ClusterSpec, HierarchicalAssignment, SupplementaryData
from .errors import ConfigError, ExportError, ShapeError
from .solver import ConstrainedFit, MsccaSolution
from .svg import render_scatter


ARCHIVE_FORMAT = "mscca-archive/2"
RESIDUALS_HEADER = ["method", "row", "class", "column", "value"]


# Exact powers of ten (10**22 is the largest a double holds exactly), the
# Veltkamp splitter 2**27 + 1, and the block length of the vectorized
# encoding and of the record sections' text, which bounds their working
# memory.
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLIT = 134217729.0
_ROUND_BLOCK = 1 << 13


def _round_one(x: float) -> float:
    """One float rounded to 15 significant digits: the archive's
    definition of the rounding."""
    return float(f"{x:.15g}")


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split of each element into two 26-bit halves, hi + lo = a."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _mantissas(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 15 significant digits of ``_round_one`` of every element of a
    float64 block: (m, k, ok), with m an exact integer in [1e14, 1e15] and
    ``_round_one(x) == copysign(m / 10**k, x)`` wherever ``ok``.

    |x| is scaled by the exact power 10**k, k = 14 - floor(log10|x|), so
    its 15 significant digits become the integer part of the product.
    The product's rounding error comes exactly from a Dekker two-product;
    ``rint`` is then off by one only when the rounded product sits on a
    half, and the sign of (p - rint(p)) + err tells which way (an exact
    half in that sum is a decimal tie, left to ``_round_one``).  One IEEE
    division of the 15-digit integer by the exact power is the correctly
    rounded value of the decimal string.  Zeros, subnormals, non-finite
    values, |x| outside [1e-8, 1e15) and products whose exact value falls
    outside [1e14, 1e15) (``log10`` rounded across a power of ten) are
    not ``ok``.
    """
    a = np.abs(x)
    ok = (a >= 1e-8) & (a < 1e15)
    a = np.where(ok, a, 1.0)
    k = 14 - np.floor(np.log10(a)).astype(np.int64)
    ok &= (k >= 0) & (k <= 22)
    scale = _POW10[np.clip(k, 0, 22)]
    p = a * scale
    a_hi, a_lo = _split(a)
    s_hi, s_lo = _split(scale)
    err = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    r = np.rint(p)
    d = (p - r) + err
    ok &= (p >= 1e14) & (p < 1e15) & ((p > 1e14) | (err >= 0)) & (np.abs(d) != 0.5)
    return r + (d > 0.5) - (d < -0.5), k, ok


# The text of a float array is built from fixed-width rows of candidate
# bytes, one row per element, of which a keep mask selects the element's
# ``repr`` and the separator after it.  The columns:
#   0            '-'
#   1..5         "0.000"                 (fixed notation below 1)
#   6 + 2i       digit i of the mantissa, i = 0..14
#   7 + 2i       '.' after digit i
#   36           '0'                     (the ".0" of e = 14)
#   37..40       "e-0" and the exponent digit (e = -8..-5)
#   41...        ']' * (ndim - 1), ',', '[' * (ndim - 1)
_TEMPLATE = b"-0.000" + b"0." * 15 + b"0e-00"
# The four ASCII digits of 0..9999, each group as one 4-byte word; built
# from arrays, as 10,000 Python strings would raise the peak RSS.
_DIGITS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
_DIGITS = _DIGITS.view(np.uint32).ravel()
_E_MIN, _E_MAX = -8, 14
_FALLBACK = (_E_MAX - _E_MIN + 1) * 15  # the empty body, after the 15 (e, n) pairs per e


def _repr_keep(e: int, n: int) -> np.ndarray:
    """The template columns 1..40 kept by ``repr`` of a positive value with
    decimal exponent ``e`` and ``n`` significant digits: fixed notation for
    e in [-4, 14] (with ".0" on integral values), d.ddde-0X below."""
    keep = np.zeros(len(_TEMPLATE), dtype=bool)
    if e >= 0:
        last = min(max(n - 1, e + 1), 14)  # a trailing '0' digit stands for ".0"
        keep[6 : 7 + 2 * last : 2] = True
        keep[7 + 2 * e] = True
        keep[36] = e == 14
    elif e >= -4:
        keep[1 : 2 - e] = True  # "0." and -e - 1 zeros
        keep[6 : 6 + 2 * n : 2] = True
    else:
        keep[6 : 6 + 2 * n : 2] = True
        keep[7] = n > 1
        keep[37:41] = True
    return keep[1:]


def _separators(ndim: int) -> tuple[bytes, np.ndarray]:
    """The candidate bytes of the separator after an element of an
    ``ndim``-dimensional array, and its keep masks, one row per c: c
    counts the brackets the separator closes, and c = ndim is the last
    element, which has no separator."""
    inner = max(ndim - 1, 0)
    sep = b"]" * inner + b"," + b"[" * inner if ndim else b""
    seps = np.zeros((ndim + 1, len(sep)), dtype=bool)
    for c in range(ndim):
        seps[c, inner - c : inner + c + 1] = True
    return sep, seps


def _closed(lo: int, size: int, shape: tuple[int, ...]) -> np.ndarray:
    """The c of ``_separators`` of the elements ``lo, ..., lo + size - 1``
    of a C-ordered array of ``shape``."""
    index = np.arange(lo + 1, lo + 1 + size)
    closed = np.zeros(size, dtype=np.int64)
    for width in np.cumprod(shape[:0:-1], dtype=np.int64).tolist():
        closed += index % width == 0
    if index[-1] == math.prod(shape):
        closed[-1] = len(shape)
    return closed


@lru_cache(maxsize=None)
def _layout(ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """The candidate bytes of one element of an ``ndim``-dimensional array
    and the keep masks, one row per code (body, sign, c).  The bodies are
    the (e, n) pairs in order, then an empty one for the elements written
    by a fallback token; c is that of ``_separators``."""
    sep, seps = _separators(ndim)
    bodies = [_repr_keep(e, n) for e in range(_E_MIN, _E_MAX + 1) for n in range(1, 16)]
    bodies.append(np.zeros_like(bodies[0]))
    shape = (len(bodies), 2, ndim + 1)
    keep = np.concatenate(
        [
            np.broadcast_to(np.array([False, True])[None, :, None, None], (*shape, 1)),
            np.broadcast_to(np.array(bodies)[:, None, None, :], (*shape, len(bodies[0]))),
            np.broadcast_to(seps[None, None], (*shape, len(sep))),
        ],
        axis=-1,
    )
    keep = keep.reshape(-1, keep.shape[-1])
    keep.flags.writeable = False  # shared by every call through the cache
    return np.frombuffer(_TEMPLATE + sep, dtype=np.uint8), keep


def _encode_block(x: np.ndarray, lo: int, shape: tuple[int, ...]) -> str:
    """The JSON text of the elements ``lo, lo + 1, ...`` (``x``, float64) of
    a C-ordered array of ``shape``, each followed by its separator.

    Each element is written from the mantissa of ``_mantissas``: its
    digits are looked up four at a time, and the keep mask of its code
    (exponent, significant-digit count, sign, separator) selects the
    bytes of ``json.dumps(_round_one(x))``.  Elements that are not ``ok``
    get that expression's text, from one ``json.dumps`` of all of them
    split at its commas (a float's text holds none), spliced in before
    their separators.
    """
    candidates, keeps = _layout(len(shape))
    m, k, ok = _mantissas(x)
    ok &= m < 1e15  # a carry to 16 digits
    m = np.where(ok, m, 1e14).astype(np.int64)
    groups = np.empty((x.size, 4), dtype=np.uint32)
    for g in range(3, -1, -1):
        m, groups[:, g] = np.divmod(m, 10_000)
    digits = _DIGITS[groups].view(np.uint8).reshape(x.size, 16)[:, 1:]
    n = 15 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    e = 14 - k
    body = np.where(ok, (e - _E_MIN) * 15 + n - 1, _FALLBACK)
    code = ((body * 2 + (np.signbit(x) & ok)) * (len(shape) + 1)) + _closed(lo, x.size, shape)
    rows = np.empty((x.size, candidates.size), dtype=np.uint8)
    rows[:] = candidates
    rows[:, 6:36:2] = digits
    rows[:, 40] = ord("0") - np.minimum(e, 0)
    keep = np.take(keeps, code, axis=0)
    text = np.compress(keep.ravel(), rows.ravel()).tobytes().decode("ascii")
    bad = np.flatnonzero(~ok)
    if not bad.size:
        return text
    lengths = keep.sum(axis=1)
    cuts = [0, *(np.cumsum(lengths) - lengths)[bad].tolist(), len(text)]
    tokens = json.dumps(list(map(_round_one, x[bad].tolist())), separators=(",", ":"))
    pieces = [text[a:b] for a, b in zip(cuts, cuts[1:])]
    return "".join(chain.from_iterable(zip(pieces, tokens[1:-1].split(",")))) + pieces[-1]


def _array_json(obj: np.ndarray) -> str:
    """The JSON text of a float array's nested lists, each element rounded
    by ``_round_one``, encoded in blocks of ``_ROUND_BLOCK`` elements.  A
    longdouble or an empty array is rounded one element at a time."""
    if obj.dtype.itemsize > 8 or obj.size == 0:
        flat = np.array([_round_one(x) for x in obj.ravel().tolist()], dtype=float)
        return json.dumps(flat.reshape(obj.shape).tolist(), separators=(",", ":"))
    return _blocks_json(obj, np.float64, _encode_block)


def _rows_json(obj: np.ndarray) -> list[str]:
    """The JSON text of each row of a nonempty 1- or 2-dimensional float
    array: one ``_array_json`` split at its top-level commas (a float's
    text holds no comma and no bracket)."""
    text = _array_json(obj)[1:-1]
    if obj.ndim == 1:
        return text.split(",")
    return [f"[{row}]" for row in text[1:-1].split("],[")]


_INT64 = np.iinfo(np.int64)


def _int_json(obj: np.ndarray) -> str:
    """The JSON text of ``obj.tolist()`` for an integer array, encoded in
    blocks of ``_ROUND_BLOCK`` elements (``_encode_ints``).  An empty
    array, or one with a value outside (int64 min, int64 max], is dumped
    from its list."""
    flat = obj.reshape(-1)
    if not obj.size or not _INT64.min < int(flat.min()) <= int(flat.max()) <= _INT64.max:
        return json.dumps(obj.tolist(), separators=(",", ":"))
    return _blocks_json(obj, np.int64, _encode_ints)


def _blocks_json(obj: np.ndarray, dtype: type, encode: Callable[..., str]) -> str:
    """The JSON text of an array whose elements, as ``dtype``, ``encode``
    writes with their separators, ``_ROUND_BLOCK`` elements at a time."""
    flat = obj.reshape(-1)
    pieces = ["[" * obj.ndim]
    for lo in range(0, flat.size, _ROUND_BLOCK):
        pieces.append(encode(flat[lo : lo + _ROUND_BLOCK].astype(dtype), lo, obj.shape))
    pieces.append("]" * obj.ndim)
    return "".join(pieces)


def _encode_ints(x: np.ndarray, lo: int, shape: tuple[int, ...]) -> str:
    """The JSON text of the elements ``lo, lo + 1, ...`` (``x``, int64 above
    its minimum) of a C-ordered array of ``shape``, each followed by its
    separator: a row of candidate bytes per element ('-', the digits of
    |x| padded to the widest, the separator), of which a keep mask
    selects the sign, the digits from the first nonzero one (the last one
    always) and the separator."""
    sep, seps = _separators(len(shape))
    magnitude = np.abs(x)
    width = len(str(int(magnitude.max())))
    rows = np.empty((x.size, 1 + width + len(sep)), dtype=np.uint8)
    keep = np.empty(rows.shape, dtype=bool)
    rows[:, 0], keep[:, 0] = ord("-"), x < 0
    # a digit is kept where |x| reaches its place value; the units always
    places = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    places[-1] = 0
    keep[:, 1 : width + 1] = magnitude[:, None] >= places
    for j in range(width, 0, -1):
        magnitude, rows[:, j] = np.divmod(magnitude, 10)
    rows[:, 1 : width + 1] += ord("0")
    rows[:, width + 1 :] = np.frombuffer(sep, dtype=np.uint8)
    keep[:, width + 1 :] = seps[_closed(lo, x.size, shape)]
    return np.compress(keep.ravel(), rows.ravel()).tobytes().decode("ascii")


def write_text(path: Path, text: str | Iterable[str]) -> None:
    """Write ``text``, or its pieces in order, through a temporary sibling
    and an atomic replace.  Pieces are written as they come, so the whole
    text is never held at once.

    The temporary file is created like a plain ``open`` would create it
    (mode 0666 less the umask), so the final file has the usual mode.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            # writelines drops each piece before it takes the next
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload: dict) -> None:
    """Serialize as compact JSON with sorted keys and atomic replace: the
    text ``json.dumps(sort_keys=True)`` gives the payload with every float
    rounded by ``_round_one``, written piece by piece as ``_walk`` yields
    it."""
    write_text(Path(path), chain(_walk(payload), ["\n"]))


def _walk(obj: Any) -> Iterator[str]:
    """The archive text of a value, in pieces, in order.  Dict keys are
    sorted, and a key that is not a string is written as ``json.dumps``
    writes it; lists and tuples are walked item by item.  A float array
    is written from its mantissas (``_array_json``), an integer array
    from its digits (``_int_json``), and a ``Records`` table and a
    residual section a block of records at a time.  Every other float is
    ``_round_one`` of it, and every other leaf its ``json.dumps``."""
    if isinstance(obj, dict):
        keys = {key: json.dumps(key if isinstance(key, str) else json.dumps(key)) for key in obj}
        members = (chain([f"{keys[key]}:"], _walk(value)) for key, value in sorted(obj.items()))
        yield from _listed(members, "{}")
    elif isinstance(obj, (list, tuple)):
        yield from _listed(map(_walk, obj))
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            yield _array_json(obj)
        elif obj.dtype.kind in "iu":
            yield _int_json(obj)
        else:
            yield from _walk(obj.tolist())
    elif type(obj) is Records:
        yield from _listed(zip(_records_json(obj)))  # each block of records is one item
    elif type(obj) is ResidualTables:
        yield from _listed(zip(_residual_json(obj)))
    elif isinstance(obj, (float, np.floating)):
        yield json.dumps(_round_one(float(obj)))
    else:
        yield json.dumps(int(obj) if isinstance(obj, np.integer) else obj)


def _listed(items: Iterable[Iterable[str]], brackets: str = "[]") -> Iterator[str]:
    """The JSON list (or object, with ``brackets`` "{}") of items given as
    the pieces of their text: the opening bracket, the items' pieces with
    ``,`` between items, and the closing bracket."""
    sep = brackets[0]
    for item in items:
        yield sep
        yield from item
        sep = ","
    yield brackets[1] if sep == "," else brackets


def load_json(path: str | Path) -> dict:
    with Path(path).open(encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence] | ResidualTables
) -> None:
    """CSV writer with the archive float convention and atomic replace.
    Rows are written one at a time as they come, and a residual section
    from its tables' arrays (``_residual_csv``)."""

    def cell(value: Any) -> str:
        if value is None:
            return ""
        if isinstance(value, (float, np.floating)):
            return f"{float(value):.15g}"
        return str(value)

    writer = csv.writer(_Echo(), lineterminator="\n")
    if type(rows) is ResidualTables:
        lines = _residual_csv(rows)
    else:
        lines = (writer.writerow([cell(v) for v in row]) for row in rows)
    write_text(Path(path), chain([writer.writerow(header)], lines))


def assignment_columns(assignment: HierarchicalAssignment) -> dict:
    """The assignment in the archive layout: the cluster counts, and per
    supplementary variable its name, its class labels, and the class code
    and within-class cluster index of every observation."""
    sup = assignment.sup
    return {
        "cluster_counts": [list(row) for row in assignment.spec.counts],
        "assignment": [
            {
                "variable": name,
                "classes": list(sup.labels[h]),
                "class_codes": sup.codes[:, h],
                "clusters": assignment.clusters[:, h],
            }
            for h, name in enumerate(sup.names)
        ],
    }


def assignment_from_archive(archive: dict, sup: SupplementaryData) -> HierarchicalAssignment:
    """Rebuild the assignment stored in a ``solution.json`` (under its
    ``solution`` key) or a ``truth.json`` (at the top level).

    Raises ``ConfigError`` for an archive of another format, and
    ``ShapeError`` when its variables, classes or cluster counts disagree
    with ``sup``, or a class code, cluster index or count is not an integer.
    """
    found = archive.get("format") if isinstance(archive, dict) else None
    if found != ARCHIVE_FORMAT:
        raise ConfigError(f"archive format {found!r} is not {ARCHIVE_FORMAT!r}; refit to rebuild")
    stored = archive.get("solution", archive)
    names = tuple(col["variable"] for col in stored["assignment"])
    if names != sup.names:
        raise ShapeError(f"archived variables {list(names)} do not match input {list(sup.names)}")
    clusters = np.empty((sup.n_obs, sup.n_sup), dtype=np.int64)
    counts = stored["cluster_counts"]
    if len(counts) != sup.n_sup:
        raise ShapeError(f"archive holds counts of {len(counts)} variables, not {sup.n_sup}")
    for h, col in enumerate(stored["assignment"]):
        codes = _integers(col["class_codes"], names[h], "class codes")
        found = _integers(col["clusters"], names[h], "clusters")
        classes = col["classes"]
        if codes.shape != (sup.n_obs,) or found.shape != (sup.n_obs,):
            raise ShapeError(f"variable {names[h]!r}: archive does not hold {sup.n_obs} rows")
        if _integers(counts[h], names[h], "cluster counts").shape != (sup.r[h],):
            raise ShapeError(f"variable {names[h]!r}: archive does not hold {sup.r[h]} counts")
        if codes.min() < 0 or codes.max() >= len(classes):
            raise ShapeError(f"variable {names[h]!r}: class codes outside [0, {len(classes)})")
        position = {label: s for s, label in enumerate(sup.labels[h])}
        to_input = np.array([position.get(label, -1) for label in classes], dtype=np.int64)
        bad = to_input[codes] != sup.codes[:, h]
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            label = classes[codes[i]]
            raise ShapeError(f"observation {i}: archived class {label!r} does not match input")
        clusters[:, h] = found
    spec = ClusterSpec(tuple(tuple(row) for row in counts))
    return HierarchicalAssignment(sup=sup, spec=spec, clusters=clusters)


def _integers(values: Any, variable: str, what: str) -> np.ndarray:
    """An archived list of integers as an int64 array; ``ShapeError``
    naming the variable when a value is not an integer."""
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise ShapeError(f"variable {variable!r}: {what} are not all integers")
    return array.astype(np.int64)


def truth_archive(truth: HierarchicalAssignment) -> dict:
    """The ``truth.json`` of a generated dataset: its true assignment in
    the archive layout, readable by ``assignment_from_archive``."""
    return {"format": ARCHIVE_FORMAT, **assignment_columns(truth)}


class Records:
    """A table of records held as columns: each key maps to a float array
    with one row per record (a row of several values is that record's
    list) or to a sequence of labels, integers or None.  Iterating it
    yields each record as a dict of Python values, as a reloaded archive
    lists them; ``_walk`` writes it as that list of records (keys sorted),
    a block of records at a time (``_records_json``)."""

    __slots__ = ("columns",)

    def __init__(self, columns: dict[str, Any]) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __iter__(self) -> Iterator[dict]:
        for block in self.blocks():
            values = [c.tolist() if isinstance(c, np.ndarray) else c for c in block.values()]
            yield from (dict(zip(block, row)) for row in zip(*values))

    def blocks(self) -> Iterator[dict[str, Any]]:
        """The table's columns sliced to blocks of ``_ROUND_BLOCK`` records."""
        for lo in range(0, len(self), _ROUND_BLOCK):
            yield {key: column[lo : lo + _ROUND_BLOCK] for key, column in self.columns.items()}


def _records_json(records: Records) -> Iterator[str]:
    """The JSON objects of a ``Records`` table's records, keys sorted,
    one piece per block of records, joined by commas; a float column's
    texts come from ``_rows_json``."""
    heads = {key: f"{json.dumps(key)}:" for key in sorted(records.columns)}
    for block in records.blocks():
        texts = [_rows_json(c) if isinstance(c, np.ndarray) else list(map(json.dumps, c))
                 for c in map(block.get, heads)]
        yield ",".join(["{" + ",".join(map(str.__add__, heads.values(), row)) + "}"
                        for row in zip(*texts)])


def category_points(labels: Sequence[str], masses: np.ndarray, coords: np.ndarray) -> Records:
    """The biplot's category points: label, mass and coordinates."""
    return Records({"label": list(labels), "mass": masses, "coords": coords})


def _class_points(
    model: BiplotModel, centers_by_row: np.ndarray, sup: SupplementaryData
) -> Records:
    """Mass-weighted class centroids in display coordinates.

    A class's point is gamma * sqrt(class mass) times the mass-weighted
    mean of its clusters' centers, the direct analogue of the class rows
    of the averaged table.  Classes are numbered in (h, s) order.
    """
    classes = [(h, s) for h in range(sup.n_sup) for s in range(sup.r[h])]
    offsets = np.cumsum((0, *sup.r))
    index = [offsets[h] + s for h, s, _k in model.row_index]
    mass = np.zeros(len(classes))
    weighted = np.zeros((len(classes), centers_by_row.shape[1]))
    np.add.at(mass, index, model.row_masses)
    np.add.at(weighted, index, model.row_masses[:, None] * centers_by_row)
    coords = model.gamma * np.sqrt(mass)[:, None] * (weighted / mass[:, None])
    return Records({
        "h": [h for h, _s in classes], "s": [s for _h, s in classes],
        "label": [sup.labels[h][s] for h, s in classes], "coords": coords, "mass": mass,
        "size": [None] * len(classes),
    })


def build_archive(
    config: dict,
    solution: MsccaSolution,
    model: BiplotModel,
    residuals: Sequence[tuple[str, BiplotModel]],
) -> dict:
    """Assemble the JSON archive for a clustering fit.

    ``model`` must carry residuals and coordinates (display order).
    ``residuals`` names the standardized tables whose residuals the
    archive lists, in order, as (method, model) pairs
    (``ResidualTables``).
    """
    assignment = solution.assignment
    sup = assignment.sup
    centers_by_row = solution.centers[model.rows]
    class_sizes = [sup.class_sizes(h) for h in range(sup.n_sup)]
    index = model.row_index
    rows = Records({
        "label": list(model.row_labels),
        "variable": [sup.names[h] for h, _s, _k in index],
        "class": [sup.labels[h][s] for h, s, _k in index],
        "cluster": [int(k) for _h, _s, k in index],
        "size": model.sizes.tolist(),
        "share": model.sizes / np.array([class_sizes[h][s] for h, s, _k in index], dtype=float),
        "mass": model.row_masses,
        "coords": model.row_coords,
    })
    return {
        "format": ARCHIVE_FORMAT,
        "version": __version__,
        "config": config,
        "solution": {
            "objective": float(solution.objective),
            "psi": float(solution.psi),
            "converged": bool(solution.converged),
            "start_index": int(solution.start_index),
            "objective_trace": [float(v) for v in solution.objective_trace],
            **assignment_columns(assignment),
            "centers": solution.centers,
            "quantifications": solution.quantifications,
        },
        "biplot": {
            "gamma": float(model.gamma),
            "clusters": rows,
            "categories": category_points(model.col_labels, model.col_masses, model.col_coords),
            "classes": _class_points(model, centers_by_row, sup),
        },
        "residuals": ResidualTables(tuple(residuals), sup),
    }


def class_points_only(archive: dict) -> None:
    """Rewrite an averaging fit's archive in place: its rows are whole
    classes (one cluster per class), exported as class points only."""
    biplot = archive["biplot"]
    columns = biplot["clusters"].columns
    biplot["classes"] = Records({key: columns[key] for key in ("label", "coords", "mass", "size")})
    biplot["clusters"] = []


def variant_archive(
    config: dict, method: str, dataset: CategoricalDataset, fit: ConstrainedFit
) -> dict:
    """The ``mscca-variant`` archive of a constrained quantification
    (``variants --method removal|mca``): its objective, quantifications
    and scores, and a biplot of category points only."""
    col_masses = dataset.counts / dataset.counts.sum()
    col_coords = np.sqrt(col_masses)[:, None] * fit.quantifications
    return {
        "format": "mscca-variant",
        "method": method,
        "config": config,
        "objective": float(fit.objective),
        "quantifications": fit.quantifications,
        "scores": fit.scores,
        "biplot": {
            "gamma": 1.0,
            "clusters": [],
            "classes": [],
            "categories": category_points(dataset.column_labels, col_masses, col_coords),
        },
    }


def biplot_points(archive: dict) -> Iterator[tuple[str, dict]]:
    """(kind, record) for every point of an archive's biplot section:
    clusters, then classes, then categories; a missing list is empty."""
    biplot = archive["biplot"]
    for kind, key in (("cluster", "clusters"), ("class", "classes"), ("category", "categories")):
        for rec in biplot.get(key, ()):
            yield kind, rec


def coords_header(archive: dict) -> list[str]:
    first = next(iter(archive["biplot"]["categories"]), None)
    p = 2 if first is None else len(first["coords"])
    return ["point_kind", "label", *[f"dim{i + 1}" for i in range(p)], "mass", "size"]


def coords_rows(archive: dict) -> Iterator[list]:
    """Flatten an archive's points to the coordinate export schema:
    (point_kind, label, dim1..dimp, mass, size), one row at a time."""
    return (
        [kind, rec["label"], *rec["coords"], rec["mass"], rec.get("size")]
        for kind, rec in biplot_points(archive)
    )


class ResidualTables:
    """The residual section of an archive: standardized tables as (method,
    model) pairs, in order, and the supplementary data whose class labels
    align their rows.  It lists one record per cell, table by table and
    row by row: method, row label, class label, column label and value.
    The class label maps an averaging row to the cluster rows that
    partition it.  ``_walk`` writes the records as JSON objects
    (``_residual_json``) and ``write_csv`` as CSV rows (``_residual_csv``),
    both from each model's ``residuals`` array through ``blocks``; ``len``
    counts the cells."""

    __slots__ = ("tables", "sup")

    def __init__(self, tables: tuple[tuple[str, BiplotModel], ...], sup: SupplementaryData):
        self.tables = tables
        self.sup = sup

    def __len__(self) -> int:
        return sum(model.residuals.size for _method, model in self.tables)

    def blocks(
        self, quote: Callable[[str], str]
    ) -> Iterator[tuple[str, str, str, list[str], np.ndarray]]:
        """Each table row in order, in blocks of at most ``_ROUND_BLOCK``
        cells: the method, row label, class label and column labels, each
        passed through ``quote`` once per table or row, and the block's
        residuals."""
        labels = self.sup.labels
        for method, model in self.tables:
            method, columns = quote(method), list(map(quote, model.col_labels))
            for row, (h, s, _k), values in zip(model.row_labels, model.row_index, model.residuals):
                row, label = quote(row), quote(labels[h][s])
                for lo in range(0, len(columns), _ROUND_BLOCK):
                    hi = lo + _ROUND_BLOCK
                    yield method, row, label, columns[lo:hi], values[lo:hi]


def _residual_json(section: ResidualTables) -> Iterator[str]:
    """The JSON objects of a residual section's records, keys sorted, one
    piece per block of ``ResidualTables.blocks``, joined by commas; the
    value texts come from ``_rows_json``."""
    for method, row, label, columns, values in section.blocks(json.dumps):
        head, tail = f'{{"class":{label},"column":', f',"method":{method},"row":{row},"value":'
        yield ",".join([f"{head}{column}{tail}{value}}}"
                        for column, value in zip(columns, _rows_json(values))])


class _Echo:
    """A file whose ``write`` returns the text it is given."""

    def write(self, text: str) -> str:
        return text


def _residual_csv(section: ResidualTables) -> Iterator[str]:
    """The CSV lines of a residual section's records (``RESIDUALS_HEADER``),
    each value written ``format(v, ".15g")``: one piece per block of
    ``ResidualTables.blocks``."""
    writer = csv.writer(_Echo(), lineterminator="\n")

    def quote(text: str) -> str:
        # the cell as write_csv's writer writes it in a row of several cells
        return writer.writerow((text, ""))[:-2]

    for method, row, label, columns, values in section.blocks(quote):
        head = f"{method},{row},{label},"
        yield "".join([f"{head}{column},{value:.15g}\n" for column, value in
                       zip(columns, values.tolist())])


def residual_rows(archive: dict) -> ResidualTables | None:
    """The residual section of an archive from ``build_archive``, which
    ``write_csv`` writes as the residual export (``RESIDUALS_HEADER``);
    None for an archive without one."""
    return archive.get("residuals")


def biplot_svg(archive: Any) -> str:
    """The SVG scatter of an archive's biplot points.  Cluster labels are
    sized by share, class labels by mass.

    Raises ``ConfigError`` when the archive holds no category points or a
    point is malformed (its coords not two finite numbers, or its share or
    mass neither null nor a number in [0, 1]) or the padded viewport of
    the points and the origin is not finite, and ``ExportError`` unless
    the first category point is 2-dimensional.
    """
    biplot = archive.get("biplot") if isinstance(archive, dict) else None
    if not isinstance(biplot, dict) or not biplot.get("categories"):
        raise ConfigError("archive holds no biplot coordinates")
    try:
        p = len(next(iter(biplot["categories"]))["coords"])
        if p != 2:
            raise ExportError(f"SVG export needs 2-dimensional coordinates, archive has p={p}")
        points = []
        for kind, rec in biplot_points(archive):
            x, y = rec["coords"]
            size = rec.get("mass" if kind == "class" else "share")
            values = (x, y) if size is None else (x, y, size)
            # math.isfinite raises TypeError on a string or null, and accepts a bool
            if any(isinstance(v, bool) or not math.isfinite(v) for v in values):
                raise ValueError(f"{kind} {rec['label']!r} needs finite coords and size")
            if size is not None and not 0 <= size <= 1:
                raise ValueError(f"{kind} {rec['label']!r} has size {size!r} outside [0, 1]")
            points.append((kind, rec["label"], x, y, size))
        return render_scatter(points)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"archive biplot is malformed: {exc!r}") from exc

"""Solution archives and tabular exports.

Archives are compact JSON with sorted keys and floats rounded to 15
significant digits, written atomically, so identical (input, config,
seed) runs produce byte-identical files.  Float arrays are written
straight from their 15-digit mantissas, in the bytes ``json.dumps`` gives
their rounded values.  Loading an archive plus the
original input is enough to rebuild the assignment and re-evaluate the
objective.  The assignment is stored column by column: per supplementary
variable its class labels once, then one class code and one cluster
index per observation.  The residual section (``ResidualTables``) is
written, in ``solution.json`` and in ``residuals.csv``, straight from its
tables' K x Q residual arrays, with each label quoted once per table.

This is the only module that builds or reads archive dicts; every export
reads the biplot section's points through ``biplot_points``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from functools import lru_cache
from itertools import chain, islice
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
# rounding and encoding, which bounds their working memory.
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLIT = 134217729.0
_ROUND_BLOCK = 1 << 15


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


def _round_block(x: np.ndarray) -> np.ndarray:
    """``_round_one`` of every element of a float64 block, bit for bit."""
    m, k, ok = _mantissas(x)
    out = np.copysign(m / _POW10[np.clip(k, 0, 22)], x)
    for i in np.flatnonzero(~ok).tolist():
        out[i] = _round_one(float(x[i]))
    return out


def _round_array(obj: np.ndarray) -> np.ndarray:
    """``_round_one`` of every element of a float array, as float64,
    rounded in blocks of ``_ROUND_BLOCK`` elements."""
    if obj.dtype.itemsize > 8:
        flat = [_round_one(x) for x in obj.ravel().tolist()]
        return np.array(flat, dtype=float).reshape(obj.shape)
    flat = obj.astype(np.float64).ravel()
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _ROUND_BLOCK):
        out[lo : lo + _ROUND_BLOCK] = _round_block(flat[lo : lo + _ROUND_BLOCK])
    return out.reshape(obj.shape)


def _rounded_lists(obj: np.ndarray) -> list:
    """``_round_array(obj)`` as nested lists of floats."""
    return _round_array(obj).tolist()


class _Json:
    """JSON text that a container's text takes as it stands: one string,
    or the iterable of the pieces it is made of, in order (a residual
    section, ``_residual_json``)."""

    __slots__ = ("text",)

    def __init__(self, text: str | Iterable[str]) -> None:
        self.text = text


def _dumps(obj: Any) -> str:
    """Compact sorted-key JSON of a rounded value."""
    if type(obj) is _Json:
        return obj.text if type(obj.text) is str else "".join(obj.text)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _pieces(obj: dict | list) -> list[str | _Json]:
    """The JSON text of a rounded container that is not empty, in order:
    its punctuation and keys, and each item's text, a ``_Json`` as it
    stands."""
    if isinstance(obj, dict):
        # a key that is not a string is written as json.dumps writes it
        parts = ["{"]
        for key, value in sorted(obj.items()):
            parts += [json.dumps(key if isinstance(key, str) else json.dumps(key)), ":",
                      value if type(value) is _Json else _dumps(value), ","]
        parts[-1] = "}"
    else:
        parts = ["["]
        for value in obj:
            parts += [value if type(value) is _Json else _dumps(value), ","]
        parts[-1] = "]"
    return parts


def _holds_json(obj: dict | list) -> bool:
    """Whether a rounded container holds JSON text."""
    return _Json in map(type, obj.values() if isinstance(obj, dict) else obj)


def _joined(obj: dict | list) -> dict | list | _Json:
    """A rounded container, or its JSON text when it holds JSON text.  The
    text is one join of the keys, values and punctuation, so no item's text
    is copied twice."""
    if not _holds_json(obj):
        return obj
    return _Json("".join([part if type(part) is str else _dumps(part) for part in _pieces(obj)]))


_ATOMS = {str, int, bool, type(None)}


def _round_items(items: list) -> list:
    """``_round_floats`` of every item of a list.  Floats, records that
    share their keys, and lists are rounded together: floats in one
    vectorized pass, records field by field, lists as one flat list."""
    kinds = set(map(type, items))
    if kinds <= _ATOMS:
        return items
    if all(issubclass(kind, (float, np.floating)) for kind in kinds):
        return _round_array(np.array(items, dtype=np.float64)).tolist()
    if kinds == {dict}:
        keys = list(items[0])
        if all(list(item) == keys for item in items):
            fields = [_round_items([item[key] for item in items]) for key in keys]
            records = [dict(zip(keys, values)) for values in zip(*fields)]
            if any(_Json in map(type, field) for field in fields):
                records = list(map(_joined, records))
            return records
    if kinds <= {list, tuple}:
        flat = _round_items([value for item in items for value in item])
        values = iter(flat)
        lists = [list(islice(values, len(item))) for item in items]
        return list(map(_joined, lists)) if _Json in map(type, flat) else lists
    return [_round_floats(item) for item in items]


def _round_floats(obj: Any) -> Any:
    """Round every float to 15 significant digits, recursively, as
    ``_round_one`` does; the floats of a list are rounded together
    (``_round_items``).  A float array becomes its JSON text
    (``_array_json``), as do an integer array (``_int_json``) and a
    residual section (``_residual_json``), and every container that holds
    JSON text becomes JSON text."""
    if type(obj) is ResidualTables:
        return _residual_json(obj)
    if isinstance(obj, (float, np.floating)):
        return _round_one(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            return _array_json(obj)
        if obj.dtype.kind in "iu":
            return _int_json(obj)
        if obj.dtype.kind == "b":
            return obj.tolist()
        return _round_floats(obj.tolist())
    if isinstance(obj, dict):
        return _joined(_rounded_dict(obj))
    if isinstance(obj, (list, tuple)):
        return _joined(_round_items(list(obj)))
    return obj


def _rounded_dict(obj: dict) -> dict:
    """A dict with every value rounded (``_round_floats``), not joined."""
    return dict(zip(obj, _round_items(list(obj.values()))))


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
    get that expression itself, spliced in before their separator.
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
    bad = np.flatnonzero(~ok).tolist()
    if not bad:
        return text
    lengths = keep.sum(axis=1)
    starts = (np.cumsum(lengths) - lengths)[bad].tolist()
    pieces, done = [], 0
    for i, start in zip(bad, starts):
        pieces += [text[done:start], json.dumps(_round_one(float(x[i])))]
        done = start
    pieces.append(text[done:])
    return "".join(pieces)


def _array_json(obj: np.ndarray) -> _Json:
    """The JSON text of the nested lists of ``_round_array(obj)``, encoded
    in blocks of ``_ROUND_BLOCK`` elements."""
    if obj.dtype.itemsize > 8 or obj.size == 0:
        return _Json(_dumps(_rounded_lists(obj)))
    return _blocks_json(obj, np.float64, _encode_block)


_INT64 = np.iinfo(np.int64)


def _int_json(obj: np.ndarray) -> _Json:
    """The JSON text of ``obj.tolist()`` for an integer array, encoded in
    blocks of ``_ROUND_BLOCK`` elements (``_encode_ints``).  An empty
    array, or one with a value outside (int64 min, int64 max], is dumped
    from its list."""
    flat = obj.reshape(-1)
    if not obj.size or not _INT64.min < int(flat.min()) <= int(flat.max()) <= _INT64.max:
        return _Json(_dumps(obj.tolist()))
    return _blocks_json(obj, np.int64, _encode_ints)


def _blocks_json(obj: np.ndarray, dtype: type, encode: Callable[..., str]) -> _Json:
    """The JSON text of an array whose elements, as ``dtype``, ``encode``
    writes with their separators, ``_ROUND_BLOCK`` elements at a time."""
    flat = obj.reshape(-1)
    pieces = ["[" * obj.ndim]
    for lo in range(0, flat.size, _ROUND_BLOCK):
        pieces.append(encode(flat[lo : lo + _ROUND_BLOCK].astype(dtype), lo, obj.shape))
    pieces.append("]" * obj.ndim)
    return _Json("".join(pieces))


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
    rounded by ``_round_one``, with every float array written straight
    from its mantissas and every integer array from its digits.

    The top-level dict's text is written piece by piece (``_pieces``), and
    a residual section table by table, so neither the archive's text nor
    the section's is ever joined whole."""
    rounded = _rounded_dict(payload)
    parts = [*(_pieces(rounded) if _holds_json(rounded) else [_dumps(rounded)]), "\n"]
    del rounded  # the values' objects go once their text is made
    write_text(Path(path), _streamed(parts))


def _streamed(parts: list[str | _Json]) -> Iterator[str]:
    """The strings of ``_pieces``, each ``_Json`` made of pieces given
    piece by piece."""
    for part in parts:
        if type(part) is str:
            yield part
        elif type(part.text) is str:
            yield part.text
        else:
            yield from part.text


def load_json(path: str | Path) -> dict:
    with Path(path).open(encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(
    path: str | Path, header: Sequence[str], rows: Sequence[Sequence] | ResidualTables
) -> None:
    """CSV writer with the archive float convention and atomic replace.  A
    residual section is written from its tables' arrays
    (``_residual_csv``)."""

    def cell(value: Any) -> str:
        if value is None:
            return ""
        if isinstance(value, (float, np.floating)):
            return f"{float(value):.15g}"
        return str(value)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    if type(rows) is ResidualTables:
        write_text(Path(path), chain([buffer.getvalue()], _residual_csv(rows)))
        return
    for row in rows:
        writer.writerow([cell(v) for v in row])
    write_text(Path(path), buffer.getvalue())


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
    ``ShapeError`` when its variables or classes disagree with ``sup``.
    """
    found = archive.get("format") if isinstance(archive, dict) else None
    if found != ARCHIVE_FORMAT:
        raise ConfigError(f"archive format {found!r} is not {ARCHIVE_FORMAT!r}; refit to rebuild")
    stored = archive.get("solution", archive)
    names = tuple(col["variable"] for col in stored["assignment"])
    if names != sup.names:
        raise ShapeError(f"archived variables {list(names)} do not match input {list(sup.names)}")
    clusters = np.empty((sup.n_obs, sup.n_sup), dtype=np.int64)
    for h, col in enumerate(stored["assignment"]):
        codes = np.asarray(col["class_codes"], dtype=np.int64)
        classes = col["classes"]
        if codes.shape != (sup.n_obs,) or len(col["clusters"]) != sup.n_obs:
            raise ShapeError(f"variable {names[h]!r}: archive does not hold {sup.n_obs} rows")
        if codes.min() < 0 or codes.max() >= len(classes):
            raise ShapeError(f"variable {names[h]!r}: class codes outside [0, {len(classes)})")
        position = {label: s for s, label in enumerate(sup.labels[h])}
        to_input = np.array([position.get(label, -1) for label in classes], dtype=np.int64)
        bad = to_input[codes] != sup.codes[:, h]
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            label = classes[codes[i]]
            raise ShapeError(f"observation {i}: archived class {label!r} does not match input")
        clusters[:, h] = col["clusters"]
    spec = ClusterSpec(tuple(tuple(row) for row in stored["cluster_counts"]))
    return HierarchicalAssignment(sup=sup, spec=spec, clusters=clusters)


def truth_archive(truth: HierarchicalAssignment) -> dict:
    """The ``truth.json`` of a generated dataset: its true assignment in
    the archive layout, readable by ``assignment_from_archive``."""
    return {"format": ARCHIVE_FORMAT, **assignment_columns(truth)}


def category_points(labels: Sequence[str], masses: np.ndarray, coords: np.ndarray) -> list[dict]:
    """The biplot's category points: label, mass and coordinates."""
    return [
        {"label": label, "mass": float(mass), "coords": [float(v) for v in row]}
        for label, mass, row in zip(labels, masses, coords)
    ]


def _class_points(
    model: BiplotModel, centers_by_row: np.ndarray, sup: SupplementaryData
) -> list[dict]:
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
    return [
        {"h": h, "s": s, "label": sup.labels[h][s], "coords": [float(v) for v in coords[c]],
         "mass": float(mass[c]), "size": None}
        for c, (h, s) in enumerate(classes)
    ]


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
    rows = []
    for i, (h, s, k) in enumerate(model.row_index):
        size = int(model.sizes[i])
        rows.append(
            {
                "label": model.row_labels[i],
                "variable": sup.names[h],
                "class": sup.labels[h][s],
                "cluster": int(k),
                "size": size,
                "share": size / int(class_sizes[h][s]),
                "mass": float(model.row_masses[i]),
                "coords": [float(v) for v in model.row_coords[i]],
            }
        )
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
    keep = ("label", "coords", "mass", "size")
    biplot["classes"] = [{key: rec[key] for key in keep} for rec in biplot["clusters"]]
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
    categories = archive["biplot"]["categories"]
    p = len(categories[0]["coords"]) if categories else 2
    return ["point_kind", "label", *[f"dim{i + 1}" for i in range(p)], "mass", "size"]


def coords_rows(archive: dict) -> list[list]:
    """Flatten an archive's points to the coordinate export schema:
    (point_kind, label, dim1..dimp, mass, size)."""
    return [
        [kind, rec["label"], *rec["coords"], rec["mass"], rec.get("size")]
        for kind, rec in biplot_points(archive)
    ]


class ResidualTables:
    """The residual section of an archive: standardized tables as (method,
    model) pairs, in order, and the supplementary data whose class labels
    align their rows.  It lists one record per cell, table by table and
    row by row: method, row label, class label, column label and value.
    The class label maps an averaging row to the cluster rows that
    partition it.  ``_round_floats`` writes the records as JSON objects
    (``_residual_json``) and ``write_csv`` as CSV rows (``_residual_csv``),
    both from each model's ``residuals`` array; ``len`` counts the cells."""

    __slots__ = ("tables", "sup")

    def __init__(self, tables: tuple[tuple[str, BiplotModel], ...], sup: SupplementaryData):
        self.tables = tables
        self.sup = sup

    def __len__(self) -> int:
        return sum(model.residuals.size for _method, model in self.tables)

    def quoted(
        self, quote: Callable[[str], str]
    ) -> Iterator[tuple[str, list[tuple[str, str]], list[str], np.ndarray]]:
        """Per table with cells: its method, its (row, class) labels and
        its column labels, each passed through ``quote`` once, and its
        residual array."""
        labels = self.sup.labels
        for method, model in self.tables:
            if model.residuals.size:
                rows = [(quote(row), quote(labels[h][s]))
                        for row, (h, s, _k) in zip(model.row_labels, model.row_index)]
                yield quote(method), rows, list(map(quote, model.col_labels)), model.residuals


def _residual_json(section: ResidualTables) -> _Json:
    """The JSON list of a residual section's records, keys sorted, as
    pieces made when they are read: one per table with cells, and the
    punctuation.  The value texts of a table come from one ``_array_json``
    call, split at its commas (a float's text holds none)."""

    def pieces() -> Iterator[str]:
        yield "["
        for i, table in enumerate(section.quoted(json.dumps)):
            if i:
                yield ","
            yield _residual_table_json(*table)
        yield "]"

    return _Json(pieces())


def _residual_table_json(
    method: str, rows: list[tuple[str, str]], columns: list[str], residuals: np.ndarray
) -> str:
    """The records of one residual table, labels already quoted, joined
    by commas."""
    texts = _array_json(residuals).text[2:-2].split("],[")
    cells = []
    for (row, label), values in zip(rows, texts):
        head, tail = f'{{"class":{label},"column":', f',"method":{method},"row":{row},"value":'
        pairs = zip(columns, values.split(","))
        cells.append(",".join([f"{head}{column}{tail}{value}}}" for column, value in pairs]))
    del texts  # the value texts go before the records are joined
    return ",".join(cells)


class _Echo:
    """A file whose ``write`` returns the text it is given."""

    def write(self, text: str) -> str:
        return text


def _residual_csv(section: ResidualTables) -> Iterator[str]:
    """The CSV lines of a residual section's records (``RESIDUALS_HEADER``),
    each value written ``format(v, ".15g")``: one piece per table with
    cells, made when it is read."""
    writer = csv.writer(_Echo(), lineterminator="\n")

    def quote(text: str) -> str:
        # the cell as write_csv's writer writes it in a row of several cells
        return writer.writerow((text, ""))[:-2]

    for table in section.quoted(quote):
        yield _residual_table_csv(*table)


def _residual_table_csv(
    method: str, rows: list[tuple[str, str]], columns: list[str], residuals: np.ndarray
) -> str:
    """The CSV lines of one residual table, labels already quoted."""
    lines = []
    for (row, label), values in zip(rows, residuals):
        head = f"{method},{row},{label},"
        lines.append("".join([
            f"{head}{column},{value:.15g}\n" for column, value in zip(columns, values.tolist())
        ]))
    return "".join(lines)


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
        p = len(biplot["categories"][0]["coords"])
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

"""Solution archives and tabular exports.

Archives are JSON with sorted keys and floats rounded to 15 significant
digits, written atomically, so identical (input, config, seed) runs
produce byte-identical files.  Loading an archive plus the original
input is enough to rebuild the assignment and re-evaluate the objective.
"""

from __future__ import annotations

import csv
import io
import json
import os
import secrets
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .biplot import BiplotModel, ResidualComparison
from .data import ClusterSpec, HierarchicalAssignment, SupplementaryData
from .errors import ShapeError
from .solver import MsccaSolution


def _round_floats(obj: Any) -> Any:
    """Round every float to 15 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.15g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` through a temporary sibling and an atomic replace.

    The temporary file is created like a plain ``open`` would create it
    (mode 0666 less the umask), so the final file has the usual mode.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload: dict) -> None:
    """Serialize with sorted keys and atomic replace."""
    text = json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n"
    _atomic_write(Path(path), text)


def load_json(path: str | Path) -> dict:
    with Path(path).open(encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """CSV writer with the archive float convention and atomic replace."""

    def cell(value: Any) -> str:
        if value is None:
            return ""
        if isinstance(value, (float, np.floating)):
            return f"{float(value):.15g}"
        return str(value)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell(v) for v in row])
    _atomic_write(Path(path), buffer.getvalue())


def assignment_records(assignment: HierarchicalAssignment) -> list[dict]:
    """Per-observation (variable -> [class label, cluster index]) records."""
    sup = assignment.sup
    out = []
    for i in range(assignment.n_obs):
        entry = {}
        for h, name in enumerate(sup.names):
            s = int(sup.codes[i, h])
            entry[name] = [sup.labels[h][s], int(assignment.clusters[i, h])]
        out.append(entry)
    return out


def assignment_from_records(
    records: Sequence[dict], sup: SupplementaryData, spec: ClusterSpec
) -> HierarchicalAssignment:
    """Rebuild an assignment stored by ``assignment_records``."""
    if len(records) != sup.n_obs:
        raise ShapeError("record count does not match the supplementary data")
    clusters = np.zeros((sup.n_obs, sup.n_sup), dtype=np.int64)
    for i, entry in enumerate(records):
        for h, name in enumerate(sup.names):
            label, k = entry[name]
            if sup.labels[h][int(sup.codes[i, h])] != label:
                raise ShapeError(f"observation {i}: archived class {label!r} does not match input")
            clusters[i, h] = int(k)
    return HierarchicalAssignment(sup=sup, spec=spec, clusters=clusters)


def _class_points(model: BiplotModel, centers_by_row: np.ndarray) -> list[dict]:
    """Mass-weighted class centroids in display coordinates.

    A class's point is gamma * sqrt(class mass) times the mass-weighted
    mean of its clusters' centers, the direct analogue of the class rows
    of the averaged table.
    """
    sup_classes: dict[tuple[int, int], dict] = {}
    for i, (h, s, _k) in enumerate(model.row_index):
        slot = sup_classes.setdefault((h, s), {"mass": 0.0, "weighted": 0.0, "rows": []})
        slot["mass"] += float(model.row_masses[i])
        slot["weighted"] = slot["weighted"] + model.row_masses[i] * centers_by_row[i]
        slot["rows"].append(i)
    out = []
    for (h, s), slot in sorted(sup_classes.items()):
        mean_center = slot["weighted"] / slot["mass"]
        coords = model.gamma * np.sqrt(slot["mass"]) * mean_center
        label = model.row_labels[slot["rows"][0]]
        # Strip the rank suffix when the class was split into clusters.
        if len(slot["rows"]) > 1:
            label = _common_class_label(model, slot["rows"])
        out.append(
            {
                "h": h,
                "s": s,
                "label": label,
                "coords": [float(v) for v in coords],
                "mass": float(slot["mass"]),
                "size": None,
            }
        )
    return out


def _common_class_label(model: BiplotModel, rows: list[int]) -> str:
    labels = [model.row_labels[i] for i in rows]
    prefix = os.path.commonprefix(labels)
    return prefix if prefix else labels[0]


def build_archive(
    config: dict,
    solution: MsccaSolution,
    model: BiplotModel,
    comparison: ResidualComparison | None,
    class_sizes: dict[tuple[int, int], int],
) -> dict:
    """Assemble the JSON archive for a clustering fit.

    ``model`` must carry residuals and coordinates (display order);
    ``class_sizes`` maps (h, s) to member counts for label sizing.
    """
    assignment = solution.assignment
    sup = assignment.sup
    first = assignment.spec.first_rows
    g_rows = [first[h][s] + k for h, s, k in model.row_index]
    centers_by_row = solution.centers[g_rows]
    sizes = np.bincount(assignment.rows.ravel(), minlength=assignment.spec.k_total)
    rows = []
    for i, (h, s, k) in enumerate(model.row_index):
        size = int(sizes[g_rows[i]])
        rows.append(
            {
                "label": model.row_labels[i],
                "variable": sup.names[h],
                "class": sup.labels[h][s],
                "cluster": int(k),
                "size": size,
                "share": size / class_sizes[(h, s)],
                "mass": float(model.row_masses[i]),
                "coords": [float(v) for v in model.row_coords[i]],
            }
        )
    categories = [
        {
            "label": model.col_labels[j],
            "mass": float(model.col_masses[j]),
            "coords": [float(v) for v in model.col_coords[j]],
        }
        for j in range(len(model.col_labels))
    ]
    archive = {
        "format": "mscca-archive",
        "version": __version__,
        "config": config,
        "solution": {
            "objective": float(solution.objective),
            "psi": float(solution.psi),
            "converged": bool(solution.converged),
            "start_index": int(solution.start_index),
            "objective_trace": [float(v) for v in solution.objective_trace],
            "cluster_counts": [list(row) for row in assignment.spec.counts],
            "assignment": assignment_records(assignment),
            "centers": solution.centers,
            "quantifications": solution.quantifications,
        },
        "biplot": {
            "gamma": float(model.gamma),
            "clusters": rows,
            "categories": categories,
            "classes": _class_points(model, centers_by_row),
        },
    }
    if comparison is not None:
        archive["residuals"] = list(comparison.records)
    return archive


def coords_rows(archive: dict) -> list[list]:
    """Flatten an archive's points to the coordinate export schema:
    (point_kind, label, dim1..dimp, mass, size)."""
    out: list[list] = []
    biplot = archive["biplot"]
    for rec in biplot["clusters"]:
        out.append(["cluster", rec["label"], *rec["coords"], rec["mass"], rec["size"]])
    for rec in biplot["classes"]:
        out.append(["class", rec["label"], *rec["coords"], rec["mass"], rec["size"]])
    for rec in biplot["categories"]:
        out.append(["category", rec["label"], *rec["coords"], rec["mass"], None])
    return out


def coords_header(p: int) -> list[str]:
    return ["point_kind", "label", *[f"dim{i + 1}" for i in range(p)], "mass", "size"]


def residual_rows(archive: dict) -> list[list]:
    return [
        [rec["method"], rec["row"], rec["class"], rec["column"], rec["value"]]
        for rec in archive.get("residuals", [])
    ]

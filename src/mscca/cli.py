"""Command-line front end.

Subcommands: ``fit`` (hierarchical clustering fit with biplot exports),
``variants`` (averaging / removal / cluster-ca / mca comparisons),
``simulate`` (factorial study), ``export-svg`` (render an archive), and
``illustrate`` (write the built-in demonstration dataset).

Exit codes: 0 success, 2 configuration or input problems, 3 solver
specification errors, 4 export problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .archive import (
    _atomic_write,
    assignment_records,
    build_archive,
    coords_header,
    coords_rows,
    load_json,
    residual_rows,
    write_csv,
    write_json,
)
from .biplot import (
    biplot_coordinates,
    contingency,
    rescale_spread,
    residual_comparison,
    standardized_residuals,
)
from .data import ClusterSpec, read_csv_dataset, stacked_indicators
from .errors import (
    ConfigError,
    ExportError,
    MissingValueError,
    MsccaError,
    ShapeError,
    SpecError,
)
from .metrics import select_k_per_class
from .simulation import (
    StudyDesign,
    generate_illustration,
    run_study,
    summarize_study,
)
from .solver import (
    ConstraintSpec,
    SolverOptions,
    fit_cluster_ca,
    fit_constrained_mca,
    fit_mscca,
)
from .svg import render_scatter


EXPORTS = ("solution-json", "coords-csv", "residuals-csv", "svg")
DEFAULT_EXPORTS = ("solution-json", "coords-csv", "residuals-csv")


@dataclass(frozen=True)
class RunConfig:
    """One resolved command invocation, echoed verbatim into archives.

    ``k`` is either a mapping keyed by "variable:class" strings or the
    literal "auto" (``k_max`` then needs at least four points for the
    selection rule to have interior candidates).
    """

    input: str
    sup_cols: tuple[str, ...]
    k: dict | str | int | None
    k_max: int | None
    dims: int
    starts: int
    seed: int
    epsilon: float
    max_iter: int
    out: str
    exports: tuple[str, ...]
    method: str | None = None

    def validate(self) -> None:
        if not self.sup_cols:
            raise ConfigError("--sup-cols must name at least one column")
        if self.k == "auto" and (self.k_max is None or self.k_max < 4):
            raise ConfigError("--k-max must be at least 4 for auto selection")
        unknown = set(self.exports) - set(EXPORTS)
        if unknown:
            raise ConfigError(f"unknown exports: {sorted(unknown)}")

    def options(self) -> SolverOptions:
        return SolverOptions(
            p=self.dims,
            n_starts=self.starts,
            max_iter=self.max_iter,
            epsilon=self.epsilon,
            seed=self.seed,
        )

    def echo(self) -> dict:
        out = {
            "input": self.input,
            "sup_cols": ",".join(self.sup_cols),
            "dims": self.dims,
            "starts": self.starts,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "max_iter": self.max_iter,
            "exports": list(self.exports),
        }
        if self.k is not None:
            out["k"] = self.k
        if self.k == "auto":
            out["k_max"] = self.k_max
        if self.method is not None:
            out["method"] = self.method
        return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mscca",
        description="Class-specific clustering and category quantification for categorical data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fit_flags(p: argparse.ArgumentParser, variants: bool) -> None:
        p.add_argument("--input", required=True, help="CSV with a header row")
        p.add_argument(
            "--sup-cols",
            required=True,
            help="comma-separated supplementary column names",
        )
        if variants:
            p.add_argument(
                "--method",
                required=True,
                choices=("averaging", "removal", "cluster-ca", "mca"),
            )
            p.add_argument(
                "--k",
                default=None,
                help="cluster count for --method cluster-ca",
            )
        else:
            p.add_argument(
                "--k",
                action="append",
                default=None,
                metavar="VAR:CLASS:K",
                help="cluster count for one class; repeat for every class",
            )
            p.add_argument(
                "--k-auto",
                action="store_true",
                help="choose per-class cluster counts by the selection index",
            )
            p.add_argument("--k-max", type=int, default=6)
        p.add_argument("--dims", type=int, default=2)
        p.add_argument("--starts", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--epsilon", type=float, default=1e-8)
        p.add_argument("--max-iter", type=int, default=100)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--export",
            action="append",
            choices=EXPORTS,
            default=None,
            help=f"exports to write (repeatable; default {', '.join(DEFAULT_EXPORTS)})",
        )

    fit = sub.add_parser("fit", help="fit the class-specific clustering model")
    add_fit_flags(fit, variants=False)
    fit.set_defaults(func=cmd_fit)

    var = sub.add_parser("variants", help="fit a comparison method")
    add_fit_flags(var, variants=True)
    var.set_defaults(func=cmd_variants)

    sim = sub.add_parser("simulate", help="run a factorial simulation study")
    sim.add_argument("--design", required=True, help="JSON design file ({} for defaults)")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    exp = sub.add_parser("export-svg", help="render an archive as an SVG scatter")
    exp.add_argument("--archive", required=True)
    exp.add_argument("--out", required=True, help="SVG file path")
    exp.set_defaults(func=cmd_export_svg)

    ill = sub.add_parser("illustrate", help="write the built-in demonstration CSV")
    ill.add_argument("--out", required=True, help="output directory")
    ill.add_argument("--seed", type=int, default=7)
    ill.set_defaults(func=cmd_illustrate)
    return parser


def _parse_k_map(values: list[str]) -> dict[tuple[str, str], int]:
    mapping: dict[tuple[str, str], int] = {}
    for item in values:
        parts = item.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--k expects VAR:CLASS:K, got {item!r}")
        var, cls, k = parts
        try:
            mapping[(var, cls)] = int(k)
        except ValueError:
            raise ConfigError(f"--k count must be an integer, got {k!r}") from None
    return mapping


def _config_from_args(args, method=None, k=None, k_max=None) -> RunConfig:
    config = RunConfig(
        input=str(args.input),
        sup_cols=tuple(c for c in args.sup_cols.split(",") if c),
        k=k,
        k_max=k_max,
        dims=args.dims,
        starts=args.starts,
        seed=args.seed,
        epsilon=args.epsilon,
        max_iter=args.max_iter,
        out=str(args.out),
        exports=tuple(args.export) if args.export else DEFAULT_EXPORTS,
        method=method,
    )
    config.validate()
    return config


def _read_input(config: RunConfig) -> tuple:
    try:
        return read_csv_dataset(config.input, list(config.sup_cols))
    except OSError as exc:
        raise ConfigError(f"cannot read {config.input}: {exc}") from exc
    except (ShapeError, MissingValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _archive_points(archive: dict) -> list[dict]:
    points = []
    biplot = archive["biplot"]
    for rec in biplot.get("clusters", ()):
        points.append(
            {
                "kind": "cluster",
                "label": rec["label"],
                "x": rec["coords"][0],
                "y": rec["coords"][1],
                "share": rec.get("share"),
            }
        )
    for rec in biplot.get("classes", ()):
        points.append(
            {
                "kind": "class",
                "label": rec["label"],
                "x": rec["coords"][0],
                "y": rec["coords"][1],
                "share": rec.get("mass"),
            }
        )
    for rec in biplot.get("categories", ()):
        points.append(
            {
                "kind": "category",
                "label": rec["label"],
                "x": rec["coords"][0],
                "y": rec["coords"][1],
            }
        )
    return points


def _write_exports(out_dir: Path, archive: dict, exports: tuple[str, ...]) -> None:
    p = len(archive["biplot"]["categories"][0]["coords"]) if archive["biplot"]["categories"] else 2
    if "svg" in exports and p != 2:
        raise ExportError(f"SVG export needs 2-dimensional coordinates, archive has p={p}")
    out_dir.mkdir(parents=True, exist_ok=True)
    if "solution-json" in exports:
        write_json(out_dir / "solution.json", archive)
    if "coords-csv" in exports:
        write_csv(out_dir / "coords.csv", coords_header(p), coords_rows(archive))
    if "residuals-csv" in exports and "residuals" in archive:
        write_csv(
            out_dir / "residuals.csv",
            ["method", "row", "class", "column", "value"],
            residual_rows(archive),
        )
    if "svg" in exports:
        _atomic_write(out_dir / "biplot.svg", render_scatter(_archive_points(archive), title=""))


def _clustering_archive(echo: dict, dataset, solution) -> dict:
    """Biplot, residual comparison and archive of a clustering fit."""
    sup = solution.assignment.sup
    view = stacked_indicators(dataset, sup.n_sup)
    model = rescale_spread(
        biplot_coordinates(
            standardized_residuals(contingency(solution.assignment, view, order="size")),
            solution.centers,
            solution.quantifications,
        )
    )
    comparison = residual_comparison(dataset, sup, solution)
    class_sizes = {
        (h, s): int(sup.class_sizes(h)[s])
        for h in range(sup.n_sup)
        for s in range(sup.r[h])
    }
    return build_archive(echo, solution, model, comparison, class_sizes)


def cmd_fit(args) -> int:
    if args.k_auto:
        if args.k is not None:
            raise ConfigError("--k and --k-auto are mutually exclusive")
        config = _config_from_args(args, k="auto", k_max=args.k_max)
    else:
        if not args.k:
            raise ConfigError("either --k entries or --k-auto is required")
        mapping = _parse_k_map(args.k)
        config = _config_from_args(
            args, k={f"{var}:{cls}": k for (var, cls), k in sorted(mapping.items())}
        )
    dataset, sup = _read_input(config)
    options = config.options()
    echo = config.echo()
    if config.k == "auto":
        selection = select_k_per_class(dataset, sup, config.k_max, options)
        spec = ClusterSpec(
            tuple(
                tuple(selection[(h, s)].chosen for s in range(sup.r[h]))
                for h in range(sup.n_sup)
            )
        )
        echo["k_selection"] = {
            sup.names[h]: {
                sup.labels[h][s]: {
                    "chosen": selection[(h, s)].chosen,
                    "k_values": list(selection[(h, s)].curve.k_values),
                    "w_values": list(selection[(h, s)].curve.w_values),
                }
                for s in range(sup.r[h])
            }
            for h in range(sup.n_sup)
        }
    else:
        try:
            spec = ClusterSpec.from_mapping(sup, mapping)
        except SpecError as exc:
            raise ConfigError(str(exc)) from exc

    solution = fit_mscca(dataset, sup, spec, options)
    archive = _clustering_archive(echo, dataset, solution)
    _write_exports(Path(config.out), archive, config.exports)
    print(
        f"fit: objective {solution.objective:.6g}, "
        f"converged {solution.converged}, outputs in {config.out}"
    )
    return 0


def cmd_variants(args) -> int:
    method = args.method
    k = None
    if method == "cluster-ca":
        if args.k is None:
            raise ConfigError("--method cluster-ca needs --k CLUSTERS")
        try:
            k = int(args.k)
        except ValueError:
            raise ConfigError(f"--k must be an integer for cluster-ca, got {args.k!r}") from None
    config = _config_from_args(args, method=method, k=k)
    dataset, sup = _read_input(config)
    options = config.options()
    exports = config.exports
    out_dir = Path(config.out)

    if method in ("averaging", "cluster-ca"):
        if method == "averaging":
            solution = fit_mscca(dataset, sup, ClusterSpec.uniform(sup, 1), options)
        else:
            solution = fit_cluster_ca(dataset, k, options)
        archive = _clustering_archive(config.echo(), dataset, solution)
        if method == "averaging":
            # Each row is a whole class; export them as class points only.
            archive["biplot"]["classes"] = [
                {
                    "label": rec["label"],
                    "coords": rec["coords"],
                    "mass": rec["mass"],
                    "size": rec["size"],
                }
                for rec in archive["biplot"]["clusters"]
            ]
            archive["biplot"]["clusters"] = []
        _write_exports(out_dir, archive, exports)
        print(f"variants {method}: objective {solution.objective:.6g}, outputs in {config.out}")
        return 0

    kind = "identity" if method == "mca" else "projector-off"
    source = None if method == "mca" else sup
    fit = fit_constrained_mca(dataset, ConstraintSpec(kind=kind, source=source), config.dims)
    n_stack = 1 if method == "mca" else sup.n_sup
    view = stacked_indicators(dataset, n_stack)
    col_masses = view.d_masses / view.d_masses.sum()
    col_coords = np.sqrt(col_masses)[:, None] * fit.quantifications
    archive = {
        "format": "mscca-variant",
        "method": method,
        "config": config.echo(),
        "objective": float(fit.objective),
        "quantifications": fit.quantifications,
        "scores": fit.scores,
        "biplot": {
            "gamma": 1.0,
            "clusters": [],
            "classes": [],
            "categories": [
                {
                    "label": view.column_labels[j],
                    "mass": float(col_masses[j]),
                    "coords": [float(v) for v in col_coords[j]],
                }
                for j in range(view.total_categories)
            ],
        },
    }
    _write_exports(out_dir, archive, exports)
    print(f"variants {method}: objective {fit.objective:.6g}, outputs in {config.out}")
    return 0


def cmd_simulate(args) -> int:
    try:
        raw = load_json(args.design)
    except OSError as exc:
        raise ConfigError(f"cannot read design {args.design}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"design {args.design} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("design file must hold a JSON object")
    try:
        design = StudyDesign(**raw)
    except (TypeError, SpecError) as exc:
        raise ConfigError(f"invalid design: {exc}") from exc
    rows = run_study(design)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = [
        "q", "K", "H", "r", "balance", "replicate", "h", "s",
        "ari", "gf", "phi", "error", "runtime_ms",
    ]
    write_csv(
        out_dir / "results.csv",
        header,
        [[row[c] for c in header] for row in rows],
    )
    summary = summarize_study(rows)
    write_csv(
        out_dir / "summary.csv",
        ["q", "K", "H", "cond", "median_ari", "median_gf", "n_rows", "failures"],
        [
            [s["q"], s["K"], s["H"], s["cond"], s["median_ari"], s["median_gf"], s["n_rows"], s["failures"]]
            for s in summary
        ],
    )
    print(f"simulate: {len(rows)} rows over {len(design.cells())} cells, outputs in {args.out}")
    return 0


def cmd_export_svg(args) -> int:
    try:
        archive = load_json(args.archive)
    except OSError as exc:
        raise ConfigError(f"cannot read archive {args.archive}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"archive {args.archive} is not valid JSON: {exc}") from exc
    biplot = archive.get("biplot") if isinstance(archive, dict) else None
    if not isinstance(biplot, dict) or not biplot.get("categories"):
        raise ConfigError("archive holds no biplot coordinates")
    try:
        p = len(biplot["categories"][0]["coords"])
        if p != 2:
            raise ExportError(f"SVG export needs 2-dimensional coordinates, archive has p={p}")
        points = _archive_points(archive)
    except (KeyError, IndexError, TypeError) as exc:
        raise ConfigError(f"archive biplot is malformed: {exc!r}") from exc
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(out, render_scatter(points))
    print(f"export-svg: wrote {args.out}")
    return 0


def cmd_illustrate(args) -> int:
    dataset, sup, truth = generate_illustration(seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = list(dataset.names) + list(sup.names)
    data_rows = dataset.decode()
    sup_rows = [
        [sup.labels[h][sup.codes[i, h]] for h in range(sup.n_sup)]
        for i in range(sup.n_obs)
    ]
    write_csv(
        out_dir / "data.csv",
        header,
        [data_rows[i] + sup_rows[i] for i in range(dataset.n_obs)],
    )
    write_json(
        out_dir / "truth.json",
        {
            "cluster_counts": [list(row) for row in truth.spec.counts],
            "assignment": assignment_records(truth),
        },
    )
    k_flags = " ".join(
        f"--k {sup.names[h]}:{lab}:{truth.spec.k_of(h, s)}"
        for h in range(sup.n_sup)
        for s, lab in enumerate(sup.labels[h])
    )
    print(f"illustrate: wrote {out_dir / 'data.csv'}")
    print(f"suggested flags: {k_flags}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MsccaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())

"""Command-line front end.

Subcommands: ``fit`` (hierarchical clustering fit with biplot exports),
``variants`` (averaging / removal / cluster-ca / mca comparisons),
``simulate`` (factorial study), ``export-svg`` (render an archive), and
``illustrate`` (write the built-in demonstration dataset).

Exit codes: 0 success, 2 configuration or input problems, 3 solver
specification errors or running out of memory, 4 export problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .archive import (
    RESIDUALS_HEADER,
    biplot_svg,
    build_archive,
    class_points_only,
    coords_header,
    coords_rows,
    load_json,
    residual_rows,
    truth_archive,
    variant_archive,
    write_csv,
    write_json,
    write_text,
)
from .biplot import (
    BiplotModel,
    biplot_coordinates,
    contingency,
    rescale_spread,
    residual_comparison,
    standardized_residuals,
)
from .data import ClusterSpec, read_csv_dataset
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
    study_workers,
    summarize_study,
)
from .solver import (
    ConstraintSpec,
    SolverOptions,
    fit_cluster_ca,
    fit_constrained_mca,
    fit_mscca,
)


EXPORTS = ("solution-json", "coords-csv", "residuals-csv", "svg")
DEFAULT_EXPORTS = ("solution-json", "coords-csv", "residuals-csv")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in one line (exit 2), like every other error."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        # VAR ends at the first colon and K follows the last: CLASS may hold colons
        var, first, rest = item.partition(":")
        cls, last, k = rest.rpartition(":")
        if not (first and last):
            raise ConfigError(f"--k expects VAR:CLASS:K, got {item!r}")
        if (var, cls) in mapping:
            raise ConfigError(f"--k names class {var}:{cls} twice")
        try:
            mapping[(var, cls)] = int(k)
        except ValueError:
            raise ConfigError(f"--k count must be an integer, got {k!r}") from None
    return mapping


def _resolve(args, k, method=None) -> tuple[SolverOptions, dict]:
    """The solver options and the archive's ``config`` echo of a ``fit`` or
    ``variants`` command, checked before the CSV is read.  ``k="auto"``
    needs ``--k-max`` >= 4 for the selection rule to have interior
    candidates, and an ``svg`` export needs ``--dims 2``."""
    sup_cols = [c for c in args.sup_cols.split(",") if c]
    if not sup_cols:
        raise ConfigError("--sup-cols must name at least one column")
    if k == "auto" and args.k_max < 4:
        raise ConfigError("--k-max must be at least 4 for auto selection")
    options = SolverOptions(
        p=args.dims,
        n_starts=args.starts,
        max_iter=args.max_iter,
        epsilon=args.epsilon,
        seed=args.seed,
    )
    options.validate()
    exports = args.export or list(DEFAULT_EXPORTS)
    if "svg" in exports and args.dims != 2:
        raise ExportError(f"--export svg needs --dims 2, got --dims {args.dims}")
    config = {
        "input": args.input,
        "sup_cols": ",".join(sup_cols),
        "dims": args.dims,
        "starts": args.starts,
        "seed": args.seed,
        "epsilon": args.epsilon,
        "max_iter": args.max_iter,
        "exports": exports,
    }
    if k is not None:
        config["k"] = k
    if k == "auto":
        config["k_max"] = args.k_max
    if method is not None:
        config["method"] = method
    return options, config


def _not_utf8(path: str, exc: UnicodeDecodeError) -> ConfigError:
    return ConfigError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})")


def _read_input(path: str, sup_cols: list[str]) -> tuple:
    try:
        return read_csv_dataset(path, sup_cols)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    except (ShapeError, MissingValueError) as exc:
        raise ConfigError(str(exc)) from exc


@contextmanager
def _writing(out: Path):
    """Report an ``OSError`` from creating or writing the output ``out``
    (a path under a regular file, an unwritable directory) as an
    ``ExportError``."""
    try:
        yield
    except OSError as exc:
        raise ExportError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _write_exports(out_dir: Path, archive: dict, exports: list[str]) -> None:
    svg = biplot_svg(archive) if "svg" in exports else None
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        if "solution-json" in exports:
            write_json(out_dir / "solution.json", archive)
        if "coords-csv" in exports:
            write_csv(out_dir / "coords.csv", coords_header(archive), coords_rows(archive))
        if "residuals-csv" in exports and (rows := residual_rows(archive)):
            write_csv(out_dir / "residuals.csv", RESIDUALS_HEADER, rows)
        if svg is not None:
            write_text(out_dir / "biplot.svg", svg)


def _biplot(dataset, solution) -> BiplotModel:
    """The standardized cluster table of a clustering fit, with its biplot
    coordinates, from the counts the fit kept."""
    counts = (solution.table, solution.sizes)
    return rescale_spread(
        biplot_coordinates(
            standardized_residuals(contingency(solution.assignment, dataset, counts)),
            solution.centers,
            solution.quantifications,
        )
    )


def _clustering_archive(echo: dict, dataset, solution) -> dict:
    """The archive of a ``fit``: its biplot, and the residuals of the
    class-level (averaged) table beside those of the fit's cluster table."""
    model = _biplot(dataset, solution)
    averaging = residual_comparison(solution.assignment, dataset, (solution.table, solution.sizes))
    return build_archive(echo, solution, model, (("averaging", averaging), ("mscca", model)))


def cmd_fit(args) -> int:
    if args.k_auto:
        if args.k is not None:
            raise ConfigError("--k and --k-auto are mutually exclusive")
        k = "auto"
    else:
        if not args.k:
            raise ConfigError("either --k entries or --k-auto is required")
        mapping = _parse_k_map(args.k)
        k = {f"{var}:{cls}": count for (var, cls), count in sorted(mapping.items())}
    options, echo = _resolve(args, k)
    dataset, sup = _read_input(args.input, echo["sup_cols"].split(","))
    if args.k_auto:
        selection = select_k_per_class(dataset, sup, args.k_max, options)
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
    _write_exports(Path(args.out), archive, echo["exports"])
    print(
        f"fit: objective {solution.objective:.6g}, "
        f"converged {solution.converged}, outputs in {args.out}"
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
    elif args.k is not None:
        raise ConfigError("--k applies only to --method cluster-ca")
    options, echo = _resolve(args, k, method)
    dataset, sup = _read_input(args.input, echo["sup_cols"].split(","))
    out_dir = Path(args.out)

    if method in ("averaging", "cluster-ca"):
        # Each lists the residuals of the one table it plots.
        if method == "averaging":
            # One cluster per class leaves every start the same assignment,
            # so one start gives the result of any number of them.
            solution = fit_mscca(
                dataset, sup, ClusterSpec.uniform(sup, 1), replace(options, n_starts=1)
            )
            model = _biplot(dataset, solution)
            archive = build_archive(echo, solution, model, (("averaging", model),))
            class_points_only(archive)
        else:
            solution = fit_cluster_ca(dataset, k, options)
            model = _biplot(dataset, solution)
            archive = build_archive(echo, solution, model, (("mscca", model),))
        _write_exports(out_dir, archive, echo["exports"])
        print(f"variants {method}: objective {solution.objective:.6g}, outputs in {args.out}")
        return 0

    kind = "identity" if method == "mca" else "projector-off"
    source = None if method == "mca" else sup
    fit = fit_constrained_mca(dataset, ConstraintSpec(kind=kind, source=source), args.dims)
    archive = variant_archive(echo, method, dataset, fit)
    _write_exports(out_dir, archive, echo["exports"])
    print(f"variants {method}: objective {fit.objective:.6g}, outputs in {args.out}")
    return 0


def _read_json(path: str, what: str):
    try:
        return load_json(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def cmd_simulate(args) -> int:
    raw = _read_json(args.design, "design")
    if not isinstance(raw, dict):
        raise ConfigError("design file must hold a JSON object")
    try:
        design = StudyDesign(**raw)
    except (TypeError, SpecError) as exc:
        raise ConfigError(f"invalid design: {exc}") from exc
    workers = study_workers()
    out_dir = Path(args.out)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    rows = run_study(design, workers)
    header = [
        "q", "K", "H", "r", "balance", "replicate", "h", "s",
        "ari", "gf", "phi", "error", "runtime_ms",
    ]
    summary = summarize_study(rows)
    with _writing(out_dir):
        write_csv(
            out_dir / "results.csv",
            header,
            [[row[c] for c in header] for row in rows],
        )
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
    svg = biplot_svg(_read_json(args.archive, "archive"))
    out = Path(args.out)
    with _writing(out):
        out.parent.mkdir(parents=True, exist_ok=True)
        write_text(out, svg)
    print(f"export-svg: wrote {args.out}")
    return 0


def cmd_illustrate(args) -> int:
    dataset, sup, truth = generate_illustration(seed=args.seed)
    out_dir = Path(args.out)
    header = list(dataset.names) + list(sup.names)
    data_rows = dataset.decode()
    sup_rows = [
        [sup.labels[h][sup.codes[i, h]] for h in range(sup.n_sup)]
        for i in range(sup.n_obs)
    ]
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(
            out_dir / "data.csv",
            header,
            [data_rows[i] + sup_rows[i] for i in range(dataset.n_obs)],
        )
        write_json(out_dir / "truth.json", truth_archive(truth))
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

"""Hash the outputs of a fixed list of ``mscca`` commands, so that two
checkouts can be compared file for file.

    PYTHONPATH=<checkout>/src python tools/parity.py INPUTS OUT

Missing inputs are written into INPUTS first: the illustration CSV
(``mscca illustrate``), the four perfbench CSVs (``perfbench/workloads.py``
at workload seed 0), a "mixed" CSV whose category counts cycle through
``MIXED_Q`` (runs of small variables pack into joint codes of several
sizes beside variables that stand alone), a "quoted" CSV written by
``csv.writer`` whose labels need quoting in CSV and escaping in JSON
(``QUOTED_LABELS``), a "wide-q" CSV whose column of distinct labels puts
Q past the archive's 8,192-record block (so its residual rows and
category points are written in several blocks) and two one-cell
simulation designs, the second with classes too small for its clusters
(every row a recorded failure).  Every command then runs in process
through ``mscca.cli.main`` and must exit 0; its outputs go under OUT.  One
``sha256  relative/path`` line is printed per file under OUT, sorted by
path; ``runtime_ms`` in ``results.csv`` is emptied before hashing.
Archives echo ``--input``, so compare runs made from the same INPUTS.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

# The winning start of the wide workload depends on the BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from mscca import read_csv_dataset  # noqa: E402
from mscca.cli import main as cli_main  # noqa: E402
from mscca.simulation import SupGenSpec, generate_supplementary, signal_distributions  # noqa: E402
from workloads import K, WORKLOADS, make_inputs  # noqa: E402

ILLUSTRATION_K = [
    "--k", "Nationality:American:2",
    "--k", "Nationality:Japanese:2",
    "--k", "Gender:Male:3",
    "--k", "Gender:Female:2",
]
TABLE_EXPORTS = [
    "--export", "solution-json", "--export", "coords-csv", "--export", "residuals-csv",
]
ALL_EXPORTS = [*TABLE_EXPORTS, "--export", "svg"]
MIXED_Q = (2, 2, 2, 3, 5, 7, 40)
MIXED_N = 20_000
# A comma, a quote, a newline inside a quoted cell, a carriage return, a
# backslash and non-ASCII text.
QUOTED_LABELS = ("a,b", 'say "hi"', "two\nlines", "cr\rlf", "back\\slash", "naïve €", "plain")
QUOTED_N = 3_000
WIDE_Q_N = 10_000
DESIGNS = {
    "design": {
        "qs": [5], "ks": [2], "hs": [1], "rs": [3], "balances": ["balanced"],
        "replicates": 2, "starts": 5,
    },
    # classes too small to host K clusters
    "infeasible": {
        "qs": [4], "ks": [4], "hs": [1], "rs": [5], "balances": ["unbalanced"],
        "replicates": 2, "starts": 2, "n_obs": 20, "n_vars": 3, "seed": 9,
    },
}


def run(argv: list[str]) -> None:
    code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"exit {code}: mscca {' '.join(argv)}")


def write_mixed(path: Path) -> None:
    """MIXED_N rows of two cycles of MIXED_Q categories (the variables of
    three or more categories tied to three planted clusters, the binary
    ones uniform) and two supplementary variables of three classes."""
    rng = np.random.default_rng(0)
    truth = rng.integers(0, K, size=MIXED_N)
    columns = []
    for q in MIXED_Q * 2:
        if q < K:
            codes = rng.integers(0, q, size=MIXED_N)
        else:
            _, probs = signal_distributions(rng, q, K, 0.8)
            codes = (rng.random(MIXED_N)[:, None] > probs.cumsum(axis=1)[truth]).sum(axis=1)
        columns.append([f"c{c + 1}" for c in codes.tolist()])
    sup = generate_supplementary(SupGenSpec(n_sup=2, r=3, seed=1), MIXED_N)
    columns += [np.asarray(sup.labels[h])[sup.codes[:, h]].tolist() for h in range(sup.n_sup)]
    names = [f"v{j + 1}" for j in range(len(MIXED_Q) * 2)] + list(sup.names)
    lines = [",".join(names)] + [",".join(row) for row in zip(*columns)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_quoted(path: Path) -> None:
    """QUOTED_N rows of four analysis variables and one supplementary
    variable of three classes, every label drawn from QUOTED_LABELS (each
    column's labels suffixed with its number) and every name quoted too."""
    rng = np.random.default_rng(2)
    codes = rng.integers(0, len(QUOTED_LABELS), size=(QUOTED_N, 5))
    codes[:, 4] %= 3
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["v,1", 'v"2', "v\n3", "v\\4", "s"])
        for row in codes.tolist():
            writer.writerow([f"{QUOTED_LABELS[c]}{j}" for j, c in enumerate(row)])


def write_wide_q(path: Path) -> None:
    """WIDE_Q_N rows of an id column of distinct labels, three analysis
    variables of five categories and one supplementary variable of two
    classes (Q = WIDE_Q_N + 15)."""
    rng = np.random.default_rng(3)
    codes = rng.integers(0, 5, size=(WIDE_Q_N, 4))
    lines = ["id,v1,v2,v3,s"] + [
        f"id{i},c{a},c{b},c{c},g{d % 2}" for i, (a, b, c, d) in enumerate(codes.tolist())
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_inputs(inputs: Path) -> None:
    if not (inputs / "illustration" / "data.csv").exists():
        run(["illustrate", "--out", str(inputs / "illustration")])
    for name, workload in WORKLOADS.items():
        if not (inputs / name / "input.csv").exists():
            make_inputs(workload, 0, inputs / name)
    if not (inputs / "mixed" / "input.csv").exists():
        write_mixed(inputs / "mixed" / "input.csv")
    if not (inputs / "quoted" / "input.csv").exists():
        write_quoted(inputs / "quoted" / "input.csv")
    if not (inputs / "wide-q" / "input.csv").exists():
        write_wide_q(inputs / "wide-q" / "input.csv")
    for name, design in DESIGNS.items():
        if not (inputs / f"{name}.json").exists():
            (inputs / f"{name}.json").write_text(json.dumps(design), encoding="utf-8")


def commands(inputs: Path, out: Path) -> list[list[str]]:
    illustration = ["--input", str(inputs / "illustration" / "data.csv")]
    illustration += ["--sup-cols", "Nationality,Gender"]
    cmds = [
        ["illustrate", "--out", str(out / "illustrate")],
        ["fit", *illustration, *ILLUSTRATION_K, "--starts", "20", "--seed", "0", *ALL_EXPORTS,
         "--out", str(out / "fit")],
        # biplot points read back from a reloaded archive's lists of records
        ["export-svg", "--archive", str(out / "fit" / "solution.json"),
         "--out", str(out / "export-svg" / "biplot.svg")],
        ["fit", *illustration, "--k-auto", "--k-max", "4", "--starts", "5", *ALL_EXPORTS,
         "--out", str(out / "fit-k-auto")],
        # p = 3, where the assignment step's running-sum distances can round
        # otherwise than a dot product
        ["fit", *illustration, *ILLUSTRATION_K, "--dims", "3", "--starts", "20", "--seed", "0",
         *TABLE_EXPORTS, "--out", str(out / "fit-dims-3")],
    ]
    for method in ("averaging", "removal", "mca"):
        cmds.append(["variants", *illustration, "--method", method, *ALL_EXPORTS,
                     "--out", str(out / f"variants-{method}")])
    cmds.append(["variants", *illustration, "--method", "cluster-ca", "--k", "3", *ALL_EXPORTS,
                 "--out", str(out / "variants-cluster-ca")])
    n_sups = {name: workload.n_sup for name, workload in WORKLOADS.items()}
    for name, n_sup in {**n_sups, "mixed": 2}.items():
        path = inputs / name / "input.csv"
        with path.open(encoding="utf-8") as fh:
            sup_cols = next(csv.reader(fh))[-n_sup:]
        _, sup = read_csv_dataset(path, sup_cols)
        k_map = [
            arg
            for h, variable in enumerate(sup.names)
            for label in sup.labels[h]
            for arg in ("--k", f"{variable}:{label}:{K}")
        ]
        data = ["--input", str(path), "--sup-cols", ",".join(sup_cols)]
        cmds.append(["fit", *data, *k_map, "--starts", "5", "--max-iter", "5", "--seed", "0",
                     "--out", str(out / name / "fit")])
        cmds.append(["variants", *data, "--method", "removal",
                     "--out", str(out / name / "removal")])
        if name == "mixed":  # object scores summed over joint codes of several sizes
            cmds.append(["variants", *data, "--method", "mca", "--out", str(out / name / "mca")])
        if name == "paper":
            cmds.append(["fit", *data, "--k-auto", "--k-max", "4", "--dims", "3",
                         "--starts", "10", "--out", str(out / name / "fit-k-auto-dims-3")])
    quoted = ["--input", str(inputs / "quoted" / "input.csv"), "--sup-cols", "s"]
    quoted_k = [arg for label in QUOTED_LABELS[:3] for arg in ("--k", f"s:{label}4:2")]
    cmds.append(["fit", *quoted, *quoted_k, "--starts", "5", "--seed", "0", *TABLE_EXPORTS,
                 "--out", str(out / "quoted" / "fit")])
    cmds.append(["variants", *quoted, "--method", "averaging", *TABLE_EXPORTS,
                 "--out", str(out / "quoted" / "averaging")])
    wide_q = ["--input", str(inputs / "wide-q" / "input.csv"), "--sup-cols", "s"]
    cmds.append(["fit", *wide_q, "--k", "s:g0:2", "--k", "s:g1:2", "--starts", "1",
                 "--max-iter", "3", *TABLE_EXPORTS, "--out", str(out / "wide-q" / "fit")])
    cmds.append(["simulate", "--design", str(inputs / "design.json"),
                 "--out", str(out / "simulate")])
    cmds.append(["simulate", "--design", str(inputs / "infeasible.json"),
                 "--out", str(out / "simulate-infeasible")])
    return cmds


def digest(path: Path) -> str:
    if path.name != "results.csv":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("runtime_ms")
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    for row in rows:
        writer.writerow(row[:column] + [""] + row[column + 1 :])
    return hashlib.sha256(text.getvalue().encode()).hexdigest()


def main() -> None:
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    inputs, out = (Path(arg).resolve() for arg in sys.argv[1:])
    inputs.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):  # the commands' progress lines
        write_inputs(inputs)
        for argv in commands(inputs, out):
            run(argv)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{digest(path)}  {path.relative_to(out).as_posix()}")


if __name__ == "__main__":
    main()

"""The four workloads: inputs made from the seed, the two timed
operations of each, and the correctness gate every operation passes.

Every workload times two operation kinds, one at a time:

- ``fit``: ``fit_mscca`` on the generated inputs (paper, tall, wide), or
  an in-process ``mscca fit`` on the generated CSV with the default
  exports (cli);
- ``variants``: an in-process ``mscca variants --method removal`` on the
  generated CSV (all four).

Why each workload exists is recorded in ``BENCHMARK.json`` and
``NOTES.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mscca.cli
import mscca.solver
from mscca.data import ClusterSpec
from mscca.simulation import GenSpec, SupGenSpec, generate_clustered, generate_supplementary

P = 2  # biplot dimensions
CLASSES = 3  # classes per supplementary variable
K = 3  # clusters per class
IDENTITY_TOL = 1e-8  # phi = p - psi/(N H m^2), criterion 2
REFERENCE_RTOL = 1e-9
BEST_HIT_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """Problem size and solver settings.

    ``max_iter`` caps the cycles of every start so that each seed does
    nearly the same work: without a cap the cycle total of a 5-start fit
    ranged 30-63 over six seeds (NOTES.md).
    """

    n_obs: int
    n_vars: int
    q: int
    n_sup: int
    n_starts: int
    max_iter: int
    cli_fit: bool = False


WORKLOADS = {
    "paper": Workload(n_obs=300, n_vars=10, q=7, n_sup=3, n_starts=100, max_iter=6),
    "tall": Workload(n_obs=20_000, n_vars=20, q=5, n_sup=3, n_starts=5, max_iter=5),
    "wide": Workload(n_obs=2_000, n_vars=20, q=40, n_sup=3, n_starts=2, max_iter=5),
    "cli": Workload(n_obs=50_000, n_vars=20, q=5, n_sup=2, n_starts=1, max_iter=5, cli_fit=True),
}


class GateError(Exception):
    """An operation's output failed its correctness check."""


@dataclass
class Inputs:
    dataset: object
    sup: object
    spec: ClusterSpec
    fit_seed: int
    csv_path: Path
    csv_digest: str


def derive_seeds(seed: int) -> tuple[int, int, int]:
    """Data, supplementary and solver seeds from the workload seed."""
    data_seed, sup_seed, fit_seed = np.random.SeedSequence(seed).generate_state(3)
    return int(data_seed), int(sup_seed), int(fit_seed)


def make_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the data with ``mscca.simulation`` and write it as CSV."""
    data_seed, sup_seed, fit_seed = derive_seeds(seed)
    dataset, _truth = generate_clustered(
        GenSpec(q=w.q, k=K, n_obs=w.n_obs, n_vars=w.n_vars, seed=data_seed)
    )
    sup = generate_supplementary(SupGenSpec(n_sup=w.n_sup, r=CLASSES, seed=sup_seed), w.n_obs)
    columns = [np.asarray(dataset.labels[j])[dataset.codes[:, j]] for j in range(dataset.n_vars)]
    columns += [np.asarray(sup.labels[h])[sup.codes[:, h]] for h in range(sup.n_sup)]
    lines = [",".join(dataset.names + sup.names)]
    lines += [",".join(row) for row in zip(*(c.tolist() for c in columns))]
    text = "\n".join(lines) + "\n"
    workdir.mkdir(parents=True, exist_ok=True)
    csv_path = workdir / "input.csv"
    csv_path.write_text(text, encoding="utf-8")
    return Inputs(
        dataset=dataset,
        sup=sup,
        spec=ClusterSpec.uniform(sup, K),
        fit_seed=fit_seed,
        csv_path=csv_path,
        csv_digest=hashlib.sha256(text.encode()).hexdigest(),
    )


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def _check_identity(objective: float, psi: float, n: int, n_sup: int, m: int) -> None:
    gap = abs(objective - (P - psi / (n * n_sup * m * m)))
    if not gap <= IDENTITY_TOL:
        raise GateError(f"phi = p - psi/(N H m^2) is off by {gap:.3e}")


def _start_counts(traces, objective: float, max_iter: int, epsilon: float) -> dict:
    """Exact counts from the per-start objective traces."""

    def stopped_by_cap(trace) -> bool:
        converged = len(trace) > 1 and trace[-2] - trace[-1] < epsilon
        return len(trace) == max_iter and not converged

    return {
        "solver.cycles": sum(len(t) for t in traces),
        "solver.best_hits": sum(abs(t[-1] - objective) <= BEST_HIT_TOL for t in traces),
        "solver.maxiter_starts": sum(stopped_by_cap(t) for t in traces),
    }


@dataclass
class Outcome:
    """What an operation produced: the objective, the exact counts, and a
    signature that must repeat identically within a run."""

    objective: float
    counts: dict
    signature: object


class Operation:
    """One timed operation kind of a workload.  ``run`` is the timed part;
    ``outcome`` reads and checks the result outside the timed region."""

    kind = ""

    def prepare(self) -> None:
        """Untimed work before each call."""

    def run(self):
        raise NotImplementedError

    def outcome(self, result) -> Outcome:
        raise NotImplementedError


class LibraryFit(Operation):
    kind = "fit"

    def __init__(self, w: Workload, inputs: Inputs) -> None:
        self.inputs = inputs
        self.options = mscca.solver.SolverOptions(
            p=P, n_starts=w.n_starts, max_iter=w.max_iter, seed=inputs.fit_seed
        )

    def run(self):
        i = self.inputs
        return mscca.solver.fit_mscca(i.dataset, i.sup, i.spec, self.options)

    def outcome(self, sol) -> Outcome:
        ds = self.inputs.dataset
        _check_identity(sol.objective, sol.psi, ds.n_obs, self.inputs.sup.n_sup, ds.n_vars)
        counts = _start_counts(
            sol.start_traces, sol.objective, self.options.max_iter, self.options.epsilon
        )
        clusters = hashlib.sha256(np.ascontiguousarray(sol.assignment.clusters).tobytes())
        return Outcome(
            objective=sol.objective,
            counts=counts,
            signature=(sol.objective, sol.start_index, clusters.hexdigest()),
        )


class CliOperation(Operation):
    """An in-process ``mscca`` command.  Its output directory is emptied
    before each call, so the files checked are the ones this call wrote."""

    def __init__(self, argv: list[str], out_dir: Path, inputs: Inputs) -> None:
        self.argv = argv + ["--out", str(out_dir)]
        self.out_dir = out_dir
        self.inputs = inputs
        self._first: tuple[str, Outcome] | None = None

    def prepare(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            try:
                code = mscca.cli.main(self.argv)
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code
        return code, captured.getvalue()

    def outputs(self) -> list[Path]:
        return [self.out_dir / "solution.json", self.out_dir / "coords.csv"]

    def outcome(self, result) -> Outcome:
        code, text = result
        if code != 0:
            raise GateError(f"mscca {self.argv[0]} exited {code}: {text.strip()}")
        digest = _digest(self.outputs())
        if self._first is not None and self._first[0] == digest:
            return self._first[1]  # byte-identical to an output already checked
        raw = (self.out_dir / "solution.json").read_bytes()
        outcome = self.check(json.loads(raw), len(raw))
        outcome.signature = digest
        if self._first is None:
            self._first = (digest, outcome)
        return outcome

    def check(self, archive: dict, size: int) -> Outcome:
        raise NotImplementedError


class CliFit(CliOperation):
    kind = "fit"

    def __init__(self, w: Workload, inputs: Inputs, out_dir: Path) -> None:
        sup = inputs.sup
        argv = ["fit", "--input", str(inputs.csv_path), "--sup-cols", ",".join(sup.names)]
        for h, name in enumerate(sup.names):
            for label in sup.labels[h]:
                argv += ["--k", f"{name}:{label}:{K}"]
        argv += ["--dims", str(P), "--starts", str(w.n_starts), "--max-iter", str(w.max_iter)]
        argv += ["--seed", str(inputs.fit_seed)]
        super().__init__(argv, out_dir, inputs)
        self.max_iter = w.max_iter

    def outputs(self) -> list[Path]:
        return super().outputs() + [self.out_dir / "residuals.csv"]

    def check(self, archive: dict, size: int) -> Outcome:
        sol = archive["solution"]
        ds = self.inputs.dataset
        _check_identity(sol["objective"], sol["psi"], ds.n_obs, self.inputs.sup.n_sup, ds.n_vars)
        # The archive keeps only the winning trace, which with one start is
        # every trace.
        trace = sol["objective_trace"]
        counts = {
            "solver.cycles": len(trace),
            "solver.best_hits": 1,
            "solver.maxiter_starts": int(len(trace) == self.max_iter and not sol["converged"]),
            "archive.solution_json_bytes": size,
        }
        return Outcome(objective=sol["objective"], counts=counts, signature=None)


class CliVariants(CliOperation):
    """``mscca variants --method removal``: class means removed from the
    object scores.  Its objective obeys phi = p - ||F||^2 / (N H), with F
    the constrained scores, which is checked on the archived scores."""

    kind = "variants"

    def __init__(self, inputs: Inputs, out_dir: Path) -> None:
        argv = ["variants", "--input", str(inputs.csv_path)]
        argv += ["--sup-cols", ",".join(inputs.sup.names), "--method", "removal", "--dims", str(P)]
        super().__init__(argv, out_dir, inputs)

    def check(self, archive: dict, size: int) -> Outcome:
        scores = np.asarray(archive["scores"], dtype=float)
        n, n_sup = self.inputs.dataset.n_obs, self.inputs.sup.n_sup
        gap = abs(archive["objective"] - (P - float((scores**2).sum()) / (n * n_sup)))
        if not gap <= IDENTITY_TOL:
            raise GateError(f"removal objective misses p - ||F||^2/(N H) by {gap:.3e}")
        counts = {"archive.solution_json_bytes": size}
        return Outcome(objective=archive["objective"], counts=counts, signature=None)


def operations(w: Workload, inputs: Inputs, workdir: Path) -> list[Operation]:
    fit = CliFit(w, inputs, workdir / "fit") if w.cli_fit else LibraryFit(w, inputs)
    return [fit, CliVariants(inputs, workdir / "variants")]


class Gate:
    """Checks every operation: its own oracle (inside ``outcome``), exact
    repetition of the first outcome of its kind, and, when the seed has a
    stored reference, the reference objective and counts."""

    def __init__(self, reference: dict | None) -> None:
        self.reference = reference
        self.first: dict[str, Outcome] = {}

    def check(self, op: Operation, result) -> Outcome:
        got = op.outcome(result)
        first = self.first.setdefault(op.kind, got)
        if got.signature != first.signature or got.counts != first.counts:
            raise GateError(f"{op.kind} did not repeat: {got.counts} vs {first.counts}")
        if self.reference is not None:
            ref = self.reference[op.kind]
            if abs(got.objective - ref["objective"]) > REFERENCE_RTOL * abs(ref["objective"]):
                raise GateError(
                    f"{op.kind} objective {got.objective!r} != reference {ref['objective']!r}"
                )
            for name, value in ref["counts"].items():
                if got.counts.get(name) != value:
                    raise GateError(f"{op.kind} {name} {got.counts.get(name)} != reference {value}")
        return got

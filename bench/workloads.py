"""The three benchmark workloads: how each input is generated from the seed,
which command-line job runs on it, and how that job's output is checked.

Inputs are written by the program's own ``generate`` command from a spec
file, so the program only ever receives files. The ``segment`` workload
runs a fixed chain on fixed data, as the paper's data set is fixed: from one
sampler seed to the next the number of evidence misses, and with it the job
time, moves by about 10%, which would hide regressions of that size. The
DNA workloads draw fresh data for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "bctseg" / "__init__.py").is_file():
    raise SystemExit(f"error: bctseg sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import bctseg  # noqa: E402
from bctseg import cli  # noqa: E402
from bctseg.changepoints import ChangePoints, log_prior_positions  # noqa: E402
from bctseg.trees import BctHyperParams, span_log_evidence  # noqa: E402

if Path(bctseg.__file__).resolve().parent != SRC / "bctseg":
    raise SystemExit(f"error: imported bctseg from {bctseg.__file__}, not from {SRC}")

DEFAULT_SEED = 1

# SHA-256 of each generated input at DEFAULT_SEED (for fixed-data workloads,
# at every seed). A mismatch is a failure: it means generation drifted.
PINNED_DIGESTS = {
    "ternary-segment": "159a87dd08698daef5bdb2cb7f0b0f4ebb85d0f1e64c047f7995136f8a2d2acc",
    "dna-exact": "b7097ca84325a95b5e7c65588f0c6e0d4277c41f56cbaa45161adc4a9f0e4dc5",
    "lambda-fit": "0d1da97e2d2440c70b3219730c24984a97f97c219b702344d4f0a1b22c9d4fda",
}

DNA = "ACGT"


@dataclass
class Case:
    """One prepared input: the CLI calls that make up a job and what the
    output check needs to know."""

    inputs: list[Path]
    argvs: list[list[str]]
    outdir: Path
    expect: dict = field(default_factory=dict)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(argv: list[str]) -> int:
    """Call the command-line entry point with its console output captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def generate(spec: dict, seed: int, workdir: Path) -> Path:
    """Write `spec` and run the program's generate command on it."""
    workdir.mkdir(parents=True, exist_ok=True)
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1) + "\n")
    rc = run_cli(["generate", str(spec_path), "--seed", str(seed), "--out", str(workdir)])
    if rc != 0:
        raise RuntimeError(f"generate exited with {rc} for {spec_path}")
    return workdir / "sequence.txt"


def to_fasta(plain: Path, fasta: Path, header: str) -> Path:
    seq = plain.read_text().strip()
    lines = [f">{header}"] + [seq[i : i + 60] for i in range(0, len(seq), 60)]
    fasta.write_text("\n".join(lines) + "\n")
    return fasta


def read_fasta_codes(path: Path) -> np.ndarray:
    """Symbol codes of a one-record DNA FASTA file, parsed independently of
    the program."""
    body = "".join(
        line.strip() for line in path.read_text().splitlines() if not line.startswith(">")
    )
    return np.array([DNA.index(ch) for ch in body], dtype=np.int64)


def load_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None


def check_manifest(outdir: Path, command: str, problems: list[str]):
    manifest = load_json(outdir / "manifest.json", problems)
    if manifest is not None and manifest.get("command") != command:
        problems.append(f"manifest.json names command {manifest.get('command')!r}")


def peaked(peak: int, high: float, m: int = 4) -> list[float]:
    rest = (1.0 - high) / (m - 1)
    return [high if j == peak else rest for j in range(m)]


class Workload:
    name = ""
    why = ""
    fixed_data = False
    # the most of a traced job that may fall outside every wrapped function
    max_cli_self_share = 0.0

    def generate_inputs(self, seed: int, workdir: Path):
        """Write the full-size and tiny inputs for `seed` under `workdir`."""
        raise NotImplementedError

    def case(self, seed: int, workdir: Path, outdir: Path, tiny: bool = False) -> Case:
        """The job on the inputs `generate_inputs` wrote, writing to `outdir`."""
        raise NotImplementedError

    def check(self, case: Case) -> list[str]:
        """Problems found in the job's output; empty when it is correct."""
        raise NotImplementedError


class TernarySegment(Workload):
    """`segment` with the paper's chain on the paper's synthetic series."""

    name = "ternary-segment"
    why = ("the paper's synthetic experiment: four ternary regimes, n=4300, D=10; "
           "mid-length evidence misses dominate the job")
    fixed_data = True
    max_cli_self_share = 0.02
    spec_seed = 1
    depth = 10
    alphabet = "012"
    iters, burnin = 1000, 500
    tiny_iters, tiny_burnin = 200, 100
    # the paper's chain; at this length the marginal of p_1 has two modes
    # (near 2450 and 2500) and the +-50 check holds for this chain, not for
    # every chain
    sampler_seed = 5
    truth = (2500, 3500, 4000)

    def generate_inputs(self, seed, workdir):
        spec = bctseg.piecewise_spec_to_json(bctseg.ternary_benchmark_spec(seed=self.spec_seed))
        generate(spec, self.spec_seed, workdir)

    def case(self, seed, workdir, outdir, tiny=False):
        seq = workdir / "sequence.txt"
        iters, burnin = (self.tiny_iters, self.tiny_burnin) if tiny else (self.iters, self.burnin)
        argv = [
            "segment", str(seq), "--depth", str(self.depth), "--alphabet", self.alphabet,
            "--lmax", "10", "--iters", str(iters), "--burnin", str(burnin),
            "--seed", str(self.sampler_seed), "--out", str(outdir),
        ]
        return Case([seq], [argv], outdir, {"retained": iters - burnin, "tiny": tiny})

    def check(self, case):
        outdir = case.outdir
        problems: list[str] = []
        check_manifest(outdir, "segment", problems)
        summary = load_json(outdir / "summary.json", problems)
        try:
            rows = (outdir / "trace.csv").read_text().splitlines()
        except OSError as exc:
            problems.append(f"trace.csv: {exc}")
            rows = []
        if len(rows) != case.expect["retained"]:
            problems.append(f"trace.csv has {len(rows)} rows, expected {case.expect['retained']}")
        if summary is None:
            return problems
        ell = summary["map"]["ell"]
        positions = summary["map"]["positions"]
        if len(positions) != ell or list(positions) != sorted(positions):
            problems.append(f"MAP positions {positions} inconsistent with ell={ell}")
        if case.expect["tiny"]:  # a tiny chain has not converged
            return problems
        if ell != len(self.truth):
            return problems + [f"MAP ell={ell}, expected {len(self.truth)}"]
        return problems + [
            f"MAP change-point {p} not within 50 of {t}"
            for p, t in zip(positions, self.truth)
            if abs(p - t) > 50
        ]


def dna_spec(models: list[dict], lengths: list[int], depth: int = 10) -> dict:
    return {
        "alphabet": list(DNA),
        "D": depth,
        "segments": [{"contexts": t, "length": n} for t, n in zip(models, lengths)],
    }


class DnaExact(Workload):
    name = "dna-exact"
    max_cli_self_share = 0.02
    why = ("exact single change-point posterior on seeded DNA: 2n evidence builds "
           "over every segment length, each cache key stored once and never hit")
    depth = 10
    n, tiny_n = 800, 200
    checked_positions = 16

    def generate_inputs(self, seed, workdir):
        before = {DNA[x]: peaked((x + 1) % 4, 0.55) for x in range(4)}
        after = {DNA[x]: peaked((x + 3) % 4, 0.55) for x in range(4)}
        for n, where in ((self.n, workdir), (self.tiny_n, workdir / "tiny")):
            planted = self.planted(n)
            spec = dna_spec([before, after], [planted - 1, n - planted + 1], self.depth)
            plain = generate(spec, seed, where)
            to_fasta(plain, where / "sequence.fa", f"synthetic DNA n={n} seed={seed}")

    @staticmethod
    def planted(n: int) -> int:
        return round(0.6 * n)

    def case(self, seed, workdir, outdir, tiny=False):
        n = self.tiny_n if tiny else self.n
        fasta = (workdir / "tiny" if tiny else workdir) / "sequence.fa"
        argv = ["exact", str(fasta), "--depth", str(self.depth), "--out", str(outdir)]
        return Case([fasta], [argv], outdir, {"n": n, "planted": self.planted(n), "seed": seed})

    def check(self, case):
        outdir = case.outdir
        problems: list[str] = []
        check_manifest(outdir, "exact", problems)
        try:
            table = np.loadtxt(outdir / "posterior.csv", delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            return problems + [f"posterior.csv: {exc}"]
        n = case.expect["n"]
        positions = table[:, 0].astype(np.int64)
        probs = table[:, 1]
        if not np.array_equal(positions, np.arange(2, n)):
            return problems + ["posterior.csv does not list positions 2..n-1 in order"]
        if abs(probs.sum() - 1.0) > 1e-9:
            problems.append(f"probabilities sum to {probs.sum()!r}")
        best = int(np.argmax(probs))
        if abs(positions[best] - case.expect["planted"]) > 50:
            problems.append(f"argmax {positions[best]} not within 50 of {case.expect['planted']}")
        problems += self.check_against_slow_path(case, positions, probs, best)
        return problems

    def check_against_slow_path(self, case, positions, probs, best) -> list[str]:
        """Recompute log-posterior differences at seeded positions from the
        prior and two uncached evidence evaluations each."""
        y = read_fasta_codes(case.inputs[0])
        n, D = case.expect["n"], self.depth
        params = BctHyperParams(4, D)

        def log_post(p: int) -> float:
            return (
                log_prior_positions(ChangePoints(n, (p,)))
                + span_log_evidence(y[0 : D + p - 1], params)
                + span_log_evidence(y[p - 1 : D + n], params)
            )

        usable = np.flatnonzero(probs > 1e-300)
        rng = np.random.default_rng(case.expect["seed"])
        picks = rng.choice(usable, size=min(self.checked_positions, usable.size), replace=False)
        ref = log_post(int(positions[best]))
        problems = []
        for i in picks:
            want = log_post(int(positions[i])) - ref
            got = math.log(probs[i]) - math.log(probs[best])
            if abs(got - want) > 1e-9:
                problems.append(
                    f"log-posterior difference at {positions[i]}: output {got!r}, slow path {want!r}"
                )
        return problems


def caterpillar(depth: int) -> dict[str, list[float]]:
    """Leaf table of a DNA context tree expanded along the all-A context:
    every other child of an A-run node is a leaf with its own peak."""
    table = {}
    for r in range(depth):
        for y in "CGT":
            peak = "CGT"[("CGT".index(y) + r) % 3]
            probs = [0.5 if s == "A" else (0.4 if s == peak else 0.05) for s in DNA]
            table["A" * r + y] = probs
    table["A" * depth] = [0.55, 0.15, 0.15, 0.15]
    return table


class LambdaFit(Workload):
    name = "lambda-fit"
    max_cli_self_share = 0.12
    why = ("maptree then stationary on lambda-sized DNA (n=48492) cut into five "
           "segments: parsing, long builds, MAP and the stationary solve")
    depth = 10
    cuts = (22607, 27832, 38340, 46731)
    n = 48492
    model_depths = (5, 1, 2, 3, 0)

    def models(self) -> list[dict[str, list[float]]]:
        return [caterpillar(d) for d in self.model_depths]

    def generate_inputs(self, seed, workdir):
        bounds = (1,) + self.cuts + (self.n + 1,)
        lengths = [b - a for a, b in zip(bounds, bounds[1:])]
        plain = generate(dna_spec(self.models(), lengths, self.depth), seed, workdir)
        to_fasta(plain, workdir / "sequence.fa", f"synthetic lambda-sized DNA seed={seed}")

    def case(self, seed, workdir, outdir, tiny=False):
        # already a fraction of a second per job, so the tiny job is the full one
        fasta = workdir / "sequence.fa"
        segments = ",".join(map(str, self.cuts))
        argvs = [
            [cmd, str(fasta), "--depth", str(self.depth), "--segments", segments,
             "--out", str(outdir)]
            for cmd in ("maptree", "stationary")
        ]
        return Case([fasta], argvs, outdir, {"leaves": [sorted(m) for m in self.models()]})

    def check(self, case):
        outdir = case.outdir
        problems: list[str] = []
        check_manifest(outdir, "stationary", problems)
        fitted = load_json(outdir / "maptree.json", problems)
        marginals = load_json(outdir / "stationary.json", problems)
        expected = case.expect["leaves"]
        if fitted is not None:
            got = [sorted(seg["model"]["leaves"]) for seg in fitted["segments"]]
            if len(got) != len(expected):
                problems.append(f"maptree.json has {len(got)} segments, expected {len(expected)}")
            for j, (g, e) in enumerate(zip(got, expected)):
                if g != e:
                    problems.append(f"segment {j}: MAP leaves {g} differ from generating {e}")
        if marginals is not None:
            segs = marginals["segments"]
            if len(segs) != len(expected):
                problems.append(f"stationary.json has {len(segs)} segments")
            for j, seg in enumerate(segs):
                total = math.fsum(seg["marginal"])
                if abs(total - 1.0) > 1e-9:
                    problems.append(f"segment {j}: stationary marginal sums to {total!r}")
        return problems


WORKLOADS = {w.name: w for w in (TernarySegment(), DnaExact(), LambdaFit())}

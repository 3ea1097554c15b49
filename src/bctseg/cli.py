"""Batch command-line front end.

Subcommands: segment (MCMC over change-points), exact (single change-point
posterior), maptree (per-segment MAP tree models), generate (piece-wise
simulation from a spec file), stationary (per-segment stationary marginals).

Every flag can also be set through the environment with the prefix BCTSEG_
(e.g. BCTSEG_DEPTH=10); its value is checked like the flag's. Each run
writes a manifest.json with the resolved parameters, the input digest, and
the tool version; outputs are byte-stable for a given seed. Exit codes:
0 success, 2 usage, 3 unreadable or unparseable input, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .changepoints import ChangePoints, exact_single_cp_posterior, partition
from .mcmc import McmcConfig, run, summarize
from .sequences import (
    Alphabet,
    ParseError,
    Sequence,
    parse_csv,
    parse_fasta,
    parse_plain,
    split_context,
)
from .simulate import (
    NumericalError,
    generate_piecewise,
    piecewise_spec_from_json,
    stationary_marginal,
)
from .trees import BctHyperParams, CountTree


class _EnvParser(argparse.ArgumentParser):
    """Subcommand parser whose flags default to the environment variable
    BCTSEG_<FLAG> when it is set (a flag on the command line still wins).
    The value is checked with the flag's own type and choices when the
    subcommand runs, and a bad value is a usage error naming the variable.
    The parser is built once per process, so every default and required
    mark that a variable changes is put back when the parse ends."""

    def parse_known_args(self, args=None, namespace=None):
        saved = [(action, action.default, action.required) for action in self._actions]
        groups = [(group, group.required) for group in self._mutually_exclusive_groups]
        try:
            self._apply_environment(sys.argv[1:] if args is None else args)
            return super().parse_known_args(args, namespace)
        finally:
            for action, default, required in saved:
                action.default, action.required = default, required
            for group, required in groups:
                group.required = required

    def _apply_environment(self, args):
        # a flag on the command line, as --flag or --flag=value, leaves the
        # variables of every member of its exclusive group unread
        given = {token.partition("=")[0] for token in args}
        skip = set()
        for group in self._mutually_exclusive_groups:
            if any(given.intersection(a.option_strings) for a in group._group_actions):
                skip.update(group._group_actions)
        from_env = set()
        for action in self._actions:
            if not action.option_strings or action.default is argparse.SUPPRESS or action in skip:
                continue
            name = f"BCTSEG_{action.dest.upper()}"
            raw = os.environ.get(name)
            if raw is None:
                continue
            try:
                value = raw if action.type is None else action.type(raw)
                if action.choices is not None and value not in action.choices:
                    raise ValueError
            except ValueError:
                self.error(f"{name}={raw!r} is not a valid {action.option_strings[0]} value")
            action.default = value
            action.required = False
            from_env.add(action)
        for group in self._mutually_exclusive_groups:
            if from_env.intersection(group._group_actions):
                group.required = False


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _add_common_model_flags(p):
    p.add_argument("--depth", type=int, required=True, help="maximum memory depth D")
    p.add_argument(
        "--beta",
        type=float,
        help="leaf weight of the tree prior (default 1 - 2**-(m-1))",
    )
    p.add_argument(
        "--alphabet",
        help="symbol labels, e.g. ACGT or 0,1,2 (default: ACGT for FASTA, 01 otherwise)",
    )


def _add_out_flag(p):
    p.add_argument("--out", default=".", help="output directory (created if missing)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    about ten times as much as a parse."""
    top = argparse.ArgumentParser(
        prog="bctseg",
        description="Bayesian change-point segmentation of discrete time series",
    )
    top.add_argument("--version", action="version", version=f"bctseg {__version__}")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_EnvParser)

    seg = sub.add_parser("segment", help="sample the change-point posterior by MCMC")
    seg.add_argument("input")
    _add_common_model_flags(seg)
    group = seg.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--lmax", type=int, help="maximum number of change-points (unknown-count mode)"
    )
    group.add_argument(
        "--num-changes", type=int, help="known number of change-points (fixed-count mode)"
    )
    seg.add_argument("--iters", type=int, default=100_000)
    seg.add_argument("--burnin", type=int, default=10_000)
    seg.add_argument("--seed", type=int, default=0)
    seg.add_argument("--thin", type=int, default=1)
    seg.add_argument("--chains", type=int, default=1)
    seg.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="csv additionally writes ell_hist.csv and loc_hist.csv",
    )
    _add_out_flag(seg)

    exact = sub.add_parser("exact", help="exact single change-point posterior")
    exact.add_argument("input")
    _add_common_model_flags(exact)
    exact.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_out_flag(exact)

    mt = sub.add_parser("maptree", help="MAP tree model of each segment")
    mt.add_argument("input")
    _add_common_model_flags(mt)
    mt.add_argument(
        "--segments",
        help="comma-separated interior change-points fixing the segmentation",
    )
    _add_out_flag(mt)

    gen = sub.add_parser("generate", help="simulate a piece-wise homogeneous chain")
    gen.add_argument("spec", help="generation spec JSON")
    gen.add_argument("--seed", type=int, help="override the seed in the spec file")
    _add_out_flag(gen)

    st = sub.add_parser("stationary", help="stationary marginal of each segment's MAP model")
    st.add_argument("input")
    _add_common_model_flags(st)
    st.add_argument("--segments")
    _add_out_flag(st)

    return top


# ------------------------------------------------------------------ plumbing


def _resolve_alphabet(arg: str | None, is_fasta: bool) -> Alphabet:
    if arg is None:
        return Alphabet.dna() if is_fasta else Alphabet(("0", "1"))
    if "," in arg:
        return Alphabet(tuple(tok.strip() for tok in arg.split(",")))
    return Alphabet(tuple(arg))


def _load_sequence(path: str, depth: int, alphabet_arg: str | None):
    data = Path(path).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    head = data.lstrip()[:1]
    is_fasta = path.lower().endswith((".fa", ".fasta", ".fna")) or head == b">"
    alphabet = _resolve_alphabet(alphabet_arg, is_fasta)
    if is_fasta:
        mapping = {lab.upper(): i for i, lab in enumerate(alphabet.labels)}
        raw = parse_fasta(data, mapping)
    elif path.lower().endswith(".csv"):
        raw = parse_csv(data, alphabet)
    else:
        raw = parse_plain(data, alphabet)
    return split_context(raw, depth, alphabet), digest


def _load_model_input(args):
    """The input series, the resolved hyperparameters, the input digest and
    the parameter values resolved by every command that fits models."""
    x, digest = _load_sequence(args.input, args.depth, args.alphabet)
    params = BctHyperParams(x.alphabet.size, args.depth, args.beta)
    resolved = {"alphabet": list(x.alphabet.labels), "beta": params.beta, "n": x.n}
    return x, params, digest, resolved


def _parse_segment_list(arg: str | None, n: int) -> ChangePoints:
    if not arg:
        return ChangePoints(n)
    try:
        points = [int(tok) for tok in arg.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--segments expects comma-separated integers, got {arg!r}")
    return ChangePoints(n, sorted(points))


def _json(obj, **options):
    """Writer of `obj` as JSON followed by a newline."""

    def write(fh):
        json.dump(obj, fh, **options)
        fh.write("\n")

    return write


def _csv(rows):
    """Writer of one comma-joined line per pair in `rows`."""

    def write(fh):
        for a, b in rows:
            fh.write(f"{a},{b}\n")

    return write


def _write_atomic(path: Path, write) -> None:
    """Create `path` by calling `write(fh)` on a temporary file in the same
    directory and renaming it into place, so a failed or interrupted write
    leaves any earlier file at `path` whole and no partial file behind."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _check_out(out: str) -> None:
    """Refuse an --out that cannot become a directory (it, or the nearest of
    its ancestors that exists, is not a directory, or its name cannot be
    looked up) before any work is done; nothing is created here."""
    path = Path(out)
    try:
        for existing in (path, *path.parents):
            if existing.exists():
                if not existing.is_dir():
                    raise ValueError(f"cannot create output directory {out}: "
                                     f"{existing} is not a directory")
                # a name too long for a directory fails its lookup there
                for part in path.relative_to(existing).parts:
                    (existing / part).exists()
                return
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out}: {exc.strerror}") from None


# the names of the files each command can write besides manifest.json
_OWN_FILES = {
    "segment": r"trace(_[0-9]+)?\.csv|summary\.json|(ell|loc)_hist\.csv",
    "exact": r"posterior\.(csv|json)",
    "maptree": r"maptree\.json",
    "stationary": r"stationary\.json",
    "generate": r"sequence\.txt|changepoints\.json",
}


def _write_outputs(args, started, files: dict, digest: str, resolved: dict,
                   shown=None, note: str = "", **report) -> None:
    """The end of every command: write each named output into the --out
    directory, then manifest.json (the parsed flags overlaid with the
    `resolved` values as parameters, the input digest, the tool version and
    the entries of `report`); remove each file of the running command that an
    earlier run left there and this run did not write; and print the paths
    of `shown` (by default the first output), followed by `note`."""
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        message = f"cannot create output directory {args.out}: {exc.strerror}"
        raise ValueError(message) from None
    # a failure to write into --out is a usage error, not an unreadable input
    try:
        for name, write in files.items():
            _write_atomic(outdir / name, write)
        flags = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
        manifest = {
            "command": args.command,
            "tool_version": __version__,
            "parameters": {**flags, **resolved},
            "input_digest": digest,
            "wall_clock_seconds": time.perf_counter() - started,
            **report,
        }
        _write_atomic(outdir / "manifest.json", _json(manifest, indent=2, sort_keys=True))
        own = _OWN_FILES[args.command]
        for path in outdir.iterdir():
            if path.name not in files and re.fullmatch(own, path.name):
                path.unlink()
    except OSError as exc:
        raise ValueError(f"cannot write into --out {args.out}: {exc}") from None
    shown = shown or list(files)[:1]
    print(f"wrote {', '.join(str(outdir / name) for name in shown)}{note}")


# ------------------------------------------------------------------ commands


def cmd_segment(args) -> dict:
    x, _, digest, resolved = _load_model_input(args)
    base = McmcConfig(
        iterations=args.iters,
        burn_in=args.burnin,
        seed=args.seed,
        depth=args.depth,
        beta=args.beta,
        num_changes=args.num_changes,
        ell_max=args.lmax,
        thinning=args.thin,
    )
    if args.chains < 1:
        raise ValueError("--chains must be positive")
    if args.chains == 1:
        traces = [run(x, base)]
    else:
        seeds = np.random.SeedSequence(args.seed).spawn(args.chains)
        configs = [dataclasses.replace(base, seed=s) for s in seeds]
        workers = min(args.chains, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(run, [x] * args.chains, configs))

    files = {}
    for i, tr in enumerate(traces):
        name = "trace.csv" if i == 0 else f"trace_{i}.csv"
        if tr.states is None:
            print(
                f"note: {name} not written: too many samples to keep, so the "
                "chain kept only its histograms",
                file=sys.stderr,
            )
        else:
            files[name] = tr.write_csv
    summary = summarize(*traces)
    files["summary.json"] = _json(summary.to_json_obj(), indent=2)
    if args.format == "csv":
        files["ell_hist.csv"] = _csv(sorted(summary.ell_hist.items()))
        files["loc_hist.csv"] = _csv(sorted(summary.loc_hist.items()))
    resolved["mode"] = "fixed" if base.fixed_mode else "variable"
    return dict(
        files=files, digest=digest, resolved=resolved,
        shown=[name for name in ("trace.csv", "summary.json") if name in files],
        evidence_cache=[tr.cache_stats for tr in traces],
        best_state=[
            {"positions": list(tr.best_state), "log_posterior": tr.best_log_post}
            for tr in traces
        ],
    )


def cmd_exact(args) -> dict:
    x, params, digest, resolved = _load_model_input(args)
    probs = exact_single_cp_posterior(x, params)
    positions = np.arange(2, x.n)
    if args.format == "csv":
        header = [("position", "probability")]
        write = _csv(itertools.chain(header, zip(positions, map(_fmt, probs))))
    else:
        write = _json({"positions": positions.tolist(), "probs": probs.tolist()})
    return dict(files={f"posterior.{args.format}": write}, digest=digest, resolved=resolved)


def _fit_segment_models(x: Sequence, cp: ChangePoints, params: BctHyperParams):
    # a function of its own so that the last count tree is freed before the
    # caller builds its per-segment output (the stationary solve peaks there)
    fitted = []
    for view in partition(x, cp):
        codes = np.concatenate([view.context, view.observations])
        tree = CountTree.from_arrays(codes, params.depth, params)
        fitted.append((view, tree.map_model(with_params=True)))
    return fitted


def _cmd_fit_segments(args, describe) -> dict:
    """Shared body of maptree and stationary: fit the MAP tree model of each
    segment and name one entry per segment for <command>.json, with the
    fields that `describe(model, alphabet)` returns."""
    x, params, digest, resolved = _load_model_input(args)
    cp = _parse_segment_list(args.segments, x.n)
    fitted = _fit_segment_models(x, cp, params)
    segments = [
        {"start": view.start, "end": view.end, **describe(model, x.alphabet)}
        for view, model in fitted
    ]
    resolved["segments"] = list(cp.positions)
    files = {f"{args.command}.json": _json({"segments": segments}, indent=2)}
    return dict(files=files, digest=digest, resolved=resolved)


def cmd_maptree(args) -> dict:
    return _cmd_fit_segments(
        args,
        lambda model, alphabet: {"depth": model.depth, "model": model.to_json(alphabet)},
    )


def cmd_stationary(args) -> dict:
    return _cmd_fit_segments(
        args,
        lambda model, alphabet: {
            "model_depth": model.depth,
            "marginal": [float(v) for v in stationary_marginal(model)],
        },
    )


def cmd_generate(args) -> dict:
    raw = Path(args.spec).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"spec file is not valid JSON: {exc}") from None
    try:
        spec = piecewise_spec_from_json(obj)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"spec file does not match the spec layout: {exc!r}") from None
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    seq, truth = generate_piecewise(spec)

    labels = seq.alphabet.labels
    joiner = "" if all(len(lab) == 1 for lab in labels) else "\n"
    full = seq.full_codes().tolist()
    files = {
        "sequence.txt": lambda fh: fh.write(joiner.join(labels[c] for c in full) + "\n"),
        "changepoints.json": _json(
            {"n": seq.n, "depth": spec.depth, "change_points": list(truth),
             "seed": spec.seed}
        ),
    }
    return dict(
        files=files, digest=digest,
        resolved={"seed": spec.seed, "n": seq.n, "depth": spec.depth},
        note=f" ({seq.n + spec.depth} symbols)",
    )


# each command computes and names its outputs: it returns the keyword
# arguments of `_write_outputs`, which main passes on
_HANDLERS = {
    "segment": cmd_segment,
    "exact": cmd_exact,
    "maptree": cmd_maptree,
    "generate": cmd_generate,
    "stationary": cmd_stationary,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        # an --out that cannot be created is a usage error (ValueError), so
        # it is not reported as an unreadable input (OSError, exit 3)
        _check_out(args.out)
        _write_outputs(args, started, **_HANDLERS[args.command](args))
        return 0
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

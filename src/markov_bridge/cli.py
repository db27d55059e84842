"""Command-line entry points.

Exit codes: 0 success, 1 usage or bad input, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .checkpoint import load_checkpoint
from .config import load_config
from .core import ProductDistribution, evolve_rows
from .data import Dataset, load_dataset, read_corpus
from .errors import BridgeError, CheckpointError, ConfigError, UnsolvableSupportError
from .evaluation import elbo_estimate
from .matrix_learning import predict_terminal
from .sampler import generate
from .solver import exact_rate_matrices
from .selftest import run_selftest
from .training import restore, train

_SAMPLE_SALT = 0x5A3B


def _int_at_least(low: int):
    """argparse type for an integer >= low, so a bad size is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as an "invalid int value"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dmb", description="Discrete bridge trainer and sampler")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the alternating training loop")
    p_train.add_argument("config")
    p_train.add_argument("--resume", default=None, help="checkpoint to restore before training")

    p_sample = sub.add_parser("sample", help="generate sequences from a checkpoint")
    p_sample.add_argument("checkpoint")
    p_sample.add_argument("--count", type=_int_at_least(1), default=16)
    p_sample.add_argument("--steps", type=_int_at_least(1), default=None)
    p_sample.add_argument("--out", default=None, help="output file (default: stdout)")

    p_eval = sub.add_parser("eval", help="estimate the variational bound from a checkpoint")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("--mc-samples", type=_int_at_least(2), default=None)

    p_solve = sub.add_parser("solve", help="exact rate matrix between two probability vectors")
    p_solve.add_argument("p_file")
    p_solve.add_argument("q_file")

    sub.add_parser("selftest", help="run the bundled oracle/property checks")
    return parser


def _read_vector(path: str) -> ProductDistribution:
    """The whitespace-separated probability vector in ``path``, as one row."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = [float(tok) for tok in fh.read().split()]
    except OSError as exc:
        raise ConfigError(f"cannot read vector file {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"non-numeric entry in {path!r}") from exc
    if not values:
        raise ConfigError(f"no entries in {path!r}")
    try:
        return ProductDistribution(np.asarray(values)[None, :])
    except ValueError as exc:
        raise ConfigError(f"{path!r} is not a probability vector: {exc}") from exc


def _cmd_train(args) -> int:
    config = load_config(args.config)
    ck = train(config, resume_from=args.resume)
    print(f"finished at epoch {ck.epoch}; checkpoints and metrics in {config.out_dir}")
    return 0


def _cmd_sample(args) -> int:
    config, schedule, Q, model, p0 = restore(load_checkpoint(args.checkpoint))
    terminal = predict_terminal(Q, p0, schedule)
    steps = args.steps if args.steps is not None else config.sampler_steps
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _SAMPLE_SALT]))
    draws = generate(terminal, Q, schedule, model.forward_batch, rng, args.count, steps, config.eps_t)
    # the draws as a dataset of the config's kind: decoding reads only the corpus alphabet
    vocab = read_corpus(config)[1] if config.dataset == "char_corpus" else None
    lines = Dataset(draws, config.n, vocab=vocab).decode(draws)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write samples to {args.out!r}: {exc}") from exc
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_eval(args) -> int:
    config, schedule, Q, model, p0 = restore(load_checkpoint(args.checkpoint))
    dataset = load_dataset(config)
    terminal = predict_terminal(Q, p0, schedule)
    mc = args.mc_samples if args.mc_samples is not None else config.mc_samples
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xE7A1]))
    report = elbo_estimate(model.forward_batch, dataset.samples, Q, schedule, terminal, mc, rng, eps_t=config.eps_t)
    print(f"j_score        = {report.j_score:.6f} nats")
    print(f"kl_term        = {report.kl_term:.6f} nats")
    print(f"total          = {report.total_nats:.6f} nats")
    print(f"bits_per_dim   = {report.bits_per_dim:.6f}")
    print(f"mc_std_error   = {report.mc_std_error:.6f} nats")
    return 0


def _cmd_solve(args) -> int:
    p = _read_vector(args.p_file)
    q = _read_vector(args.q_file)
    if p.n != q.n:
        raise ConfigError(f"{args.p_file!r} and {args.q_file!r} hold different state counts")
    try:
        Q = exact_rate_matrices(p, q)
    except UnsolvableSupportError as exc:
        raise ConfigError(f"no bridge from {args.q_file!r} to {args.p_file!r}: {exc}") from exc
    residual = float(np.abs(evolve_rows(q.probs, Q, 1.0)[0] - p.probs).max())
    print("perm =", " ".join(str(int(v)) for v in Q.perm[0]))
    print("a    =", " ".join(f"{v:.6f}" for v in Q.a[0]))
    print(f"residual = {residual:.3g}")
    return 0


def cli(argv) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    commands = {"train": _cmd_train, "sample": _cmd_sample, "eval": _cmd_eval, "solve": _cmd_solve,
                "selftest": lambda args: 0 if run_selftest() else 2}
    try:
        return commands[args.command](args)
    except (ConfigError, CheckpointError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BridgeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failures map to the runtime code
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()

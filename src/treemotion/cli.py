"""Command-line interface.

Subcommands: ``check`` (structural + numeric self-test of a tree spec),
``train`` (fit leaf policies to demo files), ``rollout`` (integrate the
closed loop and dump the trace), ``gradcheck`` (analytic vs
finite-difference gradients) and ``eval`` (print the policy at one
configuration).

Exit codes: 0 pass, 1 usage error, 2 validation error (bad files or
wiring), 3 numeric failure. All outputs are deterministic given
``--seed``. ``train``, ``check`` and ``gradcheck`` import the training
and verification stack themselves, so ``eval`` and ``rollout`` never
load it.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io as tmio
from .errors import NumericError, SpecFormatError, StructureError
from .losses import LossSpec, subtask_loss
from .rollout import integrate
from .tree import evaluate_policy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError as exc:
        raise _UsageError(f"cannot parse vector {text!r}: {exc}")


def _parse_configuration(text: str, option: str) -> np.ndarray:
    """A configuration vector; a non-finite entry is a validation error."""
    q = _parse_vector(text)
    if not np.isfinite(q).all():
        raise StructureError(f"{option} must be finite, got {text}")
    return q


def _load_tree_and_params(args):
    tree = tmio.load_tree(args.tree_spec)
    if getattr(args, "params", None):
        params = tmio.load_params(args.params, tree)
    else:
        params = tree.init_params()
    return tree, params


def _build_parser() -> _Parser:
    parser = _Parser(prog="tree-motion",
                     description="Transform-tree velocity policies: check, "
                                 "train, roll out and verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a tree spec and self-test it")
    p.add_argument("tree_spec")
    p.add_argument("--params", help="parameter JSON (default: fresh init)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=10,
                   help="number of random probe points")

    p = sub.add_parser("train", help="fit learnable leaves to demonstrations")
    p.add_argument("tree_spec")
    p.add_argument("--demos", required=True,
                   help="demo CSV file, directory of CSVs, or comma list")
    p.add_argument("--config", help="training config JSON")
    p.add_argument("--loss", choices=list(tmio.LOSS_KIND_ALIASES),
                   help="override the configured loss kind")
    p.add_argument("--lambda", dest="lam",
                   help="comma-separated per-leaf weights for the subtask loss")
    p.add_argument("--alpha", type=float, help="fixed step size")
    p.add_argument("--iterations", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--params", help="initial parameter JSON")
    p.add_argument("--out", required=True, help="output parameter JSON")
    p.add_argument("--history", help="loss history CSV (default: <out>.history.csv)")

    p = sub.add_parser("rollout", help="integrate qdot = pi(q) from a start state")
    p.add_argument("tree_spec")
    p.add_argument("--params")
    p.add_argument("--q0", required=True, help="comma-separated start configuration")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--max-steps", type=int, default=100_000)
    p.add_argument("--grad-tol", type=float, default=1e-6)
    p.add_argument("--no-potential", action="store_true",
                   help="skip the potential trace (for trees without potentials)")
    p.add_argument("--out", help="trajectory CSV path")
    p.add_argument("--summary", help="summary JSON path")

    p = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    p.add_argument("tree_spec")
    p.add_argument("--demos", required=True)
    p.add_argument("--params")
    p.add_argument("--loss", choices=["subtask", "joint"], default="subtask")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--fd-step", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)

    p = sub.add_parser("eval", help="print pi(q) for one configuration")
    p.add_argument("tree_spec")
    p.add_argument("--params")
    p.add_argument("--q", required=True, help="comma-separated configuration")
    p.add_argument("--regularization", type=float, default=0.0)

    return parser


def _default_lam(tree) -> np.ndarray:
    """All subtask leaves weighted 1; zero-potential dampers weighted 0."""
    lam = np.ones(len(tree.leaves))
    for i, leaf in enumerate(tree.leaves):
        pol = tree.leaf_policies[leaf]
        if pol.kind == "raw_vm" and pol.potential(None, None) == 0.0:
            lam[i] = 0.0
    return lam


def _cmd_check(args) -> int:
    from .verify import check_tree

    tree, params = _load_tree_and_params(args)
    report = check_tree(tree, params, n_points=args.points, seed=args.seed)
    print(json.dumps(report, indent=1))
    return EXIT_OK if report["status"] == "pass" else EXIT_NUMERIC


def _cmd_train(args) -> int:
    from .learning import TrainOptions, train, train_independent_baseline

    tree, params = _load_tree_and_params(args)
    demos = tmio.load_demos(args.demos)
    if args.config:
        loss, opts = tmio.load_training_config(args.config)
    else:
        loss, opts = LossSpec("subtask_space"), TrainOptions()
    if args.loss:
        loss = LossSpec(tmio.LOSS_KIND_ALIASES[args.loss], loss.lam)
    if args.lam is not None:
        loss = LossSpec(loss.kind, _parse_vector(args.lam))
    if loss.kind == "subtask_space" and loss.lam is None:
        loss = LossSpec(loss.kind, _default_lam(tree))
    if args.alpha is not None:
        opts.alpha = args.alpha
    if args.iterations is not None:
        opts.iterations = args.iterations
    if args.seed is not None:
        opts.seed = args.seed

    history_path = args.history or args.out + ".history.csv"
    if loss.kind == "independent_baseline":
        trained = train_independent_baseline(tree, params, demos, opts)
        lam_eval = loss.lam if loss.lam is not None else _default_lam(tree)
        history = [subtask_loss(tree, params, demos, lam_eval),
                   subtask_loss(tree, trained, demos, lam_eval)]
        trained.save(args.out)
        tmio.write_history_csv(history_path, history)
        return EXIT_OK

    result = train(tree, params, demos, loss, opts)
    tmio.write_history_csv(history_path, result.history)
    if result.status != "completed":
        result.params.save(args.out + ".partial")
        print(f"training aborted ({result.status}); last finite parameters "
              f"written to {args.out}.partial", file=sys.stderr)
        return EXIT_NUMERIC
    result.params.save(args.out)
    return EXIT_OK


def _cmd_rollout(args) -> int:
    tree, params = _load_tree_and_params(args)
    q0 = _parse_configuration(args.q0, "--q0")
    result = integrate(tree, params, q0, dt=args.dt, max_steps=args.max_steps,
                       grad_tol=args.grad_tol,
                       record_potential=not args.no_potential)
    if args.out:
        tmio.write_rollout(args.out, result)
    grad_norm = result.terminal_grad_norm  # NaN if the first evaluation failed
    summary = {
        "status": result.status,
        "steps": max(len(result.trajectory) - 1, 0),
        "terminal_grad_norm": grad_norm if np.isfinite(grad_norm) else None,
        "message": result.message,
    }
    text = json.dumps(summary, indent=1, allow_nan=False)
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_NUMERIC if result.status == "error" else EXIT_OK


def _cmd_gradcheck(args) -> int:
    from .verify import gradcheck_report

    tree, params = _load_tree_and_params(args)
    demos = tmio.load_demos(args.demos)
    if args.loss == "joint":
        loss = LossSpec("joint_space")
    else:
        lam = _parse_vector(args.lam) if args.lam is not None else _default_lam(tree)
        loss = LossSpec("subtask_space", lam)
    report = gradcheck_report(tree, params, demos, loss, h=args.fd_step,
                              tol=args.tol)
    print(json.dumps(report, indent=1))
    return EXIT_OK if report["status"] == "pass" else EXIT_NUMERIC


def _cmd_eval(args) -> int:
    tree, params = _load_tree_and_params(args)
    q = _parse_configuration(args.q, "--q")
    pi = evaluate_policy(tree, q, params, regularization=args.regularization)
    print(json.dumps({"q": q.tolist(), "pi": pi.tolist()}))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "check": _cmd_check,
        "train": _cmd_train,
        "rollout": _cmd_rollout,
        "gradcheck": _cmd_gradcheck,
        "eval": _cmd_eval,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SpecFormatError, StructureError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: ``gen``, ``quality``, ``perturb`` and ``optimize``. Exit codes:
0 on success, 1 on usage/validation/parse problems, 2 when the optimizer
stops abnormally (outputs are still written in that case).
"""

import argparse
import logging
import sys

from .assembly import assemble_preconditioner, gradient_matrix, write_matrix_market
from .errors import MeshError
from .generate import (
    CUBE,
    EQUILATERAL,
    SQUARE,
    GeneratorSpec,
    PlantSliver,
    RandomJitter,
    gen_mesh,
    perturb_mesh,
)
from .mesh import FIX_ALL, SLIDE_PLANAR, classify_boundary, quality_stats, validate
from .meshio import load_mesh, save_mesh, save_quality_overlay
from .optim import METHODS, OptimizeConfig, optimize

_OK_TERMINATIONS = ("grad_tol", "energy_tol", "max_iters")


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser():
    parser = _Parser(
        prog="rrsmooth",
        description="Simplex mesh smoothing by radius-ratio energy minimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a structured test mesh")
    gen.add_argument("--kind", choices=(EQUILATERAL, SQUARE, CUBE), required=True)
    gen.add_argument("--n", type=int, required=True, help="subdivisions per side")
    gen.add_argument("output")

    quality = sub.add_parser("quality", help="print a mesh quality table")
    quality.add_argument("input")

    perturb = sub.add_parser("perturb", help="jitter a mesh or plant slivers")
    perturb.add_argument("input")
    perturb.add_argument("output")
    which = perturb.add_mutually_exclusive_group(required=True)
    which.add_argument("--jitter", type=float, metavar="AMPLITUDE")
    which.add_argument("--sliver", nargs=2, metavar=("COUNT", "EPS"))
    perturb.add_argument("--seed", type=int, default=0)

    opt = sub.add_parser("optimize", help="minimize the radius-ratio energy")
    defaults = OptimizeConfig()
    opt.add_argument("input")
    opt.add_argument("output")
    opt.add_argument("--method", choices=METHODS, default=defaults.method)
    opt.add_argument(
        "--boundary",
        choices=(FIX_ALL, SLIDE_PLANAR, "keep"),
        default=FIX_ALL,
        help="constraint policy; 'keep' preserves tags from a native file",
    )
    opt.add_argument("--max-iters", type=int, default=defaults.max_iters)
    opt.add_argument("--grad-tol", type=float, default=defaults.grad_tol)
    opt.add_argument("--report", metavar="CSV", help="per-iteration CSV report")
    opt.add_argument(
        "--overlay", metavar="VTK", help="write a quality overlay of the result"
    )
    opt.add_argument(
        "--dump-system",
        metavar="PREFIX",
        help="dump G_F and P (when it can be built) in Matrix Market format before optimizing",
    )
    return parser


def _load_validated(path):
    mesh = load_mesh(path)
    violations = validate(mesh)
    if violations:
        for v in violations[:20]:
            print(f"invalid mesh: {v}", file=sys.stderr)
        print(f"error: {path}: {len(violations)} mesh violation(s)", file=sys.stderr)
        raise SystemExit(1)
    return mesh


def cmd_gen(args):
    mesh = gen_mesh(GeneratorSpec(args.kind, args.n))
    save_mesh(mesh, args.output)
    print(f"wrote {args.output}: {mesh.n_vertices} vertices, {mesh.n_cells} cells")
    return 0


def cmd_quality(args):
    mesh = _load_validated(args.input)
    print(quality_stats(mesh).format_table())
    return 0


def cmd_perturb(args):
    mesh = _load_validated(args.input)
    if args.jitter is not None:
        mode = RandomJitter(amplitude=args.jitter, seed=args.seed)
    else:
        try:
            count, eps = int(args.sliver[0]), float(args.sliver[1])
        except ValueError:
            print("error: --sliver expects COUNT (int) and EPS (float)", file=sys.stderr)
            return 1
        mode = PlantSliver(count=count, eps=eps)
    out = perturb_mesh(mesh, mode)
    save_mesh(out, args.output)
    print(f"wrote {args.output} ({mode})")
    return 0


def cmd_optimize(args):
    try:
        config = OptimizeConfig(
            method=args.method, max_iters=args.max_iters, grad_tol=args.grad_tol
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    mesh = _load_validated(args.input)
    if args.boundary != "keep":
        mesh = classify_boundary(mesh, args.boundary)
    if args.dump_system:
        # A mesh without a fixed vertex, or with a part that has none, has no P.
        write_matrix_market(gradient_matrix(mesh), args.dump_system + "_gf.mtx")
        try:
            write_matrix_market(assemble_preconditioner(mesh).P, args.dump_system + "_p.mtx")
        except MeshError as e:
            print(f"not writing P: {e}", file=sys.stderr)
    out, report = optimize(mesh, config)
    save_mesh(out, args.output)
    if args.report:
        report.write_csv(args.report)
    if args.overlay:
        save_quality_overlay(out, args.overlay)
    for line in report.lines():
        print(line)
    if report.termination not in _OK_TERMINATIONS:
        print(f"optimizer stopped abnormally: {report.termination}", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "quality": cmd_quality,
    "perturb": cmd_perturb,
    "optimize": cmd_optimize,
}


def main(argv=None):
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except MeshError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

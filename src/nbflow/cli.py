"""Command-line entry points.

Subcommands: ``run`` (transient simulation), ``mms`` (manufactured-
solution convergence study), ``bench`` (preconditioner benchmark on a
frozen linear system) and ``mesh-info`` (mesh diagnostics).
"""

from __future__ import annotations

import argparse
import logging
import sys

log = logging.getLogger("nbflow")


def _add_common(sub):
    sub.add_argument("config", help="path to the configuration file")
    sub.add_argument("--output-dir", default=None, help="override the output directory")
    sub.add_argument("--deterministic", action="store_true",
                     help="zero timing columns for byte-identical artifacts")
    sub.add_argument("--seed", type=int, default=0, help="seed for inflow perturbations")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbflow",
        description="Incompressible flow solver with lumped outflow coupling "
                    "and nested block preconditioning (CGS units)",
    )
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("run", help="time-march a configured problem"))
    _add_common(sub.add_parser("mms", help="manufactured-solution convergence study"))
    _add_common(sub.add_parser("bench", help="benchmark preconditioners on a frozen system"))
    info = sub.add_parser("mesh-info", help="print mesh diagnostics")
    info.add_argument("mesh", help="mesh file (.msh native or .vtk)")
    return parser


def _cmd_run(args) -> int:
    from .config import load_config
    from .driver import run_simulation

    config = load_config(args.config)
    artifacts = run_simulation(
        config, output_dir=args.output_dir,
        deterministic=args.deterministic, seed=args.seed,
    )
    log.info("per-step log: %s", artifacts.steps_csv)
    log.info("final state: %s", artifacts.final_state_vtk)
    if not artifacts.all_converged:
        log.error("one or more time steps did not converge")
        return 1
    return 0


def _cmd_mms(args) -> int:
    from .config import load_config
    from .driver import manufactured_solution_study

    config = load_config(args.config)
    result = manufactured_solution_study(config, output_dir=args.output_dir)
    for key in ("errors_v", "errors_p", "orders_v", "orders_p"):
        if result.get(key):
            log.info("%s: %s", key, ["%.3e" % v if "errors" in key else "%.2f" % v
                                     for v in result[key]])
    for key in ("fitted_order_v", "fitted_order_p"):
        if key in result:
            log.info("%s: %.3f", key, result[key])
    log.info("table: %s", result["csv"])
    return 0


def _cmd_bench(args) -> int:
    from .config import load_config
    from .driver import benchmark_preconditioners

    config = load_config(args.config)
    outcome = benchmark_preconditioners(
        config, output_dir=args.output_dir,
        deterministic=args.deterministic, seed=args.seed,
    )
    for label, res in outcome["results"].items():
        log.info(
            "%-24s %-10s iters=%-4d rel=%.3e %.3fs",
            label,
            "converged" if res["converged"] else "NC",
            res["iterations"],
            res["relative_residual"],
            res["wall_time"],
        )
    log.info("summary: %s", outcome["summary"])
    return 0


def _cmd_mesh_info(args) -> int:
    from .meshing import load_mesh

    mesh = load_mesh(args.mesh)
    sizes = mesh.element_sizes()
    print(f"nodes: {mesh.n_nodes}")
    print(f"tets: {mesh.n_tets}")
    print(f"volume: {mesh.volumes.sum():.6g} cm^3")
    print(f"element size (circumsphere diameter): min {sizes.min():.6g}, "
          f"max {sizes.max():.6g} cm")
    for group in mesh.facet_groups.values():
        print(f"surface {group.name}: tag={group.tag} facets={len(group.tris)} "
              f"area={group.area:.6g} cm^2")
    return 0


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    commands = {
        "run": _cmd_run,
        "mms": _cmd_mms,
        "bench": _cmd_bench,
        "mesh-info": _cmd_mesh_info,
    }
    try:
        return commands[args.command](args)
    except Exception as exc:  # surface config/mesh errors as clean CLI failures
        log.error("%s", exc)
        if args.log_level == "debug":
            raise
        return 2


if __name__ == "__main__":
    sys.exit(main())

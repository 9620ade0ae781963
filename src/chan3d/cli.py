"""Command-line entry point for batch calibration campaigns."""
from __future__ import annotations

import argparse
import logging
import sys

from .campaign import run_campaign
from .config import ConfigError, default_config, emit_config, parse_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chan3d",
        description="System-level 3D channel simulator and calibration driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a calibration campaign")
    run_p.add_argument("--config", required=True, help="path to the run configuration file")
    run_p.add_argument("--seed", type=int, default=None, help="override run.master_seed")
    run_p.add_argument("--phase", type=int, choices=(1, 2), default=None, help="override run.phase")
    run_p.add_argument("--output", default=None, help="override run.output_dir")
    run_p.add_argument(
        "--workers", type=int, default=None,
        help="override run.workers (slow-fading field threads in both phases, and phase-2 "
        "worker processes; the outputs are the same at any count)",
    )
    run_p.add_argument(
        "--downtilts", default=None,
        help="comma-separated downtilt sweep in degrees (overrides the config)",
    )
    run_p.add_argument(
        "--dv-list", default=None,
        help="comma-separated vertical spacings in wavelengths (overrides the config)",
    )
    run_p.add_argument("--drop-mode", choices=("3d", "legacy2d"), default=None)
    run_p.add_argument("-q", "--quiet", action="store_true", help="log warnings only, no progress")

    def_p = sub.add_parser(
        "default-config",
        help="emit the canonical configuration with all defaults documented",
    )
    def_p.add_argument("--scenario", choices=("UMa", "UMi"), default="UMa")
    def_p.add_argument("--output", default="-", help="target file, or - for stdout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "default-config":
            text = emit_config(default_config(args.scenario))
            if args.output == "-":
                sys.stdout.write(text)
            else:
                with open(args.output, "w") as fh:
                    fh.write(text)
            return 0

        overrides = {
            "run.master_seed": args.seed,
            "run.phase": args.phase,
            "run.output_dir": args.output,
            "run.workers": args.workers,
            "run.drop_mode": args.drop_mode,
            "antenna.downtilt_sweep_deg": args.downtilts,
            "antenna.d_v_sweep": args.dv_list,
        }
        cfg = parse_config(
            args.config, {k: str(v) for k, v in overrides.items() if v is not None}
        )
        # Progress and the written paths go to stderr as bare messages.
        log, handler = logging.getLogger("chan3d"), logging.StreamHandler()
        handler.setLevel(logging.WARNING if args.quiet else logging.INFO)
        log.addHandler(handler)
        log.setLevel(logging.INFO)
        try:
            for path in run_campaign(cfg):
                log.info(path)
        finally:
            log.removeHandler(handler)
            log.setLevel(logging.NOTSET)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command line entry point: run / validate configs, list scenarios.

Exit codes: 0 all assertions passed, 1 an assertion failed, 2 config error.
"""

import argparse
import sys

from .runner import (
    EXIT_ASSERTION,
    EXIT_CONFIG,
    EXIT_OK,
    SCENARIOS,
    ConfigError,
    load_config,
    run_scenario,
    validate_config,
)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="toruslab",
        description="spectral laboratory scenarios for dispersive flows on "
        "the rescaled torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_val = sub.add_parser("validate", help="validate a scenario config")
    p_val.add_argument("config")
    sub.add_parser("list-scenarios", help="list available scenario names")
    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name in sorted(SCENARIOS):
            print(name)
        return EXIT_OK

    try:
        cfg = load_config(args.config)
        name = validate_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        print(f"config ok: scenario {name}")
        return EXIT_OK

    status, result = run_scenario(cfg)
    for line in result.lines:
        print(f"[{name}] {line}")
    print(f"[{name}] overall: " + ("PASS" if result.passed else "FAIL"))
    return status


if __name__ == "__main__":
    sys.exit(main())

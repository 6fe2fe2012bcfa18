"""Command-line interface.

Commands:
    distance   W_p / bottleneck distance between two diagrams, with an
               optional realizing matching and (for p = 1) a dual certificate
    anagram    closed-form anagram distance between two words
    verify     run a randomized verification suite and report pass/fail
    spaces     list the space ids understood by the file formats

Exit codes: 0 success, 1 failed verification, 2 parse/usage error,
3 domain or precondition error, 4 size guard.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import DomainError, PreconditionError, SizeLimitError
from .io import (
    SPACE_IDS,
    SPACES,
    dump_json,
    load_diagram,
    load_json,
    matching_to_json,
    certificate_to_json,
    parse_exponent_text,
    space_from_spec,
)
from .kr_duality import certificate_of, support_function
from .spaces import AnagramSpace, anagram_distance, word_diagram
from .wasserstein import solve

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_SIZE = 4

def _space_spec_from_args(args) -> dict:
    if args.space_file:
        spec = load_json(args.space_file)
        if not isinstance(spec, dict):
            raise DomainError("the space file must hold a JSON object")
        if args.space and spec.get("id") not in (None, args.space):
            raise DomainError(
                f"--space {args.space} conflicts with space file id {spec.get('id')!r}"
            )
        spec.setdefault("id", args.space)
        if spec["id"] == "halfplane":
            spec.setdefault("p", args.p)
        return spec
    if not args.space:
        raise DomainError("no space given: pass --space or --space-file")
    flags = vars(args)
    params = SPACES[args.space][0]
    return {"id": args.space, **{k: flags[k] for k in params if flags.get(k) is not None}}


def _load_input(text: str, space):
    """A diagram input: a JSON file path, or a literal word for anagram spaces."""
    if os.path.exists(text):
        return load_diagram(text, space)
    if getattr(space, "space_id", None) == "anagram":
        return word_diagram(text, space)
    raise OSError(f"no such diagram file: {text}")


def cmd_distance(args) -> int:
    p = parse_exponent_text(args.p)
    space = space_from_spec(_space_spec_from_args(args))
    alpha = _load_input(args.inputs[0], space)
    beta = _load_input(args.inputs[1], space)
    solved = solve(alpha, beta, p)
    out: dict = {"space": getattr(space, "space_id", "custom"), "p": p, "value": solved.value}
    if args.matching:
        matching = solved.matching()
        out.update(value=matching.total, matching=matching_to_json(matching))
    if args.certificate:
        cert = certificate_of(alpha, beta, solved)
        h = support_function(cert) if cert.has_certificate else None
        out["certificate"] = certificate_to_json(cert, h)
    print(dump_json(out))
    return EXIT_OK


def cmd_anagram(args) -> int:
    space = AnagramSpace(args.alphabet) if args.alphabet else AnagramSpace()
    print(anagram_distance(args.words[0], args.words[1], space))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import SUITES, resolve_seed, run_suite  # only this command needs it

    if args.suite != "all" and args.suite not in SUITES:
        known = ", ".join(sorted(SUITES) + ["all"])
        raise ValueError(f"unknown suite {args.suite!r}; known suites: {known}")
    report = run_suite(args.suite, resolve_seed(args.seed), args.samples)
    print(dump_json(report))
    return EXIT_OK if report["passed"] else EXIT_FAILED


def cmd_spaces(args) -> int:
    out = {"spaces": [{"id": sid, "params": params} for sid, (params, _) in SPACES.items()]}
    print(dump_json(out))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdmetric",
        description="Wasserstein and bottleneck distances between persistence "
                    "diagrams over pointed metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("distance", help="distance between two diagrams")
    dist.add_argument("inputs", nargs=2, metavar="DIAGRAM",
                      help="diagram JSON file (or a literal word for --space anagram)")
    dist.add_argument("--space", choices=SPACE_IDS, help="space id")
    dist.add_argument("--space-file", help="JSON file with the full space spec")
    dist.add_argument("--p", default="inf", help="Wasserstein exponent (>= 1 or 'inf')")
    dist.add_argument("--q", default="inf",
                      help="half-plane ground norm exponent (>= 1 or 'inf')")
    dist.add_argument("--extended", action="store_true",
                      help="allow infinite deaths in the half plane")
    dist.add_argument("--metric-kind", default="hausdorff",
                      choices=["hausdorff", "dissimilarity"],
                      help="metric on intervals")
    dist.add_argument("--alphabet", help="anagram alphabet, first character blank")
    dist.add_argument("--generators", type=json.loads, help="stargraph generators as JSON")
    dist.add_argument("--zero", type=json.loads, help="stargraph basepoint as JSON")
    dist.add_argument("--matching", action="store_true",
                      help="include a realizing matching")
    dist.add_argument("--certificate", action="store_true",
                      help="include the Kantorovich-Rubinstein certificate (p = 1)")
    dist.set_defaults(func=cmd_distance)

    ana = sub.add_parser("anagram", help="anagram distance between two words")
    ana.add_argument("words", nargs=2, metavar="WORD")
    ana.add_argument("--alphabet", help="alphabet, first character blank")
    ana.set_defaults(func=cmd_anagram)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", default="all", help="suite name, or 'all' (default)")
    ver.add_argument("--seed", type=int, default=None,
                     help="PRNG seed (default: PDMETRIC_SEED or a fixed constant)")
    ver.add_argument("--samples", type=int, default=None,
                     help="override the suite's main instance count")
    ver.set_defaults(func=cmd_verify)

    spc = sub.add_parser("spaces", help="list known space ids")
    spc.add_argument("action", choices=["list"])
    spc.set_defaults(func=cmd_spaces)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

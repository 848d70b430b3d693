"""``python -m repro.check`` — the correctness-tooling CLI.

Subcommands::

    python -m repro.check explore [--sends 2,2] [--recvs 2,2] [--ring 2]
                                  [--mode dynamic] [--mutation NAME]
                                  [--state-limit N] [--no-shrink]
                                  [--json counterexample.json]
    python -m repro.check fuzz    [--seeds 50] [--first-seed 0]
                                  [--messages N] [--json counterexample.json]
    python -m repro.check audit   TRACE.csv [--spans]
    python -m repro.check replay  COUNTEREXAMPLE.json

Exit status is 0 when every check passes and 1 when a violation was found
(for ``replay``: 0 when the counterexample reproduces).  ``--json`` writes
the shrunk counterexample for artifact upload / later replay.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .audit import audit_csv, audit_spans
from .counterexample import Counterexample, replay
from .explorer import DEFAULT_STATE_LIMIT, explore, shrink
from .fuzz import FuzzCase, run_fuzz
from .model import ExploreScope
from .mutations import MUTATIONS


def _parse_sends(text: str):
    return tuple(int(x) for x in text.split(",") if x.strip())


def _parse_recvs(text: str):
    # "2,2" or "2w,2" — a trailing 'w' marks MSG_WAITALL
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        waitall = tok.endswith("w")
        out.append((int(tok.rstrip("w")), waitall))
    return tuple(out)


def _emit(ce: Counterexample, json_path: Optional[str]) -> None:
    print(ce.describe(), file=sys.stderr)
    if json_path:
        ce.save(json_path)
        print(f"[counterexample written to {json_path}]", file=sys.stderr)


def _cmd_explore(args) -> int:
    scope = ExploreScope(
        sends=_parse_sends(args.sends),
        recvs=_parse_recvs(args.recvs),
        ring_capacity=args.ring,
        mode=args.mode,
        mutation=args.mutation,
    )
    result = explore(scope, state_limit=args.state_limit)
    print(result.describe())
    if result.truncated:
        return 1
    if result.violation is None:
        return 0
    ce = result.violation if args.no_shrink else shrink(result, state_limit=args.state_limit)
    _emit(ce, args.json)
    return 1


def _cmd_fuzz(args) -> int:
    # The variant flags go into the case and base scenario, so the
    # counterexample JSON alone replays the run bit for bit.
    from ..config import ScenarioConfig
    from ..verbs import ReliabilityConfig

    case = FuzzCase(messages=args.messages, transport=args.transport)
    base = ScenarioConfig()
    if args.reliability_mode:
        profile = base.resolve_profile()
        base = base.with_(reliability=ReliabilityConfig.for_path(
            profile.propagation_delay_ns + profile.emulator_delay_ns,
            mode=args.reliability_mode,
        ))
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    def progress(seed, outcome):
        mark = "ok" if outcome.ok else "FAIL"
        print(f"  seed {seed}: {mark} {outcome.fingerprint or outcome.error}",
              file=sys.stderr)

    report = run_fuzz(seeds, case, base, progress=progress if args.verbose else None)
    print(report.describe())
    if report.ok:
        return 0
    _emit(report.failures[0], args.json)
    return 1


def _cmd_audit(args) -> int:
    with open(args.trace) as fh:
        report = audit_csv(fh)
    violations = list(report.violations)
    if args.spans:
        with open(args.trace) as fh:
            from ..trace import events_from_csv

            violations += audit_spans(events_from_csv(fh))
    print(report.describe())
    if args.spans:
        extra = violations[len(report.violations):]
        if extra:
            for v in extra:
                print(f"  - {v}")
        else:
            print("span audit ok")
    return 0 if not violations else 1


def _cmd_replay(args) -> int:
    ce = Counterexample.load(args.counterexample)
    outcome = replay(ce)
    print(("reproduced: " if outcome.reproduced else "NOT reproduced: ") + outcome.message)
    return 0 if outcome.reproduced else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Model-check, fuzz, or audit the stream protocol.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("explore", help="exhaust all interleavings of a small scope")
    p.add_argument("--sends", default="2,2", help="send sizes, e.g. 2,2 (bytes each)")
    p.add_argument("--recvs", default="2,2",
                   help="recv lengths, 'w' suffix = MSG_WAITALL (e.g. 4w,2)")
    p.add_argument("--ring", type=int, default=2, help="intermediate-buffer capacity")
    p.add_argument("--mode", default="dynamic",
                   choices=("dynamic", "direct", "indirect"))
    p.add_argument("--mutation", choices=sorted(MUTATIONS), default=None,
                   help="inject a named bug (the checker should catch it)")
    p.add_argument("--state-limit", type=int, default=DEFAULT_STATE_LIMIT)
    p.add_argument("--no-shrink", action="store_true",
                   help="skip the scope-shrinking pass on violations")
    p.add_argument("--json", help="write the counterexample JSON here")
    p.set_defaults(fn=_cmd_explore)

    p = sub.add_parser("fuzz", help="seeded schedule-permutation fuzz of the full stack")
    p.add_argument("--seeds", type=int, default=50, help="number of schedule seeds")
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--messages", type=int, default=48, help="messages per run")
    p.add_argument("--transport", choices=("wwi", "eager_rendezvous"), default=None,
                   help="force the EXS transport (default: wwi)")
    p.add_argument("--reliability-mode", choices=("gobackn", "selective_repeat"),
                   default=None,
                   help="run with RC reliability in this mode "
                        "(default: no reliability layer)")
    p.add_argument("--verbose", action="store_true", help="print per-seed outcomes")
    p.add_argument("--json", help="write the first failing counterexample here")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("audit", help="re-verify invariants over a trace CSV")
    p.add_argument("trace", help="ProtocolTracer.to_csv export")
    p.add_argument("--spans", action="store_true",
                   help="also lift and audit repro.obs message spans")
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("replay", help="re-execute a counterexample JSON")
    p.add_argument("counterexample", help="path written by explore/fuzz --json")
    p.set_defaults(fn=_cmd_replay)

    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    if args.command is None:
        parser.print_help()
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

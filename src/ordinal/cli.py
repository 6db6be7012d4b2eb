"""Command-line surface. Exit codes: 0 all audits pass, 1 violations found,
2 input or usage errors. Output is deterministic for identical inputs."""
from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import NotQuantifiable, NotSynchronized, OrdinalError

# COMMANDS, at the end of this module, is the one declaration of each command:
# its handler, its help and its flags. build_parser adds the commands of only
# the group that a run names, and run dispatches from the same table.
# Each command imports the modules it uses when it runs, and the tables below
# name package exports, which the package imports on first use (PEP 562) when
# a command looks them up, so a run never compiles the modules of the commands
# it does not run.

# rule -> (audit, whether it audits w(x | y) = v(x ^ y) / v(y) instead of v,
# whether it takes --tol)
AUDITS = {
    "sum": ("check_sum_rule", False, True),
    "bisum": ("check_bivaluation_sum_rule", True, True),
    "chain": ("check_chain_rule", True, True),
    "diamond": ("check_diamond_lemma", True, True),
    "context": ("check_context_product_rule", True, True),
    "monotone": ("check_monotone", False, False),  # an order check, at tolerance 0
}
RULE_CHECKS = tuple(AUDITS)
DEFAULT_RULES = "sum,bisum,chain,diamond,context"

# poset kind -> (generator, the flag that gives its argument)
GENERATORS = {
    "boolean": ("boolean_lattice", "atoms"),
    "partition": ("partition_lattice", "atoms"),
    "divisors": ("divisor_lattice", "n"),
    "grid": ("causal_grid_poset", "n"),
}


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of every group, with the commands of only the group that
    argv names: the top-level help and its errors list each group, and a
    run parses one. Top-level flags take no value, so the first argument
    that names a group is the group."""
    parser = argparse.ArgumentParser(prog="ordinal", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="group", required=True)
    named = next((a for a in argv if a in GROUPS), None)
    for group, text in GROUPS.items():
        sub = top.add_parser(group, help=text)
        if group != named:
            continue
        commands = sub.add_subparsers(dest="command", required=True)
        for (in_group, name), (_, text, flags) in COMMANDS.items():
            if in_group == group:
                command = commands.add_parser(name, help=text)
                for flag, options in flags:
                    command.add_argument(flag, **options)
    return parser


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_payload(args, payload, text_lines) -> None:
    """Write payload() as JSON or text_lines() as text, as --format asks;
    only the requested form is built."""
    from .serialize import dumps_canonical

    if args.format == "json":
        _emit(args, dumps_canonical(payload()))
    else:
        _emit(args, "\n".join(text_lines()) + "\n")


def _two_ids(text: str, what: str) -> list[str]:
    ids = [s for s in text.split(",") if s]
    if len(ids) != 2:
        raise OrdinalError(f"--{what}s needs exactly two {what} ids")
    return ids


def _cmd_poset_check(args) -> int:
    from .poset import verify_consistency_relations
    from .serialize import load_poset

    p = load_poset(args.input)
    cert = p.is_lattice()
    report = verify_consistency_relations(p) if cert.is_lattice else None

    def payload():
        doc = {"elements": len(p), "covers": len(p.covers), "certificate": cert.to_dict()}
        if report:
            doc["consistency"] = report.to_dict()
        return doc

    def lines():
        head = [f"elements: {len(p)}", f"covers: {len(p.covers)}",
                f"lattice: {'yes' if cert.is_lattice else 'no'}"]
        if report:
            return head + report.text_lines()
        return head + [f"witness: {cert.witness[0]}, {cert.witness[1]}"]
    _emit_payload(args, payload, lines)
    return 0 if report and report.passed else 1


def _cmd_poset_dot(args) -> int:
    from .serialize import load_poset, poset_to_dot

    _emit(args, poset_to_dot(load_poset(args.input)))
    return 0


def _cmd_poset_gen(args) -> int:
    from .serialize import dumps_canonical

    generator, flag = GENERATORS[args.kind]
    arg = getattr(args, flag)
    if arg in (None, ""):
        raise OrdinalError(f"gen {args.kind} requires --{flag}")
    if flag == "atoms":
        arg = [a for a in arg.split(",") if a]
    _emit(args, dumps_canonical(getattr(sys.modules[__package__], generator)(arg).to_dict()))
    return 0


def _load_audit_valuation(args):
    """The valuation.Valuation that the audit flags name."""
    from .serialize import load_atom_values, load_poset, load_valuation
    from .valuation import Valuation, derive_valuation_from_atoms

    # --valuation names its own poset and values, and --atoms and --values
    # are two readings of one file: either flag of a pair would be ignored
    for first, second in (("valuation", "poset"), ("valuation", "atoms"),
                          ("valuation", "values"), ("atoms", "values")):
        if getattr(args, first) is not None and getattr(args, second) is not None:
            raise OrdinalError(f"rules audit takes --{first} or --{second}, not both")
    if args.valuation:
        return load_valuation(args.valuation)
    if not args.poset:
        raise OrdinalError("rules audit needs --valuation, or --poset with "
                           "--atoms or --values")
    p = load_poset(args.poset)
    if args.atoms:
        return derive_valuation_from_atoms(p, load_atom_values(args.atoms))
    if args.values:
        return Valuation(p, load_atom_values(args.values))
    raise OrdinalError("rules audit needs --atoms or --values alongside --poset")


def _cmd_rules_audit(args) -> int:
    from .valuation import bivaluation_from_valuation, require_tolerance

    v = _load_audit_valuation(args)
    requested = [r for r in args.rules.split(",") if r]
    unknown = [r for r in requested if r not in AUDITS]
    if unknown:
        raise OrdinalError(f"unknown rules {unknown}; choose from {RULE_CHECKS}")
    if not requested:
        raise OrdinalError(f"rules audit needs at least one rule; choose from {RULE_CHECKS}")
    tol = args.tol
    require_tolerance(tol)
    audits = [AUDITS[r] for r in requested]
    w = (bivaluation_from_valuation(v, tol, validate=False)
         if any(on_w for _, on_w, _ in audits) else None)
    reports = []
    for name, on_w, with_tol in audits:
        audit, subject = getattr(sys.modules[__package__], name), (w if on_w else v)
        reports.append(audit(subject, tol) if with_tol else audit(subject))
    passed = all(r.passed for r in reports)
    _emit_payload(args, lambda: {"tolerance": tol, "passed": passed,
                                 "reports": [r.to_dict() for r in reports]},
                  lambda: [line for r in reports for line in r.text_lines()]
                  + [f"overall: {'PASS' if passed else 'FAIL'}"])
    return 0 if passed else 1


def _cmd_info_entropy(args) -> int:
    from .information import partition_entropy
    from .partitions import Partition
    from .serialize import load_distribution

    d = load_distribution(args.dist)
    part = Partition.parse(args.partition)
    h = partition_entropy(part, d)
    _emit_payload(args, lambda: {"partition": part.literal(), "entropy_bits": h},
                  lambda: [f"H({part.literal()}) = {h} bits"])
    return 0


def _cmd_info_mutual(args) -> int:
    from .information import mutual_information
    from .partitions import Partition
    from .serialize import load_distribution

    d = load_distribution(args.dist)
    a, b = Partition.parse(args.a), Partition.parse(args.b)
    rep = mutual_information(a, b, d)
    _emit_payload(args, lambda: {"a": a.literal(), "b": b.literal(), **rep.to_dict()},
                  lambda: [f"H(A) = {rep.h_a} bits", f"H(B) = {rep.h_b} bits",
                           f"H(joint) = {rep.h_joint} bits", f"I(A;B) = {rep.mi} bits"])
    return 0


def _cmd_st_project(args) -> int:
    from .serialize import load_scene
    from .spacetime import project

    scene = load_scene(args.scene)
    e = scene.event(args.event)
    c = scene.chain(args.chain)
    try:
        index = project(e, c)
    except NotQuantifiable as exc:
        _emit_payload(args, lambda: {"event": args.event, "chain": args.chain,
                                     "quantifiable": False, "reason": str(exc)},
                      lambda: [f"not quantifiable: {exc}"])
        return 1
    _emit_payload(args, lambda: {"event": args.event, "chain": args.chain,
                                 "quantifiable": True, "index": index,
                                 "label": str(c.label_of(index))},
                  lambda: [f"{args.event} -> {args.chain}[{index}] (label {c.label_of(index)})"])
    return 0


def _cmd_st_sync(args) -> int:
    from .serialize import load_scene
    from .spacetime import check_synchronized

    scene = load_scene(args.scene)
    names = _two_ids(args.chains, "chain")
    try:
        lo, hi = map(int, args.range.split(","))
    except ValueError:
        raise OrdinalError(f"--range needs two integers lo,hi, got {args.range!r}") from None
    ok = check_synchronized(scene.chain(names[0]), scene.chain(names[1]), (lo, hi))
    _emit_payload(args, lambda: {"chains": names, "range": [lo, hi], "synchronized": ok},
                  lambda: [f"{names[0]} and {names[1]} over [{lo}, {hi}]: "
                           f"{'synchronized' if ok else 'NOT synchronized'}"])
    return 0 if ok else 1


def _cmd_st_interval(args) -> int:
    from .serialize import load_scene
    from .spacetime import interval_pair

    if args.frames is not None and args.chains is not None:
        raise OrdinalError("spacetime interval takes --frames or --chains, not both")
    scene = load_scene(args.scene)
    names = _two_ids(args.events, "event")
    e1, e2 = scene.event(names[0]), scene.event(names[1])

    if args.chains:
        pair = _two_ids(args.chains, "chain")
        frames = [("-".join(pair), scene.chain(pair[0]), scene.chain(pair[1]))]
    else:
        frames = [(f, *scene.frame(f)) for f in (args.frames or "").split(",") if f]
    if not frames:
        raise OrdinalError("interval needs a frame id in --frames, or --chains")

    rows = []
    for name, p, q in frames:
        try:
            rows.append({"frame": name, **interval_pair(e1, e2, p, q).to_dict()})
        except NotSynchronized as exc:
            rows.append({"frame": name, "error": str(exc)})
    invariant = all("ds2" in row for row in rows) and len({row["ds2"] for row in rows}) == 1

    def lines():
        header = ("frame", "dp", "dq", "dt", "dx", "ds2")
        cells = []
        for row in rows:
            if "error" in row:
                cells.append([row["frame"], "error: " + row["error"], "", "", "", ""])
            else:
                cells.append([row[col] for col in header])
        widths = [max(len(str(c[i])) for c in [header] + cells) for i in range(len(header))]
        table = ["  ".join(str(col).ljust(widths[i]) for i, col in enumerate(header))]
        table += ["  ".join(str(row[i]).ljust(widths[i]) for i in range(len(header)))
                  for row in cells]
        return table + [f"invariant: {'yes' if invariant else 'no'}"]
    _emit_payload(args, lambda: {"events": names, "rows": rows, "invariant": invariant},
                  lines)
    return 0 if invariant else 1


GROUPS = {
    "poset": "build, validate, and export posets",
    "rules": "audit valuation constraint rules",
    "info": "partition entropy and mutual information",
    "spacetime": "projections, synchronization, intervals",
}

NEEDED = dict(required=True)
OUTPUT = ("--output", dict(help="write here instead of stdout"))
# the flags of every command that writes a report
REPORT = (("--format", dict(choices=("json", "text"), default="json")), OUTPUT)

# (group, command) -> (handler, help, flags as (name, add_argument options)),
# in the order the help lists them
COMMANDS = {
    ("poset", "check"): (_cmd_poset_check, "validate and certify a poset file",
                         [("--input", NEEDED), *REPORT]),
    ("poset", "export-dot"): (_cmd_poset_dot, "emit a DOT cover diagram",
                              [("--input", NEEDED), OUTPUT]),
    ("poset", "gen"): (_cmd_poset_gen, "emit a generated poset as JSON",
                       [("kind", dict(choices=tuple(GENERATORS))),
                        ("--atoms", dict(help="comma-separated atom tokens")),
                        ("--n", dict(type=int)), OUTPUT]),
    ("rules", "audit"): (_cmd_rules_audit, "run rule audits over a valuation",
                         [("--poset", {}), ("--atoms", dict(help="atom-weight JSON file")),
                          ("--values", dict(help="total-valuation JSON file")),
                          ("--valuation", dict(help="self-contained valuation document")),
                          ("--rules", dict(default=DEFAULT_RULES)),
                          ("--tol", dict(type=float, default=1e-9)), *REPORT]),
    ("info", "entropy"): (_cmd_info_entropy, "entropy of a partition, in bits",
                          [("--dist", NEEDED), ("--partition", NEEDED), *REPORT]),
    ("info", "mutual"): (_cmd_info_mutual, "mutual information of two partitions",
                         [("--dist", NEEDED), ("--a", NEEDED), ("--b", NEEDED), *REPORT]),
    ("spacetime", "project"): (_cmd_st_project, "project an event onto a chain",
                               [("--scene", NEEDED), ("--event", NEEDED),
                                ("--chain", NEEDED), *REPORT]),
    ("spacetime", "sync"): (_cmd_st_sync, "check two chains over an index window", [
        ("--scene", NEEDED),
        ("--chains", dict(required=True, help="two chain ids, comma-separated")),
        ("--range", dict(required=True, help="lo,hi inclusive index window")), *REPORT]),
    ("spacetime", "interval"): (_cmd_st_interval, "interval of two events in each frame",
                                [("--scene", NEEDED),
                                 ("--events", dict(required=True, help="two event ids")),
                                 ("--frames", dict(help="frame ids from the scene")),
                                 ("--chains", dict(help="two chain ids")), *REPORT]),
}


def run(argv) -> int:
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return COMMANDS[(args.group, args.command)][0](args)
    # ValueError: a rejected argument; ArithmeticError: a value that overflows,
    # such as an int too large for a float
    except (OrdinalError, OSError, ValueError, ArithmeticError) as exc:
        print(f"ordinal: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # exit 1 would read as "violations found"
        print("ordinal: error: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

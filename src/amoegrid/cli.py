"""Command-line front end.

    amoegrid decompose FILE [--mode central|distributed|both] [--seed N]
                            [--nhat N] [--verify] [--svg P] [--json P]
                            [--trace] [--holes K] [--gen N] [--bench n1,n2,..]

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 distributed timeout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .decompose import Decomposition, decompose
from .errors import AmoegridError, DomainError, InvalidStructureError, RoundBudgetExceeded
from .generator import generate_random
from .grid import AmoebotStructure
from .oracle import verify_decomposition
from .svgout import emit_svg

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_TIMEOUT = 3


def load_structure(path) -> AmoebotStructure:
    text = Path(path).read_text(encoding="utf-8-sig")
    return AmoebotStructure.from_text(text)


def decomposition_payload(decomposition: Decomposition, report=None, trace=None) -> dict:
    ix = decomposition.regions[0].index  # the structure's index, which every region shares
    payload = {
        "regions": [
            {
                "id": r.id,
                "nodes": [[p.a, p.b] for p in sorted(r.nodes)],
                "edges": [
                    [[u.a, u.b], [v.a, v.b]] for u, v in sorted(r.edges)
                ],
            }
            for r in decomposition.regions
        ],
        "gates": [
            {
                "axis": g.axis.value,
                "side": g.side,
                "nodes": [[int(ix.a[i]), int(ix.b[i])] for i in g.rows],
            }
            for g in decomposition.phase1_gates
        ],
        "holes": decomposition.hole_count,
        "phase1_regions": decomposition.phase1_region_count,
        "tunnels": decomposition.tunnel_count,
    }
    if report is not None:
        payload["verification"] = {
            "ok": report.all_ok,
            "coverage_ok": report.coverage_ok,
            "distance_identity_ok": report.distance_identity_ok,
            "bound_checks": dict(sorted(report.bound_checks.items())),
            "counts": report.counts,
            "failing_regions": [r.region_id for r in report.regions if not r.ok],
        }
    if trace is not None:
        payload["trace"] = {
            "seed": trace.seed,
            "nhat": trace.nhat,
            "phase_rounds": [
                trace.phase_rounds.get(k, 0) for k in ("phase1", "phase2", "phase3")
            ],
            "total": trace.rounds,
        }
    return payload


def emit_json(decomposition, report, trace, path) -> None:
    payload = decomposition_payload(decomposition, report, trace)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, separators=(",", ": "))
        fh.write("\n")


def bench_structures(sizes: str, seeds: int) -> list[tuple[int, int, int, AmoebotStructure]]:
    """(n, holes, seed, structure) for each size and seed of a round-count sweep.

    ``sizes`` is the comma-separated ``--bench`` list; each size gets one
    hole per 128 nodes.  Raises ValueError or AmoegridError on invalid input.
    """
    try:
        ns = [int(tok) for tok in sizes.split(",") if tok]
    except ValueError:
        raise ValueError(f"--bench takes comma-separated sizes, not {sizes!r}") from None
    if not ns:
        raise ValueError("--bench needs at least one size")
    if seeds < 1:
        raise ValueError(f"--bench-seeds must be at least 1, not {seeds}")
    rows = []
    for n in ns:
        holes = max(1, n // 128)
        for seed in range(seeds):
            rows.append((n, holes, seed, generate_random(n, holes, seed)))
    return rows


def run_bench(structures, out) -> None:
    from .distalgo import run_distributed

    rows = []
    for n, holes, seed, structure in structures:
        outcome = run_distributed(structure, seed=seed)
        tr = outcome.trace
        rows.append(
            (
                n,
                holes,
                seed,
                tr.phase_rounds.get("phase1", 0),
                tr.phase_rounds.get("phase2", 0),
                tr.phase_rounds.get("phase3", 0),
                tr.rounds,
                tr.rounds / math.log2(max(n, 2)),
            )
        )
    ratios = sorted(r[-1] for r in rows)
    median = ratios[len(ratios) // 2]
    print("n holes seed phase1 phase2 phase3 total rounds_per_log2n flag", file=out)
    for row in rows:
        flag = "HIGH" if row[-1] > 3 * median else "ok"
        print(
            "%d %d %d %d %d %d %d %.2f %s" % (*row, flag),
            file=out,
        )


def invalid_input(exc: Exception) -> int:
    print(f"invalid input: {exc}", file=sys.stderr)
    return EXIT_INVALID_INPUT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="amoegrid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    dec = sub.add_parser("decompose", help="decompose a structure file")
    dec.add_argument("file", nargs="?", help="structure file (one 'a b' pair per line)")
    dec.add_argument("--mode", choices=("central", "distributed", "both"), default="central")
    dec.add_argument("--seed", type=int, default=None)
    dec.add_argument("--nhat", type=int, default=None)
    dec.add_argument("--verify", action="store_true")
    dec.add_argument("--svg", metavar="PATH")
    dec.add_argument("--json", metavar="PATH")
    dec.add_argument("--trace", action="store_true")
    dec.add_argument("--gen", type=int, metavar="N", help="generate a random structure of N nodes")
    dec.add_argument("--holes", type=int, default=0, help="inner holes for --gen")
    dec.add_argument("--save", metavar="PATH", help="write the (generated) structure")
    dec.add_argument("--bench", metavar="N1,N2,..", help="round-count sweep over sizes")
    dec.add_argument("--bench-seeds", type=int, default=5)
    args = parser.parse_args(argv)

    if args.bench:
        try:
            structures = bench_structures(args.bench, args.bench_seeds)
        except (ValueError, AmoegridError) as exc:
            return invalid_input(exc)
        run_bench(structures, sys.stdout)
        return EXIT_OK

    if args.mode in ("distributed", "both") and args.seed is None:
        parser.error("--mode distributed requires --seed")

    try:
        if args.nhat is not None and args.nhat < 1:
            raise DomainError(f"--nhat must be at least 1, not {args.nhat}")
        if args.gen is not None:
            structure = generate_random(args.gen, args.holes, args.seed or 0)
        elif args.file:
            structure = load_structure(args.file)
        else:
            parser.error("either FILE or --gen is required")
        if args.nhat is not None and args.nhat < structure.n:
            raise DomainError(f"--nhat must be at least n = {structure.n}, not {args.nhat}")
    except (InvalidStructureError, OSError, UnicodeDecodeError, AmoegridError) as exc:
        return invalid_input(exc)

    if args.save:
        try:
            Path(args.save).write_text(structure.to_text(), encoding="utf-8")
        except OSError as exc:
            return invalid_input(exc)

    trace = None
    try:
        if args.mode == "central":
            deco = decompose(structure)
        else:
            from .distalgo import run_distributed

            outcome = run_distributed(structure, seed=args.seed, nhat=args.nhat)
            deco, trace = outcome.decomposition, outcome.trace
            if args.mode == "both":
                central = decompose(structure)
                if central.canonical() != deco.canonical():
                    print("engines disagree", file=sys.stderr)
                    return EXIT_VERIFY_FAILED
    except RoundBudgetExceeded as exc:
        print(f"distributed timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT

    report = None
    if args.verify:
        report = verify_decomposition(structure, deco)
        for line in report.summary_lines():
            print(line)

    print(
        f"n={structure.n} holes={deco.hole_count} regions={len(deco.regions)} "
        f"tunnels={deco.tunnel_count}"
    )
    if trace is not None and args.trace:
        sys.stdout.write(trace.export_text())

    try:
        if args.svg:
            emit_svg(structure, deco, args.svg)
        if args.json:
            emit_json(deco, report, trace, args.json)
    except OSError as exc:
        return invalid_input(exc)

    if report is not None and not report.all_ok:
        return EXIT_VERIFY_FAILED
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

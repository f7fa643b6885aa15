"""Deterministic SVG rendering of structures and decompositions.

Nodes are circles at the plane embedding; regions cycle through a fixed
palette, retained edges are drawn per region, gate chains get a heavy
distinct stroke and split nodes a double ring.  Output is byte-stable for
a given decomposition.
"""

from __future__ import annotations

from .decompose import Decomposition
from .grid import AmoebotStructure, GridPoint

PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)
SCALE = 24.0
RADIUS = 6.0


def _xy(p: GridPoint, b_max: int) -> tuple[float, float]:
    x, y = p.render_xy
    return SCALE * x, SCALE * (b_max * 0.8660254037844386 - y)


def render_svg(structure: AmoebotStructure, decomposition: Decomposition | None) -> str:
    nodes = structure.index.nodes  # sorted, so a node's row indexes it
    b_max = max(p.b for p in nodes)
    xs = [_xy(p, b_max)[0] for p in nodes]
    ys = [_xy(p, b_max)[1] for p in nodes]
    pad = 2 * SCALE
    x0, y0 = min(xs) - pad, min(ys) - pad
    width = max(xs) - min(xs) + 2 * pad
    height = max(ys) - min(ys) + 2 * pad

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0:.1f} {y0:.1f} '
        f'{width:.1f} {height:.1f}">',
        '<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="white"/>'
        % (x0, y0, width, height),
    ]

    if decomposition is None:
        parts.append('<g stroke="#888" stroke-width="1.5">')
        for u, v in sorted(structure.edges()):
            ax, ay = _xy(u, b_max)
            bx, by = _xy(v, b_max)
            parts.append(f'<line x1="{ax:.1f}" y1="{ay:.1f}" x2="{bx:.1f}" y2="{by:.1f}"/>')
        parts.append("</g>")
        parts.append('<g fill="#444">')
        for p in nodes:
            cx, cy = _xy(p, b_max)
            parts.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{RADIUS:.1f}"/>')
        parts.append("</g>")
    else:
        split_rows = set()
        for r in decomposition.regions:
            color = PALETTE[r.id % len(PALETTE)]
            parts.append(f'<g stroke="{color}" stroke-width="2.0">')
            for u, v in sorted(r.edges):
                ax, ay = _xy(u, b_max)
                bx, by = _xy(v, b_max)
                parts.append(
                    f'<line x1="{ax:.1f}" y1="{ay:.1f}" x2="{bx:.1f}" y2="{by:.1f}"/>'
                )
            parts.append("</g>")
        for r in decomposition.regions:
            color = PALETTE[r.id % len(PALETTE)]
            parts.append(f'<g stroke="{color}" stroke-width="5.0" stroke-linecap="round">')
            for g in r.gates:
                chain = [nodes[i] for i in g.rows]
                for u, v in zip(chain, chain[1:]):
                    ax, ay = _xy(u, b_max)
                    bx, by = _xy(v, b_max)
                    parts.append(
                        f'<line x1="{ax:.1f}" y1="{ay:.1f}" x2="{bx:.1f}" y2="{by:.1f}"/>'
                    )
                if len(chain) == 1:
                    cx, cy = _xy(chain[0], b_max)
                    parts.append(
                        f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="4.0" fill="none"/>'
                    )
            parts.append("</g>")
        for case in decomposition.tunnel_cases:
            split_rows.update((case.g, case.g_prime))
            for info in (case.x, case.z):
                if info is not None:
                    split_rows.update((info.b_upper, info.b_lower, info.b_near, info.b_far))
            split_rows.update(mi.b_node for mi in case.medians.values())
        parts.append('<g fill="#333">')
        for p in nodes:
            cx, cy = _xy(p, b_max)
            parts.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{RADIUS * 0.55:.1f}"/>')
        parts.append("</g>")
        parts.append('<g fill="none" stroke="#111" stroke-width="1.2">')
        split_rows.discard(None)
        for i in sorted(split_rows):
            cx, cy = _xy(nodes[i], b_max)
            parts.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{RADIUS:.1f}"/>')
            parts.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{RADIUS + 2.5:.1f}"/>')
        parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(structure: AmoebotStructure, decomposition: Decomposition | None, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(structure, decomposition))

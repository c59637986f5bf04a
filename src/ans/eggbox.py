"""Egg-box diagrams: one block per D-class, R-class rows by L-class columns.

Cells are H-classes; idempotent elements carry a star.  Blocks, rows and
columns are ordered by the canonical order of their least element, so all
three output formats (text grid, GraphViz DOT with one cluster per
D-class, JSON) are deterministic.  `build_eggbox` calls `green_brute` only,
asking it for the J-order among J-classes, which no other caller builds,
and draws the covers from it.
"""

import json
from dataclasses import dataclass
from typing import Tuple

from ._numpy import np
from . import maps
from .closure import NearSemiring
from .green import green_brute


@dataclass
class Box:
    """One D-class: members plus its R x L grid of H-class cells."""
    index: int
    members: Tuple[int, ...]
    cells: Tuple[Tuple[Tuple[int, ...], ...], ...]

    @property
    def empty_cells(self) -> int:
        return sum(1 for row in self.cells for cell in row if not cell)


@dataclass
class EggBox:
    n: int
    label: str
    tokens: Tuple[str, ...]
    idempotent: Tuple[bool, ...]
    boxes: Tuple[Box, ...]
    covers: Tuple[Tuple[int, int], ...]  # (upper box, lower box), 0-based

    @property
    def star_count(self) -> int:
        return sum(self.idempotent)


def _j_order_covers(order) -> Tuple[Tuple[int, int], ...]:
    """Hasse covers of the J-order on J-classes, from order[a, b], class a
    at or below class b: the pairs a < b with nothing between, where the b
    over some c over a are the OR of the packed rows of the c over a, which
    are unpacked a block at a time."""
    at = np.arange(len(order))
    rows = np.packbits(order, axis=1)  # rows[a]: the b at or above a, then strictly above
    rows[at, at // 8] &= ~(np.uint8(0x80) >> (at % 8).astype(np.uint8))
    covers = []
    for i in maps.row_blocks(at, len(order)):
        below = np.unpackbits(rows[i], axis=1, count=len(order)).view(bool)  # [a, b]: a < b
        through = np.array([np.bitwise_or.reduce(rows[r]) for r in below], np.uint8)
        a, b = np.nonzero(below & ~np.unpackbits(through, axis=1, count=len(order)).view(bool))
        covers += zip(b.tolist(), (a + i[0]).tolist())
    return tuple(sorted(covers))


def build_eggbox(ns: NearSemiring, label: str) -> EggBox:
    sg = ns.reduct(label)
    gs = green_brute(sg, j_order=True)
    r_of, l_of = (gs.labels[rel].tolist() for rel in "RL")  # each class's least member
    cell = {(r_of[c[0]], l_of[c[0]]): c for c in gs.classes["H"]}  # an H-class, R and L together
    boxes = []
    for index, members in enumerate(gs.classes["D"], 1):  # an R-class lies in one D-class
        rows, cols = (sorted({of[i] for i in members}) for of in (r_of, l_of))
        boxes.append(Box(index, members, tuple(
            tuple(cell.get((rc, lc), ()) for lc in cols) for rc in rows)))
    return EggBox(sg.n, label, tuple(maps.tokens(range(len(sg)), sg.n)), gs.idempotent,
                  tuple(boxes), _j_order_covers(gs.j_order))


def _cell_text(eb: EggBox, cell) -> str:
    if not cell:
        return "."
    return " ".join(eb.tokens[i] + ("*" if eb.idempotent[i] else "") for i in cell)


def _plural(k: int, word: str) -> str:
    if k == 1:
        return f"{k} {word}"
    return f"{k} {word}" + ("es" if word.endswith("s") else "s")


def eggbox_text(eb: EggBox) -> str:
    lines = [f"egg-box diagram: {eb.label} reduct, n={eb.n} "
             f"({_plural(len(eb.tokens), 'element')}, "
             f"{_plural(len(eb.boxes), 'D-class')}, {eb.star_count} starred)"]
    for box in eb.boxes:
        lines.append("")
        lines.append(f"D-class {box.index}: {_plural(len(box.members), 'element')}, "
                     f"{_plural(len(box.cells), 'R-class')} x "
                     f"{_plural(len(box.cells[0]), 'L-class')}")
        grid = [[_cell_text(eb, cell) for cell in row] for row in box.cells]
        widths = [max(len(grid[r][c]) for r in range(len(grid)))
                  for c in range(len(grid[0]))]
        rule = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        lines.append(rule)
        for row in grid:
            lines.append("| " + " | ".join(t.ljust(w) for t, w in zip(row, widths)) + " |")
            lines.append(rule)
    return "\n".join(lines) + "\n"


def _html_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def eggbox_dot(eb: EggBox) -> str:
    """GraphViz source: one cluster per D-class, covers as edges."""
    out = ["digraph eggbox {",
           f'  label="egg-box: {eb.label} reduct, n={eb.n}";',
           "  compound=true;",
           "  node [shape=plaintext];"]
    for box in eb.boxes:
        out.append(f"  subgraph cluster_d{box.index} {{")
        out.append(f'    label="D{box.index}";')
        rows = []
        for row in box.cells:
            tds = "".join(f"<TD>{_html_escape(_cell_text(eb, cell))}</TD>" for cell in row)
            rows.append(f"<TR>{tds}</TR>")
        table = ('<TABLE BORDER="0" CELLBORDER="1" CELLSPACING="0">'
                 + "".join(rows) + "</TABLE>")
        out.append(f"    d{box.index} [label=<{table}>];")
        out.append("  }")
    for upper, lower in eb.covers:
        u, l = eb.boxes[upper].index, eb.boxes[lower].index
        out.append(f"  d{u} -> d{l} [ltail=cluster_d{u}, lhead=cluster_d{l}];")
    out.append("}")
    return "\n".join(out) + "\n"


def eggbox_json(eb: EggBox) -> dict:
    return {
        "n": eb.n,
        "reduct": eb.label,
        "element_count": len(eb.tokens),
        "star_count": eb.star_count,
        "d_classes": [
            {
                "index": box.index,
                "size": len(box.members),
                "r_classes": len(box.cells),
                "l_classes": len(box.cells[0]),
                "cells": [[[eb.tokens[i] for i in cell] for cell in row]
                          for row in box.cells],
                "stars": [[any(eb.idempotent[i] for i in cell) for cell in row]
                          for row in box.cells],
                "empty_cells": box.empty_cells,
            }
            for box in eb.boxes
        ],
        "covers": [[eb.boxes[u].index, eb.boxes[l].index] for u, l in eb.covers],
    }


def render(eb: EggBox, fmt: str) -> str:
    if fmt == "text":
        return eggbox_text(eb)
    if fmt == "dot":
        return eggbox_dot(eb)
    if fmt == "json":
        return json.dumps(eggbox_json(eb), indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown egg-box format {fmt!r}")

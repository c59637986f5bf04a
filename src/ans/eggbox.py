"""Egg-box diagrams: one block per D-class, R-class rows by L-class columns.

Cells are H-classes; idempotent elements carry a star.  Blocks, rows and
columns are ordered by the canonical order of their least element, so all
three output formats (text grid, GraphViz DOT with one cluster per
D-class, JSON) are deterministic.  `build_eggbox` computes `green.ideals`
once, for both `green_brute` and the J-order covers.
"""

import json
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import maps
from .closure import NearSemiring
from .green import green_brute, ideals


@dataclass
class Box:
    """One D-class: members plus its R x L grid of H-class cells."""
    index: int
    members: Tuple[int, ...]
    r_classes: Tuple[Tuple[int, ...], ...]
    l_classes: Tuple[Tuple[int, ...], ...]
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


def _j_order_covers(two_sided: np.ndarray, reps: List[int]) -> Tuple[Tuple[int, int], ...]:
    """Hasse covers of the J-order on D-classes, from the packed two-sided
    ideal rows of `green.ideals`."""
    # row b: ideal of class b; bool, since ~ on unpacked uint8 is bitwise
    masks = np.unpackbits(two_sided[reps], axis=1, count=two_sided.shape[0]).astype(bool)
    below = masks[:, reps].T & ~np.eye(len(reps), dtype=bool)  # [a, b]: a strictly under b
    covers = below & ~(below @ below)
    return tuple(sorted((int(b), int(a)) for a, b in np.argwhere(covers)))


def build_eggbox(ns: NearSemiring, label: str) -> EggBox:
    sg = ns.reduct(label)
    ideal_rows = ideals(sg.op)
    gs = green_brute(sg, ideal_rows)
    r_of, l_of = gs.class_of["R"], gs.class_of["L"]
    boxes = []
    for bi, members in enumerate(gs.classes["D"]):
        # `green` numbers classes by least member; an R-class lies in one D-class
        rows = sorted({r_of[i] for i in members})
        cols = sorted({l_of[i] for i in members})
        cells = tuple(
            tuple(tuple(i for i in gs.classes["R"][rc] if l_of[i] == lc) for lc in cols)
            for rc in rows)
        boxes.append(Box(
            index=bi + 1,
            members=tuple(members),
            r_classes=tuple(gs.classes["R"][rc] for rc in rows),
            l_classes=tuple(gs.classes["L"][lc] for lc in cols),
            cells=cells,
        ))
    covers = _j_order_covers(ideal_rows[2], [b.members[0] for b in boxes])
    return EggBox(
        n=ns.n,
        label=label,
        tokens=tuple(maps.canonical_str(c) for c in maps.forms(ns.elements, ns.n)),
        idempotent=gs.idempotent,
        boxes=tuple(boxes),
        covers=covers,
    )


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
                     f"{_plural(len(box.r_classes), 'R-class')} x "
                     f"{_plural(len(box.l_classes), 'L-class')}")
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
                "r_classes": len(box.r_classes),
                "l_classes": len(box.l_classes),
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

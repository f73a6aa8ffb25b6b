#!/usr/bin/env python3
"""Regenerate drawing_shapes_expected.json.

The identifier inventory below was enumerated by hand from the fixture
sources, and the tag table is computed from it by the naive reference
pipeline (codecloud.evaluator.oracle_words) — not by the production
extractor/cloud code.  Tests then hold the pipeline to this table.
"""

import json
from pathlib import Path

from codecloud.evaluator import oracle_words
from codecloud.stemmer import load_lexicon

# (file, kind, simpleName, qualifiedName), in path-byte order.  Every file
# after the first repeats the package declaration, which is deduplicated
# corpus-wide, so only the first file lists it.
INVENTORY = [
    ("DrawPanel.java", "Package", "shapes", "shapes"),
    ("DrawPanel.java", "Class", "DrawPanel", "shapes.DrawPanel"),
    ("DrawPanel.java", "Attribute", "shapes", "shapes.DrawPanel.shapes"),
    ("DrawPanel.java", "Attribute", "drawColor", "shapes.DrawPanel.drawColor"),
    ("DrawPanel.java", "Method", "addShape", "shapes.DrawPanel.addShape"),
    ("DrawPanel.java", "Method", "removeShape", "shapes.DrawPanel.removeShape"),
    ("DrawPanel.java", "Method", "drawAll", "shapes.DrawPanel.drawAll"),
    ("DrawPanel.java", "Method", "getDrawColor", "shapes.DrawPanel.getDrawColor"),
    ("DrawPanel.java", "Method", "setDrawColor", "shapes.DrawPanel.setDrawColor"),
    ("DrawingShapes.java", "Class", "DrawingShapes", "shapes.DrawingShapes"),
    ("DrawingShapes.java", "Method", "main", "shapes.DrawingShapes.main"),
    ("Line.java", "Class", "Line", "shapes.Line"),
    ("Line.java", "Attribute", "length", "shapes.Line.length"),
    ("Line.java", "Method", "Line", "shapes.Line.Line"),
    ("Line.java", "Method", "drawShape", "shapes.Line.drawShape"),
    ("Oval.java", "Class", "Oval", "shapes.Oval"),
    ("Oval.java", "Attribute", "horizontalRadius", "shapes.Oval.horizontalRadius"),
    ("Oval.java", "Attribute", "verticalRadius", "shapes.Oval.verticalRadius"),
    ("Oval.java", "Method", "Oval", "shapes.Oval.Oval"),
    ("Oval.java", "Method", "drawShape", "shapes.Oval.drawShape"),
    ("Rectangle.java", "Class", "Rectangle", "shapes.Rectangle"),
    ("Rectangle.java", "Attribute", "width", "shapes.Rectangle.width"),
    ("Rectangle.java", "Attribute", "height", "shapes.Rectangle.height"),
    ("Rectangle.java", "Method", "Rectangle", "shapes.Rectangle.Rectangle"),
    ("Rectangle.java", "Method", "drawShape", "shapes.Rectangle.drawShape"),
    ("Shape.java", "Class", "Shape", "shapes.Shape"),
    ("Shape.java", "Attribute", "x", "shapes.Shape.x"),
    ("Shape.java", "Attribute", "y", "shapes.Shape.y"),
    ("Shape.java", "Attribute", "color", "shapes.Shape.color"),
    ("Shape.java", "Method", "drawShape", "shapes.Shape.drawShape"),
    ("Shape.java", "Method", "getColor", "shapes.Shape.getColor"),
    ("Shape.java", "Method", "setColor", "shapes.Shape.setColor"),
]


def main() -> None:
    lexicon = load_lexicon()
    weights: dict[str, int] = {}
    for _file, _kind, simple, _qualified in INVENTORY:
        for stem in oracle_words(simple, lexicon):
            weights[stem] = weights.get(stem, 0) + 1
    by_kind: dict[str, int] = {}
    for _file, kind, _simple, _qualified in INVENTORY:
        by_kind[kind] = by_kind.get(kind, 0) + 1
    payload = {
        "identifiers": [
            {
                "file": file,
                "kind": kind,
                "simpleName": simple,
                "qualifiedName": qualified,
            }
            for file, kind, simple, qualified in INVENTORY
        ],
        "kindCounts": by_kind,
        "tags": {stem: weights[stem] for stem in sorted(weights)},
    }
    out = Path(__file__).with_name("drawing_shapes_expected.json")
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(payload['tags'])} tags)")


if __name__ == "__main__":
    main()

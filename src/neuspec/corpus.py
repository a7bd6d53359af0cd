"""Built-in verification corpus: smooth and polygonal domains of mixed symmetry.

The three ellipses all have area pi (axes sqrt(aspect) by 1/sqrt(aspect))
so they share the disk's equal-area ball; the square and the scalene
triangle exercise the nonsmooth code paths.
"""

from .geometry import Domain, parse_domain

CORPUS: dict[str, str] = {
    "disk": "disk:0,0,1",
    "ellipse-1.2": "ellipse:1.0954451150103321,0.9128709291752769",
    "ellipse-1.5": "ellipse:1.224744871391589,0.816496580927726",
    "ellipse-2.0": "ellipse:1.4142135623730951,0.7071067811865476",
    "stadium": "stadium:0.5,0.6",
    "square": "polygon:0,0;1,0;1,1;0,1",
    "triangle": "polygon:0,0;2,0;0.4,1.1",
}


def corpus_domain(name: str) -> Domain:
    try:
        return parse_domain(CORPUS[name])
    except KeyError:
        raise KeyError(
            f"unknown corpus domain {name!r}; choices: {', '.join(CORPUS)}"
        ) from None

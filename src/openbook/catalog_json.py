"""The JSON catalog format: a surface and its curve catalog as text.

Only ``--config`` pages and callers that save or read a catalog load
this module.
"""

from __future__ import annotations

from typing import Mapping

from .freegroup import FreeAutomorphism
from .surface import Catalog, CurveConfig, SurfaceSpec


def catalog_to_json(surface: SurfaceSpec, catalog: Mapping[str, CurveConfig]) -> str:
    """Serialize a surface and catalog to the documented JSON schema."""
    curves = []
    for name, cfg in catalog.items():
        entry: dict = {
            "name": name,
            "h": list(cfg.h),
            "q": list(cfg.q),
            "p": list(cfg.p),
        }
        if cfg.boundary_parallel_to is not None:
            entry["boundary_parallel_to"] = cfg.boundary_parallel_to
        if cfg.aut is not None:
            entry["aut"] = {
                "images": [list(w) for w in cfg.aut.images],
                "inverse_images": [list(w) for w in cfg.aut.inverse_images],
            }
        curves.append(entry)
    obj = {
        "genus": surface.genus,
        "boundary": surface.boundary,
        "boundary_words": [list(w) for w in surface.boundary_words],
        "curves": curves,
    }
    import json

    return json.dumps(obj, indent=2)


# Letters a JSON curve's images and inverse images may hold together.
# Checking that the two maps invert each other costs about the product of
# their lengths, 1-2.5e-8 s per letter squared on a shared 2-vCPU host:
# at most about 0.6 s at this limit, against 10-18 s at 33k letters.  A
# builtin curve holds at most 62 letters.
MAX_AUT_LETTERS = 5000


def _ints(value, message: str, depth: int = 1):
    """A JSON list of integers (of such lists, for depth 2) as tuples.
    Only JSON integers count: ``int(x)`` would also take 1.9, true and "0"."""
    if not isinstance(value, list):
        raise ValueError(message)
    if depth > 1:
        return tuple(_ints(v, message, depth - 1) for v in value)
    if any(type(x) is not int for x in value):
        raise ValueError(message)
    return tuple(value)


def catalog_from_json(text: str) -> tuple[SurfaceSpec, Catalog]:
    """Parse the JSON schema back into a surface and catalog.

    ``boundary_words`` may be omitted, in which case the canonical
    words of the signature are used.  Every number must be a JSON
    integer, and a curve's images and inverse images may hold at most
    ``MAX_AUT_LETTERS`` letters together, checked before the two maps
    are checked against each other.
    """
    import json

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(
            f"parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    if not isinstance(obj, dict) or any(
        type(obj.get(k)) is not int for k in ("genus", "boundary")
    ):
        raise ValueError("config needs integer genus and boundary")
    genus, boundary = obj["genus"], obj["boundary"]
    surface = SurfaceSpec.standard(genus, boundary)
    if "boundary_words" in obj:
        words = _ints(obj["boundary_words"], "boundary_words must be lists of integers", 2)
        surface = SurfaceSpec(genus, boundary, words)
    catalog: Catalog = {}
    entries = obj.get("curves", [])
    if not isinstance(entries, list):
        raise ValueError("curves must be a list of curve entries")
    for entry in entries:
        try:
            name = entry["name"]
            vectors = [entry[k] for k in ("h", "q", "p")]
        except (KeyError, TypeError) as e:
            raise ValueError(f"malformed curve entry: {e}") from None
        if not isinstance(name, str):
            raise ValueError(f"curve name must be a string, got {name!r}")
        h, q, p = (
            _ints(v, f"curve {name!r}: {k} must be a list of integers")
            for k, v in zip("hqp", vectors)
        )
        aut = None
        if "aut" in entry:
            spec = entry["aut"]
            try:
                images, inverse_images = (
                    _ints(spec[k], f"{k} must be lists of integers", 2)
                    for k in ("images", "inverse_images")
                )
                letters = sum(map(len, images + inverse_images))
                if letters > MAX_AUT_LETTERS:
                    raise ValueError(
                        f"images and inverse_images hold {letters} letters; "
                        f"the limit is {MAX_AUT_LETTERS}"
                    )
                aut = FreeAutomorphism(surface.rank, images, inverse_images)
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"curve {name!r}: bad automorphism: {e}") from None
        if name in catalog:
            raise ValueError(f"duplicate curve name {name!r}")
        bpt = entry.get("boundary_parallel_to")
        if bpt is not None and type(bpt) is not int:
            raise ValueError(f"curve {name!r}: boundary_parallel_to must be an integer")
        try:
            catalog[name] = CurveConfig(h, q, p, bpt, aut)
        except ValueError as e:
            raise ValueError(f"curve {name}: {e}") from None
    return surface, catalog

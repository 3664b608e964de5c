"""Dataset and certificate serialization and content hashing.

Datasets and certificates are UTF-8 JSON.  Serialization is canonical (sorted
keys, compact separators, rationals as "num/den" strings), so emitting,
parsing, and re-emitting is byte-stable and content hashes are well defined.
Unreadable files, invalid JSON and missing or ill-typed fields all raise
ValidationError.
"""

from __future__ import annotations

import hashlib
import json
import re
from contextlib import contextmanager
from dataclasses import fields
from fractions import Fraction
from math import gcd
from typing import Optional, get_type_hints

from .errors import ValidationError
from .pipeline import BoundCertificate, SweepRow
from .trackmap import Edge, LiftedGraphMap

FORMAT_VERSION = 1  # datasets; it is part of the content that dataset_hash covers
CERT_FORMAT_VERSION = 4

SWEEP_HEADER = "alpha,n,covol2,systole2,deep_dist2,K,bound_num,bound_den,normalized"

_FRACTION = re.compile(r"-?[1-9][0-9]*/[1-9][0-9]*")


@contextmanager
def _malformed(what: str):
    """Report a missing or ill-typed field of outside input as a ValidationError."""
    try:
        yield
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError,
            ZeroDivisionError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValidationError(f"malformed {what}: {detail}") from exc


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} file: {exc}") from exc
    return _parse_json(text, what)


# -- rational scalars --------------------------------------------------------

def _num_out(v):
    if isinstance(v, bool):
        raise ValidationError("booleans are not serializable numbers")
    if v.denominator == 1:
        return v.numerator
    return f"{v.numerator}/{v.denominator}"


def json_int(v, what: str) -> int:
    """An integer of outside input, which must be a JSON integer: a float,
    a boolean or a numeric string is refused, never truncated or cast."""
    if type(v) is not int:
        raise ValidationError(f"{what} must be an integer, got {v!r}")
    return v


def json_ints(vs, what: str) -> tuple[int, ...]:
    if type(vs) is not list:
        raise ValidationError(f"{what} must be a list of integers, got {vs!r}")
    return tuple(json_int(v, what) for v in vs)


def _num_in(v, what: str) -> Fraction:
    """A rational of outside input, in the one form _num_out writes: a JSON
    integer, or a "num/den" string in lowest terms with den >= 2."""
    if type(v) is int:
        return Fraction(v)
    if not (isinstance(v, str) and _FRACTION.fullmatch(v)):
        raise ValidationError(
            f"{what}: malformed number {v!r}: expected an integer or a num/den string")
    num, den = map(int, v.split("/"))
    if den == 1:
        raise ValidationError(f"{what}: malformed number {v!r}: an integer takes no denominator")
    if gcd(num, den) != 1:
        raise ValidationError(f"{what}: malformed number {v!r}: not in lowest terms")
    return Fraction(num, den)


def _string(v, what: str) -> str:
    if type(v) is not str:
        raise ValidationError(f"{what} must be a string, got {v!r}")
    return v


def _strings(vs, what: str) -> tuple[str, ...]:
    if type(vs) is not list or not all(type(v) is str for v in vs):
        raise ValidationError(f"{what} must be a list of strings, got {vs!r}")
    return tuple(vs)


def _object(v, what: str, keys: Optional[frozenset] = None) -> dict:
    """A JSON object; when ``keys`` is given, one with no other key."""
    if type(v) is not dict:
        raise ValidationError(f"{what} must be a JSON object, got {v!r}")
    unknown = sorted(v.keys() - keys) if keys is not None else ()
    if unknown:
        raise ValidationError(f"unknown {what} key {unknown[0]!r}")
    return v


def _list(vs, what: str, length: Optional[int] = None) -> list:
    """A JSON list, of ``length`` entries when that is given."""
    if type(vs) is not list or length not in (None, len(vs)):
        shape = "a list" if length is None else f"a list of {length} entries"
        raise ValidationError(f"{what} must be {shape}, got {vs!r}")
    return vs


# -- datasets ----------------------------------------------------------------

# The keys the readers read: of an edge, of a map (the dataset and its
# inverse), and those only the dataset or the inverse section reads.
_EDGE_KEYS = frozenset(f.name for f in fields(Edge))
_MAP_KEYS = frozenset(f.name for f in fields(LiftedGraphMap)) - {"inverse"}
_DATASET_KEYS = _MAP_KEYS | {"format_version", "inverse"}


def _map_to_dict(track: LiftedGraphMap) -> dict:
    d = {
        "rank": track.rank,
        "vertices": list(track.vertices),
        "edges": [
            {"name": e.name, "src": e.src, "dst": e.dst, "voltage": list(e.voltage)}
            for e in track.edges
        ],
        "vertex_images": {
            v: [im[0], list(im[1])] for v, im in sorted(track.vertex_images.items())
        },
        "edge_images": {
            e: [[s[0], list(s[1]), s[2]] for s in path]
            for e, path in sorted(track.edge_images.items())
        },
    }
    if track.euler_functional is not None:
        d["euler_functional"] = list(track.euler_functional)
    return d


def _map_from_dict(d: dict, rank: int, inverse: Optional[LiftedGraphMap] = None) -> LiftedGraphMap:
    edges = tuple(
        Edge(_string(e["name"], "edge name"), _string(e["src"], "edge src"),
             _string(e["dst"], "edge dst"), json_ints(e["voltage"], "voltage"))
        for e in (_object(e, "edge", _EDGE_KEYS) for e in _list(d["edges"], "edges"))
    )
    vertex_images = {}
    for v, im in _object(d["vertex_images"], "vertex_images").items():
        w, shift = _list(im, f"vertex image of {v!r}", 2)
        vertex_images[v] = (w, json_ints(shift, "vertex-image shift"))
    edge_images = {}
    for e, path in _object(d["edge_images"], "edge_images").items():
        steps = (_list(s, f"step of edge image {e!r}", 3)
                 for s in _list(path, f"edge image of {e!r}"))
        edge_images[e] = tuple(
            (_string(name, "step edge"), json_ints(shift, "step shift"),
             json_int(orient, "orientation"))
            for name, shift, orient in steps)
    euler = d.get("euler_functional")
    if euler is not None:
        euler = json_ints(euler, "euler_functional")
        if len(euler) != rank + 1:
            raise ValidationError("euler_functional must have length rank + 1")
    metadata = _object(d.get("metadata", {}), "metadata")
    return LiftedGraphMap(
        rank=rank,
        vertices=_strings(d["vertices"], "vertices"),
        edges=edges,
        vertex_images=vertex_images,
        edge_images=edge_images,
        inverse=inverse,
        metadata=metadata,
        euler_functional=euler,
    )


def dataset_to_dict(track: LiftedGraphMap) -> dict:
    d = {"format_version": FORMAT_VERSION, "metadata": dict(track.metadata)}
    d.update(_map_to_dict(track))
    if track.inverse is not None:
        d["inverse"] = _map_to_dict(track.inverse)
    return d


def dataset_from_dict(d: dict) -> LiftedGraphMap:
    with _malformed("dataset"):
        d = _object(d, "dataset")
        if d.get("format_version") != FORMAT_VERSION:
            raise ValidationError(
                f"unsupported dataset format_version {d.get('format_version')!r}"
            )
        _object(d, "dataset", _DATASET_KEYS)
        rank = json_int(d["rank"], "rank")
        inverse = None
        if "inverse" in d:
            inv = _object(d["inverse"], "inverse", _MAP_KEYS)
            if json_int(inv.get("rank", rank), "rank") != rank:
                raise ValidationError("inverse section must share the dataset rank")
            inverse = _map_from_dict(inv, rank)
        return _map_from_dict(d, rank, inverse=inverse)


def canonical_json(d: dict) -> str:
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def dataset_hash(track: LiftedGraphMap) -> str:
    core = dataset_to_dict(track)
    core.pop("metadata", None)  # provenance notes don't change identity
    return hashlib.sha256(canonical_json(core).encode("utf-8")).hexdigest()


def load_dataset(path: str) -> LiftedGraphMap:
    return dataset_from_dict(_read_json(path, "dataset"))


def save_dataset(track: LiftedGraphMap, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(dataset_to_dict(track)))
        fh.write("\n")


# -- certificates ------------------------------------------------------------

def _flag(v, what: str) -> bool:
    if type(v) is not bool:
        raise ValidationError(f"{what} must be true or false")
    return v


# The certificate format is BoundCertificate's fields: per annotation, the
# reader of outside input and the writer of JSON.  A field whose annotation
# is missing here fails at import.
_CODECS = {
    int: (json_int, int),
    bool: (_flag, bool),
    str: (_string, str),
    Fraction: (_num_in, _num_out),
    tuple[int, ...]: (json_ints, list),
    tuple[str, ...]: (_strings, list),
}
_CERT_TYPES = get_type_hints(BoundCertificate)
_CERT_FIELDS = tuple((name, *_CODECS[kind]) for name, kind in _CERT_TYPES.items())


def certificate_to_dict(cert: BoundCertificate) -> dict:
    d = {name: write(getattr(cert, name)) for name, _, write in _CERT_FIELDS}
    d.update(kind="bound-certificate", format_version=CERT_FORMAT_VERSION)
    return d


def certificate_from_dict(d: dict) -> BoundCertificate:
    """Read the fields in BoundCertificate's order; the first bad one is reported."""
    with _malformed("certificate"):
        d = _object(d, "certificate")
        if d.get("kind") != "bound-certificate":
            raise ValidationError("not a bound certificate file")
        if d.get("format_version") != CERT_FORMAT_VERSION:
            raise ValidationError(
                f"unsupported certificate format_version {d.get('format_version')!r}"
                f" (expected {CERT_FORMAT_VERSION})"
            )
        cert = BoundCertificate(**{name: read(d[name], name) for name, read, _ in _CERT_FIELDS})
        unknown = sorted(d.keys() - _CERT_TYPES.keys() - {"kind", "format_version"})
        if unknown:
            raise ValidationError("unknown certificate fields: "
                                  + ", ".join(map(repr, unknown)))
        return cert


def emit_certificate(cert: BoundCertificate) -> str:
    return canonical_json(certificate_to_dict(cert)) + "\n"


def parse_certificate(text: str) -> BoundCertificate:
    return certificate_from_dict(_parse_json(text, "certificate"))


def load_certificate(path: str) -> BoundCertificate:
    return certificate_from_dict(_read_json(path, "certificate"))


# -- sweep tables ------------------------------------------------------------

def sweep_to_csv(rows: list[SweepRow]) -> str:
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                [
                    " ".join(str(v) for v in row.alpha),
                    str(row.n),
                    str(row.covol2),
                    str(row.systole2),
                    str(Fraction(row.deep_dist2)),
                    str(row.K),
                    str(row.bound.numerator),
                    str(row.bound.denominator),
                    row.normalized,
                ]
            )
        )
    return "\n".join(lines) + "\n"


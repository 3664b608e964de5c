import importlib.util
import json
from dataclasses import dataclass, fields
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from fibercert import dataio, pipeline
from fibercert.dataio import (
    SWEEP_HEADER,
    _num_in,
    _num_out,
    canonical_json,
    dataset_from_dict,
    dataset_hash,
    dataset_to_dict,
    emit_certificate,
    load_dataset,
    parse_certificate,
    save_dataset,
    sweep_to_csv,
)
from fibercert.errors import ValidationError
from fibercert.lattice import FiberedClass
from fibercert.pipeline import BoundCertificate, SweepRow, certify


# -- rational scalars ----------------------------------------------------------

def test_num_round_trip():
    assert _num_out(5) == 5
    assert _num_out(Fraction(6, 3)) == 2
    assert _num_out(Fraction(5, 11)) == "5/11"
    assert _num_in(5, "x") == 5 and type(_num_in(5, "x")) is Fraction
    assert _num_in("5/11", "x") == Fraction(5, 11)
    with pytest.raises(ValidationError, match="x: malformed number 'abc'"):
        _num_in("abc", "x")
    with pytest.raises(ValidationError):
        _num_out(True)


# -- datasets -------------------------------------------------------------------

def test_dataset_round_trip(r1, r2, tmp_path):
    for track in (r1, r2):
        d = dataset_to_dict(track)
        again = dataset_from_dict(d)
        assert dataset_hash(again) == dataset_hash(track)
        path = tmp_path / "ds.json"
        save_dataset(track, str(path))
        assert dataset_hash(load_dataset(str(path))) == dataset_hash(track)
        # Canonical serialization is byte-stable across a round trip.
        assert canonical_json(dataset_to_dict(again)) == canonical_json(d)


def test_dataset_hash_ignores_metadata(r1):
    d = dataset_to_dict(r1)
    d["metadata"] = {"name": "renamed", "note": "anything"}
    assert dataset_hash(dataset_from_dict(d)) == dataset_hash(r1)


def test_dataset_hash_tracks_content(r1):
    d = dataset_to_dict(r1)
    # The euler functional is content (unlike metadata), so changing it
    # must change the hash.
    d["euler_functional"] = [1, 2]
    assert dataset_hash(dataset_from_dict(d)) != dataset_hash(r1)


def test_dataset_validation():
    with pytest.raises(ValidationError, match="format_version"):
        dataset_from_dict({"format_version": 99})
    with pytest.raises(ValidationError, match="malformed"):
        dataset_from_dict({
            "format_version": 1, "rank": 1, "vertices": ["v"],
            "edges": [{"name": "a"}], "vertex_images": {}, "edge_images": {},
        })


def test_inverse_rank_must_match(r1):
    d = dataset_to_dict(r1)
    d["inverse"]["rank"] = 2
    with pytest.raises(ValidationError, match="rank"):
        dataset_from_dict(d)


def test_euler_functional_length_checked(r1):
    d = dataset_to_dict(r1)
    d["euler_functional"] = [1, 2, 3]
    with pytest.raises(ValidationError, match="euler"):
        dataset_from_dict(d)


def test_bundled_datasets_regenerate_byte_for_byte():
    """tools/make_datasets.py rebuilds both bundled files exactly.  Its
    main() is never called, so nothing is written."""
    path = Path(__file__).resolve().parents[1] / "tools" / "make_datasets.py"
    spec = importlib.util.spec_from_file_location("make_datasets", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for name, build in (("rose_r1.json", tool.rose_r1), ("rose_r2.json", tool.rose_r2)):
        bundled = (resources.files("fibercert") / "data" / name).read_text(encoding="utf-8")
        assert canonical_json(dataset_to_dict(build())) + "\n" == bundled, name


# Where each integer of a dataset sits, as a path of keys and indices.
DATASET_INTEGERS = [
    ("rank",), ("edges", 0, "voltage", 0), ("vertex_images", "v", 1, 0),
    ("edge_images", "a", 0, 1, 0), ("edge_images", "a", 0, 2),
    ("euler_functional", 0), ("inverse", "rank"), ("inverse", "edges", 1, "voltage", 0),
]
NOT_INTEGERS = [1.7, 1.0, True, "1"]


def _set(d, path, value):
    for key in path[:-1]:
        d = d[key]
    d[path[-1]] = value


def test_dataset_integers_must_be_json_integers(r1):
    """A float, a boolean or a numeric string where the dataset holds an
    integer is refused, never truncated or cast."""
    for path in DATASET_INTEGERS:
        for value in NOT_INTEGERS:
            d = dataset_to_dict(r1)
            _set(d, path, value)
            with pytest.raises(ValidationError, match="must be an integer"):
                dataset_from_dict(d)


# -- certificates -----------------------------------------------------------

@pytest.fixture(scope="module")
def cert(r1, r1_models, r1_hash):
    dual, cone, P = r1_models
    return certify(r1, dual, cone, P, FiberedClass((1, 9)), 12, r1_hash)


@pytest.fixture(scope="module")
def r2_cert(r2, r2_models, r2_hash):
    dual, cone, P = r2_models
    return certify(r2, dual, cone, P, FiberedClass((1, 20, 401)), 16, r2_hash,
                   allow_mirror=True)


def test_certificate_round_trip(cert, r2_cert):
    """The r1 certificate (inverse data) and the r2 one (mirror mode)
    re-emit byte for byte."""
    assert (cert.mirror, r2_cert.mirror) == (False, True)
    for c in (cert, r2_cert):
        text = emit_certificate(c)
        again = parse_certificate(text)
        assert again == c
        assert emit_certificate(again) == text  # byte-stable


CERT_FIELDS = [f.name for f in fields(BoundCertificate)]
# JSON values no certificate field holds: null, a float and objects.
NEVER_VALUES = [None, 1.5, {}, {"x": 1}]
# JSON values of every other type, each right for some field.
OTHER_VALUES = [True, 0, "x", "1/2", "", [], [1], ["x"]]


@pytest.mark.parametrize("name", CERT_FIELDS)
def test_certificate_field_is_required(cert, name):
    d = json.loads(emit_certificate(cert))
    del d[name]
    with pytest.raises(ValidationError, match=f"^malformed certificate: missing field '{name}'$"):
        parse_certificate(json.dumps(d))


@pytest.mark.parametrize("name", CERT_FIELDS)
def test_certificate_field_reads_only_what_emit_writes(cert, name):
    """A field reads a JSON value only if emit writes it back unchanged, and
    never a null, a float or an object; any other value is a ValidationError
    naming the field or the value."""
    for value in NEVER_VALUES + OTHER_VALUES:
        d = json.loads(emit_certificate(cert))
        d[name] = value
        text = canonical_json(d) + "\n"
        try:
            parsed = parse_certificate(text)
        except ValidationError as exc:
            assert name in str(exc) or f"malformed number {value!r}" in str(exc), exc
        else:
            assert value not in NEVER_VALUES and emit_certificate(parsed) == text, value


def test_certificate_first_bad_field_in_field_order_is_reported(cert):
    d = json.loads(emit_certificate(cert))
    d.update(mirror=0, n=1.5, extra=1)
    with pytest.raises(ValidationError, match="^n must be an integer, got 1.5$"):
        parse_certificate(json.dumps(d))


def _dataio_with(monkeypatch, certificate_class):
    """A fresh dataio module built for another certificate class."""
    monkeypatch.setattr(pipeline, "BoundCertificate", certificate_class)
    spec = importlib.util.spec_from_file_location("fibercert.dataio_probe", dataio.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_new_certificate_field_needs_no_codec_edit(monkeypatch, cert):
    @dataclass(frozen=True)
    class Extended(BoundCertificate):
        note: str = ""
        weights: tuple[int, ...] = ()

    probe = _dataio_with(monkeypatch, Extended)
    ext = Extended(**{name: getattr(cert, name) for name in CERT_FIELDS},
                   note="n", weights=(2, 3))
    text = probe.emit_certificate(ext)
    assert '"note":"n"' in text and '"weights":[2,3]' in text
    assert probe.parse_certificate(text) == ext
    d = json.loads(text)
    del d["weights"]
    with pytest.raises(ValidationError, match="missing field 'weights'"):
        probe.parse_certificate(json.dumps(d))


def test_unsupported_certificate_annotation_fails_at_import(monkeypatch):
    @dataclass(frozen=True)
    class Extended(BoundCertificate):
        weight: float = 0.0

    with pytest.raises(KeyError, match="float"):
        _dataio_with(monkeypatch, Extended)


def test_certificate_is_canonical_json(cert):
    text = emit_certificate(cert)
    d = json.loads(text)
    assert d["kind"] == "bound-certificate"
    assert sorted(d) == [
        "K", "alpha", "assumptions", "bound", "box_radius", "cone_p_max",
        "dataset_hash", "deep_dist2", "deep_point", "diagnostics",
        "format_version", "inverse_period", "kind", "mirror", "mode", "n", "p_max",
        "period", "rank", "safety", "slope_cap", "status", "tool_version",
    ]
    assert d["format_version"] == 4
    # r1's period (T, c, Q) = (1, 1, [0, 1]) and its inverse's (1, 1, [-1, 0]).
    assert (d["period"], d["inverse_period"]) == ([1, 1, 0, 1], [1, 1, -1, 0])
    assert d["slope_cap"] == "1/2"
    assert d["bound"] == f"{cert.bound.numerator}/{cert.bound.denominator}"
    assert text == canonical_json(d) + "\n"


def test_certificate_kind_checked(cert):
    d = json.loads(emit_certificate(cert))
    d["kind"] = "something-else"
    with pytest.raises(ValidationError, match="certificate"):
        parse_certificate(json.dumps(d))
    d["kind"] = "bound-certificate"
    d["format_version"] = 0
    with pytest.raises(ValidationError, match="format_version"):
        parse_certificate(json.dumps(d))
    # Format 1 carried a word and hull transcript; it is not read any more.
    d["format_version"] = 1
    with pytest.raises(ValidationError, match="unsupported certificate format_version 1"):
        parse_certificate(json.dumps(d))
    # Format 2 declared a mu shrinkage, which no subcone has any more.
    d["format_version"] = 2
    with pytest.raises(ValidationError, match="unsupported certificate format_version 2"):
        parse_certificate(json.dumps(d))
    # Format 3 declared no period.
    d["format_version"] = 3
    with pytest.raises(ValidationError, match="unsupported certificate format_version 3"):
        parse_certificate(json.dumps(d))
    d["format_version"] = 4
    d["mirror"] = 0
    with pytest.raises(ValidationError, match="mirror"):
        parse_certificate(json.dumps(d))


def test_certificate_integers_must_be_json_integers(cert):
    d = json.loads(emit_certificate(cert))
    paths = [("alpha", 0), ("deep_point", 0), ("period", 0), ("inverse_period", 3)] + [(key,) for key in (
        "n", "rank", "p_max", "cone_p_max", "safety", "box_radius", "K")]
    for path in paths:
        for value in NOT_INTEGERS:
            edited = json.loads(json.dumps(d))
            _set(edited, path, value)
            with pytest.raises(ValidationError, match="must be an integer"):
                parse_certificate(json.dumps(edited))
    # A rational field reads a JSON integer or a "num/den" string, not a boolean.
    d["slope_cap"] = True
    with pytest.raises(ValidationError, match="malformed number True"):
        parse_certificate(json.dumps(d))


# -- sweep CSV ------------------------------------------------------------------

def test_sweep_csv_golden():
    rows = [
        SweepRow((1, 9), 9, 81, 82, Fraction(9), 1, Fraction(2, 9),
                 "18.0000000000", "ok"),
        SweepRow((1, 3), 3, 9, 10, Fraction(1, 2), 0, Fraction(0),
                 "0", "inconclusive"),
    ]
    got = sweep_to_csv(rows)
    assert got == (
        SWEEP_HEADER + "\n"
        "1 9,9,81,82,9,1,2,9,18.0000000000\n"
        "1 3,3,9,10,1/2,0,0,1,0\n"
    )

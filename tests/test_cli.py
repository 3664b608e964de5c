import json
from importlib import resources

import pytest

from fibercert import cli
from fibercert.cli import main

DATA = resources.files("fibercert") / "data"
R1 = str(DATA / "rose_r1.json")
R2 = str(DATA / "rose_r2.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- ingest / charpoly / omega / oracle ---------------------------------------

def test_ingest(capsys, r1_hash):
    code, out, _ = run(capsys, "ingest", R1)
    assert code == 0
    assert f"dataset_hash: {r1_hash}" in out
    assert "rank: 1" in out
    assert "inverse_data: yes" in out


def test_ingest_missing_file(capsys):
    with pytest.raises(SystemExit):
        main(["ingest"])  # argparse: missing positional
    code, _, err = run(capsys, "ingest", "/nonexistent.json")
    assert code == 1
    assert "cannot read dataset file" in err


def _write(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    return str(path)


def _as_format_3(d):
    """Edit a certificate into format 3's shape, which declared no period."""
    del d["period"], d["inverse_period"]
    d["format_version"] = 3


def _edited_cert(edit):
    """Argv verifying an honest r1 certificate after ``edit`` changes its JSON."""

    def make_argv(capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "bound", R1, "--alpha", "1,9", "--p-max", "12",
                         "--out", str(path))
        assert code == 0
        d = json.loads(path.read_text())
        edit(d)
        return ["verify", _write(tmp_path, json.dumps(d)), "--dataset", R1]

    return make_argv


def _edited_r1(edit):
    """The text of the bundled r1 dataset after ``edit`` changes its JSON."""

    def text():
        with open(R1, encoding="utf-8") as fh:
            d = json.load(fh)
        edit(d)
        return json.dumps(d)

    return text


def _unknown_edge_image(d):
    d["edge_images"]["zzz"] = d["edge_images"]["a"]
    del d["inverse"]


# Each dataset text with the error every subcommand reading it must give.
MALFORMED_DATASETS = {
    "dataset-not-json": (lambda: "{bad", "dataset is not valid JSON"),
    "dataset-without-rank": (lambda: '{"format_version":1}',
                             "malformed dataset: missing field 'rank'"),
    "dataset-voltage-float": (_edited_r1(lambda d: d["edges"][0].update(voltage=[1.7])),
                              "voltage must be an integer, got 1.7"),
    "dataset-rank-float": (_edited_r1(lambda d: d.update(rank=1.9)),
                           "rank must be an integer, got 1.9"),
    # Each of these loaded, and a later subcommand died with a traceback.
    "dataset-unknown-edge-image": (_edited_r1(_unknown_edge_image),
                                   "edge image of unknown edge 'zzz'"),
    "dataset-no-edges": (_edited_r1(lambda d: d.update(edges=[], edge_images={})),
                         "a map needs at least one edge"),
    "dataset-unknown-vertex-image": (
        _edited_r1(lambda d: d["vertex_images"].update(w=["v", [0]])),
        "vertex image of unknown vertex 'w'",
    ),
    "dataset-metadata-list": (_edited_r1(lambda d: d.update(metadata=[1])),
                              "metadata must be a JSON object, got [1]"),
    "dataset-vertices-string": (_edited_r1(lambda d: d.update(vertices="vw")),
                                "vertices must be a list of strings, got 'vw'"),
    # Each of these named no field: a JSON value of the wrong container type.
    "dataset-top-list": (lambda: "[1]", "dataset must be a JSON object, got [1]"),
    "dataset-top-integer": (lambda: "5", "dataset must be a JSON object, got 5"),
    "dataset-top-null": (lambda: "null", "dataset must be a JSON object, got None"),
    "dataset-top-string": (lambda: '"x"', "dataset must be a JSON object, got 'x'"),
    "dataset-edge-images-list": (_edited_r1(lambda d: d.update(edge_images=[])),
                                 "edge_images must be a JSON object, got []"),
    "dataset-edges-object": (_edited_r1(lambda d: d.update(edges={"a": 1})),
                             "edges must be a list, got {'a': 1}"),
    "dataset-image-path-object": (
        _edited_r1(lambda d: d["edge_images"].update(a={"x": 1})),
        "edge image of 'a' must be a list, got {'x': 1}",
    ),
    "dataset-image-step-integer": (
        _edited_r1(lambda d: d["edge_images"].update(a=[5])),
        "step of edge image 'a' must be a list of 3 entries, got 5",
    ),
    "dataset-image-step-edge-list": (
        _edited_r1(lambda d: d["edge_images"]["a"][0].__setitem__(0, ["a"])),
        "step edge must be a string, got ['a']",
    ),
    "dataset-vertex-image-integer": (
        _edited_r1(lambda d: d["vertex_images"].update(v=5)),
        "vertex image of 'v' must be a list of 2 entries, got 5",
    ),
    "dataset-inverse-list": (_edited_r1(lambda d: d.update(inverse=[1])),
                             "inverse must be a JSON object, got [1]"),
    "dataset-edge-name-integer": (_edited_r1(lambda d: d["edges"][0].update(name=3)),
                                  "edge name must be a string, got 3"),
    # Each of these loaded with its key ignored: a misspelled inverse made
    # bound ask for --mirror, and a misspelled voltage was dropped.
    "dataset-unknown-key": (_edited_r1(lambda d: d.update(inverses=d.pop("inverse"))),
                            "unknown dataset key 'inverses'"),
    "dataset-unknown-inverse-key": (_edited_r1(lambda d: d["inverse"].update(edge_image={})),
                                    "unknown inverse key 'edge_image'"),
    "dataset-unknown-edge-key": (
        _edited_r1(lambda d: d["edges"][0].update(voltag=d["edges"][0].pop("voltage"))),
        "unknown edge key 'voltag'",
    ),
    # A valid map of rank 3: ingest and charpoly passed it, and every other
    # subcommand stopped at its first hull.
    "dataset-rank-3": (
        lambda: json.dumps({
            "format_version": 1, "rank": 3, "vertices": ["v"],
            "edges": [{"name": "a", "src": "v", "dst": "v", "voltage": [1, 0, 0]}],
            "vertex_images": {"v": ["v", [0, 0, 0]]},
            "edge_images": {"a": [["a", [0, 0, 0], 1]]},
        }),
        "exact hulls are implemented for rank <= 2, got 3",
    ),
}


def _ingest(text):
    return lambda capsys, tmp_path: ["ingest", _write(tmp_path, text())]


def _verify(text):
    return lambda capsys, tmp_path: ["verify", _write(tmp_path, text), "--dataset", R1]


MALFORMED_INPUTS = {
    "missing-certificate": (
        lambda capsys, tmp_path: ["verify", str(tmp_path / "absent.json"), "--dataset", R1],
        "cannot read certificate file",
    ),
    "certificate-top-list": (_verify("[1]"), "certificate must be a JSON object, got [1]"),
    "certificate-top-integer": (_verify("5"), "certificate must be a JSON object, got 5"),
    "certificate-top-null": (_verify("null"), "certificate must be a JSON object, got None"),
    "certificate-top-string": (_verify('"x"'),
                               "certificate must be a JSON object, got 'x'"),
    **{case: (_ingest(text), message) for case, (text, message) in MALFORMED_DATASETS.items()},
    "certificate-without-K": (_edited_cert(lambda d: d.pop("K")),
                              "malformed certificate: missing field 'K'"),
    "v1-certificate": (_edited_cert(lambda d: d.update(format_version=1)),
                       "unsupported certificate format_version"),
    "alpha-not-integer": (
        lambda capsys, tmp_path: ["bound", R1, "--alpha", "1,x", "--p-max", "8"],
        "class must be a list of integers",
    ),
    "classes-not-json": (
        lambda capsys, tmp_path: ["sweep", R1, "--classes", "[[1,9", "--p-max", "8"],
        "--classes must be a JSON list of integer lists",
    ),
    "classes-float": (
        lambda capsys, tmp_path: ["sweep", R1, "--classes", "[[1.9, 9.7], [1, 11]]",
                                  "--p-max", "8"],
        "--classes entry must be an integer, got 1.9",
    ),
    "classes-boolean": (
        lambda capsys, tmp_path: ["sweep", R1, "--classes", "[[1, 9], [true, 11]]",
                                  "--p-max", "8"],
        "--classes entry must be an integer, got True",
    ),
    "certificate-p-max-float": (_edited_cert(lambda d: d.update(p_max=3.5)),
                                "p_max must be an integer, got 3.5"),
    # Every field is one verify reads; a format-2 declaration is refused.
    "certificate-unknown-mu": (_edited_cert(lambda d: d.update(mu="1/2")),
                               "unknown certificate fields: 'mu'"),
    "certificate-unknown-extra": (_edited_cert(lambda d: d.update(extra=[1])),
                                  "unknown certificate fields: 'extra'"),
    "word-bound-over-cap": (
        lambda capsys, tmp_path: ["bound", R2, "--alpha", f"1,1,{10 ** 310 + 1}",
                                  "--mirror", "--p-max", "4"],
        "word enumeration",
    ),
    "sweep-without-classes": (
        lambda capsys, tmp_path: ["sweep", R1, "--p-max", "8"],
        "missing --base and --direction",
    ),
    "sweep-base-without-direction": (
        lambda capsys, tmp_path: ["sweep", R1, "--base", "1,9", "--p-max", "8"],
        "missing --direction",
    ),
    "kappa-negative": (
        lambda capsys, tmp_path: ["bound", R2, "--alpha=1,20,401", "--mirror",
                                  "--p-max", "16", "--kappa=-4"],
        "kappa must be >= 1",
    ),
    "kappa-zero": (
        lambda capsys, tmp_path: ["bound", R1, "--alpha", "1,9", "--p-max", "8",
                                  "--kappa", "0"],
        "kappa must be >= 1",
    ),
    "sweep-kappa-zero": (
        lambda capsys, tmp_path: ["sweep", R1, "--classes", "[[1,9]]", "--p-max", "8",
                                  "--kappa", "0"],
        "kappa must be >= 1",
    ),
    "safety-negative": (
        lambda capsys, tmp_path: ["bound", R1, "--alpha", "1,9", "--p-max", "8",
                                  "--safety", "-1"],
        "safety must be nonnegative",
    ),
    "v2-certificate": (_edited_cert(lambda d: d.update(format_version=2)),
                       "unsupported certificate format_version 2"),
    "v3-certificate": (_edited_cert(_as_format_3),
                       "unsupported certificate format_version 3"),
    "certificate-slope-cap-underscore": (
        _edited_cert(lambda d: d.update(slope_cap="1_0/3")),
        "slope_cap: malformed number '1_0/3'",
    ),
    "certificate-slope-cap-space": (_edited_cert(lambda d: d.update(slope_cap=" 2/4")),
                                    "slope_cap: malformed number ' 2/4'"),
    "certificate-slope-cap-plus": (_edited_cert(lambda d: d.update(slope_cap="+1/2")),
                                   "slope_cap: malformed number '+1/2'"),
    "certificate-slope-cap-not-lowest": (
        _edited_cert(lambda d: d.update(slope_cap="2/4")),
        "slope_cap: malformed number '2/4': not in lowest terms",
    ),
    "certificate-slope-cap-denominator-1": (
        _edited_cert(lambda d: d.update(slope_cap="3/1")),
        "slope_cap: malformed number '3/1': an integer takes no denominator",
    ),
    "certificate-slope-cap-null": (_edited_cert(lambda d: d.update(slope_cap=None)),
                                   "slope_cap: malformed number None"),
    # The string fields are strings, never re-emitted or compared as
    # anything else.
    "certificate-mode-list": (_edited_cert(lambda d: d.update(mode=["certified"])),
                              "mode must be a string, got ['certified']"),
    "certificate-status-list": (_edited_cert(lambda d: d.update(status=["ok"])),
                                "status must be a string, got ['ok']"),
    "certificate-dataset-hash-integer": (_edited_cert(lambda d: d.update(dataset_hash=5)),
                                         "dataset_hash must be a string, got 5"),
    "certificate-tool-version-integer": (_edited_cert(lambda d: d.update(tool_version=5)),
                                         "tool_version must be a string, got 5"),
    # The honest bound 2/9, written 4/18, no longer passes.
    "certificate-bound-not-lowest": (_edited_cert(lambda d: d.update(bound="4/18")),
                                     "bound: malformed number '4/18': not in lowest terms"),
    "certificate-diagnostics-string": (
        _edited_cert(lambda d: d.update(diagnostics="abc")),
        "diagnostics must be a list of strings",
    ),
    "certificate-assumptions-not-strings": (
        _edited_cert(lambda d: d.update(assumptions=[1])),
        "assumptions must be a list of strings",
    ),
    # Every field is required: re-emitting a certificate without one would
    # add it, so the bytes verify read would not be the bytes it passed.
    "certificate-no-diagnostics": (_edited_cert(lambda d: d.pop("diagnostics")),
                                   "malformed certificate: missing field 'diagnostics'"),
    "certificate-no-assumptions": (_edited_cert(lambda d: d.pop("assumptions")),
                                   "malformed certificate: missing field 'assumptions'"),
    "out-unwritable": (
        lambda capsys, tmp_path: ["bound", R1, "--alpha", "1,9", "--p-max", "8",
                                  "--out", str(tmp_path / "absent" / "c.json")],
        "cannot write certificate file",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exit_code(capsys, tmp_path, case):
    make_argv, message = MALFORMED_INPUTS[case]
    code, _, err = run(capsys, *make_argv(capsys, tmp_path))
    assert code == 1
    assert err.startswith("error: ") and message in err


@pytest.fixture(scope="module")
def r1_cert(tmp_path_factory):
    path = tmp_path_factory.mktemp("cert") / "cert.json"
    assert main(["bound", R1, "--alpha", "1,9", "--p-max", "8", "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("case", sorted(MALFORMED_DATASETS))
def test_malformed_dataset_fails_every_subcommand(capsys, tmp_path, r1_cert, case):
    """Every subcommand refuses a malformed dataset as it loads it: exit 1
    and an error line, never a traceback from a later stage."""
    text, message = MALFORMED_DATASETS[case]
    bad = _write(tmp_path, text())
    for argv in (["ingest", bad], ["charpoly", bad], ["omega", bad, "--p", "3"],
                 ["oracle", bad, "--p", "3"], ["cone", bad, "--p-max", "8"],
                 ["bound", bad, "--alpha", "1,9", "--p-max", "8", "--mirror"],
                 ["sweep", bad, "--classes", "[[1,9]]", "--p-max", "8", "--mirror"],
                 ["verify", r1_cert, "--dataset", bad]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and message in err, argv
        assert "Traceback" not in err, argv


@pytest.mark.parametrize("argv", [
    ["bound", R1, "--alpha", "-1,11"],  # argparse reads "-1,11" as an option
    ["bound", R1, "--alpha", "1,9", "--mu", "abc"],
    ["sweep", R1, "--threads", "2"],
    ["sweep", R1, "--box-radius", "1"],  # a bound-only option
    ["bound", R1, "--alpha", "1,9", "--slope-cap", "1/0"],
    ["bound", R1, "--alpha", "1,9", "--mu", "1/0"],
    ["sweep", R1, "--classes", "[[1, 9]]", "--mu", "1/2"],
    ["bound", R1, "--alpha", "1,9", "--mode", "certified"],
], ids=["alpha-read-as-option", "mu-not-a-fraction", "unknown-option",
        "sweep-box-radius", "slope-cap-zero-denominator", "mu-zero-denominator",
        "mu-removed", "mode-removed"])
def test_usage_error_exit_code(capsys, argv):
    # Usage errors are validation errors (1), never inconclusive (2).  The
    # slope box is the only subcone, so --mu is an unknown option, and every
    # certificate is certified, so --mode is one too.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_help_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_charpoly(capsys):
    code, out, _ = run(capsys, "charpoly", R1, "--p", "1")
    assert code == 0
    d = json.loads(out)
    assert d["dim"] == 2 and d["rank"] == 1
    # F(x, t) = x^2 - (2 + t) x + (t - t) ... constant term det(M) exactly.
    coeffs = d["coefficients"]
    assert coeffs[0] == [[[0], 1]]  # leading (-1)^2 x^2


def test_omega_matches_oracle(capsys):
    code_a, out_a, _ = run(capsys, "omega", R1, "--p", "5")
    code_b, out_b, _ = run(capsys, "oracle", R1, "--p", "5")
    assert code_a == code_b == 0
    a, b = json.loads(out_a), json.loads(out_b)
    assert a == b == {"hull": [[0], [5]], "p": 5}


@pytest.mark.parametrize("cmd, message", [
    ("oracle", "power must be nonnegative"),
    ("omega", "power must be nonnegative"),
    ("charpoly", "matrix power must be nonnegative"),
], ids=("oracle", "omega", "charpoly"))
def test_negative_power_exit_code(capsys, cmd, message):
    code, out, err = run(capsys, cmd, R2, "--p", "-1")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


# -- cone ---------------------------------------------------------------------

def test_cone(capsys):
    code, out, _ = run(capsys, "cone", R1, "--p-max", "12")
    assert code == 0
    d = json.loads(out)
    assert d["k0"] == 1 and d["C"] == 1
    assert not d["low_confidence"]
    slopes = {tuple(f["u"]): f["slope"] for f in d["facets"]}
    assert slopes[(1,)] == "1/1"
    assert slopes[(-1,)] == "0/1"
    assert d["fibered_cone_generators"] == [[0, 1], [1, 1]]


def test_cone_below_k0_is_low_confidence(capsys):
    code, out, _ = run(capsys, "cone", R2, "--p-max", "1")
    assert code == 0
    assert '"low_confidence": true' in out


# -- bound / verify ------------------------------------------------------------

def test_bound_and_verify_round_trip(capsys, tmp_path):
    cert_path = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, "bound", R1, "--alpha", "1,9",
                       "--p-max", "12", "--out", cert_path)
    assert code == 0
    d = json.loads(out)
    assert d["status"] == "ok" and d["mode"] == "certified"
    assert d["K"] >= 1
    assert open(cert_path).read() == out

    code, out, _ = run(capsys, "verify", cert_path, "--dataset", R1)
    assert code == 0
    assert "verification: pass" in out

    # Verifying against the wrong dataset fails with exit code 3.
    code, out, _ = run(capsys, "verify", cert_path, "--dataset", R2)
    assert code == 3
    assert "dataset-hash" in out


def test_bound_inconclusive_exit_code(capsys):
    # n = 7 is covered by kernel obstacles: inconclusive, exit 2.
    code, out, err = run(capsys, "bound", R1, "--alpha", "1,7", "--p-max", "12")
    assert code == 2
    assert json.loads(out)["status"] == "inconclusive"
    assert "inconclusive" in err


@pytest.mark.parametrize("dataset, argv, want", [
    (R1, ["--alpha", "1,9", "--p-max", "4"], (1, "2/9", [-4], 9)),
    (R2, ["--alpha=1,7,50", "--mirror", "--p-max", "12"], (2, "1/50", [-25, 0], 8)),
], ids=["r1", "r2-mirror"])
def test_bound_words_past_p_max_exit_codes(capsys, tmp_path, dataset, argv, want):
    """Kernel words whose power exceeds p_max take exact supports like every
    other word: the certificate is certified, bound exits 0 and verify
    passes."""
    path = str(tmp_path / "cert.json")
    code, out, err = run(capsys, "bound", dataset, *argv, "--out", path)
    assert (code, err) == (0, "")
    d = json.loads(out)
    assert (d["mode"], d["status"]) == ("certified", "ok")
    assert (d["K"], d["bound"], d["deep_point"], d["deep_dist2"]) == want
    code, out, _ = run(capsys, "verify", path, "--dataset", dataset)
    assert (code, out) == (0, "verification: pass\n")


def test_bound_r2_at_the_default_p_max_verifies(capsys, tmp_path):
    """The class (1, 20, 401) certifies at the default p_max 32 (cone
    truncation included) and verify passes: subcone membership does not
    depend on how large the reconstructed generators grow."""
    path = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, "bound", R2, "--alpha=1,20,401", "--mirror", "--out", path)
    assert code == 0
    d = json.loads(out)
    assert (d["p_max"], d["cone_p_max"], d["K"], d["bound"]) == (32, 32, 14, "1/2807")
    code, out, _ = run(capsys, "verify", path, "--dataset", R2)
    assert (code, out) == (0, "verification: pass\n")


def test_bound_exterior_class_exit_code(capsys):
    code, _, err = run(capsys, "bound", R1, "--alpha=-5,1", "--p-max", "8")
    assert code == 1
    assert "error:" in err


def test_bound_r2_requires_mirror(capsys):
    code, _, err = run(capsys, "bound", R2, "--alpha", "1,9,82",
                       "--p-max", "10")
    assert code == 1
    assert "mirror" in err
    code, out, _ = run(capsys, "bound", R2, "--alpha", "1,9,82",
                       "--p-max", "10", "--mirror")
    assert code in (0, 2)
    assert json.loads(out)["alpha"] == [1, 9, 82]


# -- sweep --------------------------------------------------------------

def test_sweep_csv_and_determinism(capsys):
    argv = ["sweep", R1, "--base", "1,9", "--direction", "0,2",
            "--start", "0", "--stop", "6", "--p-max", "12", "--format", "csv"]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    lines = out1.strip().splitlines()
    assert lines[0].startswith("alpha,n,covol2,")
    assert len(lines) == 7
    # Byte-identical across repeats.
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_sweep_explicit_classes_text(capsys):
    """A skipped class is named on stderr and makes the exit code 2; stdout
    still has its row."""
    code, out, err = run(capsys, "sweep", R1, "--classes", "[[1, 9], [-5, 1]]",
                         "--p-max", "10", "--format", "text")
    assert code == 2
    lines = out.strip().splitlines()
    assert "status=ok" in lines[0]
    assert "status=skipped-exterior" in lines[1]
    assert err == "class -5 1: skipped-exterior\n"


def test_sweep_validation(capsys):
    code, _, err = run(capsys, "sweep", R1, "--base", "1,9",
                       "--direction", "2", "--p-max", "8")
    assert code == 1
    assert "equal length" in err


def test_verify_unverifiable_exit_code(capsys, tmp_path):
    # A box too large to enumerate its words is unverifiable: exit 2.
    argv = _edited_cert(lambda d: d.update(box_radius=10 ** 7))(capsys, tmp_path)
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert "verification: unverifiable (word-cap)" in out


def test_verify_word_power_cap_exit_code(capsys, tmp_path):
    """A box forged wide enough to reach words of power above the cap is
    unverifiable: exit 2."""
    path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "bound", R1, "--alpha", "250,1001", "--p-max", "64",
                     "--out", str(path))
    assert code == 0
    d = json.loads(path.read_text())
    d["box_radius"] = 10 ** 5
    code, out, _ = run(capsys, "verify", _write(tmp_path, json.dumps(d)), "--dataset", R1)
    assert (code, out) == (2, "verification: unverifiable (power-cap)\n")


@pytest.mark.parametrize("argv", [
    ["bound", R1, "--alpha", "250,1001", "--p-max", "64", "--box-radius", "20000"],
    ["bound", R1, "--alpha", "1,9", "--p-max", "2001"],
    ["sweep", R1, "--classes", "[[1,9]]", "--p-max", "2001"],
], ids=["bound-word-power", "bound-p-max", "sweep-p-max"])
def test_certify_power_cap_exit_code(capsys, monkeypatch, argv):
    """A certificate verify would call unverifiable (power-cap) is never
    written: a kernel word's power or p_max above the cap exits 1 and the
    error names the cap.  A p_max above the cap is refused before the cone
    is built."""
    if "2001" in argv:
        def no_cone(*args):
            raise AssertionError("the cone was built for a p_max above the cap")

        monkeypatch.setattr(cli, "subcone_models", no_cone)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "exceeds the power cap 2000" in err


@pytest.mark.parametrize("argv", [
    ["bound", R1, "--alpha", "1,9", "--p-max", "8", "--box-radius=-100"],
    ["bound", R2, "--alpha", "1,9,82", "--mirror", "--p-max", "8", "--box-radius=-30"],
    ["bound", R1, "--alpha", "1,9", "--p-max", "8", "--box-radius", "0"],
], ids=["r1-negative", "r2-mirror-negative", "r1-zero"])
def test_bound_box_radius_below_1_exit_code(capsys, argv):
    """A box radius below 1 exits 1 with one named error and no traceback."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: box radius must be >= 1, got ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["bound", R1, "--alpha", "1,x"], "class must be a list of integers"),
    (["bound", R1, "--alpha", "0,0"], "class must be nonzero"),
    (["sweep", R2, "--classes", "[[1,2],[3]"], "--classes must be a JSON list"),
    (["sweep", R1, "--classes", "[[1.5, 9]]"], "--classes entry"),
    (["sweep", R1, "--base", "1,x", "--direction", "0,2"], "class must be a list of integers"),
    (["sweep", R1, "--base", "1,9", "--direction", "2"], "equal length"),
], ids=["alpha-word", "alpha-zero", "classes-json", "classes-float", "base-word",
        "base-direction-lengths"])
def test_malformed_class_input_exits_before_the_cone(capsys, monkeypatch, argv, message):
    """Class input is parsed and validated before the cone is built: a
    malformed --alpha, --classes or --base/--direction exits 1 at once."""
    def no_cone(*args):
        raise AssertionError("the cone was built for malformed class input")

    monkeypatch.setattr(cli, "subcone_models", no_cone)
    code, out, err = run(capsys, *argv, "--p-max", "1000")
    assert (code, out) == (1, "")
    assert message in err

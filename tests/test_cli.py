import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from weylfan import cli
from weylfan.cli import run
from weylfan.rootdata import RootDatum
from weylfan.serialize import parse_q


def invoke(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(args)
    return code, buf.getvalue()


def test_fan_example():
    code, out = invoke(["fan", "--datum", "A2", "--J", "a1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["cone_count"] == 7


def test_strata_example():
    code, out = invoke(["strata", "--datum", "A2", "--J", ""])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4 and len(payload["strata"]) == 4


def test_special_example():
    code, out = invoke(["special", "--datum", "A1", "--gamma", "1", "--point", "1/3"])
    assert code == 0
    assert json.loads(out) == {"special": False, "witness": 3}


def test_limit_example():
    code, out = invoke([
        "limit", "--datum", "A2", "--J", "a1", "--base", "0,0", "--dir", "1,1",
    ])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"cone", "core_type", "facade_coords"}
    assert payload["core_type"] == ["a1"]


def test_rootsys_and_check():
    code, out = invoke(["rootsys", "--datum", "BC2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["root_count"] == 12 and payload["weyl_order"] == 8
    code, out = invoke(["check", "--datum", "A2", "--J", "a1"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_transitivity_command():
    code, out = invoke(["transitivity", "--datum", "A1", "--x", "0", "--y", "1/6"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"N": 3, "cartan_det": 2, "gamma0": "1", "n": [1]}


def test_embed_command():
    code, out = invoke(["embed", "--datum", "A1", "--gamma", "1", "--e", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["scale"] == 6
    assert payload["groups"]["a1"] == {"denominator": 6, "kind": "lattice"}


def test_cone_command():
    code, out = invoke(["cone", "--datum", "A2", "--J", "a1", "--vector", "1,2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2 and payload["core_type"] == ["a1"]


def test_seminorm_command(tmp_path):
    poly = {
        "monomials": [
            {"exp": {"(-a2,1)": 1}, "logc": "0"},
            {"exp": {}, "logc": "-3/2"},
        ]
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(poly))
    code, out = invoke([
        "seminorm", "--datum", "A2", "--T", "a1", "--point", "1/2,1/3", "--poly", str(path),
    ])
    assert code == 0
    payload = json.loads(out)
    # <-a2, x> = -(-1/2 + 2/3) = -1/6; max(-1/6, -3/2) = -1/6
    assert parse_q(payload["value"]) == parse_q("-1/6")


def test_determinism_byte_identical():
    for args in [
        ["fan", "--datum", "A2", "--J", "a1"],
        ["strata", "--datum", "B2", "--J", "a2"],
        ["rootsys", "--datum", "G2"],
        ["limit", "--datum", "A2", "--J", "a1", "--base", "0,0", "--dir", "1,1"],
    ]:
        _, first = invoke(args)
        _, second = invoke(args)
        assert first == second
        json.loads(first)  # round-trips as JSON


def test_error_exits():
    code, out = invoke(["fan", "--datum", "A2", "--J", "a1,a2"])
    assert code == 2
    payload = json.loads(out)
    assert payload["code"] == "DegenerateJ"
    code, out = invoke(["fan", "--datum", "Q7"])
    assert code == 2
    assert json.loads(out)["code"] == "NonRootSystem"
    code, out = invoke(["seminorm", "--datum", "A2", "--T", "a1", "--point", "0,0",
                        "--poly-json", "{not json"])
    assert code == 2
    assert json.loads(out)["code"] == "ParseError"


def test_usage_exit():
    code, _ = invoke(["nope"])
    assert code == 64
    code, _ = invoke(["fan"])  # missing --datum
    assert code == 64


def test_output_flag(tmp_path):
    path = tmp_path / "fan.json"
    code, out = invoke(["fan", "--datum", "A1", "--output", str(path)])
    assert code == 0
    assert path.read_text() == out


def test_output_to_a_missing_directory(tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out = invoke(["rootsys", "--datum", "A1", "--output", str(path)])
    assert code == 2
    assert json.loads(out) == {
        "code": "ParseError",
        "message": f"[Errno 2] No such file or directory: {str(path)!r}",
    }
    assert out.count("\n") == 1  # the error document alone
    assert not path.exists()


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe"], ids=["malformed", "not-utf8"])
def test_unreadable_datum_file_is_a_parse_error(tmp_path, content):
    path = tmp_path / "datum.json"
    path.write_bytes(content)
    with pytest.raises(ValueError) as info:  # JSONDecodeError, UnicodeDecodeError
        json.loads(path.read_text())
    code, out = invoke(["rootsys", "--datum", str(path)])
    assert code == 2
    assert json.loads(out) == {"code": "ParseError", "message": str(info.value)}


def test_internal_fault_exits_70_with_a_traceback(monkeypatch, capsys):
    def broken(args):
        raise KeyError("boom")

    monkeypatch.setitem(cli._HANDLERS, "rootsys", broken)
    code = run(["rootsys", "--datum", "A1"])
    captured = capsys.readouterr()
    assert code == 70
    assert captured.out == ""
    assert captured.err.startswith("Traceback") and "KeyError: 'boom'" in captured.err


@pytest.mark.parametrize("d", ["0", "-2"])
def test_transitivity_gamma_denominator_must_be_positive(d):
    code, out = invoke([
        "transitivity", "--datum", "A1", "--x", "0", "--y", "1/6", "--gamma-denominator", d,
    ])
    assert code == 2
    assert json.loads(out) == {
        "code": "NonRootSystem",
        "message": "value group denominator must be positive",
    }


def test_datum_json_input():
    spec = json.dumps({"roots": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]], "basis": [0, 2]})
    code, out = invoke(["rootsys", "--datum", spec])
    assert code == 0
    assert json.loads(out)["root_count"] == 4


def test_vector_arity_validated():
    for args in [
        ["special", "--datum", "A2", "--gamma", "1,1", "--point", "1/3"],
        ["limit", "--datum", "A2", "--J", "a1", "--base", "0", "--dir", "1,1"],
        ["cone", "--datum", "A2", "--vector", "1,2,3"],
        ["transitivity", "--datum", "A1", "--x", "0,0", "--y", "1"],
    ]:
        code, out = invoke(args)
        assert code == 2
        assert json.loads(out)["code"] == "ParseError"


def test_infinite_coordinates_rejected():
    for args in [
        ["cone", "--datum", "A2", "--vector", "inf,0"],
        ["limit", "--datum", "A2", "--base", "0,0", "--dir", "1,-inf"],
    ]:
        code, out = invoke(args)
        assert code == 2
        assert json.loads(out)["code"] == "ParseError"


def test_seminorm_coordinate_outside_the_cell():
    poly = {"monomials": [{"exp": {"(a1,1)": 1}, "logc": "0"}]}
    code, out = invoke([
        "seminorm", "--datum", "A2", "--T", "a1", "--point", "0,0",
        "--poly-json", json.dumps(poly),
    ])
    assert code == 2
    assert json.loads(out) == {
        "code": "ParseError",
        "message": "exponent key '(a1,1)' is not a coordinate of the cell",
    }


def test_datum_json_without_basis():
    spec = json.dumps({"roots": [["1"], ["-1"]]})
    code, out = invoke(["rootsys", "--datum", spec])
    assert code == 2
    assert json.loads(out) == {
        "code": "ParseError",
        "message": "datum JSON has neither 'type' nor 'basis'",
    }


@pytest.mark.parametrize(
    "basis,shown", [([5], "5"), (["0"], "'0'"), ([0.0], "0.0"), ([-1], "-1"), ([True], "True")]
)
def test_datum_json_basis_entries_must_be_root_indices(basis, shown):
    spec = json.dumps({"roots": [["1"], ["-1"]], "basis": basis})
    code, out = invoke(["rootsys", "--datum", spec])
    assert code == 2
    assert json.loads(out) == {
        "code": "NonRootSystem",
        "message": f"basis entry {shown} is not an index into the 2 roots",
    }


NOT_ROOT_LISTS = "datum JSON 'roots' is not a list of coordinate lists"


@pytest.mark.parametrize(
    "payload,code,message",
    [
        ({"roots": 5, "basis": [0]}, "ParseError", NOT_ROOT_LISTS),
        ({"roots": [5], "basis": [0]}, "ParseError", NOT_ROOT_LISTS),
        (
            {"roots": [["inf"], ["-inf"]], "basis": [0]},
            "ParseError",
            "datum JSON 'roots' has an infinite coordinate",
        ),
        ({"type": 5}, "ParseError", "datum JSON 'type' must be a catalogue name"),
        ({"roots": [["1"], ["-1"]], "basis": []}, "NonRootSystem", "basis is empty"),
    ],
)
def test_datum_json_fields_are_checked(payload, code, message):
    exit_code, out = invoke(["rootsys", "--datum", json.dumps(payload)])
    assert exit_code == 2
    assert json.loads(out) == {"code": code, "message": message}


@pytest.mark.parametrize("text", ["5", "null", '"type"', "[]"])
def test_datum_json_file_must_hold_an_object(tmp_path, text):
    path = tmp_path / "datum.json"
    path.write_text(text)
    code, out = invoke(["rootsys", "--datum", str(path)])
    assert code == 2
    assert json.loads(out) == {"code": "ParseError", "message": "datum JSON is not an object"}


def test_datum_json_basis_must_be_a_list():
    spec = json.dumps({"roots": [["1"], ["-1"]], "basis": 0})
    code, out = invoke(["rootsys", "--datum", spec])
    assert code == 2
    assert json.loads(out) == {
        "code": "NonRootSystem",
        "message": "basis 0 is not a list of root indices",
    }


@pytest.mark.parametrize(
    "poly,message",
    [
        (
            {"monomials": [{"exp": {"(-a2,x)": 1}, "logc": "0"}]},
            "index 'x' of exponent key '(-a2,x)' is not an integer",
        ),
        ({}, "polynomial JSON has no 'monomials' list"),
        ({"monomials": ["x"]}, "monomial 'x' is not an object with a 'logc' field"),
        (
            {"monomials": [{"exp": {"(-a2,1)": "y"}, "logc": "0"}]},
            "exponent 'y' of key '(-a2,1)' is not an integer",
        ),
        (
            {"monomials": [{"exp": {"(-a2,1)": 1.5}, "logc": "0"}]},
            "exponent 1.5 of key '(-a2,1)' is not an integer",
        ),
        (
            {"monomials": [{"exp": {"(-a2,1)": True}, "logc": "0"}]},
            "exponent True of key '(-a2,1)' is not an integer",
        ),
    ],
)
def test_seminorm_polynomial_errors_name_the_field(poly, message):
    code, out = invoke([
        "seminorm", "--datum", "A2", "--T", "a1", "--point", "0,0",
        "--poly-json", json.dumps(poly),
    ])
    assert code == 2
    assert json.loads(out) == {"code": "ParseError", "message": message}


# SHA-256 of the `rootsys` document of each catalogue name, as the
# catalogue built it when its lengths and BC doubles were still tabulated.
ROOTSYS_SHA256 = {
    "A1": "ffffec21efaac2e91a72917fa3edcc026efcad8073319bcd2b0b40d206cc4ff1",
    "A2": "163986859dbd789c6fa609faee5413e477605f9b9527066b5f97378bae309395",
    "A3": "4fea87c1ac4fb7f888314e5d381a8bfc4052190543249316d15246bc9961fcdc",
    "A4": "eb532618acc54e819e8da010cb7993448737aea84491225ee673a97366c89fba",
    "A5": "c78b05b7a1374645e6dba2af31b92816dfb4faa94499c709000acceeb7df2c36",
    "A6": "f6bbd5fa0f22dec79b1011b5fe1da02eca3103b204b1ae5efe9dc623dca10960",
    "A7": "d986a5534f77c4da4fd3c5a95a8821f812570766886150d0e851a6c21dfbe9df",
    "B2": "7a45fa686b61e88ae9d2754a2d72b4ab2d8eb80b018f7e4d5096f771cfea9cd8",
    "B3": "ae64cfc9a1e8035bc0c13ab6b81b5bb375a2dab8fb9bf0592b300f57c3a844ab",
    "B4": "72bd532941d3792e718ff8299f23c3ef6a230050ce6bab27204925c33cf5080c",
    "B5": "4807cb7a1ce8394448b81447bbf8257b76d3709afb332fe824d9ece045c7c5ba",
    "C2": "72a33cddc26b05d70458b7078890a19604936ce18c58867ead69302e4ecfa744",
    "C3": "8214e9e7f24dfefb272a944ed733606304cb3bcef747b2e9995c88b94e46bbec",
    "C4": "6a7595be540c923bb03d7029808589c0187fca79ce6f8f4949ff3287eb0676cf",
    "D3": "2d7efd9462e395b65332236a6fcc7c36865d687b7b5b891fd67455958294a393",
    "D4": "a1b497183884827ba66289fa5c4f7a15c710b04131976bc9f3d9542515b6147d",
    "D5": "eb77fb7ac103116e8f901f759a504508271ecc401ef6b6a2013375d6f9f64ed3",
    "G2": "ce01ab50c0abbca1be1c3b503f7480cdd78877ca65a3d2dc4619d0c8a0f9ea82",
    "F4": "26d4c49ca3db2696dab396d5c7b3dfffcc2da94c43188fd12347710558b3185f",
    "BC1": "2ab499ed6956cc5782fe175192557248fbbdd1f63964ceddb0885e96b530483d",
    "BC2": "c7374aaae5777b64e1963119a0134ecb767bacac77616465acf21b67c5f0cf83",
    "BC3": "c5460566e1d9662683d996cf067eb58f4b293368bcaaba226f4677e7b78b6f17",
    "BC4": "9ec54557918cb9b3bf2330dce041640de098bf3acbca3db97b20766ea83e9bd0",
    "A1xA2": "423ac98b636c540e7e4ad350f63998a13d3f692de811be1e3e537b1fa81e8c80",
    "B3xG2": "b28873712fd22767f78ade4e24a90c086f832a59e55b685a59fde06b7d9dd734",
    "C3xBC2": "a38f38af9f645f98aafb601f2bb9e44edf72184524be275f644a197c031c9c7b",
}


@pytest.mark.parametrize("name", sorted(ROOTSYS_SHA256))
def test_rootsys_documents_are_unchanged(name):
    code, out = invoke(["rootsys", "--datum", name])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ROOTSYS_SHA256[name]


def test_check_validates_the_datum_once(monkeypatch):
    calls = []
    validate = RootDatum.validate
    monkeypatch.setattr(RootDatum, "validate", lambda self: calls.append(validate(self)))
    code, out = invoke(["check", "--datum", "BC2", "--J", "a1"])
    assert code == 0 and json.loads(out)["ok"] is True
    assert len(calls) == 1

"""The command-line interface: JSON reports, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liebrackets import cli, constructions
from liebrackets.cli import main
from liebrackets.matrices import matrix_to_json, parse_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


class TestCenterCommand:
    def test_rank_one_square(self, capsys):
        code, report, err = run_cli(capsys, "center", "2", "2", "--j", "1 0; 0 0")
        assert code == 0
        assert report["result"]["center_dim"] == 1
        assert report["result"]["basis"] == [matrix_to_json(parse_matrix("0 0; 0 1"))]
        assert "1/1 verdicts passed" in err

    def test_bad_parameter_shape_is_usage_error(self, capsys):
        code, report, err = run_cli(capsys, "center", "2", "2", "--j", "1 0 0; 0 0 0")
        assert code == 2
        assert report is None
        assert "error:" in err


class TestConstantsCommand:
    def test_constants_with_jacobi_verdict(self, capsys):
        code, report, _ = run_cli(capsys, "constants", "2", "2", "--j", "0 1; 1 0")
        assert code == 0
        assert report["verdicts"][0]["name"] == "jacobi"
        assert report["result"]["constants"]["dim"] == 4

    def test_matrix_from_file(self, capsys, tmp_path):
        path = tmp_path / "j.txt"
        path.write_text("1 0; 0 0")
        code, report, _ = run_cli(capsys, "constants", "2", "2", "--j", f"@{path}")
        assert code == 0

    def test_matrix_json_form(self, capsys):
        payload = json.dumps({"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "0"]]})
        code, report, _ = run_cli(capsys, "constants", "2", "2", "--j", payload)
        assert code == 0


class TestClassifyCommand:
    def test_degenerate_shape_still_passes(self, capsys):
        code, report, _ = run_cli(capsys, "classify", "1", "1")
        assert code == 0
        assert report["result"]["degenerate"] is True
        names = [v["name"] for v in report["verdicts"]]
        assert "signatures_pairwise_distinct" not in names

    def test_square_shape(self, capsys):
        code, report, _ = run_cli(capsys, "classify", "2", "2")
        assert code == 0
        assert report["result"]["pairwise_distinct"] is True
        assert report["seed"] == 0


class TestWitnessCommand:
    def test_equivalent_pair(self, capsys):
        code, report, _ = run_cli(capsys, "witness", "--j1", "1 0; 0 0", "--j2", "0 0; 0 1")
        assert code == 0
        assert all(v["pass"] for v in report["verdicts"])

    def test_inequivalent_pair_exits_one(self, capsys):
        code, report, _ = run_cli(capsys, "witness", "--j1", "1 0; 0 1", "--j2", "1 0; 0 0")
        assert code == 1
        verdict = report["verdicts"][0]
        assert verdict["name"] == "equivalent" and not verdict["pass"]
        assert verdict["ranks"] == [2, 1]


class TestOtherCommands:
    def test_heisenberg(self, capsys):
        code, report, _ = run_cli(capsys, "heisenberg", "1")
        assert code == 0
        assert report["result"]["lcs_dims"] == [3, 1, 0]

    def test_semidirect(self, capsys):
        code, report, _ = run_cli(capsys, "semidirect", "1", "1")
        assert code == 0

    def test_contract(self, capsys):
        code, report, _ = run_cli(capsys, "contract", "2", "1")
        assert code == 0
        assert all(v["pass"] for v in report["verdicts"])

    def test_deform(self, capsys):
        code, report, _ = run_cli(capsys, "deform", "2", "1", "--t", "1/2")
        assert code == 0
        assert report["inputs"]["t"] == "1/2"
        table = report["result"]["path_table"]
        assert [row["t"] for row in table] == ["0", "1/3", "1/2", "9/10", "1"]
        assert all(row["pass"] for row in table)
        assert table[-1]["reference"] == "normal_form"

    def test_deform_endpoint(self, capsys):
        code, report, _ = run_cli(capsys, "deform", "2", "1", "--t", "1")
        assert code == 0
        names = [v["name"] for v in report["verdicts"]]
        assert "transport_identity" not in names
        assert "signature_matches_normal_form" in names

    def test_coboundary(self, capsys):
        code, report, _ = run_cli(capsys, "coboundary", "2", "--j", "1 2; 3 4")
        assert code == 0

    def test_catalog(self, capsys):
        code, report, _ = run_cli(capsys, "catalog", "affine2_column")
        assert code == 0
        assert report["result"]["discrepancies"] == ["[e2,e1]"]

    def test_embed(self, capsys, tmp_path):
        from liebrackets.constructions import classical_representation

        cand = classical_representation(1)
        payload = cand.src.constants.to_json()
        payload["labels"] = list(cand.src.labels)
        payload["images"] = [matrix_to_json(img) for img in cand.images]
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(payload))
        code, report, _ = run_cli(capsys, "embed", "--rep", str(path), "4", "5", "3")
        assert code == 0
        assert report["result"]["span_dim"] == 3


class TestVerifyAll:
    def test_small_run_passes(self, capsys):
        code, report, err = run_cli(capsys, "verify-all", "--max", "2", "--seed", "0")
        assert code == 0
        assert report["result"]["pass"] is True
        assert len(report["verdicts"]) == 10
        assert err.count("[PASS]") == 10

    def test_byte_identical_reports(self, capsys):
        code1 = main(["classify", "3", "2", "--seed", "4"])
        out1 = capsys.readouterr().out
        code2 = main(["classify", "3", "2", "--seed", "4"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2


VERIFY_ALL_DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "verify_all_digests.json"


def test_verify_all_reports_match_the_recorded_digests(capsys):
    # The benchmark's verify_all workload fails every item of a pass whose
    # report differs from this table; reading the same table here names the
    # changed seed.  The table is only read.
    table = json.loads(VERIFY_ALL_DIGESTS.read_text(encoding="utf-8"))
    assert table["max"] == 3
    assert sorted(map(int, table["digests"])) == list(range(16))
    for seed, digest in table["digests"].items():
        assert main(["verify-all", "--max", str(table["max"]), "--seed", seed]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, f"seed {seed}"


# stdout sha256 of the README's example subcommands (all but embed, which
# needs a file, and verify-all, covered by the acceptance suite).
README_EXAMPLES = {
    "constants": (["constants", "2", "2", "--j", "1 0; 0 0"],
                  "11c03c7d2c4780498d6c0cbbc4d18b7d9c3d442e95bb8e190db61e88c8889d48"),
    "center": (["center", "2", "2", "--j", "1 0; 0 0"],
               "9e3553dbb1e686f87b439367a4abda412df5ce5e4ce9cb7a750a819bc4be52ea"),
    "classify": (["classify", "3", "3"],
                 "94e59fac493e52988bb793aff1aad17d01bb527435d0b39d8ebe09263e7d257a"),
    "witness": (["witness", "--j1", "1 0; 0 0", "--j2", "0 0; 0 1"],
                "637208139050d4a251af6b8808768b2b1372efc3b4925f25b1dcb7be06d09d4c"),
    "heisenberg": (["heisenberg", "2"],
                   "2ba2a7f2991c65402afc3da2e4a31fba32f902e89fa591a39a44a108fa0808c9"),
    "semidirect": (["semidirect", "2", "1"],
                   "6d62768aba4529c72f8cc76b5b2638ce4deec22db476dba0d67854a0e530f9f0"),
    "contract": (["contract", "3", "1"],
                 "df13190913b0f289a5dc4878dd468ead6fe8f1412b0e30eb451cb58c2c7d58d8"),
    "deform": (["deform", "3", "1", "--t", "1/3"],
               "c0d5dc5b81fbbaee89854cb53b3ea6c6974b0d89b40f39a35103abe0f08f84ff"),
    "coboundary": (["coboundary", "3", "--j", "1 2 0; 0 1 0; 3 0 1"],
                   "1dbd92801ab28668fde8d7931042482ff53e33023a2f8af8ba8912a7f2bf87dc"),
    "catalog": (["catalog", "mat2_rank1"],
                "3e791b430e14ab0f59315349a1cc897810c00ecb285a18a171f24a5b1d9fa14b"),
}


@pytest.mark.parametrize("command", sorted(README_EXAMPLES))
def test_readme_example_stdout_is_stable(capsys, command):
    argv, digest = README_EXAMPLES[command]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


# stdout sha256 of ``witness`` on three pairs, recorded when the witness was
# still formed with ``rref``, ``inverse`` and ``Matrix`` products: the printed
# map must not change with the way it is computed.
WITNESS_REPORTS = {
    "full_rank_3x3": (("2 -1 0; 1 3 -2; 0 1 1", "1 2 3; 0 -1 4; 5 6 0"),
                      "22c4e2c85c161ee244b99ced94ef90fc13f84b0362abb08b91c82ea5a0cb3b0f"),
    "rational_rank_2_3x4": (("1/2 1 0 -3; 0 2/3 1 1; 1/2 5/3 1 -2", "0 1 -1/4 2; 3 0 1 0; 3 2 1/2 4"),
                            "113275443160a62ffc40061748b748631c7cb90512ead29eda96e9453dee9a8b"),
    "rectangular_rank_1_2x4": (("1 2 0 -1; 2 4 0 -2", "0 0 3 1/2; 0 0 -6 -1"),
                               "c9afee27c52cc4f0b1da69ba710eb5f0fb442bbc3c18583f9dd512d3756f5461"),
    "equal_rational_2x3": (("1/2 1 0; 0 2/3 1", "1/2 1 0; 0 2/3 1"),
                           "0ef8466050406100f2a06fc4d56e875bed7c66fc3b921e7dca85221247b0321d"),
}


@pytest.mark.parametrize("pair", sorted(WITNESS_REPORTS))
def test_witness_report_is_stable(capsys, pair):
    (j1, j2), digest = WITNESS_REPORTS[pair]
    assert main(["witness", "--j1", j1, "--j2", j2]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


# stdout sha256 of ``catalog NAME`` for every worked example, recorded when each
# example had its own builder function: the reports must not change with the
# way the catalog is written down.
CATALOG_REPORTS = {
    "affine2_column": "b4d830ba680529c02deb9f5b97752f345d8215ebff516af7002b8d5966442101",
    "column4": "639f4b01ddcf1a08ba09430dd1a61a66ba8403287e081990a3c944871a31275b",
    "g32_1": "b5107dd3fb1821e820adfae29045d0be96ad4ac623d1870f938520803083a58b",
    "heisenberg3_gl21": "077ac26709c037bf3fcd8172ffe8e56450f7566b5dbe0841f0353a7051427e7d",
    "mat2_full": "aea2058de345fe18e7aa8aacae0c2685efb64a1d19c4a0890eed391db3757969",
    "mat2_rank1": "3e791b430e14ab0f59315349a1cc897810c00ecb285a18a171f24a5b1d9fa14b",
}


def test_catalog_reports_cover_every_example():
    assert tuple(sorted(CATALOG_REPORTS)) == constructions.CATALOG_NAMES


@pytest.mark.parametrize("name", sorted(CATALOG_REPORTS))
def test_catalog_report_is_stable(capsys, name):
    assert main(["catalog", name]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == CATALOG_REPORTS[name]


# stdout sha256 of the contraction and deformation reports beside the README's,
# recorded while the deform report still took its rows at t = 0 and t = 1 from
# the references: on the true path the report must not change with the way
# its verdicts are reached.
DEFORM_REPORTS = {
    "deform_3_1_at_0": (["deform", "3", "1", "--t", "0"],
                        "0d5e8f938e47921ab3a5993212ec3904cff1dd6750e40b0b1963a04f65690a6d"),
    "deform_3_1_at_1": (["deform", "3", "1", "--t", "1"],
                        "ac1c938418007eece3187f5bb99ea0dad37b8b00a9ed0346bcb00050e316a76e"),
    "deform_2_0_at_9_10": (["deform", "2", "0", "--t", "9/10"],
                           "9419e3d7e88219b15504dc1e3713f395a037d83e8d833d8b536b1c85a3700221"),
    "deform_3_3_at_1_2": (["deform", "3", "3", "--t", "1/2"],
                          "4aaf1828727bd3558d5c46f92b38cbde6f20a331e5593624ad7ea69bf6258ead"),
    "deform_4_2_at_2_3": (["deform", "4", "2", "--t", "2/3"],
                          "8e77a31c958b0768324bd116fe875f5b7466986e07bc3413d4fc4d89003868fc"),
    "contract_4_2": (["contract", "4", "2"],
                     "d4e731444698afa987ea5205cb70664e2598eaf222fa21ff03913b25b098d88d"),
    "coboundary_3_rational": (["coboundary", "3", "--j", "1/2 2 0; 0 1 0; 3 0 1"],
                              "f9df6f829c91d4b2a9534b637d66cc09d5ebc0062c23aa2aafbfc7b02788d801"),
}


@pytest.mark.parametrize("name", sorted(DEFORM_REPORTS))
def test_deform_report_is_stable(capsys, name):
    argv, digest = DEFORM_REPORTS[name]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def test_deform_computes_each_signature_once(capsys, monkeypatch):
    # Times 0 and 1, the user's t = 1/3, and the interior times of the path
    # table (1/3 again, 1/2, 9/10): five distinct times.
    calls = 0
    real = cli.invariant_signature

    def counted(algebra):
        nonlocal calls
        calls += 1
        return real(algebra)

    monkeypatch.setattr(cli, "invariant_signature", counted)
    argv, digest = README_EXAMPLES["deform"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest
    assert calls == 5


# A valid two-element representation file with one change, and the message
# that names the file and the key at fault.
BRACKETS_MESSAGE = '"brackets" must be a list of objects, each with "i", "j" and "terms"'
TERMS_MESSAGE = '"terms" must be a list of objects, each with "k" and "coef"'
PAIR_WITH_TERM = {"i": 0, "j": 1, "terms": [{"k": 0, "coef": "1"}]}
BAD_REPRESENTATIONS = {
    "no-brackets": (lambda rep: rep.pop("brackets"), 'missing key "brackets"'),
    "no-images": (lambda rep: rep.pop("images"), 'missing key "images"'),
    "no-dim": (lambda rep: rep.pop("dim"), 'missing key "dim"'),
    "bracket-without-i": (lambda rep: rep["brackets"][0].pop("i"), 'missing key "i"'),
    "bracket-without-terms": (lambda rep: rep["brackets"][0].pop("terms"), 'missing key "terms"'),
    "labels-number": (lambda rep: rep.update(labels=5), '"labels" must list one label for each of the 2 basis elements'),
    "labels-too-few": (lambda rep: rep.update(labels=["X"]), '"labels" must list one label for each of the 2 basis elements'),
    "no-image": (lambda rep: rep.update(images=[]), '"images" must be a nonempty list of matrices'),
    "brackets-number": (lambda rep: rep.update(brackets=5), BRACKETS_MESSAGE),
    "bracket-number": (lambda rep: rep.update(brackets=[5]), BRACKETS_MESSAGE),
    "terms-number": (lambda rep: rep["brackets"][0].update(terms=5), TERMS_MESSAGE),
    "term-number": (lambda rep: rep["brackets"][0].update(terms=[5]), TERMS_MESSAGE),
    "term-without-k": (lambda rep: rep["brackets"][0].update(terms=[{"coef": "1"}]), TERMS_MESSAGE),
    "term-without-coef": (lambda rep: rep["brackets"][0].update(terms=[{"k": 0}]), TERMS_MESSAGE),
    # A pair or a target listed twice has two readings, whichever entry comes first.
    "pair-twice-term-first": (lambda rep: rep["brackets"].insert(0, dict(PAIR_WITH_TERM)), "pair (0, 1) is listed twice"),
    "pair-twice-empty-first": (lambda rep: rep["brackets"].append(dict(PAIR_WITH_TERM)), "pair (0, 1) is listed twice"),
    "target-twice": (lambda rep: rep["brackets"][0].update(terms=[{"k": 0, "coef": "1"}, {"k": 0, "coef": "2"}]),
                     "pair (0, 1) lists a target twice in its terms"),
    # RepCandidate's own checks, named by the file too.
    "images-too-few": (lambda rep: rep.update(dim=3), "3 basis elements but 2 images"),
    "image-not-square": (lambda rep: rep.update(images=[{"rows": 1, "cols": 2, "entries": [[1, 0]]}] * 2),
                         "image of shape 1x2, expected square 1"),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "1", "1", "--j", "1/0"],
        ["deform", "2", "1", "--t", "1/0"],
        ["deform", "0", "0", "--t", "1/2"],
        ["contract", "0", "0"],
        ["coboundary", "0", "--j", "1"],
        ["coboundary", "-2", "--j", "1"],
        ["semidirect", "0", "1"],
        ["heisenberg", "0"],
        ["verify-all", "--max", "1"],
        ["verify-all", "--max", "0"],
        ["verify-all", "--max", "-1"],
        ["constants", "1", "1", "--j", "@{deep}"],
        ["embed", "--rep", "{deep}", "2", "2", "1"],
        ["constants", "1", "1", "--j", "1e-5"],
        ["constants", "1", "1", "--j", "0.5"],
        ["deform", "2", "1", "--t", "0.5"],
        ["deform", "2", "3", "--t", "1/2"],
        ["constants", "1", "1", "--j", "1_0"],
        ["constants", "1", "2", "--j", "1 x"],
        ["constants", "2", "2", "--j", "1 2; 3"],
        ["constants", "1", "1", "--j", " "],
        ["constants", "0", "2", "--j", "1"],
        ["center", "1", "1", "--j", "@{tmp}/no-such-j.txt"],
        ["constants", "1", "1", "--j", "{"],
        ["embed", "--rep", "{list}", "2", "2", "1"],
        ["embed", "--rep", "{number}", "2", "2", "1"],
        ["constants", "1", "1", "--j", '{"rows": 1, "cols": 1, "entries": 5}'],
        # argparse stores "--opt=--" as [] and calls no type=.
        ["constants", "2", "2", "--j=--"],
        ["center", "2", "2", "--j=--"],
        ["coboundary", "2", "--j=--"],
        ["witness", "--j1=--", "--j2=1"],
        ["witness", "--j1=1", "--j2=--"],
        ["deform", "2", "1", "--t=--"],
        ["embed", "--rep=--", "4", "5", "3"],
        # JSON reads true as a bool, an int subclass: it is no size, index or entry.
        ["embed", "--rep", "{dim-true}", "2", "2", "1"],
        ["embed", "--rep", "{dim-float}", "2", "2", "1"],
        ["embed", "--rep", "{index-true}", "2", "2", "1"],
        ["constants", "2", "2", "--j", '{"cols": 2, "entries": [[1, 0], [0, 1]]}'],
        ["constants", "2", "2", "--j", '{"rows": "2", "cols": 2, "entries": [[1, 0], [0, 1]]}'],
        ["constants", "1", "1", "--j", '{"rows": true, "cols": 1, "entries": [[1]]}'],
        ["constants", "1", "1", "--j", '{"rows": 1, "cols": 1, "entries": [[true]]}'],
        ["constants", "1", "2", "--j", '{"rows": 3, "cols": 1, "entries": [[1], [0]]}'],
        ["constants", "2", "2", "--j", '{"rows": 2, "cols": 2, "entries": [[1, 0], [0]]}'],
        ["constants", "1", "2", "--j", '{"rows": 2, "rows": 2, "cols": 1, "entries": [[1], [0]]}'],
        ["constants", "1", "2", "--j", "@{matrix-key-twice}"],
        ["embed", "--rep", "{dim-twice}", "2", "2", "1"],
        ["witness", "--j1", "1_x", "--j2", "1"],
        ["constants", "1", "2", "--j", "@{text-matrix}"],
        ["deform", "3", "1", "--t=0.5"],
        *(["embed", "--rep", "{" + name + "}", "2", "2", "1"] for name in BAD_REPRESENTATIONS),
    ],
    ids=["zero-denominator-matrix", "zero-denominator-time", "deform-size-0", "contract-size-0",
         "coboundary-size-0", "coboundary-size-negative",
         "semidirect-r-0", "heisenberg-n-0", "verify-all-max-1", "verify-all-max-0",
         "verify-all-max-negative", "deep-json-matrix-file", "deep-json-representation-file",
         "exponent-literal", "decimal-literal", "decimal-time", "deform-rank-above-size", "underscore-literal", "malformed-token",
         "ragged-matrix", "blank-matrix", "constants-size-0", "missing-matrix-file", "bad-json-matrix", "representation-is-list",
         "representation-is-number", "json-entries-is-number", "constants-j-dashes", "center-j-dashes",
         "coboundary-j-dashes", "witness-j1-dashes", "witness-j2-dashes", "deform-t-dashes", "embed-rep-dashes",
         "representation-dim-true", "representation-dim-float", "representation-index-true",
         "json-matrix-without-rows", "json-matrix-rows-string", "json-matrix-rows-true", "json-matrix-entry-true",
         "json-matrix-declared-shape", "json-matrix-ragged", "json-matrix-key-twice", "json-matrix-file-key-twice",
         "representation-key-twice", "witness-j1-malformed-token", "text-matrix-file-malformed-token", "deform-t-decimal",
         *(f"representation-{name}" for name in BAD_REPRESENTATIONS)],
)
def test_bad_input_is_usage_error(capsys, tmp_path, argv):
    # JSON nested far deeper than the parser's recursion limit.
    deep = tmp_path / "deep.json"
    deep.write_text('{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}")
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "number.json").write_text("3")
    files = {"{deep}": str(deep), "{list}": str(tmp_path / "list.json"),
             "{number}": str(tmp_path / "number.json"), "{tmp}": str(tmp_path)}
    image = {"rows": 1, "cols": 1, "entries": [[1]]}
    for name, dim, i in (("dim-true", True, 0), ("dim-float", 2.0, 0), ("index-true", 2, True)):
        rep = {"dim": dim, "brackets": [{"i": i, "j": 1, "terms": []}], "images": [image, image]}
        (tmp_path / f"{name}.json").write_text(json.dumps(rep))
        files["{" + name + "}"] = str(tmp_path / f"{name}.json")
    (tmp_path / "dim-twice.json").write_text('{"dim": 2, "dim": 3, "brackets": [], "images": [{"rows": 1, "cols": 1, "entries": [[1]]}]}')
    (tmp_path / "matrix-key-twice.json").write_text('{"rows": 1, "cols": 2, "cols": 1, "entries": [[1]]}')
    (tmp_path / "text-matrix.txt").write_text("1 x")
    for name in ("dim-twice", "matrix-key-twice"):
        files["{" + name + "}"] = str(tmp_path / f"{name}.json")
    files["{text-matrix}"] = str(tmp_path / "text-matrix.txt")
    for name, (change, _) in BAD_REPRESENTATIONS.items():
        rep = {"dim": 2, "brackets": [{"i": 0, "j": 1, "terms": []}], "images": [image, image]}
        change(rep)
        (tmp_path / f"{name}.json").write_text(json.dumps(rep))
        files["{" + name + "}"] = str(tmp_path / f"{name}.json")

    def fill(arg):
        for key, path in files.items():
            arg = arg.replace(key, path)
        return arg

    code, report, err = run_cli(capsys, *map(fill, argv))
    assert code == 2
    assert report is None
    assert err.startswith("error:")
    assert "Traceback" not in err
    # Malformed JSON of the right syntax is reported with the input it came from.
    messages = {
        "{list}": "error: {list}: a representation file must hold a JSON object",
        "{number}": "error: {number}: a representation file must hold a JSON object",
        '{"rows": 1, "cols": 1, "entries": 5}':
            'error: --j: a JSON matrix must be an object whose "entries" is a list of rows',
        **{f"--{opt}=--": f"error: --{opt}: '--' is not a value" for opt in ("j", "j1", "j2", "t", "rep")},
        "{dim-true}": 'error: {dim-true}: "dim", "i", "j" and "k" must be integers, got True',
        "{dim-float}": 'error: {dim-float}: "dim", "i", "j" and "k" must be integers, got 2.0',
        "{index-true}": 'error: {index-true}: "dim", "i", "j" and "k" must be integers, got True',
        **{
            arg: 'error: --j: a JSON matrix must give "rows" and "cols" as integers'
            for arg in ('{"cols": 2, "entries": [[1, 0], [0, 1]]}',
                        '{"rows": "2", "cols": 2, "entries": [[1, 0], [0, 1]]}',
                        '{"rows": true, "cols": 1, "entries": [[1]]}')
        },
        '{"rows": 1, "cols": 1, "entries": [[true]]}':
            "error: --j: a JSON matrix entry must be an integer or a rational string",
        '{"rows": 3, "cols": 1, "entries": [[1], [0]]}': "error: --j: declared shape 3x1 does not match entries 2x1",
        '{"rows": 2, "cols": 2, "entries": [[1, 0], [0]]}': "error: --j: ragged rows: all rows must have equal length",
        # Every error raised while an input is read names that input, and an input with two readings is refused.
        '{"rows": 2, "rows": 2, "cols": 1, "entries": [[1], [0]]}': 'error: --j: repeated key "rows"',
        "@{matrix-key-twice}": 'error: {matrix-key-twice}: repeated key "cols"',
        "{dim-twice}": 'error: {dim-twice}: repeated key "dim"',
        "1_x": "error: --j1: not an integer or p/q rational: '1_x'",
        "@{text-matrix}": "error: {text-matrix}: not an integer or p/q rational: 'x'",
        "{": "error: --j: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        "--t=0.5": "error: --t: not an integer or p/q rational: '0.5'",
        **{"{" + name + "}": "error: {" + name + "}: " + message for name, (_, message) in BAD_REPRESENTATIONS.items()},
    }
    for arg in argv:
        if arg in messages:
            assert err.startswith(fill(messages[arg]) + "\n")


@pytest.mark.parametrize(
    "argv",
    [["constants", "1", "1", "--j", "@{path}"], ["embed", "--rep", "{path}", "2", "2", "1"]],
    ids=["matrix-file", "representation-file"],
)
def test_a_file_that_is_not_utf8_is_named(capsys, tmp_path, argv):
    # The bytes ff fe 31 are not UTF-8: the decode error names the file, as
    # every other error read from it does.  A file that cannot be opened
    # still prints its OSError line, unprefixed.
    path = tmp_path / "bin.txt"
    path.write_bytes(b"\xff\xfe1")
    for name, line in (
        (path, f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (tmp_path / "missing.txt", f"error: [Errno 2] No such file or directory: '{tmp_path / 'missing.txt'}'"),
    ):
        code, report, err = run_cli(capsys, *(arg.replace("{path}", str(name)) for arg in argv))
        assert (code, report) == (2, None)
        assert err.startswith(line + "\n")


@pytest.mark.parametrize("n", ["0", "-2"])
def test_coboundary_size_below_one_is_an_invalid_size(capsys, n):
    # As for ``contract 0 0``: one message naming the size, not a shape
    # mismatch between the size and the parameter.
    code, report, err = run_cli(capsys, "coboundary", n, "--j", "1")
    assert (code, report) == (2, None)
    assert err.startswith(f"error: invalid size {n}\n")
    assert err.count("error:") == 1


def test_negative_parameter_in_equals_form(capsys):
    # "--j -3/4" is read by argparse as a missing value; the help text gives this form.
    code, report, _ = run_cli(capsys, "constants", "1", "1", "--j=-3/4")
    assert code == 0
    assert report["inputs"]["j"] == "-3/4"


ZEROS_13X12 = "; ".join([" ".join(["0"] * 12)] * 13)


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["classify", "40", "40"], cli.MAX_CLASSIFY_DIM),
        (["classify", "37", "1"], cli.MAX_CLASSIFY_DIM),
        (["heisenberg", "60"], cli.MAX_HEISENBERG_N),
        (["heisenberg", str(cli.MAX_HEISENBERG_N + 1)], cli.MAX_HEISENBERG_N),
        (["deform", "20", "1", "--t", "1/3"], cli.MAX_DEFORM_N),
        (["deform", str(cli.MAX_DEFORM_N + 1), "1", "--t", "1/3"], cli.MAX_DEFORM_N),
        (["coboundary", str(cli.MAX_DEFORM_N + 1), "--j", "1"], cli.MAX_DEFORM_N),
        (["verify-all", "--max", str(cli.MAX_VERIFY_SIZE + 1)], cli.MAX_VERIFY_SIZE),
        # The files named below do not exist: the limit is checked before any is read.
        (["constants", "15", "15", "--j", "@no-such-j.txt"], cli.MAX_PARAM_DIM),
        (["constants", str(cli.MAX_PARAM_DIM + 1), "1", "--j", "@no-such-j.txt"], cli.MAX_PARAM_DIM),
        (["center", "15", "15", "--j", "@no-such-j.txt"], cli.MAX_PARAM_DIM),
        (["center", "1", str(cli.MAX_PARAM_DIM + 1), "--j", "@no-such-j.txt"], cli.MAX_PARAM_DIM),
        (["embed", "--rep", "no-such-rep.json", "13", "12", "2"], cli.MAX_PARAM_DIM),
        # Only "dim" is well formed in this file: it is checked before the rest is read.
        (["embed", "--rep", "oversized-rep.json", "2", "2", "1"], cli.MAX_PARAM_DIM),
        (["contract", "60", "1"], cli.MAX_CONTRACT_N),
        (["contract", str(cli.MAX_CONTRACT_N + 1), "1"], cli.MAX_CONTRACT_N),
        (["semidirect", "8", "8"], cli.MAX_SEMIDIRECT_SIZE),
        (["semidirect", str(cli.MAX_SEMIDIRECT_SIZE), "1"], cli.MAX_SEMIDIRECT_SIZE),
        # ``witness`` takes its size from the parsed matrices: 13x12 and 145x1.
        (["witness", "--j1", ZEROS_13X12, "--j2", ZEROS_13X12], cli.MAX_PARAM_DIM),
        (["witness", "--j1", "0; " * cli.MAX_PARAM_DIM + "1", "--j2", "1"], cli.MAX_PARAM_DIM),
    ],
    ids=["classify-40x40", "classify-37x1", "heisenberg-60", "heisenberg-limit-plus-one",
         "deform-20", "deform-limit-plus-one", "coboundary-limit-plus-one",
         "verify-all-limit-plus-one", "constants-15x15", "constants-limit-plus-one", "center-15x15",
         "center-limit-plus-one", "embed-13x12", "embed-source-dim-limit-plus-one", "contract-60", "contract-limit-plus-one",
         "semidirect-8-8", "semidirect-limit-plus-one", "witness-13x12", "witness-limit-plus-one"],
)
def test_oversized_input_is_usage_error(capsys, monkeypatch, tmp_path, argv, limit):
    monkeypatch.chdir(tmp_path)
    payload = {"dim": cli.MAX_PARAM_DIM + 1, "brackets": 7, "labels": 7, "images": [{"entries": 7}]}
    (tmp_path / "oversized-rep.json").write_text(json.dumps(payload))

    def refuse(*args, **kwargs):
        raise AssertionError("computation started on an oversized input")

    refused = ["classify_rank_family", "heisenberg_realization", "rank_normal_form", "path_identities",
               "ce_coboundary_check", "run_all", "_matrix_arg", "structure_constants", "center_law",
               "ado_embed", "contraction_constants", "semidirect_S", "verified_witness"]
    if argv[0] == "witness":  # its limit is read off the parsed matrices
        refused.remove("_matrix_arg")
    for name in refused:
        monkeypatch.setattr(cli, name, refuse)
    code, report, err = run_cli(capsys, *argv)
    assert code == 2
    assert report is None
    assert err.startswith("error:") and f"limit of {limit}" in err
    assert "Traceback" not in err


def test_readme_states_every_limit_with_its_value():
    # Each `cli.MAX_...` (N) of the README names a limit of cli.py and its
    # value, so a changed limit cannot leave the README behind.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"`cli\.(MAX_\w+)` \((\d+)\)", text)
    assert {name for name, _ in stated} == {name for name in vars(cli) if name.startswith("MAX_")}
    for name, value in stated:
        assert int(value) == getattr(cli, name), name


def test_failed_heisenberg_relation_is_a_failed_verdict(capsys, monkeypatch):
    # Every bracket negated, as if its operands were swapped, so [X1, Y1] = -Z.
    real = constructions._pair_brackets

    def swapped(elements, param):
        return ((a, b, tuple(-x for x in w)) for a, b, w in real(elements, param))

    monkeypatch.setattr(constructions, "_pair_brackets", swapped)
    code, report, err = run_cli(capsys, "heisenberg", "1")
    assert code == 1
    assert report["verdicts"] == [{"name": "generator_relations", "pass": False}]
    assert "[FAIL] generator_relations" in err


# Generated malformed argv for every subcommand: each breaks one thing in a
# well-formed command line, either for argparse (a non-integer where an
# integer goes, a token dropped, an unknown option) or for the handler (a
# size out of range, a matrix of the wrong shape or syntax, an unreadable
# representation).  Every one must exit 2 with one ``error:`` line on stderr,
# nothing on stdout and no traceback, before any large computation starts.


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


SMALL = st.integers(1, 3)
NOT_INT = st.text(alphabet="abxz019/.;_ ", min_size=1, max_size=4).filter(lambda t: not _is_int(t))
BAD_MATRIX = st.sampled_from(["x", "1/0", "0.5", "1e-5", "1 2; 3", "{", "[1]", ";", "1 x", "--"])
NONPOSITIVE = st.integers(-3, 0)


@st.composite
def matrix_text(draw, rows, cols):
    entries = draw(st.lists(st.integers(0, 3), min_size=rows * cols, max_size=rows * cols))
    return "; ".join(" ".join(map(str, entries[i * cols : (i + 1) * cols])) for i in range(rows))


@st.composite
def misshapen(draw, rows, cols):
    """A matrix of any small shape other than ``rows x cols``."""
    shape = draw(st.tuples(SMALL, SMALL).filter(lambda s: s != (rows, cols)))
    return draw(matrix_text(*shape))


def over(limit):
    return st.integers(limit + 1, limit + 20)


def with_j(command, n, m, j):
    return [command, str(n), str(m), "--j", j]


def well_formed(command, rep):
    """Well-formed argv of ``command`` with small sizes (never run), and the
    argv positions that hold integers."""
    nm = st.tuples(SMALL, SMALL)
    cases = {
        "constants": nm.flatmap(lambda s: matrix_text(s[1], s[0]).map(lambda j: with_j("constants", *s, j))),
        "center": nm.flatmap(lambda s: matrix_text(s[1], s[0]).map(lambda j: with_j("center", *s, j))),
        "classify": nm.map(lambda s: ["classify", str(s[0]), str(s[1]), "--seed", "0"]),
        "witness": nm.flatmap(lambda s: st.tuples(matrix_text(*s), matrix_text(*s))).map(
            lambda js: ["witness", "--j1", js[0], "--j2", js[1]]),
        "heisenberg": SMALL.map(lambda n: ["heisenberg", str(n)]),
        "semidirect": nm.map(lambda s: ["semidirect", str(s[0]), str(s[1] - 1)]),
        "embed": st.just(["embed", "--rep", rep, "4", "5", "3"]),
        "contract": SMALL.map(lambda n: ["contract", str(n), "1"]),
        "deform": SMALL.map(lambda n: ["deform", str(n), "1", "--t", "1/3"]),
        "coboundary": SMALL.flatmap(lambda n: matrix_text(n, n).map(lambda j: ["coboundary", str(n), "--j", j])),
        "catalog": st.sampled_from(cli.CATALOG_NAMES).map(lambda name: ["catalog", name]),
        "verify-all": st.just(["verify-all", "--max", "2", "--seed", "0"]),
    }
    slots = {"constants": (1, 2), "center": (1, 2), "classify": (1, 2, 4), "heisenberg": (1,),
             "semidirect": (1, 2), "embed": (3, 4, 5), "contract": (1, 2), "deform": (1, 2),
             "coboundary": (1,), "verify-all": (2, 4)}
    return cases[command], slots.get(command, ())


def out_of_range(command, rep):
    """Argv that argparse accepts and the handler must refuse."""
    nm = st.tuples(SMALL, SMALL)
    nonpositive = st.tuples(NONPOSITIVE, SMALL).flatmap(lambda s: st.sampled_from([s, s[::-1]]))
    wrong_j = nm.flatmap(lambda s: st.one_of(misshapen(s[1], s[0]), BAD_MATRIX).map(lambda j: (*s, j)))
    param_cases = lambda c: st.one_of(
        wrong_j.map(lambda x: with_j(c, *x)),
        nonpositive.map(lambda s: with_j(c, *s, "1")),
        over(cli.MAX_PARAM_DIM).map(lambda n: with_j(c, n, 1, "1")),
    )
    cases = {
        "constants": param_cases("constants"),
        "center": param_cases("center"),
        "classify": st.one_of(nonpositive, over(cli.MAX_CLASSIFY_DIM).map(lambda n: (n, 1))).map(
            lambda s: ["classify", str(s[0]), str(s[1])]),
        "witness": st.one_of(
            st.tuples(nm, nm).filter(lambda p: p[0] != p[1]).flatmap(
                lambda p: st.tuples(matrix_text(*p[0]), matrix_text(*p[1]))),
            st.tuples(BAD_MATRIX, st.just("1")),
        ).flatmap(lambda js: st.sampled_from([js, js[::-1]])).map(
            lambda js: ["witness", f"--j1={js[0]}", f"--j2={js[1]}"]),
        "heisenberg": st.one_of(NONPOSITIVE, over(cli.MAX_HEISENBERG_N)).map(lambda n: ["heisenberg", str(n)]),
        "semidirect": st.one_of(
            st.tuples(NONPOSITIVE, SMALL), st.tuples(SMALL, st.integers(-3, -1)),
            st.tuples(SMALL, over(cli.MAX_SEMIDIRECT_SIZE)),
        ).map(lambda s: ["semidirect", str(s[0]), str(s[1])]),
        "embed": st.one_of(
            st.tuples(st.just(rep + ".missing"), SMALL, SMALL, SMALL),
            st.tuples(st.just(rep), st.integers(3, 5), st.integers(3, 5), st.integers(-2, 2)),
            st.tuples(st.just(rep), st.integers(-2, 2), st.integers(3, 5), st.just(3)),
            st.tuples(st.just(rep), over(cli.MAX_PARAM_DIM), st.just(1), st.just(3)),
        ).map(lambda x: ["embed", "--rep", x[0], *map(str, x[1:])]),
        "contract": st.one_of(
            st.tuples(NONPOSITIVE, st.just(0)), st.tuples(over(cli.MAX_CONTRACT_N), st.just(1)),
            SMALL.flatmap(lambda n: st.tuples(st.just(n), st.one_of(st.integers(-3, -1), over(n)))),
        ).map(lambda s: ["contract", str(s[0]), str(s[1])]),
        "deform": st.one_of(
            st.tuples(NONPOSITIVE, st.just(0), st.just("1/3")),
            st.tuples(over(cli.MAX_DEFORM_N), st.just(1), st.just("1/3")),
            SMALL.flatmap(lambda n: st.tuples(st.just(n), st.one_of(st.integers(-3, -1), over(n)), st.just("0"))),
            st.tuples(SMALL, st.just(0), st.sampled_from(["x", "1/0", "0.5", "-1", "4/3", "2"])),
        ).map(lambda x: ["deform", str(x[0]), str(x[1]), f"--t={x[2]}"]),
        "coboundary": st.one_of(
            SMALL.flatmap(lambda n: st.tuples(st.just(n), st.one_of(misshapen(n, n), BAD_MATRIX))),
            st.tuples(NONPOSITIVE, st.just("1")), st.tuples(over(cli.MAX_DEFORM_N), st.just("1")),
        ).map(lambda x: ["coboundary", str(x[0]), f"--j={x[1]}"]),
        "catalog": NOT_INT.filter(lambda name: name not in cli.CATALOG_NAMES).map(lambda name: ["catalog", name]),
        "verify-all": st.one_of(st.integers(-3, 1), over(cli.MAX_VERIFY_SIZE)).map(
            lambda k: ["verify-all", f"--max={k}"]),
    }
    return cases[command]


@st.composite
def malformed_argv(draw, command, rep):
    valid, slots = well_formed(command, rep)
    kind = draw(st.sampled_from(["not-int", "dropped", "unknown-option", "out-of-range"]))
    if kind == "out-of-range" or (kind == "not-int" and not slots):
        return draw(out_of_range(command, rep))
    argv = draw(valid)
    if kind == "not-int":
        argv[draw(st.sampled_from(slots))] = draw(NOT_INT)
    elif kind == "dropped":
        del argv[draw(st.integers(1, len(argv) - 1))]
    else:
        argv.insert(draw(st.integers(1, len(argv))), "--bogus")
    return argv


@pytest.fixture(scope="module")
def rep_file(tmp_path_factory):
    cand = constructions.classical_representation(1)  # 3 x 3 images
    payload = cand.src.constants.to_json()
    payload["images"] = [matrix_to_json(img) for img in cand.images]
    path = tmp_path_factory.mktemp("rep") / "rep.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("command", sorted(cli._build_parser()._subparsers._group_actions[0].choices))
def test_malformed_argv_is_one_usage_error(rep_file, command):
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(malformed_argv(command, rep_file))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
        assert code == 2, argv
        assert out.getvalue() == "", argv
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, argv
        assert "Traceback" not in err.getvalue(), argv

    check()


# An input that lists the same facts in another order is the same input.
# Shuffling the ``brackets`` list, each ``terms`` list and the keys of every
# object leaves the exit code, stdout and stderr as they were, and an input
# with an entry or a key given twice has two readings and is refused.


def _payload(cand: constructions.RepCandidate, labels=None) -> dict:
    payload = cand.src.constants.to_json()
    payload["images"] = [matrix_to_json(img) for img in cand.images]
    if labels is not None:
        payload["labels"] = list(labels)
    return payload


def _h1_in_basis_x_y_x_plus_z(y_scale=1) -> dict:
    """h_1 in the basis ``X, Y, X + Z``, whose two brackets ``[e0, e1] = e2
    - e0`` and ``[e1, e2] = e0 - e2`` have two terms each, with the images of
    ``classical_representation(1)``.  A ``y_scale`` other than 1 scales the
    image of ``Y``, and the map is no homomorphism."""
    x, y, z = constructions.classical_representation(1).images
    brackets = [{"i": 0, "j": 1, "terms": [{"k": 0, "coef": "-1"}, {"k": 2, "coef": "1"}]},
                {"i": 1, "j": 2, "terms": [{"k": 0, "coef": "1"}, {"k": 2, "coef": "-1"}]}]
    images = [matrix_to_json(img) for img in (x, y * y_scale, x + z)]
    return {"dim": 3, "brackets": brackets, "images": images, "labels": ["X", "Y", "X+Z"]}


# Each representation with the embed sizes it runs at and its exit code.
ORDERED_REPRESENTATIONS = {
    "h1": (None, ["4", "5", "3"], 0),  # the rep_file fixture's file
    "h2-labelled": (_payload(constructions.classical_representation(2), ("X1", "X2", "Y1", "Y2", "Z")), ["4", "5", "4"], 0),
    "h1-two-term-brackets": (_h1_in_basis_x_y_x_plus_z(), ["3", "4", "3"], 0),
    "not-a-homomorphism": (_h1_in_basis_x_y_x_plus_z(y_scale=2), ["3", "3", "3"], 2),
    "not-injective": ({"dim": 2, "brackets": [{"i": 0, "j": 1, "terms": []}],
                       "images": [{"rows": 1, "cols": 1, "entries": [[1]]}] * 2}, ["2", "2", "1"], 1),
}
# Each command with the text matrix of each option, given in JSON, and its exit code.
ORDERED_MATRICES = {
    "constants": (["constants", "2", "3"], {"--j": "1 0; 0 1/2; -2 0"}, 0),
    "witness": (["witness"], {"--j1": "1 0; 0 2", "--j2": "0 3; 1/2 0"}, 0),
}


def shuffled(value, rnd, key=None):
    """``value`` with the keys of every object, the ``brackets`` list and each
    ``terms`` list in orders drawn from ``rnd``; every other list keeps its order."""
    if isinstance(value, dict):
        items = [(k, shuffled(v, rnd, k)) for k, v in value.items()]
        rnd.shuffle(items)
        return dict(items)
    if isinstance(value, list):
        items = [shuffled(v, rnd) for v in value]
        if key in ("brackets", "terms"):
            rnd.shuffle(items)
        return items
    return value


def json_text(value, twice=None) -> str:
    """The JSON text of ``value``, in which the object numbered ``twice``, in
    document order, names its first key a second time."""
    numbers = iter(range(1 << 30))

    def write(v):
        if isinstance(v, dict):
            number = next(numbers)
            items = [f"{json.dumps(k)}: {write(x)}" for k, x in v.items()]
            return "{" + ", ".join(items + items[:1] * (number == twice)) + "}"
        if isinstance(v, list):
            return "[" + ", ".join(map(write, v)) + "]"
        return json.dumps(v)

    return write(value)


def count_objects(value) -> int:
    if isinstance(value, dict):
        return 1 + sum(map(count_objects, value.values()))
    return sum(map(count_objects, value)) if isinstance(value, list) else 0


def with_entry_twice(payload: dict, rnd) -> dict:
    """A copy of ``payload`` with one entry of ``brackets`` or of a ``terms``
    list, drawn from ``rnd``, listed a second time at a drawn place."""
    payload = json.loads(json.dumps(payload))
    lists = [payload["brackets"], *(entry["terms"] for entry in payload["brackets"])]
    target = rnd.choice([items for items in lists if items])
    target.insert(rnd.randint(0, len(target)), dict(rnd.choice(target)))
    return payload


def run_in_process(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_one_error_naming(result, source):
    code, out, err = result
    assert code == 2 and out == ""
    assert err.startswith(f"error: {source}: ") and sum("error:" in line for line in err.splitlines()) == 1, err


@pytest.mark.parametrize("name", sorted(ORDERED_REPRESENTATIONS))
def test_representation_order_does_not_matter(rep_file, tmp_path, name):
    payload, sizes, expected_code = ORDERED_REPRESENTATIONS[name]
    payload = json.loads(Path(rep_file).read_text()) if payload is None else payload
    path = tmp_path / "rep.json"
    argv = ["embed", "--rep", str(path), *sizes]
    path.write_text(json.dumps(payload))
    expected = run_in_process(argv)
    assert expected[0] == expected_code, expected

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.randoms(use_true_random=False))
    def check(rnd):
        reordered = shuffled(payload, rnd)
        path.write_text(json_text(reordered))
        assert run_in_process(argv) == expected
        path.write_text(json_text(reordered, twice=rnd.randrange(count_objects(reordered))))
        assert_one_error_naming(run_in_process(argv), path)
        path.write_text(json_text(with_entry_twice(reordered, rnd)))
        assert_one_error_naming(run_in_process(argv), path)

    check()


@pytest.mark.parametrize("name", sorted(ORDERED_MATRICES))
def test_json_matrix_key_order_does_not_matter(name):
    head, matrices, expected_code = ORDERED_MATRICES[name]
    objs = {option: matrix_to_json(parse_matrix(text)) for option, text in matrices.items()}

    def argv(texts):
        return head + [arg for option in objs for arg in (option, texts[option])]

    expected = run_in_process(argv({option: json.dumps(obj) for option, obj in objs.items()}))
    assert expected[0] == expected_code, expected

    @settings(max_examples=15, deadline=None)
    @given(st.randoms(use_true_random=False))
    def check(rnd):
        texts = {option: json_text(shuffled(obj, rnd)) for option, obj in objs.items()}
        assert run_in_process(argv(texts)) == expected
        option = rnd.choice(sorted(objs))
        texts[option] = json_text(shuffled(objs[option], rnd), twice=0)
        assert_one_error_naming(run_in_process(argv(texts)), option)

    check()


# A well-formed argv of each subcommand, after its name.
WELL_FORMED = {
    "constants": ["1", "1", "--j", "1"],
    "center": ["1", "1", "--j", "1"],
    "classify": ["1", "1"],
    "witness": ["--j1", "1", "--j2", "1"],
    "heisenberg": ["1"],
    "semidirect": ["1", "1"],
    "embed": ["--rep", "rep.json", "1", "1", "1"],
    "contract": ["1", "0"],
    "deform": ["1", "0", "--t", "0"],
    "coboundary": ["1", "--j", "1"],
    "catalog": [cli.CATALOG_NAMES[0]],
    "verify-all": [],
}
# For every subcommand: its help, an unknown option (a missing argument, or
# for verify-all the top parser's unrecognized-arguments error), and an
# extra argument after a well-formed argv (the top parser's error, whose
# usage lists every subcommand).  Then the top parser's help, an empty argv
# and an unknown command.
CLI_TEXT_CASES = [
    *([name, "-h"] for name in WELL_FORMED),
    *([name, "--bogus"] for name in WELL_FORMED),
    *([name, *argv, "extra"] for name, argv in WELL_FORMED.items()),
    ["-h"],
    [],
    ["nope", "1"],
]


def parser_text(parse, argv):
    """``(exit code, stdout, stderr, ArgumentParser count)`` of ``parse(argv)``,
    which must exit as argparse does on help or a usage error."""
    out, err, built = io.StringIO(), io.StringIO(), []
    real_init = cli.argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli.argparse.ArgumentParser, "__init__", counted)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            parse(list(argv))
    return exc.value.code, out.getvalue(), err.getvalue(), len(built)


@pytest.mark.parametrize("argv", CLI_TEXT_CASES, ids=" ".join)
def test_the_parser_of_one_command_prints_what_the_full_parser_prints(argv):
    # main builds the top parser and the named subcommand's parser alone;
    # every help, usage and error text is the full parser's, byte for byte.
    assert sorted(WELL_FORMED) == sorted(cli._build_parser()._subparsers._group_actions[0].choices)
    code, out, err, built = parser_text(main, argv)
    full_code, full_out, full_err, full_built = parser_text(lambda a: cli._build_parser().parse_args(a), argv)
    assert (code, out, err) == (full_code, full_out, full_err)
    assert (out or err) and full_built == 1 + len(WELL_FORMED)
    assert built == (2 if argv and argv[0] in WELL_FORMED else full_built)

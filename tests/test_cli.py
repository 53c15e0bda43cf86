import json
import math

import pytest

from agpolar.cli import _emit, build_parser, main

HERMITIAN_TABLE = [
    [0, 0, 2, 3, 2, 3, 2, 3],
    [0, 0, 2, 3, 1, 2, 3, 1],
    [0, 0, 1, 1, 1, 1, 1, 1],
    [0, 0, 2, 3, 3, 1, 1, 2],
    [0, 0, 1, 1, 3, 3, 2, 2],
    [0, 1, 2, 3, 2, 3, 2, 3],
    [0, 0, 1, 1, 2, 2, 3, 3],
    [1, 1, 1, 1, 1, 1, 1, 1],
]

HERM = ["--curve", "hermitian", "--field", "p=2,r=2"]
RAT = ["--curve", "rational", "--field", "p=2,r=2"]


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_kernel_table(capsys):
    rep = run_json(capsys, ["kernel"] + HERM)
    rows = rep["kernel"]["rows"]
    assert [r["values"] for r in rows] == HERMITIAN_TABLE
    assert rows[0]["label"] == "x^3y"


def test_exponent_values(capsys):
    rep = run_json(capsys, ["exponent"] + HERM)
    assert abs(rep["exponent"] - 0.5622) < 5e-5
    rep = run_json(capsys, ["exponent"] + RAT)
    assert abs(rep["exponent"] - math.log(24) / (4 * math.log(4))) < 1e-4
    rep = run_json(
        capsys, ["exponent", "--kron", "hermitian,rational", "--field", "p=2,r=2"]
    )
    assert abs(rep["exponent"] - 0.5665) < 5e-5


def test_standard_form(capsys):
    rep = run_json(capsys, ["standard-form"] + HERM)
    assert rep["polarizes_sof"] is True
    g = rep["standard_form"]
    assert all(g[i][i] == 1 for i in range(8))
    assert all(g[i][j] == 0 for i in range(8) for j in range(i + 1, 8))


def test_shorten(capsys):
    rep = run_json(capsys, ["shorten", "--castle"] + HERM)
    assert [e["l"] for e in rep["castle"]] == [2, 4, 6, 8]
    rep = run_json(capsys, ["shorten", "--points", "0,1"] + HERM)
    assert rep["kernel"]["l"] == 6
    assert abs(rep["exponent"] - 0.5268) < 5e-5


def test_kron(capsys):
    rep = run_json(
        capsys, ["kron", "--kron", "hermitian,rational", "--field", "p=2,r=2"]
    )
    assert rep["kernel"]["l"] == 32
    assert abs(rep["exponent"] - 0.5665) < 5e-5


def test_channel_info(capsys):
    rep = run_json(
        capsys, ["channel-info", "--channel", "qsc:0.1", "--field", "p=2,r=2"]
    )
    z = 2 * math.sqrt(0.9 * 0.1 / 3) + 2 * 0.1 / 3
    assert abs(rep["bhattacharyya"] - z) < 1e-5
    assert rep["sof"] is True and rep["q"] == 4


def test_split_conservation(capsys):
    rep = run_json(capsys, ["split", "--channel", "qsc:0.1"] + RAT)
    base = run_json(
        capsys, ["channel-info", "--channel", "qsc:0.1", "--field", "p=2,r=2"]
    )
    total = sum(s["mutual_info"] for s in rep["splits"])
    assert abs(total - 4 * base["mutual_info"]) < 1e-4  # 6-digit rounding
    one = run_json(capsys, ["split", "--channel", "qsc:0.1", "--index", "2"] + RAT)
    assert len(one["splits"]) == 1 and one["splits"][0]["index"] == 2


def test_polarize_deterministic(capsys):
    argv = ["polarize", "--channel", "qsc:0.1", "--samples", "300", "--seed", "7"] + RAT
    a = main(argv)
    out_a = capsys.readouterr().out
    b = main(argv)
    out_b = capsys.readouterr().out
    assert a == b == 0 and out_a == out_b
    rep = json.loads(out_a)
    assert [row["index"] for row in rep["z"]] == [1, 2, 3, 4]
    assert all(0.0 <= row["est"] <= 1.0 for row in rep["z"])


def test_select(capsys):
    rep = run_json(
        capsys,
        ["select", "--channel", "qsc:0.1", "--samples", "300", "--seed", "7",
         "--dim", "2"] + RAT,
    )
    assert rep["set"]["n"] == 1 and len(rep["set"]["members"]) == 2


def test_order(capsys):
    rep = run_json(capsys, ["order"] + HERM)
    assert rep["nodes"] == 8
    assert [6, 4] in rep["edges"]
    assert not any(i == 7 for i, _ in rep["edges"])


def test_distance_bound_and_dual(capsys, tmp_path):
    path = tmp_path / "set.json"
    members = sorted([[1, 2], [1, 1], [1, 0], [0, 2], [0, 1], [0, 0]])
    path.write_text(json.dumps({"n": 2, "l": 8, "members": members}))
    rep = run_json(
        capsys, ["distance-bound", "--n", "2", "--set", str(path)] + HERM
    )
    assert rep["lower"] == 30 and rep["upper"] == 64 and rep["exact"] == 30
    assert rep["dimension"] == 6 and rep["length"] == 64
    rep = run_json(capsys, ["dual", "--n", "2", "--set", str(path)] + HERM)
    assert len(rep["dual"]["members"]) == 58


def test_simulate(capsys):
    rep = run_json(
        capsys,
        ["simulate", "--channel", "qsc:0.1", "--samples", "200", "--seed", "5",
         "--dim", "2", "--trials", "200"] + RAT,
    )
    assert 0.0 <= rep["bler"] <= 1.0
    assert len(rep["info_positions"]) == 2


def test_verify(capsys):
    rep = run_json(capsys, ["verify"])
    assert rep["failed"] == 0 and rep["passed"] == len(rep["checks"]) == 8


def test_exit_codes(capsys, tmp_path):
    assert main(["kernel", "--curve", "nosuch", "--field", "p=2,r=2"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["kernel", "--curve", "custom:/does/not/exist", "--field", "p=2,r=2"]) == 2
    capsys.readouterr()
    # Hermitian split at the deepest index exceeds the exact-split cap
    assert main(["split", "--channel", "qsc:0.1", "--index", "8"] + HERM) == 3
    capsys.readouterr()


def test_out_and_table(capsys, tmp_path):
    path = tmp_path / "report.json"
    assert main(["exponent", "--out", str(path)] + RAT) == 0
    assert json.loads(path.read_text())["partial_distances"] == [1, 2, 3, 4]
    assert main(["exponent", "--format", "table"] + RAT) == 0
    out = capsys.readouterr().out
    assert "exponent:" in out


def test_help_everywhere(capsys):
    parser = build_parser()
    subs = ["kernel", "exponent", "standard-form", "shorten", "kron", "channel-info",
            "split", "polarize", "select", "order", "distance-bound", "dual",
            "simulate", "verify"]
    for cmd in subs:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([cmd, "--help"])
        assert exc.value.code == 0
        capsys.readouterr()


CHAN = ["--channel", "qsc:0.1", "--seed", "1"]


@pytest.mark.parametrize(
    "argv,why",
    [
        (["kernel", "--field", "p=2,r=2"], "--curve"),
        (["exponent", "--field", "p=2,r=2"], "--curve"),
        (["order", "--field", "p=2,r=2"], "--curve"),
        (["polarize", "--field", "p=2,r=2"] + CHAN, "--curve"),
        (["exponent", "--kron", "hermitian", "--field", "p=2,r=2"], "--kron"),
        (["polarize", "--n", "-1"] + CHAN + RAT, "n must be >= 0"),
        (["order", "--n", "-1"] + HERM, "n must be >= 0"),
        (["simulate", "--n", "-1", "--dim", "1"] + CHAN + RAT, "n must be >= 0"),
        (["polarize", "--samples", "0"] + CHAN + RAT, "samples must be >= 1"),
        (["select", "--samples", "0", "--dim", "1"] + CHAN + RAT, "samples must be >= 1"),
        (["simulate", "--samples", "100", "--trials", "0", "--dim", "1"] + CHAN + RAT,
         "trials must be >= 1"),
    ],
    ids=["kernel-no-curve", "exponent-no-curve", "order-no-curve", "polarize-no-curve",
         "exponent-one-kron", "polarize-n", "order-n", "simulate-n", "polarize-samples",
         "select-samples", "simulate-trials"],
)
def test_bad_input_one_line(argv, why, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and why in err


def test_emit_rejects_nan(capsys):
    args = build_parser().parse_args(["verify"])
    with pytest.raises(ValueError):
        _emit({"bler": float("nan")}, args)

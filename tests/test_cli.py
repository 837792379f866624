"""Command-line front end: exit codes, output formats, determinism."""

import io
import json
import os

import pytest

from fbsig.cli import main

CONFIG = {
    "systems": {
        "sq": {"f": "u1^2",
               "domain": {"x": [-1, 1], "u": [-1, 1], "u1": [1, 2]}},
        "sq2": {"f": "2*u1^2",
                "domain": {"x": [-1, 1], "u": [-1, 1], "u1": [1, 2]}},
        "exp34": {"f": "exp(u1)",
                  "domain": {"x": [-1, 1], "u": [-1, 1], "u1": [3, 4]}},
        "cubic": {"f": "u1^3/3 + x*u1 + u^2 + 2",
                  "domain": {"x": [0.2, 1.0], "u": [0.2, 0.8],
                             "u1": [1.8, 2.6]}},
        "lin": {"f": "u1",
                "domain": {"x": [-1, 1], "u": [-1, 1], "u1": [1, 2]}},
        "logx": {"f": "u1^2 + log(x) + 20",
                 "domain": {"x": [1e-6, 1], "u": [-1, 1], "u1": [1, 2]}},
        "logu1": {"f": "log(u1) + x",
                  "domain": {"x": [1, 2], "u": [-1, 1], "u1": [-1, 2]}},
        "overflow": {"f": "u1^2 + 1e-300*exp(1000*x)",
                     "domain": {"x": [0, 1], "u": [-1, 1], "u1": [1, 2]}},
    },
    "maps": {
        "double": {"X": "2*x", "U": "u"},
        "bad": {"X": "x^2", "U": "u"},
    },
    "grid": [5, 5, 5],
    "seed": 0,
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_invariants_regular_row(config_path):
    code, text = run(["invariants", "--config", config_path,
                      "--system", "sq", "--point", "0,0,1"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("x\tu\tu1\tregular\tJ\tK")
    cells = lines[1].split("\t")
    assert cells[3] == "yes"
    assert cells[4] == "0.5"        # J
    assert cells[5] == "0"          # K
    assert cells[6] == "0.5"        # J_br


def test_invariants_nonregular_row(config_path):
    code, text = run(["invariants", "--config", config_path,
                      "--system", "sq", "--point", "0,0,0"])
    assert code == 0
    assert "no(f" in text


def test_invariants_non_finite_jet(config_path):
    # u1^2 overflows at u1 = 1e308: named as such, without numpy warnings
    code, text = run(["invariants", "--config", config_path, "--system", "sq",
                      "--point=1e308,0,1e308", "--point", "0,0,1"])
    assert code == 0
    rows = [line.split("\t") for line in text.splitlines()[1:]]
    assert rows[0][3] == "no(non-finite jet)"
    assert rows[0][4:] == ["-"] * 8
    assert rows[1][3] == "yes"


def test_invariants_missing_system(config_path):
    code, _ = run(["invariants", "--config", config_path,
                   "--system", "nope", "--point", "0,0,1"])
    assert code == 3


def test_invariants_bad_point(config_path):
    code, _ = run(["invariants", "--config", config_path,
                   "--system", "sq", "--point", "0,0"])
    assert code == 3


def test_missing_config_file(tmp_path):
    code, _ = run(["invariants", "--config", str(tmp_path / "nope.json"),
                   "--system", "sq", "--point", "0,0,1"])
    assert code == 3


def test_signature_writes_csvs(config_path, tmp_path):
    out_csv = str(tmp_path / "sq.csv")
    code, text = run(["signature", "--config", config_path,
                      "--system", "sq", "--out", out_csv])
    assert code == 0
    assert "intrinsic_dim: 0" in text
    rows = open(out_csv).read().splitlines()
    assert rows[0].startswith("x,u,u1,j,")
    assert len(rows) == 126
    assert os.path.exists(str(tmp_path / "sq_skipped.csv"))


def test_signature_empty_cloud(config_path):
    code, text = run(["signature", "--config", config_path, "--system", "lin"])
    assert code == 4
    assert "no regular grid point" in text


def test_signature_at_the_edge_of_the_domain(config_path, tmp_path):
    # log(x) is defined on the whole box, down to x = 1e-6
    out_csv = str(tmp_path / "logx.csv")
    code, text = run(["signature", "--config", config_path,
                      "--system", "logx", "--out", out_csv])
    assert code == 0, text
    assert "samples: 125 (skipped 0)" in text


def test_signature_records_domain_errors(config_path, tmp_path):
    # log(u1) fails on the u1 = -1 and u1 = -0.25 grid planes only
    out_csv = str(tmp_path / "logu1.csv")
    code, text = run(["signature", "--config", config_path,
                      "--system", "logu1", "--out", out_csv])
    assert code == 0, text
    assert "samples: 75 (skipped 50)" in text
    skipped = open(str(tmp_path / "logu1_skipped.csv")).read().splitlines()
    assert len(skipped) == 51
    assert all(line.split(",")[2] in ("-1", "-0.25") for line in skipped[1:])
    assert all(line.endswith(",domain error") for line in skipped[1:])


def test_signature_records_non_finite_jets(config_path, tmp_path):
    # exp(1000*x) overflows on the x = 0.75 and x = 1 grid planes only
    out_csv = str(tmp_path / "overflow.csv")
    code, text = run(["signature", "--config", config_path,
                      "--system", "overflow", "--out", out_csv])
    assert code == 0, text
    assert "samples: 75 (skipped 50)" in text
    skipped = open(str(tmp_path / "overflow_skipped.csv")).read().splitlines()
    assert len(skipped) == 51
    assert all(line.split(",")[0] in ("0.75", "1") for line in skipped[1:])
    assert all(line.endswith(",non-finite jet") for line in skipped[1:])


@pytest.mark.parametrize("patch, extra", [
    ([1, 2, 3], []),
    ({"grid": ["a", 5, 5]}, []),
    ({"grid": [11.9, 5, 5]}, []),
    ({"grid": [5, 2.5, 5]}, []),
    ({"grid": [5, 5, True]}, []),
    ({"grid": "555"}, []),
    ({"tol_rel": float("nan")}, []),
    ({"min_overlap": float("inf")}, []),
    ({"min_overlap": 1.5}, []),
    ({"eps_reg": float("nan")}, []),
    ({"tol_rel": 10 ** 400}, []),
    ({"seed": 1.5}, []),
    ({}, ["--tol", "nan"]),
    ({}, ["--tol", "inf"]),
    ({}, ["--point", "0,0,nan"]),
    ({}, ["--point", "inf,0,1"]),
], ids=["not-object", "grid-str", "grid-11.9", "grid-2.5", "grid-true",
        "grid-not-list", "tol-nan", "overlap-inf", "overlap-1.5", "eps-nan",
        "tol-huge", "seed-1.5", "cli-tol-nan", "cli-tol-inf", "point-nan",
        "point-inf"])
def test_malformed_config_exits_3(tmp_path, patch, extra):
    raw = dict(CONFIG, **patch) if isinstance(patch, dict) else patch
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    argv = ["invariants", "--config", str(path), "--system", "sq"] + extra
    if "--point" not in extra:
        argv += ["--point", "0,0,1"]
    code, text = run(argv)
    assert code == 3
    assert text.startswith("config error:"), text


def test_equiv_exit_codes(config_path):
    code, text = run(["equiv", "--config", config_path, "cubic", "cubic"])
    assert code == 0
    assert json.loads(text)["status"] == "EQUIVALENT"

    code, text = run(["equiv", "--config", config_path, "sq", "exp34"])
    assert code == 1
    assert json.loads(text)["status"] == "NOT_EQUIVALENT"

    code, text = run(["equiv", "--config", config_path, "sq", "sq2"])
    assert code == 2
    assert json.loads(text)["status"] == "INCONCLUSIVE"


def test_transform_invariance_report(config_path, tmp_path):
    out_csv = str(tmp_path / "t.csv")
    code, text = run(["transform", "--config", config_path, "--system", "sq",
                      "--map", "double", "--out", out_csv])
    assert code == 0
    err = float(text.splitlines()[-1].split(": ")[-1])
    assert err < 1e-9
    rows = open(out_csv).read().splitlines()
    assert rows[0] == ("x,u,u1,xt,ut,u1t,g,g_u1,g_u,g_x,g_u1u1,g_uu1,g_uu,"
                       "g_xu1,g_xu,g_xx,J_F,J_G")
    assert len(rows) == 126


def test_transform_noninvertible_map(config_path):
    code, text = run(["transform", "--config", config_path, "--system", "sq",
                      "--map", "bad"])
    assert code == 4
    assert "VIOLATION" in text


def test_orbit_dim_table(config_path):
    code, text = run(["orbit-dim", "--config", config_path, "--k", "1,2,3"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "k\trank\texpected\tsv_gap\tstatus"
    ranks = [line.split("\t")[1] for line in lines[1:4]]
    assert ranks == ["7", "12", "18"]
    assert all(line.split("\t")[4] == "PASS" for line in lines[1:4])
    assert "competing dimension expression" in text


def test_orbit_dim_cap(config_path):
    code, _ = run(["orbit-dim", "--config", config_path, "--k", "9"])
    assert code == 3


def test_full_suite_byte_identical(config_path, tmp_path):
    def one_pass():
        # same output paths on both passes so stdout is comparable verbatim
        blobs = []
        for argv, outfile in [
            (["invariants", "--config", config_path, "--system", "sq",
              "--point", "0,0,1", "--point", "0.5,0.5,1.5"], None),
            (["signature", "--config", config_path, "--system", "cubic",
              "--out", str(tmp_path / "c.csv")], str(tmp_path / "c.csv")),
            (["equiv", "--config", config_path, "sq", "exp34"], None),
            (["transform", "--config", config_path, "--system", "sq",
              "--map", "double", "--out", str(tmp_path / "t.csv")],
             str(tmp_path / "t.csv")),
            (["orbit-dim", "--config", config_path, "--k", "1,2,3,4"], None),
        ]:
            code, text = run(argv)
            blobs.append(("exit=%d" % code) + text)
            if outfile:
                blobs.append(open(outfile, "rb").read().decode())
                skipped = outfile.replace(".csv", "_skipped.csv")
                if os.path.exists(skipped):
                    blobs.append(open(skipped, "rb").read().decode())
        return "\x00".join(blobs)

    assert one_pass() == one_pass()

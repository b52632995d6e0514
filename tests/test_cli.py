"""Config-driven entry point: artifacts, overrides, and exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy

import smallball
from smallball import cli
from smallball.errors import (
    EmptyCurveError,
    FitDegenerateError,
    NumericsError,
    SmallballError,
    SpecError,
    VerificationError,
)

BM = {"kind": "bm"}
SUP = {"kind": "lp", "p": "inf"}
L2 = {"kind": "lp", "p": 2}
TRANSFER_SUP = {"norm": SUP, "m": 1.0, "law": {"kappa": 0.125, "tau": 0.5}}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_artifact_json(path):
    body = "\n".join(
        ln for ln in path.read_text().splitlines() if not ln.startswith("#")
    )
    return json.loads(body)


def read_csv(path):
    lines = path.read_text().splitlines()
    manifest = [ln for ln in lines if ln.startswith("#")]
    rest = [ln for ln in lines if not ln.startswith("#")]
    return manifest, rest[0], rest[1:]


# ---------------------------------------------------------------------------
# exit codes


def test_error_exit_codes():
    assert SpecError.exit_code == 1
    assert NumericsError.exit_code == 2
    assert VerificationError.exit_code == 3
    assert SmallballError.exit_code == 2
    assert issubclass(FitDegenerateError, NumericsError)
    assert issubclass(EmptyCurveError, NumericsError)


def test_unknown_kind_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_seed(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"process": BM, "norm": L2, "eps": [0.5], "n_samples": 100}
    )
    code = cli.main(["smallball", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_missing_field_names_it(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"process": BM, "norm": L2, "n_samples": 100, "seed": 1}
    )
    code = cli.main(["smallball", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    assert "eps" in capsys.readouterr().err


def test_unknown_process_kind(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"process": {"kind": "pink_noise"}, "grid_n": 16, "seed": 1},
    )
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    assert "pink_noise" in capsys.readouterr().err


@pytest.mark.parametrize(
    "process,norm,kind",
    [(BM, {"kind": "holder"}, "holder"), ({"kind": "fbm", "h": "x"}, L2, "fbm")],
)
def test_malformed_field_is_spec_error(tmp_path, capsys, process, norm, kind):
    cfg = write_config(
        tmp_path,
        {"process": process, "norm": norm, "eps": [0.5], "n_samples": 100, "seed": 1},
    )
    code = cli.main(["smallball", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and kind in err


@pytest.mark.parametrize(
    "kind, payload, field",
    [
        ("eigen", {"analytic": "bm", "modes": "x"}, "modes"),
        ("eigen", {"analytic": "bm", "modes": 16, "k_range": 5}, "k_range"),
        ("simulate", {"process": BM, "grid_n": "abc"}, "grid_n"),
        ("simulate", {"process": BM, "grid_n": math.inf}, "grid_n"),
        ("quantize", {"analytic": "bm", "modes": 16, "budgets": [1.0, "x"]}, "budgets"),
        *(
            ("transfer", {**TRANSFER_SUP, "kappa_norm": kn}, "kappa_norm")
            for kn in (0.0, -1.0, math.nan)
        ),
    ],
)
def test_malformed_scalar_field_is_spec_error(tmp_path, capsys, kind, payload, field):
    cfg = write_config(tmp_path, {**payload, "seed": 1})
    code = cli.main([kind, "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


def test_eigen_rejects_derivative_of_analytic_spectrum(tmp_path, capsys):
    cfg = write_config(tmp_path, {"analytic": "ibm", "derivative": True, "seed": 1})
    assert cli.main(["eigen", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "derivative" in capsys.readouterr().err


def test_eigen_derivative_is_spectrum_of_derivative_spec(tmp_path):
    ibm = {"kind": "integrated", "base": BM, "m": 1}
    base = {"grid_n": 64, "modes": 16, "seed": 1}
    der, ref = tmp_path / "der", tmp_path / "ref"
    cfg = write_config(tmp_path, {**base, "process": ibm, "derivative": True}, "d.json")
    assert cli.main(["eigen", "--config", cfg, "--out", str(der)]) == 0
    cfg = write_config(tmp_path, {**base, "process": BM}, "r.json")
    assert cli.main(["eigen", "--config", cfg, "--out", str(ref)]) == 0
    assert read_csv(der / "eigen.csv")[1:] == read_csv(ref / "eigen.csv")[1:]


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "JSON" in capsys.readouterr().err


def test_config_must_be_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1


def test_bad_thread_count_is_spec_error(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, {"process": BM, "grid_n": 16, "seed": 1})
    monkeypatch.setenv("SMALLBALL_THREADS", "abc")
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    assert "SMALLBALL_THREADS" in capsys.readouterr().err


def test_chenli_unreachable_radius_is_numerics_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "target": {"kind": "integrated", "base": BM, "m": 1},
            "comparison": BM,
            "norm": SUP,
            "m": 1.0,
            "eps": [0.001],
            "lam": [2.0],
            "n_samples": 100,
            "grid_n": 64,
            "seed": 3,
        },
    )
    code = cli.main(["chenli", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# artifacts


def test_simulate_artifact(tmp_path):
    cfg = write_config(
        tmp_path, {"process": BM, "grid_n": 16, "count": 3, "seed": 5}
    )
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    manifest, header, rows = read_csv(out / "simulate.csv")
    assert manifest[0] == "# smallball-v0.1.0"
    assert manifest[1].startswith("# config: {")
    assert header == "t,path_0,path_1,path_2"
    assert len(rows) == 16
    assert all(len(r.split(",")) == 4 for r in rows)
    meta = json.loads((out / "simulate.manifest.json").read_text())
    assert set(meta) == {"config", "version", "wall_time_s"}
    assert "out" not in meta["config"]  # placement is not part of the experiment
    assert meta["version"] == "smallball-v0.1.0"


def test_smallball_and_ratefit_artifacts(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "process": BM,
            "norm": L2,
            "eps": [1.0, 0.8, 0.6, 0.5, 0.4],
            "n_samples": 3000,
            "grid_n": 256,
            "seed": 11,
        },
    )
    out = tmp_path / "fit"
    assert cli.main(["ratefit", "--config", cfg, "--out", str(out)]) == 0
    _manifest, header, rows = read_csv(out / "smallball.csv")
    assert header == "eps,neg_log_p,stderr,method"
    assert [float(r.split(",")[0]) for r in rows] == [1.0, 0.8, 0.6, 0.5, 0.4]
    assert all(r.split(",")[3] == "mc" for r in rows)
    fit = read_artifact_json(out / "ratefit.json")
    assert set(fit) == {"kappa", "inv_tau", "theta", "r2"}
    assert fit["inv_tau"] > 0.0 and 0.0 < fit["r2"] <= 1.0


def test_transfer_artifact_exact_values(tmp_path):
    cfg = write_config(
        tmp_path,
        {**TRANSFER_SUP, "kappa_norm": math.pi**2 / 8.0, "seed": 1},
    )
    out = tmp_path / "tr"
    assert cli.main(["transfer", "--config", cfg, "--out", str(out)]) == 0
    res = read_artifact_json(out / "transfer.json")
    d_ref = (math.pi**2 / 2.0) ** (1.0 / 3.0)
    assert res["exponent"] == 2.0 / 3.0
    assert res["log_exponent"] == 0.0
    assert res["d_star"] == pytest.approx(d_ref, rel=1e-14)
    assert res["constant"] == pytest.approx(0.75 * d_ref, rel=1e-14)


def test_transfer_unresolved_constant(tmp_path):
    cfg = write_config(
        tmp_path,
        {"norm": L2, "m": 1.0, "law": {"kappa": 0.125, "tau": 0.5}, "seed": 1},
    )
    out = tmp_path / "tr2"
    assert cli.main(["transfer", "--config", cfg, "--out", str(out)]) == 0
    res = read_artifact_json(out / "transfer.json")
    assert res["constant"] == "unresolved" and res["d_star"] is None


def test_transfer_converse_direction(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "direction": "converse",
            "norm": SUP,
            "m": 1.0,
            "law": {"gamma": 0.5, "delta": 0.2},
            "seed": 1,
        },
    )
    out = tmp_path / "tr3"
    assert cli.main(["transfer", "--config", cfg, "--out", str(out)]) == 0
    res = read_artifact_json(out / "transfer.json")
    assert res["exponent"] == 1.0
    assert res["log_exponent"] == pytest.approx(0.4, abs=1e-15)


def test_eigen_artifact(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"analytic": "bm", "modes": 16, "k_range": [2, 14], "seed": 1},
    )
    out = tmp_path / "eig"
    assert cli.main(["eigen", "--config", cfg, "--out", str(out)]) == 0
    _manifest, header, rows = read_csv(out / "eigen.csv")
    assert header == "k,lambda"
    assert len(rows) == 16
    k1, lam1 = rows[0].split(",")
    assert int(k1) == 1
    assert float(lam1) == (math.pi / 2.0) ** -2.0
    assert "eigen slope" in capsys.readouterr().out


def test_quantize_artifact(tmp_path):
    cfg = write_config(
        tmp_path,
        {"analytic": "bm", "modes": 64, "budgets": [1.0, 2.0], "n_mc": 2000, "seed": 9},
    )
    out = tmp_path / "qz"
    assert cli.main(["quantize", "--config", cfg, "--out", str(out)]) == 0
    _manifest, header, rows = read_csv(out / "quantize.csv")
    assert header == "r,distortion,stderr"
    d = [float(r.split(",")[1]) for r in rows]
    assert d[0] > d[1]


def test_chenli_artifact_rows_ordered(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "target": {"kind": "integrated", "base": BM, "m": 1},
            "comparison": BM,
            "norm": SUP,
            "m": 1.0,
            "eps": [0.3, 0.5],
            "lam": [2.0, 0.5],
            "n_samples": 400,
            "grid_n": 128,
            "seed": 7,
        },
    )
    out = tmp_path / "cl"
    assert cli.main(["chenli", "--config", cfg, "--out", str(out)]) == 0
    _manifest, header, rows = read_csv(out / "chenli.csv")
    assert header == "lambda,eps,lhs,rhs,margin_stderr"
    parsed = [tuple(float(v) for v in r.split(",")) for r in rows]
    assert [(p[1], p[0]) for p in parsed] == [
        (0.5, 0.5),
        (0.5, 2.0),
        (0.3, 0.5),
        (0.3, 2.0),
    ]
    assert all(p[4] > -2.0 for p in parsed)


# ---------------------------------------------------------------------------
# reproducibility and overrides


def test_byte_identical_across_runs_and_threads(tmp_path, monkeypatch):
    payload = {
        "process": BM,
        "norm": L2,
        "eps": [0.8, 0.5],
        # 3 chunks of Grid(256) rows, so the threaded run uses the pool
        "n_samples": 20000,
        "grid_n": 256,
        "seed": 13,
    }
    cfg = write_config(tmp_path, payload)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["smallball", "--config", cfg, "--out", str(a)]) == 0
    monkeypatch.setenv("SMALLBALL_THREADS", "4")
    assert cli.main(["smallball", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "smallball.csv").read_bytes() == (b / "smallball.csv").read_bytes()


# sha256 of the verify-all artifacts at the default seed, whole and line by
# line, and the numpy and scipy versions they hold under; a change that moves
# a value on purpose declares it and records the new digests of _digests
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def _digests(data: bytes) -> dict:
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "lines": [hashlib.sha256(ln).hexdigest() for ln in data.splitlines()],
    }


def test_verify_all_artifacts_match_golden_digests(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    versions = (np.__version__, scipy.__version__)
    if versions != (golden["numpy"], golden["scipy"]):
        pytest.skip(
            f"golden digests hold under numpy {golden['numpy']} and scipy "
            f"{golden['scipy']}, not numpy {versions[0]} and scipy {versions[1]}"
        )
    assert cli.main(["verify-all", "--out", str(tmp_path)]) == 0
    for name, want in golden["verify-all"].items():
        data = (tmp_path / name).read_bytes()
        got = _digests(data)
        if got["sha256"] == want["sha256"]:
            continue
        lines = data.splitlines()
        pairs = list(zip(got["lines"], want["lines"]))
        first = next((i for i, (a, b) in enumerate(pairs) if a != b), len(pairs))
        shown = lines[first].decode() if first < len(lines) else "<end of file>"
        pytest.fail(f"{name} differs from its golden digest at line {first + 1}: {shown!r}")


def test_seed_flag_overrides_config(tmp_path):
    payload = {
        "process": BM,
        "norm": L2,
        "eps": [0.8, 0.5],
        "n_samples": 2000,
        "grid_n": 256,
        "seed": 13,
    }
    cfg = write_config(tmp_path, payload)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["smallball", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["smallball", "--config", cfg, "--out", str(b), "--seed", "14"]) == 0
    assert (a / "smallball.csv").read_bytes() != (b / "smallball.csv").read_bytes()


_STATS_LOADED = """
import sys
def stats():
    return sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "stats"])
import smallball
print(stats())
import smallball.cli
print(stats())
"""


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone costs every cold start about a third of a second;
    # the package takes its normal and F kernels from scipy.special
    src = os.path.dirname(os.path.dirname(os.path.abspath(smallball.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", _STATS_LOADED], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]

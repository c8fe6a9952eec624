import json

import numpy as np
import pytest

from supdens.cli import run_cli


@pytest.fixture()
def data_file(tmp_path):
    rng = np.random.default_rng(60)
    path = tmp_path / "data.csv"
    np.savetxt(path, rng.uniform(0, 1, 120), fmt="%.17g")
    return str(path)


@pytest.fixture()
def data2d_file(tmp_path):
    rng = np.random.default_rng(61)
    path = tmp_path / "data2.csv"
    np.savetxt(path, rng.uniform(0, 1, (90, 2)), fmt="%.17g", delimiter=",")
    return str(path)


def test_solve_writes_json_report(data_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli([
        "solve", "--method", "boundary-kernel", "--mode", "proposed",
        "--bandwidth", "0.2", "--input", data_file, "--output", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert {"l_hat", "u_hat", "residual_left", "residual_right"} <= payload.keys()
    assert abs(payload["residual_right"]) < 1e-10


def test_solve_to_stdout(data_file, capsys):
    code = run_cli([
        "solve", "--method", "reflection", "--mode", "extremes",
        "--bandwidth", "0.1", "--input", data_file,
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "extremes"


def test_fit_eval_round_trip_bit_exact(data_file, tmp_path):
    model = tmp_path / "model.json"
    grid1 = tmp_path / "g1.csv"
    grid2 = tmp_path / "g2.csv"
    assert run_cli([
        "fit", "--method", "reflection", "--mode", "proposed",
        "--bandwidth", "0.12", "--input", data_file, "--output", str(model),
    ]) == 0
    assert run_cli(["eval", "--model", str(model), "--grid", "0:1:101", "--output", str(grid1)]) == 0
    assert run_cli(["eval", "--model", str(model), "--grid", "0:1:101", "--output", str(grid2)]) == 0
    b1 = grid1.read_bytes()
    assert b1 == grid2.read_bytes()
    # and the values match a direct library evaluation bit-for-bit
    m = json.loads(model.read_text())
    from supdens import FittedEstimator, Sample, SupportInterval, evaluate_grid, get_kernel

    est = FittedEstimator(
        "reflection",
        Sample(m["sample"]),
        float(m["bandwidth"]),
        SupportInterval(m["support"]["lower"], m["support"]["upper"]),
        get_kernel(m["kernel"]),
    )
    rows = evaluate_grid(est, np.linspace(0, 1, 101))
    expected = "x,pdf,cdf\n" + "\n".join(
        ",".join(format(v, ".17g") for v in row) for row in rows
    ) + "\n"
    assert b1.decode() == expected


def test_simulate_byte_identical(tmp_path):
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    args = ["simulate", "--dist", "beta:1,1", "--n", "25", "--reps", "4", "--seed", "7",
            "--nodes", "501"]
    assert run_cli(args + ["--output", str(out1)]) == 0
    assert run_cli(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_config_file_matches_flags(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# comparison run\n"
        "dist = beta:1,1\n"
        "n = 25\n"
        "reps = 4\n"
        "seed = 7\n"
        "nodes = 501\n"
    )
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--output", str(out1)]) == 0
    assert run_cli(["simulate", "--dist", "beta:1,1", "--n", "25", "--reps", "4",
                    "--seed", "7", "--nodes", "501", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # flags override config values
    out3 = tmp_path / "c3.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--reps", "2",
                    "--output", str(out3)]) == 0
    assert out3.read_bytes() != out1.read_bytes()
    # a config value is not parsed when its flag is set
    cfg.write_text("dist = beta:1,1\nn = 25\nreps = four\nseed = 7\nnodes = 501\n")
    out4 = tmp_path / "c4.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--reps", "4", "--output", str(out4)]) == 0
    assert out4.read_bytes() == out1.read_bytes()
    # an unknown key and a bad value are data errors naming the line
    for text in ("reps = 4\ncolour = red\n", "reps = 4\nseed = seven\n"):
        cfg.write_text(text)
        assert run_cli(["simulate", "--config", str(cfg)]) == 2
        assert f"{cfg}:2:" in capsys.readouterr().err


def test_eval_json_records(data_file, tmp_path, capsys):
    model = tmp_path / "m.json"
    assert run_cli(["fit", "--method", "naive", "--bandwidth", "0.2",
                    "--input", data_file, "--output", str(model)]) == 0
    assert run_cli(["eval", "--model", str(model), "--grid", "0:1:3",
                    "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 3
    assert {"x", "pdf", "cdf"} == set(records[0])


def test_simulate_json_format(tmp_path, capsys):
    code = run_cli(["simulate", "--dist", "beta:3,1", "--n", "20", "--reps", "2",
                    "--seed", "1", "--nodes", "501", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["distribution"] == "beta(3,1)"
    assert len(payload["cells"]) == 5


def test_joint_grid_output(data2d_file, tmp_path):
    out = tmp_path / "joint.csv"
    rep = tmp_path / "rep.json"
    code = run_cli([
        "joint", "--input", data2d_file, "--method", "reflection", "--mode", "proposed",
        "--bandwidth", "0.15", "--grid", "0:1:4", "--output", str(out), "--report", str(rep),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,pdf,cdf"
    assert len(lines) == 17
    reports = json.loads(rep.read_text())
    assert len(reports["reports"]) == 2


def test_exit_codes(tmp_path, data_file, capsys):
    # usage: unknown flag value
    assert run_cli(["solve", "--method", "nope", "--mode", "proposed", "--input", data_file]) == 1
    # usage: missing required
    assert run_cli(["fit", "--method", "reflection", "--input", data_file]) == 1
    # data: malformed csv
    bad = tmp_path / "bad.csv"
    bad.write_text("0.1\nabc\n0.5\n")
    assert run_cli(["fit", "--method", "naive", "--bandwidth", "0.1", "--input", str(bad)]) == 2
    # data: missing file
    assert run_cli(["fit", "--method", "naive", "--bandwidth", "0.1", "--input",
                    str(tmp_path / "missing.csv")]) == 2
    capsys.readouterr()


def test_max_iter_is_a_fit_and_solve_option(data_file, data2d_file, capsys):
    # the bisection cap reaches fit and solve; joint does not take it
    for command in ("fit", "solve"):
        assert run_cli([command, "--method", "boundary-kernel", "--mode", "proposed",
                        "--bandwidth", "0.2", "--max-iter", "1", "--input", data_file]) == 3
    assert run_cli(["joint", "--input", data2d_file, "--method", "reflection", "--mode", "proposed",
                    "--bandwidth", "0.15", "--grid", "0:1:4", "--max-iter", "1"]) == 1
    capsys.readouterr()


def test_no_partial_output_on_failure(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("abc\n")
    out = tmp_path / "never.json"
    code = run_cli(["solve", "--method", "reflection", "--mode", "proposed",
                    "--input", str(bad), "--output", str(out)])
    assert code == 2
    assert not out.exists()


def test_mode_known_requires_bounds(data_file):
    assert run_cli(["fit", "--method", "reflection", "--mode", "known",
                    "--bandwidth", "0.1", "--input", data_file]) == 1


def test_fit_with_known_support(data_file, capsys):
    code = run_cli(["fit", "--method", "boundary-kernel", "--mode", "known",
                    "--lower", "0", "--upper", "1", "--bandwidth", "0.2",
                    "--input", data_file])
    assert code == 0
    model = json.loads(capsys.readouterr().out)
    assert model["support"] == {"lower": 0.0, "upper": 1.0}
    assert model["solve_report"] is None


def test_gaussian_kernel_path(data_file, capsys):
    code = run_cli(["fit", "--method", "reflection", "--mode", "known",
                    "--lower", "-0.5", "--upper", "1.5", "--bandwidth", "0.3",
                    "--kernel", "gaussian", "--input", data_file])
    assert code == 0
    capsys.readouterr()

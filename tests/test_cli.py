import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from supdens import bandwidth, cli
from supdens.cli import _grid_csv, run_cli


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


def test_eval_validates_the_model(tmp_path, capsys):
    # the estimator checks itself, so a model edited by hand into an invalid one fails
    path = tmp_path / "model.json"
    model = {"method": "boundary-kernel", "kernel": "gaussian", "bandwidth": 5.0,
             "support": {"lower": 0.4, "upper": 1.0}, "solve_report": None, "sample": [0.2, 0.5, 0.8]}
    path.write_text(json.dumps(model))
    assert run_cli(["eval", "--model", str(path), "--grid", "0:1:3"]) == 1
    model.update(method="reflection", kernel="epanechnikov", bandwidth=0.1)
    path.write_text(json.dumps(model))
    assert run_cli(["eval", "--model", str(path), "--grid", "0:1:3"]) == 2
    assert "not contained in support" in capsys.readouterr().err
    # a naive model keeps the support (-inf, inf) that fit wrote
    model.update(method="naive", support={"lower": 0.0, "upper": 1.0}, sample=[0.2, 0.5])
    path.write_text(json.dumps(model))
    assert run_cli(["eval", "--model", str(path), "--grid", "0:1:3"]) == 1
    model.update(support={"lower": -np.inf, "upper": np.inf})
    path.write_text(json.dumps(model))
    assert run_cli(["eval", "--model", str(path), "--grid", "0:1:3"]) == 0
    # a value that is not a number is a malformed model
    model.update(bandwidth="wide")
    path.write_text(json.dumps(model))
    assert run_cli(["eval", "--model", str(path), "--grid", "0:1:3"]) == 2
    assert "malformed model" in capsys.readouterr().err


def test_simulate_byte_identical(tmp_path):
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    args = ["simulate", "--dist", "beta:1,1", "--n", "25", "--reps", "4", "--seed", "7"]
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
    )
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--output", str(out1)]) == 0
    assert run_cli(["simulate", "--dist", "beta:1,1", "--n", "25", "--reps", "4",
                    "--seed", "7", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # flags override config values
    out3 = tmp_path / "c3.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--reps", "2",
                    "--output", str(out3)]) == 0
    assert out3.read_bytes() != out1.read_bytes()
    # a config value is not parsed when its flag is set
    cfg.write_text("dist = beta:1,1\nn = 25\nreps = four\nseed = 7\n")
    out4 = tmp_path / "c4.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--reps", "4", "--output", str(out4)]) == 0
    assert out4.read_bytes() == out1.read_bytes()
    # unknown keys, nodes among them, and a bad value are data errors naming the line
    for text in ("reps = 4\ncolour = red\n", "reps = 4\nnodes = 501\n", "reps = 4\nseed = seven\n"):
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
                    "--seed", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["distribution"] == "beta(3,1)"
    assert len(payload["cells"]) == 5
    assert list(payload["cells"][0]) == ["n", "method", "mean_ise", "sem", "reps", "fallbacks",
                                         "median_ise", "max_ise", "worst_rep"]


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
    # byte for byte the rows (x1, x2, pdf, cdf) of the library's tensors, each value as format(v, ".17g")
    from supdens import EPANECHNIKOV, REFLECTION, MultiSample, SupportMode, fit_joint

    je = fit_joint(MultiSample(np.loadtxt(data2d_file, delimiter=",")), 0.15, EPANECHNIKOV, REFLECTION,
                   SupportMode.proposed())
    axes = [np.linspace(0, 1, 4)] * 2
    mesh = np.meshgrid(*axes, indexing="ij")
    rows = np.column_stack([m.ravel() for m in mesh] + [je.pdf_grid(axes).ravel(), je.cdf_grid(axes).ravel()])
    expected = "x1,x2,pdf,cdf\n" + "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)
    assert out.read_text() == expected


def test_grid_csv_writes_each_value_as_format_17g(monkeypatch):
    rows = np.array([
        [-0.0, 1.0, 5e-324, 1.7976931348623157e308],
        [0.1, -2.5e-310, 1e22, 123456789012345680.0],
        [1.0 / 3.0, -1e16, 2.0 ** 53 + 2.0, 0.0],
    ])
    want = "a,b,c,d\n" + "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)
    assert _grid_csv("a,b,c,d", [rows[:, 0]], *rows[:, 1:].T) == want
    # a row per grid point in C order, its coordinates then its values: every
    # dimension and value count, empty axes, and blocks of the default size and
    # of 3 rows (a last axis split over blocks, or several leading points a block)
    rng = np.random.default_rng(3)
    values = np.concatenate([rows.ravel(), [-1.0, -5e-324, 2.2250738585072014e-308, -123.456],
                             rng.standard_normal(50) * 10.0 ** rng.integers(-320, 300, 50)])
    shapes = ((70,), (2, 5), (5, 2, 1), (4, 1, 3), (0, 3), (3, 0))
    for shape, width, block_rows in itertools.product(shapes, (1, 2, 3), (3, cli._CSV_ROWS)):
        monkeypatch.setattr(cli, "_CSV_ROWS", block_rows)
        axes = [np.resize(rng.permutation(values), size) for size in shape]
        cells = [np.resize(rng.permutation(values), shape) for _ in range(width)]
        lines = [",".join(format(v, ".17g") for v in [a[i] for a, i in zip(axes, index)] + [c[index] for c in cells])
                 for index in itertools.product(*map(range, shape))]
        assert _grid_csv("h", axes, *cells) == "h\n" + "".join(line + "\n" for line in lines)


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
    # data: a known endpoint inside the sample range, for fit and for solve
    for command in ("fit", "solve"):
        assert run_cli([command, "--method", "reflection", "--mode", "half-known-upper", "--upper", "0.5",
                        "--bandwidth", "0.1", "--input", data_file]) == 2
    # usage: a negative seed, and the removed Simpson node count
    assert run_cli(["simulate", "--n", "20", "--reps", "1", "--seed", "-1"]) == 1
    assert run_cli(["simulate", "--n", "20", "--reps", "1", "--nodes", "501"]) == 1
    capsys.readouterr()


def _fresh_python(args, timeout):
    """`python args` in a fresh process, importing this checkout's src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable] + args, env=env, capture_output=True, text=True, timeout=timeout)


def _module_cli(argv, timeout):
    """`python -m supdens.cli argv` in a fresh process."""
    return _fresh_python(["-m", "supdens.cli"] + argv, timeout)


def test_module_entry_point_runs_the_cli():
    # `python -m supdens.cli` parses its arguments like the `supdens` script
    argv = ["fit", "--method", "naive", "--bandwidth", "0.1", "--input", "data.csv", "--bogus"]
    proc = _module_cli(argv, 60)
    assert proc.returncode == 1
    assert "unrecognized arguments: --bogus" in proc.stderr


def test_one_parser_serves_every_call(data_file, tmp_path, capsys):
    # run_cli builds its parser once per process: after a usage error, fit
    # and eval give the exit codes and bytes that fresh processes give
    model, grid = tmp_path / "model.json", tmp_path / "grid.csv"
    runs = [
        ["fit", "--method", "reflection", "--input", data_file, "--bogus"],
        ["fit", "--method", "reflection", "--mode", "proposed", "--input", data_file, "--output", str(model)],
        ["eval", "--model", str(model), "--grid", "0:1:51", "--output", str(grid)],
    ]

    def outputs():
        return [path.read_bytes() for path in (model, grid)]

    fresh = [_module_cli(argv, 120) for argv in runs]
    written = outputs()
    model.unlink()
    grid.unlink()
    capsys.readouterr()
    for argv, proc in zip(runs, fresh):
        assert run_cli(argv) == proc.returncode
        assert capsys.readouterr() == (proc.stdout, proc.stderr)
    assert [proc.returncode for proc in fresh] == [1, 0, 0] and "--bogus" in fresh[0].stderr
    assert outputs() == written
    assert cli._build_parser() is cli._build_parser()


def test_epanechnikov_commands_never_load_scipy(data_file, data2d_file, tmp_path):
    # SciPy is imported by the first Gaussian evaluation: every command run
    # with the Epanechnikov kernel leaves it unloaded, and a Gaussian fit
    # after them in the same process writes what a fresh process writes
    gauss, fresh = str(tmp_path / "gauss.json"), str(tmp_path / "fresh.json")
    epanechnikov = [argv + ["--output", str(tmp_path / f"out{k}")] for k, argv in enumerate([
        ["fit", "--kernel", "epanechnikov", "--method", "boundary-kernel", "--mode", "proposed", "--input", data_file],
        ["fit", "--kernel", "epanechnikov", "--method", "reflection", "--mode", "proposed", "--input", data_file],
        ["eval", "--model", str(tmp_path / "out1"), "--grid", "0:1:11"],
        ["solve", "--kernel", "epanechnikov", "--method", "reflection", "--mode", "proposed", "--input", data_file],
        ["joint", "--kernel", "epanechnikov", "--method", "boundary-kernel", "--mode", "proposed",
         "--input", data2d_file, "--bandwidth", "0.15", "--grid", "0:1:4"],
        ["simulate", "--kernel", "epanechnikov", "--n", "20", "--reps", "2", "--seed", "1"],
    ])]
    gaussian_fit = ["fit", "--kernel", "gaussian", "--method", "reflection", "--mode", "proposed", "--input", data_file]
    script = "\n".join([
        "import sys",
        "from supdens.cli import run_cli",
        f"codes = [run_cli(argv) for argv in {epanechnikov!r}]",
        "print(codes, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))",
        f"sys.exit(run_cli({gaussian_fit + ['--output', gauss]!r}))",
    ])
    proc = _fresh_python(["-c", script], 300)
    assert (proc.returncode, proc.stdout) == (0, "[0, 0, 0, 0, 0, 0] []\n"), proc.stderr
    assert _module_cli(gaussian_fit + ["--output", fresh], 120).returncode == 0
    with open(gauss, "rb") as a, open(fresh, "rb") as b:
        assert a.read() == b.read()


def test_max_iter_is_no_option(data_file, data2d_file, capsys):
    # the bisection cap and the residual tolerance are fixed constants of the solver, not flags
    for flag in (["--max-iter", "1"], ["--tol", "1e-8"]):
        for command in ("fit", "solve"):
            assert run_cli([command, "--method", "boundary-kernel", "--mode", "proposed",
                            "--bandwidth", "0.2", "--input", data_file] + flag) == 1
        assert run_cli(["joint", "--input", data2d_file, "--method", "reflection", "--mode", "proposed",
                        "--bandwidth", "0.15", "--grid", "0:1:4"] + flag) == 1
    capsys.readouterr()


def test_bandwidth_values(data_file, data2d_file, tmp_path, capsys):
    # one parser for every subcommand: 'lscv', or one positive number per
    # coordinate (a single number is shared); anything else exits 1
    fit = ["fit", "--method", "reflection", "--mode", "proposed", "--input", data_file]
    solve = ["solve", "--method", "reflection", "--mode", "proposed", "--input", data_file]
    sim = ["simulate", "--n", "20", "--reps", "1", "--methods", "naive"]
    joint = ["joint", "--input", data2d_file, "--method", "reflection", "--mode", "proposed", "--grid", "0:1:3"]
    for argv in (fit, solve, sim, joint):
        for bad in ("abc", "0", "-0.1", "nan", "0.1,0.2,0.3", "0.1,"):
            assert run_cli(argv + ["--bandwidth", bad]) == 1, (argv[0], bad)
        assert "--bandwidth" in capsys.readouterr().err
        for good in ("lscv", "0.2"):
            assert run_cli(argv + ["--bandwidth", good]) == 0, (argv[0], good)
    for argv in (fit, solve, sim):
        assert run_cli(argv + ["--bandwidth", "0.1,0.2"]) == 1
    report = tmp_path / "report.json"
    assert run_cli(joint + ["--bandwidth", "0.1,0.2", "--report", str(report)]) == 0
    assert json.loads(report.read_text())["bandwidths"] == [0.1, 0.2]
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


# -- characterization of the error paths: exit code, and no output file on failure ----


def _fails(argv, code, out):
    """run_cli(argv + --output out) exits with `code` and leaves no file at out."""
    assert run_cli(list(argv) + ["--output", str(out)]) == code, argv
    assert not out.exists(), argv


def test_read_csv_paths(tmp_path, capsys):
    out = tmp_path / "out.json"
    fit = ["fit", "--method", "naive", "--bandwidth", "0.2", "--input"]
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    plain.write_text("0.1\n0.4\n0.9\n")
    blank.write_text("\n0.1\n  \n0.4\n\n0.9\n\n")
    # blank lines are skipped: the same model as without them
    assert run_cli(fit + [str(plain), "--output", str(out)]) == 0
    assert run_cli(fit + [str(blank), "--output", str(tmp_path / "blank.json")]) == 0
    assert out.read_bytes() == (tmp_path / "blank.json").read_bytes()
    out.unlink()
    cases = {
        "nonfinite.csv": "0.1\ninf\n0.5\n",
        "nan.csv": "0.1\nnan\n0.5\n",
        "ragged.csv": "0.1,0.2\n0.3\n",
        "twocol.csv": "0.1,0.2\n0.3,0.4\n",
        "empty.csv": "\n  \n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        _fails(fit + [str(path)], 2, out)
    # the first bad line is named, counting the blank lines skipped, whichever
    # of "not a number" and "non-finite" it is
    lines = {
        "blank-nonfinite.csv": ("\n0.1\n  \n\n0.4,-inf\n0.5\nx\n", ":5: non-finite value"),
        "blank-nan.csv": ("0.1\n\nnan\n\ninf\n", ":3: non-finite value"),
        "word-first.csv": ("\n0.1\n\nabc\ninf\n", ":4: not a number: 'abc'"),
        "nonfinite-ragged.csv": ("0.1,0.2\n\n0.3\n1e400,0.5\n", ":4: non-finite value"),
        "nonfinite-blank-last.csv": ("0.1\n0.2\n-inf\n\n", ":3: non-finite value"),
    }
    for name, (text, message) in lines.items():
        path = tmp_path / name
        path.write_text(text)
        capsys.readouterr()
        _fails(fit + [str(path)], 2, out)
        assert f"data error: {path}{message}\n" == capsys.readouterr().err, name
    # joint takes any width but still rejects ragged and empty files
    for name in ("ragged.csv", "empty.csv"):
        _fails(["joint", "--input", str(tmp_path / name), "--method", "reflection", "--mode", "proposed",
                "--bandwidth", "0.1", "--grid", "0:1:3"], 2, out)
    capsys.readouterr()


def test_grid_spec_errors(data_file, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert run_cli(["fit", "--method", "naive", "--bandwidth", "0.2",
                    "--input", data_file, "--output", str(model)]) == 0
    out = tmp_path / "grid.csv"
    for spec in ("0:1", "0:1:2:3", "a:1:3", "0:1:x", "0:1:2.5", "0:1:0", "0:1:-3", "1:0:5", "1:1:3"):
        _fails(["eval", "--model", str(model), "--grid", spec], 1, out)
        _fails(["joint", "--input", data_file, "--method", "reflection", "--mode", "proposed",
                "--bandwidth", "0.1", "--grid", spec], 1, out)
    # one point needs no min < max
    assert run_cli(["eval", "--model", str(model), "--grid", "1:1:1", "--output", str(out)]) == 0
    capsys.readouterr()


def test_eval_unreadable_or_invalid_model(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    _fails(["eval", "--model", str(tmp_path / "missing.json"), "--grid", "0:1:3"], 2, out)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    _fails(["eval", "--model", str(bad), "--grid", "0:1:3"], 2, out)
    capsys.readouterr()


def test_simulate_option_errors(tmp_path, capsys):
    out = tmp_path / "table.csv"
    sim = ["simulate", "--n", "10", "--reps", "1", "--methods", "naive", "--bandwidth", "0.2"]
    for dist in ("beta", "beta:1", "beta:1,2,3", "beta:a,1", "gamma:1,1", "beta:0,1", "beta:1,-2"):
        _fails(sim + ["--dist", dist], 1, out)
        # a bad second distribution fails the whole run
        _fails(sim + ["--dist", "beta:1,1", "--dist", dist], 1, out)
    _fails(sim + ["--methods", "naive,bk:nope"], 1, out)
    _fails(sim + ["--config", str(tmp_path / "missing.cfg")], 2, out)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("reps = 1\nn 10\n")
    _fails(sim + ["--config", str(cfg)], 2, out)
    cfg.write_text("format = xml\n")
    _fails(sim + ["--config", str(cfg)], 1, out)
    # a flag wins over the config file's bad value
    assert run_cli(sim + ["--config", str(cfg), "--format", "csv", "--output", str(out)]) == 0
    capsys.readouterr()


def test_simulate_nonfinite_shapes_exit_1(tmp_path, capsys):
    # they used to run until the sampler and exit 2
    out = tmp_path / "table.csv"
    sim = ["simulate", "--n", "10", "--reps", "1", "--methods", "naive"]
    _fails(sim + ["--dist", "beta:nan,1"], 1, out)
    assert "beta shape p must be positive and finite, got nan" in capsys.readouterr().err
    _fails(sim + ["--dist", "beta:1,inf"], 1, out)
    assert "beta shape q must be positive and finite, got inf" in capsys.readouterr().err


def test_simulate_gaussian_kernel(tmp_path, capsys, monkeypatch):
    # the default bk columns need a compact kernel: exit 1 before any LSCV
    def unreachable(*args):
        raise AssertionError("LSCV ran before the spec was checked")

    out = tmp_path / "table.csv"
    with monkeypatch.context() as m:
        m.setattr(bandwidth, "lscv_bandwidth", unreachable)
        _fails(["simulate", "--n", "10", "--reps", "1", "--kernel", "gaussian"], 1, out)
    err = capsys.readouterr().err
    assert "bk:proposed, bk:extremes" in err and "--methods" in err
    argv = ["simulate", "--n", "100", "--reps", "2", "--kernel", "gaussian", "--methods", "naive,refl:proposed"]
    assert run_cli(argv + ["--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "distribution,n,naive,refl:proposed" and lines[1].startswith("beta(1,1),100,")


def test_simulate_second_dist_drops_its_header(tmp_path):
    sim = ["simulate", "--n", "10", "--reps", "2", "--seed", "3", "--bandwidth", "0.2"]
    one, two, both = (tmp_path / f"{name}.csv" for name in ("one", "two", "both"))
    assert run_cli(sim + ["--dist", "beta:1,1", "--output", str(one)]) == 0
    assert run_cli(sim + ["--dist", "beta:3,1", "--output", str(two)]) == 0
    assert run_cli(sim + ["--dist", "beta:1,1", "--dist", "beta:3,1", "--output", str(both)]) == 0
    second = two.read_text().split("\n", 1)[1]
    assert both.read_text() == one.read_text() + second
    # the json of several distributions is a list of their objects
    assert run_cli(sim + ["--dist", "beta:1,1", "--dist", "beta:3,1", "--format", "json",
                          "--output", str(both)]) == 0
    assert run_cli(sim + ["--dist", "beta:3,1", "--format", "json", "--output", str(two)]) == 0
    assert json.loads(both.read_text())[1] == json.loads(two.read_text())


def test_joint_grid_per_axis(data2d_file, tmp_path, capsys):
    joint = ["joint", "--input", data2d_file, "--method", "reflection", "--mode", "proposed",
             "--bandwidth", "0.15"]
    shared, per_axis = tmp_path / "shared.csv", tmp_path / "axis.csv"
    assert run_cli(joint + ["--grid", "0:1:4", "--output", str(shared)]) == 0
    assert run_cli(joint + ["--grid", "0:1:4;0:1:4", "--output", str(per_axis)]) == 0
    assert per_axis.read_bytes() == shared.read_bytes()
    assert run_cli(joint + ["--grid", "0:1:2;0:0.5:3", "--output", str(per_axis)]) == 0
    lines = per_axis.read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 3
    assert [line.split(",")[:2] for line in lines[1:4]] == [["0", "0"], ["0", "0.25"], ["0", "0.5"]]
    out = tmp_path / "out.csv"
    _fails(joint + ["--grid", "0:1:4;0:1:4;0:1:4"], 1, out)
    capsys.readouterr()


def test_modes_missing_endpoints(data_file, data2d_file, tmp_path, capsys):
    out = tmp_path / "out.json"
    fit = ["fit", "--method", "reflection", "--bandwidth", "0.1", "--input", data_file]
    solve = ["solve", "--method", "reflection", "--bandwidth", "0.1", "--input", data_file]
    joint = ["joint", "--input", data2d_file, "--method", "reflection", "--bandwidth", "0.1",
             "--grid", "0:1:3"]
    for argv in (fit, joint):
        for missing in ([], ["--lower", "-1"], ["--upper", "2"]):
            _fails(argv + ["--mode", "known"] + missing, 1, out)
    for argv in (fit, solve, joint):
        # each half-known mode needs its own endpoint; the other one does not stand in
        _fails(argv + ["--mode", "half-known-lower"], 1, out)
        _fails(argv + ["--mode", "half-known-lower", "--upper", "2"], 1, out)
        _fails(argv + ["--mode", "half-known-upper"], 1, out)
        _fails(argv + ["--mode", "half-known-upper", "--lower", "-1"], 1, out)
        # a non-finite endpoint is a usage error
        _fails(argv + ["--mode", "half-known-upper", "--upper", "inf"], 1, out)
    # solve has no known mode, and the naive method takes no mode
    _fails(solve + ["--mode", "known", "--lower", "-1", "--upper", "2"], 1, out)
    _fails(["fit", "--method", "naive", "--mode", "extremes", "--bandwidth", "0.1", "--input", data_file], 1, out)
    capsys.readouterr()


def test_mode_ignores_endpoints_it_does_not_take(data_file, tmp_path):
    # proposed and extremes ignore --lower/--upper; a half-known mode ignores the other side's
    base = ["--method", "reflection", "--bandwidth", "0.1", "--input", data_file]
    for command in ("fit", "solve"):
        for mode, stray in (("proposed", ["--lower", "-1"]), ("proposed", ["--lower", "nan", "--upper", "5"]),
                            ("extremes", ["--upper", "inf"]), ("half-known-lower", ["--upper", "0.5"]),
                            ("half-known-upper", ["--lower", "0.5"])):
            keep = ["--lower", "-0.5"] if mode == "half-known-lower" else []
            keep += ["--upper", "1.5"] if mode == "half-known-upper" else []
            clean, noisy = tmp_path / "clean.json", tmp_path / "noisy.json"
            assert run_cli([command, "--mode", mode] + base + keep + ["--output", str(clean)]) == 0
            assert run_cli([command, "--mode", mode] + base + keep + stray + ["--output", str(noisy)]) == 0
            assert noisy.read_bytes() == clean.read_bytes(), (command, mode, stray)


def test_gaussian_sweeps_exhausted_exit_3(data_file, data2d_file, tmp_path, monkeypatch, capsys):
    import supdens.solver as solver

    monkeypatch.setattr(solver, "MAX_SWEEPS", 1)
    out = tmp_path / "out.json"
    base = ["--method", "reflection", "--mode", "proposed", "--kernel", "gaussian", "--bandwidth", "0.1"]
    _fails(["solve", "--input", data_file] + base, 3, out)
    assert "after 1 sweeps" in capsys.readouterr().err
    _fails(["fit", "--input", data_file] + base, 3, out)
    _fails(["joint", "--input", data2d_file, "--grid", "0:1:3", "--report", str(tmp_path / "rep.json")] + base,
           3, out)
    assert not (tmp_path / "rep.json").exists()
    # the compact kernel needs one sweep and still succeeds
    assert run_cli(["solve", "--input", data_file, "--method", "reflection", "--mode", "proposed",
                    "--bandwidth", "0.1", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["outer_sweeps"] == 1
    capsys.readouterr()

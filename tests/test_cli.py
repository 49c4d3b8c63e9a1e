"""End-to-end tests of the command-line interface."""

import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import dstcons
from dstcons import SimConfig, SweepSpec, cli, harness
from dstcons.cli import cli_main
from dstcons.harness import FORMATS, preset_spec

SWEEP_CONFIG = """
operators = dubois_prade, dempster
n_values = 3
k = 4
r_values = 0.3, 0.6
sigma_values = 0.0
runs_per_cell = 2
max_iterations = 80
root_seed = 11
convergence_window = 20
"""

GOLDEN_DIR = Path(__file__).parent / "golden"
# A Dempster run that skips total-conflict pairs and converges off the
# stride (iteration 146, stride 7), so its file ends on an extra sample.
GOLDEN_RUN = [
    "run", "--operator", "dempster", "--states", "3", "--agents", "20",
    "--evidence-rate", "0.3", "--noise", "0.2", "--seed", "3",
    "--max-iterations", "400", "--stride", "7",
]
GOLDEN_FIG1 = ["reproduce", "fig1", "--runs", "2", "--max-iterations", "300"]
GOLDEN_TRAJECTORIES = tuple(
    f"{stem}.{fmt}" for stem in ("run_trajectory", "fig1_trajectory") for fmt in FORMATS
)


def trajectory_golden_bytes(work_dir) -> dict[str, bytes]:
    """Bytes of each pinned trajectory file, written by the CLI into ``work_dir``."""
    work_dir = Path(work_dir)
    for fmt in FORMATS:
        out = work_dir / f"run_trajectory.{fmt}"
        assert cli_main([*GOLDEN_RUN, "--out", str(out), "--format", fmt]) == 0
        assert cli_main([*GOLDEN_FIG1, "--out", str(work_dir), "--format", fmt]) == 0
    return {name: (work_dir / name).read_bytes() for name in GOLDEN_TRAJECTORIES}


def write_trajectory_golden(golden_dir=GOLDEN_DIR):
    """Regenerate the golden files (only for a declared change to the trajectories)."""
    with tempfile.TemporaryDirectory() as work_dir:
        for name, data in trajectory_golden_bytes(work_dir).items():
            (Path(golden_dir) / name).write_bytes(data)


def test_run_writes_trajectory_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    status = cli_main(
        [
            "run",
            "--operator", "dubois_prade",
            "--states", "3",
            "--agents", "20",
            "--evidence-rate", "0.2",
            "--noise", "0.1",
            "--seed", "42",
            "--max-iterations", "150",
            "--stride", "10",
            "--out", str(out),
        ]
    )
    assert status == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["iteration"] == "0"
    assert set(rows[0]) == {"operator", "iteration", "bel_s1", "bel_s2", "bel_s3", "pl_best"}
    assert all(0.0 <= float(r["pl_best"]) <= 1.0 for r in rows)
    assert "final mean Bel" in capsys.readouterr().out


def test_trajectory_files_match_golden(tmp_path):
    written = trajectory_golden_bytes(tmp_path)
    for name in GOLDEN_TRAJECTORIES:
        assert written[name] == (GOLDEN_DIR / name).read_bytes(), name


def test_run_reports_convergence_and_dempster_skips(tmp_path, capsys):
    assert cli_main([*GOLDEN_RUN, "--out", str(tmp_path / "t.csv")]) == 0
    out = capsys.readouterr().out
    assert "converged: true (iteration 146)\n" in out
    assert "skipped total-conflict interactions: 34\n" in out


def test_run_json_format(tmp_path):
    out = tmp_path / "traj.json"
    status = cli_main(
        ["run", "--operator", "yager", "--agents", "10", "--max-iterations", "50",
         "--stride", "25", "--seed", "1", "--out", str(out), "--format", "json"]
    )
    assert status == 0
    payload = json.loads(out.read_text())
    assert payload[0]["iteration"] == 0
    assert payload[0]["operator"] == "yager"


def test_unknown_operator_is_usage_error(capsys):
    assert cli_main(["run", "--operator", "bogus"]) == 2


def test_out_of_range_parameter_is_usage_error(capsys):
    status = cli_main(["run", "--operator", "yager", "--evidence-rate", "1.5"])
    assert status == 2
    assert "error" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    assert cli_main([]) == 2


def test_sweep_from_config_writes_summary_and_runs(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(SWEEP_CONFIG)
    out = tmp_path / "result.csv"
    status = cli_main(["sweep", "--config", str(config), "--out", str(out)])
    assert status == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # 2 operators x 2 rates
    assert rows[0].keys() == {
        "operator", "n", "k", "r", "sigma", "consensus", "runs",
        "mean_bel_best", "std_bel_best", "converged_fraction",
        "mean_conv_iter", "std_conv_iter",
    }
    runs_file = tmp_path / "result_runs.csv"
    with runs_file.open() as fh:
        run_rows = list(csv.DictReader(fh))
    assert len(run_rows) == 8


def test_sweep_flag_overrides_replace_config_lists(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(SWEEP_CONFIG)
    out = tmp_path / "result.csv"
    status = cli_main(
        ["sweep", "--config", str(config), "--operator", "yager",
         "--evidence-rate", "0.5", "--runs", "1", "--out", str(out)]
    )
    assert status == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["operator"] == "yager"
    assert rows[0]["r"] == "0.5"


def test_sweep_without_config_uses_flags(tmp_path):
    out = tmp_path / "flagged.csv"
    status = cli_main(
        ["sweep", "--operator", "average", "--states", "3", "--agents", "4",
         "--evidence-rate", "0.4", "--noise", "0", "--runs", "1",
         "--max-iterations", "40", "--seed", "3", "--out", str(out)]
    )
    assert status == 0
    assert out.exists()


@pytest.mark.parametrize(
    "flag, modes", [("--no-consensus", ["false"]), ("--baselines", ["false", "true"])]
)
def test_sweep_consensus_flags_choose_cells(tmp_path, flag, modes):
    out = tmp_path / "s.csv"
    status = cli_main(
        ["sweep", "--operator", "yager", "--agents", "4", "--runs", "1",
         "--max-iterations", "40", flag, "--out", str(out)]
    )
    assert status == 0
    with out.open() as fh:
        assert [row["consensus"] for row in csv.DictReader(fh)] == modes


def test_sweep_missing_config_file_is_io_error(tmp_path, capsys):
    status = cli_main(["sweep", "--config", str(tmp_path / "nope.cfg")])
    assert status == 1


def test_sweep_malformed_config_is_usage_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("operators = yager\nwat = 7\n")
    status = cli_main(["sweep", "--config", str(config)])
    assert status == 2
    assert "wat" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--states", "abc", "invalid literal for int()"),
        ("--evidence-rate", "0.1,x", "could not convert string to float: 'x'"),
        ("--noise", "0.1,,y", "could not convert string to float: 'y'"),
    ],
)
def test_sweep_bad_list_override_names_its_flag(tmp_path, capsys, flag, value, message):
    out = tmp_path / "s.csv"
    status = cli_main(["sweep", "--operator", "yager", flag, value, "--out", str(out)])
    assert status == 2
    assert f"error: bad value for {flag}: {message}" in capsys.readouterr().err
    assert not out.exists()


class Built(Exception):
    """Stops a command at the call that receives what it built."""


@pytest.mark.parametrize(
    "argv, target, expected",
    [
        (["run", "--operator", "yager"], (cli, "run"),
         SimConfig(operator="yager", trajectory_stride=1)),
        (["sweep", "--operator", "yager"], (cli, "run_sweep"), SweepSpec(operators=("yager",))),
        (["reproduce", "fig2"], (harness, "run_sweep"), preset_spec("fig2")),
    ],
    ids=["run", "sweep", "reproduce"],
)
def test_flags_left_out_take_the_library_defaults(monkeypatch, argv, target, expected):
    built = []

    def receive(first, *args, **kwargs):
        built.append(first)
        raise Built

    monkeypatch.setattr(*target, receive)
    with pytest.raises(Built):
        cli_main(argv)
    assert built == [expected]


@pytest.mark.parametrize("command", ["run", "sweep", "fixedpoints", "reproduce"])
def test_help_text_matches_golden(monkeypatch, capsys, command):
    # argparse wraps help to the terminal width, which COLUMNS sets.
    monkeypatch.setenv("COLUMNS", "80")
    assert cli_main([command, "--help"]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / f"help_{command}.txt").read_text()


def test_fixedpoints_report(tmp_path):
    out = tmp_path / "fp.csv"
    status = cli_main(["fixedpoints", "--states", "3", "--out", str(out)])
    assert status == 0
    with out.open() as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == [
        "operator", "subset", "residual", "spectral_radius", "classification"
    ]
    assert len(rows) == 16  # 4 operators x (3 categoricals + vacuous)
    by_key = {(r["operator"], r["subset"]): r for r in rows}
    assert by_key[("dubois_prade", "{s3}")]["classification"] == "stable"
    assert by_key[("dubois_prade", "{s1,s2,s3}")]["classification"] == "unstable"
    assert by_key[("average", "{s1}")]["classification"] == "marginal"
    assert all(float(r["residual"]) < 1e-9 for r in rows)


def test_fixedpoints_single_operator(tmp_path):
    out = tmp_path / "fp.csv"
    status = cli_main(
        ["fixedpoints", "--operator", "yager", "--states", "4", "--out", str(out)]
    )
    assert status == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert {r["operator"] for r in rows} == {"yager"}


@pytest.mark.parametrize(
    "flags, message",
    [
        pytest.param(["--states", "13"], "argument --states: invalid choice: 13",
                     id="flags0-at most 12 states"),
        (["--step", "1e-6"], "unrecognized arguments: --step"),
        (["--states", "1"], "argument --states: invalid choice: 1"),
        (["--states", "400000000"], "argument --states: invalid choice: 400000000"),
    ],
)
def test_fixedpoints_rejects_unbounded_inputs(tmp_path, capsys, monkeypatch, flags, message):
    # The parser refuses these before any 2^n-sized frame is built.
    def no_frame(n):
        raise AssertionError(f"built a frame for n={n}")

    monkeypatch.setattr("dstcons.cli.FrameOfDiscernment", no_frame)
    out = tmp_path / "fp.csv"
    status = cli_main(["fixedpoints", *flags, "--out", str(out)])
    assert status == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_bad_workers_env_var_is_usage_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "s.csv"
    for env, message in [
        ("abc", "DSTCONS_WORKERS must be an integer, got 'abc'"),
        ("0", "DSTCONS_WORKERS must be >= 1, got 0"),
        ("-3", "DSTCONS_WORKERS must be >= 1, got -3"),
    ]:
        monkeypatch.setenv("DSTCONS_WORKERS", env)
        status = cli_main(["sweep", "--operator", "yager", "--runs", "1", "--out", str(out)])
        assert status == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_reproduce_fig1_writes_trajectory(tmp_path):
    status = cli_main(
        ["reproduce", "fig1", "--runs", "1", "--max-iterations", "60",
         "--out", str(tmp_path)]
    )
    assert status == 0
    assert (tmp_path / "fig1.csv").exists()
    assert (tmp_path / "fig1_runs.csv").exists()
    trajectory = tmp_path / "fig1_trajectory.csv"
    with trajectory.open() as fh:
        rows = list(csv.DictReader(fh))
    assert {r["operator"] for r in rows} == {
        "average", "dempster", "dubois_prade", "yager"
    }


def test_reproduce_unknown_figure_is_usage_error():
    assert cli_main(["reproduce", "fig7"]) == 2


def test_sweep_determinism_across_worker_counts(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(SWEEP_CONFIG)
    outputs = []
    for tag, workers in (("w1", "1"), ("w2", "2")):
        out = tmp_path / f"{tag}.csv"
        status = cli_main(
            ["sweep", "--config", str(config), "--workers", workers, "--out", str(out)]
        )
        assert status == 0
        outputs.append(
            (out.read_bytes(), (tmp_path / f"{tag}_runs.csv").read_bytes())
        )
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("module", ["dstcons", "dstcons.cli"])
def test_module_entry_point_runs_command(tmp_path, module):
    src = str(Path(dstcons.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "fixed.csv"
    proc = subprocess.run(
        [sys.executable, "-m", module, "fixedpoints", "--states", "3", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"wrote {out}" in proc.stdout
    with out.open() as fh:
        assert len(list(csv.DictReader(fh))) == 4 * 4  # operators x candidates

"""Tests for sweep execution, aggregation, seed derivation, and file emission."""

import csv
import io
import json
import re
from dataclasses import astuple, fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dstcons.harness as harness
from dstcons import (
    COMBINERS,
    FrameOfDiscernment,
    SimConfig,
    SweepSpec,
    default_qualities,
    derive_seed,
    emit_csv,
    preset_spec,
    reproduce,
    run,
    run_sweep,
)
from dstcons.harness import (
    ALL_OPERATORS,
    OPERATOR_IDS,
    SUMMARY_COLUMNS,
    CellSummary,
    ConfigError,
    RunRecord,
    build_cells,
    cell_config,
    emit_trajectory,
    mean_trajectory,
    parse_sweep_config,
    resolve_workers,
    summarize_cell,
    sweep_spec_from_config,
)

GOLDEN_SPEC = SweepSpec(
    operators=("dempster",),
    n_values=(3,),
    k=5,
    r_values=(0.5,),
    sigma_values=(0.1,),
    runs_per_cell=2,
    max_iterations=300,
    root_seed=42,
    convergence_window=50,
)

GOLDEN_SUMMARY = (
    "operator,n,k,r,sigma,consensus,runs,mean_bel_best,std_bel_best,"
    "converged_fraction,mean_conv_iter,std_conv_iter\n"
    "dempster,3,5,0.5,0.1,true,2,1,0,1,15,4\n"
)

GOLDEN_RUNS = (
    "operator,n,k,r,sigma,consensus,run_index,seed,converged,"
    "convergence_iteration,stasis_iteration,dempster_skips,mean_pl_best,"
    "mean_bel_top2,bel_s1,bel_s2,bel_s3\n"
    "dempster,3,5,0.5,0.1,true,0,17658260632472495053,true,61,11,0,1.0,1.0,0.0,0.0,1.0\n"
    "dempster,3,5,0.5,0.1,true,1,15997737177913257068,true,69,19,0,1.0,1.0,0.0,0.0,1.0\n"
)

# Every operator, two frame sizes, noise, evidence-only baselines and
# unconverged runs (averaging never settles), so the pinned bytes see the
# last bit of non-categorical means.  The files were written by the engine
# as of the first golden capture; any change to them is a protocol change.
MIXED_SPEC = SweepSpec(
    operators=("average", "dempster", "dubois_prade", "yager"),
    n_values=(3, 4),
    k=6,
    r_values=(0.3, 0.8),
    sigma_values=(0.2,),
    runs_per_cell=2,
    max_iterations=150,
    root_seed=2024,
    baselines=True,
    convergence_window=20,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def full_precision_summary(summaries) -> str:
    """Every CellSummary field, floats as ``repr``, one CSV row per cell."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(f.name for f in fields(CellSummary))
    for s in summaries:
        writer.writerow(
            "" if v is None else repr(v) if isinstance(v, float) else str(v)
            for v in astuple(s)
        )
    return out.getvalue()


SMALL_SPEC = SweepSpec(
    operators=("dubois_prade", "average"),
    n_values=(3,),
    k=4,
    r_values=(0.3, 0.6),
    sigma_values=(0.0,),
    runs_per_cell=2,
    max_iterations=120,
    root_seed=7,
    convergence_window=25,
)


class TestSeedDerivation:
    def test_pinned_values(self):
        assert derive_seed(42, "dempster", 3, 0, 0, True, 0) == 17658260632472495053
        assert derive_seed(42, "dempster", 3, 0, 0, True, 1) == 15997737177913257068

    def test_every_operator_has_a_pinned_id(self):
        # Sweeps take their operators from COMBINERS and their seeds from the
        # pinned OPERATOR_IDS, so the two must name the same operators.
        assert set(OPERATOR_IDS) == set(COMBINERS)
        assert ALL_OPERATORS == tuple(sorted(OPERATOR_IDS))

    @pytest.mark.parametrize("operator", ["bogus", "Dempster", None, ["yager"]])
    def test_unknown_operator_is_refused(self, operator):
        with pytest.raises(ValueError, match="unknown operator"):
            derive_seed(0, operator, 3, 0, 0, True, 0)

    def test_every_index_matters(self):
        base = derive_seed(1, "yager", 3, 0, 0, True, 0)
        assert derive_seed(2, "yager", 3, 0, 0, True, 0) != base
        assert derive_seed(1, "average", 3, 0, 0, True, 0) != base
        assert derive_seed(1, "yager", 4, 0, 0, True, 0) != base
        assert derive_seed(1, "yager", 3, 1, 0, True, 0) != base
        assert derive_seed(1, "yager", 3, 0, 1, True, 0) != base
        assert derive_seed(1, "yager", 3, 0, 0, False, 0) != base
        assert derive_seed(1, "yager", 3, 0, 0, True, 1) != base

    # Inputs no sweep can produce, as derive_seed arguments after the operator.
    @pytest.mark.parametrize("args, message", [
        ((0, 3, 0, 0, 2, 0), "consensus must be a bool, got 2"),
        ((0, 3, 0, 0, None, 0), "consensus must be a bool, got None"),
        ((0, 1, 0, 0, True, 0), "n must be >= 2, got 1"),
        ((0, 3.5, 0, 0, True, 0), "n must be an integer, got 3.5"),
        ((0, 3, 0, 0, True, True), "run_index must be an integer, got True"),
        ((-1, 3, 0, 0, True, 0), "root_seed must be >= 0, got -1"),
        ((0, 3, -1, 0, True, 0), "r_index must be >= 0, got -1"),
        ((0, 3, 0, np.int64(0), True, 0), "sigma_index must be an integer"),
        ((0, 3, 0, 0, True, -2), "run_index must be >= 0, got -2"),
    ])
    def test_inputs_no_sweep_produces_are_refused(self, args, message):
        root_seed, *rest = args
        with pytest.raises(ValueError, match=re.escape(message)):
            derive_seed(root_seed, "yager", *rest)

    def test_seed_indices_are_places_in_the_spec_lists(self):
        # The lists are out of order, so the sorted cells' places differ.
        spec = SweepSpec(operators=("yager",), r_values=(0.6, 0.2), sigma_values=(0.3, 0.0, 0.1),
                         root_seed=5, baselines=True)
        r_index = {r: i for i, r in enumerate(spec.r_values)}
        sigma_index = {sigma: i for i, sigma in enumerate(spec.sigma_values)}
        assert list(spec.r_values) != sorted(spec.r_values)
        assert list(spec.sigma_values) != sorted(spec.sigma_values)
        for cell in build_cells(spec):
            config = cell_config(spec, cell, 3)
            assert config.seed == derive_seed(
                5, "yager", 3, r_index[cell.r], sigma_index[cell.sigma],
                cell.consensus_enabled, 3,
            )
            assert config == replace(cell, seed=config.seed)

    def test_appending_grid_points_preserves_existing_cells(self):
        small = run_sweep(GOLDEN_SPEC)
        bigger_spec = SweepSpec(
            operators=("dempster", "yager"),
            n_values=(3,),
            k=5,
            r_values=(0.5, 1.0),
            sigma_values=(0.1, 0.2),
            runs_per_cell=2,
            max_iterations=300,
            root_seed=42,
            convergence_window=50,
        )
        bigger = run_sweep(bigger_spec)
        original = {(r.operator, r.r, r.sigma, r.run_index): r for r in small.records}
        for rec in bigger.records:
            key = (rec.operator, rec.r, rec.sigma, rec.run_index)
            if key in original:
                assert rec == original[key]


class TestSweepDeterminism:
    def test_repeat_and_worker_invariance(self, tmp_path):
        outputs = []
        for tag, workers in (("a", 1), ("b", 1), ("c", 2)):
            sweep = run_sweep(SMALL_SPEC, workers=workers)
            paths = emit_csv(sweep.summaries, tmp_path / f"{tag}.csv", sweep.records)
            outputs.append(tuple(p.read_bytes() for p in paths))
        assert outputs[0] == outputs[1] == outputs[2]


class TestEmission:
    def test_golden_bytes(self, tmp_path):
        sweep = run_sweep(GOLDEN_SPEC)
        summary_path, runs_path = emit_csv(
            sweep.summaries, tmp_path / "golden.csv", sweep.records
        )
        assert summary_path.read_text() == GOLDEN_SUMMARY
        assert runs_path.read_text() == GOLDEN_RUNS

    def test_mixed_golden_bytes(self, tmp_path):
        sweep = run_sweep(MIXED_SPEC)
        summary_path, runs_path = emit_csv(
            sweep.summaries, tmp_path / "mixed.csv", sweep.records
        )
        assert summary_path.read_bytes() == (GOLDEN_DIR / "mixed.csv").read_bytes()
        assert runs_path.read_bytes() == (GOLDEN_DIR / "mixed_runs.csv").read_bytes()
        assert full_precision_summary(sweep.summaries) == (
            GOLDEN_DIR / "mixed_summary_full.csv"
        ).read_text()

    def test_empty_summaries_yield_header_only(self, tmp_path):
        path, runs_path = emit_csv([], tmp_path / "empty.csv", [])
        assert path.read_text() == (
            "operator,n,k,r,sigma,consensus,runs,mean_bel_best,std_bel_best,"
            "converged_fraction,mean_conv_iter,std_conv_iter\n"
        )
        assert runs_path.name == "empty_runs.csv"
        assert runs_path.read_text() == (
            "operator,n,k,r,sigma,consensus,run_index,seed,converged,"
            "convergence_iteration,stasis_iteration,dempster_skips,mean_pl_best,"
            "mean_bel_top2\n"
        )

    def test_rows_sorted_by_cell_key(self, tmp_path):
        # Summaries and records are handed over in reverse, so only emit_csv's
        # sort can put them back in CELL_KEY order (runs then by run index).
        spec = SweepSpec(
            operators=("yager", "average", "dempster"),
            n_values=(3, 2),
            k=4,
            r_values=(0.4,),
            sigma_values=(0.0,),
            runs_per_cell=2,
            max_iterations=40,
            root_seed=1,
            baselines=True,
            convergence_window=10,
        )
        sweep = run_sweep(spec)
        path, runs_path = emit_csv(
            sweep.summaries[::-1], tmp_path / "sorted.csv", sweep.records[::-1]
        )

        def keys(table, extra=()):
            with table.open() as fh:
                return [
                    (row["operator"], int(row["n"]), float(row["r"]), float(row["sigma"]),
                     row["consensus"] == "true", *(int(row[col]) for col in extra))
                    for row in csv.DictReader(fh)
                ]

        run_key = attrgetter(*harness.CELL_FIELDS, "run_index")
        assert keys(path) == sorted(map(harness.CELL_KEY, sweep.summaries))
        assert keys(runs_path, ("run_index",)) == sorted(map(run_key, sweep.records))
        assert len(set(keys(runs_path, ("run_index",)))) == 3 * 2 * 2 * 2

    def test_json_mirror_contains_same_rows(self, tmp_path):
        sweep = run_sweep(GOLDEN_SPEC)
        csv_path, csv_runs = emit_csv(
            sweep.summaries, tmp_path / "out.csv", sweep.records
        )
        json_path, json_runs = emit_csv(
            sweep.summaries, tmp_path / "out.json", sweep.records, fmt="json"
        )
        with csv_path.open() as fh:
            csv_rows = list(csv.DictReader(fh))
        json_rows = json.loads(json_path.read_text())
        assert len(csv_rows) == len(json_rows) == 1
        for key, text in csv_rows[0].items():
            mirrored = json_rows[0][key]
            if text == "":
                assert mirrored is None
            elif isinstance(mirrored, (int, float)) and not isinstance(mirrored, bool):
                assert float(text) == pytest.approx(mirrored)
        assert json.loads(json_runs.read_text())[0]["seed"] == 17658260632472495053

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_csv([], tmp_path / "x.csv", [], fmt="yaml")

    def test_trajectory_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "out" / "t.xml"
        trajectory = ("yager", np.array([0]), np.zeros((1, 3)), np.ones(1))
        with pytest.raises(ConfigError, match="'xml'"):
            emit_trajectory([trajectory], path, fmt="xml")
        assert not path.parent.exists()

    # Two frame sizes in one file: the n=3 rows get a blank bel_s4, and every
    # row's Pl(best) stays under pl_best.
    MIXED_TRAJECTORIES = [
        ("yager", np.array([0, 1]), np.zeros((2, 3)), np.ones(2)),
        ("dempster", np.array([0]), np.zeros((1, 4)), np.ones(1)),
    ]

    def test_trajectory_mixed_frames_csv(self, tmp_path):
        path = emit_trajectory(self.MIXED_TRAJECTORIES, tmp_path / "mixed.csv")
        assert path.read_text() == (
            "operator,iteration,bel_s1,bel_s2,bel_s3,bel_s4,pl_best\n"
            "yager,0,0,0,0,,1\n"
            "yager,1,0,0,0,,1\n"
            "dempster,0,0,0,0,0,1\n"
        )

    def test_trajectory_mixed_frames_json(self, tmp_path):
        path = emit_trajectory(self.MIXED_TRAJECTORIES, tmp_path / "mixed.json", fmt="json")
        rows = json.loads(path.read_text())
        assert [list(row) for row in rows] == [
            ["operator", "iteration", "bel_s1", "bel_s2", "bel_s3", "bel_s4", "pl_best"]
        ] * 3
        assert [row["bel_s4"] for row in rows] == [None, None, 0.0]
        assert [row["pl_best"] for row in rows] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize(
        "fmt, text", [("csv", "operator,iteration,pl_best\n"), ("json", "[]\n")], ids=["csv", "json"]
    )
    def test_empty_trajectory_yields_header_only(self, tmp_path, fmt, text):
        path = emit_trajectory([], tmp_path / f"empty.{fmt}", fmt=fmt)
        assert path.read_text() == text

    def test_reproduce_rejects_unknown_format_before_running(self, tmp_path, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called before the format was checked")

        monkeypatch.setattr(harness, "run_sweep", no_sweep)
        with pytest.raises(ConfigError, match="'xml'"):
            reproduce("fig1", tmp_path / "out", runs=1, fmt="xml")
        assert not (tmp_path / "out").exists()

    def test_reproduce_writes_trajectory_for_any_preset_with_a_stride(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(harness.FIGURE_PRESETS, "strided", (
            "a one-operator preset with a trajectory stride",
            dict(operators=("yager",), r_values=(0.05,), sigma_values=(0.1,),
                 trajectory_stride=10),
        ))
        written = reproduce("strided", tmp_path, runs=1, max_iterations=60)
        assert tmp_path / "strided_trajectory.csv" in written
        with (tmp_path / "strided_trajectory.csv").open() as fh:
            assert {row["operator"] for row in csv.DictReader(fh)} == {"yager"}

    def test_reproduce_refuses_a_preset_that_mixes_cells(self, tmp_path, monkeypatch):
        # Two r values and the baselines give each operator four cells: one
        # trajectory series would average them.
        monkeypatch.setitem(harness.FIGURE_PRESETS, "mixed", (
            "a one-operator preset with several cells and a trajectory stride",
            dict(operators=("yager",), r_values=(0.05, 0.5), sigma_values=(0.1,),
                 trajectory_stride=10, baselines=True),
        ))
        with pytest.raises(ValueError, match="runs must share"):
            reproduce("mixed", tmp_path, runs=1, max_iterations=30)
        assert list(tmp_path.iterdir()) == []

    def test_aggregates_recomputable_from_run_file(self, tmp_path):
        sweep = run_sweep(SMALL_SPEC)
        summary_path, runs_path = emit_csv(
            sweep.summaries, tmp_path / "roundtrip.csv", sweep.records
        )
        with runs_path.open() as fh:
            runs = list(csv.DictReader(fh))
        with summary_path.open() as fh:
            summaries = list(csv.DictReader(fh))

        def fmt(x):
            return format(float(x), ".6g")

        for row in summaries:
            members = [
                rec
                for rec in runs
                if rec["operator"] == row["operator"]
                and float(rec["r"]) == float(row["r"])
                and float(rec["sigma"]) == float(row["sigma"])
                and rec["consensus"] == row["consensus"]
            ]
            assert len(members) == int(row["runs"])
            best = np.array([float(rec[f"bel_s{row['n']}"]) for rec in members])
            assert fmt(best.mean()) == row["mean_bel_best"]
            assert fmt(best.std()) == row["std_bel_best"]
            conv = [
                float(rec["stasis_iteration"])
                for rec in members
                if rec["converged"] == "true"
            ]
            assert fmt(len(conv) / len(members)) == row["converged_fraction"]
            if conv:
                assert fmt(np.mean(conv)) == row["mean_conv_iter"]
                assert fmt(np.std(conv)) == row["std_conv_iter"]
            else:
                assert row["mean_conv_iter"] == ""
                assert row["std_conv_iter"] == ""


class TestConvergenceTimeSummary:
    @staticmethod
    def _record(converged, stasis):
        detection = None if stasis is None else stasis + 100
        return RunRecord(
            operator="average", n=3, k=4, r=0.1, sigma=0.0, consensus=True,
            run_index=0, seed=0, converged=converged,
            convergence_iteration=detection, stasis_iteration=stasis,
            dempster_skips=0, mean_bel=(0.0, 0.0, 0.0), mean_pl_best=1.0,
            mean_bel_top2=0.0,
        )

    def test_absent_when_nothing_converged(self):
        summary = summarize_cell([self._record(False, None), self._record(False, None)])
        assert summary.mean_conv_iter is None and summary.std_conv_iter is None

    def test_only_converged_runs_counted(self):
        summary = summarize_cell(
            [
                self._record(True, 100),
                self._record(True, 300),
                self._record(False, None),
            ]
        )
        assert summary.mean_conv_iter == pytest.approx(200.0)
        assert summary.std_conv_iter == pytest.approx(100.0)

    def test_statistics_measure_time_to_stasis(self):
        # A run that never changes detects convergence at the window length
        # but reports zero iterations of actual dynamics.
        from dstcons import SimConfig, run
        from dstcons.harness import _make_record

        config = SimConfig(
            operator="yager", k=3, n=3, r=0.0, consensus_enabled=False, seed=0
        )
        result = run(config)
        record = _make_record(0, result)
        assert record.convergence_iteration == 100
        assert record.stasis_iteration == 0


class TestSummaryContents:
    def test_top_quality_pair_belief_dominates_best(self):
        sweep = run_sweep(SMALL_SPEC)
        for summary in sweep.summaries:
            assert 0.0 <= summary.mean_bel_best <= 1.0
            assert summary.mean_bel_top2 >= summary.mean_bel_best - 1e-12
        for record in sweep.records:
            assert len(record.mean_bel) == record.n

    def test_summary_labels_come_from_records(self):
        sweep = run_sweep(MIXED_SPEC)
        per_cell = MIXED_SPEC.runs_per_cell
        for i, summary in enumerate(sweep.summaries):
            assert summarize_cell(sweep.records[i * per_cell : (i + 1) * per_cell]) == summary
        assert (summary.operator, summary.n, summary.k) == ("yager", 4, MIXED_SPEC.k)

    @pytest.mark.parametrize("pick", [slice(1, 3), slice(0, 0)])
    def test_summary_refuses_records_of_no_single_cell(self, pick):
        # Records 1 and 2 straddle the first two cells.
        records = run_sweep(SMALL_SPEC).records[pick]
        with pytest.raises(ValueError, match="one cell"):
            summarize_cell(records)

    def test_trajectory_ends_on_record_values(self):
        # The last trajectory sample and the runs file describe the same
        # final population, so they must agree to the last bit.
        sweep = run_sweep(replace(MIXED_SPEC, trajectory_stride=7), keep_results=True)
        for (_, _, result), record in zip(sweep.results, sweep.records):
            assert tuple(result.trajectory_bel[-1].tolist()) == record.mean_bel
            assert float(result.trajectory_pl_best[-1]) == record.mean_pl_best

    def test_kept_cell_is_the_run_config_at_the_root_seed(self):
        sweep = run_sweep(MIXED_SPEC, keep_results=True)
        assert len(sweep.results) == len(sweep.records)
        for cell, _, result in sweep.results:
            assert cell == replace(result.config, seed=MIXED_SPEC.root_seed)


class TestMeanTrajectory:
    def test_grid_padding_holds_steady_state(self):
        spec = SweepSpec(
            operators=("dubois_prade",),
            n_values=(3,),
            k=4,
            r_values=(0.6,),
            sigma_values=(0.0,),
            runs_per_cell=3,
            max_iterations=400,
            root_seed=3,
            convergence_window=30,
            trajectory_stride=20,
        )
        sweep = run_sweep(spec, keep_results=True)
        results = [res for _, _, res in sweep.results]
        grid, bel_means, pl_means = mean_trajectory(results)
        assert grid[0] == 0 and grid[-1] == 400
        assert bel_means.shape == (grid.size, 3)
        final_expected = np.mean(
            [res.trajectory_bel[-1] for res in results], axis=0
        )
        np.testing.assert_allclose(bel_means[-1], final_expected)
        assert np.all(pl_means >= 0) and np.all(pl_means <= 1)

    @staticmethod
    def _run(**fields):
        config = {"operator": "yager", "k": 3, "r": 0.5, "max_iterations": 20,
                  "trajectory_stride": 10, **fields}
        return run(SimConfig(**config))

    def test_grid_comes_from_the_runs(self):
        grid, bel_means, _ = mean_trajectory([self._run(trajectory_stride=7)] * 2)
        assert grid.tolist() == [0, 7, 14]
        assert bel_means.shape == (3, 3)

    @pytest.mark.parametrize("other", [
        {"trajectory_stride": 7},
        {"max_iterations": 30},
        {"n": 4},
        {"r": 0.2},
        {"sigma": 0.1},
        {"consensus_enabled": False},
        {"k": 4},
    ])
    def test_runs_on_different_grids_are_refused(self, other):
        with pytest.raises(ValueError, match="runs must share"):
            mean_trajectory([self._run(), self._run(**other)])

    def test_unsampled_runs_are_refused(self):
        with pytest.raises(ValueError, match="nonzero trajectory_stride"):
            mean_trajectory([self._run(trajectory_stride=0)])

    def test_no_runs_are_refused(self):
        with pytest.raises(ValueError, match="runs must share"):
            mean_trajectory([])


class TestConfigParsing:
    CONFIG = """
# sweep over two operators
operators = dubois_prade, yager
n_values = 3
k = 50
r_values = 0.02, 0.05, 0.1
sigma_values = 0.1
runs_per_cell = 4
max_iterations = 1000
root_seed = 9
baselines = true
"""

    def test_full_roundtrip(self):
        spec = sweep_spec_from_config(self.CONFIG)
        assert spec.operators == ("dubois_prade", "yager")
        assert spec.r_values == (0.02, 0.05, 0.1)
        assert spec.k == 50
        assert spec.baselines is True
        assert {cell.consensus_enabled for cell in build_cells(spec)} == {True, False}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_sweep_config("operators = yager\nbogus_key = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_sweep_config("k = not_a_number\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_sweep_config("k = 3\nk = 4\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_sweep_config("operators dubois_prade\n")

    def test_unknown_operator_rejected(self):
        with pytest.raises(ConfigError):
            sweep_spec_from_config("operators = dempsterr\n")

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(ConfigError):
            sweep_spec_from_config("operators = yager\nr_values = 1.5\n")

    def test_overrides_take_precedence(self):
        spec = sweep_spec_from_config(self.CONFIG, {"k": 10, "r_values": (0.5,)})
        assert spec.k == 10
        assert spec.r_values == (0.5,)
        assert spec.runs_per_cell == 4  # keys not overridden keep the config value

    @pytest.mark.parametrize("key", ["runs_per_cell", "r_values", "operators", "baselines"])
    def test_none_override_refused(self, key):
        with pytest.raises(ConfigError, match=key):
            sweep_spec_from_config(self.CONFIG, {key: None})

    def test_operators_required(self):
        with pytest.raises(ConfigError):
            sweep_spec_from_config("k = 10\n")


# Grid and count values of every kind a caller might pass: small ints, bools,
# numpy ints, floats (nan, inf and negatives included), numeric text and None.
SMALL_INTS = st.integers(-1, 6)
NUMBERS = st.one_of(
    SMALL_INTS,
    SMALL_INTS.map(np.int64),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(("0.5", "3", "")),
    st.none(),
)
COUNT_FIELDS = (
    "k", "runs_per_cell", "max_iterations", "root_seed", "convergence_window",
    "trajectory_stride",
)


class TestReadme:
    TEXT = (Path(__file__).parent.parent / "README.md").read_text()

    def test_config_example_parses(self):
        block, = re.findall(r"```ini\n(.*?)```", self.TEXT, re.DOTALL)
        assert sweep_spec_from_config(block).operators == ("dubois_prade", "dempster")

    def test_summary_header_matches_columns(self):
        header, = re.findall(r"with the header\n\n```\n(.*?)\n```", self.TEXT)
        assert header == ",".join(SUMMARY_COLUMNS)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "field, values",
        [
            ("operators", ("yager", "dempster", "yager")),
            ("n_values", (3, 3)),
            ("r_values", (0.5, 0.5)),
            ("sigma_values", (0.1, 0.2, 0.1)),
        ],
    )
    def test_repeated_grid_values(self, field, values):
        with pytest.raises(ConfigError, match=field):
            SweepSpec(**{"operators": ("yager",), field: values})

    @pytest.mark.parametrize("field", ["operators", "n_values", "r_values", "sigma_values"])
    def test_empty_grid_values(self, field):
        with pytest.raises(ConfigError, match=f"{field} must be non-empty"):
            SweepSpec(**{"operators": ("yager",), field: ()})

    @pytest.mark.parametrize("field", ["consensus", "baselines"])
    @pytest.mark.parametrize("value", ["false", None, 0, 1, np.bool_(True)])
    def test_flags_must_be_bool(self, field, value):
        # Read by truthiness, consensus="false" would run consensus cells.
        with pytest.raises(ConfigError, match=f"{field} must be a bool"):
            SweepSpec(operators=("yager",), **{field: value})

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
    def test_bad_sigma(self, sigma):
        with pytest.raises(ConfigError, match="sigma"):
            SweepSpec(operators=("yager",), sigma_values=(0.1, sigma))

    @pytest.mark.parametrize(
        "field",
        ["k", "n_values", "max_iterations", "convergence_window", "root_seed"],
    )
    @pytest.mark.parametrize("value", [3.5, 4.0, True, "4", np.int64(4)])
    def test_counts_must_be_integers(self, field, value):
        if field == "n_values":
            value = (value,)
        with pytest.raises(ConfigError, match="integer"):
            SweepSpec(operators=("yager",), **{field: value})

    # One bad value of each field SweepSpec shares with SimConfig, as
    # (SweepSpec kwargs, SimConfig kwargs).
    SHARED_BAD_VALUES = [
        ({"operators": ("bogus",)}, {"operator": "bogus"}),
        ({"n_values": (1,)}, {"n": 1}),
        ({"r_values": (1.5,)}, {"r": 1.5}),
        ({"sigma_values": (float("nan"),)}, {"sigma": float("nan")}),
        ({"k": 1}, {"k": 1}),
        ({"max_iterations": 0}, {"max_iterations": 0}),
        ({"convergence_window": 2.5}, {"convergence_window": 2.5}),
        ({"trajectory_stride": -1}, {"trajectory_stride": -1}),
        ({"root_seed": -1}, {"seed": -1}),
        ({"r_values": ("0.5",)}, {"r": "0.5"}),
        ({"sigma_values": (None,)}, {"sigma": None}),
    ]

    @pytest.mark.parametrize("spec_kwargs, config_kwargs", SHARED_BAD_VALUES)
    def test_shared_fields_fail_with_simconfig_message(self, spec_kwargs, config_kwargs):
        with pytest.raises(ValueError) as config_error:
            SimConfig(**{"operator": "yager", **config_kwargs})
        with pytest.raises(ConfigError) as spec_error:
            SweepSpec(**{"operators": ("yager",), **spec_kwargs})
        assert str(spec_error.value) == str(config_error.value)

    # Grid values of the wrong type, each failing with a message naming its field.
    @pytest.mark.parametrize("kwargs, message", [
        ({"operators": (["yager"],)}, r"unknown operator \['yager'\]"),
        ({"n_values": ([3],)}, "n must be an integer"),
        ({"r_values": ({0.5},)}, "r must be a real number"),
        ({"n_values": 3}, "n_values must be a sequence"),
        ({"operators": "yager"}, "operators must be a sequence"),
    ])
    def test_grid_type_errors_name_the_field(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            SweepSpec(**{"operators": ("yager",), **kwargs})

    def test_lists_and_ranges_are_accepted(self):
        spec = SweepSpec(operators=["yager"], n_values=range(3, 5), r_values=[0.5])
        assert (spec.operators, spec.n_values, spec.r_values) == (("yager",), (3, 4), (0.5,))

    @settings(max_examples=500, deadline=None)
    @given(
        values=st.dictionaries(
            st.sampled_from(("n_values", "r_values", "sigma_values") + COUNT_FIELDS),
            st.lists(NUMBERS, min_size=1, max_size=2, unique=True),
            min_size=1,
            max_size=2,
        ),
        consensus=st.booleans(),
    )
    def test_accepted_spec_runs_every_cell(self, values, consensus):
        kwargs = {
            field: tuple(drawn) if field.endswith("_values") else drawn[0]
            for field, drawn in values.items()
        }
        try:
            spec = SweepSpec(operators=ALL_OPERATORS, consensus=consensus, **kwargs)
        except ConfigError:
            return
        for cell in build_cells(spec):
            cell_config(spec, cell, 0)
            FrameOfDiscernment(cell.n)
            default_qualities(cell.n)


class TestCells:
    def test_baseline_cells_added(self):
        spec = sweep_spec_from_config(TestConfigParsing.CONFIG)
        cells = build_cells(spec)
        assert len(cells) == 2 * 3 * 2  # operators x rates x consensus modes
        assert {c.consensus_enabled for c in cells} == {True, False}
        assert cells == sorted(cells, key=attrgetter("operator", "n", "r", "sigma",
                                                     "consensus_enabled"))

    def test_cells_and_records_share_one_order(self):
        # build_cells sorts configs and emit_csv sorts records by the same
        # coordinates, both spelled by CELL_FIELDS.
        spec = SweepSpec(operators=("yager", "dempster"), n_values=(3, 2), k=4,
                         r_values=(0.5, 0.1), sigma_values=(0.1, 0.0), runs_per_cell=1,
                         max_iterations=3, baselines=True)
        cells = build_cells(spec)
        records = run_sweep(spec, workers=1).records
        assert [harness.CONFIG_KEY(c) for c in cells] == [harness.CELL_KEY(r) for r in records]
        assert [harness.CELL_KEY(r) for r in records] == sorted(map(harness.CELL_KEY, records))
        assert len(set(map(harness.CELL_KEY, records))) == 2 * 2 * 2 * 2 * 2

    def test_no_consensus_mode(self):
        spec = SweepSpec(operators=("yager",), consensus=False, k=1)
        assert [cell.consensus_enabled for cell in build_cells(spec)] == [False]


class TestWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("DSTCONS_WORKERS", "4")
        assert resolve_workers(2) == 2

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv("DSTCONS_WORKERS", "6")
        assert resolve_workers(None) == 6

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("DSTCONS_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            resolve_workers(0)

    @pytest.mark.parametrize("workers", [2.5, True])
    def test_rejects_non_integer(self, workers):
        with pytest.raises(ConfigError, match="worker count must be an integer"):
            resolve_workers(workers)

    def test_non_integer_env_var_is_named(self, monkeypatch):
        monkeypatch.setenv("DSTCONS_WORKERS", "abc")
        with pytest.raises(ConfigError, match="DSTCONS_WORKERS.*'abc'"):
            resolve_workers(None)

    class FakePool:
        """Stands in for a ProcessPoolExecutor: maps in-process, starts no process."""

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    # (requested workers, os.cpu_count(), runs in the sweep, expected pool size;
    # None means the sweep runs serially and no pool is made).
    POOL_CASES = [
        (100000, 4, 6, 4),
        (3, 64, 2, 2),
        (8, 2, 6, 2),
        (2, None, 6, None),
        (100000, 8, 1, None),
    ]

    @pytest.mark.parametrize("requested, cpus, runs, expected", POOL_CASES)
    @pytest.mark.parametrize("source", ["argument", "env"])
    def test_pool_bounded_by_cpus_and_runs(
        self, monkeypatch, requested, cpus, runs, expected, source
    ):
        sizes = []

        def fake_executor(max_workers):
            sizes.append(max_workers)
            return self.FakePool()

        monkeypatch.setattr(harness, "ProcessPoolExecutor", fake_executor)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("DSTCONS_WORKERS", str(requested))
        spec = SweepSpec(
            operators=("yager",), k=3, runs_per_cell=runs, max_iterations=5
        )
        sweep = run_sweep(spec, workers=requested if source == "argument" else None)
        assert sizes == ([] if expected is None else [expected])
        assert sweep.records == run_sweep(spec, workers=1).records


class TestPresets:
    def test_all_figures_build(self):
        for figure in ("fig1", "fig2", "fig3", "fig4", "fig5"):
            spec = preset_spec(figure, runs=5)
            assert spec.runs_per_cell == 5

    def test_fig2_has_baselines_and_both_grids(self):
        spec = preset_spec("fig2")
        assert spec.baselines
        assert min(spec.r_values) == 0.0005
        assert max(spec.r_values) == 1.0

    def test_fig1_is_the_headline_cell(self):
        spec = preset_spec("fig1")
        assert (spec.n_values, spec.r_values, spec.sigma_values) == ((3,), (0.05,), (0.1,))

    def test_fig5_scales_states(self):
        spec = preset_spec("fig5")
        assert spec.n_values == (3, 5, 10)
        assert set(spec.operators) == {"dubois_prade", "yager"}

    def test_unknown_figure(self):
        with pytest.raises(ConfigError):
            preset_spec("fig9")

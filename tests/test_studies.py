"""The study runner: child processes match the in-process sweep and apply their settings."""

import shutil

import pytest

from dstcons import run_sweep

import paired_replay
import studies

# D&P at n=3, k=20, r=0.3, sigma=0.1, 4 runs, cap 200: the loose EPS_CONV=0.2
# declares the first two runs converged, which the default does not within the cap.
CONV_CELL = ("dubois_prade", 3, 0.3, 0.1, True, 4)
CONV_FIELDS = dict(k=20, max_iterations=200)
REPLAY_CELLS = [("dempster", 3, 0.02, 0.1, True, 2)]
# Cells whose exact results (k=20, cap 200) move when the tolerance is set to
# 0, as tolerance_margins.py sets it: combine_dempster and renormalize must
# read it from dstcons.mass when called, not keep a copy of their own.
MASS_SETTINGS = [("EPS_CONFLICT", ("dempster", 3, 0.3, 0.1, True, 2)),
                 ("EPS_PRUNE", ("yager", 3, 1.0, 0.3, True, 2))]


def test_criteria_read_37_cells_of_910_runs():
    assert len(studies.CELLS) == 37
    assert sum(cell[-1] for cell in studies.CELLS) == 910


def test_child_sweep_equals_in_process_sweep():
    cell = ("yager", 3, 0.3, 0.1, False, 2)
    child = studies.run_cells([cell], 7, k=10, max_iterations=100)[cell]
    own = run_sweep(studies.spec(cell, 7, k=10, max_iterations=100), workers=1)
    assert child.records == own.records
    assert child.summaries == own.summaries


def test_more_children_than_cpus_answer_every_cell_once(monkeypatch):
    # Three children on a two-CPU box take seven cells from the one queue.
    cells = [("yager", 3, r, 0.1, True, 1) for r in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)]
    monkeypatch.setenv("DSTCONS_WORKERS", "3")
    children = studies.run_cells(cells, 3, k=5, max_iterations=20)
    assert list(children) == cells
    for c in cells:
        own = run_sweep(studies.spec(c, 3, k=5, max_iterations=20), workers=1)
        assert children[c].records == own.records


def test_setting_reaches_the_child():
    own = run_sweep(studies.spec(CONV_CELL, 0, **CONV_FIELDS), workers=1)
    assert [rec.convergence_iteration for rec in own.records] == [None, None, 195, 175]
    child = studies.run_cells([CONV_CELL], 0, {"EPS_CONV": 0.2}, **CONV_FIELDS)[CONV_CELL]
    assert [rec.convergence_iteration for rec in child.records] == [192, 194, 165, 166]


@pytest.mark.parametrize("name, cell", MASS_SETTINGS)
def test_mass_setting_reaches_the_child(name, cell):
    fields = dict(exact=True, k=20, max_iterations=200)
    default = studies.run_cells([cell], 0, **fields)[cell]
    assert studies.run_cells([cell], 0, {name: 0.0}, **fields)[cell] != default


def test_failed_child_raises_its_stderr():
    with pytest.raises(RuntimeError, match="KeyError: 'EPS_UNKNOWN'"):
        studies.run_cells([CONV_CELL], 0, {"EPS_UNKNOWN": 0.0}, **CONV_FIELDS)


def test_replay_finds_an_edited_constant(tmp_path, capsys):
    assert paired_replay.replay(studies.SRC, REPLAY_CELLS) == 0
    assert capsys.readouterr().out == "2 of 2 runs identical\n"
    other = tmp_path / "src"
    shutil.copytree(studies.SRC, other, ignore=shutil.ignore_patterns("__pycache__"))
    mass = other / "dstcons" / "mass.py"
    source = mass.read_text()
    assert "\nEPS_PRUNE = 1e-12\n" in source
    mass.write_text(source.replace("\nEPS_PRUNE = 1e-12\n", "\nEPS_PRUNE = 1e-6\n"))
    assert paired_replay.replay(other, REPLAY_CELLS) == 1
    assert capsys.readouterr().out.startswith("0 of 2 runs identical\n")

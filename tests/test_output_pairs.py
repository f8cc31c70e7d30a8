"""``tools/output_pairs.py``: its byte-level compare step, on two output
directories of one tiny experiment, and the configs it is run on."""

import shutil
import sys
from pathlib import Path

import pytest

from isiw import ExperimentConfig, parse_config
from isiw.cli import main as cli_main
from isiw.experiment import format_config

TOOLS = str(Path(__file__).resolve().parents[1] / "tools")
sys.path.insert(0, TOOLS)
try:
    import output_pairs
finally:
    sys.path.remove(TOOLS)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("output_pairs")
    cfg = base / "exp.cfg"
    cfg.write_text(
        "replicates=1\ngrid_nx=8\ngrid_ny=8\nphi=0.15\nn=20\n"
        "methods=mle,isiw-v:known\nseed=3\ntiming=off\n"
    )
    assert cli_main(["experiment", "--config", str(cfg), "--out-dir", str(base / "parent")]) == 0
    return base / "parent"


def test_identical_outputs_pass(outputs, tmp_path):
    change = tmp_path / "change"
    shutil.copytree(outputs, change)
    assert output_pairs.differences(outputs, change) == []


def flipped_digit_copy(outputs, change):
    """Copy ``outputs`` to ``change`` with the last digit of one rmspe in
    line 3 of results.csv flipped."""
    shutil.copytree(outputs, change)
    lines = (change / "results.csv").read_text().splitlines(keepends=True)
    fields = lines[2].split(",")
    rmspe = fields[4]
    fields[4] = rmspe[:-1] + str((int(rmspe[-1]) + 1) % 10)
    lines[2] = ",".join(fields)
    (change / "results.csv").write_text("".join(lines))


def test_one_flipped_digit_names_the_file_and_line(outputs, tmp_path):
    flipped_digit_copy(outputs, tmp_path / "change")
    [diff] = output_pairs.differences(outputs, tmp_path / "change")
    assert diff.startswith("results.csv line 3\n")


def test_every_differing_file_is_named(outputs, tmp_path, capsys):
    change = tmp_path / "change"
    flipped_digit_copy(outputs, change)
    metadata = (change / "run_metadata.txt").read_text().splitlines(keepends=True)
    (change / "run_metadata.txt").write_text("".join(metadata[:2] + metadata[3:]))
    diffs = output_pairs.differences(outputs, change)
    assert [diff.split("\n")[0] for diff in diffs] == ["results.csv line 3", "run_metadata.txt line 3"]
    assert output_pairs.compare_all([("a.cfg", outputs, change)]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("  ")]
    assert lines == ["a.cfg differs: results.csv line 3", "a.cfg differs: run_metadata.txt line 3"]


def test_compare_goes_on_past_a_differing_config(outputs, tmp_path, capsys):
    flipped_digit_copy(outputs, tmp_path / "flipped")
    shutil.copytree(outputs, tmp_path / "same")
    pairs = [("a.cfg", outputs, tmp_path / "flipped"), ("b.cfg", outputs, tmp_path / "same")]
    assert output_pairs.compare_all(pairs) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "a.cfg differs: results.csv line 3"
    assert any(line.startswith("b.cfg identical: ") for line in lines)
    assert output_pairs.compare_all(pairs[1:]) == 0


def test_missing_file_is_a_difference(outputs, tmp_path):
    change = tmp_path / "change"
    shutil.copytree(outputs, change)
    (change / "ranks.csv").unlink()
    [diff] = output_pairs.differences(outputs, change)
    assert diff.startswith("ranks.csv: missing")


def test_file_only_the_change_wrote_is_no_difference(outputs, tmp_path):
    change = tmp_path / "change"
    shutil.copytree(outputs, change)
    (change / "new_output.csv").write_text("a,b\n")
    assert output_pairs.differences(outputs, change) == []


@pytest.mark.parametrize("path", sorted(Path(TOOLS, "configs").glob("*.cfg")), ids=lambda path: path.stem)
def test_committed_config_parses_with_timing_off(path):
    config = parse_config(path.read_text())
    assert config.timing is False
    # the run_metadata.txt echo of a run parses back to its config
    for c in (config, ExperimentConfig()):
        assert parse_config(format_config(c)) == c

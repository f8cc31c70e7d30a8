import re
import shlex
from pathlib import Path

import numpy as np

from isiw import SeedStream, io, observe
from isiw.cli import main as cli_main
from isiw.experiment import DEFAULTS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    surface = namespace["surface"]
    assert surface.predictions.shape == (namespace["grid"].ncells,)
    assert np.all(np.isfinite(surface.predictions))


def test_shell_walkthrough_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", text, flags=re.S) if "\nisiw " in f"\n{b}"]
    commands = {}
    for line in block.splitlines():
        if line.startswith("isiw "):
            argv = shlex.split(line)[1:]
            commands[argv[0]] = argv
    assert list(commands) == ["simulate", "sample", "intensity", "fit", "krige", "experiment"]
    (quoted,) = re.findall(r"`(bandwidth=[^`]*)`", text)

    monkeypatch.chdir(tmp_path)
    # the files the README says the user supplies: a small experiment
    # config, and a data CSV observed on the walkthrough's own field and points
    Path("experiment.cfg").write_text("replicates=1\ngrid_nx=16\ngrid_ny=16\nn=30\nmethods=mle\ntiming=off\n")
    for command, argv in commands.items():
        if command == "fit":
            field, points = io.read_field_csv("work/field.csv"), io.read_points_csv("work/points.csv")
            io.write_dataset_csv("work/data.csv", observe(field, points, mu=4.0, tau2=0.1, seed=SeedStream(3)))
        assert cli_main(argv) == 0, argv
        printed = capsys.readouterr().out
        if command == "intensity":
            assert printed == f"{quoted}\n"

    # krige read the parameters that fit wrote
    fit_csv = commands["fit"][commands["fit"].index("--out") + 1]
    assert commands["krige"][commands["krige"].index("--fit") + 1] == fit_csv
    assert Path(fit_csv).is_file() and Path("work/surface.csv").is_file()
    assert Path("results/results.csv").is_file()


def test_config_block_names_exactly_the_config_keys():
    section = README.read_text().split("## Experiment configuration", 1)[1]
    block = re.search(r"```\n(.*?)```", section, flags=re.S).group(1)
    named = [key for line in block.splitlines() for key in re.findall(r"(\w+)\s*=", line.split("#", 1)[0])]
    assert sorted(named) == sorted(DEFAULTS)

import re
import shlex
from pathlib import Path

from cpfuse import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "rsnr_db=" in out


def experiments_commands():
    """The ``cpfuse`` commands of README's *Experiments* section, each as an
    argv list, with ``\\`` continuations joined."""
    section = README.read_text().split("## Experiments", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", section, flags=re.S):
        joined = block.replace("\\\n", " ")
        commands += [shlex.split(line) for line in joined.splitlines()
                     if line.startswith("cpfuse ")]
    return commands


def test_experiments_commands_build_their_sweeps(tmp_path, monkeypatch):
    # The sweeps take minutes, so each command runs through cli.main with the
    # sweep itself stubbed: a renamed flag, or a flag combination that starts
    # being rejected, fails here.
    recorded = []

    def run_experiment(cfg, sri):
        recorded.append(cfg)
        return [], []

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    monkeypatch.chdir(tmp_path)
    commands = experiments_commands()
    assert [argv[:2] for argv in commands] == [["cpfuse", "sweep"]] * 2
    for argv in commands:
        assert cli.main(argv[1:]) == 0
    got = [(c.snrs_db, c.ranks, c.algorithm, c.replicates, c.solver.max_iters)
           for c in recorded]
    assert got == [
        ((0.0, 5.0, 10.0, 15.0, 20.0, 25.0), (5,), "nn-nls", 10, 200),
        ((5.0,), (5, 10, 20), "nn-nls", 10, 200),
    ]

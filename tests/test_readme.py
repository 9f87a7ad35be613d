"""The README's library example runs as written and does what its comments say."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], f"{README.name} (## Library)", "exec"), namespace)
    grid, rho, rho_back = namespace["grid"], namespace["rho"], namespace["rho_back"]
    assert grid.max_imag() < 1e-12 and abs(grid.total() - 1) < 1e-12
    assert np.abs(rho_back - rho).max() < 1e-12
    assert "hermiticity" in capsys.readouterr().out

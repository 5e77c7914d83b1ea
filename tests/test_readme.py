"""The README's library Quickstart runs as written and prints what its comments say."""

from pathlib import Path


def _quickstart() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Quickstart (library)", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _flat(value) -> str:
    # numpy wraps a long repr over lines; the README writes it on one.
    return " ".join(repr(value).split())


def test_quickstart_outputs_match_its_comments():
    code = _quickstart()
    namespace: dict = {}
    exec(code, namespace)
    lines = code.splitlines()
    surface_comment = lines[lines.index("surface.risk.round(3)") + 1]
    assert surface_comment == "# " + _flat(namespace["surface"].risk.round(3))
    solver_line = next(line for line in lines if line.startswith("report.weights, report.status"))
    report = namespace["report"]
    assert solver_line.split("# ", 1)[1] == _flat((report.weights.round(4), report.status))

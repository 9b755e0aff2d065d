"""The README's library tour runs as written, and each value that its
comments promise (`# True`) holds."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_source() -> str:
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_tour_runs_and_keeps_its_promises():
    lines = []
    promised = 0
    for line in tour_source().splitlines():
        code, _, comment = line.partition("#")
        if code.strip() and comment.strip().startswith("True"):
            line = f"assert {code.strip()}, {code.strip()!r}"
            promised += 1
        lines.append(line)
    assert promised >= 2
    exec(compile("\n".join(lines), str(README), "exec"), {})

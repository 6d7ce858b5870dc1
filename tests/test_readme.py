"""README's "Library use" block runs and prints what its comments say."""
import contextlib
import io
import math
import pathlib

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_use_block_prints_its_comments():
    code = _library_block()
    expected = [line.split("# ", 1)[1] for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 3
    for got, want in zip(printed, expected):
        if "~" not in want:
            assert got == want
            continue
        # "word ~1e-9": the words match and the number has that magnitude.
        head, approx = want.split("~")
        *words, value = got.split()
        assert words == head.split()
        assert abs(math.log10(float(value) / float(approx))) < 1

"""tools/check_links.py: a markdown file a source file names must exist."""

from __future__ import annotations

import importlib.util
import pathlib

_SCRIPT = pathlib.Path(__file__).parents[1] / "tools" / "check_links.py"
spec = importlib.util.spec_from_file_location("check_links", _SCRIPT)
check_links = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_links)

# Spelled in two parts so that this file names no markdown file itself.
MD = ".md"


def test_a_dangling_doc_pointer_fails_a_directory_scan(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (tmp_path / f"TOP{MD}").write_text("# top\n")
    (package / f"NOTES{MD}").write_text("# notes\n")
    (package / "ok.py").write_text(f'"""See NOTES{MD} and ../TOP{MD}."""\n')
    (package / "bad.py").write_text(f'x = 1\n"""Per DESIGN{MD}, S10."""\n')
    assert check_links.main([str(package)]) == 1
    report = capsys.readouterr().err
    assert f"bad.py:2: dangling pointer 'DESIGN{MD}'" in report
    assert "ok.py" not in report


def test_the_repo_has_no_dangling_doc_pointers(monkeypatch):
    monkeypatch.chdir(_SCRIPT.parents[1])
    assert check_links.main(["src", "tests", "benchmarks"]) == 0

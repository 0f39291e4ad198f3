#!/usr/bin/env python
"""Check relative links and anchors in the repo's markdown files.

Stdlib-only.  For every inline markdown link ``[text](target)`` in the
given files:

* ``http(s)://`` / ``mailto:`` targets are skipped (no network in CI);
* relative-path targets must resolve to an existing file or directory,
  relative to the file containing the link;
* anchor targets (``#section`` or ``other.md#section``) must match a
  heading in the target file, using GitHub's slug rules (lowercase,
  punctuation stripped, spaces to hyphens, ``-1``/``-2`` suffixes for
  duplicates).

Links inside fenced code blocks are ignored.

A ``.py`` argument is scanned for markdown file names instead (a
docstring's "see docs/ARCHITECTURE.md"): each must exist, relative to
the working directory or to the file.  A directory argument stands for
every ``.py`` file under it.

Exit 1 and a per-link report on any broken target.

Usage: ``python tools/check_links.py README.md docs/*.md src tests``
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# [text](target) with no nesting; target runs to the first unescaped ')'.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_FENCE = re.compile(r"^(```|~~~)")
# Markdown emphasis/code wrappers that GitHub strips before slugging.
_MARKUP = re.compile(r"[*_`]|\[|\]\([^)]*\)")
_NON_SLUG = re.compile(r"[^\w\- ]", re.UNICODE)
_MD_NAME = re.compile(r"[\w./-]*\w\.md\b")


def github_slug(heading: str) -> str:
    text = _MARKUP.sub("", heading.strip())
    text = _NON_SLUG.sub("", text.lower())
    return text.replace(" ", "-")


def iter_outside_fences(lines):
    """Yield (lineno, line) for lines outside fenced code blocks."""
    in_fence = False
    for number, line in enumerate(lines, start=1):
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield number, line


def anchors_of(path: Path) -> set[str]:
    slugs: set[str] = set()
    counts: dict[str, int] = {}
    for _, line in iter_outside_fences(path.read_text().splitlines()):
        match = _HEADING.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        slugs.add(slug if seen == 0 else f"{slug}-{seen}")
    return slugs


def check_file(path: Path, anchor_cache: dict[Path, set[str]]) -> list[str]:
    errors = []
    for lineno, line in iter_outside_fences(path.read_text().splitlines()):
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            where = f"{path}:{lineno}"
            file_part, _, anchor = target.partition("#")
            if file_part:
                dest = (path.parent / file_part).resolve()
                if not dest.exists():
                    errors.append(f"{where}: broken link '{target}' "
                                  f"(no such file {dest})")
                    continue
            else:
                dest = path.resolve()
            if anchor:
                if dest.is_dir() or dest.suffix.lower() != ".md":
                    continue  # anchors into non-markdown: not checkable
                if dest not in anchor_cache:
                    anchor_cache[dest] = anchors_of(dest)
                if anchor.lower() not in anchor_cache[dest]:
                    errors.append(f"{where}: broken anchor '{target}' "
                                  f"(no heading slugs to '#{anchor}' "
                                  f"in {dest.name})")
    return errors


def check_pointers(path: Path) -> list[str]:
    """Markdown file names a ``.py`` file mentions that do not exist."""
    errors = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for name in _MD_NAME.findall(line):
            if not (Path(name).exists() or (path.parent / name).exists()):
                errors.append(f"{path}:{lineno}: dangling pointer "
                              f"'{name}' (no such file)")
    return errors


def main(argv: list[str]) -> int:
    files = [Path(name) for name in argv] or [Path("README.md")]
    files = [py for f in files
             for py in (sorted(f.rglob("*.py")) if f.is_dir() else [f])]
    missing = [str(f) for f in files if not f.is_file()]
    if missing:
        print(f"no such file(s): {', '.join(missing)}", file=sys.stderr)
        return 1
    cache: dict[Path, set[str]] = {}
    errors = []
    checked = 0
    for path in files:
        if path.suffix == ".py":
            errors.extend(check_pointers(path))
        else:
            errors.extend(check_file(path, cache))
        checked += 1
    for error in errors:
        print(error, file=sys.stderr)
    print(f"{checked} file(s) checked, {len(errors)} broken link(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

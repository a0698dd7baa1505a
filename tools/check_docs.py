#!/usr/bin/env python3
"""Markdown link, anchor, and shell-example checker for the docs.

Walks every ``*.md`` file (repo root and ``docs/``), extracts inline links,
and fails when a relative link points at a file that does not exist or at a
heading anchor that no heading in the target file produces.  External
(``http``/``https``/``mailto``) links are not fetched — this repo builds
offline — only their syntax is accepted.

Fenced shell examples are checked too: any ``repro-experiments``
invocation whose first positional argument is not a known subcommand or
experiment id is flagged, so the docs cannot drift from ``harness/cli.py``.

Run from anywhere:  ``python tools/check_docs.py``
Exit status: 0 clean, 1 broken links or stale commands (each printed as
file:line).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: inline markdown links, excluding images; reference-style links are not
#: used in this repo
_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")
_CODE_FENCE = re.compile(r"^(```|~~~)\s*(\S*)")

#: fence languages whose lines are scanned for CLI invocations
_SHELL_LANGS = {"", "bash", "sh", "shell", "console", "text"}
_ENV_ASSIGN = re.compile(r"^\w+=\S*$")


def _cli_vocabulary() -> tuple[set[str], set[str]]:
    """``repro-experiments``' ``(valid first positionals, value-taking flags)``.

    Derived from the real parsers and registries so the vocabulary can
    never lag behind the code.
    """
    sys.path.insert(0, str(REPO / "src"))
    from repro.harness import cli
    from repro.harness.figures import EXPERIMENTS

    def value_flags(parser) -> set[str]:
        flags: set[str] = set()
        for action in parser._actions:
            if action.option_strings and action.nargs != 0:
                flags.update(action.option_strings)
        return flags

    return (set(cli.SUBCOMMANDS) | set(EXPERIMENTS),
            value_flags(cli.build_parser()))


def _find_command(tokens: list[str]) -> int | None:
    """Where ``repro-experiments``' arguments start in ``tokens``, if at all."""
    for i, tok in enumerate(tokens):
        if tok == "repro-experiments" or tok.endswith(
                ("repro.harness.cli", "harness/cli.py")):
            return i + 1
    return None


#: what an intended subcommand or experiment id looks like; anything else
#: (paths, prose, diagram fragments) is not worth flagging
_ID_SHAPE = re.compile(r"[a-z0-9][a-z0-9_-]*$")


def _bad_positional(tokens: list[str], vocab: set[str],
                    flags: set[str]) -> str | None:
    """The first positional token if it is not in ``vocab``, else None.

    Everything after a recognised subcommand/experiment id is that
    command's own business (file paths, more experiment ids) and is not
    checked here.
    """
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.startswith("#") or tok in ("|", "||", "&&", ";", ">", ">>",
                                          "2>", "<"):
            return None            # comment, or a pipeline continues
        if tok.startswith("-"):
            if "=" not in tok and tok in flags:
                i += 1             # skip the flag's value token
        else:
            if tok in vocab or not _ID_SHAPE.fullmatch(tok):
                return None
            return tok
        i += 1
    return None


def check_commands() -> list[str]:
    """Flag fenced shell examples that name unknown subcommands."""
    errors: list[str] = []
    vocab, flags = _cli_vocabulary()
    for md in _markdown_files():
        in_fence = False
        shell_fence = False
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            fence = _CODE_FENCE.match(line)
            if fence:
                in_fence = not in_fence
                shell_fence = in_fence and fence.group(2) in _SHELL_LANGS
                continue
            if not (in_fence and shell_fence):
                continue
            tokens = line.strip().split()
            if tokens and tokens[0] == "$":
                tokens = tokens[1:]
            while tokens and _ENV_ASSIGN.match(tokens[0]):
                tokens = tokens[1:]
            start = _find_command(tokens)
            if start is None:
                continue
            bad = _bad_positional(tokens[start:], vocab, flags)
            if bad is not None:
                errors.append(
                    f"{md.relative_to(REPO)}:{lineno}: repro-experiments "
                    f"has no subcommand or experiment {bad!r}")
    return errors


def _github_slug(heading: str) -> str:
    """The anchor GitHub generates for a heading."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)      # strip code spans
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links → text
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)             # drop punctuation
    return text.replace(" ", "-")


def _anchors(path: Path) -> set[str]:
    anchors: set[str] = set()
    counts: dict[str, int] = {}
    in_fence = False
    for line in path.read_text().splitlines():
        if _CODE_FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING.match(line)
        if match:
            slug = _github_slug(match.group(1))
            n = counts.get(slug, 0)
            counts[slug] = n + 1
            anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def _markdown_files() -> list[Path]:
    files = sorted(REPO.glob("*.md"))
    docs = REPO / "docs"
    if docs.is_dir():
        files += sorted(docs.rglob("*.md"))
    return files


def check() -> list[str]:
    errors: list[str] = []
    anchor_cache: dict[Path, set[str]] = {}
    for md in _markdown_files():
        in_fence = False
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            if _CODE_FENCE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for match in _LINK.finditer(line):
                target = match.group(1)
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                path_part, _, anchor = target.partition("#")
                where = f"{md.relative_to(REPO)}:{lineno}"
                if path_part:
                    resolved = (md.parent / path_part).resolve()
                    if not resolved.exists():
                        errors.append(f"{where}: broken link {target!r} "
                                      f"(no such file)")
                        continue
                else:
                    resolved = md
                if anchor:
                    if resolved.suffix.lower() != ".md":
                        continue
                    if resolved not in anchor_cache:
                        anchor_cache[resolved] = _anchors(resolved)
                    if anchor.lower() not in anchor_cache[resolved]:
                        errors.append(f"{where}: broken anchor {target!r}")
    return errors


def main() -> int:
    errors = check() + check_commands()
    for error in errors:
        print(error, file=sys.stderr)
    files = len(_markdown_files())
    if errors:
        print(f"{len(errors)} problem(s) across {files} markdown "
              f"file(s)", file=sys.stderr)
        return 1
    print(f"{files} markdown file(s): all links, anchors, and shell "
          f"examples check out")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Offline documentation checker for the AIQL repo.

Run from anywhere: paths are resolved relative to the repo root (the
parent of this file's directory). Exits nonzero on the first category of
failure, printing every broken item it found. Checks, over README.md and
docs/*.md:

1. Every relative markdown link `[text](target)` resolves to a file that
   exists (query strings are rejected; absolute URLs are skipped).
2. Every intra-repo anchor `file.md#anchor` (or bare `#anchor`) resolves
   to a heading in the target file, using GitHub's slugging rules
   (lowercase, spaces to dashes, punctuation dropped).
3. Every `aiql-<name>` crate mentioned in ARCHITECTURE.md's crate table
   has a matching `crates/<name>` directory (the facade crate `aiql`
   itself lives at the workspace root).
4. Every backticked repo path (`tests/...`, `crates/...`, `examples/...`,
   `docs/...`, `tools/...`) names a file or directory that exists — in
   these docs and in the `//!` / `///` doc comments of the Rust sources
   under crates/, src/, tests/ and examples/. A trailing `:line` is
   ignored; paths with wildcards or placeholders (`*`, `<name>`, `{a,b}`,
   `...`) are not checked.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))

LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
CRATE_ROW_RE = re.compile(r"^\|\s*`(aiql-[a-z0-9-]+)`")
REPO_PATH_RE = re.compile(r"`((?:tests|crates|examples|docs|tools)/[^`\s]*)`")
DOC_COMMENT_RE = re.compile(r"^\s*//[/!]")
SOURCE_DIRS = ["crates", "src", "tests", "examples"]


def github_slug(heading: str) -> str:
    """GitHub heading-to-anchor slugging: strip markup, lowercase, drop
    punctuation, spaces become dashes."""
    text = re.sub(r"[`*_]", "", heading).strip()
    # Drop a trailing "{#custom}" style id if ever used.
    text = re.sub(r"\{#[^}]*\}\s*$", "", text).strip()
    slug = []
    for ch in text.lower():
        if ch.isalnum():
            slug.append(ch)
        elif ch in (" ", "-"):
            slug.append("-")
        # everything else (punctuation) is dropped
    return "".join(slug)


def anchors_of(path: Path) -> set:
    anchors, seen = set(), {}
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = HEADING_RE.match(line)
        if not m:
            continue
        slug = github_slug(m.group(2))
        n = seen.get(slug, 0)
        seen[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def links_of(path: Path):
    in_fence = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in LINK_RE.finditer(line):
            yield lineno, m.group(1)


def repo_paths_of(path: Path, doc_comments_only: bool):
    """Backticked repo paths in `path`, with their line numbers: every line
    of a markdown file, the doc-comment lines of a Rust source."""
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if doc_comments_only and not DOC_COMMENT_RE.match(line):
            continue
        for m in REPO_PATH_RE.finditer(line):
            target = re.sub(r":\d+(-\d+)?$", "", m.group(1))
            if re.search(r"[*<>{}]|\.\.\.|\u2026", target):
                continue
            yield lineno, target


def rust_sources():
    for top in SOURCE_DIRS:
        for path in sorted((REPO / top).rglob("*.rs")):
            if "target" not in path.relative_to(REPO).parts:
                yield path


def main() -> int:
    errors = []
    anchor_cache = {}

    def anchors_for(p: Path) -> set:
        key = p.resolve()
        if key not in anchor_cache:
            anchor_cache[key] = anchors_of(p)
        return anchor_cache[key]

    for doc in DOC_FILES:
        if not doc.exists():
            errors.append(f"{doc.relative_to(REPO)}: expected doc file is missing")
            continue
        for lineno, target in links_of(doc):
            where = f"{doc.relative_to(REPO)}:{lineno}"
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, ...
                continue
            path_part, _, anchor = target.partition("#")
            if "?" in path_part:
                errors.append(f"{where}: query string in link target `{target}`")
                continue
            dest = doc if path_part == "" else (doc.parent / path_part)
            if not dest.exists():
                errors.append(f"{where}: broken link `{target}` (no such file)")
                continue
            if anchor:
                if dest.is_dir() or dest.suffix != ".md":
                    errors.append(f"{where}: anchor on non-markdown target `{target}`")
                elif anchor not in anchors_for(dest):
                    errors.append(f"{where}: broken anchor `{target}`")

    for path, doc_comments_only in [(d, False) for d in DOC_FILES if d.exists()] + [
        (p, True) for p in rust_sources()
    ]:
        for lineno, target in repo_paths_of(path, doc_comments_only):
            if not (REPO / target).exists():
                errors.append(
                    f"{path.relative_to(REPO)}:{lineno}: `{target}` names no file in the repo"
                )

    arch = REPO / "docs" / "ARCHITECTURE.md"
    if arch.exists():
        named = []
        for line in arch.read_text(encoding="utf-8").splitlines():
            m = CRATE_ROW_RE.match(line)
            if m:
                named.append(m.group(1))
        if not named:
            errors.append("docs/ARCHITECTURE.md: crate table lists no `aiql-*` crates")
        for crate in named:
            suffix = crate[len("aiql-"):]
            if not (REPO / "crates" / suffix / "Cargo.toml").exists():
                errors.append(
                    f"docs/ARCHITECTURE.md: crate table names `{crate}` "
                    f"but crates/{suffix}/Cargo.toml does not exist"
                )
    else:
        errors.append("docs/ARCHITECTURE.md is missing")

    if errors:
        print(f"docs_check: {len(errors)} problem(s):", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    checked = ", ".join(str(d.relative_to(REPO)) for d in DOC_FILES)
    print(f"docs_check: OK ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

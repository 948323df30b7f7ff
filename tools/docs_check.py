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
5. Every backticked `Type::name` in these docs, and in the `//`, `///`
   and `//!` comments of the Rust sources under crates/, src/, tests/
   and examples/, whose `Type` is a struct, enum, trait, type alias or
   union declared in the workspace's Rust sources (crates/, shims/, src/)
   names something declared on it there:
   a field, a variant, or an fn, const or type of its body or of an
   `impl` block for it (a method a standard derive supplies counts).
   Types the workspace does not declare (`Arc::make_mut`) are skipped, and
   so are `prefix_` and wildcard names (`Type::with_`, `Type::seal_*`).
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
COMMENT_RE = re.compile(r"^\s*//")
SOURCE_DIRS = ["crates", "src", "tests", "examples"]
DECL_DIRS = ["crates", "shims", "src"]
TYPE_PATH_RE = re.compile(r"\b([A-Z][A-Za-z0-9]*)::([A-Za-z_][A-Za-z0-9_]*)([*_]?)")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
# Comments, string literals and char literals, blanked before brace
# matching (a `{` in any of them is not a block).
NOISE_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|r(#*)".*?"\1|b?"(?:\\.|[^"\\])*"|\'(?:\\.|[^\\\'\n])\'',
    re.S,
)
ITEM_RE = re.compile(
    r"\b(?:(struct|enum|union|trait|type)\s+([A-Za-z_][A-Za-z0-9_]*)|(impl)\b)"
)
MEMBER_RE = re.compile(
    r"\b(?:fn|const|static|type)\s+([A-Za-z_][A-Za-z0-9_]*)"
)
FIELD_RE = re.compile(r"(?:^|[,{(])\s*(?:#\[[^\]]*\]\s*)*(?:pub(?:\([^)]*\))?\s+)?([A-Za-z_][A-Za-z0-9_]*)")
# What `#[derive(...)]` of a standard trait puts on a type.
DERIVED = {"clone", "default", "eq", "fmt", "hash", "cmp", "partial_cmp", "ne"}


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


def lines_of(path: Path, only=None):
    """The lines of `path` that `only` matches (all without it), with their
    line numbers."""
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if only is None or only.match(line):
            yield lineno, line


def repo_paths_of(path: Path, doc_comments_only: bool):
    """Backticked repo paths in `path`, with their line numbers: every line
    of a markdown file, the doc-comment lines of a Rust source."""
    for lineno, line in lines_of(path, DOC_COMMENT_RE if doc_comments_only else None):
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


def block_end(text: str, open_at: int) -> int:
    """Index just past the `}` closing the `{` at `open_at`."""
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def top_level_parts(body: str):
    """`body` split at the commas outside any bracket."""
    depth, start = 0, 0
    for i, ch in enumerate(body):
        if ch in "([{<":
            depth += 1
        elif ch in ")]}>":
            depth -= 1
        elif ch == "," and depth == 0:
            yield body[start:i]
            start = i + 1
    yield body[start:]


def impl_target(header: str):
    """The self type's name of an `impl` header (`impl<T> Tr for Ty<T>`)."""
    header = re.sub(r"^impl\s*", "", header).strip()
    if header.startswith("<"):
        depth = 0
        for i, ch in enumerate(header):
            depth += {"<": 1, ">": -1}.get(ch, 0)
            if depth == 0:
                header = header[i + 1 :]
                break
    header = re.split(r"\bwhere\b", header)[0]
    if re.search(r"\bfor\b", header):
        header = re.split(r"\bfor\b", header, maxsplit=1)[1]
    header = re.sub(r"<.*", "", header.strip())
    names = re.findall(r"[A-Za-z_][A-Za-z0-9_]*", header)
    return names[-1] if names else None


def declared_members() -> dict:
    """Every type the workspace declares, with the names declared on it
    (an `impl` for a type declared elsewhere, such as `Arc`, adds none)."""
    members, declared = {}, set()
    for top in DECL_DIRS:
        for path in sorted((REPO / top).rglob("*.rs")):
            if "target" in path.relative_to(REPO).parts:
                continue
            text = NOISE_RE.sub(
                lambda m: re.sub(r"[^\n]", " ", m.group(0)),
                path.read_text(encoding="utf-8"),
            )
            for m in ITEM_RE.finditer(text):
                kind, name = m.group(1), m.group(2)
                # The item's body: the first `{` before any `;` (a unit or
                # tuple struct, an alias or a bodiless impl has none).
                brace, semi = text.find("{", m.end()), text.find(";", m.end())
                has_body = brace != -1 and (semi == -1 or brace < semi)
                if m.group(3):
                    if not has_body:
                        continue
                    name = impl_target(text[m.start() : brace])
                    kind = "impl"
                if name is None:
                    continue
                if kind != "impl":
                    declared.add(name)
                names = members.setdefault(name, set())
                if not has_body or kind == "type":
                    continue
                body = text[brace + 1 : block_end(text, brace) - 1]
                if kind in ("struct", "union", "enum"):
                    for part in top_level_parts(body):
                        f = FIELD_RE.match(part)
                        if f:
                            names.add(f.group(1))
                names.update(MEMBER_RE.findall(body))
    return {name: members[name] for name in declared}


def stale_type_paths(members: dict):
    """Backticked `Type::name`s naming nothing on `Type`: in the docs, and
    in the comments of the Rust sources."""
    texts = [(d, None) for d in DOC_FILES if d.exists()]
    texts += [(p, COMMENT_RE) for p in rust_sources()]
    for path, only in texts:
        for lineno, line in lines_of(path, only):
            for span in CODE_SPAN_RE.findall(line):
                for m in TYPE_PATH_RE.finditer(span):
                    ty, name, tail = m.groups()
                    if ty not in members or tail or name.endswith("_"):
                        continue
                    if name not in members[ty] and name not in DERIVED:
                        yield f"{path.relative_to(REPO)}:{lineno}", f"{ty}::{name}"


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

    for where, path in stale_type_paths(declared_members()):
        errors.append(f"{where}: `{path}` names nothing declared on that type")

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

#!/usr/bin/env python
"""Docs CI gate: links must resolve, examples must run.

Two checks over the documentation set (README.md, DESIGN.md,
EXPERIMENTS.md, ROADMAP.md, docs/*.md):

1. **Links** — every relative markdown link must point at an existing
   file, and every anchor (``#fragment``, same-file or cross-file) must
   match a heading in the target, using GitHub's slug rules.  External
   (``http(s)://``) links are not fetched.
2. **Snippets** — every fenced ```python block is executed in a fresh
   interpreter with ``PYTHONPATH=src``, a temporary working directory,
   and a temporary result cache, so the examples in the docs cannot
   rot.  Blocks in other languages (```bash```, bare fences) are not
   run; a python block that must not run has no reason to claim to be
   python.

Exit status 0 iff everything passes.  ``--no-run`` checks links only.

Usage::

    PYTHONPATH=src python scripts/check_docs.py
    PYTHONPATH=src python scripts/check_docs.py --no-run README.md
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEFAULT_FILES = ["README.md", "DESIGN.md", "EXPERIMENTS.md",
                 "ROADMAP.md", "docs/api.md", "docs/architecture.md",
                 "docs/calibration.md", "docs/latency.md",
                 "docs/policies.md", "docs/predictors.md",
                 "docs/robustness.md", "docs/telemetry.md"]

LINK_RE = re.compile(r"(?<!\!)\[[^][]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
FENCE_RE = re.compile(r"^```(\S*)\s*$")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: strip code spans and punctuation,
    lowercase, spaces to hyphens."""
    text = re.sub(r"`([^`]*)`", r"\1", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def strip_fences(lines: list[str]) -> list[str]:
    """Lines outside fenced code blocks (links/headings inside fences
    are literal text, not markdown)."""
    out, in_fence = [], False
    for line in lines:
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            out.append(line)
    return out


def anchors_of(path: str) -> set[str]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    slugs: set[str] = set()
    counts: dict[str, int] = {}
    for line in strip_fences(lines):
        m = HEADING_RE.match(line)
        if not m:
            continue
        base = github_slug(m.group(2))
        n = counts.get(base, 0)
        counts[base] = n + 1
        slugs.add(base if n == 0 else f"{base}-{n}")
    return slugs


def check_links(md_path: str) -> list[str]:
    errors: list[str] = []
    with open(md_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    in_fence = False
    for lineno, line in enumerate(lines, 1):
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in LINK_RE.finditer(line):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            if path_part:
                dest = os.path.normpath(
                    os.path.join(os.path.dirname(md_path), path_part))
                if not os.path.exists(dest):
                    errors.append(f"{md_path}:{lineno}: broken link "
                                  f"{target!r} (no such file)")
                    continue
            else:
                dest = md_path
            if fragment and dest.endswith(".md"):
                if fragment not in anchors_of(dest):
                    errors.append(f"{md_path}:{lineno}: broken anchor "
                                  f"{target!r} (no heading "
                                  f"#{fragment} in {os.path.relpath(dest, REPO)})")
    return errors


def python_snippets(md_path: str) -> list[tuple[int, str]]:
    """(first_line_number, source) of every fenced ```python block."""
    snippets: list[tuple[int, str]] = []
    with open(md_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    block: list[str] | None = None
    start = 0
    for lineno, line in enumerate(lines, 1):
        m = FENCE_RE.match(line)
        if m and block is None and m.group(1) == "python":
            block, start = [], lineno + 1
        elif m and block is not None:
            snippets.append((start, "\n".join(block)))
            block = None
        elif block is not None:
            block.append(line)
    return snippets


def run_snippet(md_path: str, lineno: int, source: str,
                timeout: int = 600) -> str | None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env["MPLBACKEND"] = "Agg"
    with tempfile.TemporaryDirectory(prefix="docs-snippet-") as tmp:
        env["REPRO_CACHE_DIR"] = os.path.join(tmp, "cache")
        proc = subprocess.run([sys.executable, "-"], input=source,
                              text=True, capture_output=True, cwd=tmp,
                              env=env, timeout=timeout)
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-12:]
        return (f"{md_path}:{lineno}: snippet failed "
                f"(exit {proc.returncode}):\n    " + "\n    ".join(tail))
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", default=None,
                    help="markdown files to check (default: the doc set)")
    ap.add_argument("--no-run", action="store_true",
                    help="check links only, skip snippet execution")
    args = ap.parse_args(argv)

    files = args.files or DEFAULT_FILES
    paths = [p if os.path.isabs(p) else os.path.join(REPO, p)
             for p in files]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        for p in missing:
            print(f"no such file: {p}", file=sys.stderr)
        return 2

    errors: list[str] = []
    n_links = n_snips = 0
    for path in paths:
        rel = os.path.relpath(path, REPO)
        link_errors = check_links(path)
        errors.extend(link_errors)
        with open(path, encoding="utf-8") as fh:
            body = fh.read()
        n_links += sum(1 for line in strip_fences(body.splitlines())
                       for _ in LINK_RE.finditer(line))
        snips = python_snippets(path)
        if args.no_run:
            continue
        for lineno, source in snips:
            n_snips += 1
            print(f"  running {rel}:{lineno} "
                  f"({len(source.splitlines())} lines)", flush=True)
            err = run_snippet(path, lineno, source)
            if err:
                errors.append(err)

    for e in errors:
        print(e, file=sys.stderr)
    status = "FAIL" if errors else "OK"
    print(f"docs check: {len(paths)} file(s), {n_links} link(s), "
          f"{n_snips} snippet(s) run -> {status}")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())

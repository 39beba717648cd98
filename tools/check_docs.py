#!/usr/bin/env python3
"""Documentation health check (the CI ``docs-check`` job).

Two families of checks, both offline and dependency-free:

1. **Link/anchor check** — every relative markdown link in the curated
   doc set resolves to an existing file, and every ``#anchor`` fragment
   resolves to a real heading (GitHub slug rules) in the target file.
   External (``http(s)://``, ``mailto:``) links are not fetched.

2. **Doc-drift lint** — the documentation must mention:

   * every ``python -m repro`` subcommand (enumerated live from
     ``repro.cli._build_parser()``, so a new subcommand without docs
     fails CI), and
   * every ``REPRO_*`` environment variable referenced anywhere under
     ``src/`` (word-boundary match, so Python identifiers like
     ``_REPRO_TEMPLATE`` do not count).

   A mention anywhere under ``docs/`` or in ``README.md`` satisfies the
   lint.  The reverse holds too: every ``REPRO_*`` name those docs
   mention must be referenced by code under ``src/`` or ``benchmarks/``,
   so text about a deleted variable fails CI.

3. **Trace-category lint** — trace categories are an interface (the
   watchdog, the service's progress stream and trace export read
   them).  Every category named by an ``emit("...")`` or
   ``watches("...")`` literal under ``src/`` must have a row in the
   "Trace categories" table of ``docs/simulator.md``, and every row
   must name a category that is still emitted.

Exit status 0 when clean, 1 with one ``file: problem`` line per finding.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: The curated doc set whose links and drift coverage we guarantee.
DOC_FILES = [
    REPO / "README.md",
    REPO / "DESIGN.md",
    REPO / "EXPERIMENTS.md",
    REPO / "ROADMAP.md",
    *sorted((REPO / "docs").glob("*.md")),
]

#: Where a subcommand / env var must be mentioned to count as documented.
MENTION_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
_ENV_RE = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*")
_CATEGORY_RE = re.compile(r'\b(?:emit|watches)\(\s*"([^"]+)"')
_CATEGORY_ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|", re.MULTILINE)

#: The doc whose "Trace categories" table lists every emitted category.
CATEGORY_DOC = REPO / "docs" / "simulator.md"


def _strip_code_fences(text):
    """Drop fenced code blocks so headings/links inside them are ignored."""
    out, in_fence = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            out.append(line)
    return "\n".join(out)


def github_slug(heading, seen):
    """GitHub's anchor slug for a heading text (with duplicate -N suffixes)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)          # inline code
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    slug = text.replace(" ", "-")
    if slug in seen:
        seen[slug] += 1
        return f"{slug}-{seen[slug]}"
    seen[slug] = 0
    return slug


def anchors_of(path, cache={}):
    if path not in cache:
        seen, slugs = {}, set()
        try:
            body = _strip_code_fences(path.read_text(encoding="utf-8"))
        except OSError:
            body = ""
        for line in body.splitlines():
            match = _HEADING_RE.match(line)
            if match:
                slugs.add(github_slug(match.group(2), seen))
        cache[path] = slugs
    return cache[path]


def check_links():
    problems = []
    for doc in DOC_FILES:
        if not doc.exists():
            continue
        rel = doc.relative_to(REPO)
        body = _strip_code_fences(doc.read_text(encoding="utf-8"))
        for target in _LINK_RE.findall(body):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target, _, fragment = target.partition("#")
            dest = doc if not target \
                else (doc.parent / target).resolve()
            if target and not dest.exists():
                problems.append(f"{rel}: broken link -> {target}")
                continue
            if fragment and dest.suffix == ".md" \
                    and fragment not in anchors_of(dest):
                problems.append(
                    f"{rel}: broken anchor -> {target or rel.name}"
                    f"#{fragment}")
    return problems


def _mention_corpus():
    return "\n".join(
        p.read_text(encoding="utf-8") for p in MENTION_FILES if p.exists()
    )


def repro_subcommands():
    sys.path.insert(0, str(REPO / "src"))
    import argparse

    from repro.cli import _build_parser

    parser = _build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return sorted(action.choices)
    raise AssertionError("repro.cli._build_parser() has no subcommands")


def code_env_vars(*roots):
    """``REPRO_*`` names referenced by Python files under ``roots``."""
    names = set()
    for root in roots:
        for path in (REPO / root).rglob("*.py"):
            names.update(_ENV_RE.findall(path.read_text(encoding="utf-8")))
    return sorted(names)


def src_env_vars():
    return code_env_vars("src")


def stale_env_vars(corpus):
    """``REPRO_*`` names in ``corpus`` that no code under ``src/`` or
    ``benchmarks/`` references."""
    known = set(code_env_vars("src", "benchmarks"))
    return sorted(set(_ENV_RE.findall(corpus)) - known)


def check_drift():
    corpus = _mention_corpus()
    problems = []
    for command in repro_subcommands():
        if not re.search(rf"\b{re.escape(command)}\b", corpus):
            problems.append(
                f"docs drift: `python -m repro {command}` is documented "
                f"nowhere under docs/ or README.md")
    for var in src_env_vars():
        if var not in corpus:
            problems.append(
                f"docs drift: env var {var} (used in src/) is documented "
                f"nowhere under docs/ or README.md")
    for var in stale_env_vars(corpus):
        problems.append(
            f"docs drift: env var {var} is documented under docs/ or "
            f"README.md but read nowhere under src/ or benchmarks/")
    return problems


def emitted_categories():
    """Trace categories named by an ``emit("...")`` or ``watches("...")``
    literal in a Python file under ``src/``, sorted."""
    return sorted({
        category
        for path in (REPO / "src").rglob("*.py")
        for category in _CATEGORY_RE.findall(
            path.read_text(encoding="utf-8"))
    })


def documented_categories():
    """The first-column categories of :data:`CATEGORY_DOC`'s "Trace
    categories" table, in table order."""
    body = _strip_code_fences(CATEGORY_DOC.read_text(encoding="utf-8"))
    _, _, section = body.partition("\n## Trace categories\n")
    section = section.split("\n## ", 1)[0]
    return _CATEGORY_ROW_RE.findall(section)


def check_trace_categories(emitted=None, documented=None):
    """Drift between the emitted categories and the documented ones,
    both ways (each defaults to the live set)."""
    emitted = set(emitted_categories() if emitted is None else emitted)
    documented = set(documented_categories() if documented is None
                     else documented)
    doc = CATEGORY_DOC.relative_to(REPO)
    return [
        f"docs drift: trace category {category} is emitted under src/ "
        f"but missing from the Trace categories table in {doc}"
        for category in sorted(emitted - documented)
    ] + [
        f"docs drift: trace category {category} is in the Trace "
        f"categories table in {doc} but emitted nowhere under src/"
        for category in sorted(documented - emitted)
    ]


def main():
    problems = check_links() + check_drift() + check_trace_categories()
    for problem in problems:
        print(problem)
    if problems:
        print(f"\ndocs-check: {len(problems)} problem(s)")
        return 1
    docs = sum(1 for d in DOC_FILES if d.exists())
    print(f"docs-check: OK ({docs} docs, "
          f"{len(repro_subcommands())} subcommands, "
          f"{len(src_env_vars())} REPRO_* vars, "
          f"{len(emitted_categories())} trace categories covered)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

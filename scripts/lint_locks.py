#!/usr/bin/env python3
"""Raw-synchronization-primitive lint.

Every mutex and condition variable in the tree must go through the annotated
wrappers in src/common/sync.h (lw::Mutex / lw::MutexLock / lw::CondVar): the
wrappers carry the Clang thread-safety capabilities that make
`-Werror=thread-safety` meaningful and feed the lock-rank deadlock detector.
A raw std primitive anywhere else is invisible to BOTH layers, so this lint
walks src/, tests/, bench/, and examples/ and flags any use of:

    std::mutex, std::recursive_mutex, std::timed_mutex, std::shared_mutex,
    std::lock_guard, std::unique_lock, std::scoped_lock, std::shared_lock,
    std::condition_variable (and _any), plus the <mutex> / <shared_mutex> /
    <condition_variable> includes that carry them.

Allowed exception: src/common/sync.h (the wrappers themselves hold the std
mutex and condition variable they annotate).
A trailing `// raw-sync: <why>` suppresses the lint for that line.

Exit status: 0 clean, 1 violations found. stdlib only; no pip deps.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

LINT_DIRS = ("src", "tests", "bench", "examples")

# The wrapper declarations are the one place raw primitives are the point.
ALLOWED_FILES = {
    "src/common/sync.h",
}

RAW_PRIMITIVE_RE = re.compile(
    r"\bstd::(?:recursive_|timed_|shared_)?mutex\b"
    r"|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|\bstd::condition_variable(?:_any)?\b"
)

RAW_INCLUDE_RE = re.compile(r'#\s*include\s*[<"](?:mutex|shared_mutex|condition_variable)[>"]')

# Trailing `// raw-sync: <why>` suppresses the lint for that line.
SUPPRESS_RE = re.compile(r"//\s*raw-sync:")

LINE_COMMENT_RE = re.compile(r"//.*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


def lint_file(path: Path, rel: str) -> list[str]:
    violations = []
    in_block_comment = False
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        if SUPPRESS_RE.search(raw):
            continue
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2 :]
            in_block_comment = False
        start = line.find("/*")
        if start >= 0:
            end = line.find("*/", start + 2)
            if end < 0:
                in_block_comment = True
                line = line[:start]
            else:
                line = line[:start] + line[end + 2 :]
        # Includes are matched before string stripping (the header name is
        # inside quotes/brackets); everything else after.
        if RAW_INCLUDE_RE.search(LINE_COMMENT_RE.sub("", line)):
            violations.append(
                f"{rel}:{lineno}: raw sync include; use common/sync.h "
                f"(lw::Mutex / lw::MutexLock / lw::CondVar) instead"
            )
            continue
        line = LINE_COMMENT_RE.sub("", line)
        line = STRING_RE.sub('""', line)
        match = RAW_PRIMITIVE_RE.search(line)
        if match:
            violations.append(
                f"{rel}:{lineno}: raw '{match.group(0)}'; use the annotated "
                f"wrappers in common/sync.h so the thread-safety analysis and "
                f"the lock-rank detector both see it"
            )
    return violations


def main() -> int:
    repo_root = Path(__file__).resolve().parent.parent
    violations: list[str] = []
    checked = 0
    for lint_dir in LINT_DIRS:
        root = repo_root / lint_dir
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*.h")) + sorted(root.rglob("*.cpp")):
            rel = path.relative_to(repo_root).as_posix()
            if rel in ALLOWED_FILES:
                continue
            checked += 1
            violations.extend(lint_file(path, rel))
    for violation in violations:
        print(violation)
    if violations:
        print(f"lint_locks: {len(violations)} violation(s) in {checked} files", file=sys.stderr)
        return 1
    print(f"lint_locks: {checked} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

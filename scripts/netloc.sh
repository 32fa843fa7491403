#!/usr/bin/env bash
# Net line counts of the working tree against a parent revision, per
# class of file:
#
#   scripts/netloc.sh PARENT_REV
#
# Classes:
#   non-test Rust  *.rs outside any tests/ directory, minus #[cfg(test)]
#                  modules
#   tests          *.rs under any tests/ directory, plus the lines of
#                  #[cfg(test)] modules in other *.rs files
#   docs           *.md, except CHANGES.md, ISSUE.md and REVIEW.md,
#                  which are not counted at all
#   scripts        files under scripts/
#   other          everything else
#
# Files are the tracked and untracked, non-ignored files of the working
# tree plus the files of PARENT_REV. A #[cfg(test)] module runs from its
# attribute to the first later line that is a lone `}` at the `mod`
# line's indentation (rustfmt's layout). Added and removed lines come
# from a line diff of each file's two versions; net is their
# difference. Binary files are skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: scripts/netloc.sh PARENT_REV" >&2
  exit 2
fi

python3 - "$1" <<'EOF'
import difflib
import os
import re
import subprocess
import sys

rev = sys.argv[1]
CLASSES = ["non-test Rust", "tests", "docs", "scripts", "other"]
UNCOUNTED = {"CHANGES.md", "ISSUE.md", "REVIEW.md"}


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def old_text(path):
    r = subprocess.run(["git", "show", f"{rev}:{path}"], capture_output=True)
    return r.stdout.decode() if r.returncode == 0 else ""


def new_text(path):
    if not os.path.isfile(path):
        return ""
    with open(path, encoding="utf-8") as f:
        return f.read()


def test_lines(lines):
    """Indexes of the lines inside #[cfg(test)] modules."""
    inside, i = set(), 0
    while i < len(lines):
        if re.match(r"\s*#\[cfg\(test\)\]", lines[i]):
            j = i + 1
            while j < len(lines) and lines[j].lstrip().startswith("#["):
                j += 1
            m = re.match(r"(\s*)(pub(\([^)]*\))? )?mod \w+ \{", lines[j]) if j < len(lines) else None
            if m:
                k = j + 1
                while k < len(lines) and lines[k] != m.group(1) + "}":
                    k += 1
                inside.update(range(i, k + 1))
                i = k
        i += 1
    return inside


def classify(path, test_line):
    if path.endswith(".rs"):
        return "tests" if "tests" in path.split("/")[:-1] or test_line else "non-test Rust"
    if path.endswith(".md"):
        return "docs"
    if path.startswith("scripts/"):
        return "scripts"
    return "other"


paths = set(git("ls-tree", "-r", "--name-only", rev).decode().splitlines())
paths |= set(git("ls-files", "--cached", "--others", "--exclude-standard").decode().splitlines())
added = dict.fromkeys(CLASSES, 0)
removed = dict.fromkeys(CLASSES, 0)
for path in sorted(paths):
    if os.path.basename(path) in UNCOUNTED:
        continue
    try:
        old, new = old_text(path), new_text(path)
    except UnicodeDecodeError:
        continue
    if old == new:
        continue
    a, b = old.splitlines(), new.splitlines()
    ta, tb = (test_lines(a), test_lines(b)) if path.endswith(".rs") else (set(), set())
    for op, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if op == "equal":
            continue
        for i in range(i1, i2):
            removed[classify(path, i in ta)] += 1
        for j in range(j1, j2):
            added[classify(path, j in tb)] += 1

print(f"netloc: {rev} vs working tree")
print(f"{'class':<15}{'added':>8}{'removed':>9}{'net':>8}")
for c in CLASSES:
    print(f"{c:<15}{'+%d' % added[c]:>8}{'-%d' % removed[c]:>9}{added[c] - removed[c]:>+8}")
EOF

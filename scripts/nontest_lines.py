# Non-test lines of the .rs files under a directory, as ROADMAP and
# CHANGES quote them: per file under a `src/` directory, the lines before
# the `#[cfg(test)]` that opens an inline `mod … {` block (a file without
# one counts whole); `tests.rs` and files compiled only under `cfg(test)`
# (the target of a `#[cfg(test)] mod x;`) count nothing.
#
#     python3 scripts/nontest_lines.py crates/simpledb/src
#
# Given a file, it prints that file's share of its `src/` directory's
# count, by the same rule (so a `tests.rs` or a test-only module is 0):
#
#     python3 scripts/nontest_lines.py crates/simpledb/src/query.rs
import pathlib
import re
import sys

TEST_MOD = r'^[ \t]*#\[cfg\(test\)\]\s*(?:pub(?:\(crate\))? )?mod '


def counted(tree):
    """The .rs files under `tree` that the rule counts."""
    fs = [f for f in tree.rglob('*.rs') if 'src' in f.parts[:-1] and f.name != 'tests.rs']
    only = set()
    for f in fs:
        parent = f.parent if f.name in ('lib.rs', 'main.rs', 'mod.rs') else f.with_suffix('')
        for m in re.findall(TEST_MOD + r'(\w+);', f.read_text(), re.M):
            only.add(parent / (m + '.rs'))
    return [f for f in fs if f not in only]


def lines(f):
    head = re.split(TEST_MOD + r'\w+ \{', f.read_text(), maxsplit=1, flags=re.M)[0]
    return len(head.splitlines())


arg = pathlib.Path(sys.argv[1])
if arg.is_file():
    src = next((d for d in arg.parents if d.name == 'src'), None)
    print(lines(arg) if src and arg in counted(src) else 0)
else:
    print(sum(lines(f) for f in counted(arg)))

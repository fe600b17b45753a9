# Non-test lines of the .rs files under a directory, as ROADMAP and
# CHANGES quote them: per file under a `src/` directory, the lines before
# the `#[cfg(test)]` that opens an inline `mod … {` block (a file without
# one counts whole); `tests.rs` and files compiled only under `cfg(test)`
# (the target of a `#[cfg(test)] mod x;`) count nothing.
#
#     python3 scripts/nontest_lines.py crates/simpledb/src
import re,sys,pathlib as p;fs=[f for f in p.Path(sys.argv[1]).rglob('*.rs') if '/src/' in f.as_posix() and f.name!='tests.rs'];lib=('lib.rs','main.rs','mod.rs');only=[(f.parent if f.name in lib else f.with_suffix(''))/(m+'.rs') for f in fs for m in re.findall(r'^[ \t]*#\[cfg\(test\)\]\s*(?:pub(?:\(crate\))? )?mod (\w+);',f.read_text(),re.M)];print(sum(len(re.split(r'^[ \t]*#\[cfg\(test\)\]\s*(?:pub(?:\(crate\))? )?mod \w+ \{',f.read_text(),maxsplit=1,flags=re.M)[0].splitlines()) for f in fs if f not in only))

#!/usr/bin/env python3
"""Symbolize and fold the files scripts/profile/sampler.c writes.

Every address is resolved by one batched `addr2line -a -f -C -i` call per
binary, inlined frames included. A sample counts once for every function
it passes through (inclusive): each stack frame's real function (the
outermost of its inline chain), and every function of the leaf's inline
chain, where the tick landed. "self" counts the leaf's innermost function
alone.

    python3 scripts/profile/fold.py /tmp/prof/sampler.*.txt
    python3 scripts/profile/fold.py --under 'run::Session::setup' files...
    python3 scripts/profile/fold.py --require '^(simworld|sim_s3)::' files...

--under keeps only the samples that pass through a function matching the
pattern, and gives every share out of those samples: "store_fingerprint
is 13 % of set-up" is `--under <set-up function>`. --match shows only
matching functions. --require exits 1 unless some sampled function
matches the pattern (a smoke check that symbols resolved). --json prints
the fold as one JSON object instead of a table.
"""
import argparse
import bisect
import collections
import json
import re
import subprocess
import sys

# A legacy-mangled Rust symbol's trailing hash.
HASH = re.compile(r'::h[0-9a-f]{16}$')


def read(path):
    """(mappings, samples) of one sample file: executable mappings as
    (start, end, offset, binary), samples as address lists, leaf first."""
    maps, samples, section = [], [], None
    with open(path) as f:
        for line in f:
            line = line.rstrip('\n')
            if line.startswith('#'):
                continue
            if line in ('maps', 'samples'):
                section = line
            elif section == 'maps':
                parts = line.split(maxsplit=5)
                if len(parts) == 6 and parts[5].startswith('/'):
                    start, end = (int(x, 16) for x in parts[0].split('-'))
                    maps.append((start, end, int(parts[2], 16), parts[5], 'x' in parts[1]))
            elif section == 'samples' and line:
                samples.append([int(x, 16) for x in line.split()])
    return maps, samples


def is_shared_object(binary):
    """True for a position-independent ELF (ET_DYN), whose addresses are
    relative to where it was loaded."""
    try:
        with open(binary, 'rb') as f:
            header = f.read(18)
    except OSError:
        return True
    return len(header) == 18 and int.from_bytes(header[16:18], 'little') == 3


def locate(maps):
    """A function from a runtime address to (binary, address in the
    binary), or None outside every executable mapping."""
    bases = {}
    for start, _, offset, binary, _ in maps:
        if offset == 0:
            bases[binary] = min(start, bases.get(binary, start))
    code = sorted(m for m in maps if m[4])
    starts = [m[0] for m in code]

    def at(addr):
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= code[i][1]:
            return None
        start, _, offset, binary, _ = code[i]
        if not is_shared_object(binary):
            return binary, addr
        return binary, addr - bases.get(binary, start - offset)

    return at


def symbolize(wanted):
    """{(binary, address): [function, ...] innermost inline frame first},
    one addr2line call per binary."""
    chains = {}
    by_binary = collections.defaultdict(set)
    for binary, addr in wanted:
        by_binary[binary].add(addr)
    for binary, addrs in by_binary.items():
        addrs = sorted(addrs)
        text = '\n'.join('%x' % a for a in addrs) + '\n'
        try:
            out = subprocess.run(['addr2line', '-a', '-f', '-C', '-i', '-e', binary],
                                 input=text, capture_output=True, text=True, check=True).stdout
        except (OSError, subprocess.CalledProcessError):
            out = ''
        lines, current = out.splitlines(), None
        # Each address: its "0x…" line, then (function, file:line) pairs.
        i = 0
        while i < len(lines):
            if lines[i].startswith('0x'):
                current = (binary, int(lines[i], 16))
                chains[current] = []
                i += 1
                continue
            if current is not None:
                name = HASH.sub('', lines[i])
                if name != '??':
                    chains[current].append(name)
            i += 2
    return chains


def fold(paths):
    """Every sample as (set of inclusive functions, leaf function)."""
    stacks = []
    for path in paths:
        maps, samples = read(path)
        at = locate(maps)
        for sample in samples:
            # A caller's frame is a return address: step back into the call.
            frames = [at(addr if depth == 0 else addr - 1) for depth, addr in enumerate(sample)]
            stacks.append(frames)
    chains = symbolize({f for frames in stacks for f in frames if f is not None})

    def chain(frame):
        if frame is None:
            return ['[unknown]']
        return chains.get(frame) or ['%s+0x%x' % (frame[0].rsplit('/', 1)[-1], frame[1])]

    folded = []
    for frames in stacks:
        if not frames:
            continue
        leaf = chain(frames[0])
        names = set(leaf)
        names.update(chain(frame)[-1] for frame in frames[1:])
        folded.append((names, leaf[0]))
    return folded


def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('files', nargs='+', help='sampler.<pid>.txt files')
    parser.add_argument('--under', help='only samples through a function matching this regex')
    parser.add_argument('--match', help='only report functions matching this regex')
    parser.add_argument('--require', help='exit 1 unless a sampled function matches this regex')
    parser.add_argument('--top', type=int, default=40, help='rows to print (default 40)')
    parser.add_argument('--json', action='store_true', help='print JSON instead of a table')
    args = parser.parse_args()

    folded = fold(args.files)
    total = len(folded)
    if args.under:
        under = re.compile(args.under)
        folded = [(names, leaf) for names, leaf in folded if any(under.search(n) for n in names)]
    inclusive, leaves = collections.Counter(), collections.Counter()
    for names, leaf in folded:
        inclusive.update(names)
        leaves[leaf] += 1
    shown = re.compile(args.match) if args.match else None
    rows = [(n, c, leaves[n]) for n, c in inclusive.most_common() if not shown or shown.search(n)]
    rows = rows[:args.top]

    base = len(folded) or 1
    if args.json:
        print(json.dumps({
            'samples': total,
            'counted': len(folded),
            'under': args.under,
            'functions': [{'name': n, 'inclusive': c, 'self': s,
                           'inclusive_share': c / base, 'self_share': s / base}
                          for n, c, s in rows],
        }, indent=1))
    else:
        scope = ' under /%s/' % args.under if args.under else ''
        print('%d samples%s of %d' % (len(folded), scope, total))
        print('%8s %8s  function' % ('incl %', 'self %'))
        for name, count, own in rows:
            print('%8.1f %8.1f  %s' % (100.0 * count / base, 100.0 * own / base, name))

    if args.require:
        wanted = re.compile(args.require)
        if not any(wanted.search(n) for n in inclusive):
            print('no sampled function matches /%s/' % args.require, file=sys.stderr)
            return 1
    return 0


if __name__ == '__main__':
    sys.exit(main())

"""Fixed reference job that gauges the host's speed during a benchmark run.

The benchmark spawns this script before every ``detect`` child, the same way,
and divides the median ``detect`` wall time by the median wall time of this
job. Both are pure-Python child processes, so a host that runs slower for a
while slows both, and the ratio keeps only what the program itself costs.

The job imports nothing from ``futurerd``, so a change to the program cannot
move it. Its work mirrors the three kinds the detector does, so that it slows
down the way the detector does: parse JSON lines into dicts, update a shadow
table keyed by word address with union-find over strands, and keep a
transitive closure as one big-integer bit row per node, updated with ORs on
every edge. It prints one checksum, which the benchmark checks.
"""

import json

LINES = 30_000
WORDS = 1 << 20
STRANDS = 4099
NODES = 1_200


def _lcg(x: int) -> int:
    return (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)


def main() -> int:
    x = 7
    lines = []
    for i in range(LINES):
        x = _lcg(x)
        lines.append(json.dumps({"kind": "write" if i % 3 else "read",
                                 "addr": 4 * ((x >> 33) % WORDS), "strand": i % STRANDS}))
    events = [json.loads(line) for line in lines]

    parent = list(range(STRANDS))

    def find(s: int) -> int:
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    checksum = 0
    writer: dict[int, int] = {}
    readers: dict[int, list[int]] = {}
    for ev in events:
        word, strand = ev["addr"] >> 2, ev["strand"]
        if ev["kind"] == "write":
            prior = writer.get(word)
            if prior is not None:
                a, b = find(prior), find(strand)
                if a != b:
                    parent[a] = b
                checksum += a ^ b
            writer[word] = strand
            checksum += len(readers.pop(word, ()))
        else:
            readers.setdefault(word, []).append(strand)

    rows: list[int] = []  # rows[i] bit j set <=> i reaches j
    for dst in range(NODES):
        rows.append(0)
        for _ in range(2 if dst > 1 else 0):
            x = _lcg(x)
            src = (x >> 33) % dst
            new_bits = rows[dst] | (1 << dst)
            src_bit = 1 << src
            for i in range(dst + 1):
                if i == src or rows[i] & src_bit:
                    rows[i] |= new_bits
    checksum += sum(row.bit_count() for row in rows)
    print(checksum)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

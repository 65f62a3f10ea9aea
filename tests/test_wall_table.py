"""The scan answers for a whole finite family: every class of
`make_wall_table.table_classes()` at every rank bound of `BOUNDS`, against
the committed `wall_table.txt` that the brute-force oracle wrote. A rewrite
of the scan or its box that loses, adds or reorders a wall, or changes a
least witness, changes a digest here.
"""

from make_wall_table import BOUNDS, TABLE, scan_entry, table_classes
from tiltwall import enumerate_destabilizers


def test_table_covers_the_family():
    keys = [line.split()[:2] for line in TABLE.read_text(encoding="utf-8").splitlines()]
    family = [[",".join(map(str, u.as_tuple())), str(b)] for u in table_classes() for b in BOUNDS]
    assert len(family) == 3 * 1152 and keys == family


def test_scan_matches_the_oracle_table():
    want = TABLE.read_text(encoding="utf-8").splitlines()
    got = [
        scan_entry(u, bound, enumerate_destabilizers(u, bound))
        for u in table_classes()
        for bound in BOUNDS
    ]
    assert [(g, w) for g, w in zip(got, want) if g != w] == []

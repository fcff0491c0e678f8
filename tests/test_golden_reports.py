"""Golden ``lift --out`` reports: any byte drift in these JSON mirrors fails.

The golden files under ``tests/golden/`` hold the full JSON report with the
directory of the input files replaced by ``<dir>``.  Two cases have a unique
witness, one two witness classes found by the effectivity search.  Only the
Kajiwara A2 case has a nontrivial containment cokernel (Z/2) and a kernel
direction in the extension stage; the Cox sources have neither.
"""

from pathlib import Path

import pytest

from toriclift.cli import main

GOLDEN = Path(__file__).parent / "golden"

# smooth complete polygon: P^2 blown up nine times, rays in angular order
POLYGON_12_RAYS = [
    (1, 0), (0, 1), (-1, 1), (-1, 0), (-4, -1), (-3, -1),
    (-2, -1), (-3, -2), (-1, -1), (-2, -3), (-1, -2), (0, -1),
]
POLYGON_12 = (
    "fan 1\nrank 2\n"
    + "".join(f"ray {x} {y}\n" for x, y in POLYGON_12_RAYS)
    + "".join(f"cone {i} {(i + 1) % 12}\n" for i in range(12))
)
LINE = "fan 1\nrank 1\nray 1\ncone 0\n"
# the A2 cone: singular, its Cartier divisors have index 2 in Z^rays
A2_CONE = "fan 1\nrank 2\nray 1 0\nray 1 2\ncone 0 1\n"
DIAMOND = (
    "fan 1\nrank 3\n"
    "ray -1 0 1\nray 0 -1 1\nray 0 1 1\nray 1 0 1\n"
    "cone 0 1 2 3\n"
)

CASES = {
    # Cox identity lift of the 12-ray polygon: a unique witness
    "lift_polygon12_cox_identity": (
        ("polygon12", POLYGON_12), ("polygon12", POLYGON_12),
        "1,0,0,1",
    ),
    # line -> diamond cone with image (0, 1, 3): two witness classes
    "lift_line_diamond_013": (("line", LINE), ("diamond", DIAMOND), "0,1,3"),
    # A2 cone (Kajiwara) -> diamond cone: cokernel Z/2, one kernel direction
    # of the extension, a unique witness
    "lift_a2_kajiwara_diamond": (
        ("a2", A2_CONE), ("diamond", DIAMOND),
        "-1,0,0,1,1,1", "--src-subgroup", "kajiwara",
    ),
}


def lift_report(tmp_path: Path, source, target, matrix: str, *extra: str) -> str:
    paths = []
    for name, text in (source, target):
        p = tmp_path / f"{name}.fan"
        p.write_text(text)
        paths.append(str(p))
    out = tmp_path / "report.json"
    code = main(["lift", *paths, f"--matrix={matrix}", *extra, "--out", str(out)])
    assert code == 0
    return out.read_text(encoding="utf-8").replace(str(tmp_path), "<dir>")


@pytest.mark.parametrize("name", sorted(CASES))
def test_lift_report_matches_golden(name, tmp_path, capsys):
    got = lift_report(tmp_path, *CASES[name])
    capsys.readouterr()
    assert got == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")

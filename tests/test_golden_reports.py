"""Golden ``--out`` reports: any byte drift in these JSON mirrors fails.

The golden files under ``tests/golden/`` hold the full JSON report with the
directory of the input files replaced by ``<dir>``.

The ``lift`` cases: two have a unique witness, one two witness classes found
by the effectivity search.  Only the Kajiwara A2 case has a nontrivial
containment cokernel (Z/2) and a kernel direction in the extension stage;
the Cox sources have neither.

The ``present`` cases pin the exceptional collections byte for byte: the
Cox presentation of the 12-ray polygon (the 54 non-adjacent ray pairs) and
the presentation of (P^1)^3 by the subgroup of divisors with even degree on
each factor.

The ``validate`` cases pin the problem lists of six invalid fans: two
cones that overlap in no common face, one max cone inside another, and a
listed ray that is not extreme, all in rank 2; in rank 3, a cone holding a
line beside a cone with a ray that is not extreme, and a nested cone beside
a crossing pair; and in rank 4, a cone meeting another in a diagonal of its
square facet.  The rank-3 cases pin the order of several problems, and the
overlaps reach the pairwise double description that decides "is not a
common face".

The ``iso`` and ``split`` cases use the Hirzebruch surface F1 padded by one
torus factor, and a unimodular conjugate of it that mixes the torus direction
into the rays: they pin the change of basis, the reduced rays and the
isomorphism matrix of the reduced fans.
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
# (P^1)^3, rays +-e_i; "even": the principal divisors plus twice each divisor
P1_CUBED = (
    "fan 1\nrank 3\n"
    "ray 1 0 0\nray -1 0 0\nray 0 1 0\nray 0 -1 0\nray 0 0 1\nray 0 0 -1\n"
    + "".join(f"cone {a} {b} {c}\n" for a in (0, 1) for b in (2, 3) for c in (4, 5))
    + "subgroup even\n"
    "1 1 0 0 0 0\n0 0 1 1 0 0\n0 0 0 0 1 1\n"
    "2 0 0 0 0 0\n0 0 2 0 0 0\n0 0 0 0 2 0\n"
    "end\n"
)
F1_CONES = "cone 0 1\ncone 1 2\ncone 2 3\ncone 3 0\n"
# Hirzebruch F1 times a one-dimensional torus
F1_TORUS = "fan 1\nrank 3\nray 1 0 0\nray 0 1 0\nray -1 1 0\nray 0 -1 0\n" + F1_CONES
# its rays under the unimodular map [[1, 1, 1], [0, 1, 2], [1, 1, 2]]
F1_TORUS_CONJ = (
    "fan 1\nrank 3\nray 1 0 1\nray 1 1 1\nray 0 1 0\nray -1 -1 -1\n" + F1_CONES
)

# cone((1,1),(-1,0)) cuts through cone((1,0),(0,1))
OVERLAP = "fan 1\nrank 2\nray 1 0\nray 0 1\nray 1 1\nray -1 0\ncone 0 1\ncone 2 3\n"
NESTED_CONES = "fan 1\nrank 2\nray 1 0\nray 0 1\nray 1 1\ncone 0 1\ncone 0 2\n"
NOT_EXTREME = "fan 1\nrank 2\nray 1 0\nray 1 1\nray 1 2\ncone 0 1 2\n"
# cone(e1, -e1, (1,1,0)) holds a line; (0,1,1) halves (0,0,1) + (0,2,1)
LINE_AND_NOT_EXTREME = (
    "fan 1\nrank 3\n"
    "ray 0 0 1\nray 0 1 1\nray 0 2 1\nray 1 0 0\nray -1 0 0\nray 1 1 0\n"
    "cone 3 4 5\ncone 0 1 2 3\n"
)
# cone(e1, (1,1,0)) lies in the octant; cone(-e1, (1,1,1), -e2) meets the
# octant in no common face (it holds (1,1,1), inside the octant)
NESTED_AND_CROSSING = (
    "fan 1\nrank 3\n"
    "ray 1 0 0\nray 0 1 0\nray 0 0 1\nray 1 1 0\nray -1 0 0\nray 1 1 1\nray 0 -1 0\n"
    "cone 0 1 2\ncone 0 3\ncone 4 5 6\n"
)
# cone(a, c, f) meets cone(a, b, c, d, e) in the diagonal cone(a, c) of
# its square facet cone(a, b, c, d), which is no face of it
SQUARE_DIAGONAL = (
    "fan 1\nrank 4\n"
    "ray 1 0 1 0\nray 0 1 1 0\nray -1 0 1 0\nray 0 -1 1 0\nray 0 0 0 1\nray 0 0 0 -1\n"
    "cone 0 1 2 3 4\ncone 0 2 5\n"
)

LIFT_CASES = {
    # Cox identity lift of the 12-ray polygon: a unique witness
    "lift_polygon12_cox_identity": (
        [("polygon12", POLYGON_12), ("polygon12", POLYGON_12)],
        ["lift", "--matrix=1,0,0,1"],
    ),
    # line -> diamond cone with image (0, 1, 3): two witness classes
    "lift_line_diamond_013": (
        [("line", LINE), ("diamond", DIAMOND)], ["lift", "--matrix=0,1,3"]
    ),
    # A2 cone (Kajiwara) -> diamond cone: cokernel Z/2, one kernel direction
    # of the extension, a unique witness
    "lift_a2_kajiwara_diamond": (
        [("a2", A2_CONE), ("diamond", DIAMOND)],
        ["lift", "--matrix=-1,0,0,1,1,1", "--src-subgroup", "kajiwara"],
    ),
}

PRESENT_CASES = {
    "present_polygon12_cox": ([("polygon12", POLYGON_12)], ["present", "--mode", "cox"]),
    "present_p1cubed_subgroup_even": (
        [("p1cubed", P1_CUBED)], ["present", "--mode", "subgroup", "--subgroup", "even"]
    ),
}

VALIDATE_CASES = {
    "validate_overlap": ([("overlap", OVERLAP)], ["validate"]),
    "validate_nested_cones": ([("nested_cones", NESTED_CONES)], ["validate"]),
    "validate_not_extreme": ([("not_extreme", NOT_EXTREME)], ["validate"]),
    "validate_line_and_not_extreme": (
        [("line_and_not_extreme", LINE_AND_NOT_EXTREME)], ["validate"]
    ),
    "validate_nested_and_crossing": (
        [("nested_and_crossing", NESTED_AND_CROSSING)], ["validate"]
    ),
    "validate_square_diagonal": ([("square_diagonal", SQUARE_DIAGONAL)], ["validate"]),
}

TORUS_CASES = {
    "iso_f1_torus_conjugate": (
        [("f1_torus", F1_TORUS), ("f1_torus_conj", F1_TORUS_CONJ)], ["iso"]
    ),
    "split_f1_torus_conjugate": ([("f1_torus_conj", F1_TORUS_CONJ)], ["split"]),
}


def report(tmp_path: Path, files, argv) -> str:
    """``--out`` JSON of ``toriclift argv[0] FILES argv[1:]``, where each
    (name, text) of ``files`` is written to ``tmp_path/<name>.fan``."""
    paths = []
    for name, text in files:
        p = tmp_path / f"{name}.fan"
        p.write_text(text)
        paths.append(str(p))
    out = tmp_path / "report.json"
    code = main([argv[0], *paths, *argv[1:], "--out", str(out)])
    assert code == 0
    return out.read_text(encoding="utf-8").replace(str(tmp_path), "<dir>")


@pytest.mark.parametrize("name", sorted(LIFT_CASES))
def test_lift_report_matches_golden(name, tmp_path, capsys):
    got = report(tmp_path, *LIFT_CASES[name])
    capsys.readouterr()
    assert got == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_matrix_value_may_start_with_minus(tmp_path, capsys):
    files, argv = LIFT_CASES["lift_a2_kajiwara_diamond"]
    assert argv[1] == "--matrix=-1,0,0,1,1,1"
    got = report(tmp_path, files, ["lift", "--matrix", "-1,0,0,1,1,1", *argv[2:]])
    capsys.readouterr()
    assert got == (GOLDEN / "lift_a2_kajiwara_diamond.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(PRESENT_CASES))
def test_present_report_matches_golden(name, tmp_path, capsys):
    got = report(tmp_path, *PRESENT_CASES[name])
    capsys.readouterr()
    assert got == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(VALIDATE_CASES))
def test_validate_report_matches_golden(name, tmp_path, capsys):
    got = report(tmp_path, *VALIDATE_CASES[name])
    capsys.readouterr()
    assert got == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(TORUS_CASES))
def test_torus_report_matches_golden(name, tmp_path, capsys):
    got = report(tmp_path, *TORUS_CASES[name])
    capsys.readouterr()
    assert got == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")

"""End-to-end command-line tests, run in-process through ``main(argv)``."""

import json
from functools import cached_property
from random import Random

import pytest

import fangen
from toriclift import cli, isomorphism, lifting
from toriclift.cli import main
from toriclift.fan import Fan
from toriclift.fanfile import parse_fan_file

QUADRIC = "fan 1\nrank 2\nray 1 0\nray 1 2\ncone 0 1\n"
QUADRIC_SUBDIVIDED = "fan 1\nrank 2\nray 1 0\nray 1 1\nray 1 2\ncone 0 1\ncone 1 2\n"
PLANE = "fan 1\nrank 2\nray 0 1\nray 1 0\ncone 0 1\n"
BLOWUP = "fan 1\nrank 2\nray 0 1\nray 1 0\nray 1 1\ncone 0 2\ncone 1 2\n"
LINE = "fan 1\nrank 1\nray 1\ncone 0\n"
DIAMOND = (
    "fan 1\nrank 3\n"
    "ray -1 0 1\nray 0 -1 1\nray 0 1 1\nray 1 0 1\n"
    "cone 0 1 2 3\n"
)
HALF_TORUS = "fan 1\nrank 2\nray 1 0\ncone 0\n"  # rays span a proper subspace


def smooth_polygon_text(n):
    return (
        "fan 1\nrank 2\n"
        + "".join(f"ray {x} {y}\n" for x, y in fangen.smooth_polygon_rays(n))
        + "".join(f"cone {i} {(i + 1) % n}\n" for i in range(n))
    )


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, text in [
        ("quadric", QUADRIC),
        ("subdivided", QUADRIC_SUBDIVIDED),
        ("plane", PLANE),
        ("blowup", BLOWUP),
        ("line", LINE),
        ("diamond", DIAMOND),
        ("halftorus", HALF_TORUS),
    ]:
        p = tmp_path / f"{name}.fan"
        p.write_text(text)
        out[name] = str(p)
    return out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid(self, files, capsys):
        code, out, err = run(capsys, "validate", files["quadric"])
        assert code == 0 and err == ""
        assert "valid: yes" in out
        assert "rank: 2" in out and "rays: 2" in out
        assert "sha256" in out

    def test_invalid_fan_is_still_an_answer(self, tmp_path, capsys):
        p = tmp_path / "bad.fan"
        p.write_text("fan 1\nrank 2\nray 1 0\ncone 0 5\n")
        code, out, _ = run(capsys, "validate", str(p))
        assert code == 0
        assert "valid: no" in out and "problem:" in out

    def test_syntax_error_is_an_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.fan"
        p.write_text("fan 1\nrank 2\nray 1 oops\n")
        code, out, err = run(capsys, "validate", str(p))
        assert code == 1 and out == ""
        assert "error:" in err and "bad.fan:3" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "validate", str(tmp_path / "nope.fan"))
        assert code == 1 and "cannot read" in err

    def test_128_ray_polygon_needs_no_flag(self, tmp_path, capsys):
        # the ray count has no guard: validation is polynomial in it
        p = tmp_path / "polygon128.fan"
        p.write_text(smooth_polygon_text(128))
        code, out, err = run(capsys, "validate", str(p))
        assert code == 0 and err == ""
        assert "valid: yes" in out and "rays: 128" in out

    def test_max_rays_flag_is_a_usage_error(self, files, capsys):
        code, out, err = run(capsys, "validate", files["quadric"], "--max-rays", "5")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --max-rays 5" in err

    def test_bad_flags_are_input_errors(self, files, capsys):
        assert run(capsys, "validate", files["quadric"], "--bogus")[0] == 1
        assert run(capsys, "nonsense-command")[0] == 1


class TestInvariants:
    def test_quadric(self, files, capsys):
        code, out, _ = run(capsys, "invariants", files["quadric"])
        assert code == 0
        assert "class group: Z/2" in out
        assert "simplicial: yes" in out
        assert "smooth: no" in out
        assert "degenerate: no" in out
        assert "torus factor rank: 0" in out

    def test_degenerate_fan_uses_reduced_class_group(self, files, capsys):
        code, out, _ = run(capsys, "invariants", files["halftorus"])
        assert code == 0
        assert "degenerate: yes" in out
        assert "torus factor rank: 1" in out
        assert "class group: 0" in out

    def test_torus_factor_rank_without_a_split(self, tmp_path, capsys, monkeypatch):
        # rank 3, rays spanning a plane: the rank is read off the ray span,
        # and no torus factor is split off
        p = tmp_path / "wedge.fan"
        p.write_text("fan 1\nrank 3\nray 1 0 0\nray 1 2 0\ncone 0 1\n")
        calls = []
        monkeypatch.setattr(cli, "split_torus_factor", lambda fan: calls.append(fan))
        report = tmp_path / "wedge.json"
        code, out, _ = run(capsys, "invariants", str(p), "--out", str(report))
        assert code == 0 and calls == []
        assert "degenerate: yes" in out
        assert "torus factor rank: 1" in out
        assert json.loads(report.read_text())["torus_factor_rank"] == 1


class TestPresent:
    def test_cox_quadric(self, files, capsys):
        code, out, _ = run(capsys, "present", files["quadric"])
        assert code == 0
        assert "mode: cox" in out
        assert "grading group: Z/2" in out
        assert "coordinates: 2" in out
        assert "enough divisors: yes" in out

    def test_kajiwara_quadric_has_trivial_grading(self, files, capsys):
        code, out, _ = run(capsys, "present", files["quadric"], "--mode", "kajiwara")
        assert code == 0 and "grading group: 0" in out

    def test_subgroup_mode_needs_a_name(self, files, capsys):
        code, _, err = run(capsys, "present", files["quadric"], "--mode", "subgroup")
        assert code == 1 and "--subgroup" in err

    def test_subgroup_name_needs_subgroup_mode(self, files, capsys):
        for mode in ((), ("--mode", "kajiwara")):
            code, out, err = run(
                capsys, "present", files["quadric"], *mode, "--subgroup", "ghost"
            )
            assert code == 1 and out == ""
            assert "--subgroup" in err and "--mode subgroup" in err

    def test_unknown_subgroup_name(self, files, capsys):
        code, _, err = run(
            capsys, "present", files["quadric"], "--mode", "subgroup",
            "--subgroup", "ghost",
        )
        assert code == 1 and "ghost" in err

    def test_named_subgroup(self, tmp_path, capsys):
        p = tmp_path / "named.fan"
        p.write_text(QUADRIC + "subgroup full\n1 0\n0 1\nend\n")
        code, out, _ = run(
            capsys, "present", str(p), "--mode", "subgroup", "--subgroup", "full"
        )
        assert code == 0 and "mode: subgroup full" in out
        assert "grading group: Z/2" in out

    def test_named_subgroup_without_enough_divisors_lists_failing_cones(self, tmp_path, capsys):
        # the principal divisors of P^2 form an admissible subgroup with no
        # effective member but 0, so no max cone has a covering witness
        p = tmp_path / "p2.fan"
        p.write_text(
            "fan 1\nrank 2\nray 1 0\nray 0 1\nray -1 -1\n"
            "cone 0 1\ncone 1 2\ncone 0 2\n"
            "subgroup principal\n1 0 -1\n0 1 -1\nend\n"
        )
        out_json = tmp_path / "report.json"
        code, out, err = run(
            capsys, "present", str(p), "--mode", "subgroup", "--subgroup", "principal",
            "--out", str(out_json),
        )
        assert code == 0 and err == ""
        assert out.splitlines()[2:] == [
            "mode: subgroup principal",
            "subgroup basis: [[1, 0, -1], [0, 1, -1]]",
            "coordinates: 0",
            "grading group: 0",
            "enough divisors: no",
            "failing cone: [0, 1]",
            "failing cone: [0, 2]",
            "failing cone: [1, 2]",
            "exceptional collections: 0",
        ]
        payload = json.loads(out_json.read_text())
        assert payload["enough_divisors"] is False
        assert payload["failing_cones"] == [[0, 1], [0, 2], [1, 2]]

    @pytest.mark.parametrize("name", ["cox", "kajiwara"])
    def test_subgroup_mode_resolves_builtin_names(self, files, capsys, name):
        # one lookup serves --mode and --subgroup, as it serves lift: a
        # built-in name presents the built-in subgroup
        code, out, _ = run(
            capsys, "present", files["quadric"], "--mode", "subgroup", "--subgroup", name
        )
        assert code == 0 and f"mode: subgroup {name}" in out
        _, builtin, _ = run(capsys, "present", files["quadric"], "--mode", name)
        assert out.replace(f"mode: subgroup {name}", f"mode: {name}") == builtin

    @pytest.mark.parametrize("mode", ["cox", "kajiwara"])
    def test_degenerate_fan_is_an_input_error(self, files, capsys, mode):
        code, out, err = run(capsys, "present", files["halftorus"], "--mode", mode)
        assert code == 1 and out == ""
        assert err == (
            "error: fan rays do not span the lattice; split off the torus factor "
            "and present the reduced fan\n"
        )

    def test_high_rank_subgroup_trips_the_description_guard(self, tmp_path, capsys):
        # a rank-10 subgroup of a 20-ray polygon, the principal rows and
        # seeded 0/1 rows: its effective cone's double description trips the
        # pair guard in under a second, where unguarded it ran about 10 s
        rays = fangen.smooth_polygon_rays(20)
        rng = Random(1)
        rows = [[x for x, _ in rays], [y for _, y in rays]]
        rows += [[rng.randint(0, 1) for _ in rays] for _ in range(8)]
        p = tmp_path / "rank10.fan"
        p.write_text(
            smooth_polygon_text(20)
            + "subgroup wide\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows) + "end\n"
        )
        code, out, err = run(capsys, "present", str(p), "--mode", "subgroup", "--subgroup", "wide")
        assert code == 2 and out == ""
        assert "resource limit: double description would test" in err
        assert "MAX_DESCRIPTION_PAIRS = 20000 in toriclift.polyhedra" in err

    def test_cox_24_ray_polygon(self, tmp_path, capsys):
        # past the old 20-coordinate guard: the 24 * 21 / 2 non-adjacent pairs
        p = tmp_path / "polygon24.fan"
        p.write_text(smooth_polygon_text(24))
        code, out, err = run(capsys, "present", str(p), "--mode", "cox")
        assert code == 0 and err == ""
        assert "coordinates: 24" in out
        assert "exceptional collections: 252" in out

    def test_cox_64_ray_polygon(self, tmp_path, capsys):
        # each witness of enough divisors is read off the unit rays
        p = tmp_path / "polygon64.fan"
        p.write_text(smooth_polygon_text(64))
        code, out, err = run(capsys, "present", str(p), "--mode", "cox")
        assert code == 0 and err == ""
        assert "coordinates: 64" in out
        assert "enough divisors: yes" in out
        assert "exceptional collections: 1952" in out


class TestLift:
    def test_blowup_lifts(self, files, capsys):
        code, out, _ = run(
            capsys, "lift", files["blowup"], files["plane"], "--matrix", "1,0,0,1"
        )
        assert code == 0
        assert "exists: true" in out
        assert "uniqueness: unique" in out
        assert "induced grading map" in out

    def test_quadric_blowdown_has_no_lift(self, files, capsys):
        code, out, _ = run(
            capsys, "lift", files["subdivided"], files["quadric"],
            "--matrix", "1,0,0,1",
        )
        assert code == 0
        assert "exists: false" in out
        assert "obstruction: 2 * phi([0, 1]) = [0, 1, 2]" in out

    def test_support_equations_refuse_a_face_point_off_its_lattice(self, tmp_path, capsys):
        # (-1, 2, 1) is half the sum of the target rays 0 and 1
        target = tmp_path / "t.fan"
        target.write_text(
            "fan 1\nrank 3\nray -2 2 1\nray 0 2 1\nray 2 -3 3\nray 3 1 2\ncone 0 1 2 3\n"
        )
        source = tmp_path / "s.fan"
        source.write_text(LINE)
        args = ("lift", str(source), str(target), "--matrix", "-1,2,1")
        code, out, _ = run(capsys, *args)
        assert code == 0 and "exists: false" in out
        assert "obstruction: support conditions force an inconsistent system of equations" in out
        code, out, _ = run(capsys, *args, "--dst-subgroup", "kajiwara")
        assert code == 0 and "exists: true" in out and "uniqueness: unique" in out

    def test_undecided_exits_2(self, files, capsys):
        code, out, _ = run(
            capsys, "lift", files["line"], files["diamond"],
            "--matrix", "1,0,3", "--search-bound", "0",
        )
        assert code == 2 and "exists: undecided" in out

    def test_widening_the_bound_never_loses_a_yes(self, files, capsys, monkeypatch):
        args = ("lift", files["plane"], files["diamond"], "--matrix", "0,0,0,0,2,2")
        classes = set()
        for bound in (200, 224, 10**6, 10**9):
            code, out, _ = run(capsys, *args, "--search-bound", str(bound))
            assert code == 0 and "exists: true" in out
            assert f"uniqueness: 4 witness classes found within coefficient bound {bound}" in out
            classes.add(out.split("(pairwise non-equivalence")[1].split("scope:")[0])
        assert len(classes) == 1
        # the guard counts the nodes the search visits, not the box volume
        monkeypatch.setattr(lifting, "MAX_SEARCH_POINTS", 3)
        code, out, err = run(capsys, *args, "--search-bound", "200")
        assert code == 2 and out == ""
        assert "resource limit" in err and "undecided" not in err
        assert "MAX_SEARCH_POINTS = 3 in toriclift.lifting, lower --search-bound" in err

    def test_fourier_motzkin_growth_trips_its_guard(self, tmp_path, capsys):
        # the effectivity system over the Kajiwara source subgroup grows
        # from 25 rows to 925,582 over its eliminations; the guard refuses
        # the pair count of the step before, where the Cox subgroup answers
        src, dst = tmp_path / "src.fan", tmp_path / "dst.fan"
        src.write_text(
            "fan 1\nrank 3\nray -2 1 -1\nray -2 2 -1\nray -1 1 -1\n"
            "ray -1 3 -1\nray 0 2 -1\ncone 0 1 2 3 4\n"
        )
        dst.write_text(
            "fan 1\nrank 3\nray -2 -1 -8\nray -1 -2 -8\nray -1 0 -2\n"
            "ray 0 -1 -2\nray 0 0 1\ncone 0 1 2 3 4\n"
        )
        args = ("lift", str(src), str(dst), "--matrix", "0,0,1,2,-1,0,-1,2,1")
        code, out, err = run(capsys, *args, "--src-subgroup", "kajiwara")
        assert code == 2 and out == ""
        assert "resource limit: Fourier-Motzkin elimination would combine 1200465 row pairs" in err
        assert "MAX_PROJECTION_PAIRS = 100000 in toriclift.lifting, no flag overrides it" in err
        code, out, _ = run(capsys, *args, "--src-subgroup", "cox")
        assert code == 0 and "exists: true" in out

    def test_default_bound_decides(self, files, capsys):
        code, out, _ = run(
            capsys, "lift", files["line"], files["diamond"], "--matrix", "1,0,3"
        )
        assert code == 0 and "exists: true" in out

    def test_reports_are_byte_deterministic(self, files, capsys):
        args = ("lift", files["blowup"], files["plane"], "--matrix", "1,0,0,1")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_json_mirror(self, files, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        args = (
            "lift", files["blowup"], files["plane"], "--matrix", "1,0,0,1",
            "--out", str(out_path),
        )
        code, _, _ = run(capsys, *args)
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["exists"] is True
        assert data["witness"]["phi"] == [[1, 0, 1], [0, 1, 1]]
        first = out_path.read_bytes()
        run(capsys, *args)
        assert out_path.read_bytes() == first

    @pytest.mark.parametrize(
        "extra",
        [
            ("--matrix", "1,0,0"),          # wrong entry count
            ("--matrix", "1,0,0,x"),        # not integers
            ("--matrix", "1,0,0,1", "--morphism", "f"),  # both sources
        ],
    )
    def test_matrix_flag_errors(self, files, capsys, extra):
        code, _, err = run(capsys, "lift", files["blowup"], files["plane"], *extra)
        assert code == 1 and "error:" in err

    def test_empty_matrix_for_a_rank_zero_target(self, files, tmp_path, capsys):
        point = tmp_path / "point.fan"
        point.write_text("fan 1\nrank 0\n")
        code, out, err = run(capsys, "lift", files["plane"], str(point), "--matrix", "")
        assert code == 0 and err == ""
        assert "matrix: []" in out and "exists: true" in out

    def test_needs_matrix_or_morphism(self, files, capsys):
        code, _, err = run(capsys, "lift", files["blowup"], files["plane"])
        assert code == 1 and "--matrix" in err

    def test_needs_target(self, files, capsys):
        code, _, err = run(capsys, "lift", files["blowup"], "--matrix", "1,0,0,1")
        assert code == 1 and "target" in err

    @pytest.mark.parametrize("label", ["cox", "kajiwara"])
    def test_reserved_subgroup_label_is_an_input_error(self, tmp_path, capsys, label):
        # a file's own 'cox' would otherwise shadow the built-in subgroup,
        # which the default --src-subgroup and --dst-subgroup name
        p = tmp_path / "shadow.fan"
        p.write_text(QUADRIC + f"subgroup {label}\n1 1\n0 2\nend\n")
        code, out, err = run(capsys, "lift", str(p), str(p), "--matrix", "1,0,0,1")
        assert code == 1 and out == ""
        assert f"subgroup label '{label}' is reserved" in err

    def test_unknown_subgroup(self, files, capsys):
        code, _, err = run(
            capsys, "lift", files["blowup"], files["plane"],
            "--matrix", "1,0,0,1", "--dst-subgroup", "ghost",
        )
        assert code == 1 and "ghost" in err

    def test_subgroups_declared_in_the_file(self, tmp_path, capsys):
        # the file's 'even' subgroup, the Cartier divisors of the quadric,
        # on both sides: each basis divisor maps to itself
        p = tmp_path / "even.fan"
        p.write_text(QUADRIC + "subgroup even\n1 1\n0 2\nend\n")
        code, out, err = run(
            capsys, "lift", str(p), str(p), "--matrix", "1,0,0,1",
            "--src-subgroup", "even", "--dst-subgroup", "even",
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[4:7] == ["source subgroup: even", "target subgroup: even", "exists: true"]
        assert (
            "basis divisor 1: maps to monomial with divisor exponent [0, 2] = "
            "member [0, 2] + principal of character [0, 0]"
        ) in lines
        assert lines[-1] == "induced grading map: 0 -> 0 matrix []"

    def test_incompatible_morphism(self, files, capsys):
        # the identity does not map the plane's cone into the blowup fan
        code, _, err = run(
            capsys, "lift", files["plane"], files["blowup"], "--matrix", "1,0,0,1"
        )
        assert code == 1 and "no target cone" in err

    def test_same_path_loads_one_document(self, files, capsys, monkeypatch):
        import toriclift.fanfile as fanfile
        from toriclift.divisors import BUILTIN_SUBGROUPS

        calls = {"validate_fan": 0, "cox_subgroup": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(fanfile, "validate_fan", counting("validate_fan", fanfile.validate_fan))
        monkeypatch.setitem(BUILTIN_SUBGROUPS, "cox", counting("cox_subgroup", BUILTIN_SUBGROUPS["cox"]))
        path = files["blowup"]
        code, out, _ = run(capsys, "lift", path, path, "--matrix", "1,0,0,1")
        assert code == 0 and "exists: true" in out
        assert f"source: {path} sha256" in out and f"target: {path} sha256" in out
        assert calls == {"validate_fan": 1, "cox_subgroup": 1}

    def test_subgroup_data_is_solved_once(self, files, capsys, monkeypatch):
        # the Cox subgroups are admissible by construction, and each
        # coordinate of a Cartier member or effective generator is solved at
        # most once per lift
        import toriclift.divisors as divisors
        import toriclift.lattice as lattice

        calls = {"divisor_subgroup": 0, "hermite_coefficients": 0}

        def counting(name, *modules):
            original = getattr(modules[0], name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            for module in modules:
                monkeypatch.setattr(module, name, wrapper)

        counting("divisor_subgroup", divisors, cli)
        counting("hermite_coefficients", lattice, divisors)
        code, out, _ = run(capsys, "lift", files["line"], files["diamond"], "--matrix", "1,0,3")
        assert code == 0 and "exists: true" in out
        # the diamond's Cox subgroup has 3 Cartier members and 4 effective
        # generators
        assert calls["divisor_subgroup"] == 0
        assert calls["hermite_coefficients"] <= 3 + 4

    def test_morphism_label(self, tmp_path, files, capsys):
        p = tmp_path / "src.fan"
        p.write_text(BLOWUP + f"morphism down {files['plane']}\n1 0\n0 1\nend\n")
        code, out, _ = run(capsys, "lift", str(p), "--morphism", "down")
        assert code == 0 and "exists: true" in out


class TestIso:
    def test_isomorphic_pair(self, tmp_path, files, capsys):
        # the quadric cone sheared by a unimodular map
        p = tmp_path / "sheared.fan"
        p.write_text("fan 1\nrank 2\nray 1 1\nray 1 3\ncone 0 1\n")
        code, out, _ = run(capsys, "iso", files["quadric"], str(p))
        assert code == 0
        assert "isomorphic: yes" in out
        assert "matrix:" in out and "ray bijection:" in out

    def test_negative_pair_is_still_exit_0(self, files, capsys):
        code, out, _ = run(capsys, "iso", files["quadric"], files["plane"])
        assert code == 0
        assert "isomorphic: no" in out and "reason:" in out

    def test_degenerate_fans(self, files, capsys):
        code, out, _ = run(capsys, "iso", files["halftorus"], files["halftorus"])
        assert code == 0
        assert "isomorphic: yes" in out
        assert "torus factor ranks: 1 1" in out
        code, out, _ = run(capsys, "iso", files["halftorus"], files["plane"])
        assert code == 0
        assert "isomorphic: no" in out
        assert "torus factor ranks: 1 0" in out


# a valid fan and invalid ones with its ray and max-cone counts: two opposite
# quadrants, and a chain of two cones
QUADRANTS = "fan 1\nrank 2\nray 1 0\nray 0 1\nray -1 0\nray 0 -1\ncone 0 1\ncone 2 3\n"
CHAIN = "fan 1\nrank 2\nray 1 0\nray 0 1\nray -1 -1\ncone 0 1\ncone 1 2\n"
OVERLAP = "fan 1\nrank 2\nray 1 0\nray 0 1\nray 1 1\nray -1 0\ncone 0 1\ncone 2 3\n"
NESTED = "fan 1\nrank 2\nray 1 0\nray 0 1\nray 1 1\ncone 0 1\ncone 0 2\n"
BAD_ROW = "subgroup s\n1 0\nend\n"
# (valid first file, invalid second file, whether the search runs before
# the second file is found invalid)
INVALID_SECOND = {
    "overlapping cones": (QUADRANTS, OVERLAP, True),
    "nested cones": (CHAIN, NESTED, True),
    "duplicate cone": (CHAIN, CHAIN + "cone 0 1\n", False),
    "uncovered ray": (QUADRANTS, QUADRANTS.replace("cone 2 3", "cone 1 2"), False),
    "bad subgroup row": (CHAIN, CHAIN + BAD_ROW, False),
    "bad subgroup row of overlapping cones": (QUADRANTS, OVERLAP + BAD_ROW, False),
}


def _pair(tmp_path, first, second):
    paths = []
    for name, text in (("first.fan", first), ("second.fan", second)):
        p = tmp_path / name
        p.write_text(text)
        paths.append(str(p))
    return paths


def _full_validation_error(path):
    with pytest.raises(ValueError) as e:
        parse_fan_file(path)
    return f"error: {e.value}\n"


class TestIsoDefersTheSecondFan:
    """The second file of ``iso`` is validated in full only when no verified
    isomorphism certifies it, and then before any answer is printed."""

    @pytest.mark.parametrize("case", INVALID_SECOND)
    def test_invalid_second_fan_reports_as_full_validation(self, tmp_path, capsys, monkeypatch, case):
        first, second, searched = INVALID_SECOND[case]
        a, b = _pair(tmp_path, first, second)
        calls = []
        search = isomorphism.fan_isomorphic
        monkeypatch.setattr(
            isomorphism, "fan_isomorphic", lambda x, y: calls.append(1) or search(x, y)
        )
        code, out, err = run(capsys, "iso", a, b)
        assert (code, out, err) == (1, "", _full_validation_error(b))
        assert bool(calls) == searched

    @pytest.mark.parametrize("case", ["overlapping cones", "nested cones"])
    def test_guard_trip_validates_the_second_fan_first(self, tmp_path, capsys, monkeypatch, case):
        first, second, _ = INVALID_SECOND[case]
        a, b = _pair(tmp_path, first, second)
        monkeypatch.setattr(isomorphism, "MAX_ISO_ASSIGNMENTS", 0)
        code, out, err = run(capsys, "iso", a, b)
        assert (code, out, err) == (1, "", _full_validation_error(b))
        # a valid second fan trips the guard
        b = _pair(tmp_path, first, first)[1]
        code, out, err = run(capsys, "iso", a, b)
        assert (code, out) == (2, "")
        assert err.startswith("resource limit: isomorphism search tried 1 ray assignments")

    def test_a_yes_reads_the_geometry_of_the_first_fan_only(self, tmp_path, capsys, monkeypatch):
        computed = []
        incidences = Fan.cone_incidences.func

        def counted(fan):
            computed.append(fan.rays)
            return incidences(fan)

        prop = cached_property(counted)
        prop.__set_name__(Fan, "cone_incidences")
        monkeypatch.setattr(Fan, "cone_incidences", prop)
        # the quadrants and a conjugate by (x, y) -> (x + y, y), then a
        # fan of the same counts that is not isomorphic to them
        conjugate = "fan 1\nrank 2\nray 1 0\nray 1 1\nray -1 0\nray -1 -1\ncone 0 1\ncone 2 3\n"
        other = QUADRANTS.replace("ray 0 -1", "ray 1 -1")
        for second, answer, read in ((conjugate, "yes", 1), (other, "no", 2)):
            a, b = _pair(tmp_path, QUADRANTS, second)
            rays = [parse_fan_file(p).fan.rays for p in (a, b)]
            computed.clear()
            code, out, _ = run(capsys, "iso", a, b)
            assert code == 0 and f"isomorphic: {answer}" in out
            assert computed == rays[:read]

    def test_no_yes_without_a_verified_isomorphism(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(isomorphism, "verify_fan_iso", lambda a, b, iso: ["patched"])
        a, b = _pair(tmp_path, QUADRANTS, QUADRANTS)
        with pytest.raises(AssertionError, match="patched"):
            main(["iso", a, b])
        assert capsys.readouterr().out == ""
        a, b = _pair(tmp_path, QUADRANTS, OVERLAP)
        code, out, err = run(capsys, "iso", a, b)
        assert (code, out, err) == (1, "", _full_validation_error(b))


class TestSplit:
    def test_torus_factor(self, files, capsys):
        code, out, _ = run(capsys, "split", files["halftorus"])
        assert code == 0
        assert "torus factor rank: 1" in out
        assert "reduced rank: 1" in out
        assert "reduced ray 0: [1]" in out

    def test_nothing_to_split(self, files, capsys):
        code, out, _ = run(capsys, "split", files["quadric"])
        assert code == 0 and "torus factor rank: 0" in out


def test_consecutive_calls_give_their_own_reports(files, capsys):
    code, out, _ = run(capsys, "present", files["quadric"])
    assert code == 0 and "mode: cox" in out and "grading group: Z/2" in out
    code, out, _ = run(
        capsys, "lift", files["blowup"], files["plane"], "--matrix", "1,0,0,1"
    )
    assert code == 0 and "exists: true" in out and "mode:" not in out
    assert run(capsys, "present", files["quadric"], "--bogus")[0] == 1
    code, out, _ = run(capsys, "iso", files["plane"], files["plane"])
    assert code == 0 and "isomorphic: yes" in out and "exists:" not in out


@pytest.mark.parametrize("flag", ["--search-bound"])
@pytest.mark.parametrize("joined", [False, True])
def test_negative_bounds_are_input_errors(files, capsys, flag, joined):
    # a negative search bound is an empty box: not a guard trip or "undecided"
    args = ["lift", files["line"], files["diamond"], "--matrix", "1,0,3"]
    args += [f"{flag}=-1"] if joined else [flag, "-1"]
    code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert f"argument {flag}: must be non-negative, got -1" in err


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("toriclift ")

"""Fan document parsing: text format, JSON twin, and canonicalization."""

import hashlib
import json

import pytest

from toriclift.divisors import divisor_subgroup
from toriclift.fan import FanValidationError
from toriclift.fanfile import (
    FanFileError,
    morphism_matrix,
    parse_fan_file,
    read_fan_document,
    read_fan_text,
    validate_document,
)

QUADRIC_TEXT = """\
# quadric cone with one named subgroup and a morphism
fan 1
rank 2
ray 1 0
ray 1 2
cone 0 1
subgroup even
1 1
0 2
end
morphism collapse target.fan
1 0
end
"""

QUADRIC_JSON = {
    "format": "fan",
    "version": 1,
    "rank": 2,
    "rays": [[1, 0], [1, 2]],
    "max_cones": [[0, 1]],
    "subgroups": {"even": [[1, 1], [0, 2]]},
    "morphisms": {"collapse": {"target": "target.fan", "matrix": [[1, 0]]}},
}


def write(tmp_path, name, content):
    p = tmp_path / name
    if isinstance(content, str):
        p.write_text(content)
    else:
        p.write_text(json.dumps(content))
    return p


class TestTextFormat:
    def test_round_trip(self, tmp_path):
        doc = parse_fan_file(write(tmp_path, "q.fan", QUADRIC_TEXT))
        assert doc.fan.rank == 2
        assert doc.fan.rays == ((1, 0), (1, 2))
        assert doc.fan.max_cones == ((0, 1),)
        assert doc.subgroups == {"even": ((1, 1), (0, 2))}
        assert doc.morphisms["collapse"].matrix_rows == ((1, 0),)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        noisy = "\n".join(
            ["", "# leading comment", "fan 1  # trailing", "", "rank 1",
             "ray 1   # the ray", "cone 0", ""]
        )
        doc = parse_fan_file(write(tmp_path, "n.fan", noisy))
        assert doc.fan.rays == ((1,),)

    def test_digest_is_sha256_of_bytes(self, tmp_path):
        p = write(tmp_path, "q.fan", QUADRIC_TEXT)
        doc = read_fan_document(p)
        assert doc.digest == hashlib.sha256(p.read_bytes()).hexdigest()
        assert read_fan_document(p).digest == doc.digest

    def test_morphism_target_resolves_relative_to_file(self, tmp_path):
        sub = tmp_path / "deep"
        sub.mkdir()
        doc = parse_fan_file(write(sub, "q.fan", QUADRIC_TEXT))
        assert doc.morphism_target_path("collapse") == (sub / "target.fan").resolve()


class TestTextErrors:
    def err(self, tmp_path, content):
        with pytest.raises(FanFileError) as ei:
            parse_fan_file(write(tmp_path, "bad.fan", content))
        return ei.value

    def test_version_line_must_come_first(self, tmp_path):
        e = self.err(tmp_path, "rank 2\n")
        assert e.line == 1 and "fan <version>" in e.message

    def test_unsupported_version(self, tmp_path):
        e = self.err(tmp_path, "fan 7\nrank 1\n")
        assert e.line == 1 and "unsupported format version 7" in e.message

    def test_empty_document(self, tmp_path):
        e = self.err(tmp_path, "# nothing here\n")
        assert e.line is None and "no version line" in e.message

    def test_missing_rank(self, tmp_path):
        assert "missing 'rank'" in self.err(tmp_path, "fan 1\n").message

    def test_ray_before_rank(self, tmp_path):
        e = self.err(tmp_path, "fan 1\nray 1 0\n")
        assert e.line == 2 and "before 'rank'" in e.message

    def test_non_integer_entry_reports_line(self, tmp_path):
        e = self.err(tmp_path, "fan 1\nrank 2\nray 1 x\n")
        assert e.line == 3 and "'x' is not an integer" in e.message

    def test_ray_width_mismatch(self, tmp_path):
        e = self.err(tmp_path, "fan 1\nrank 2\nray 1 0 0\n")
        assert "3 coordinates, expected 2" in e.message

    def test_duplicate_rank(self, tmp_path):
        e = self.err(tmp_path, "fan 1\nrank 2\nrank 2\n")
        assert e.line == 3

    @pytest.mark.parametrize(
        "line, needle",
        [("rank 2 3", "expected 'rank <integer>'"), ("rank -1", "rank must be nonnegative")],
    )
    def test_malformed_rank_line(self, tmp_path, line, needle):
        e = self.err(tmp_path, f"fan 1\n{line}\n")
        assert e.line == 2 and needle in e.message

    def test_unknown_directive(self, tmp_path):
        e = self.err(tmp_path, "fan 1\nrank 1\nray 1\nwedge 0\n")
        assert e.line == 4 and "unknown directive 'wedge'" in e.message

    def test_end_outside_block(self, tmp_path):
        e = self.err(tmp_path, "fan 1\nrank 1\nend\n")
        assert "'end' outside a block" in e.message

    def test_unterminated_block_points_at_start(self, tmp_path):
        e = self.err(tmp_path, "fan 1\nrank 1\nray 1\nsubgroup s\n1\n")
        assert e.line == 4 and "unterminated subgroup 's'" in e.message

    def test_duplicate_subgroup_label(self, tmp_path):
        text = "fan 1\nrank 1\nray 1\nsubgroup s\n1\nend\nsubgroup s\n1\nend\n"
        assert "duplicate subgroup 's'" in self.err(tmp_path, text).message

    def test_duplicate_morphism_label_points_at_the_second(self, tmp_path):
        text = "fan 1\nrank 1\nray 1\nmorphism m a.fan\n1\nend\nmorphism m b.fan\n1\nend\n"
        e = self.err(tmp_path, text)
        assert e.line == 7 and "duplicate morphism 'm'" in e.message

    @pytest.mark.parametrize("label", ["cox", "kajiwara"])
    def test_builtin_subgroup_labels_are_reserved(self, tmp_path, label):
        e = self.err(tmp_path, f"fan 1\nrank 1\nray 1\ncone 0\nsubgroup {label}\n1\nend\n")
        assert e.line == 5 and f"subgroup label '{label}' is reserved" in e.message

    def test_subgroup_needs_label(self, tmp_path):
        assert "subgroup <label>" in self.err(tmp_path, "fan 1\nrank 1\nsubgroup\nend\n").message

    def test_morphism_needs_label_and_path(self, tmp_path):
        e = self.err(tmp_path, "fan 1\nrank 1\nmorphism only_label\nend\n")
        assert "morphism <label> <target-path>" in e.message

    def test_cone_index_errors_are_fan_validation(self, tmp_path):
        # bad cone structure is the fan validator's job, not the parser's
        p = write(tmp_path, "bad.fan", "fan 1\nrank 2\nray 1 0\ncone 0 5\n")
        with pytest.raises(FanValidationError):
            parse_fan_file(p)

    def test_subgroup_row_width_checked_at_validation(self, tmp_path):
        text = "fan 1\nrank 2\nray 1 0\nray 0 1\ncone 0 1\nsubgroup s\n1 0 0\nend\n"
        with pytest.raises(FanFileError) as ei:
            parse_fan_file(write(tmp_path, "bad.fan", text))
        assert "expected 2 (one per ray)" in ei.value.message


class TestJsonTwin:
    def test_json_matches_text(self, tmp_path):
        t = parse_fan_file(write(tmp_path, "q.fan", QUADRIC_TEXT))
        j = parse_fan_file(write(tmp_path, "q.json", QUADRIC_JSON))
        assert j.fan == t.fan
        assert j.subgroups == t.subgroups
        assert j.morphisms == t.morphisms

    def test_sniffed_by_leading_brace_with_whitespace(self, tmp_path):
        p = tmp_path / "pad.json"
        p.write_text("\n  " + json.dumps(QUADRIC_JSON))
        assert parse_fan_file(p).fan.rays == ((1, 0), (1, 2))

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"format": "fan",\n "version": }')
        with pytest.raises(FanFileError) as ei:
            read_fan_document(p)
        assert ei.value.line == 2 and "invalid JSON" in ei.value.message

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda d: d.pop("format"), "format"),
            (lambda d: d.__setitem__("version", 2), "unsupported format version"),
            (lambda d: d.__setitem__("rank", "2"), "nonnegative integer"),
            (lambda d: d.__setitem__("rays", [[1, True]]), "integer lists"),
            (lambda d: d.__setitem__("rays", [[1]]), "expected 2"),
            (lambda d: d.__setitem__("rays", 5), "'rays' must be a list"),
            (lambda d: d.__setitem__("morphisms", {"m": {"target": "x"}}), "'matrix'"),
            (lambda d: d.__setitem__("subgroups", [1]), "'subgroups' must be an object"),
            (lambda d: d.__setitem__("subgroups", "ab"), "must be an object mapping labels"),
            (
                lambda d: d["subgroups"].__setitem__("cox", [[1, 0], [0, 1]]),
                "subgroup label 'cox' is reserved for the built-in subgroup",
            ),
            (
                lambda d: d["subgroups"].__setitem__("kajiwara", [[1, 0], [0, 1]]),
                "subgroup label 'kajiwara' is reserved for the built-in subgroup",
            ),
            (lambda d: d.__setitem__("rank", True), "'rank' must be a nonnegative"),
            (lambda d: d.__setitem__("version", True), "unsupported format version True"),
            (
                lambda d: d["morphisms"]["collapse"].__setitem__("target", None),
                "target must be a path string, got None",
            ),
            (
                lambda d: d["morphisms"]["collapse"].__setitem__("target", 5),
                "target must be a path string, got 5",
            ),
        ],
    )
    def test_structural_errors(self, tmp_path, mutate, needle):
        data = json.loads(json.dumps(QUADRIC_JSON))
        mutate(data)
        with pytest.raises(FanFileError) as ei:
            read_fan_document(write(tmp_path, "bad.json", data))
        assert needle in str(ei.value)
        assert str(ei.value).startswith(str(tmp_path / "bad.json"))

    def test_top_level_must_be_object(self, tmp_path):
        # a leading '[' is not sniffed as JSON, so wrap in an object-less doc
        p = tmp_path / "bad.json"
        p.write_text('{"format": "wrong"}')
        with pytest.raises(FanFileError) as ei:
            read_fan_document(p)
        assert "'format'" in str(ei.value)


class TestCanonicalization:
    def test_file_ray_order_is_immaterial(self, tmp_path):
        reversed_text = "fan 1\nrank 2\nray 1 2\nray 1 0\ncone 0 1\n"
        a = parse_fan_file(write(tmp_path, "a.fan", reversed_text))
        b = parse_fan_file(write(tmp_path, "b.fan", "fan 1\nrank 2\nray 1 0\nray 1 2\ncone 0 1\n"))
        assert a.fan == b.fan

    def test_subgroup_columns_follow_the_rays(self, tmp_path):
        # same subgroup written against both ray orders of the quadric cone
        rev = (
            "fan 1\nrank 2\nray 1 2\nray 1 0\ncone 0 1\n"
            "subgroup s\n1 1\n0 2\nend\n"
        )
        fwd = (
            "fan 1\nrank 2\nray 1 0\nray 1 2\ncone 0 1\n"
            "subgroup s\n1 1\n2 0\nend\n"
        )
        a = parse_fan_file(write(tmp_path, "rev.fan", rev))
        b = parse_fan_file(write(tmp_path, "fwd.fan", fwd))
        assert a.subgroups["s"] == ((1, 1), (2, 0))
        sa = divisor_subgroup(a.fan, a.subgroups["s"])
        sb = divisor_subgroup(b.fan, b.subgroups["s"])
        assert sa.basis == sb.basis


class TestMorphismMatrix:
    def test_shape_ok(self, tmp_path):
        doc = parse_fan_file(write(tmp_path, "q.fan", QUADRIC_TEXT))
        m = morphism_matrix(doc.morphisms["collapse"], 1, 2)
        assert m.to_lists() == [[1, 0]]

    def test_shape_mismatch(self, tmp_path):
        doc = parse_fan_file(write(tmp_path, "q.fan", QUADRIC_TEXT))
        with pytest.raises(ValueError, match="1x3"):
            morphism_matrix(doc.morphisms["collapse"], 1, 2 + 1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FanFileError, match="cannot read"):
            read_fan_document(tmp_path / "absent.fan")


def test_read_fan_text_keeps_file_order():
    raw = read_fan_text("<mem>", "fan 1\nrank 2\nray 1 2\nray 1 0\ncone 0 1\n")
    assert raw.rays == [(1, 2), (1, 0)]
    doc = validate_document(raw)
    assert doc.fan.rays == ((1, 0), (1, 2))

import json
import subprocess
import sys

import pytest

from amoegrid.cli import main
from amoegrid.generator import generate_random


def run_cli(args):
    return main(args)


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
def test_load_missing_file(tmp_path, capsys, kind):
    path = tmp_path / "input.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf-8":
        path.write_bytes(b"0 0\n\xff\xfe 1\n")
    assert run_cli(["decompose", str(path)]) == 2
    assert capsys.readouterr().err.startswith("invalid input: ")


@pytest.mark.parametrize(
    "line",
    [
        "99999999999999999999 0",  # beyond int64
        "0 4611686018427387904",  # 2**62
        "-4611686018427387904 0",
    ],
)
def test_out_of_range_coordinate_rejected(tmp_path, capsys, line):
    path = tmp_path / "input.txt"
    path.write_text(line + "\n")
    assert run_cli(["decompose", str(path)]) == 2
    assert capsys.readouterr().err.startswith("invalid input: line 1: coordinate out of range")


def test_largest_coordinate_accepted(tmp_path, capsys):
    path = tmp_path / "input.txt"
    limit = 2**62 - 1
    path.write_text(f"{limit} {-limit}\n{limit - 1} {-limit}\n")
    assert run_cli(["decompose", str(path), "--verify"]) == 0
    assert "regions=1" in capsys.readouterr().out


@pytest.mark.parametrize("option", ["--save", "--svg", "--json"])
@pytest.mark.parametrize("target", ["directory", "missing-directory"])
def test_unwritable_output_exit_code(tmp_path, capsys, option, target):
    path = tmp_path if target == "directory" else tmp_path / "missing" / "out"
    assert run_cli(["decompose", "--gen", "30", "--seed", "0", option, str(path)]) == 2
    assert capsys.readouterr().err.startswith("invalid input: ")


def test_empty_file_rejected(tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("")
    assert run_cli(["decompose", str(f)]) == 2


@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
def test_single_node_file(tmp_path, capsys, bom):
    f = tmp_path / "one.txt"
    f.write_text(bom + "0 0\n", encoding="utf-8")
    assert run_cli(["decompose", str(f), "--verify"]) == 0
    out = capsys.readouterr().out
    assert "regions=1" in out


def test_round_trip_save_load(tmp_path):
    s = generate_random(80, 1, 3)
    f = tmp_path / "s.txt"
    f.write_text(s.to_text())
    from amoegrid.cli import load_structure

    assert load_structure(f).nodes == s.nodes


def test_disconnected_input_exit_code(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("0 0\n5 5\n")
    assert run_cli(["decompose", str(f)]) == 2


def test_gen_verify_svg_json(tmp_path, capsys):
    svg = tmp_path / "out.svg"
    js = tmp_path / "out.json"
    code = run_cli(
        [
            "decompose",
            "--gen", "90", "--holes", "1", "--seed", "4",
            "--verify", "--svg", str(svg), "--json", str(js),
        ]
    )
    assert code == 0
    payload = json.loads(js.read_text())
    assert payload["holes"] == 1
    assert payload["verification"]["ok"] is True
    assert len(payload["regions"]) >= 1
    text = svg.read_text()
    assert text.startswith("<svg") and "circle" in text


def test_hole_free_json_single_region(tmp_path):
    js = tmp_path / "out.json"
    assert run_cli(["decompose", "--gen", "40", "--seed", "1", "--json", str(js)]) == 0
    payload = json.loads(js.read_text())
    assert len(payload["regions"]) == 1


def test_distributed_requires_seed(tmp_path, capsys):
    f = tmp_path / "s.txt"
    f.write_text(generate_random(40, 0, 0).to_text())
    with pytest.raises(SystemExit):
        run_cli(["decompose", str(f), "--mode", "distributed"])


def test_both_mode_and_byte_determinism(tmp_path):
    structure = generate_random(110, 1, 6)
    f = tmp_path / "s.txt"
    f.write_text(structure.to_text())
    outs = []
    for tag in ("a", "b"):
        svg = tmp_path / f"{tag}.svg"
        js = tmp_path / f"{tag}.json"
        code = run_cli(
            [
                "decompose", str(f),
                "--mode", "both", "--seed", "11",
                "--json", str(js), "--svg", str(svg), "--verify",
            ]
        )
        assert code == 0
        outs.append((svg.read_bytes(), js.read_bytes()))
    assert outs[0] == outs[1]


def test_bench_smoke(capsys):
    assert run_cli(["decompose", "--bench", "64", "--bench-seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "rounds_per_log2n" in out
    assert len(out.strip().splitlines()) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["--bench", "abc"],  # not a size
        ["--bench", "3"],  # too small for the sweep's one hole
        ["--bench", "64", "--bench-seeds", "0"],  # no runs to take a median of
    ],
)
def test_bench_invalid_input_exit_code(args, capsys):
    assert run_cli(["decompose", *args]) == 2
    assert capsys.readouterr().err.startswith("invalid input: ")


@pytest.mark.parametrize(
    "args,reason",
    [
        (["--mode", "distributed", "--seed", "1", "--nhat", "0"], "--nhat must be at least 1"),
        (["--mode", "distributed", "--seed", "1", "--nhat", "-3"], "--nhat must be at least 1"),
        (["--holes", "-1"], "holes must be non-negative"),  # rejected before any attempt
    ],
)
def test_invalid_gen_options_exit_code(args, reason, capsys):
    assert run_cli(["decompose", "--gen", "64", *args]) == 2
    assert capsys.readouterr().err.startswith(f"invalid input: {reason}")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "amoegrid.cli", "decompose", "--gen", "30", "--seed", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "regions=" in proc.stdout

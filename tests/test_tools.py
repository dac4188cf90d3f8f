"""tools/compare_artifacts.py sorts each file of two trees into one of three results;
tools/bench_pairs.py summarizes paired benchmark runs, tools/bench_lockstep.py per-op ratios."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "compare_artifacts", Path(__file__).resolve().parent.parent / "tools" / "compare_artifacts.py"
)
compare_artifacts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_artifacts)
_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
_SPEC = importlib.util.spec_from_file_location(
    "bench_lockstep", Path(__file__).resolve().parent.parent / "tools" / "bench_lockstep.py"
)
bench_lockstep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_lockstep)


def _tree(root: Path, files: dict) -> str:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return str(root)


def test_compare_reports_identical_floats_and_differs(tmp_path, capsys):
    frames = {"is_speech": [0, 1], "energy_db": [-30.5, -12.25], "label": "a"}
    moved = dict(frames, energy_db=[-30.5 + 2.0**-40, -12.25])  # exact: a multiple of the ulp at 30.5
    parent = _tree(tmp_path / "p", {
        "same.wav": b"RIFF\x00\x01",
        "floats.json": json.dumps(frames),
        "floats.csv": "index,energy_db,is_speech\n0,-30.5,0\n1,-12.25,1\n",
        "flag.csv": "index,energy_db,is_speech\n0,-30.5,0\n",
        "bytes.pgm": b"P5 1 1 255\n\x10",
        "gone.json": "{}",
    })
    change = _tree(tmp_path / "c", {
        "same.wav": b"RIFF\x00\x01",
        "floats.json": json.dumps(moved),
        "floats.csv": "index,energy_db,is_speech\n0,-30.499999999999986,0\n1,-12.25,1\n",
        "flag.csv": "index,energy_db,is_speech\n0,-30.5,1\n",
        "bytes.pgm": b"P5 1 1 255\n\x11",
        "new.json": "{}",
    })
    assert compare_artifacts.main([parent, change]) == 1
    lines = capsys.readouterr().out.splitlines()
    results = {line.split()[1]: line.split()[0] for line in lines[:-1]}
    assert results == {
        "bytes.pgm": "differs",
        "flag.csv": "differs",
        "floats.csv": "floats",
        "floats.json": "floats",
        "gone.json": "differs",
        "new.json": "differs",
        "same.wav": "identical",
    }
    assert "energy_db[] 9.1e-13 (at -30.5)" in next(line for line in lines if "floats.json" in line)
    assert lines[-1] == "1 identical, 2 floats, 4 differs"


def test_compare_exits_0_when_only_floats_move(tmp_path):
    parent = _tree(tmp_path / "p", {"d.json": '{"snr_db": 0.18100914155157, "n": 3}'})
    change = _tree(tmp_path / "c", {"d.json": '{"snr_db": 0.18100914155158, "n": 3}'})
    assert compare_artifacts.main([parent, change]) == 0
    parent = _tree(tmp_path / "p2", {"d.json": '{"snr_db": 0.5, "n": 3}'})
    change = _tree(tmp_path / "c2", {"d.json": '{"snr_db": 0.5, "n": 4}'})
    assert compare_artifacts.main([parent, change]) == 1


def test_bench_pairs_summary_counts_wins_spread_and_bound():
    parent, change = [10.0, 11.0, 12.0, 13.0], [9.0, 10.0, 12.0, 8.0]  # gains 1, 1, 0, 5
    lower = bench_pairs.summarize(parent, change, "lower", 0.25)
    assert lower["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25, "n": 4}  # numpy's linear quartiles
    assert lower["change"] == {"median": 9.5, "q1": 8.75, "q3": 10.5, "n": 4}
    assert (lower["change_wins"], lower["ties"]) == (3, 1)
    assert lower["parent_iqr"] == 1.5
    assert lower["gain_beyond_parent_iqr"] is True  # 11.5 - 9.5 > 1.5
    assert lower["within_bound"] is True
    assert lower["median_change_ratio"] == 9.5 / 11.5 - 1.0
    assert lower["parent_runs"] == parent and lower["change_runs"] == change

    higher = bench_pairs.summarize(parent, change, "higher", 0.1)
    assert (higher["change_wins"], higher["ties"]) == (0, 1)
    assert higher["gain_beyond_parent_iqr"] is False
    assert higher["within_bound"] is False  # 2.0 below the parent's median, over 10% of 11.5
    assert bench_pairs.summarize(parent, change, "lower", None)["within_bound"] is None


def test_bench_pairs_summary_of_one_pair():
    one = bench_pairs.summarize([2.0], [2.0], "lower", 0.25)
    assert one["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}
    assert (one["change_wins"], one["ties"], one["gain_beyond_parent_iqr"], one["within_bound"]) == (0, 1, False, True)


def test_bench_pairs_clears_bytecode_from_a_checkout(tmp_path):
    root = _tree(tmp_path / "c", {
        "src/vadkit/__pycache__/cli.cpython-311.pyc": b"\x00",
        "src/vadkit/cli.py": "",
        "perfbench/__pycache__/spans.cpython-311.pyc": b"\x00",
        "perfbench/__pycache__/nested/__pycache__/x.pyc": b"\x00",
        "tools/bench_pairs.py": "",
    })
    assert bench_pairs.clear_bytecode(root) == 2
    left = sorted(str(p.relative_to(root)) for p in Path(root).rglob("*"))
    assert left == ["perfbench", "src", "src/vadkit", "src/vadkit/cli.py", "tools", "tools/bench_pairs.py"]
    assert bench_pairs.clear_bytecode(root) == 0


def test_bench_lockstep_summary_of_synthetic_ratios():
    same = bench_lockstep.summarize([0.9] * 50)
    assert same == {"median": 0.9, "q1": 0.9, "q3": 0.9, "ci95": [0.9, 0.9], "n": 50}

    ratios = [0.8 + 0.01 * i for i in range(21)]  # 0.80 .. 1.00, median 0.90
    spread = bench_lockstep.summarize(ratios)
    assert spread["median"] == ratios[10] and (spread["q1"], spread["q3"]) == (ratios[5], ratios[15])
    low, high = spread["ci95"]
    assert ratios[5] <= low <= spread["median"] <= high <= ratios[15]
    assert bench_lockstep.summarize(ratios) == spread  # the bootstrap is seeded

    null = bench_lockstep.summarize([1.0 + (-1) ** i * 0.01 * (i % 7) for i in range(200)])
    assert null["ci95"][0] <= 1.0 <= null["ci95"][1]
    shifted = bench_lockstep.summarize([0.85 + (-1) ** i * 0.01 * (i % 7) for i in range(200)])
    assert shifted["ci95"][1] < 0.92


def test_bench_lockstep_block_medians_of_synthetic_ratios():
    drift = [1.0 + 0.01 * (i // 20) + (-1) ** i * 0.005 * (i % 5) for i in range(45)]  # +1% every 20 ops
    # Blocks of 20, 20 and 5 ops.
    assert [round(m, 6) for m in bench_lockstep.block_medians(drift)] == [1.0, 1.01, 1.02]
    assert bench_lockstep.block_medians([]) == []


def test_bench_lockstep_runs_a_tree_against_itself(tmp_path):
    root = str(Path(__file__).resolve().parent.parent)
    result = bench_lockstep.run(root, root, "sweep-corpus", 2, 3, str(tmp_path))
    assert [len(result["runs"][side]) for side in ("parent", "change")] == [2, 2]
    assert result["ratios"]["cpu_s"]["n"] == result["ratios"]["wall_s"]["n"] == 2
    assert all(len(figures["block_medians"]) == 1 for figures in result["ratios"].values())
    assert all(t["cpu_s"] > 0 and t["wall_s"] > 0 for ts in result["runs"].values() for t in ts)

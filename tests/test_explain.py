"""``ert-repro explain``: replaying one read must reproduce the
counters the live run recorded in the slowlog, field for field."""

import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.core import save_ert
from repro.sequence import write_fastq


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, ert_index, reference):
    """A persisted index + FASTQ + slowlogs from live seed/align runs."""
    from repro.sequence import ReadSimulator

    root = tmp_path_factory.mktemp("explain")
    index_path = str(root / "idx.npz")
    reads_path = str(root / "reads.fq")
    save_ert(ert_index, index_path)
    reads = ReadSimulator(reference, read_length=80, seed=33).simulate(20)
    write_fastq(reads_path, reads)
    seed_log = str(root / "seed.slowlog.jsonl")
    align_log = str(root / "align.slowlog.jsonl")
    assert main(["seed", "--index", index_path, "--reads", reads_path,
                 "--min-seed-len", "12", "--out", str(root / "o.tsv"),
                 "--workers", "2", "--slowlog", seed_log]) == 0
    assert main(["align", "--index", index_path, "--reads", reads_path,
                 "--min-seed-len", "12", "--out", str(root / "o.sam"),
                 "--slowlog", align_log]) == 0
    # One slowlog per (task, backend), batched so replays cross batch
    # boundaries; 20 reads < the 64-record reservoir, so every read of
    # every run is sampled.
    logs = {}
    for task, out in (("seed", "o.tsv"), ("align", "o.sam")):
        for kernels in ("scalar", "vector"):
            log = str(root / f"{task}.{kernels}.slowlog.jsonl")
            assert main([task, "--index", index_path,
                         "--reads", reads_path, "--min-seed-len", "12",
                         "--out", str(root / f"{kernels}.{out}"),
                         "--kernels", kernels, "--batch-size", "8",
                         "--slowlog", log]) == 0
            logs[task, kernels] = log
    return {"index": index_path, "reads": reads_path,
            "seed_log": seed_log, "align_log": align_log, "logs": logs}


def _slow_entries(path):
    return [json.loads(line) for line in open(path)]


def test_explain_reproduces_seed_slowlog_counters(workspace, capsys):
    entries = _slow_entries(workspace["seed_log"])
    slowest = next(e for e in entries if e["source"] == "slowest")
    code = main(["explain", "--index", workspace["index"],
                 "--reads", workspace["reads"],
                 "--read-id", slowest["read_id"],
                 "--min-seed-len", "12",
                 "--slowlog", workspace["seed_log"]])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert "matches the slowlog record exactly" in out.err
    assert slowest["read_id"] in out.out


def test_explain_reproduces_align_slowlog_counters(workspace, capsys):
    entries = _slow_entries(workspace["align_log"])
    slowest = next(e for e in entries if e["source"] == "slowest")
    code = main(["explain", "--index", workspace["index"],
                 "--reads", workspace["reads"],
                 "--read-id", slowest["read_id"], "--task", "align",
                 "--min-seed-len", "12",
                 "--slowlog", workspace["align_log"]])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert "matches the slowlog record exactly" in out.err


@pytest.mark.parametrize("kernels", ["scalar", "vector"])
@pytest.mark.parametrize("task", ["seed", "align"])
def test_explain_replays_every_reservoir_record(workspace, capsys, task,
                                                kernels):
    """Every sampled read replays to its recorded counters exactly,
    through the backend its record names."""
    log = workspace["logs"][task, kernels]
    entries = _slow_entries(log)
    assert len({e["read_id"] for e in entries}) == 20
    for entry in entries:
        assert entry["task"] == task
        assert entry.get("kernels", "scalar") == kernels
        code = main(["explain", "--index", workspace["index"],
                     "--reads", workspace["reads"],
                     "--read-id", entry["read_id"], "--task", task,
                     "--min-seed-len", "12", "--slowlog", log])
        out = capsys.readouterr()
        assert code == 0, (entry["read_id"], out.err)
        assert f"{kernels} kernels" in out.out


def test_explain_json_output_carries_the_counters(workspace, capsys):
    entry = _slow_entries(workspace["seed_log"])[0]
    code = main(["explain", "--index", workspace["index"],
                 "--reads", workspace["reads"],
                 "--read-id", entry["read_id"],
                 "--min-seed-len", "12", "--json"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["read_id"] == entry["read_id"]
    assert rec["counters"] == entry["counters"]


def test_explain_detects_counter_mismatch(workspace, tmp_path, capsys):
    entry = dict(_slow_entries(workspace["seed_log"])[0])
    entry["counters"] = dict(entry["counters"])
    entry["counters"]["nodes_visited"] = \
        entry["counters"].get("nodes_visited", 0) + 1
    doctored = tmp_path / "doctored.jsonl"
    doctored.write_text(json.dumps(entry) + "\n")
    code = main(["explain", "--index", workspace["index"],
                 "--reads", workspace["reads"],
                 "--read-id", entry["read_id"],
                 "--min-seed-len", "12",
                 "--slowlog", str(doctored)])
    assert code == 1
    assert "counter mismatch" in capsys.readouterr().err


def test_explain_unknown_read_exits_2(workspace, capsys):
    code = main(["explain", "--index", workspace["index"],
                 "--reads", workspace["reads"],
                 "--read-id", "no_such_read"])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_explain_read_missing_from_slowlog_exits_2(workspace, tmp_path,
                                                   capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    entry = _slow_entries(workspace["seed_log"])[0]
    code = main(["explain", "--index", workspace["index"],
                 "--reads", workspace["reads"],
                 "--read-id", entry["read_id"],
                 "--min-seed-len", "12", "--slowlog", str(empty)])
    assert code == 2

"""tools/pairs.py: every copy runs perfbench's own workloads against its own
package, and a change tree whose outputs are wrong stops the run."""

import importlib.util
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("pairs", os.path.join(ROOT, "tools", "pairs.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "BURST_PACKETS", 500)
    return mod


def copies(pairs, tmp_path, change=ROOT):
    os.mkdir(tmp_path / "copies")
    return pairs.load_copies({"parent": ROOT, "aa": ROOT, "change": change},
                             str(tmp_path / "copies"))


@pytest.mark.parametrize("imported", [True, False])
def test_each_arm_loads_the_workloads_against_its_own_copy(pairs, tmp_path, monkeypatch,
                                                           imported):
    if not imported:
        monkeypatch.delitem(sys.modules, "tinyring", raising=False)
    bound, path = sys.modules.get("tinyring"), list(sys.path)
    mods = copies(pairs, tmp_path)
    assert sys.modules.get("tinyring") is bound
    assert sys.path == path
    assert sorted(mods) == ["aa", "change", "parent"]
    for arm, wl in mods.items():
        assert wl.__name__ == f"workloads_{arm}"
        assert wl.tr.__name__ == f"tr_{arm}"
        assert type(wl.Burst64(1).setup(0).nic).__module__ == f"tr_{arm}.nic"
        # the sweep's CSV goes to the temporary directory, not perfbench/out
        assert os.path.dirname(wl.SweepKnee().csv_path) == str(tmp_path / "copies")


def test_a_a_run_passes_and_marks_its_intervals(pairs, tmp_path):
    mods = copies(pairs, tmp_path)
    r = pairs.measure(mods, "burst_64b", 2, 0, random.Random(0))
    assert (r["workload"], r["pairs"]) == ("burst_64b", 2)
    assert r["parent_median_s"] > 0 and r["parent_setup_median_s"] > 0
    # the record: host, each arm's source hash and raw seconds per round
    assert (r["python"], r["implementation"]) == (platform.python_version(),
                                                  platform.python_implementation())
    assert r["platform"] == platform.platform() and r["nproc"] == os.cpu_count()
    assert sorted(r["src_sha256"]) == sorted(r["raw"]) == ["aa", "change", "parent"]
    assert r["src_sha256"]["parent"] == r["src_sha256"]["aa"]
    assert re.fullmatch("[0-9a-f]{16}", r["src_sha256"]["parent"])
    # each arm's commit and src/ state, the same for three arms of one tree
    assert sorted(r["commit"]) == sorted(r["dirty"]) == ["aa", "change", "parent"]
    for arm in r["commit"]:
        assert (r["commit"][arm], r["dirty"][arm]) == pairs.tree_commit(ROOT)
    for raw in r["raw"].values():
        assert sorted(raw) == ["setup_s", "timed_s"]
        assert len(raw["setup_s"]) == len(raw["timed_s"]) == 2
        assert all(t > 0 for t in raw["setup_s"] + raw["timed_s"])
    # the workload's own perfbench parameters, at the size pairs runs it
    assert r["params"] == mods["parent"].Burst64(500).params
    assert sorted(r["quartiles"]) == ["aa", "change", "parent"]
    for arm, quartiles in r["quartiles"].items():
        for key in ("setup_s", "timed_s"):
            q1, q2, q3 = quartiles[key]
            assert q1 <= q2 <= q3
            assert q2 == statistics.median(r["raw"][arm][key])
    for prefix in ("", "setup_"):
        lo, hi = r[prefix + "aa_over_parent"]["ci95"]
        assert r[prefix + "aa_holds"] is (lo <= 1.0 <= hi)
        void = "VOID (A/A misses 1.0)" in pairs.ratios(r, prefix)
        assert void is not r[prefix + "aa_holds"]


def test_commit_and_dirty_come_from_the_trees_own_checkout(pairs, tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(os.path.join(ROOT, "src", "tinyring"), tree / "src" / "tinyring",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert pairs.tree_commit(str(tree)) == (None, None)  # not a checkout

    def git(*args):
        return subprocess.run(["git", "-C", str(tree), "-c", "user.name=t",
                               "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false",
                               *args], capture_output=True, text=True, check=True).stdout
    git("init", "-q")
    assert pairs.tree_commit(str(tree)) == (None, None)  # a checkout with no commit yet
    git("add", "-A")
    git("commit", "-q", "-m", "tree")
    head = git("rev-parse", "HEAD").strip()
    assert re.fullmatch("[0-9a-f]{40}", head)
    assert pairs.tree_commit(str(tree)) == (head, False)
    (tree / "notes.txt").write_text("outside src/")
    assert pairs.tree_commit(str(tree)) == (head, False)
    (tree / "src" / "extra.py").write_text("")  # an untracked file under src/
    assert pairs.tree_commit(str(tree)) == (head, True)
    os.remove(tree / "src" / "extra.py")
    with open(tree / "src" / "tinyring" / "agent.py", "a") as fh:
        fh.write("\n")
    assert pairs.tree_commit(str(tree)) == (head, True)
    # a tree inside another checkout is not that checkout's commit
    inner = tree / "inner"
    shutil.copytree(tree / "src", inner / "src")
    assert pairs.tree_commit(str(inner)) == (None, None)


def mutant_tree(tmp_path, module, old, new):
    """A copy of src/tinyring with one edit in module; returns the tree."""
    pkg = tmp_path / "tree" / "src" / "tinyring"
    shutil.copytree(os.path.join(ROOT, "src", "tinyring"), pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    text = (pkg / module).read_text()
    assert text.count(old) == 1
    (pkg / module).write_text(text.replace(old, new))
    return str(tmp_path / "tree")


@pytest.mark.parametrize("module, old, new, caught_by", [
    # one step late on every emitted frame: perfbench's forwarding check
    # reads payloads and order only, so the cross-tree comparison catches
    # it, at the first frame, with both (payload, inject, drain, order)
    ("nic.py", "frame.drain_time = now", "frame.drain_time = now + 1",
     r"outputs differ between trees: change output 0 index 0 is \(b.*, 0, 10, 0\), "
     r"parent's is \(b.*, 0, 9, 0\)$"),
    # identity flips one byte: perfbench's oracle runs the tree's own
    # identity, so it agrees, and the cross-tree comparison catches it
    ("netfuncs.py", "        return [length] * num_outputs\n\n    return proc\n\n\ndef macswap",
     "        buf[0] ^= 1\n        return [length] * num_outputs\n\n    return proc\n\n\n"
     "def macswap", "outputs differ between trees"),
    # the device writes one received byte wrong: the oracle check catches it
    ("nic.py", "mem[baddr:baddr + n] = payload\n",
     "mem[baddr:baddr + n] = payload[:-1] + bytes([payload[-1] ^ 1])\n",
     "operations failed its check"),
], ids=["drain_time", "identity", "receive_dma"])
def test_a_wrong_change_tree_stops_the_run(pairs, tmp_path, module, old, new, caught_by):
    mods = copies(pairs, tmp_path, mutant_tree(tmp_path, module, old, new))
    with pytest.raises(pairs.Mismatch, match=caught_by):
        pairs.measure(mods, "burst_64b", 2, 0, random.Random(0))

"""Golden artifacts: the sha256 of every file the command line writes.

The digests pin the byte-identity contract against a fixed reference, not
just between two runs of the same code.  Every run works in a temporary
directory with relative paths, because ``report.json`` and
``manifest.json`` embed paths and the config hash.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import protocheck
from protocheck import annotate, emit_annotated_dot, expand_tau, parse_cpm
from protocheck.cli import main
from protocheck.fixtures import fixture_text
from helpers import random_machine

FIXTURES = ("illustrative.dot", "illustrative.cpm", "generic.properties",
            "emrtd.cpm", "uds.cpm")

EXACT = {"algorithm": "lstar", "oracle": "exact"}
PIPELINES = {
    "uds-exact": {"sul": "uds", "cpm": "uds.cpm", "seed": 1, "learner": EXACT,
                  "mutation": {"enabled": False, "probability": 0.1}},
    "uds-exact-mutated": {"sul": "uds", "cpm": "uds.cpm", "seed": 1, "learner": EXACT,
                          "mutation": {"enabled": True, "probability": 0.1}},
    "emrtd-exact": {"sul": "emrtd", "cpm": "emrtd.cpm", "seed": 1, "learner": EXACT,
                    "mutation": {"enabled": False, "probability": 0.1}},
    "emrtd-exact-mutated": {"sul": "emrtd", "cpm": "emrtd.cpm", "seed": 1,
                            "learner": EXACT,
                            "mutation": {"enabled": True, "probability": 0.1}},
    "uds-random-walk": {"sul": "uds", "cpm": "uds.cpm", "seed": 1,
                        "learner": {"algorithm": "lstar", "oracle": "random-walk",
                                    "min_len": 20, "max_len": 50, "num_tests": 50}},
    "illustrative-properties": {"model": "illustrative.dot", "cpm": "illustrative.cpm",
                                "properties": "generic.properties", "seed": 3},
}


def _stages(model, cpm):
    """The README walkthrough, one subcommand per stage: (argv, exit code)."""
    return [
        (["annotate", "--model", model, "--cpm", cpm, "--out", "out/annotated.dot"], 0),
        (["expand", "--annotated", "out/annotated.dot", "--cpm", cpm,
          "--out", "out/expanded.dot"], 0),
        (["gen-rebeca", "--annotated", "out/annotated.dot", "--cpm", cpm,
          "--out", "out/model.rebeca", "--properties-out", "out/model.property"], 0),
        (["explore", "--annotated", "out/annotated.dot", "--cpm", cpm,
          "--out", "out/lts.dot"], 0),
        (["collapse", "--lts", "out/lts.dot", "--out", "out/collapsed.dot"], 0),
        (["explore", "--annotated", "out/annotated.dot", "--cpm", cpm,
          "--out", "out/lts-mutated.dot", "--timeout-mutation", "0.2"], 0),
        (["collapse", "--lts", "out/lts-mutated.dot", "--out", "out/collapsed-mutated.dot"], 0),
        (["verify-roundtrip", "--model", model, "--cpm", cpm], 0),
    ]


STAGES = {
    "illustrative-stages": _stages("illustrative.dot", "illustrative.cpm") + [
        (["check", "--expanded", "out/expanded.dot", "--cpm", "illustrative.cpm",
          "--report", "out/report.json", "--jsonl", "out/report.jsonl"], 0),
        (["emit-test", "--report", "out/report.json", "--out", "out/tests.jsonl"], 0),
    ],
    "uds-stages": [(["learn", "--sul", "uds", "--out", "uds.dot"], 0)]
    + _stages("uds.dot", "uds.cpm") + [
        (["check", "--expanded", "out/expanded.dot", "--cpm", "uds.cpm",
          "--report", "out/report.json", "--jsonl", "out/report.jsonl"], 2),
        (["emit-test", "--report", "out/report.json", "--out", "out/tests.jsonl"], 0),
        (["replay", "--tests", "out/tests.jsonl", "--sul", "uds-patched",
          "--report", "out/replay.json"], 3),
    ],
}

GOLDEN = {
    "emrtd-exact": {
        "annotated.dot":
            "84ef17070d5ffa2dd136eaa53e2ed8c10415566e6fcc4d6c6cecbb7d46286145",
        "collapsed.dot":
            "ef5da016b3d5dc7535ffd1a3126982e0de9c47e780352f502db4dddd16065e19",
        "expanded.dot":
            "ef5da016b3d5dc7535ffd1a3126982e0de9c47e780352f502db4dddd16065e19",
        "lts.dot":
            "85b6641d5e7f4e207d479e0e8d8f733cca44bd91e21f0e6ae354176f7407de4d",
        "manifest.json":
            "ebae061eb435cdbf179745ac77dcb4ba8dd3e837f64749e07e332b4dc49959f1",
        "model.dot":
            "6ca50b868ef5e0f2189664db70ccb130472fcf6d584aab2d00e334a40c34b24c",
        "model.property":
            "3f2c05a42f3cbd1701a50e54ee4cc332b37bad8c04a4187c14566c1d8b6de7c6",
        "model.rebeca":
            "88d47801a81a5ecf32ea582010f49de5d021e79eb6bc307612e8281025710b93",
        "report.json":
            "73dc594c08704a387ba90f0b1ef60f7957f4a0f9dfd6f37b5815beaef6d7951b",
        "tests.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "emrtd-exact-mutated": {
        "annotated.dot":
            "84ef17070d5ffa2dd136eaa53e2ed8c10415566e6fcc4d6c6cecbb7d46286145",
        "collapsed.dot":
            "b2d8032e6b17e12281e4d5d3b1bb5346ff7ea74ea474252c523796cd714624f6",
        "expanded.dot":
            "ef5da016b3d5dc7535ffd1a3126982e0de9c47e780352f502db4dddd16065e19",
        "lts.dot":
            "e2c0ae388b32f1a7e4e76de28ac3c3f82e1f3b9c6663c9564283fdd4b9f57bc7",
        "manifest.json":
            "2c2d6a1b0cbbd54c2891b189093b3d563541c9a1cafe0ac64e6ed725dd2edf4a",
        "model.dot":
            "6ca50b868ef5e0f2189664db70ccb130472fcf6d584aab2d00e334a40c34b24c",
        "model.property":
            "3f2c05a42f3cbd1701a50e54ee4cc332b37bad8c04a4187c14566c1d8b6de7c6",
        "model.rebeca":
            "50108e008f443cc7b2533f77bf76c7f12dbf2cbb7557c39d2ffd1823ecf4ce0b",
        "report.json":
            "73dc594c08704a387ba90f0b1ef60f7957f4a0f9dfd6f37b5815beaef6d7951b",
        "tests.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "illustrative-properties": {
        "annotated.dot":
            "f876c8fa8bc9b7fd2f1ea1bee99db5e0443ae29db13c3d73f8aa8a935cd41fdb",
        "collapsed.dot":
            "120605374ac1f59861a165dbb80d0120c06f9cef230b98a2c8c09ee7498313eb",
        "expanded.dot":
            "120605374ac1f59861a165dbb80d0120c06f9cef230b98a2c8c09ee7498313eb",
        "lts.dot":
            "7a7075016dbdf618b37d0f5633b37555ed95f73c2e1bc1628afafb4985c30e80",
        "manifest.json":
            "d8bfc6d3a7318cbeab4958f0c9bb854084f710906007cd17b9db03412cd12e11",
        "model.dot":
            "1efad17f798cffcb153742f25e97203d65ed58e45d078b28e2c0db096f41b745",
        "model.property":
            "808e669240ed6a94d4a98ae0d6c5234f4b28c349f9a900033f347e631d4829f5",
        "model.rebeca":
            "a70c6c22331e140231639933694d4cf5ed0f247e7a89669b42906a0475a801b1",
        "report.json":
            "f597042351264843978a1448ff2f415941eee626255e9f70bbae59cf1236071d",
        "tests.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "illustrative-stages": {
        "annotated.dot":
            "f876c8fa8bc9b7fd2f1ea1bee99db5e0443ae29db13c3d73f8aa8a935cd41fdb",
        "collapsed-mutated.dot":
            "d00798027d7d6fc5e838eeea4a22e60a9a0e0d99e3ccae4b8f0c8f0194da3541",
        "collapsed.dot":
            "120605374ac1f59861a165dbb80d0120c06f9cef230b98a2c8c09ee7498313eb",
        "expanded.dot":
            "120605374ac1f59861a165dbb80d0120c06f9cef230b98a2c8c09ee7498313eb",
        "lts-mutated.dot":
            "9fcd1ac16769d803e102c43d65e0c55247ffd8b606151977c66f36674d5416b2",
        "lts.dot":
            "7a7075016dbdf618b37d0f5633b37555ed95f73c2e1bc1628afafb4985c30e80",
        "model.property":
            "808e669240ed6a94d4a98ae0d6c5234f4b28c349f9a900033f347e631d4829f5",
        "model.rebeca":
            "a70c6c22331e140231639933694d4cf5ed0f247e7a89669b42906a0475a801b1",
        "report.json":
            "8ffa9564ad4983a5b91d0cb1087618de5861f118e5ea818f8b335e16e0980bd1",
        "report.jsonl":
            "648451fe408781139b7ee98b34bf19526824dcbff68c1a1710612e0f6c3681e9",
        "tests.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "uds-exact": {
        "annotated.dot":
            "5160904358702036297094f854deb64619e21bf3ad4af539b1088f9854603e2a",
        "collapsed.dot":
            "e699f475337c3aab02014fb203b4a659335322c927d54890cb5ea5a16e36f5c2",
        "expanded.dot":
            "e699f475337c3aab02014fb203b4a659335322c927d54890cb5ea5a16e36f5c2",
        "lts.dot":
            "048e002859c363f92698d1a1f4b88282ee4c8a6d097f60cdb6f501e73174fe34",
        "manifest.json":
            "f586e0c2328124b1c5830ff9c1aeee98e08ca10b8434d1c72bb2dee644f07c63",
        "model.dot":
            "5001667a32dfbe07da7fd188e74a4eeb70aaf3c27f3b958372ccf5bdd81ad50f",
        "model.property":
            "3331ede0bdb29622c87dc3cc1d40f07398d7b9f7843d0a931ee0280fe2ef729c",
        "model.rebeca":
            "a9978621246d01edcf0b368236fb9fd2cd24e4885fb606ffd3032234a0145a52",
        "replay.json":
            "01ef0a80c8d593b6d513348ab4afcd9cdb5cd8e081443d05c62d03b43e5e9f04",
        "report.json":
            "adde21849b898f55920e3efb2bd8a4ea3868f8345706ca0e38534d59476c2d68",
        "tests.jsonl":
            "7a5c818f965ea690c07081d2aafccf7c44b1c9d60c53931789a26295db202d9a",
    },
    "uds-exact-mutated": {
        "annotated.dot":
            "5160904358702036297094f854deb64619e21bf3ad4af539b1088f9854603e2a",
        "collapsed.dot":
            "1be7688fd1d62a2abca2f029d5b3a92ff1a00766b1bb363b19b22133e1b25e50",
        "expanded.dot":
            "e699f475337c3aab02014fb203b4a659335322c927d54890cb5ea5a16e36f5c2",
        "lts.dot":
            "6aa20d2adca2b276af5be608d3a7f79172446a5338258749141cbcc86862e091",
        "manifest.json":
            "7e6aa4b3187c04ee6a98a6bf17fadbf5dca48683c27013d0f44345c685048d94",
        "model.dot":
            "5001667a32dfbe07da7fd188e74a4eeb70aaf3c27f3b958372ccf5bdd81ad50f",
        "model.property":
            "3331ede0bdb29622c87dc3cc1d40f07398d7b9f7843d0a931ee0280fe2ef729c",
        "model.rebeca":
            "96e4706c8dc833f58824bd46242a67f287d251f073e204e0bd239715f10ee424",
        "replay.json":
            "01ef0a80c8d593b6d513348ab4afcd9cdb5cd8e081443d05c62d03b43e5e9f04",
        "report.json":
            "adde21849b898f55920e3efb2bd8a4ea3868f8345706ca0e38534d59476c2d68",
        "tests.jsonl":
            "7a5c818f965ea690c07081d2aafccf7c44b1c9d60c53931789a26295db202d9a",
    },
    "uds-random-walk": {
        "annotated.dot":
            "5160904358702036297094f854deb64619e21bf3ad4af539b1088f9854603e2a",
        "collapsed.dot":
            "e699f475337c3aab02014fb203b4a659335322c927d54890cb5ea5a16e36f5c2",
        "expanded.dot":
            "e699f475337c3aab02014fb203b4a659335322c927d54890cb5ea5a16e36f5c2",
        "lts.dot":
            "048e002859c363f92698d1a1f4b88282ee4c8a6d097f60cdb6f501e73174fe34",
        "manifest.json":
            "5623c906abc2600e01e5256256c01642e29892d4bba8c5cde3cfd7b3f29cb31c",
        "model.dot":
            "5001667a32dfbe07da7fd188e74a4eeb70aaf3c27f3b958372ccf5bdd81ad50f",
        "model.property":
            "3331ede0bdb29622c87dc3cc1d40f07398d7b9f7843d0a931ee0280fe2ef729c",
        "model.rebeca":
            "a9978621246d01edcf0b368236fb9fd2cd24e4885fb606ffd3032234a0145a52",
        "replay.json":
            "01ef0a80c8d593b6d513348ab4afcd9cdb5cd8e081443d05c62d03b43e5e9f04",
        "report.json":
            "adde21849b898f55920e3efb2bd8a4ea3868f8345706ca0e38534d59476c2d68",
        "tests.jsonl":
            "7a5c818f965ea690c07081d2aafccf7c44b1c9d60c53931789a26295db202d9a",
    },
    "uds-stages": {
        "annotated.dot":
            "5160904358702036297094f854deb64619e21bf3ad4af539b1088f9854603e2a",
        "collapsed-mutated.dot":
            "1be7688fd1d62a2abca2f029d5b3a92ff1a00766b1bb363b19b22133e1b25e50",
        "collapsed.dot":
            "e699f475337c3aab02014fb203b4a659335322c927d54890cb5ea5a16e36f5c2",
        "expanded.dot":
            "e699f475337c3aab02014fb203b4a659335322c927d54890cb5ea5a16e36f5c2",
        "lts-mutated.dot":
            "6aa20d2adca2b276af5be608d3a7f79172446a5338258749141cbcc86862e091",
        "lts.dot":
            "048e002859c363f92698d1a1f4b88282ee4c8a6d097f60cdb6f501e73174fe34",
        "model.property":
            "3331ede0bdb29622c87dc3cc1d40f07398d7b9f7843d0a931ee0280fe2ef729c",
        "model.rebeca":
            "a9978621246d01edcf0b368236fb9fd2cd24e4885fb606ffd3032234a0145a52",
        "replay.json":
            "42a7fe207353dd9af5c84eb1806ba92ab86e12243d735cad39810120366c0fac",
        "report.json":
            "adde21849b898f55920e3efb2bd8a4ea3868f8345706ca0e38534d59476c2d68",
        "report.jsonl":
            "661288ce8238f1b5d52a17e82b77e0911466d84b2bee4da4d7c317afd7b48f0c",
        "tests.jsonl":
            "7a5c818f965ea690c07081d2aafccf7c44b1c9d60c53931789a26295db202d9a",
    },
}


def _run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _digests(directory: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir())}


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in FIXTURES:
        (tmp_path / name).write_text(fixture_text(name), encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_pipeline_artifacts_match_golden(name, workdir):
    config = dict(PIPELINES[name], out_dir="out")
    (workdir / "config.json").write_text(json.dumps(config, sort_keys=True))
    assert _run(["pipeline", "--config", "config.json"]) == 0
    assert _digests(workdir / "out") == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(STAGES))
def test_stage_artifacts_match_golden(name, workdir):
    assert [_run(argv) for argv, _ in STAGES[name]] == [code for _, code in STAGES[name]]
    assert _digests(workdir / "out") == GOLDEN[name]


SYNTHETIC_CPM = """[GAINS]
A | i0 | o0
B | i1 | *
C | i2 | o1
D | i3 | o2
[LOSES]
A, B | i4 | *
C | i5, i0 | *
D | i1 | o0
[TAUS]
TE | i5 | o1
TF | i2 | o0
"""


def test_check_report_does_not_depend_on_hash_seed_or_optimization(tmp_path):
    """``check --report`` in fresh interpreters under two hash seeds and
    under ``python -O`` writes the same bytes; the witnesses of
    G(!a) || F(b && X c) once followed the tableau's set iteration order."""
    rng = random.Random(5)
    cpm = parse_cpm(SYNTHETIC_CPM)
    machine = random_machine(rng, max_states=12, max_inputs=6)
    expanded = expand_tau(annotate(machine, cpm), cpm)
    (tmp_path / "expanded.dot").write_text(emit_annotated_dot(expanded))
    (tmp_path / "map.cpm").write_text(SYNTHETIC_CPM)
    props = ("A", "B", "C", "D", "TE", "TF")
    (tmp_path / "props.txt").write_text("".join(
        f"t{n:02d}: G(!{rng.choice(props)}) || F({rng.choice(props)} && X {rng.choice(props)})\n"
        for n in range(20)))
    src = str(Path(protocheck.__file__).resolve().parent.parent)
    runs = []
    for flags, hash_seed in (([], "1"), ([], "2"), (["-O"], "3")):
        report = f"report-{hash_seed}.json"
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "protocheck.cli", "check",
             "--expanded", "expanded.dot", "--cpm", "map.cpm",
             "--properties", "props.txt", "--report", report],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 2, proc.stderr
        runs.append((proc.stdout, (tmp_path / report).read_bytes()))
    assert b'"VIOLATED"' in runs[0][1]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]

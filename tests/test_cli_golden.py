"""Byte-identical CLI output on the presets.

Each preset command runs as ``python -m fracpid.cli`` in a fresh interpreter,
so stdout, stderr (Python's own warning lines included) and the exit code are
exactly what a user sees. Their SHA-256 digests are pinned below, together
with the ``tune --preset p1 --out`` CSV file.

The digests change only in a change that alters CLI output on purpose and
says so in CHANGES.md; a formatting refactor must leave every one of them as
it is.
"""

import hashlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import fracpid

PRESETS = ("p1", "p2", "p3", "wang-oscillatory")
TUNED = ("p1", "p2", "p3")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


EMPTY = _sha(b"")

COMMANDS = {
    **{f"place {p}": ["place", "--preset", p] for p in PRESETS},
    **{f"mcurve {p}": ["mcurve", "--preset", p] for p in PRESETS},
    **{f"simulate {p}": ["simulate", "--preset", p] for p in PRESETS},
    **{f"simulate --disturb {p}": ["simulate", "--preset", p, "--disturb"] for p in PRESETS},
    **{f"inverse {p}": ["inverse", "--preset", p] for p in PRESETS},
    **{f"tune {p}": ["tune", "--preset", p] for p in TUNED},
    **{f"tune --refine {p}": ["tune", "--preset", p, "--refine"] for p in TUNED},
    **{f"simulate --compare {p}": ["simulate", "--preset", p, "--compare"] for p in TUNED},
}

# name -> (exit code, SHA-256 of stdout, SHA-256 of stderr)
GOLDEN = {
    "place p1": (0, "ab5b4aba76067503a2b937b6292eb0a6665866270aecd6bfd4572e4c7e09378b", EMPTY),
    "place p2": (0, "a1536b8cc32df1597e46d4ceb94203e67a1a4f63be31b4a09aaa25e909e9eff9", EMPTY),
    "place p3": (0, "6baaac7623a7c9a6585e1abfed08149e163d2623186cf3d6c026b1def22c0129", EMPTY),
    "place wang-oscillatory": (0, "3892e67bc1762be7dea7631dae7e34da02a2d03d628ce71d000585831beb5c75", EMPTY),
    "mcurve p1": (0, "c771d75269e6459ebbb49e60cbb8a2958e34288ffd4802af1741d1ae8d48a6b9", EMPTY),
    "mcurve p2": (0, "6d00c7d621964e6222725992ae5f439d3db0092b1ac892ef193ce9383abdf4ca", EMPTY),
    "mcurve p3": (0, "91f6dc4f8edf69e497072065abcd770cc088edc1797fe02b4f1717a141d2671e", EMPTY),
    "mcurve wang-oscillatory": (0, "580df23576d309e04aea8eac40c174315545df8be40e6bdbdfb8f8b1679d2441", EMPTY),
    "simulate p1": (0, "205595f02d8d6555a3bd7f84e61b1395ec702e091b122faa910302737ecca4e3", EMPTY),
    "simulate p2": (0, "8f376e67bcc50e95be95f7bba8601bbc53c85b26833568d7b0366fad9d87b084", EMPTY),
    "simulate p3": (0, "d6a84bf286a2bac71be9f29d6f5c9d24899a2a62e08fb3e9f79436617d0cfffa", EMPTY),
    "simulate wang-oscillatory": (0, "437c9afc36d3bc4df4d26adb51749a9855aec3b69cc3df614aa4719d1d072482", EMPTY),
    "simulate --disturb p1": (0, "9a631ec314014f1909efb91e8ea3d77762e77c2478d704ef76c9597e03055b41", EMPTY),
    "simulate --disturb p2": (0, "a28b2de29c6b1c15ef4d38f290a2d07c7c78bc7f1119522a347fe1f9bf71671f", EMPTY),
    "simulate --disturb p3": (0, "79436bf9b253d3193aab8e64546e52243539ab258f4863e2cfdb00e8bbca1a45", EMPTY),
    "simulate --disturb wang-oscillatory": (0, "53a6f70ed5b28cc65ee11ae8d040a7ada042b542ae19dceca5453e09de7b0374", EMPTY),
    "inverse p1": (0, "791e71005cedac15e975bbda2d6a28167f6f97dcb786c166564a23eb3c4e4289", EMPTY),
    "inverse p2": (0, "032d9b82c75ab28bbbb6eeb93e65686a8eced8de7cfea910af5b952860f1aba0", EMPTY),
    "inverse p3": (0, "aefb266a01e40a51f9b7020600a3cc436a87641d0777c34f2e77bf5738beacab", EMPTY),
    "inverse wang-oscillatory": (0, "9ae3672b41dfce18de03a4495a7fdbe6e2c1ba5dc886bf6b2493a4f73e076104", EMPTY),
    "tune p1": (0, "e71df36d1ace9bf01f1447b3eafeddca1d6dd000056566004589395450f35969", EMPTY),
    "tune p2": (0, "1b2f34316be5ae10d5263caff88536889304d0beef62926c2bd82ae0f28a05c9", EMPTY),
    "tune p3": (0, "51f9358de034a664569f38ed9e84e36a0ef9f62f3920f9aa6ebc062208f0f595", EMPTY),
    "tune --refine p1": (0, "56b2147c87c28a68db6d9f8c73a3afa887e32d966b8c5c9d0c45274d6dcff2c7", EMPTY),
    "tune --refine p2": (0, "a48c3c3861e2ac60913f6a660e2187c116a09aade4f36a571b2b6187ffd730e1", EMPTY),
    "tune --refine p3": (0, "4bb95b5577a01c03a8c27686e5d26484c7972939720891e8c262b76503973b3c", EMPTY),
    "simulate --compare p1": (0, "38f3d96c3ee5b215e5fd920b353377297607b77a0b17cdb1ddd49de887d73e88", EMPTY),
    "simulate --compare p2": (0, "acb07700b436d43812f874bf525c94bf419b21ec12e0f079de0b8ae535cd3f5f", EMPTY),
    "simulate --compare p3": (0, "6f40889709908b54a01392d4b135949977e8ca5e8901369383ca6bf0f2ca159b", EMPTY),
}

# tune at finer steps than the default 0.005, where the stage-2 search
# strides; recorded from the plain walk over every grid order
FINE_STEP_COMMANDS = {
    **{f"tune --q-step 0.0002 {p}": ["tune", "--preset", p, "--q-step", "0.0002"] for p in TUNED},
    **{f"tune --q-step 0.001 --refine {p}": ["tune", "--preset", p, "--q-step", "0.001", "--refine"]
       for p in TUNED},
}

FINE_STEP_GOLDEN = {
    "tune --q-step 0.0002 p1": (0, "42587336587b8f4e77558a0fd0a505dc7f21b4a1c800cbb604265bb6b8285b8a", EMPTY),
    "tune --q-step 0.0002 p2": (0, "9481fb30c72c1fd1bdae936c9313031f652a9149a7c3ef73a979e791d6e0dc96", EMPTY),
    "tune --q-step 0.0002 p3": (0, "50dc3f6aaaf95f8806f69f50f35d316530f7d9d9a05a8f4c8242b920b02f96f0", EMPTY),
    "tune --q-step 0.001 --refine p1": (0, "b5f56bf6d57864186b23322dc07bf1cf0bd0a83552294cfa86817a2ea201d13a", EMPTY),
    "tune --q-step 0.001 --refine p2": (0, "a48c3c3861e2ac60913f6a660e2187c116a09aade4f36a571b2b6187ffd730e1", EMPTY),
    "tune --q-step 0.001 --refine p3": (0, "2b37321c861b915de1ad935bf70a6ec87a25b02f804d0ec2148a0f31c3b7d4fe", EMPTY),
}

# SHA-256 of the file written by ``tune --preset p1 --out``
TUNE_P1_CSV = "6ec68347036ed1dc4d54b00d9d507a1d21b8099e1cf55528ef6d7a1e9ab791b0"


def _run(argv, cwd):
    env = dict(os.environ)
    src = str(Path(fracpid.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "fracpid.cli", *argv],
        capture_output=True,
        cwd=cwd,
        env=env,
        check=False,
    )
    return done.returncode, _sha(done.stdout), _sha(done.stderr)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("golden")
    csv = cwd / "tune-p1.csv"
    jobs = {**COMMANDS, **FINE_STEP_COMMANDS,
            "tune --out p1": ["tune", "--preset", "p1", "--out", str(csv)]}
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = dict(zip(jobs, pool.map(lambda argv: _run(argv, cwd), jobs.values())))
    results["tune --out p1 (file)"] = _sha(csv.read_bytes())
    return results


def test_golden_covers_every_command():
    assert len(COMMANDS) == 29
    assert set(GOLDEN) == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_preset_command_output_is_pinned(outputs, name):
    assert outputs[name] == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(FINE_STEP_COMMANDS))
def test_fine_step_tune_output_is_pinned(outputs, name):
    assert outputs[name] == FINE_STEP_GOLDEN[name]


def test_tune_out_csv_is_pinned(outputs):
    # stdout of ``--out`` equals the plain report; the CSV goes to the file
    assert outputs["tune --out p1"] == GOLDEN["tune p1"]
    assert outputs["tune --out p1 (file)"] == TUNE_P1_CSV

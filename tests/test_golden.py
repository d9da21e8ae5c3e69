"""Golden outputs: every CSV and the manifest of four CLI scenarios, by hash.

The CSV hashes were recorded from the per-bin implementation that preceded
the columnar pipeline, so any change in a printed cell shows here. The
manifest is hashed without its `versions` block and its echoed output
directory, which depend on the environment and the run, not on the
computation. Its hashes were re-recorded when the periodicity check became
exact: only the `max_error` of the `periodicity_z*` checks changed, to 0.0.
"""

import hashlib
import json

import pytest

from zetaspectra.cli import main

GOLDEN = {
    (): {
        "peaks.csv": "32c74a074d3cce711cdbf98db7285fde126f39dd9916b489b6515d15d87c65bf",
        "pnt.csv": "a2b15bc8ca92f3ecc5a7055c958c3bce65cbefadea4a2d4a538369f8df0bc053",
        "ratios.csv": "63fe7cbffb0a42e47652376312c495a7a06051b48e36265c0b43952a5d96fc4d",
        "recon.csv": "8408c382dc29909b3a050e85c4c4c75cda34b8ffa5f07bffcfc807c794b41e1a",
        "series.csv": "7ae6b5007396397943f36409028b064321d3a2169bad343576f17f5179fde89c",
        "spectrum.csv": "9972bc0f534fcc21b9f0b2b87bfa7ebe94c37bf25dd4ad0f019032fc2ca2899c",
        "spiral.csv": "d23b0413d6196e6c50d97a61c4ef564382dd56199a87e7836c29aed0d36887a1",
        "manifest.json": "2325bce8c73a345ec31d0bb3eebbe0b4c77ab10904979e9ce2ef985ca1c79b29",
    },
    ("--source", "synthetic", "--gap", "10"): {
        "peaks.csv": "f510111c1f28069862301cbffbe4abc20dbaafea6e66be5c5fdc1e3e3fd3d7a2",
        "pnt.csv": "a2b15bc8ca92f3ecc5a7055c958c3bce65cbefadea4a2d4a538369f8df0bc053",
        "ratios.csv": "f4d071af5c53655cbcb60084666bce4df59224e3cf7aca5641670593b67e10e0",
        "recon.csv": "cfd14e841553f042d9b0d3e3c8c090e3557d45b0cfbe91125f22f51140bb02ec",
        "series.csv": "df00cdf1d0120f98610e0d0adb9d52fee6028d7d66d49fba2d1acfa0eda2a384",
        "spectrum.csv": "7cd517a4db929708375eb23b6c0be38f5df9801ed23187daa993dad2b319d6dd",
        "spiral.csv": "523a757056920a5f2aeabbf976d131fd4f519414f9a6a7ca0003ceb3f2cbdaa8",
        "manifest.json": "cce57da562013be185498eb8c4e6178a1f3d3318af96c2fd0d132455c356bb55",
    },
    ("--source", "primes", "--limit", "1000"): {
        "peaks.csv": "b68ae6ec3f291ccdad0c8d46d04a052dda4134b3f3c6fc485d5649a9a2d28677",
        "pnt.csv": "a2b15bc8ca92f3ecc5a7055c958c3bce65cbefadea4a2d4a538369f8df0bc053",
        "ratios.csv": "124e8c7e0be6acf1e286919f2c7d4a952ace50a841c7a474da7fee552bd3cbf4",
        "recon.csv": "574e40bb12d015cdc11146be98346a4790d6e7fbd0234acd6e7dbd0e2b16ac57",
        "series.csv": "d0c6f7dcffebeb1847b581188eb06100bcfec57d00f8bb66de68f00494fc115a",
        "spectrum.csv": "a8852e9c349db5bee5951214b22943d5cad39d8e833843ac19583060f6186f89",
        "spiral.csv": "54fb8461c7a23c1dd714e5b729cf10238ba48ee4aefc71909eb0aebeb688e3ad",
        "manifest.json": "8bac1316bd2b3aeb97e471ad55c3a2b9497792be1bb2591f2af1baa7bc081ac8",
    },
    ("--t-max", "1000"): {
        "peaks.csv": "01a4d6be809de9dec7a0baddd82044cc30bbfb09e93abe79b1cdb988d1afbd1c",
        "pnt.csv": "a2b15bc8ca92f3ecc5a7055c958c3bce65cbefadea4a2d4a538369f8df0bc053",
        "ratios.csv": "eabd26515c6f9509770d9c336da4cee30b78eeba82ebcbeac461fee6b8e4f21c",
        "recon.csv": "8b64d8ee2517d18cec613370c3dcc4569a6587a666f2eefd2a08271af1324980",
        "series.csv": "bbb1c4355c2e0386288b47abd4da9b74deaefb587fb9aa2863448805c8564f00",
        "spectrum.csv": "eb161d73ab2c39ad5d5e2ce997391d6d1c9ce5d9727ad99d8718cd779979bcf6",
        "spiral.csv": "10594c67defb0909afef0842c7b229a22291e9503de91ebcd1e577c7b8692771",
        "manifest.json": "a6d11d6f5bb688e413799a80f9c3456946b5c9a469f3da5aae084d725815d1df",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("args", list(GOLDEN),
                         ids=lambda args: " ".join(args) or "default")
def test_outputs_match_golden_hashes(args, tmp_path):
    assert main(["run", *args, "--out", str(tmp_path)]) == 0
    got = {p.name: sha256(p.read_bytes()) for p in tmp_path.glob("*.csv")}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    del manifest["versions"]
    del manifest["config_echo"]["out_dir"]
    got["manifest.json"] = sha256(json.dumps(manifest, indent=2).encode())
    assert got == GOLDEN[args]

"""Byte-exact outputs of one small run with every writer on.

``perturbed_sphere(-0.7)`` at dt = 4e-3 loses the maximum principle for two
steps, so S takes both signs and ``s_minus_decay`` reduces some snapshots
and reads lhs 0 on the rest.  The run snapshots every step, checkpoints
every 40, plots, and checks exponents up to ``inf``; its ``monitors.csv``
is longer than one block of the CSV writers.  The sha256 of every file it
writes is pinned, so a change to a writer, a monitor or the step shows as
the file it changed.  The hashes were taken with numpy 2.4 on x86-64.
"""
import hashlib

from yflow.cli import main

CFG = """\
profile.name = perturbed_sphere
profile.eps = -0.7
grid.M = 64
flow.T = 0.6
flow.dt_init = 4e-3
flow.dt_max = 4e-3
flow.snapshot_every = 1
flow.checkpoint_every = 40
monitors.p = 2,3,inf
monitors.samples = 4
output.plots = true
"""

SHA256 = {
    "timeseries.csv": "cf0ae2fb57544917fea39e8c2ce746971e98f5f4b74d7aef513198e574a80fa8",
    "monitors.csv": "2afc08814911d072e8599171abee96398d784164670f2a850290515b18348658",
    "ledger.txt": "d22a4b9d4c889fd40c91acd2894542f1d72459da361415adeb10a6228975f818",
    "step00000040.ckpt": "9b48735302d21a3d599227b5fa9f595fbc669d4aa6e418fcf413b3a70c93a853",
    "step00000080.ckpt": "ea0a35a9fd08fa0efe163985bfb03476ccdccd65cece7773a5ee13da5a3ac128",
    "step00000120.ckpt": "a74191664247b58cc23cf6116e903ad1c535332f712bbccaa36b9856a35d1558",
    "plots/energy_S_rho.svg": "3ee3b26da89d46454a7a7c1688d919d9e55af2c5a86609e592b9739492252faa",
    "plots/max_S.svg": "02b649b9aafeb61c0dc84c7ed1cf354c0022ef9b0b420c72a160d6f55590b377",
    "plots/max_u.svg": "059b581d1ef0d6b27433b8c24f40d9909bdf1b08c23251dc2e47f5b751d05f28",
    "plots/min_S.svg": "6254ec9e58f268fdab6a26e8cba9d8ea4ed8b9bf51ea87472193f23309c69043",
    "plots/min_u.svg": "7ba14c703a30c4c38c20cd3e37d7b96ffa1b5d625303db48f4b1b6b2c8a08d4d",
    "plots/rho.svg": "8aaa3f230d164b9d3e2e3b5cec35dd4b9a1cedb5c75de9184da89475e771d62a",
    "plots/vol.svg": "6ed1ec81b52d0968538a460cc867ca74f672fded9121559f5cc9d3440d4ed9cb",
}


def test_every_output_file_is_byte_identical(tmp_path):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(CFG)
    out = tmp_path / "out"
    # S < 0 on two steps fails s_minus_decay, and E rises early (energy_decay)
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    assert written == sorted(SHA256)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in written}
    assert digests == SHA256

"""Extension (§5 complementarity): difference-based updates through MNP.

The paper notes MNP is complementary to difference-based approaches like
Reijers & Langendoen's: sender selection and loss recovery carry *any*
data object.  This bench ships a small firmware fix both as the whole new
image and as an edit script, on identical networks.

Shape claims: the script is a small fraction of the image; completion
time, data transmissions, and energy all shrink accordingly; and every
node's reconstructed image is byte-identical to v2.
"""

from repro.experiments.extensions import delta_vs_full, update_report

from conftest import save_report


def test_ext_delta_updates(benchmark):
    full, patch, verified = benchmark.pedantic(
        delta_vs_full, kwargs={"rows": 8, "cols": 8, "n_segments": 3,
                               "change_bytes": 64, "seed": 1},
        rounds=1, iterations=1,
    )
    report = update_report([full, patch])
    report += f"\nreconstruction verified on all nodes: {verified}"
    save_report("ext_delta_updates", report)

    assert verified
    assert full.coverage == 1.0 and patch.coverage == 1.0
    # A 64-byte fix to an ~8.8 KB image: the script is tiny...
    assert patch.deployment.image.size_bytes < \
        0.2 * full.deployment.image.size_bytes
    # ...and the whole update gets proportionally cheaper.
    assert patch.completion_s < full.completion_s
    assert patch.data_tx < 0.5 * full.data_tx
    assert patch.mean_energy_nah < full.mean_energy_nah

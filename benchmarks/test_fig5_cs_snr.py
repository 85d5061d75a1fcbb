"""Fig. 5 — averaged reconstruction SNR vs. compression ratio.

Paper: single-lead CS reaches the 20 dB "good quality" level at
CR = 65.9 %, multi-lead (joint) CS at CR = 72.7 %; the multi-lead curve
dominates.  Shape criteria asserted: SNR falls with CR for both curves,
the ML curve beats SL at high CR, and its 20 dB crossing is strictly
higher.  Absolute crossings differ from the paper (synthetic corpus vs.
MIT-BIH); EXPERIMENTS.md records both.
"""

from __future__ import annotations

import numpy as np

from conftest import print_table
from repro.compression import (
    CsDecoder,
    CsEncoder,
    JointCsDecoder,
    MultiLeadCsEncoder,
    TreeCsDecoder,
    reconstruction_snr_db,
    snr_crossing_cr,
    sparse_binary_matrix,
)

WINDOW = 512
CRS = (40.0, 50.0, 55.0, 60.0, 65.0, 70.0, 75.0, 80.0, 85.0)
START_OFFSET = 500  # skip the synthesis lead-in
WINDOWS_PER_RECORD = 10


def _windows(record):
    sig = record.signals
    n_avail = (sig.shape[1] - START_OFFSET) // WINDOW
    for w in range(min(n_avail, WINDOWS_PER_RECORD)):
        lo = START_OFFSET + w * WINDOW
        yield sig[:, lo:lo + WINDOW]


def sweep(corpus) -> dict[str, np.ndarray]:
    """Run the full Fig. 5 sweep; returns the two SNR curves.

    Each CR's multi-lead windows decode in one batched
    ``recover_batch`` call (per-window ``recover`` is covered by the
    compression unit tests).
    """
    segments = [seg for record in corpus for seg in _windows(record)]
    sl_curve, ml_curve = [], []
    for cr in CRS:
        sl_encoder = CsEncoder(n=WINDOW, cr_percent=cr, seed=3)
        sl_decoder = CsDecoder(sl_encoder.sensing)
        ml_encoder = MultiLeadCsEncoder(n_leads=3, n=WINDOW, cr_percent=cr,
                                        seed=100)
        ml_decoder = JointCsDecoder(ml_encoder.sensing_matrices)
        sl_values = [
            reconstruction_snr_db(
                seg[1], sl_decoder.recover(sl_encoder.encode(seg[1])).window)
            for seg in segments
        ]
        recoveries = ml_decoder.recover_batch(
            [ml_encoder.encode(seg) for seg in segments])
        ml_values = [
            np.mean([reconstruction_snr_db(seg[lead], recovery.windows[lead])
                     for lead in range(3)])
            for seg, recovery in zip(segments, recoveries)
        ]
        sl_curve.append(float(np.mean(sl_values)))
        ml_curve.append(float(np.mean(ml_values)))
    return {"cr": np.array(CRS), "sl": np.array(sl_curve),
            "ml": np.array(ml_curve)}


def test_fig5_snr_vs_cr(benchmark, cs_corpus):
    curves = benchmark.pedantic(sweep, args=(cs_corpus,), rounds=1,
                                iterations=1)
    sl_cross = snr_crossing_cr(curves["cr"], curves["sl"])
    ml_cross = snr_crossing_cr(curves["cr"], curves["ml"])
    rows = [(f"{cr:.0f}", sl, ml)
            for cr, sl, ml in zip(curves["cr"], curves["sl"], curves["ml"])]
    rows.append(("20dB-crossing", sl_cross, ml_cross))
    print_table("Fig. 5: averaged SNR [dB] over all records vs CR [%] "
                "(paper crossings: SL 65.9, ML 72.7)",
                ["CR", "Single-Lead CS", "Multi-Lead CS"], rows)

    # Shape criteria (DESIGN.md §3).
    sl, ml = curves["sl"], curves["ml"]
    assert sl[0] > sl[-1] and ml[0] > ml[-1]          # SNR falls with CR
    high = curves["cr"] >= 60.0
    assert np.all(ml[high] >= sl[high] - 0.5)          # ML dominates SL
    assert not np.isnan(sl_cross) and not np.isnan(ml_cross)
    assert ml_cross > sl_cross + 3.0                   # crossing gap


def _density_ablation(corpus) -> list[tuple]:
    """§IV-A claim: few non-zeros per column suffice."""
    rows = []
    record = corpus.records[0]
    segments = [seg[1] for seg in _windows(record)][:6]
    for d in (2, 4, 8, 12, 24):
        matrix = sparse_binary_matrix(WINDOW // 2, WINDOW, d,
                                      np.random.default_rng(5))
        decoder = CsDecoder(matrix)
        snr = float(np.mean([
            reconstruction_snr_db(seg,
                                  decoder.recover(matrix.matrix @ seg).window)
            for seg in segments
        ]))
        rows.append((d, snr, matrix.additions_per_window()))
    return rows


def test_matrix_density_ablation(benchmark, cs_corpus):
    rows = benchmark.pedantic(_density_ablation, args=(cs_corpus,),
                              rounds=1, iterations=1)
    print_table("Fig. 5 ablation: sensing-matrix density d at CR 50 % "
                "(mean over 6 windows)",
                ["d (ones/col)", "SNR [dB]", "adds/window"], rows)
    snrs = {d: snr for d, snr, _ in rows}
    # §IV-A / [16]: few non-zeros achieve close-to-optimal results —
    # the sparse designs (d <= 12) are at least as good as the densest
    # one, at a fraction of the encoder cost.
    for d in (4, 8, 12):
        assert snrs[d] > snrs[24] - 1.0, d
    # The node-side cost grows linearly with d (the reason to keep it low).
    adds = {d: a for d, _, a in rows}
    assert adds[24] == 6 * adds[4]


def _tree_ablation(corpus) -> list[tuple]:
    """§IV-A structure claim: the connected-tree model vs plain l1."""
    record = corpus.records[0]
    segments = [seg[1] for seg in _windows(record)][:6]
    rows = []
    for cr in (55.0, 70.0):
        encoder = CsEncoder(n=WINDOW, cr_percent=cr, seed=3)
        l1 = CsDecoder(encoder.sensing)
        tree = TreeCsDecoder(encoder.sensing)
        l1_snr = float(np.mean([
            reconstruction_snr_db(seg, l1.recover(encoder.encode(seg)).window)
            for seg in segments]))
        tree_snr = float(np.mean([
            reconstruction_snr_db(seg,
                                  tree.recover(encoder.encode(seg)).window)
            for seg in segments]))
        rows.append((f"{cr:.0f}", l1_snr, tree_snr))
    return rows


def test_tree_structured_ablation(benchmark, cs_corpus):
    rows = benchmark.pedantic(_tree_ablation, args=(cs_corpus,), rounds=1,
                              iterations=1)
    print_table("Fig. 5 ablation: connected-tree model (ref [17]) vs l1",
                ["CR [%]", "l1 SNR [dB]", "tree SNR [dB]"], rows)
    # The tree prior stays competitive everywhere (the §IV-A argument is
    # about rejecting isolated artifacts, not raw SNR dominance).
    for _, l1_snr, tree_snr in rows:
        assert tree_snr > l1_snr - 3.0

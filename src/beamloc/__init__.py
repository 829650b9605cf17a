"""Adaptive, sparsity-aware, integer-only Transformer localization model.

A bit-accurate software model of a heterogeneous vector-engine pipeline
for massive-MIMO beam-delay localization: Q8.8 fixed-point substrate,
synthetic channel generation and preprocessing, row-skip sparsity, a
scenario router with windowed voting, float and integer inference engines
with LUT-based attention activations, and a closed-form cycle-cost model.
"""

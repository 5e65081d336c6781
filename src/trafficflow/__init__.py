"""Decentralized short-term traffic congestion prediction.

Pipeline: ingest detector speed series (or synthesize traffic), window them
into spatio-temporal point snapshots, train a small CNN or stacked LSTM
with a congestion-weighted Euclidean loss, evaluate daily RMSE, and replay
predictions through a decentralized per-node simulation.
"""

__version__ = "0.1.0"

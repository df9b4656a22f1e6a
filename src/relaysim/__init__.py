"""relaysim: correlated massive MIMO relay uplink with low-resolution ADCs.

Library layout:

- correlation: exponential correlation matrices, closed-form spectra, norms
- channel:     path loss and correlated Rayleigh sampling, RNG substreams
- quantizer:   AQNM constants, quantization map, Lloyd-Max reference
- estimation:  LMMSE pilot estimation, closed-form MSE, equivalent forms
- config:      scenario description and model building
- analysis:    closed-form per-user rate terms, asymptotics, moment oracles
- link:        Monte Carlo trial engine and ergodic-rate estimator
- validate:    self-check suite backing the CLI validate subcommand
- cli:         relaysim command-line entry point
"""

__version__ = "0.1.0"

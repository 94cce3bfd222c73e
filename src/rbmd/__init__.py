"""Risk-budgeting portfolios by tamed mirror descent.

Subpackages:
  risk_loss       loss functions behind each supported risk measure
  market_models   Student-t mixture market model and semi-analytic VaR/ES
  market_batch    array twins of the market_models kernels, for many portfolios
  rb_solver       objective, tamed gradient, reference portfolios, diagnostics
  mirror_descent  DMD/SMD engines and projected-SGD baselines
  bench_cli       config-driven benchmarking front end
"""

__version__ = "0.1.0"

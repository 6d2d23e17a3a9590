"""Walk through the sLSTM cell: exponential gating, the normalizer state,
and why the log-space stabilizer matters.

Run:  python3 demos/cell_basics.py
"""

import numpy as np

from pslstm.cells import GateMode, SLSTMParams, slstm_forward
from pslstm.tensorops import Rng

rng = Rng(0)
params = SLSTMParams.init(rng, d_input=3, d_hidden=8, n_heads=2)
x = rng.normal((1, 20, 3), 0.0, 1.0)

# In the benign regime raw and stabilized arithmetic agree to rounding.
h_raw, _ = slstm_forward(params, x, None, GateMode(stabilized=False))
h_stab, _ = slstm_forward(params, x, None, GateMode(stabilized=True))
print("benign regime, |h_raw - h_stab| sup:",
      np.max(np.abs(h_raw - h_stab)))

# Push the forget pre-activations up and raw exponentials overflow fast,
# while the stabilized cell keeps producing finite hidden states.
gates = params.gates()
gates["b_f"] = np.full(8, 40.0)
params = SLSTMParams.from_gates(gates, n_heads=2)
with np.errstate(over="ignore", invalid="ignore"):
    h_raw, _ = slstm_forward(params, x, None, GateMode(stabilized=False))
h_stab, _ = slstm_forward(params, x, None, GateMode(stabilized=True))
print("hot regime, raw finite:", bool(np.all(np.isfinite(h_raw))),
      "| stabilized finite:", bool(np.all(np.isfinite(h_stab))))

# The recurrent matrices are block-diagonal: memory mixing happens inside a
# head, never across heads. Only the blocks are stored, one (s, 4s) block
# per head holding all four gates.
print("recurrent blocks (heads, s, 4s):", params.R.shape,
      f"- {params.R.size} stored entries, not 4 x 8 x 8 = {4 * 8 * 8}")

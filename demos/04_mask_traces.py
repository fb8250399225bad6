"""Deterministic stack/buffer masks, step by step.

The token prefix alone determines which words sit in the parser's stack
and which wait in the buffer, so a model's cross-attention heads can be
hard-masked to see only one side.  A constituent on the stack is
represented by its lowest word position; the other member positions go
dark until a later step frees them.  Each side of a mask pair is one
int with bit p set for word p, the same form a constituent's yield
takes.

Run: python3 demos/04_mask_traces.py
"""

import numpy as np

import discoseq as dq
from discoseq.neural.model import mask_rows

scheme = dq.parse_scheme("inorder+swap")
tree = dq.parse_discbracket("(S (VP 0=a 2=c) 1=b)")
tokens = dq.encode(tree, scheme)
n = len(tree.sentence)


def fmt(bits):
    return "{" + ",".join(str(p) for p in range(n) if bits >> p & 1) + "}"


print("tree:", dq.emit_discbracket(tree))
print("\nstep  token      stack      buffer")
trace = dq.trace(n, tokens, scheme)
for step, pair in enumerate(trace):
    token = dq.format_transitions(tokens[step - 1:step]) if step else "-"
    print(f"{step:>4}  {token:<9}  {fmt(pair.stack):<9}  {fmt(pair.buffer)}")

# The model keeps the masks as packed bits, one per column, and adds
# them to attention scores as rows of 0.0 (visible) and -inf (hidden);
# column 0 is a sentinel that both heads always see.
bits = mask_rows(trace[-1:], n)
visible = np.unpackbits(bits, axis=-1, count=n + 1, bitorder="little")
stack_rows, buffer_rows = np.where(visible, 0.0, -np.inf)
print("\nfinal stack row: ", stack_rows[0])
print("final buffer row:", buffer_rows[0])

# Stepping past FINISH (or applying any inconsistent token) raises.
state = dq.initial_state(n, scheme)
for token in tokens:
    state = dq.step(state, token)
try:
    dq.step(state, dq.parse_transition("SHIFT"))
except dq.IllegalTransition as exc:
    print("\nstep after FINISH:", exc)

# A REDUCE collapses its members into one representative, shrinking
# the visible stack set without touching the buffer.
before = dq.trace(n, tokens[:5], scheme)[-1]
after = dq.trace(n, tokens[:6], scheme)[-1]
print(f"\nREDUCE at step 6: stack {fmt(before.stack)} -> {fmt(after.stack)}")

"""Decoding never fails: repair rules for malformed token sequences.

A model predicting tokens freely can emit anything, so the decoder
patches sequences instead of rejecting them: illegal tokens are dropped
or clamped, missing structure is closed off, leftover words are adopted
by a ROOT constituent.  Every repair is reported with its step and rule.

Run: python3 demos/03_decode_and_repairs.py
"""

from collections import Counter

import discoseq as dq

scheme = dq.parse_scheme("inorder+swap")
sentence = ("the", "dog", "ran")


def show(label, tokens):
    result = dq.decode(sentence, dq.parse_transitions(tokens), scheme)
    print(f"{label}: {tokens!r}")
    print("   tree:   ", dq.emit_discbracket(result.tree))
    for repair in result.repairs:
        print(f"   repair:  {repair.rule} at step {repair.step}: {repair.detail}")
    print()


# The gold sequence decodes clean.
gold = dq.encode(dq.parse_discbracket("(S (NP 0=the 1=dog) 2=ran)"), scheme)
show("gold", dq.format_transitions(gold))

# An illegal token at the front (nothing to reduce yet) is skipped.
show("illegal prefix", "REDUCE SHIFT NT(S) SHIFT SHIFT REDUCE FINISH")

# Truncated input: open constituents are closed and stragglers adopted.
show("truncated", "SHIFT NT(NP) SHIFT")

# An empty sequence still yields a tree, under a ROOT constituent.
show("empty", "")

# Out-of-range parameters are clamped to the nearest legal value.
shiftk = dq.parse_scheme("inorder+shiftk")
result = dq.decode(sentence, dq.parse_transitions("SHIFT#9 NT(S) SHIFT#0 SHIFT#0 REDUCE FINISH"), shiftk)
print("clamped:", dq.emit_discbracket(result.tree))
for repair in result.repairs:
    print(f"   repair:  {repair.rule} at step {repair.step}: {repair.detail}")

# Repair statistics over a whole file are a Counter over decode results.
bank = dq.bundled("toy20.discbracket")
seqs = [dq.encode(t, scheme) for t in bank]
seqs[3] = seqs[3][:5]  # sabotage one
results = [dq.decode(t.sentence, seq, scheme) for t, seq in zip(bank, seqs)]
rules = Counter(repair.rule for result in results for repair in result.repairs)
repaired = sum(bool(result.repairs) for result in results)
print(f"\nbatch: {len(results)} trees, {repaired} repaired,"
      f" rules {dict(sorted(rules.items()))}")

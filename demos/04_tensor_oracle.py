"""Closed-form values against the tensor product-state model.

Run:  python demos/04_tensor_oracle.py
"""

from rookchar import (
    TensorEmbedding,
    enumerate_rn,
    make_state,
    model_from_state,
    okounkov_check,
    parse_element,
    phi_closed_form,
    phi_model,
)
from rookchar.tensor_model import ModelParams

# Full spectral mass (no regular block needed): alpha = 2/3, beta = 1/3,
# marked vector split half-and-half between alpha_1 and a kernel coordinate.
# Building the parameters checks conditions (a)-(f); a failing set raises.
params = ModelParams.of(["2/3", "-1/3", "0", "0"], ["1/2", "0", "1/2", "0"], [], 4)

embedding = TensorEmbedding(params)
print(f"tensor dimension: {params.d}^{params.slots} = {embedding.dim}")
worst = 0.0
for r in enumerate_rn(3):
    exact = phi_closed_form(params, r)
    model = phi_model(embedding, r)
    worst = max(worst, abs(float(exact) - model))
print("max |closed form - tensor model| over R_3:", worst)

for lit in ["(1 2)", "(1 2)e{1}", "(1 2 3 4)e{1}e{3}", "e{1}e{2}"]:
    r = parse_element(lit)
    print(f"  {lit:18s} closed {str(phi_closed_form(params, r)):>8s}  tensor model {phi_model(embedding, r):.12f}")

# Any state of the family has a model whose closed form matches it exactly.
state = make_state(alpha=["1/2", "1/3"], beta=["1/6"], mark=(1, "1/2"))
bridge = model_from_state(state, slots=4)
print("\nbridged params:", bridge.to_json())

# Transposition images stabilize immediately on the truncated model: every
# admissible slot already realizes the weak limit.
report = okounkov_check(embedding, 1, parse_element("e"), parse_element("e"))
print("\nOkounkov target:", report.target)
print("values by far slot:", dict(report.values))
print("max deviation:", report.max_deviation)

"""A tour of the reverse-mode autodiff core.

The tensor engine is deliberately small: float64 arrays, a fixed op
catalogue (enough for the CNN + LSTM + loss), a backward pass that
returns a gradient per leaf parameter, central-difference gradient
checking, and momentum SGD.

Run from the repository root:  python demos/03_autodiff_and_gradients.py
"""

import numpy as np

from evpose import autodiff as ad

rng = np.random.default_rng(0)

# --- building blocks -----------------------------------------------------
x = ad.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
w = ad.parameter(np.array([[1.0], [1.0]]))
y = ad.matmul(x, w)
print("matmul forward:", y.data.ravel().tolist())

loss = ad.sum_all(ad.mul(y, y))
grads = ad.backward(loss, params=[x, w])
print("d(sum(y^2))/dw:", grads[w].ravel().tolist())

# --- gradient checking ---------------------------------------------------
# The same central-difference harness the acceptance suite runs against
# the full network: max relative error per coordinate.
a = ad.parameter(rng.standard_normal((3, 3)))


def f(params):
    z = ad.tanh(ad.matmul(params[0], params[0]))
    return ad.l2norm(z)


print("grad_check on tanh(A@A):", f"{ad.grad_check(f, [a], eps=1e-5):.2e}")

# --- dropout is seeded and reproducible ----------------------------------
v = ad.tensor(np.ones((1, 8)))
mask_a = ad.dropout(v, 0.5, seed=7).data
mask_b = ad.dropout(v, 0.5, seed=7).data
print("dropout(seed=7) twice:", mask_a.ravel().tolist())
assert np.array_equal(mask_a, mask_b)
print("rate 0 returns its input:", ad.dropout(v, 0.0, seed=7) is v)

# --- momentum SGD on a tiny least-squares problem ------------------------
# minimize ||A theta - b||^2 with the same update rule training uses:
# g' = g + weight_decay * theta;  v = momentum * v + g';  theta -= lr * v
a_mat = rng.standard_normal((10, 3))
b_vec = a_mat @ np.array([1.0, -2.0, 0.5]) + 0.01 * rng.standard_normal(10)
theta = ad.parameter(np.zeros((3, 1)))
state = ad.make_opt_state([theta], lr=0.02, momentum=0.9, weight_decay=0.0)
a_t = ad.tensor(a_mat)
b_t = ad.tensor(b_vec.reshape(10, 1))
for step in range(120):
    residual = ad.sub(ad.matmul(a_t, theta), b_t)
    objective = ad.sum_all(ad.mul(residual, residual))
    ad.sgd_step([theta], ad.backward(objective, params=[theta]), state)
    if step % 40 == 0 or step == 119:
        print(f"step {step:3d}: objective {float(objective.data):.5f}")
print("recovered coefficients:", theta.data.ravel().round(3).tolist())

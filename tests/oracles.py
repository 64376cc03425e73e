"""Independent reference implementations used only by the tests.

These deliberately avoid the library's own code paths: the triangle
counter is the fully naive triple loop, and the series expander builds
coefficients by multiplying truncated geometric series instead of
dividing out one part at a time with the library's running sums.
"""


def naive_triangle_count(n: int) -> int:
    """Count sorted side triples by brute force over all candidates."""
    count = 0
    for x in range(1, n + 1):
        for y in range(1, x + 1):
            for z in range(1, y + 1):
                if x + y + z == n and y + z > x:
                    count += 1
    return count


def naive_series_coeffs(parts, num_coeffs, upto: int) -> list[int]:
    """Coefficients of num(q) * prod_b (1 + q^b + q^2b + ...) up to q^upto."""
    acc = [0] * (upto + 1)
    for i, c in enumerate(num_coeffs[: upto + 1]):
        acc[i] = int(c)
    for b in parts:
        out = [0] * (upto + 1)
        for k in range(0, upto + 1, b):
            for i in range(0, upto + 1 - k):
                out[i + k] += acc[i]
        acc = out
    return acc


# Triangle counts for perimeters 0..12, frozen from naive_triangle_count.
ALCUIN_PREFIX = [0, 0, 0, 1, 0, 1, 1, 2, 1, 3, 2, 4, 3]

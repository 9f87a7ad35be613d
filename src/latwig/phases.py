"""The phase table as plain Python floats and the candidate's integer exponents, with no numpy.

Every phase of the package is read from one table, omega^(k/2) =
exp(i*pi*k/N) for the doubled exponents k = 0..2N-1 (:func:`half_omega`).
:mod:`latwig.operators` holds it as numpy arrays for the audits and the
transforms; the ``fano`` artifact is rendered from these floats directly,
so that a ``fano`` run loads no numpy. Entry k is the cos and sin of
(pi*k)*(1/N), the bits of numpy's ``np.exp(1j*np.pi*np.arange(2*N)/N)``:
numpy's complex128 division by N multiplies by the reciprocal, and its
exp of an imaginary angle is the cos and sin of the angle. Python's
``pi*k/N`` instead moves 415,821 of the 2,006,004 floats for N = 1..1001.

The candidate table's support value a~(s,t;t,s) is omega^(k/2)/N^2 at the
doubled exponent k of :func:`candidate_exponent`, and its operators are
the closed form of :func:`operator_values`, indexed by the exponent of
:func:`twist_exponent`.
"""

import math


def half_omega(n):
    """omega^(k/2) for k = 0..2N-1 as two tuples of floats: its real and its imaginary parts.

    Each is the cos or sin of (pi*k)*(1/N), so that these are numpy's
    ``np.exp(1j*np.pi*np.arange(2*N)/N)`` to the bit; omega^j is entry 2j.
    """
    step = 1 / n
    angles = [(math.pi * k) * step for k in range(2 * n)]
    return tuple(map(math.cos, angles)), tuple(map(math.sin, angles))


def candidate_exponent(s, t, n):
    """The doubled exponent -s*t*(N+1) mod 2N of the candidate's support value a~(s,t;t,s).

    The value is omega^(k/2)/N^2 at this k: the exponent -s*t*(N+1)/2 is a
    half-integer only where N is even. Python ints or int64 arrays broadcast
    together; with s, t < N no int64 product overflows for N below 2,000,000.
    """
    return -s * t * (n + 1) % (2 * n)


def twist_exponent(k, x, n):
    """The doubled exponent e = (2x - k(N+1)) mod 2N that fixes the candidate's twist table F[k, x].

    F[k,x] = sum_s omega^(s*x) a~(s,k;k,s) = (1/N^2) sum_s z^s with
    z = exp(i*pi*e/N), since the support value has the doubled exponent
    -s*k*(N+1) and omega^(s*x) the doubled exponent 2*s*x.
    """
    return (2 * x - k * (n + 1)) % (2 * n)


def operator_values(n):
    """The values omega^m F[k, x] of the candidate's operators, as ``{(m, e): (re, im)}``.

    The operators of the candidate are D(q,p)[i,j] = omega^(p*k) F[k, x] at
    k = j - i, x = j - q, and entry [i, j] is the value at m = p*k mod N and
    the :func:`twist_exponent` e of F[k, x]. The geometric sum there gives
    three cases:

    - e = 0: z = 1, every term is 1, and F = N/N^2 = 1/N.
    - e even, e != 0: z != 1 and z^N = exp(i*pi*e) = 1, so the sum
      (1 - z^N)/(1 - z) is 0; no key holds such an e.
    - e odd: z^N = -1, so F = 2/(N^2 (1 - z)), and as
      1/(1 - exp(i*theta)) = (1 + i*cot(theta/2))/2,
      F = (1 + i*cot(pi*e/(2N)))/N^2.

    e has the parity of k(N+1), so it is odd only for odd k at even N.
    Every other row k has e = 0 at exactly one x in [0, N), x = k(N+1)/2
    mod N, and zeros elsewhere: for odd N, D(q,p) is the displaced parity
    (1/N) delta(i + j = 2q mod N) omega^(p*(j-i)) (Wootters, Ann. Phys.
    176, 1 (1987)). An odd row has no zero.

    omega^m / N is each part of omega^m times 1/N, as numpy divides a
    complex128 by N. On an odd row the product is written in real
    arithmetic, with cot taken at an angle in (-pi/2, pi/2), where it is
    accurate, from libm's tan.
    """
    cos, sin = half_omega(n)
    scale = 1 / n
    odd = range(1, 2 * n, 2) if n % 2 == 0 else ()
    cots = {e: 1 / math.tan(math.pi * (e - 2 * n if e > n else e) / (2 * n)) for e in odd}
    values = {}
    for m in range(n):
        c, s = cos[2 * m], sin[2 * m]
        values[m, 0] = c * scale, s * scale
        for e, cot in cots.items():
            values[m, e] = (c - s * cot) / n**2, (s + c * cot) / n**2
    return values

"""Error norms published in the paper's tables, two significant digits.

Semilinear advection at N = 200 ... 1600 (theta = 6.0e-1, CFL 5.0e-1, snapshot at
t = 0.5) and viscous Burgers at dt divisors 1.0e0, 2.0e0, 4.0e0, 8 (N = 3.0e1, nu = 1.0e-2,
time-averaged over (0, 1.0e0]).  The benchmark checks values against these;
orders are checked against their nominal value instead.
"""
ADVECTION_RESOLUTIONS = (200, 4.0e2, 8.0e2, 1600)
BURGERS_DIVISORS = (1, 2.0e0, 4.0e0, 8)

SEMILINEAR = {
    "resolutions": ADVECTION_RESOLUTIONS,
    "l1": {
        "icn": [1.3e-4, 3.3e-5, 8.1e-6, 2.0e-6],
        "theta": [1.1e-3, 5.4e-4, 2.7e-4, 1.4e-4],
        "swapped": [1.1e-3, 5.3e-4, 2.7e-4, 1.3e-4],
        "ga": [1.4e-4, 3.5e-5, 8.7e-6, 2.2e-6],
        "aa": [1.3e-4, 3.3e-5, 8.2e-6, 2.1e-6],
    },
    "l2": {
        "icn": [1.1e-5, 2.0e-6, 3.5e-7, 6.1e-8],
        "theta": [9.2e-5, 3.2e-5, 1.1e-5, 4.0e-6],
        "swapped": [8.9e-5, 3.2e-5, 1.1e-5, 4.0e-6],
        "ga": [1.2e-5, 2.1e-6, 3.7e-7, 6.5e-8],
        "aa": [1.1e-5, 2.0e-6, 3.5e-7, 6.2e-8],
    },
    "linf": {
        "icn": [2.7e-4, 6.7e-5, 1.7e-5, 4.2e-6],
        "theta": [2.5e-3, 1.2e-3, 6.2e-4, 3.1e-4],
        "swapped": [2.5e-3, 1.2e-3, 6.2e-4, 3.2e-4],
        "ga": [2.9e-4, 7.2e-5, 1.8e-5, 4.5e-6],
        "aa": [2.7e-4, 6.8e-5, 1.7e-5, 4.3e-6],
    },
}

BURGERS = {
    "resolutions": BURGERS_DIVISORS,
    "l1": {
        "icn": [2.9e-7, 7.3e-8, 1.8e-8, 4.3e-9],
        "theta": [7.8e-5, 3.9e-5, 1.9e-5, 9.7e-6],
        "swapped": [7.8e-5, 3.9e-5, 1.9e-5, 9.7e-6],
        "ga": [4.7e-7, 1.2e-7, 2.9e-8, 7.1e-9],
        "aa": [3.4e-7, 8.5e-8, 2.1e-8, 5.0e-9],
    },
    "l2": {
        "icn": [9.0e-8, 2.3e-8, 5.6e-9, 1.3e-9],
        "theta": [2.0e-5, 1.0e-5, 5.0e-6, 2.5e-6],
        "swapped": [2.0e-5, 1.0e-5, 5.0e-6, 2.5e-6],
        "ga": [1.4e-7, 3.6e-8, 8.9e-9, 2.2e-9],
        "aa": [1.0e-7, 2.6e-8, 6.3e-9, 1.5e-9],
    },
    "linf": {
        "icn": [1.7e-6, 4.2e-7, 1.0e-7, 2.5e-8],
        "theta": [3.3e-4, 1.7e-4, 8.4e-5, 4.2e-5],
        "swapped": [3.4e-4, 1.7e-4, 8.4e-5, 4.2e-5],
        "ga": [2.7e-6, 6.7e-7, 1.7e-7, 4.0e-8],
        "aa": [1.8e-6, 4.6e-7, 1.1e-7, 2.7e-8],
    },
}

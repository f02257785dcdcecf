"""Acceptance instruments that drive the detector from outside: the
monotone-GD learning-rate calibration (criterion 2), the interleaved
forward timing (criterion 3), and a fresh interpreter to run them in."""

import os
import subprocess
import sys
import time

import numpy as np

import standbench
from standbench import stand
from standbench.data import WindowSet
from standbench.exceptions import ConfigError, ContractError
from standbench.ndcore import make_rng


def calibrate_gd_learning_rate(
    windows: WindowSet, config: stand.StandConfig, steps: int = 100, eta0: float = 1.0
) -> tuple[float, list[float]]:
    """Halve eta until `steps` full-batch GD iterations are loss-non-increasing.

    Returns the calibrated eta and its per-step loss history (length steps+1,
    including the initial loss).
    """
    if windows.labels is None:
        raise ContractError("calibration requires labeled windows")
    x = windows.values
    y = windows.labels.astype(np.float64)
    eta = eta0
    while eta > 1e-12:
        params = stand.init_params(config)
        history = []
        logits, trace = stand.forward_batch(x, params, config)
        history.append(stand.bce_loss(logits, y))
        monotone = True
        for _ in range(steps):
            grads = stand.backward(trace, y, params, config)
            params = stand.gd_step(params, grads, eta)
            logits, trace = stand.forward_batch(x, params, config)
            history.append(stand.bce_loss(logits, y))
            if history[-1] > history[-2]:
                monotone = False
                break
        if monotone:
            return eta, history
        eta *= 0.5
    raise ConfigError("could not calibrate a monotone GD learning rate")


def timing_probe(config: stand.StandConfig, lengths, repeats: int = 11, seed: int = 0) -> np.ndarray:
    """CPU seconds of single-window forwards, shape (repeats, len(lengths)).

    The clock is this process's CPU time, which other processes on the same
    cores do not inflate as they do wall time. Each round times one forward
    at every length, in an order that reverses from round to round, so every
    length samples the same phases of the machine. One untimed warm-up pass
    per length precedes the rounds.
    """
    rng = make_rng(seed)
    params = stand.init_params(config)
    inputs = [rng.standard_normal((T, config.input_channels))[None] for T in lengths]
    for x in inputs:
        stand.forward_batch(x, params, config)
    times = np.empty((repeats, len(lengths)))
    for r in range(repeats):
        order = range(len(lengths)) if r % 2 == 0 else reversed(range(len(lengths)))
        for j in order:
            t0 = time.process_time()
            stand.forward_batch(inputs[j], params, config)
            times[r, j] = time.process_time() - t0
    return times


def fresh_interpreter(code: str, *args: str, **env: str) -> str:
    """The stdout of ``code`` run with ``args`` in a new interpreter that can
    import this directory's modules, with no BLAS thread variable set but
    those given in ``env``."""
    env = {**{k: v for k, v in os.environ.items() if k not in standbench._BLAS_THREAD_VARS},
           **env}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.abspath(__file__)), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, env=env).stdout

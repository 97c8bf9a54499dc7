"""The lossless pipeline: a noiseless trial whose projection and network are identities.

No config draws such a trial; decode_identity_trial builds it from a
direct-mode trial by substituting A = I, Y = X^T, G = I and the
observation block X, which is what a noiseless transmission of the
all-on patterns through G = I delivers.  Its decode must then be exact.
"""

from dataclasses import replace

import numpy as np

from csnc.harness import build_trial, decode_trial
from csnc.netsim import TransferMatrix


def decode_identity_trial(cfg, index):
    """decode_trial's results on trial `index` of cfg, with the projection and every network made identities.

    cfg must be noiseless and all-on (case2-denseB), with m1 = n and m2 = N.
    """
    p = cfg.profile
    assert cfg.sigma == 0.0 and cfg.case == "case2-denseB" and (cfg.m1, cfg.m2) == (p.n, p.N)
    trial = build_trial(cfg, index)
    X = trial.ens.X
    trial = replace(trial, A=np.eye(p.n), Y=X.T, transfers=[TransferMatrix(np.eye(p.N))] * cfg.receivers,
                    observations=[X] * cfg.receivers)
    return decode_trial(cfg, trial)

"""A wide fixed-seed golden: generate, estimate_mu and the bound's score term at n=27, d=32.

The training goldens run at n=4, d=3, too narrow to notice a change in the
order in which the reverse sampler or the score batch consumes the random
generator across dimensions. These values were recorded from a seeded random
model and chain; a change meant to keep behaviour must reproduce the draws
exactly and the score term to rounding. The score term also pins the
bound's x_t draws, made by ``core.kernel_draw``: summing a kernel row in
another slot order maps a uniform to another state of the same distribution
and moves the term by Monte Carlo noise (its standard error is about 165
nats), while the draws of ``generate`` stay. The p0 estimate is pinned to
the byte: it spans two memory blocks and many cache chunks, so it sees any
change in the order of its running sum or of its final normalization.
"""

import hashlib

import numpy as np

from markov_bridge import FactorizedRateMatrix, NoiseSchedule, ProductDistribution, ScoreModel, estimate_mu, generate
from markov_bridge.evaluation import elbo_estimate

from oracles import random_chain_arrays

N, D = 27, 32
ALPHABET = "abcdefghijklmnopqrstuvwxyz_"

# generate(count=64, steps=4, eps_t=1e-3) with rng seed 11, one row per draw
GOLDEN_DRAWS = [
    "rn_wavwnffuhwxzcflwxmwwxq_vswhuj",
    "rnlmavdnffuhwcrcblwxowznl_tsrhhz",
    "rnemavdnffuhwyzcbmwxmdwnlpfhrhjj",
    "rnemavdnffuhwnzcnlwpmwwxl_iswhjz",
    "fnlmavdnfguiewzubmwxmwenl_fsrhjj",
    "rn_mavdiffuhwyzcbmwpcwwxl_fsrebi",
    "rn_lavdoffuhwczhblwxmrknqefsthoj",
    "rcemmvdnffuhxcqcfmwpmwwnl_izrhjz",
    "rn_mavdnfnuhwyzcbjwxmwwxllfhwzuj",
    "rn_wmvdzfhuhxnzcbmwxmycx__fsrhjz",
    "rn_mavdnfguhwyzcfmwxmwexq_rswwjz",
    "jn_mmvdzofu_wxzcbmkymwwhl_tsuhjj",
    "rnlmavtnffuhwnzcqlwsmwwnq_fsthjj",
    "rn_majdffguhwxzcbmwfmqknn_fswhjj",
    "rr_mavdnfnuhwyzcqmwxmqwhlpivweji",
    "rr_mv_dnftuhenzcbmwxmqwxl_fbrhji",
    "rr_mavdnfguheyzcbmwxadwnloiorhjj",
    "en_mavdnffuhwyucbmwxmwwxq_fswhja",
    "znemavdnfwuhwnvcfewxmwsxq_fsthhz",
    "rn_whvdnffuhwxzcfmwxmqwnl_f_rhjj",
    "rnlmavdnfguhwxzcbmwxnwwxq_frrejz",
    "rn_mavtnfguhwcncfmlxmwkhlqfhwhji",
    "rrquavdnffuheyzcbmwxmwwnl_i_rhjz",
    "rn_mavdnfguhwyzcqmkxjrwnq_tswhjj",
    "rn_mavonffuhwxzcfmwkmwkxt_lsrhkz",
    "rn_mavteffuawyucqmwxmasxlhfsrhjj",
    "rc_mavdnfguhwnzcbmwxmqwxl_iswhjz",
    "rn_mvvdnfguhwczcfmwxmwknlhfswhjz",
    "rnlwavdnfgj_wdzcbmwxmaknl_i_thjp",
    "jn_mavd_fgohwczcfjwxmwwnl_ihthjj",
    "rneqavwnfguhenzhbmwbmwwh__f_rhjj",
    "rj_mavdofguhwyuublwpmwwxl_fnwhhi",
    "rnemagd_ffuhjnzcbmdxmrcxqefsrhjj",
    "rn_baednfnuhzczufmkxmwwhlefowhjz",
    "rnemmvdnffuhwyvcfmwxmdwnl_isrhjy",
    "rc_mavdnffuheczcbmdxmwknl_iswhjz",
    "rrewavdnfguhwyzcsmwxmwwxl_fhwhjz",
    "rn_mmvdnffuhwnzcbmwxodwxn_fhwhhz",
    "rn_mavdxffuhknzcbmwkmqwxq_fsuhkj",
    "rc_ma_t_fgtheyzcbmwxmwwhl_imwhjj",
    "rn_mm_dofgjhwyzcbmwxmrwnlhfnwhoj",
    "rnemavdn_guiewzcflwfmwsxl_isghjj",
    "rn_mavdnftuhwxzcbmwxmwkklzfnweji",
    "rnsmavdnfguhwczcbmlxpwwhl_v_lhji",
    "rn_mavdnfftheyvcfmxpmawhl_fhrhjj",
    "fn_mavdnffjhwczcbmkxmwwnq_fsrhjj",
    "rn_mavdnfguhex_cbmkxmwwnl_fstmjj",
    "gn_mavon_njhwyzcbmwxmqwhl_isrhjj",
    "rr_mzvdoffuhwozcbmwpmwknl_fsrhjz",
    "rn_mavdzffudwxrcfmwxmwwxqhfhthji",
    "fnqmavtnfguhxxzcbmwxmwcxl_fhrhjj",
    "rn_ma_dnfguheczubmwknwwxlhfswhjz",
    "rn_ma_d_fguhwyzcbmwxmwkh__lsrhjj",
    "rn_mcvdoffthjczcnmwpmqwxl_fhrmbz",
    "rr_ma_dnfgjhwizcbmwxmqwxl_fmrzjz",
    "rn_mavdnftuhwczcbmwxmwwhlffsrhjy",
    "rn_mmvdnfgudwxzcbmdkmwwxlufnwhjj",
    "rn_mmvqnfgudwyzcbmwxmqkxl_isrwjz",
    "rn_mavonfguhewzcbmkxmqwnl_tsrhjm",
    "rcegavdnfguhwxuhbvwymwsxl_fswhjj",
    "rr_mavtnfgudwcucbmwxmqwhlffsrrjj",
    "ra_mavdnffjhwczcqmkxmwcnl_fnrzjz",
    "jr_mavdnffqheozubmwxmqwnl_fsuhjj",
    "jnemjvdnfguhexzcqmwxkwkll_fnrhjj",
]

# sha256 of the bytes of estimate_mu(M=1500, steps=4, eps_t=1e-3).probs with rng seed 17
GOLDEN_P0_SHA256 = "e6bb6e91ed70a8542199447f09db4f26172dfcf72c7322d111109a21b20f3a09"

# elbo_estimate(mc_samples=256) with rng seed 13
GOLDEN_J_SCORE = 4307.611540032509


def wide_system():
    rng = np.random.default_rng(2505)
    Q = FactorizedRateMatrix(*random_chain_arrays(rng, N, D, 0.0, 2.0))
    terminal = ProductDistribution(rng.dirichlet(np.ones(N), size=D))
    model = ScoreModel(N, D, hidden=(64, 64), rng=rng)
    model.weights[-1] += rng.normal(0.0, 0.05, model.weights[-1].shape)
    data = rng.integers(0, N, size=(100, D))
    return Q, terminal, model, data


def test_generate_draws():
    Q, terminal, model, _ = wide_system()
    draws = generate(terminal, Q, NoiseSchedule(), model.forward_batch, np.random.default_rng(11), 64, 4, 1e-3)
    assert ["".join(ALPHABET[x] for x in row) for row in draws] == GOLDEN_DRAWS


def test_estimate_mu_bytes():
    Q, terminal, model, _ = wide_system()
    p0 = estimate_mu(terminal, Q, NoiseSchedule(), model.forward_batch, np.random.default_rng(17), 1500, 4, 1e-3)
    assert hashlib.sha256(p0.probs.tobytes()).hexdigest() == GOLDEN_P0_SHA256


def test_elbo_score_term():
    Q, terminal, model, data = wide_system()
    report = elbo_estimate(model.forward_batch, data, Q, NoiseSchedule(), terminal, 256, np.random.default_rng(13))
    np.testing.assert_allclose(report.j_score, GOLDEN_J_SCORE, rtol=1e-12, atol=0.0)

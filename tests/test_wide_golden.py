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
    "rm_uavwzmhs_wxscqbkymywxn_v_wzli",
    "drlmavtz_gjhwchcfjuxqqkxl_rsrsjz",
    "rnelavoofgudwozcbmwkmawhlhrnrmjj",
    "rjemavtajfwdwyzhqmwfjqsnlpfswmuv",
    "rnnwvvdnfnuyen_cblwxmwkhlpf_wejj",
    "rnlmavonjfjdwxrcbplkcwwh__fsrhjp",
    "frlbvjqnfnuheizcbjwxlwenqefsrhum",
    "wglmmhtnfguhwcicfmwxmawnl_lrrhjz",
    "rc_mavdzjnudxnzcbawimqwxlofhtxoz",
    "rn_wzvdzfjwgxizufmwknwfl__fhghhi",
    "zn_qmvdnfguhxczcqmuxmrfxq_fswujz",
    "gv_mmvdnofjhwxzcfmwpnywhl_isthjz",
    "rnlwagonffwgwnuuqjkfmwwnqpisrmjp",
    "wn_mmvdnfgjhxxzcblwkmdjxlovhwhhm",
    "rnvmavdnftudwy_csmwsmqwn_hsrrhji",
    "orqmz_dnfntgjnzcbmkxodwnlhrerioy",
    "rc_wagdojguheyzcfmwkadwnlhtsumjj",
    "hr_lahdofguhwivcbmwkjywnlhfswhjj",
    "rnemavdzfyudwnvhuenxjroxn_rstzhz",
    "rc_wj_dojgugwxrhqmwxppfll_isrhfz",
    "rnema_dnjfu_extcfmwxnwzxl_ihahjz",
    "rnemavtnfguawchfillimwchnjihwwui",
    "rcmmm_dnfgqheyufbmwxmwshl_i_rmuz",
    "rnlwavomfguhwc_cqmkpjpwlq_rsrhjj",
    "ra_uavtnjfuhwxvrnudimrjxl_frrhhj",
    "rnkua_dnffugjxucfmupnakn_eiswmtk",
    "rnlmavdnfgndwnucbmwpmdwx__lswhhz",
    "rn_mzvd_jgfiecucnjwkcrsllhfhwhjz",
    "rneumvqnmguywizubmwkmacllzinrhjp",
    "rnemm_t_jguhwc_cscwklwwnlpisrhjz",
    "rnema_tnfnwhjcrubmwfmqwhl_isrzki",
    "rr_ma_dnjgu_wcuufmwymrwn__fowhdm",
    "fnlmavdnfgjdkxzcqldkopcnqeisrihz",
    "zn_ljednfnjdxnvuimbfmwwkbhfxwtjj",
    "rnemzgo__fjhzmucbmkxjawhlofhrhuy",
    "rcllqvtnofuhenrcflwxmwfnl_isthjz",
    "jnluavtofgu_wyzcumkpmqkxlpomwhdz",
    "rc_mcfdzffuhjnucbmwxmdwxbefhwhoi",
    "rn_uavdxfgmhknucfmwpmrwxl_rmumjj",
    "rr_waeonjguhewzhbjwxowwh__imwwjj",
    "rc_mveonfihdwyucbmkknywnl_fnuzjz",
    "rnlmm_yzhpuhexzrqjlpmwfx_hforhhj",
    "rr_uavwnfnuhjxhcbmwbnwknlffnweji",
    "srlumvonhfuhwczrbmnpxwwhl_xmrmdi",
    "rn_wavtojfuhew_fqlwkmawh__isthui",
    "fi_mj_defgqhxdrcfmkpmwjxq_fstmkj",
    "frsmcvoxfnjdex_cbmkxnqwnq_rorhhi",
    "rnnmmvqi_wjhjyzcnjdxmwwd__fhlzjj",
    "rcswvvtnffq_wezcbmkxmrcnlffsrhjz",
    "rn_wmjdnffqdwxrhnlukpqwx_hierhji",
    "oclmmvtnfguiwyucbmwpmwcdqpfhnztj",
    "jn_mavdojhuhjcuhqwlknrknnhtswhjz",
    "fn_umvbn_gu_wnzcqmkkmwkhl_tsumhz",
    "jiemawtoffudwcrcqmwbmrkxlpfnrzhz",
    "fn_mpjdnjgudxizhblwkmqwxl_fmrwjd",
    "rnlwmhdzfnuhxcvcbmwxmwwelhf_thhy",
    "rn_mvytnffudwxzubmwxnwshqpfhwhjj",
    "rr_mtvonfeudxihcbmwxmrehl_isrsjz",
    "jnewa_onfgudewzcbmlpnqcnn_tnrhuz",
    "rnejaedzfgtdlnrbfpbxmrwxq_iowhjm",
    "jn_mjvwnfgudwircblwkmdwxlffswsjz",
    "jcewavdnafuhwnzdnmbkmycll_tnrmuj",
    "jc_mavtnfgsheuzsfmkxmqwxqpfsrhjj",
    "jremmvdnfeuhexuhqmkxnwcelhfhrhja",
]

# sha256 of the bytes of estimate_mu(M=1500, steps=4, eps_t=1e-3).probs with rng seed 17
GOLDEN_P0_SHA256 = "5f751f04ec3d9e2b0478001f4ee5a1d4ae0460967d3bf68fee9aa5ee63176220"

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

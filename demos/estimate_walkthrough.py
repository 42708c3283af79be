"""One observation, end to end.

Starts from a data vector and a scale statistic, applies the positive-part
shrinkage rule, and then asks the honest question: how precise is that
estimate? The unbiased answer can be embarrassing (negative variance
estimates), and the improved estimators fix it without giving anything up.
"""

import numpy as np

import steinmse as sm


def main():
    dims = sm.ProblemDims(p=5, n=5)
    fam = sm.ShrinkageFamily.positive_part(dims)

    # A weak-signal observation: W = ||x||^2 / s is small, so shrinkage is
    # aggressive and the unbiased MSE estimate goes negative.
    x = np.array([0.45, -0.2, 0.3, 0.1, -0.25])
    obs = sm.Observation(x, s=2.0)
    print(f"W = {obs.w:.4f} (shrinkage constant k = {dims.shrink_constant:.4f})")

    point = sm.apply_estimator(obs, fam, dims)
    print("point estimate:", np.round(point, 4))

    print("\n-- scalar MSE estimates --")
    print(f"unbiased:            {sm.umvue_mse(obs, fam, dims):+.4f}   <- negative!")
    print(f"nonneg. truncated:   {sm.estimate_mse(sm.MseEstimatorKind.PSI0, obs, fam, dims):+.4f}")

    consts = sm.shrinkage_constants(fam, dims)  # exact: no seed, no replications
    for kind in (sm.MseEstimatorKind.PSI1_TR, sm.MseEstimatorKind.PSI2_TR):
        value = sm.estimate_mse(kind, obs, fam, dims, consts)
        print(f"positive ({kind.value}):  {value:+.4f}")
    print(f"(alpha = {consts.alpha:.4f} ({consts.provenance}), "
          f"gamma = {consts.gamma:.4f}; positivity certified: "
          f"{sm.psi1_positive_certified(consts, dims)})")

    print("\n-- MSE matrix estimates (eigenvalues) --")
    m0 = sm.umvue_mse_matrix(obs, fam, dims)
    print("unbiased:      ", np.round(m0.eigenvalues(), 4), "<- indefinite")
    mc = sm.matrix_constants(fam, dims)
    for kind in (sm.MatrixEstimatorKind.XI0_ETA0, sm.MatrixEstimatorKind.XI1_TR_ETA1,
                 sm.MatrixEstimatorKind.XI2_TR_ETA2):
        m = sm.estimate_mse_matrix(kind, obs, fam, dims, mc)
        print(f"{kind.value:12s}   ", np.round(m.eigenvalues(), 4))

    print("\n-- 95% confidence sets --")
    for variant in (sm.ConfidenceVariant.C0, sm.ConfidenceVariant.C3,
                    sm.ConfidenceVariant.C1, sm.ConfidenceVariant.C1_STAR):
        res = sm.build_confidence_set(sm.ConfidenceSpec(variant), obs, fam, dims, mc)
        print(f"{variant.value:4s} volume = {res.volume:9.3f}  "
              f"threshold = {res.quadratic_radius:.4f}")


if __name__ == "__main__":
    main()

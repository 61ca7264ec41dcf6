// Package kernels provides fused analytic value-and-gradient kernels for
// the likelihood families the registry workloads actually use: identity-link
// normal GLMs, logit-link bernoulli GLMs, log-link poisson GLMs, the logit
// Jacobian, and the model-specific likelihoods of survival (CJS), butterfly
// (Occupancy), racial (ThresholdTest), disease (ISplineNormal) and votes
// (GPNormal).
// The first two of those are collapsed as well as fused: whatever the
// likelihood lets one count once is counted at construction, and an
// evaluation no longer touches the observations at all.
//
// The generic tape path records one node (and at least one edge) per
// observation, so the per-leapfrog working set grows with the modeled data
// size — that is the coupling the paper's LLC analysis is built on, and it
// is preserved verbatim behind Workload.TapeModel for characterization.
// A kernel instead computes the whole-dataset log-likelihood and its exact
// gradient with respect to coefficients, group effects, and scale in one
// cache-friendly pass over flat float64 data, then records the result as a
// single ad.Tape.Custom node with O(dim) edges. This mirrors Stan's
// *_glm_lpdf substitution: the math is identical, only the recording
// granularity changes.
//
// The GLM kernels take each shard in blocks of 128 observations and make
// three passes over a block: linear predictor, link, gradient
// accumulation. The link pass is mathx.LogisticBlock (bernoulli-logit) or
// mathx.ExpBlock (poisson-log) — AVX2+FMA assembly where the CPU has it,
// a Go encoding of the same operation sequence, bit for bit, elsewhere —
// so no GLM evaluation calls math.Exp or math.Log1p per observation. For
// three or more columns the other two passes are mathx.DotRows and
// mathx.AxpyRows, which take the group effects in the same row loop and
// have the same two encodings (AVX2 for 4 <= p <= 16). Every product in
// glm.go and in those passes is rounded before it is added, written
// float64(x*y) in Go, so no compiler fuses a multiply-add there and an
// arm64 build computes the GLM kernels' bits as amd64 does.
// Every other kernel has the same shape: gather every argument of the
// evaluation's transcendentals into one slice, make one LogisticBlock or
// ExpBlock call (Occupancy makes two, the second over arguments the first
// produced), consume the results — no math.Exp, math.Log or math.Log1p
// per cell, patient, coefficient, kernel-matrix entry, species or logit.
// The softplus l and sigmoid s of a logit eta give log s(eta) = eta - l
// and log(1 - s(eta)) = -l, so no log of a probability is taken; CJS's
// logs of its nOcc absence probabilities are the one scalar remainder.
// Products that feed a sum in gp.go, cjs.go, occupancy.go and logit.go
// are written float64(x*y) as in glm.go, so arm64 computes their bits as
// amd64 does.
//
// Positive parameters enter a kernel on the unconstrained log scale where
// the kernel can chain-rule through exp itself: ISplineNormal takes log
// coefficients and log sigmas, exponentiates them in its one ExpBlock
// call and uses log sigma as given. Their priors, the exp Jacobian
// included, are one block node per family (dist.Gamma.LogScaleLPDF,
// dist.HalfCauchy.LogScaleLPDF) instead of a Builder.Positive transform
// and a prior node per parameter.
//
// Large-N kernels accumulate over fixed shards of the observation range.
// Shard boundaries depend only on N and shard partials are reduced
// sequentially in shard order, so a result's bits depend on the parameter
// vector alone — seeded runs are bit-identical at any GOMAXPROCS and for
// any batch composition. An evaluation runs on its caller's goroutine,
// spawns nothing and allocates nothing: single evaluations take their
// buffers from the tape's scratch arenas, batched ones from grow-only
// kernel scratch. Cores are used by running different chains' single
// evaluations side by side, each on its own tape; a batched sweep serves
// every chain from one core.
package kernels

// Package cost implements the abstract cost model of Section IV-A and the
// scan-versus-probe access path selection of Section VI-E.
//
// Costs are expressed in abstract work units. As the paper notes, "the cost
// model should be parametrized based on their mutually normalized relative
// performance": Params carries those relative weights, and Calibrate
// measures them on the running machine.
package cost

import (
	"context"
	"fmt"
	"math"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/vec"
)

// Params are the cost-model coefficients, per the paper's notation:
// A (data access per tuple), M (model embedding per tuple), C (comparison
// of one vector pair). Index terms extend the model for Section IV-B.
type Params struct {
	// Access is A: per-tuple data access cost.
	Access float64
	// Model is M: per-tuple embedding cost (lookup or inference).
	Model float64
	// Compare is C: cost of one d-dimensional pair comparison.
	Compare float64
	// TensorSpeedup is how much cheaper a comparison is inside the blocked
	// tensor formulation than in tuple-at-a-time NLJ (cache locality +
	// kernel quality); > 1 means faster.
	TensorSpeedup float64
	// ProbeHop is the cost of one graph hop during an index probe; a probe
	// visits ~ProbeWidth·log2(|S|) nodes.
	ProbeHop float64
	// ProbeWidth scales probe cost with beam width / k.
	ProbeWidth float64
	// Build is the per-tuple index construction cost.
	Build float64
}

// DefaultParams returns coefficients that reproduce the paper's qualitative
// regimes: model ≫ comparison ≫ access, tensor 5x cheaper per comparison
// (Calibrate measures the real ratio: ~8 with mat's AVX2 micro-kernel,
// ~0.1 on the pure-Go path, where the register tile's exactly rounded
// fused multiply-adds cost several times vec.Dot's plain ones),
// probes logarithmic in |S| but with a large constant — a top-1 probe with
// pre-filtering costs about as much as a blocked scan of a few hundred
// thousand vectors, which is what places the Figure 15 crossover at
// ~20-30% selectivity.
//
// M = 200 is a regime weight, not a host's ratio: on the benchmark host
// Calibrate measures M/A ≈ 1,900 for the hash embedder at d=100 (≈ 5,500
// before its multi-stream kernel) and C/A ≈ 4. It stays below Build
// because the index estimate leaves out the S embeddings a mid-query build
// consumes; a larger M would let that omission pick the index for cold S.
func DefaultParams() Params {
	return Params{
		Access:        1,
		Model:         200,
		Compare:       25,
		TensorSpeedup: 5,
		ProbeHop:      2000,
		ProbeWidth:    1.5,
		Build:         300,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Access < 0 || p.Model < 0 || p.Compare < 0 || p.Build < 0 {
		return fmt.Errorf("cost: negative coefficients: %+v", p)
	}
	if p.TensorSpeedup <= 0 {
		return fmt.Errorf("cost: TensorSpeedup must be positive, got %v", p.TensorSpeedup)
	}
	if p.ProbeHop < 0 || p.ProbeWidth <= 0 {
		return fmt.Errorf("cost: invalid probe parameters: %+v", p)
	}
	return nil
}

// TensorJoin is Cost = |R|·|S|·(A + C/TensorSpeedup) + (|R|+|S|)·M: the
// prefetched join (each tuple embedded once, not once per compared pair)
// with block-matrix execution dividing the comparison constant.
func (p Params) TensorJoin(nr, ns int) float64 {
	return p.TensorJoinWarm(nr, ns, 0, 0)
}

// TensorJoinWarm is TensorJoin with cache-discounted embedding cost.
func (p Params) TensorJoinWarm(nr, ns int, hitR, hitS float64) float64 {
	return float64(nr)*float64(ns)*(p.Access+p.Compare/p.TensorSpeedup) + p.EmbedCost(nr, hitR) + p.EmbedCost(ns, hitS)
}

// EmbedCost is the expected embedding cost of n tuples under a cache with
// the given expected hit ratio: n·M·(1-hit). hit is clamped to [0, 1];
// a cold (or absent) store is hit=0, reproducing the paper's n·M term.
func (p Params) EmbedCost(n int, hit float64) float64 {
	return float64(n) * p.Model * (1 - clamp01(hit))
}

// Iprobe is the paper's Iprobe(S) for one query: beam-scaled logarithmic
// traversal.
func (p Params) Iprobe(ns, k int) float64 {
	if ns <= 1 {
		return p.ProbeHop
	}
	beam := p.ProbeWidth * float64(k)
	if beam < 1 {
		beam = 1
	}
	return p.ProbeHop * beam * math.Log2(float64(ns))
}

// IndexJoin is Cost = |R|·Iprobe(S)·(A + C), per Equation (E-Index Join
// Cost). Embeddings of R still cost |R|·M; the index stores S embeddings.
// Pre-filtering does not reduce probe cost (traversal is still paid) —
// that asymmetry is what moves the crossovers in Figures 15-17.
func (p Params) IndexJoin(nr, ns, k int) float64 {
	return p.IndexJoinWarm(nr, ns, k, 0)
}

// IndexJoinWarm is IndexJoin with the probe side's embedding cost
// discounted by the expected cache hit ratio (the index already stores S
// embeddings, so only R's term is cache-sensitive).
func (p Params) IndexJoinWarm(nr, ns, k int, hitR float64) float64 {
	return float64(nr)*p.Iprobe(ns, k)*(p.Access+p.Compare) + p.EmbedCost(nr, hitR)
}

// IndexBuild is the one-time construction cost over |S| tuples.
func (p Params) IndexBuild(ns int) float64 {
	return float64(ns) * p.Build
}

// Strategy enumerates physical E-join strategies.
type Strategy int

const (
	// StrategyNLJ names the paper's tuple-at-a-time nested loop join. It
	// is never executed: no plan runs it (the optimizer and the executor
	// reject it), and Calibrate times core.NLJ directly as the tensor
	// scan's baseline.
	StrategyNLJ Strategy = iota
	// StrategyTensor is the blocked matrix formulation.
	StrategyTensor
	// StrategyIndex probes a vector index.
	StrategyIndex
)

// String names the strategy as used in plan explain output.
func (s Strategy) String() string {
	switch s {
	case StrategyNLJ:
		return "NLJ"
	case StrategyTensor:
		return "TensorJoin"
	case StrategyIndex:
		return "IndexJoin"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Choice is the outcome of access path selection.
type Choice struct {
	Strategy Strategy
	// Estimates maps each considered strategy to its estimated cost.
	Estimates map[Strategy]float64
}

// ChooseJoinStrategyWarm picks the cheaper access path, the tensor scan
// or the index probe, for joining |R|=nr against |S|=ns after relational
// filtering with the given selectivities, under a top-k (k>0) or
// threshold (k<=0) condition. hasIndex reports whether an index over S's
// embeddings exists (building one mid-query is counted against the index
// strategy). hitL/hitR are the expected hit ratios of the two inputs in
// the shared embedding store (0 = cold).
//
// The decision reproduces the paper's findings: scans win at low
// selectivity (they skip filtered tuples for free, and the tensor
// formulation makes comparisons cheap), index probes win for small k and
// high selectivity over large S, and range (threshold) conditions penalize
// the index (probes must over-fetch). A warm cache removes the E_µ term
// from the scan but leaves probe traversal untouched, shifting the
// scan-versus-probe crossover of Section VI-E.
func (p Params) ChooseJoinStrategyWarm(nr, ns int, selLeft, selRight float64, k int, hasIndex bool, hitL, hitR float64) Choice {
	fr := int(math.Ceil(float64(nr) * clamp01(selLeft)))
	fs := int(math.Ceil(float64(ns) * clamp01(selRight)))

	est := map[Strategy]float64{StrategyTensor: p.TensorJoinWarm(fr, fs, hitL, hitR)}

	// Index probes pay traversal over the full S (pre-filter semantics),
	// probe only surviving R tuples, and over-fetch for range conditions.
	probeK := k
	if probeK <= 0 {
		// Threshold probe: emulated with widened top-k (Figure 17); the
		// effective k grows with how many S tuples could qualify.
		probeK = 32
	}
	idxCost := p.IndexJoinWarm(fr, ns, probeK, hitL)
	if k <= 0 {
		// Over-fetch + retry widening for range conditions.
		idxCost *= 2
	}
	if !hasIndex {
		idxCost += p.IndexBuild(ns)
	}
	est[StrategyIndex] = idxCost

	best := StrategyTensor
	if est[StrategyIndex] < est[best] {
		best = StrategyIndex
	}
	return Choice{Strategy: best, Estimates: est}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Calibrate measures the machine's relative A, M, C and TensorSpeedup and
// returns Params with the index coefficients taken from DefaultParams. m
// is the model whose cost will sit on the query's critical path; dim is
// the embedding dimensionality.
func Calibrate(m model.Model, dim int) (Params, error) {
	p := DefaultParams()
	const rounds = 64

	// C: one d-dim dot product.
	a := make([]float32, dim)
	b := make([]float32, dim)
	for i := range a {
		a[i] = float32(i%7) * 0.25
		b[i] = float32(i%5) * 0.5
	}
	var sink float32
	start := time.Now()
	for i := 0; i < rounds; i++ {
		sink += vec.Dot(vec.KernelSIMD, a, b)
	}
	compare := float64(time.Since(start).Nanoseconds()) / rounds

	// A: one sequential float32 copy of a tuple.
	buf := make([]float32, dim)
	start = time.Now()
	for i := 0; i < rounds; i++ {
		copy(buf, a)
	}
	access := float64(time.Since(start).Nanoseconds()) / rounds

	// M: one model call, as the mean over a fixed mix of 1-, 2- and 3-token
	// strings (a subword model's cost grows with the text). Best of three
	// passes sheds the first call's cold caches.
	inputs := []string{
		"calibration", "barbecues",
		"relational join", "vector database",
		"context enhanced joins", "optimizing similarity search",
	}
	modelCost := math.MaxFloat64
	for pass := 0; pass < 3; pass++ {
		start = time.Now()
		for _, s := range inputs {
			if _, err := m.Embed(s); err != nil {
				return Params{}, fmt.Errorf("cost: calibration embed failed: %w", err)
			}
		}
		modelCost = min(modelCost, float64(time.Since(start).Nanoseconds())/float64(len(inputs)))
	}

	// TensorSpeedup: one small fixed join through both operators, one
	// thread each, with a threshold nothing reaches so only comparisons
	// are timed. Best of three sheds first-call scratch allocation.
	const sample = 128
	rows := mat.New(sample, dim)
	for i := range rows.Data {
		rows.Data[i] = float32(i%11)*0.125 - 0.5
	}
	rows.NormalizeRows()
	ctx := context.Background()
	opts := core.Options{Kernel: vec.KernelSIMD, Threads: 1}
	type joinFunc func(context.Context, *mat.Matrix, *mat.Matrix, float32, core.Options) (*core.Result, error)
	bestOf3 := func(join joinFunc) (time.Duration, error) {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := join(ctx, rows, rows, 2, opts); err != nil {
				return 0, fmt.Errorf("cost: calibration join failed: %w", err)
			}
			best = min(best, time.Since(start))
		}
		return best, nil
	}
	nlj, err := bestOf3(core.NLJ)
	if err != nil {
		return Params{}, err
	}
	tensor, err := bestOf3(func(ctx context.Context, l, r *mat.Matrix, t float32, o core.Options) (*core.Result, error) {
		return core.TensorJoin(ctx, l, r, t, o)
	})
	if err != nil {
		return Params{}, err
	}
	if nlj > 0 && tensor > 0 {
		p.TensorSpeedup = float64(nlj) / float64(tensor)
	}

	_ = sink
	if access <= 0 {
		access = 1
	}
	p.Access = 1
	p.Compare = compare / access
	p.Model = modelCost / access
	if p.Compare <= 0 {
		p.Compare = 1
	}
	if p.Model <= 0 {
		p.Model = 1
	}
	return p, nil
}

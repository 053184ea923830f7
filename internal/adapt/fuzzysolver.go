package adapt

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/fuzzy"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/tech"
	"repro/internal/vats"
)

// fcKey identifies one fuzzy controller: a subsystem with a structural
// variant. Each subsystem has an fmax controller (Freq algorithm) and Vdd
// and Vbb controllers (Power algorithm) per variant, matching Figure 3.
type fcKey struct {
	sub     int
	variant vats.Variant
}

// FuzzySolver answers Freq/Power queries with trained fuzzy controllers
// (§4.3.1). Predictions are snapped to the hardware's discrete levels; any
// residual misestimate is repaired by retuning cycles, exactly as the paper
// argues in §6.3.
type FuzzySolver struct {
	freq map[fcKey]*fuzzy.Controller // 6 inputs -> fmax
	vdd  map[fcKey]*fuzzy.Controller // 6 inputs + fcore -> Vdd
	vbb  map[fcKey]*fuzzy.Controller // 6 inputs + fcore -> Vbb
	// freqBias is each frequency controller's mean training residual
	// (prediction - truth), subtracted at query time.
	freqBias map[fcKey]float64
	// minBiasComp compensates the selection bias of taking the minimum
	// over n noisy per-subsystem estimates, which is otherwise biased low
	// by roughly one estimator sigma; without it every controller
	// invocation ends as a LowFreq retune instead of the paper's
	// Figure 13 mix.
	minBiasComp float64
}

// FreqMax implements Solver. Unknown (subsystem, variant) pairs — which
// cannot occur for solvers trained with TrainFuzzySolver on the same
// configuration — fall back to the exhaustive search.
func (s *FuzzySolver) FreqMax(c *Core, i int, q FreqQuery) float64 {
	fc, ok := s.freq[fcKey{sub: i, variant: q.Variant}]
	if !ok {
		return (Exhaustive{}).FreqMax(c, i, q)
	}
	x := c.Inputs(i, q.THK, q.AlphaF).Array()
	pred, err := fc.Predict(x[:])
	if err != nil {
		return (Exhaustive{}).FreqMax(c, i, q)
	}
	pred -= s.freqBias[fcKey{sub: i, variant: q.Variant}]
	pred += s.minBiasComp
	// Snap to the *nearest* frequency step rather than down: the core
	// frequency is the minimum over 15 noisy per-subsystem estimates,
	// which is already biased low; rounding down on top of that would make
	// every invocation a LowFreq retune. Balanced rounding plus the bias
	// compensation reproduces the paper's Figure 13 mix, where optimistic
	// misses (Error/Temp/Power) and pessimistic ones (LowFreq) both occur
	// and retuning repairs both.
	grid := tech.FRelLevels()
	return snapNearest(grid, mathx.Clamp(pred, tech.FRelMin, tech.FRelMax))
}

// PowerLevels implements Solver.
func (s *FuzzySolver) PowerLevels(c *Core, i int, fCore float64, q FreqQuery) (float64, float64) {
	key := fcKey{sub: i, variant: q.Variant}
	fcV, okV := s.vdd[key]
	fcB, okB := s.vbb[key]
	if !okV || !okB {
		return (Exhaustive{}).PowerLevels(c, i, fCore, q)
	}
	si := c.Inputs(i, q.THK, q.AlphaF).Array()
	var x [7]float64
	copy(x[:6], si[:])
	x[6] = fCore
	pv, errV := fcV.Predict(x[:])
	pb, errB := fcB.Predict(x[:])
	if errV != nil || errB != nil {
		return (Exhaustive{}).PowerLevels(c, i, fCore, q)
	}
	vddLevels := c.Config.VddLevels(nominalVdd)
	vbbLevels := c.Config.VbbLevels()
	// Vdd rounds *up* to the next level: an underpredicted supply costs a
	// whole frequency step that retuning cannot win back (it only moves f),
	// while an overpredicted one costs a sliver of power. This mirrors
	// SnapFRelDown's conservatism on the frequency side.
	return snapUp(vddLevels, pv), snapNearest(vbbLevels, pb)
}

// snapUp returns the smallest level at or above v (levels are ascending);
// values above the range clamp to the top level.
func snapUp(levels []float64, v float64) float64 {
	for _, l := range levels {
		if l >= v-1e-9 {
			return l
		}
	}
	return levels[len(levels)-1]
}

// snapNearest returns the level closest to v.
func snapNearest(levels []float64, v float64) float64 {
	best := levels[0]
	bd := math.Abs(v - best)
	for _, l := range levels[1:] {
		if d := math.Abs(v - l); d < bd {
			best, bd = l, d
		}
	}
	return best
}

// TrainOptions configures fuzzy-solver training.
type TrainOptions struct {
	// Examples per controller; the paper uses 10,000 randomly-selected
	// examples generated with Exhaustive.
	Examples int
	// Fuzzy is the controller training configuration (25 rules, lr 0.04).
	Fuzzy fuzzy.TrainConfig
	// Seed drives example sampling.
	Seed int64
	// MinBiasComp is added to every frequency prediction to undo the
	// low bias of the min-over-subsystems core-frequency selection
	// (in relative-frequency units; half a grid step by default).
	MinBiasComp float64
	// THRangeK bounds the sampled heat-sink temperatures.
	THLoK, THHiK float64
	// AlphaRange bounds the sampled activity factors.
	AlphaLo, AlphaHi float64
	// CPIRange bounds the sampled CPIs (to convert alpha to rho).
	CPILo, CPIHi float64
	// Obs, when non-nil, receives retune-cycle training timings (it is
	// also forwarded to the fuzzy controllers' epoch timers). Nil (the
	// default) is a zero-cost no-op.
	Obs *obs.Registry
	// Workers bounds the goroutines used for example labeling and
	// controller fitting. Values below 1 mean serial. Output is
	// byte-identical at every worker count: all randomness is drawn in a
	// sequential pre-pass and the expensive work is pure.
	Workers int
}

// DefaultTrainOptions returns a training budget that reproduces the
// paper's accuracy at tractable cost (set Examples to 10000 for the
// paper-exact budget).
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{
		Examples:    2000,
		Fuzzy:       fuzzy.DefaultTrainConfig(),
		Seed:        99,
		MinBiasComp: tech.FRelStep / 2,
		THLoK:       45 + 273.15,
		THHiK:       71 + 273.15,
		AlphaLo:     0.01,
		AlphaHi:     1.2,
		CPILo:       0.6,
		CPIHi:       5.0,
	}
}

// Validate checks training options.
func (o TrainOptions) Validate() error {
	if o.Examples < o.Fuzzy.Rules {
		return fmt.Errorf("adapt: %d examples < %d rules", o.Examples, o.Fuzzy.Rules)
	}
	if o.THLoK >= o.THHiK || o.AlphaLo >= o.AlphaHi || o.CPILo >= o.CPIHi {
		return fmt.Errorf("adapt: degenerate sampling ranges")
	}
	return o.Fuzzy.Validate()
}

// variantChoice pairs a structural variant with its power multiplier.
type variantChoice struct {
	v    vats.Variant
	mult float64
}

// variantsOf lists the structural variants subsystem i can take under the
// core's technique configuration.
func (c *Core) variantsOf(i int) []variantChoice {
	out := []variantChoice{{vats.IdentityVariant(), 1}}
	id := c.Subs[i].Sub.ID
	if c.Config.QueueResize && tech.IsQueueSubsystem(id) {
		out = append(out, variantChoice{tech.QueueThreeQuarter.Variant(), tech.QueueSmallFrac + 0.05})
	}
	if c.Config.FUReplication && tech.IsFUSubsystem(id) {
		out = append(out, variantChoice{tech.FULowSlope.Variant(), tech.LowSlopePowerMult})
	}
	return out
}

// trainDraw holds one training example's pre-drawn random inputs. The
// draws are taken in a sequential pass over the RNG stream, in exactly the
// order the serial trainer consumed them: core pick, TH, alpha, CPI, and
// the core-frequency backoff factor. The backoff draw came after FreqSolve
// in the serial code but never depended on its result, so the stream
// separates cleanly from the solve work.
type trainDraw struct {
	core              int
	th, alpha, cpi, u float64
}

// trainTask is one controller fit: a (subsystem, variant) pair with its
// pre-drawn examples.
type trainTask struct {
	sub   int
	vm    variantChoice
	draws []trainDraw
}

// trainResult is one task's trained controller triple.
type trainResult struct {
	freq, vdd, vbb *fuzzy.Controller
	freqBias       float64
	err            error
}

// runTrainTask labels the task's pre-drawn examples with the Exhaustive
// algorithm and fits the three controllers. It is pure given (task, opts,
// cores): no RNG, no shared mutable state beyond the cores' concurrency-
// safe PE store, so tasks may run on any goroutine in any order.
func runTrainTask(cores []*Core, t trainTask, opts TrainOptions) trainResult {
	freqEx := make([]fuzzy.Example, 0, len(t.draws))
	vddEx := make([]fuzzy.Example, 0, len(t.draws))
	vbbEx := make([]fuzzy.Example, 0, len(t.draws))
	for _, d := range t.draws {
		core := cores[d.core]
		q := FreqQuery{
			THK:       d.th,
			AlphaF:    d.alpha,
			Rho:       d.alpha * d.cpi,
			Variant:   t.vm.v,
			PowerMult: t.vm.mult,
		}
		x := core.Inputs(t.sub, d.th, d.alpha).Vector()
		fr := core.FreqSolve(t.sub, q)
		freqEx = append(freqEx, fuzzy.Example{X: x, Y: fr.FMax})
		// Power examples at a feasible core frequency at or below this
		// subsystem's ceiling.
		fCore := tech.SnapFRelDown(fr.FMax * d.u)
		pr := core.PowerSolve(t.sub, fCore, q)
		xp := append(append([]float64(nil), x...), fCore)
		vddEx = append(vddEx, fuzzy.Example{X: xp, Y: pr.VddV})
		vbbEx = append(vbbEx, fuzzy.Example{X: xp, Y: pr.VbbV})
	}
	fcfg := opts.Fuzzy
	fcfg.Seed = opts.Seed + int64(t.sub)*31 + 7
	if fcfg.Obs == nil {
		fcfg.Obs = opts.Obs
	}
	trainSW := opts.Obs.Timer("adapt.train.controller").Start()
	defer trainSW.Stop()
	var r trainResult
	if r.freq, r.err = fuzzy.Train(freqEx, fcfg); r.err != nil {
		r.err = fmt.Errorf("adapt: training freq FC for sub %d: %w", t.sub, r.err)
		return r
	}
	// Center the controller: subtract its mean training residual.
	var resid float64
	for _, ex := range freqEx {
		p, perr := r.freq.Predict(ex.X)
		if perr != nil {
			r.err = perr
			return r
		}
		resid += p - ex.Y
	}
	r.freqBias = resid / float64(len(freqEx))
	if r.vdd, r.err = fuzzy.Train(vddEx, fcfg); r.err != nil {
		r.err = fmt.Errorf("adapt: training vdd FC for sub %d: %w", t.sub, r.err)
		return r
	}
	if r.vbb, r.err = fuzzy.Train(vbbEx, fcfg); r.err != nil {
		r.err = fmt.Errorf("adapt: training vbb FC for sub %d: %w", t.sub, r.err)
		return r
	}
	return r
}

// TrainFuzzySolver builds the full controller set for the configuration
// shared by the training cores: for every (subsystem, variant), Examples
// random operating situations are labeled by the Exhaustive algorithm and
// fed to the Appendix A trainer. Training cores should be distinct chips
// from the same manufacturing distribution as the deployment chips — the
// manufacturer's software model (§4.3.1).
//
// Training runs in two stages. A cheap sequential pass drains the RNG
// stream into per-task draws in the exact order the serial trainer used;
// the expensive work — Freq/Power labeling and the gradient-descent fits
// — then fans across opts.Workers goroutines, each driving its own
// WorkerView of the training cores over the shared PE-table store.
// Results are assembled in task order, so fixed-seed output is
// byte-identical at any worker count.
func TrainFuzzySolver(cores []*Core, opts TrainOptions) (*FuzzySolver, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("adapt: no training cores")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	cfg := cores[0].Config
	for _, c := range cores[1:] {
		if c.Config != cfg {
			return nil, fmt.Errorf("adapt: training cores have mixed configurations")
		}
	}
	// Stage 1: sequential RNG pre-pass. Every draw happens in the order
	// the serial implementation made it, so the example stream — and with
	// it every trained weight — is independent of the worker count.
	rng := mathx.NewRNG(opts.Seed)
	var tasks []trainTask
	n := cores[0].N()
	for i := 0; i < n; i++ {
		for _, vm := range cores[0].variantsOf(i) {
			draws := make([]trainDraw, opts.Examples)
			for e := range draws {
				draws[e] = trainDraw{
					core:  rng.Intn(len(cores)),
					th:    rng.Uniform(opts.THLoK, opts.THHiK),
					alpha: rng.Uniform(opts.AlphaLo, opts.AlphaHi),
					cpi:   rng.Uniform(opts.CPILo, opts.CPIHi),
					u:     rng.Uniform(0.75, 1.0),
				}
			}
			tasks = append(tasks, trainTask{sub: i, vm: vm, draws: draws})
		}
	}
	// Stage 2: fan the labeling + fitting across the pool. Each worker
	// slot gets its own core views (private scratch, shared PE store);
	// the Freq/Power scans are pure functions of the query and the
	// tables, so which slot labels an example cannot perturb its label.
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	views := make([][]*Core, workers)
	for slot := range views {
		if workers == 1 {
			views[slot] = cores
			continue
		}
		views[slot] = make([]*Core, len(cores))
		for ci, c := range cores {
			views[slot][ci] = c.WorkerView()
		}
	}
	results := make([]trainResult, len(tasks))
	obs.RunPool(opts.Obs, "adapt.train.pool", workers, len(tasks), func(slot, ti int) {
		results[ti] = runTrainTask(views[slot], tasks[ti], opts)
	})
	// Reduce in task order: map insertion and the first-error pick follow
	// the serial loop's ordering exactly.
	s := &FuzzySolver{
		freq:        make(map[fcKey]*fuzzy.Controller),
		vdd:         make(map[fcKey]*fuzzy.Controller),
		vbb:         make(map[fcKey]*fuzzy.Controller),
		freqBias:    make(map[fcKey]float64),
		minBiasComp: opts.MinBiasComp,
	}
	for ti, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		key := fcKey{sub: tasks[ti].sub, variant: tasks[ti].vm.v}
		s.freq[key] = r.freq
		s.vdd[key] = r.vdd
		s.vbb[key] = r.vbb
		s.freqBias[key] = r.freqBias
	}
	return s, nil
}

// ControllerCount reports how many fuzzy controllers the solver holds.
func (s *FuzzySolver) ControllerCount() int {
	return len(s.freq) + len(s.vdd) + len(s.vbb)
}

// solverState is the JSON form of a FuzzySolver, which fuzzytrain -out
// writes: the manufacturer's shippable controller tables (~120 KB of
// data footprint, §5) plus the two prediction-correction terms. The
// artifact store keeps solvers in the binary form (MarshalBinary).
type solverState struct {
	Entries     []solverEntry `json:"entries"`
	MinBiasComp float64       `json:"min_bias_comp"`
}

type solverEntry struct {
	Sub      int               `json:"sub"`
	Variant  vats.Variant      `json:"variant"`
	Freq     *fuzzy.Controller `json:"freq"`
	Vdd      *fuzzy.Controller `json:"vdd"`
	Vbb      *fuzzy.Controller `json:"vbb"`
	FreqBias float64           `json:"freq_bias"`
}

// MarshalJSON serializes the solver's controllers.
func (s *FuzzySolver) MarshalJSON() ([]byte, error) {
	st := solverState{MinBiasComp: s.minBiasComp}
	for key, fc := range s.freq {
		st.Entries = append(st.Entries, solverEntry{
			Sub:      key.sub,
			Variant:  key.variant,
			Freq:     fc,
			Vdd:      s.vdd[key],
			Vbb:      s.vbb[key],
			FreqBias: s.freqBias[key],
		})
	}
	sort.Slice(st.Entries, func(i, j int) bool {
		a, b := st.Entries[i], st.Entries[j]
		if a.Sub != b.Sub {
			return a.Sub < b.Sub
		}
		return a.Variant.MeanScale < b.Variant.MeanScale
	})
	return json.Marshal(st)
}

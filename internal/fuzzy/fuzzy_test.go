package fuzzy

import (
	"math"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/mathx"
)

// genExamples samples a smooth 3-input function of the kind the Freq/Power
// algorithms compute (monotone in each input, mildly nonlinear).
func genExamples(n int, seed int64) []Example {
	rng := mathx.NewRNG(seed)
	out := make([]Example, n)
	for i := range out {
		x := []float64{rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1)}
		y := 0.5 + 0.3*x[0] - 0.25*x[1]*x[1] + 0.15*math.Sin(3*x[2])
		out[i] = Example{X: x, Y: y}
	}
	return out
}

func TestTrainConfigValidate(t *testing.T) {
	if err := DefaultTrainConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*TrainConfig){
		func(c *TrainConfig) { c.Rules = 0 },
		func(c *TrainConfig) { c.LearningRate = 0 },
		func(c *TrainConfig) { c.LearningRate = 1 },
		func(c *TrainConfig) { c.Epochs = 0 },
		func(c *TrainConfig) { c.SigmaInit = 0 },
	}
	for i, mutate := range bad {
		c := DefaultTrainConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestPaperSettings(t *testing.T) {
	c := DefaultTrainConfig()
	if c.Rules != 25 {
		t.Errorf("Rules = %d, want 25 (Figure 7(a))", c.Rules)
	}
	if c.LearningRate != 0.04 {
		t.Errorf("LearningRate = %v, want 0.04 (Appendix A)", c.LearningRate)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(genExamples(10, 1), DefaultTrainConfig()); err == nil {
		t.Error("too few examples should error")
	}
	exs := genExamples(100, 1)
	exs[50].X = []float64{1, 2} // inconsistent dimensionality
	if _, err := Train(exs, DefaultTrainConfig()); err == nil {
		t.Error("ragged examples should error")
	}
	empty := make([]Example, 30)
	for i := range empty {
		empty[i] = Example{X: nil, Y: 0}
	}
	if _, err := Train(empty, DefaultTrainConfig()); err == nil {
		t.Error("empty input vectors should error")
	}
}

func TestLearnsSmoothFunction(t *testing.T) {
	train := genExamples(4000, 2)
	test := genExamples(500, 3)
	c, err := Train(train, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	mae, err := c.MAE(test)
	if err != nil {
		t.Fatal(err)
	}
	// Output range is ~[0.1, 0.95]; a useful controller should predict
	// within a few percent of that span, like the paper's Table 2 errors.
	if mae > 0.05 {
		t.Errorf("MAE = %v, want < 0.05", mae)
	}
	// And it must beat the trivial constant predictor by a wide margin.
	trivial := 0.0
	mean := 0.0
	for _, ex := range test {
		mean += ex.Y
	}
	mean /= float64(len(test))
	for _, ex := range test {
		trivial += math.Abs(ex.Y - mean)
	}
	trivial /= float64(len(test))
	if mae > trivial/2 {
		t.Errorf("MAE %v not well below trivial baseline %v", mae, trivial)
	}
}

func TestTrainingImprovesOverSeeding(t *testing.T) {
	train := genExamples(3000, 4)
	test := genExamples(300, 5)
	cfgNoTrain := DefaultTrainConfig()
	cfgNoTrain.Epochs = 1
	cfgNoTrain.LearningRate = 1e-9 // effectively untrained beyond seeding
	seeded, err := Train(train, cfgNoTrain)
	if err != nil {
		t.Fatal(err)
	}
	trained, err := Train(train, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	maeSeed, _ := seeded.MAE(test)
	maeTrain, _ := trained.MAE(test)
	if maeTrain >= maeSeed {
		t.Errorf("gradient training did not help: %v vs %v", maeTrain, maeSeed)
	}
}

func TestDeterministicTraining(t *testing.T) {
	train := genExamples(1000, 6)
	a, err := Train(train, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(train, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, 0.7, 0.2}
	pa, _ := a.Predict(x)
	pb, _ := b.Predict(x)
	if pa != pb {
		t.Error("training is not deterministic")
	}
}

func TestPredictValidation(t *testing.T) {
	c, err := Train(genExamples(500, 7), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Predict([]float64{1, 2}); err == nil {
		t.Error("wrong dimensionality should error")
	}
}

func TestOutOfSupportFallsBack(t *testing.T) {
	c, err := Train(genExamples(500, 8), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Far outside [0,1]^3: the controller answers with the training mean
	// rather than garbage.
	p, err := c.Predict([]float64{50, -50, 50})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(p) || math.IsInf(p, 0) {
		t.Fatalf("out-of-support prediction = %v", p)
	}
	if p < 0 || p > 1.2 {
		t.Errorf("out-of-support prediction %v far from training range", p)
	}
}

func TestAccessors(t *testing.T) {
	c, err := Train(genExamples(200, 9), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Rules() != 25 || c.Inputs() != 3 {
		t.Errorf("Rules/Inputs = %d/%d", c.Rules(), c.Inputs())
	}
}

// A controller round-trips through the artifact store's binary codec
// bit for bit, and predicts exactly as the trained one.
func TestSerializationRoundTrip(t *testing.T) {
	c, err := Train(genExamples(800, 10), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	var e artifact.Enc
	c.AppendBinary(&e)
	var restored Controller
	d := artifact.NewDec(e.B)
	if err := restored.DecodeBinary(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if !restored.Equal(c) {
		t.Error("restored controller differs from the encoded one")
	}
	for _, x := range [][]float64{{0.1, 0.9, 0.4}, {0.8, 0.2, 0.6}} {
		pa, _ := c.Predict(x)
		pb, _ := restored.Predict(x)
		if pa != pb {
			t.Errorf("restored controller differs at %v: %v vs %v", x, pa, pb)
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	c, err := Train(genExamples(200, 10), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	var good artifact.Enc
	c.AppendBinary(&good)
	// state encodes one controller field by field, in AppendBinary's
	// layout: rules, width, mu rows, sigma rows, y, lo, hi, fallback.
	state := func(rules, width uint64, mu, sigma [][]float64, y, lo, hi []float64) []byte {
		var e artifact.Enc
		e.Uvarint(rules)
		e.Uvarint(width)
		for _, rows := range [][][]float64{mu, sigma} {
			for _, row := range rows {
				e.F64s(row)
			}
		}
		e.F64s(y)
		e.F64s(lo)
		e.F64s(hi)
		e.F64(0)
		return e.B
	}
	for name, blob := range map[string][]byte{
		"no rules": state(0, 0, nil, nil, nil, nil, nil),
		"ragged rule": state(1, 2, [][]float64{{1, 2}}, [][]float64{{1}},
			[]float64{0.5}, []float64{0, 0}, []float64{1, 1}),
		"non-finite weight": state(1, 1, [][]float64{{math.NaN()}}, [][]float64{{1}},
			[]float64{0.5}, []float64{0}, []float64{1}),
		"truncated": good.B[:len(good.B)-1],
		"garbage":   []byte("not a controller"),
	} {
		var got Controller
		if err := got.DecodeBinary(artifact.NewDec(blob)); err == nil {
			t.Errorf("%s: corrupt state accepted", name)
		}
	}
}

func TestMAEValidation(t *testing.T) {
	c, err := Train(genExamples(200, 11), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.MAE(nil); err == nil {
		t.Error("empty evaluation set should error")
	}
}

func TestMoreRulesHelp(t *testing.T) {
	// Ablation sanity: 25 rules should beat 4 rules on the same budget.
	train := genExamples(3000, 12)
	test := genExamples(300, 13)
	small := DefaultTrainConfig()
	small.Rules = 4
	cSmall, err := Train(train, small)
	if err != nil {
		t.Fatal(err)
	}
	cBig, err := Train(train, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	maeS, _ := cSmall.MAE(test)
	maeB, _ := cBig.MAE(test)
	if maeB >= maeS {
		t.Errorf("25 rules (%v) should beat 4 rules (%v)", maeB, maeS)
	}
}

func TestControllerEqual(t *testing.T) {
	train := genExamples(500, 9)
	a, err := Train(train, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(train, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("identically-trained controllers are not Equal")
	}
	if !a.Equal(a) {
		t.Error("controller is not Equal to itself")
	}
	cfg := DefaultTrainConfig()
	cfg.Seed++
	c, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Error("controllers trained with different seeds are Equal")
	}
	var nilC *Controller
	if a.Equal(nil) || nilC.Equal(a) {
		t.Error("nil comparison must be false")
	}
	if !nilC.Equal(nil) {
		t.Error("nil must Equal nil")
	}
}

// TestConcurrentTrainingIsDeterministic: Train calls racing on separate
// goroutines must each produce the bit-exact controller a serial call
// yields — the property the parallel training pipeline stands on.
func TestConcurrentTrainingIsDeterministic(t *testing.T) {
	train := genExamples(800, 10)
	ref, err := Train(train, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([]*Controller, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Train(train, DefaultTrainConfig())
			if err == nil {
				got[w] = c
			}
		}(w)
	}
	wg.Wait()
	for w, c := range got {
		if c == nil {
			t.Fatalf("goroutine %d: training failed", w)
		}
		if !ref.Equal(c) {
			t.Errorf("goroutine %d: controller differs from serial reference", w)
		}
	}
}

// TestDecodeBinaryAllocsPerController: a controller decodes into one
// allocation whatever its rule count — not one per rule row — and the
// decoded controller equals the encoded one.
func TestDecodeBinaryAllocsPerController(t *testing.T) {
	for _, rules := range []int{1, 4, 25, 60} {
		cfg := DefaultTrainConfig()
		cfg.Rules = rules
		c, err := Train(genExamples(300, 14), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var e artifact.Enc
		c.AppendBinary(&e)
		var got Controller
		allocs := testing.AllocsPerRun(20, func() {
			got = Controller{}
			if err := got.DecodeBinary(artifact.NewDec(e.B)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("%d rules: DecodeBinary made %v allocations, want 1", rules, allocs)
		}
		if !got.Equal(c) {
			t.Errorf("%d rules: decoded controller differs from the encoded one", rules)
		}
	}
}

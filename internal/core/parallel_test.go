package core

import (
	"reflect"
	"testing"
)

// acceptanceConfig is the fixed-seed invocation the PR's determinism
// guarantee is stated against: `summary -chips 2 -apps gcc,swim
// -examples 300 -seed 1000`.
func acceptanceConfig() ExperimentConfig {
	cfg := DefaultExperimentConfig()
	cfg.Chips = 2
	cfg.SeedBase = 1000
	cfg.TrainChips = 1
	cfg.Apps = []string{"gcc", "swim"}
	cfg.Training.Examples = 300
	return cfg
}

// TestSummaryWorkerDeterminism: the (chip × env) work queue must yield a
// Summary that is exactly — not approximately — independent of the worker
// count. Every printed digit of the summary/fig10-12 output is a pure
// function of this struct, so DeepEqual here pins the CLI output bytes.
func TestSummaryWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full acceptance-config experiment")
	}
	cfg := acceptanceConfig()
	cfg.Workers = 1
	ref, err := newSim(t).RunSummary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := newSim(t).RunSummary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, par) {
		t.Errorf("summary at workers=8 differs from workers=1:\n  w1: %+v\n  w8: %+v", ref, par)
	}
}

// TestOutcomesWorkerDeterminism: Figure 13 fractions at workers=1 vs 8.
// Counts are integers, but the reduction is index-ordered anyway so the
// float divisions see identical operands.
func TestOutcomesWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzy training across 16 configs")
	}
	cfg := DefaultExperimentConfig()
	cfg.Chips = 1
	cfg.SeedBase = 1000
	cfg.Apps = []string{"gcc"}
	cfg.Training.Examples = 60
	cfg.Training.Fuzzy.Epochs = 2
	cfg.Workers = 1
	ref, err := newSim(t).RunOutcomes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := newSim(t).RunOutcomes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, par) {
		t.Errorf("fig13 outcomes at workers=8 differ from workers=1")
	}
}

// TestTable2WorkerDeterminism: the Table 2 accuracy rows at workers=1 vs
// 8. Each environment's query stream spans its chips, so this exercises
// the pre-drawn RNG chunking across (env × chip) unit boundaries.
func TestTable2WorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzy training across envs and chips")
	}
	cfg := DefaultExperimentConfig()
	cfg.Chips = 2
	cfg.SeedBase = 1000
	cfg.Training.Examples = 60
	cfg.Training.Fuzzy.Epochs = 2
	cfg.Workers = 1
	ref, err := newSim(t).RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := newSim(t).RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, par) {
		t.Errorf("table2 rows at workers=8 differ from workers=1")
	}
}

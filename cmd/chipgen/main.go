// Command chipgen generates the personalized variation maps of one or more
// chips (§2.1) and reports what the manufacturer's tester would see: the
// per-subsystem effective threshold voltages, each subsystem's error-free
// frequency at the design corner, and the chip's worst-case-safe frequency
// (the Baseline clock).
//
// Usage:
//
//	chipgen -seed 3            # one chip in detail
//	chipgen -n 100             # frequency binning across 100 chips
//	chipgen -seed 3 -curves    # per-subsystem PE(f) samples as CSV
//	chipgen -seed 3 -save c.json   # persist a die's tester database
//	chipgen -load c.json           # inspect a persisted die
//
// With -cache-dir (or $EVAL_CACHE_DIR) generated chips are persisted in
// the content-addressed artifact cache keyed by (varius params, seed), so
// later chipgen/evalsim/fuzzytrain runs load the same die instead of
// re-sampling it; -no-cache forces the cache off.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/varius"
	"repro/internal/vats"
)

func main() {
	var (
		seed   = flag.Int64("seed", 3, "chip seed")
		n      = flag.Int("n", 0, "bin n chips instead of detailing one")
		curves = flag.Bool("curves", false, "emit per-subsystem PE(f) CSV for the chip")
		save   = flag.String("save", "", "write the chip's variation maps to a JSON file")
		load   = flag.String("load", "", "inspect a previously saved chip instead of generating one")
	)
	openStore := artifact.CacheFlags(flag.CommandLine)
	flag.Parse()

	sim, err := core.NewSimulator(core.DefaultOptions())
	if err != nil {
		fatal(err)
	}
	store, err := openStore(artifact.Options{})
	if err != nil {
		fatal(err)
	}
	defer store.Close() // save the index (each write is already on disk); nil-safe
	sim.SetArtifacts(store)
	if *n > 0 {
		if err := binChips(sim, *n); err != nil {
			fatal(err)
		}
		return
	}
	var chip *varius.ChipMaps
	if *load != "" {
		blob, err := os.ReadFile(*load)
		if err != nil {
			fatal(err)
		}
		chip = &varius.ChipMaps{}
		if err := json.Unmarshal(blob, chip); err != nil {
			fatal(err)
		}
	} else {
		chip = sim.Chip(*seed)
	}
	if *save != "" {
		blob, err := json.Marshal(chip)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*save, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("chip saved to %s (%d bytes)\n", *save, len(blob))
	}
	if err := detailChip(sim, chip, *curves); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chipgen:", err)
	os.Exit(1)
}

func detailChip(sim *core.Simulator, chip *varius.ChipMaps, curves bool) error {
	vp := sim.Options().Varius
	corner := vats.Cond{VddV: vp.VddNomV, TK: vp.TOpRefK}
	pl, err := vats.NewPipeline(sim.Floorplan(), chip, vp)
	if err != nil {
		return err
	}
	fmt.Printf("chip seed %d (Vt: mu=%.0f mV sigma/mu=%.2f, phi=%.2f)\n",
		chip.Seed, vp.VtMeanV*1000, vp.VtSigmaRatio, vp.Phi)
	fmt.Printf("%-12s %-7s %10s %10s %10s\n", "subsystem", "kind", "Vt0eff(mV)", "Vt0max(mV)", "fvar")
	minF := 2.0
	for _, st := range pl.Stages {
		sub := st.Sub
		_, vtMax, leakEff := chip.RegionVtStats(sub.Rect, vp)
		fv := st.Eval(corner, vats.IdentityVariant()).FVar()
		if fv < minF {
			minF = fv
		}
		fmt.Printf("%-12s %-7s %10.1f %10.1f %10.3f\n",
			sub.ID, sub.Kind, leakEff*1000, vtMax*1000, fv)
	}
	fmt.Printf("\nworst-case-safe frequency (Baseline clock): %.3f x nominal (%.2f GHz)\n",
		minF, minF*4.0)
	if !curves {
		return nil
	}
	fmt.Println("\nfrel,subsystem,pe")
	for _, st := range pl.Stages {
		cv := st.Eval(corner, vats.IdentityVariant())
		for _, p := range vats.SampleCurve(cv, 0.7, 1.4, 36) {
			fmt.Printf("%.3f,%s,%.4g\n", p.FRel, st.Sub.ID, p.PE)
		}
	}
	return nil
}

func binChips(sim *core.Simulator, n int) error {
	fvars := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		fv, err := sim.ChipFVar(sim.Chip(int64(i)))
		if err != nil {
			return err
		}
		fvars = append(fvars, fv)
	}
	sort.Float64s(fvars)
	s, err := mathx.Summarize(fvars)
	if err != nil {
		return err
	}
	fmt.Printf("worst-case-safe frequency across %d chips (relative to nominal):\n", n)
	fmt.Printf("  mean %.3f  sd %.3f  min %.3f  p5 %.3f  median %.3f  p95 %.3f  max %.3f\n",
		s.Mean, s.StdDev, s.Min, s.P5, s.Median, s.P95, s.Max)
	fmt.Printf("  (the paper's Baseline runs at 78%% of nominal on average)\n")
	// A simple bin histogram.
	const bins = 10
	lo, hi := s.Min, s.Max
	if hi <= lo {
		return nil
	}
	counts := make([]int, bins)
	for _, f := range fvars {
		b := int(float64(bins) * (f - lo) / (hi - lo))
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	for b := 0; b < bins; b++ {
		left := lo + float64(b)*(hi-lo)/bins
		fmt.Printf("  %.3f ", left)
		for i := 0; i < counts[b]; i++ {
			fmt.Print("#")
		}
		fmt.Println()
	}
	return nil
}
